//! Big world: 5000 clustered nodes on the serial event loop.
//!
//! Builds a 5000-node clustered topology (50 clumps of 100 nodes) at the
//! paper's node density, tags four cheaters with a monitor mesh around
//! each, runs one simulated second and prints the world's counters and the
//! mesh's verdicts. The grid-indexed medium keeps a world this size
//! affordable on one core.
//!
//! ```text
//! cargo run --release --example big_world
//! ```

use manet_guard::prelude::*;

fn main() {
    // 50 × 100 nodes in 300 m clumps, field scaled to the paper's density
    // (3000 m side at 112 nodes → ≈20 km at 5000), CBR background load.
    let nodes = 5000;
    let side = 3000.0 * (nodes as f64 / 112.0).sqrt();
    let cfg = ScenarioConfig {
        topology: TopologyCfg::Clustered { clusters: 50, per_cluster: 100, radius: 300.0 },
        field_w: side,
        field_h: side,
        sim_secs: 1,
        ..ScenarioConfig::large_world(3, nodes)
    };
    println!("world    : {nodes} nodes over {side:.0} m x {side:.0} m");

    let scenario = Scenario::new(cfg);
    let mut builder = ScenarioBuilder::new(scenario);
    let cheats = builder.attackers(4);
    let tagged: Vec<usize> = cheats.iter().map(|a| a.id()).collect();
    let watches = builder.monitor_mesh(&tagged);
    // Each cheater saturates a flow to its nearest neighbor, so the mesh
    // has back-offs to sample on top of the background CBR load.
    let pos = builder.scenario().positions().to_vec();
    for &t in &tagged {
        let v = (0..pos.len())
            .filter(|&v| v != t)
            .min_by(|&a, &b| {
                pos[t].distance_sq(pos[a])
                    .partial_cmp(&pos[t].distance_sq(pos[b]))
                    .expect("finite positions")
            })
            .expect("more than one node");
        builder.source(SourceCfg::saturated(t, v));
    }
    builder.metrics();

    let mut world = builder.build();
    for a in &cheats {
        world.set_policy(a.id(), BackoffPolicy::Scaled { pm: 70 });
    }
    let t0 = std::time::Instant::now();
    world.run_until(SimTime::from_secs(1));
    let wall = t0.elapsed();

    let snap = world.metrics().snapshot();
    println!("run      : 1 s virtual in {wall:.2?} ({} events)", world.events_fired());
    println!("traffic  : {} frames tx, {} delivered", snap.total(Counter::TxFrames), snap.total(Counter::Delivered));
    println!("monitors : {} back-off samples across the mesh", snap.total(Counter::MonitorSamples));
    let flagged = watches
        .iter()
        .filter(|&&h| world.monitors().diagnosis(h).is_flagged())
        .count();
    println!("verdicts : {flagged}/{} tagged nodes flagged", watches.len());
}
