//! Macro-benchmark: world-size scaling of the medium's spatial index.
//!
//! Sweeps a (nodes × attackers × seed) grid of large worlds — each at the
//! paper's node density via [`ScenarioConfig::large_world`] — through the
//! mg-runner engine twice, once per [`MediumIndex`] strategy. Every cell
//! must *fire the exact same number of events* under both strategies (the
//! index is an execution detail; `tests/diff_index.rs` proves full
//! byte-identity), so the only thing allowed to differ is wall-clock. The
//! events/sec comparison is written to `BENCH_world_scale.json` (override
//! the path with `MG_BENCH_OUT`).
//!
//! Cells run *sequentially* through the runner and the result cache is
//! forced off: a perf measurement must never come from a cache hit, and
//! parallel cells would contend for the cores being timed.
//!
//! ```text
//! MG_TRIALS=1 MG_SIM_SECS=2 cargo run --release -p mg-bench --bin bench_world_scale
//! ```
//!
//! Extra knobs: `MG_WORLD_NODES` (comma list, default `112,500,1000,2000`)
//! and `MG_WORLD_ATTACKERS` (comma list, default `1,4`).

use mg_bench::BenchConfig;
use mg_dcf::BackoffPolicy;
use mg_detect::{ScenarioBuilder, WorldMonitors};
use mg_net::{Scenario, ScenarioConfig};
use mg_phy::MediumIndex;
use mg_runner::{Cache, CacheKey, CacheMode, Codec, Runner};
use mg_sim::SimTime;
use mg_trace::json::Json;
use std::time::Instant;

/// What one simulated world reports back.
#[derive(Clone, Copy)]
struct CellResult {
    /// Scheduler events fired — must match across index strategies.
    events: u64,
    /// Wall-clock for build + run, milliseconds.
    ms: f64,
    /// Monitor pools whose diagnosis flagged their attacker.
    flagged: u64,
}

fn cell_codec() -> Codec<CellResult> {
    Codec {
        encode: |r| {
            Json::obj([
                ("events", Json::from(r.events)),
                ("ms", Json::Num(r.ms)),
                ("flagged", Json::from(r.flagged)),
            ])
        },
        decode: |v| {
            Some(CellResult {
                events: v.get("events")?.as_u64()?,
                ms: v.get("ms")?.as_f64()?,
                flagged: v.get("flagged")?.as_u64()?,
            })
        },
    }
}

/// Builds and runs one large world end to end: `attackers` cheaters spread
/// across the node range, one monitor pool per cheater, background CBR
/// load at the paper's density.
fn run_cell(nodes: usize, attackers: usize, seed: u64, secs: u64, index: MediumIndex) -> CellResult {
    let t0 = Instant::now();
    let cfg = ScenarioConfig {
        sim_secs: secs,
        medium_index: index,
        ..ScenarioConfig::large_world(seed, nodes)
    };
    let scenario = Scenario::new(cfg);
    let mut b = ScenarioBuilder::new(scenario);
    let atks = b.attackers(attackers);
    let tagged: Vec<usize> = atks.iter().map(|a| a.id()).collect();
    let watch = b.monitor_mesh(&tagged);
    let mut world = b.build();
    for a in &atks {
        world.set_policy(a.id(), BackoffPolicy::Scaled { pm: 70 });
    }
    world.run_until(SimTime::from_secs(secs));
    let flagged = watch
        .iter()
        .filter(|&&h| world.monitors().diagnosis(h).is_flagged())
        .count() as u64;
    CellResult {
        events: world.events_fired(),
        ms: t0.elapsed().as_secs_f64() * 1e3,
        flagged,
    }
}

/// A comma-separated usize list from the environment, default on unset,
/// exit 2 on malformed (matching every other mg-bench knob).
fn list_var(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Err(_) => default.to_vec(),
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!(
                        "mg-bench: invalid {name} value {raw:?}: expected comma-separated positive integers"
                    );
                    std::process::exit(2);
                })
            })
            .collect(),
    }
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let node_sizes = list_var("MG_WORLD_NODES", &[112, 500, 1000, 2000]);
    let attacker_counts = list_var("MG_WORLD_ATTACKERS", &[1, 4]);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Never cache a wall-clock measurement (and never trust one): the cache
    // is forced off no matter what MG_CACHE says.
    let runner = Runner::new(Cache::new(bc.cache_dir.clone(), CacheMode::Off));

    let mut points = Vec::new();
    for &nodes in &node_sizes {
        for &attackers in &attacker_counts {
            let mut naive = Vec::new();
            let mut grid = Vec::new();
            for trial in 0..bc.trials {
                let seed = 9000 + trial;
                // One cell per sweep call keeps the measurement serial;
                // Grid immediately after Naive on the same world keeps the
                // machine-state comparison as local as possible.
                for (index, out) in
                    [(MediumIndex::Naive, &mut naive), (MediumIndex::Grid, &mut grid)]
                {
                    let task = (nodes, attackers, seed, index);
                    let key = CacheKey::new("world-scale", 1)
                        .field("nodes", nodes)
                        .field("attackers", attackers)
                        .field("seed", seed)
                        .field("secs", bc.sim_secs)
                        .field("index", index);
                    let cell = runner
                        .sweep(std::slice::from_ref(&task), |_| key.clone(), cell_codec(), |t| {
                            run_cell(t.0, t.1, t.2, bc.sim_secs, t.3)
                        })
                        .remove(0);
                    out.push(cell);
                }
            }
            for (a, b) in naive.iter().zip(&grid) {
                assert_eq!(
                    a.events, b.events,
                    "{nodes} nodes / {attackers} attackers: index modes diverged"
                );
                assert_eq!(
                    a.flagged, b.flagged,
                    "{nodes} nodes / {attackers} attackers: diagnoses diverged"
                );
            }
            let events: u64 = naive.iter().map(|c| c.events).sum();
            let naive_ms: f64 = naive.iter().map(|c| c.ms).sum();
            let grid_ms: f64 = grid.iter().map(|c| c.ms).sum();
            let naive_eps = events as f64 / (naive_ms / 1e3).max(1e-9);
            let grid_eps = events as f64 / (grid_ms / 1e3).max(1e-9);
            let speedup = naive_ms / grid_ms.max(1e-9);
            println!(
                "{nodes:>5} nodes x {attackers} attackers: {events:>9} events | naive {naive_ms:>9.1} ms ({naive_eps:>10.0} ev/s) | grid {grid_ms:>8.1} ms ({grid_eps:>10.0} ev/s) | speedup {speedup:.2}x"
            );
            points.push((nodes, attackers, events, naive_ms, grid_ms, naive_eps, grid_eps, speedup));
        }
    }

    // Headline number: speedup at the largest world swept.
    let max_nodes = *node_sizes.iter().max().expect("non-empty node list");
    let headline = points
        .iter()
        .filter(|p| p.0 == max_nodes)
        .map(|p| p.7)
        .fold(f64::INFINITY, f64::min);

    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let cells: Vec<Json> = points
        .iter()
        .map(|&(nodes, attackers, events, naive_ms, grid_ms, naive_eps, grid_eps, speedup)| {
            Json::obj([
                ("nodes", Json::from(nodes as u64)),
                ("attackers", Json::from(attackers as u64)),
                ("events", Json::from(events)),
                ("naive_ms", Json::Num(round1(naive_ms))),
                ("grid_ms", Json::Num(round1(grid_ms))),
                ("naive_events_per_sec", Json::Num(naive_eps.round())),
                ("grid_events_per_sec", Json::Num(grid_eps.round())),
                ("speedup", Json::Num((speedup * 100.0).round() / 100.0)),
            ])
        })
        .collect();
    let json = Json::obj([
        ("bench", Json::from("world_scale: naive vs grid medium index")),
        ("trials", Json::from(bc.trials)),
        ("sim_secs", Json::from(bc.sim_secs)),
        ("cores", Json::from(cores as u64)),
        ("cells", Json::Arr(cells)),
        ("max_nodes", Json::from(max_nodes as u64)),
        ("speedup_at_max_nodes", Json::Num((headline * 100.0).round() / 100.0)),
    ]);
    let path = std::env::var("MG_BENCH_OUT").unwrap_or_else(|_| "BENCH_world_scale.json".into());
    std::fs::write(&path, format!("{}\n", json.render())).unwrap_or_else(|e| {
        eprintln!("bench_world_scale: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("speedup at {max_nodes} nodes: {headline:.2}x ({cores} core(s))");
    println!("wrote {path}");
}
