//! `paper-sweep` and `mobile-sweep`: detection cells shaped like Fig. 5(a–c)
//! and 6(a) on the static grid, or like Fig. 5(d) and 6(b) under random
//! waypoint with a `MonitorPool` over every vantage, drained through
//! `mg_runner::Runner` with a cold cache exactly the way `fig5`/`fig6`
//! drain theirs (same trial helpers, cache keys and codec).
//!
//! * untraced job: every cell runs the `mg-bench` trial helper; `cpu_s`
//!   is the CPU time of the whole sweep, one op is one cell (its thread
//!   CPU time inside the closure);
//! * set-up: one warm-up world (the first cell's shape) before every pass,
//!   so allocator and code pages are warm before timing;
//! * traced job: every cell runs a replica of the helper built through
//!   `ScenarioBuilder`, timing `Scenario::new` + `build` and `run_until`
//!   in thread CPU time; then each cell's bare twin (same roles and
//!   reservations, no monitors), and a re-run of the sweep on its now-warm
//!   cache.

use crate::report::{Outcome, Tally};
use crate::stats::{median, quantile};
use crate::{mix, pinned_digest, process_cpu_s, secs, thread_cpu_s, Args, Budget, Size, Workload};
use mg_bench::sweep::{detection_key, outcomes_codec};
use mg_bench::{
    detection_trial_fanout, grid_base, mobile_detection_trial_fanout, FaultPlan, Load, TrialOutcome,
};
use mg_dcf::BackoffPolicy;
use mg_detect::{MonitorConfig, NodeCounts, ScenarioBuilder, WorldMonitors};
use mg_net::{DstPolicy, Scenario, ScenarioConfig, SourceCfg, TrafficModel};
use mg_runner::{fnv64, Cache, CacheKey, CacheMode, Runner};
use mg_sim::{SimDuration, SimTime};
use mg_trace::{Counter, MetricsSnapshot};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cells an untraced run times at least.
const MIN_OPS: usize = 100;

/// World seeds per PM in `mobile-sweep`: random-waypoint worlds differ in
/// work far more than grid worlds, so a pass needs many of them for its
/// total to move little with the workload seed.
const MOBILE_SEEDS: u64 = 20;

/// The sample sizes every cell fans out over (Fig. 5).
pub const SAMPLE_SIZES: [usize; 4] = [10, 25, 50, 100];

/// The world-layer counters a bare twin must reproduce exactly.
pub const WORLD_COUNTERS: [Counter; 7] = [
    Counter::TxFrames,
    Counter::RxDecoded,
    Counter::RxGarbled,
    Counter::BackoffFreezes,
    Counter::Enqueued,
    Counter::Delivered,
    Counter::Dropped,
];

/// One (load, PM, world seed) grid cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Position in the grid (index of its timing slots).
    pub idx: usize,
    /// Offered load.
    pub load: Load,
    /// Percentage of misbehavior of the tagged node.
    pub pm: u8,
    /// World seed.
    pub seed: u64,
}

/// A sweep: its cells and their simulated duration.
pub struct Plan {
    /// The cells, in task order.
    pub cells: Vec<Cell>,
    /// Simulated seconds per cell.
    pub secs: u64,
    /// Random-waypoint worlds watched by monitor pools (Fig. 5(d)/6(b))
    /// instead of the static grid.
    pub mobile: bool,
}

impl Plan {
    /// The sweep of `workload` for workload seed `seed`.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Plan {
        let mobile = workload == Workload::MobileSweep;
        let (loads, pms, per_point, secs): (Vec<Load>, Vec<u8>, u64, u64) = match (mobile, size) {
            (false, Size::Full) => (Load::all().to_vec(), vec![0, 30, 60, 90], 2, 5),
            (true, Size::Full) => (vec![Load::Medium], vec![0, 50, 90], MOBILE_SEEDS, 5),
            (false, Size::Tiny) => (vec![Load::Low, Load::High], vec![0, 90], 1, 1),
            (true, Size::Tiny) => (vec![Load::Medium], vec![0, 90], 1, 1),
        };
        let mut cells = Vec::new();
        for (li, &load) in loads.iter().enumerate() {
            for &pm in &pms {
                for i in 0..per_point {
                    let salt = (li as u64) << 32 | (pm as u64) << 16 | i;
                    cells.push(Cell {
                        idx: cells.len(),
                        load,
                        pm,
                        seed: mix(seed, salt),
                    });
                }
            }
        }
        Plan {
            cells,
            secs,
            mobile,
        }
    }

    /// The fully resolved scenario of `c` — also its cache identity.
    fn cfg(&self, c: &Cell) -> ScenarioConfig {
        let base = if self.mobile {
            ScenarioConfig::mobile_paper(c.seed, SimDuration::ZERO)
        } else {
            grid_base()
        };
        ScenarioConfig {
            sim_secs: self.secs,
            rate_pps: c.load.rate_pps(),
            seed: c.seed,
            ..base
        }
    }

    fn key(&self, c: &Cell) -> CacheKey {
        let experiment = if self.mobile {
            "detection-mobile"
        } else {
            "detection"
        };
        detection_key(
            experiment,
            &self.cfg(c),
            c.pm,
            &SAMPLE_SIZES,
            false,
            &FaultPlan::default(),
        )
    }

    /// One cell through the `mg-bench` trial helper `fig5`/`fig6` use.
    pub fn trial(&self, c: &Cell) -> Vec<TrialOutcome> {
        if self.mobile {
            return mobile_detection_trial_fanout(
                c.seed,
                c.load,
                c.pm,
                &SAMPLE_SIZES,
                self.secs,
                SimDuration::ZERO,
            );
        }
        detection_trial_fanout(
            c.seed,
            c.load,
            c.pm,
            &SAMPLE_SIZES,
            self.secs,
            false,
            grid_base(),
        )
    }

    /// One cell through a `ScenarioBuilder` replica of the trial helper,
    /// with `Scenario::new` + `build` and `run_until` timed. Without
    /// `monitored` it builds the bare twin: the same attacker, reserved
    /// vantage and tagged flow, and no monitors.
    pub fn traced_trial(&self, c: &Cell, monitored: bool) -> WorldSpans {
        let t = thread_cpu_s();
        let scenario = Scenario::new(self.cfg(c));
        let (s, r) = scenario.tagged_pair();
        let d = scenario.positions()[s].distance(scenario.positions()[r]);
        let nodes = scenario.positions().len();
        let mut b = ScenarioBuilder::new(scenario);
        let attacker = b.attacker(s);
        let watches: Vec<_> = match (monitored, self.mobile) {
            (true, false) => {
                let mc = MonitorConfig::grid_paper(s, r, d);
                SAMPLE_SIZES
                    .iter()
                    .map(|&n| b.monitor(mc.with_sample_size(n)))
                    .collect()
            }
            (true, true) => {
                // The mobile helper's pool: every vantage but the tagged
                // node, conservative EIFS, distance-calibrated counts.
                let vantages: Vec<usize> = (0..nodes).filter(|&v| v != s).collect();
                let mut template = MonitorConfig::random_paper(s, r, 240.0);
                template.eifs_weight = 0.0;
                template.counts = NodeCounts::SimCalibrated;
                SAMPLE_SIZES
                    .iter()
                    .map(|&n| b.monitor_pool(template.with_sample_size(n), &vantages))
                    .collect()
            }
            (false, _) => {
                b.reserve(r);
                Vec::new()
            }
        };
        b.source(if self.mobile {
            SourceCfg {
                node: s,
                model: TrafficModel::Saturated,
                dst: DstPolicy::StickyRandomNeighbor,
                payload_len: 512,
            }
        } else {
            SourceCfg::saturated(s, r)
        });
        b.metrics();
        let mut world = b.build();
        let build_s = thread_cpu_s() - t;
        if c.pm > 0 {
            world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: c.pm });
        }
        let t = thread_cpu_s();
        world.run_until(SimTime::from_secs(self.secs));
        let run_s = thread_cpu_s() - t;
        let metrics = world.metrics().snapshot();
        let outcomes = watches
            .into_iter()
            .map(|w| {
                let diag = world.monitors().diagnosis(w);
                TrialOutcome {
                    tests: diag.tests_run as u64,
                    rejections: diag.rejections as u64,
                    violations: diag.violations as u64,
                    samples: diag.samples_collected as u64,
                    uncertain: diag.uncertain as u64,
                    rho: diag.measured_rho,
                    metrics,
                }
            })
            .collect();
        WorldSpans {
            build_s,
            run_s,
            events: world.events_fired(),
            metrics,
            outcomes,
        }
    }
}

/// What a traced world run measured.
#[derive(Clone, Debug, Default)]
pub struct WorldSpans {
    /// `Scenario::new` + `ScenarioBuilder::build`, thread CPU seconds.
    pub build_s: f64,
    /// `World::run_until`, thread CPU seconds.
    pub run_s: f64,
    /// `World::events_fired` after the run.
    pub events: u64,
    /// The world's `mg_trace::Metrics` counters after the run.
    pub metrics: MetricsSnapshot,
    /// One outcome per monitor.
    pub outcomes: Vec<TrialOutcome>,
}

impl WorldSpans {
    /// Whether `twin` fired the same events and world counters.
    pub fn twin_matches(&self, twin: &WorldSpans) -> bool {
        self.events == twin.events
            && WORLD_COUNTERS
                .iter()
                .all(|&c| self.metrics.total(c) == twin.metrics.total(c))
    }
}

/// Outcome digest: tests, rejections, violations, samples and ρ bits of
/// every monitor of every cell, in order, behind FNV-1a 64.
pub fn digest<'a>(cells: impl IntoIterator<Item = &'a [TrialOutcome]>) -> u64 {
    let mut text = String::new();
    for outcomes in cells {
        for o in outcomes {
            text.push_str(&format!(
                "{},{},{},{},{:x};",
                o.tests,
                o.rejections,
                o.violations,
                o.samples,
                o.rho.to_bits()
            ));
        }
        text.push('|');
    }
    fnv64(text.as_bytes())
}

/// One pass of the sweep through a runner.
pub struct Job {
    /// Sweep wall time, seconds.
    pub wall: f64,
    /// CPU time every thread of the process spent in the sweep, seconds.
    pub cpu: f64,
    /// Per-cell wall time inside the runner closure, seconds (0 for cache
    /// hits).
    pub cell_s: Vec<f64>,
    /// Per-cell thread CPU time inside the runner closure, seconds (0 for
    /// cache hits).
    pub cell_cpu_s: Vec<f64>,
    /// Per-cell outcomes; `Err` for a poisoned cell.
    pub results: Vec<Result<Vec<TrialOutcome>, String>>,
    /// Cache hits during the pass.
    pub hits: u64,
    /// Traced passes: each cell's world spans.
    pub spans: Vec<Option<WorldSpans>>,
}

impl Job {
    /// The outcome digest, or `None` if any cell was poisoned.
    pub fn digest(&self) -> Option<u64> {
        let ok: Option<Vec<&[TrialOutcome]>> = self
            .results
            .iter()
            .map(|r| r.as_ref().ok().map(|v| v.as_slice()))
            .collect();
        ok.map(digest)
    }
}

/// Drains the plan through a runner over the cache at `dir`. `traced`
/// swaps the helper for the timed replica; `twin` runs bare twins with the
/// cache off.
pub fn sweep(plan: &Plan, dir: &Path, traced: bool, twin: bool) -> Job {
    let mode = if twin {
        CacheMode::Off
    } else {
        CacheMode::ReadWrite
    };
    let runner = Runner::new(Cache::new(dir, mode));
    let n = plan.cells.len();
    let cell_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let cell_cpu_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let spans: Vec<Mutex<Option<WorldSpans>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    let c0 = process_cpu_s();
    let results = runner.try_sweep(
        &plan.cells,
        |c| plan.key(c),
        outcomes_codec(),
        |c| {
            let t = Instant::now();
            let cpu = thread_cpu_s();
            let out = if traced || twin {
                let w = plan.traced_trial(c, !twin);
                let out = w.outcomes.clone();
                *spans[c.idx].lock().expect("span slot") = Some(w);
                out
            } else {
                plan.trial(c)
            };
            cell_ns[c.idx].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let cpu_ns = (thread_cpu_s() - cpu) * 1e9;
            cell_cpu_ns[c.idx].store(cpu_ns as u64, Ordering::Relaxed);
            out
        },
    );
    let wall = secs(t0);
    let cpu = process_cpu_s() - c0;
    let to_s = |v: &[AtomicU64]| {
        v.iter()
            .map(|a| a.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect()
    };
    Job {
        wall,
        cpu,
        cell_s: to_s(&cell_ns),
        cell_cpu_s: to_s(&cell_cpu_ns),
        results: results
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect(),
        hits: runner.hits(),
        spans: spans
            .into_iter()
            .map(|m| m.into_inner().expect("span slot"))
            .collect(),
    }
}

/// Counts one op per cell (poisoned cells fail) and one for the digest.
pub fn check_job(job: &Job, expected: &mut Option<u64>, tally: &mut Tally, what: &str) {
    for (i, r) in job.results.iter().enumerate() {
        tally.check(r.is_ok(), || {
            format!("{what}: cell {i} poisoned: {}", r.as_ref().err().unwrap())
        });
    }
    let Some(d) = job.digest() else { return };
    match *expected {
        Some(e) => tally.check(d == e, || {
            format!("{what}: digest {d:016x}, expected {e:016x}")
        }),
        None => *expected = Some(d),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let workload = args.workload;
    let plan = Plan::new(workload, args.seed, args.size);
    let mut out = Outcome::default();
    let mut expected = if args.pinned() {
        pinned_digest(workload)
    } else {
        None
    };
    let dir = |tag: &str, i: usize| args.tmp.join(format!("{}-{tag}-{i}", workload.name()));

    // Set-up: one warm-up world (the first cell's shape on a fixed world
    // seed, so set-up work does not vary with the workload seed) before
    // every pass, so the set-ups sample the same stretch of host time as
    // the passes.
    let warm_up = Cell {
        seed: crate::DEFAULT_SEED,
        ..plan.cells[0]
    };
    let mut setup = Vec::new();
    let mut set_up = |tally: &mut Tally| {
        let t = thread_cpu_s();
        let warm = plan.trial(&warm_up);
        setup.push(thread_cpu_s() - t);
        tally.check(!warm.is_empty(), || {
            "warm-up cell returned no outcomes".into()
        });
    };

    let budget = Budget::new(args.seconds);
    if !args.trace {
        let (mut cpus, mut walls, mut ops) = (Vec::new(), Vec::new(), Vec::new());
        // Enough passes that p90 has at least ten cells beyond it.
        while budget.more(cpus.len(), MIN_OPS.div_ceil(plan.cells.len())) {
            set_up(&mut out.tally);
            let d = dir("cold", cpus.len());
            let job = sweep(&plan, &d, false, false);
            let _ = std::fs::remove_dir_all(&d);
            check_job(&job, &mut expected, &mut out.tally, "sweep");
            out.tally.check(job.hits == 0, || {
                format!("cold sweep had {} cache hits", job.hits)
            });
            cpus.push(job.cpu);
            walls.push(job.wall);
            ops.extend(job.cell_cpu_s.iter().map(|s| s * 1e3));
        }
        out.set("setup_s", median(&setup));
        out.set("cpu_s", median(&cpus));
        out.set("op_cpu_ms_p50", quantile(&ops, 0.5));
        out.set("op_cpu_ms_p90", quantile(&ops, 0.9));
        out.set("peak_rss_mb", crate::peak_rss_mb());
        println!(
            "digest   : {:016x} ({} cells x {} passes)",
            expected.unwrap_or(0),
            plan.cells.len(),
            cpus.len()
        );
        println!("cpu      : {}", crate::stats::list(&cpus));
        println!("walls    : {}", crate::stats::list(&walls));
        return out;
    }

    // Traced: alternate untraced and traced passes for the overhead ratio;
    // keep the last traced pass's cache for the warm re-run.
    set_up(&mut out.tally);
    let (mut plain, mut timed, mut plain_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Job, std::path::PathBuf)> = None;
    while budget.more(timed.len(), 1) {
        let d = dir("plain", timed.len());
        let job = sweep(&plan, &d, false, false);
        let _ = std::fs::remove_dir_all(&d);
        check_job(&job, &mut expected, &mut out.tally, "sweep");
        plain.push(job.cpu);
        plain_walls.push(job.wall);
        let d = dir("traced", timed.len());
        let job = sweep(&plan, &d, true, false);
        check_job(&job, &mut expected, &mut out.tally, "traced replica");
        timed.push(job.cpu);
        if let Some((_, old)) = last.replace((job, d)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (job, cache_dir) = last.expect("at least one traced pass");
    let warm = sweep(&plan, &cache_dir, false, false);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let n = plan.cells.len();
    out.tally.check(warm.hits == n as u64, || {
        format!("warm re-run hit {} of {n} cells", warm.hits)
    });
    out.tally.check(warm.digest() == job.digest(), || {
        "warm re-run changed the outcomes".into()
    });
    let twins = sweep(&plan, &dir("twin", 0), false, true);

    let spans: Vec<&WorldSpans> = job.spans.iter().flatten().collect();
    let mut tap = 0.0;
    for (i, (m, t)) in job.spans.iter().zip(&twins.spans).enumerate() {
        if let (Some(m), Some(t)) = (m, t) {
            out.tally.check(m.twin_matches(t), || {
                format!("cell {i}: bare twin diverged from the monitored world")
            });
            tap += m.run_s - t.run_s;
        } else {
            out.tally
                .fail(format!("cell {i}: missing monitored or twin spans"));
        }
    }
    world_layers(&mut out, &spans);
    let run_s: f64 = spans.iter().map(|s| s.run_s).sum();
    out.set("tap.s", tap);
    out.set("tap.share", tap / run_s.max(1e-12));
    let busy: f64 = job.cell_s.iter().sum();
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n.max(1));
    out.set("runner.cells", n as f64);
    out.set("runner.busy_frac", busy / (job.wall * workers as f64));
    out.set(
        "runner.cell_s_max",
        job.cell_s.iter().copied().fold(0.0, f64::max),
    );
    out.set("runner.warm_s", warm.wall);
    out.set("runner.cache_hits", warm.hits as f64);
    out.set("runner.wall_s", median(&plain_walls));
    out.set("trace.cpu_s", median(&timed));
    out.set("trace.overhead_ratio", median(&timed) / median(&plain));
    out
}

/// Sums the world-layer spans and counters of `spans` into `out`.
fn world_layers(out: &mut Outcome, spans: &[&WorldSpans]) {
    let sum = |f: &dyn Fn(&WorldSpans) -> f64| spans.iter().map(|s| f(s)).sum::<f64>();
    let events = sum(&|s| s.events as f64);
    out.set("world.build_s", sum(&|s| s.build_s));
    out.set("world.run_s", sum(&|s| s.run_s));
    out.set("sim.events", events);
    out.set(
        "sim.ns_per_event",
        sum(&|s| s.run_s) * 1e9 / events.max(1.0),
    );
    let names = [
        "phy.tx_frames",
        "phy.rx_decoded",
        "phy.rx_garbled",
        "mac.backoff_freezes",
        "net.enqueued",
        "net.delivered",
        "net.dropped",
    ];
    for (name, c) in names.into_iter().zip(WORLD_COUNTERS) {
        out.set(name, sum(&|s| s.metrics.total(c) as f64));
    }
    let outcomes = || spans.iter().flat_map(|s| s.outcomes.iter());
    out.set("detect.samples", outcomes().map(|o| o.samples as f64).sum());
    out.set("detect.tests", outcomes().map(|o| o.tests as f64).sum());
    out.set(
        "detect.violations",
        outcomes().map(|o| o.violations as f64).sum(),
    );
}
