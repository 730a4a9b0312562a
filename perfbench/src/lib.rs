//! # mg-perfbench — the repository benchmark
//!
//! One command runs one of three workloads, measures it for a fixed number
//! of seconds, checks every output it produced, and prints one JSON result
//! line (see [`report`]). The workloads:
//!
//! * `paper-sweep` ([`sweeps`]) — static-grid cells shaped like Fig. 5(a–c)
//!   and 6(a) through `mg_runner::Runner` with a cold cache;
//! * `mobile-sweep` ([`sweeps`]) — random-waypoint cells shaped like
//!   Fig. 5(d) and 6(b), a `MonitorPool` over every vantage, the same way;
//! * `journal-serve` ([`journal`]) — recorded binary journals replayed
//!   in-process and streamed to a spawned `mgd` over TCP.
//!
//! With `--trace 0` a run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics instead, timed only around calls into
//! each module's public functions from this crate (plus the existing
//! `mg_trace::Metrics` counters). Nothing inside the program is
//! instrumented. Times are CPU time ([`thread_cpu_s`], [`process_cpu_s`])
//! unless a metric says it is wall time.

pub mod journal;
pub mod report;
pub mod stats;
pub mod sweeps;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use report::{Outcome, Tally};

/// The seed the pinned outcome digests in `pinned.txt` were taken at. Any
/// other seed runs every check that needs no pinned value.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Fig. 5(a–c)/6(a) static sweep through the runner.
    PaperSweep,
    /// Fig. 5(d)/6(b) random-waypoint sweep through the runner.
    MobileSweep,
    /// Journal replay in-process plus `mgd` over TCP.
    JournalServe,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::MobileSweep,
        Workload::JournalServe,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::MobileSweep => "mobile-sweep",
            Workload::JournalServe => "journal-serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload scale: `Full` is what the benchmark measures; `Tiny` runs the
/// same code paths on toy inputs for the benchmark's own tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The measured size.
    Full,
    /// Toy size for tests (pinned digests do not apply).
    Tiny,
}

/// Where `journal-serve` sends its socket streams.
#[derive(Clone, Debug)]
pub enum Server {
    /// Spawn this `mgd` binary with `--listen 127.0.0.1:0`.
    Mgd(PathBuf),
    /// An already-listening wire-protocol server (tests).
    Addr(std::net::SocketAddr),
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Workload scale.
    pub size: Size,
    /// Socket target for `journal-serve`.
    pub server: Option<Server>,
    /// Scratch directory for cache dirs; created and removed by the run.
    pub tmp: PathBuf,
}

impl Args {
    /// Whether the pinned digests apply to this run.
    pub fn pinned(&self) -> bool {
        self.size == Size::Full && self.seed == DEFAULT_SEED
    }
}

/// Runs one invocation and returns its metrics and check tally.
pub fn run(args: &Args) -> Outcome {
    let _ = std::fs::create_dir_all(&args.tmp);
    let out = match args.workload {
        Workload::PaperSweep | Workload::MobileSweep => sweeps::run(args),
        Workload::JournalServe => journal::run(args),
    };
    let _ = std::fs::remove_dir_all(&args.tmp);
    out
}

/// A deadline for the timed phase, with a floor on repetitions.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    /// Starts a budget of `secs` seconds now.
    pub fn new(secs: f64) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(secs.max(0.0)),
        }
    }

    /// Whether another repetition should start, given `done` so far and a
    /// floor of `min` repetitions.
    pub fn more(&self, done: usize, min: usize) -> bool {
        done < min || self.start.elapsed() < self.limit
    }

    /// Seconds since the budget started.
    pub fn elapsed(&self) -> f64 {
        secs(self.start)
    }
}

/// SplitMix64: derives per-cell world seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Keep world seeds short: they are printed in journal headers.
    (z ^ (z >> 31)) & 0xffff_ffff
}

/// The pinned outcome digest of `workload` at [`DEFAULT_SEED`].
pub fn pinned_digest(workload: Workload) -> Option<u64> {
    include_str!("../pinned.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload.name())
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("self", "VmHWM:") / 1024.0
}

/// A `kB` field of `/proc/<pid>/status`, or 0 when unreadable.
pub fn proc_status_kb(pid: &str, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

fn cpu_clock(id: i32) -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime(2) writes one timespec through the pointer,
    // which points at a live, properly laid out value of ours.
    if unsafe { clock_gettime(id, &mut t) } != 0 {
        return 0.0;
    }
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run. On a virtual machine this
/// leaves out the time the host gave the CPU to someone else (steal),
/// which wall time counts.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of this process has run, as
/// [`thread_cpu_s`].
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds (user + system, every thread, live or exited) process
/// `pid` has run, from `/proc/<pid>/stat` at clock-tick resolution; 0
/// when unreadable.
pub fn proc_cpu_s(pid: u32) -> f64 {
    // SAFETY: sysconf(3) takes and returns plain integers.
    let tck = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name start at field 3;
            // utime and stime are fields 14 and 15.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / tck)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
