//! The benchmark's own tests, at toy size: every metric is emitted, and a
//! wrong output is counted as a failed operation, never passed silently.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use mg_perfbench::report::{END_TO_END, PER_LAYER};
use mg_perfbench::{journal, run, sweeps, Args, Server, Size, Tally, Workload};
use mg_serve::{serve_connection, Daemon, ServeConfig};
use mg_trace::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A scratch dir no other test (they run in parallel) shares.
fn tmp(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mg-perfbench-test-{}-{tag}-{n}",
        std::process::id()
    ))
}

fn tiny(workload: Workload, trace: bool, server: Option<Server>) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        size: Size::Tiny,
        server,
        tmp: tmp(&format!("{}-{trace}", workload.name())),
    }
}

/// A socket that flips the first byte it writes when armed.
struct Flip {
    sock: TcpStream,
    armed: bool,
}

impl Read for Flip {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.sock.read(buf)
    }
}

impl Write for Flip {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.armed && !buf.is_empty() {
            self.armed = false;
            let mut copy = buf.to_vec();
            copy[0] ^= 0x20;
            return self.sock.write(&copy);
        }
        self.sock.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sock.flush()
    }
}

/// An in-process wire-protocol server standing in for `mgd`. With
/// `flip_first`, the first report it sends has one byte flipped.
fn server(flip_first: bool) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let daemon = Arc::new(Daemon::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        None,
    ));
    let armed = Arc::new(AtomicBool::new(flip_first));
    std::thread::spawn(move || {
        for sock in listener.incoming().map_while(Result::ok) {
            let (daemon, armed) = (daemon.clone(), armed.clone());
            std::thread::spawn(move || {
                let mut conn = Flip {
                    sock,
                    armed: armed.swap(false, Ordering::SeqCst),
                };
                let _ = serve_connection(&mut conn, &daemon);
            });
        }
    });
    addr
}

fn server_for(w: Workload) -> Option<Server> {
    (w == Workload::JournalServe).then(|| Server::Addr(server(false)))
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn every_metric_is_emitted_and_checked() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let mut out = run(&tiny(w, trace, server_for(w)));
            out.finish(trace);
            assert!(
                out.tally.attempted > 0,
                "{} trace={trace}: no checks ran",
                w.name()
            );
            assert_eq!(
                out.tally.failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                out.tally.problems
            );
            let line = Json::parse(&out.json_line(trace)).expect("result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            let want = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in want {
                let m = line.get("metrics").and_then(|m| m.get(name));
                let m = m.unwrap_or_else(|| panic!("{} trace={trace}: {name} missing", w.name()));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                if !trace {
                    assert!(v > 0.0, "{}: end-to-end {name} reads {v}", w.name());
                }
            }
        }
    }
}

#[test]
fn traced_layers_cover_their_workloads() {
    let layer = |w: Workload, name: &str| {
        let mut out = run(&tiny(w, true, server_for(w)));
        out.finish(true);
        out.values[name]
    };
    assert!(layer(Workload::PaperSweep, "sim.events") > 0.0);
    assert!(layer(Workload::PaperSweep, "runner.cache_hits") > 0.0);
    assert!(layer(Workload::MobileSweep, "tap.s") != 0.0);
    assert!(layer(Workload::JournalServe, "codec.decode_s") > 0.0);
    assert!(layer(Workload::JournalServe, "serve.inproc_events_per_s") > 0.0);
}

#[test]
fn benchmark_json_lists_the_same_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed("workloads"), workloads);
    assert_eq!(listed("end_to_end"), names(END_TO_END));
    assert_eq!(listed("per_layer"), names(PER_LAYER));
}

#[test]
fn a_flipped_report_byte_is_one_failed_op() {
    let args = tiny(
        Workload::JournalServe,
        false,
        Some(Server::Addr(server(true))),
    );
    let out = run(&args);
    assert_eq!(out.tally.failed, 1, "{:?}", out.tally.problems);
    assert!(
        out.tally.problems[0].contains("report differs"),
        "{:?}",
        out.tally.problems
    );
    assert!(out.tally.attempted > journal::MIN_STREAMS as u64);
}

#[test]
fn a_wrong_digest_is_one_failed_op() {
    let plan = sweeps::Plan::new(Workload::PaperSweep, 7, Size::Tiny);
    let dir = tmp("digest");
    let job = sweeps::sweep(&plan, &dir, false, false);
    let _ = std::fs::remove_dir_all(&dir);
    let right = job.digest().expect("no poisoned cell");

    let mut tally = Tally::default();
    sweeps::check_job(&job, &mut Some(right), &mut tally, "right");
    assert_eq!(
        (tally.attempted, tally.failed),
        (plan.cells.len() as u64 + 1, 0)
    );

    let mut tally = Tally::default();
    sweeps::check_job(&job, &mut Some(right ^ 1), &mut tally, "wrong");
    assert_eq!(tally.failed, 1, "{:?}", tally.problems);
}

#[test]
fn a_poisoned_cell_is_a_failed_op() {
    let plan = sweeps::Plan::new(Workload::PaperSweep, 7, Size::Tiny);
    let dir = tmp("poison");
    let mut job = sweeps::sweep(&plan, &dir, false, false);
    let _ = std::fs::remove_dir_all(&dir);
    job.results[1] = Err("task 1 panicked: injected".into());
    let mut tally = Tally::default();
    sweeps::check_job(&job, &mut None, &mut tally, "poisoned");
    assert_eq!(tally.failed, 1, "{:?}", tally.problems);
}

#[test]
fn traced_replica_and_twin_match_the_helper() {
    for w in [Workload::PaperSweep, Workload::MobileSweep] {
        let plan = sweeps::Plan::new(w, 7, Size::Tiny);
        for c in &plan.cells {
            let helper = plan.trial(c);
            let replica = plan.traced_trial(c, true);
            let twin = plan.traced_trial(c, false);
            assert_eq!(
                sweeps::digest([helper.as_slice()]),
                sweeps::digest([replica.outcomes.as_slice()]),
                "{} cell {c:?}: replica differs from the helper",
                w.name()
            );
            assert!(
                replica.twin_matches(&twin),
                "{} cell {c:?}: twin diverged",
                w.name()
            );
            assert!(twin.outcomes.is_empty());
        }
    }
}

#[test]
fn shutdown_line_must_account_for_everything() {
    let ok =
        "shutdown : 4 stream(s), 100 event(s), 9 delta(s), 0 dropped, 0 abandoned, queues drained";
    assert!(journal::shutdown_clean(ok, 4, 100));
    assert!(!journal::shutdown_clean(ok, 5, 100));
    assert!(!journal::shutdown_clean(ok, 4, 99));
    let dropped =
        "shutdown : 4 stream(s), 100 event(s), 9 delta(s), 2 dropped, 0 abandoned, queues drained";
    assert!(!journal::shutdown_clean(dropped, 4, 100));
    let abandoned =
        "shutdown : 4 stream(s), 100 event(s), 9 delta(s), 0 dropped, 1 abandoned, queues drained";
    assert!(!journal::shutdown_clean(abandoned, 4, 100));
}
