//! `journal-serve`: no simulation in the rounds. Set-up records binary
//! journals of static grid worlds (a mix of PMs and seeds) and brings
//! `mgd --listen 127.0.0.1:0 --workers 2` up, [`SETUPS`] times over the
//! run. The timed phase repeats one round:
//!
//! * (a) decode each journal and replay it into a fresh
//!   `SessionSpec::from_meta` session — the `detect --replay` path. One op
//!   is one journal's replay, in thread CPU time;
//! * (b) serve each journal once to `mgd` from a closed loop of two
//!   clients, each calling `send_journal` and reading the report before its
//!   next stream.
//!
//! `cpu_s` is a round's CPU time: this process's, plus `mgd`'s CPU time
//! over the run (read from `/proc` at clock-tick resolution) divided by
//! the rounds. The socket streams' wall times, from the start of
//! `send_journal` to the report fully read, are traced-run metrics.
//!
//! `mgd` polls a nonblocking listener and sleeps 20 ms whenever its accept
//! queue is empty. Each client therefore opens the connection for its next
//! stream while the current one is in flight ([`Conns`]), so the accept
//! poll runs outside the timed streams.
//!
//! Every `mgd` report must equal `render_report` of the in-process replay
//! byte for byte, every journal must survive `decode(encode(j)) == j`, each
//! `mgd`'s `shutdown :` line must show every stream and event it served, 0
//! dropped and 0 abandoned, and its stderr may only note the idle
//! connections closed at its stop.

use crate::report::{Outcome, Tally};
use crate::stats::{median, quantile};
use crate::{mix, process_cpu_s, secs, thread_cpu_s, Args, Budget, Server, Size};
use mg_bench::{grid_base, record_detection_world, Load};
use mg_detect::{render_report, Diagnosis, SessionSpec};
use mg_net::ScenarioConfig;
use mg_obs::{JournalFormat, JournalReader, ObsJournal};
use mg_serve::{send_journal, write_end, Daemon, ServeConfig};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clients in the closed loop (and `mgd` workers).
pub const CLIENTS: usize = 2;
/// Events per wire chunk (`journal send`'s default).
pub const CHUNK: usize = 4096;
/// Streams the socket phase sends at least, so p90 has ten beyond it.
pub const MIN_STREAMS: usize = 100;
/// Set-ups per run.
pub const SETUPS: usize = 3;
/// The report's sample size: `mgd` renders with the session default.
const REPORT_SAMPLE_SIZE: usize = 50;

/// One recorded journal and its binary encoding.
pub struct Rec {
    /// The recorded journal.
    pub journal: ObsJournal,
    /// `journal.encode(JournalFormat::Binary)`.
    pub bytes: Vec<u8>,
}

/// The journal set for workload seed `seed`: (world seed, PM) per journal
/// and the simulated seconds of each world. A 20 s world is about 57k
/// events, so each stream's work is well above `mgd`'s accept poll. Two
/// worlds per PM, so one world's size moves a round's work less.
pub fn plan(seed: u64, size: Size) -> (Vec<(u64, u8)>, u64) {
    let (pms, per_pm, secs): (&[u8], u64, u64) = match size {
        Size::Full => (&[0, 30, 60, 90], 2, 20),
        Size::Tiny => (&[0, 90], 1, 1),
    };
    let worlds = pms
        .iter()
        .flat_map(|&pm| (0..per_pm).map(move |i| (mix(seed, i << 8 | pm as u64), pm)))
        .collect();
    (worlds, secs)
}

/// Records and encodes the journal set.
pub fn record(seed: u64, size: Size) -> Vec<Rec> {
    let (worlds, secs) = plan(seed, size);
    worlds
        .into_iter()
        .map(|(world_seed, pm)| {
            let cfg = ScenarioConfig {
                sim_secs: secs,
                rate_pps: Load::Medium.rate_pps(),
                ..grid_base()
            };
            let journal = record_detection_world(world_seed, cfg, pm);
            let bytes = journal.encode(JournalFormat::Binary);
            Rec { journal, bytes }
        })
        .collect()
}

/// Replays one encoded journal the `detect --replay` way and renders its
/// report.
pub fn replay(bytes: Vec<u8>) -> Result<(String, u64), String> {
    let reader = JournalReader::from_bytes(bytes).map_err(|e| e.to_string())?;
    let mut session = SessionSpec::from_meta(reader.meta()).build();
    let mut events = 0;
    for ev in reader.events() {
        let _ = session.ingest(&ev.map_err(|e| e.to_string())?);
        events += 1;
    }
    let report = render_report(
        reader.meta().tagged,
        REPORT_SAMPLE_SIZE,
        false,
        &session.diagnosis(),
    );
    Ok((report, events))
}

/// Counts one op: a served report against the in-process one.
pub fn check_report(tally: &mut Tally, got: &[u8], expected: &str, what: &str) {
    tally.check(got == expected.as_bytes(), || {
        format!(
            "{what}: report differs from in-process replay: {:?}",
            String::from_utf8_lossy(got)
        )
    });
}

/// A spawned `mgd` and the lines it printed.
pub struct Mgd {
    child: Child,
    /// The bound listen address.
    pub addr: SocketAddr,
    /// Readers of its stdout and stderr.
    out: Option<(Lines, Lines)>,
}

/// A thread collecting one pipe's lines.
type Lines = JoinHandle<Vec<String>>;

/// What a stopped `mgd` left behind.
pub struct Stopped {
    /// Its `shutdown :` line.
    pub shutdown: String,
    /// Every line it wrote to stderr.
    pub stderr: Vec<String>,
    /// Its peak resident set, MB, read just before the stop.
    pub peak_rss_mb: f64,
    /// Its CPU time, seconds, read just before the stop.
    pub cpu_s: f64,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

fn lines_of(r: impl Read + Send + 'static) -> Lines {
    std::thread::spawn(move || BufReader::new(r).lines().map_while(Result::ok).collect())
}

impl Mgd {
    /// Spawns `mgd --listen 127.0.0.1:0` with pinned workers and waits for
    /// its `listening on` line.
    pub fn spawn(path: &std::path::Path) -> Result<Mgd, String> {
        let workers = CLIENTS.to_string();
        let mut child = Command::new(path)
            .args(["--listen", "127.0.0.1:0", "--workers", &workers])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", path.display()))?;
        let err = lines_of(child.stderr.take().expect("piped stderr"));
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if out.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                let err = err.join().unwrap_or_default().join("\n");
                return Err(format!("mgd exited before listening: {err}"));
            }
            addr = line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok());
        }
        // Drain the rest of stdout so per-stream lines never block mgd.
        Ok(Mgd {
            child,
            addr: addr.expect("parsed"),
            out: Some((lines_of(out), err)),
        })
    }

    /// CPU seconds `mgd` has run so far, every thread.
    pub fn cpu_s(&self) -> f64 {
        crate::proc_cpu_s(self.child.id())
    }

    /// SIGTERM, wait for the drain, and return what `mgd` printed.
    pub fn stop(mut self) -> Result<Stopped, String> {
        let pid = self.child.id();
        let peak_rss_mb = crate::proc_status_kb(&pid.to_string(), "VmHWM:") / 1024.0;
        let cpu_s = self.cpu_s();
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours; the pid is our own child, not yet waited for.
        unsafe {
            kill(pid as i32, SIGTERM);
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let (out, err) = self.out.take().expect("stopped once");
        let out = out.join().map_err(|_| "mgd stdout reader panicked")?;
        let stderr = err.join().map_err(|_| "mgd stderr reader panicked")?;
        if !status.success() {
            return Err(format!("mgd exited with {status}: {}", stderr.join("\n")));
        }
        let shutdown = out
            .into_iter()
            .find(|l| l.starts_with("shutdown :"))
            .ok_or("mgd printed no shutdown line")?;
        Ok(Stopped {
            shutdown,
            stderr,
            peak_rss_mb,
            cpu_s,
        })
    }
}

impl Drop for Mgd {
    /// A daemon that was never stopped (a panic on the way) is killed, so
    /// the benchmark leaves no process behind.
    fn drop(&mut self) {
        if let Some((out, err)) = self.out.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = out.join();
            let _ = err.join();
        }
    }
}

/// Whether a `shutdown :` line accounts for `streams` streams and
/// `events` events with nothing dropped or abandoned.
pub fn shutdown_clean(line: &str, streams: usize, events: u64) -> bool {
    let want = format!("shutdown : {streams} stream(s), {events} event(s), ");
    line.starts_with(&want) && line.contains(", 0 dropped, 0 abandoned, queues drained")
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = sock.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = sock.set_nodelay(true);
    Ok(sock)
}

/// Each client's connection for its next stream. It is opened while the
/// client's current stream is in flight, so the server has accepted it by
/// the time the client sends on it.
pub struct Conns {
    addr: SocketAddr,
    next: Vec<Mutex<Option<TcpStream>>>,
}

impl Conns {
    /// Opens one connection per client to `addr`.
    pub fn open(addr: SocketAddr) -> Result<Conns, String> {
        let next = (0..CLIENTS)
            .map(|_| connect(addr).map(|s| Mutex::new(Some(s))))
            .collect::<Result<_, _>>()?;
        Ok(Conns { addr, next })
    }

    /// Client `c`'s connection for this stream; opens the one for its next.
    fn take(&self, c: usize) -> Result<TcpStream, String> {
        let mut slot = self.next[c].lock().expect("connection slot");
        let sock = match slot.take() {
            Some(s) => s,
            None => connect(self.addr)?,
        };
        *slot = Some(connect(self.addr)?);
        Ok(sock)
    }

    /// Closes the idle connections with a bare end marker (the server
    /// notes each as "sent no frames"); returns how many it closed.
    pub fn close(self) -> usize {
        self.next
            .into_iter()
            .filter_map(|m| m.into_inner().expect("connection slot"))
            .map(|mut s| {
                let _ = write_end(&mut s);
            })
            .count()
    }
}

/// Client-side timings of one socket stream, seconds.
#[derive(Clone, Copy, Debug)]
pub struct StreamTiming {
    /// Start of `send_journal` to report fully read.
    pub total: f64,
    /// `send_journal`.
    pub send: f64,
    /// End marker written to report fully read.
    pub wait: f64,
}

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct Loop {
    /// Per-stream timings.
    pub streams: Vec<StreamTiming>,
    /// Events sent.
    pub events: u64,
    /// Phase wall time, seconds.
    pub wall: f64,
}

type Served = Result<(Vec<u8>, StreamTiming, u64), String>;

/// Client `c` sends one journal on its open connection and reads the
/// report.
fn socket_stream(conns: &Conns, c: usize, reader: &JournalReader) -> Served {
    let mut sock = conns.take(c)?;
    let t0 = Instant::now();
    let sent = send_journal(&mut sock, reader, CHUNK).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut report = Vec::new();
    sock.read_to_end(&mut report).map_err(|e| e.to_string())?;
    let timing = StreamTiming {
        total: secs(t0),
        send: (t1 - t0).as_secs_f64(),
        wait: secs(t1),
    };
    Ok((report, timing, sent))
}

/// Runs `CLIENTS` closed-loop clients, each sending its next stream as
/// soon as the previous report is read, until `budget` is spent and at
/// least `min_streams` streams went out. `stream(client, journal)` serves
/// one journal and returns the served report.
pub fn closed_loop<F>(
    n_journals: usize,
    min_streams: usize,
    budget: &Budget,
    expected: &[String],
    tally: &mut Tally,
    stream: F,
) -> Loop
where
    F: Fn(usize, usize) -> Served + Sync,
{
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (next, results, stream) = (&next, &results, &stream);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if !budget.more(i, min_streams) {
                    break;
                }
                let j = i % n_journals;
                let r = stream(c, j);
                results.lock().expect("results").push((i, j, r));
            });
        }
    });
    let mut out = Loop {
        wall: secs(t0),
        ..Loop::default()
    };
    let mut results = results.into_inner().expect("results");
    results.sort_by_key(|r| r.0);
    for (i, j, r) in results {
        match r {
            Ok((report, timing, sent)) => {
                check_report(tally, &report, &expected[j], &format!("stream {i}"));
                out.streams.push(timing);
                out.events += sent;
            }
            Err(e) => tally.fail(format!("stream {i}: {e}")),
        }
    }
    out
}

fn ms_quantile(xs: impl Iterator<Item = f64>, q: f64) -> f64 {
    quantile(&xs.map(|s| s * 1e3).collect::<Vec<_>>(), q)
}

/// The socket side of the workload: the server, each client's next
/// connection, what the current server has served, and its CPU time when
/// its set-up ended.
struct Target {
    mgd: Option<Mgd>,
    conns: Conns,
    served: (usize, u64),
    cpu_s: f64,
}

/// What the stopped servers used: the highest peak RSS, MB, and the CPU
/// seconds they ran after their set-ups.
#[derive(Default)]
struct Used {
    peak_rss_mb: f64,
    cpu_s: f64,
}

/// Stops the current server, if any. Its `shutdown :` line must account
/// for every stream and event it served, and its stderr may hold no more
/// than one "sent no frames" note per idle connection closed. Folds its
/// peak RSS and CPU time into `used`.
fn stop(target: &mut Option<Target>, used: &mut Used, tally: &mut Tally) {
    let Some(t) = target.take() else { return };
    let idle = t.conns.close();
    let Some(m) = t.mgd else { return };
    match m.stop() {
        Ok(s) => {
            used.peak_rss_mb = used.peak_rss_mb.max(s.peak_rss_mb);
            used.cpu_s += s.cpu_s - t.cpu_s;
            tally.check(shutdown_clean(&s.shutdown, t.served.0, t.served.1), || {
                format!("mgd did not account for every stream: {}", s.shutdown)
            });
            let notes = s
                .stderr
                .iter()
                .filter(|l| l.starts_with("warn: ") && l.ends_with(" sent no frames"))
                .count();
            tally.check(notes == s.stderr.len() && notes <= idle, || {
                format!("mgd warned: {}", s.stderr.join(" / "))
            });
        }
        Err(e) => tally.fail(e),
    }
}

/// One timed set-up: bring a fresh `mgd` up with each client's first
/// connection open, then record and encode the journal set (the previous
/// server is stopped and checked first, untimed). Its time is the CPU time
/// of this process plus that of the new `mgd`. A re-recorded set must
/// equal the `first` one.
fn set_up(
    args: &Args,
    first: Option<&[Rec]>,
    target: &mut Option<Target>,
    used: &mut Used,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Vec<Rec> {
    stop(target, used, &mut out.tally);
    let t = process_cpu_s();
    let up = match &args.server {
        Some(Server::Mgd(path)) => Mgd::spawn(path).map(|m| (m.addr, Some(m))),
        Some(Server::Addr(a)) => Ok((*a, None)),
        None => Err("no server to stream to".to_string()),
    };
    match up.and_then(|(addr, mgd)| {
        Ok(Target {
            conns: Conns::open(addr)?,
            mgd,
            served: (0, 0),
            cpu_s: 0.0,
        })
    }) {
        Ok(t) => *target = Some(t),
        Err(e) => out.tally.fail(e),
    }
    let recs = record(args.seed, args.size);
    let mut cpu = process_cpu_s() - t;
    if let Some(tg) = target.as_mut() {
        tg.cpu_s = tg.mgd.as_ref().map_or(0.0, Mgd::cpu_s);
        cpu += tg.cpu_s;
    }
    setups.push(cpu);
    if let Some(first) = first {
        let same = recs.iter().zip(first).all(|(a, b)| a.bytes == b.bytes);
        out.tally.check(same, || {
            "a re-recorded journal differs from the first".into()
        });
    }
    recs
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The first set-up; SETUPS - 1 more run spread over the timed phase,
    // so `setup_s` samples the same stretch of host time as the rounds.
    let (mut target, mut used, mut setups) = (None, Used::default(), Vec::new());
    let recs = set_up(args, None, &mut target, &mut used, &mut setups, &mut out);
    let mut readers = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        let reader = JournalReader::from_bytes(r.bytes.clone());
        let back = reader
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|rd| rd.read_journal().map_err(|e| e.to_string()));
        out.tally.check(back.as_ref() == Ok(&r.journal), || {
            format!("journal {i}: decode(encode(j)) != j")
        });
        readers.extend(reader.ok());
    }
    if readers.len() < recs.len() {
        stop(&mut target, &mut used, &mut out.tally);
        return out;
    }
    let events: Vec<u64> = recs.iter().map(|r| r.journal.len() as u64).collect();

    // The timed phase repeats one round — (a) replay the journal set
    // in-process, then (b) serve it over TCP — until its share of the
    // budget is spent and at least MIN_STREAMS streams went out.
    let share = if args.trace { 0.5 } else { 1.0 };
    let budget = Budget::new(args.seconds * share);
    let (mut rounds, mut walls, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    let mut expected = Vec::<String>::new();
    let mut layers = Layers::default();
    let mut sock = Loop::default();
    while budget.more(sock.streams.len(), MIN_STREAMS) {
        if setups.len() < SETUPS
            && budget.elapsed() >= args.seconds * share * setups.len() as f64 / SETUPS as f64
        {
            set_up(
                args,
                Some(&recs),
                &mut target,
                &mut used,
                &mut setups,
                &mut out,
            );
        }
        let copies: Vec<Vec<u8>> = recs.iter().map(|r| r.bytes.clone()).collect();
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let reports: Vec<_> = copies
            .into_iter()
            .map(|bytes| {
                let c = thread_cpu_s();
                let r = replay(bytes);
                ops.push((thread_cpu_s() - c) * 1e3);
                r
            })
            .collect();
        for (i, r) in reports.into_iter().enumerate() {
            match r {
                Ok((report, n)) if expected.len() <= i => {
                    out.tally.check(n == events[i], || {
                        format!("journal {i}: replayed {n} of {} events", events[i])
                    });
                    expected.push(report);
                }
                Ok((report, _)) => {
                    check_report(&mut out.tally, report.as_bytes(), &expected[i], "replay")
                }
                Err(e) => out.tally.fail(format!("journal {i}: {e}")),
            }
        }
        if expected.len() < recs.len() {
            out.tally.fail("a journal never replayed".into());
            break;
        }
        let Some(tg) = target.as_mut() else { break };
        // Exactly one stream per journal: a spent budget with a floor.
        let l = closed_loop(
            recs.len(),
            recs.len(),
            &Budget::new(0.0),
            &expected,
            &mut out.tally,
            |c, j| socket_stream(&tg.conns, c, &readers[j]),
        );
        rounds.push(process_cpu_s() - cpu);
        walls.push(secs(t));
        tg.served = (tg.served.0 + l.streams.len(), tg.served.1 + l.events);
        sock.streams.extend(l.streams);
        sock.events += l.events;
        sock.wall += l.wall;
        if args.trace {
            layers.pass(&recs, &mut out.tally);
        }
    }
    stop(&mut target, &mut used, &mut out.tally);
    out.set("setup_s", median(&setups));
    let n_rounds = rounds.len().max(1) as f64;

    if !args.trace {
        let client: f64 = rounds.iter().sum();
        out.set("cpu_s", (client + used.cpu_s) / n_rounds);
        out.set("op_cpu_ms_p50", quantile(&ops, 0.5));
        out.set("op_cpu_ms_p90", quantile(&ops, 0.9));
        out.set("peak_rss_mb", crate::peak_rss_mb().max(used.peak_rss_mb));
        println!(
            "rounds   : {}; per round {:.4} s wall and {:.4} s CPU here (medians), {:.4} s mgd CPU (mean)",
            rounds.len(),
            median(&walls),
            median(&rounds),
            used.cpu_s / n_rounds
        );
        println!(
            "streams  : {} from {CLIENTS} clients, {} events, {:.0} events/s; mgd peak RSS {:.1} MB",
            sock.streams.len(),
            sock.events,
            sock.events as f64 / sock.wall,
            used.peak_rss_mb
        );
        return out;
    }

    // Traced extras: the same streams through an in-process daemon.
    let budget = Budget::new(args.seconds * 0.5);
    let daemon = Daemon::start(
        ServeConfig {
            workers: CLIENTS,
            ..ServeConfig::default()
        },
        None,
    );
    let inproc = closed_loop(
        recs.len(),
        sock.streams.len().max(1),
        &budget,
        &expected,
        &mut out.tally,
        |_, j| {
            let t0 = Instant::now();
            let reader =
                JournalReader::from_bytes(recs[j].bytes.clone()).map_err(|e| e.to_string())?;
            let mut h = daemon.open(reader.meta().clone());
            let mut n = 0;
            for ev in reader.events() {
                h.push(ev.map_err(|e| e.to_string())?);
                n += 1;
            }
            let report = h.close().ok_or("daemon lost the stream")?;
            Ok((
                report.report.into_bytes(),
                StreamTiming {
                    total: secs(t0),
                    send: 0.0,
                    wait: 0.0,
                },
                n,
            ))
        },
    );
    let stats = daemon.shutdown();
    out.tally
        .check(stats.dropped == 0 && stats.abandoned == 0, || {
            format!("in-process daemon: {stats:?}")
        });

    let sock_p50 = ms_quantile(sock.streams.iter().map(|s| s.total), 0.5);
    let inproc_p50 = ms_quantile(inproc.streams.iter().map(|s| s.total), 0.5);
    out.set("serve.events_per_s", sock.events as f64 / sock.wall);
    out.set(
        "serve.inproc_events_per_s",
        inproc.events as f64 / inproc.wall,
    );
    out.set("serve.inproc_stream_ms_p50", inproc_p50);
    out.set(
        "serve.send_ms_p50",
        ms_quantile(sock.streams.iter().map(|s| s.send), 0.5),
    );
    out.set(
        "serve.report_wait_ms_p50",
        ms_quantile(sock.streams.iter().map(|s| s.wait), 0.5),
    );
    out.set("serve.socket_overhead_ms", sock_p50 - inproc_p50);
    out.set("serve.mgd_peak_rss_mb", used.peak_rss_mb);
    out.set(
        "serve.mgd_cpu_ms_per_stream",
        used.cpu_s * 1e3 / sock.streams.len().max(1) as f64,
    );
    out.set(
        "serve.stream_ms_p50",
        ms_quantile(sock.streams.iter().map(|s| s.total), 0.5),
    );
    out.set(
        "serve.stream_ms_p90",
        ms_quantile(sock.streams.iter().map(|s| s.total), 0.9),
    );
    let (encode_s, decode_s, replay_s) = (
        median(&layers.encode),
        median(&layers.decode),
        median(&layers.replay),
    );
    let total_events: u64 = events.iter().sum();
    let bytes: usize = recs.iter().map(|r| r.bytes.len()).sum();
    out.set("codec.encode_s", encode_s);
    out.set("codec.decode_s", decode_s);
    out.set("codec.bytes_per_event", bytes as f64 / total_events as f64);
    out.set("codec.decode_mb_s", bytes as f64 / 1e6 / decode_s);
    out.set("detect.replay_s", replay_s);
    out.set("detect.ns_per_obs", replay_s * 1e9 / total_events as f64);
    out.set("detect.samples", layers.counts[0]);
    out.set("detect.tests", layers.counts[1]);
    out.set("detect.violations", layers.counts[2]);
    out.set("trace.cpu_s", median(&layers.traced));
    out.set(
        "trace.overhead_ratio",
        median(&layers.traced) / median(&layers.plain),
    );
    out
}

/// Per-pass thread CPU times of the codec and detector calls, seconds.
#[derive(Default)]
struct Layers {
    encode: Vec<f64>,
    decode: Vec<f64>,
    replay: Vec<f64>,
    /// Decode-then-ingest passes with decode and ingest timed apart.
    traced: Vec<f64>,
    /// The same passes untimed inside.
    plain: Vec<f64>,
    /// Samples, tests and violations over the last pass's diagnoses.
    counts: [f64; 3],
}

impl Layers {
    /// Times encode, then one untraced and one traced decode-then-ingest
    /// pass over the journal set; the diagnoses feed the `detect.*` counts.
    fn pass(&mut self, recs: &[Rec], tally: &mut Tally) {
        let t = thread_cpu_s();
        let encoded: Vec<Vec<u8>> = recs
            .iter()
            .map(|r| r.journal.encode(JournalFormat::Binary))
            .collect();
        self.encode.push(thread_cpu_s() - t);
        let t = thread_cpu_s();
        let plain = decode_ingest(encoded.clone(), None);
        self.plain.push(thread_cpu_s() - t);
        let t = thread_cpu_s();
        let traced = decode_ingest(encoded, Some(self));
        self.traced.push(thread_cpu_s() - t);
        tally.check(plain.len() == recs.len() && plain == traced, || {
            "traced decode-then-ingest pass failed or disagreed".into()
        });
        let sum = |f: fn(&Diagnosis) -> usize| traced.iter().map(f).sum::<usize>() as f64;
        self.counts = [
            sum(|d| d.samples_collected),
            sum(|d| d.tests_run),
            sum(|d| d.violations),
        ];
    }
}

/// Decodes each journal whole with `read_journal` and ingests it into a
/// fresh `SessionSpec::from_meta` session. With `spans`, decode and ingest
/// are timed apart.
fn decode_ingest(encoded: Vec<Vec<u8>>, spans: Option<&mut Layers>) -> Vec<Diagnosis> {
    let t = thread_cpu_s();
    let decoded: Vec<ObsJournal> = encoded
        .into_iter()
        .filter_map(|b| {
            JournalReader::from_bytes(b)
                .and_then(|r| r.read_journal())
                .ok()
        })
        .collect();
    let mid = spans.is_some().then(thread_cpu_s);
    let diags = decoded
        .iter()
        .map(|j| {
            let mut session = SessionSpec::from_meta(j.meta()).build();
            for ev in j.events() {
                let _ = session.ingest(ev);
            }
            session.diagnosis()
        })
        .collect();
    if let (Some(l), Some(mid)) = (spans, mid) {
        l.decode.push(mid - t);
        l.replay.push(thread_cpu_s() - mid);
    }
    diags
}
