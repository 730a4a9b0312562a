//! `mg-perfbench` — runs one benchmark workload and prints its result.
//!
//! ```text
//! mg-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!              [--mgd PATH] [--tmp DIR]
//! ```
//!
//! Normally started by `run.py`, which builds this crate and `mgd` first.
//! The last line of stdout is the JSON result.

use mg_perfbench::{run, Args, Server, Size, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: mg-perfbench --workload paper-sweep|mobile-sweep|journal-serve \
--seed N --seconds S --trace 0|1 [--mgd PATH] [--tmp DIR]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperSweep,
        seed: mg_perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        server: None,
        tmp: std::env::temp_dir().join(format!("mg-perfbench-{}", std::process::id())),
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--mgd" => args.server = Some(Server::Mgd(PathBuf::from(value))),
            "--tmp" => args.tmp = PathBuf::from(value),
            _ => return Err(format!("unrecognized argument: {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "workload : {} (seed {}, {} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = run(&args);
    out.finish(args.trace);
    for p in &out.tally.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "checks   : {} attempted, {} failed",
        out.tally.attempted, out.tally.failed
    );
    print!("{}", out.table(args.trace));
    println!("{}", out.json_line(args.trace));
}
