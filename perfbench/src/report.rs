//! Metric names, the check tally and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics: every untraced run of every workload reports all of
/// them (name, unit). What each means per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
    ("op_cpu_ms_p50", "ms"),
    ("op_cpu_ms_p90", "ms"),
];

/// Per-layer metrics: every traced run reports all of them. A layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("world.build_s", "s"),
    ("world.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("phy.tx_frames", "count"),
    ("phy.rx_decoded", "count"),
    ("phy.rx_garbled", "count"),
    ("mac.backoff_freezes", "count"),
    ("net.enqueued", "count"),
    ("net.delivered", "count"),
    ("net.dropped", "count"),
    ("tap.s", "s"),
    ("tap.share", "ratio"),
    ("detect.samples", "count"),
    ("detect.tests", "count"),
    ("detect.violations", "count"),
    ("detect.replay_s", "s"),
    ("detect.ns_per_obs", "ns"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes_per_event", "B"),
    ("codec.decode_mb_s", "MB/s"),
    ("runner.cells", "count"),
    ("runner.busy_frac", "ratio"),
    ("runner.cell_s_max", "s"),
    ("runner.warm_s", "s"),
    ("runner.cache_hits", "count"),
    ("runner.wall_s", "s"),
    ("serve.events_per_s", "1/s"),
    ("serve.inproc_events_per_s", "1/s"),
    ("serve.inproc_stream_ms_p50", "ms"),
    ("serve.send_ms_p50", "ms"),
    ("serve.report_wait_ms_p50", "ms"),
    ("serve.socket_overhead_ms", "ms"),
    ("serve.mgd_peak_rss_mb", "MB"),
    ("serve.mgd_cpu_ms_per_stream", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.stream_ms_p90", "ms"),
    ("trace.cpu_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Operations attempted and failed. Every check the benchmark makes on an
/// output is one attempted operation; a failed check is one failed
/// operation and keeps a one-line reason for stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(why());
        }
    }

    /// Counts one operation that failed outright.
    pub fn fail(&mut self, why: String) {
        self.check(false, || why);
    }
}

/// The result of one run: measured values by metric name plus the tally.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values, keyed by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Checks made on the workload's outputs.
    pub tally: Tally,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The metric list a run with this trace setting reports.
    pub fn names(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Checks that every reported metric was measured and finite; a
    /// missing end-to-end metric is a failed operation.
    pub fn finish(&mut self, trace: bool) {
        for &(name, _) in Outcome::names(trace) {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self
                    .tally
                    .fail(format!("metric {name} is not finite ({v})")),
                None if trace => {
                    self.values.insert(name, 0.0);
                }
                None => self.tally.fail(format!("metric {name} was not measured")),
            }
        }
    }

    /// Human-readable metric lines, one per metric.
    pub fn table(&self, trace: bool) -> String {
        let mut s = String::new();
        for &(name, unit) in Outcome::names(trace) {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(s, "  {name:<28} {v:>16.6} {unit}");
        }
        s
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// the metrics of this trace setting.
    pub fn json_line(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in Outcome::names(trace).iter().enumerate() {
            let v = self
                .values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed + u64::from(self.tally.attempted == 0),
        )
    }
}

/// A JSON number with every digit the measurement has (shortest
/// round-trip form), always with a decimal point or exponent.
fn num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}
