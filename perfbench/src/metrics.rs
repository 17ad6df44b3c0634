//! The result line: end-to-end metrics of untraced runs, per-layer metrics
//! of traced runs.

use crate::gates::Tally;
use crate::stats::{median, quantile, ratio};
use crate::trace::Profile;

/// Named metric values in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends `name = value unit`; a non-finite value is recorded as 0.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    /// The result line printed last on stdout.
    pub fn result_line(&self, tally: Tally) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Designs analysed or served in the timed operations.
    pub designs: u64,
    /// Seconds inside timed operations.
    pub busy_s: f64,
    /// Seconds per pass over the workload's per-pass input set.
    pub passes_s: Vec<f64>,
    /// Milliseconds per step (the unit a waiting user sees).
    pub steps_ms: Vec<f64>,
    /// Steps (requests on `serve_mixed`) checked against the latency limit.
    pub slo_checked: u64,
    /// Of those, the ones that were correct and within the limit.
    pub slo_met: u64,
    /// Seconds per set-up.
    pub setups_s: Vec<f64>,
    /// Peak resident set of the process doing the analysis.
    pub peak_rss_mb: f64,
}

/// Every end-to-end metric, in `BENCHMARK.json` order.  `tail` is the
/// workload's tail quantile: the highest that keeps at least ten steps
/// beyond it in a run.
pub fn end_to_end(samples: &Samples, tail: f64, tally: Tally) -> Metrics {
    let mut m = Metrics::default();
    m.push(
        "designs_per_s",
        ratio(samples.designs as f64, samples.busy_s),
        "designs/s",
    );
    m.push("pass_s", median(&samples.passes_s), "s");
    m.push("step_p50_ms", median(&samples.steps_ms), "ms");
    m.push("step_tail_ms", quantile(&samples.steps_ms, tail), "ms");
    m.push(
        "slo_met_ratio",
        ratio(samples.slo_met as f64, samples.slo_checked as f64),
        "ratio",
    );
    m.push("setup_s", median(&samples.setups_s), "s");
    m.push("peak_rss_mb", samples.peak_rss_mb, "MB");
    m.push(
        "correct_ratio",
        ratio(
            (tally.attempted - tally.failed) as f64,
            tally.attempted as f64,
        ),
        "ratio",
    );
    m
}

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
/// A traced run reports each one; a layer that does no work on the
/// workload reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("syntax.frontend_ms", "ms"),
    ("syntax.mb_per_s", "MB/s"),
    ("syntax.fingerprint_ms", "ms"),
    ("dataflow.rd_ms", "ms"),
    ("infoflow.local_ms", "ms"),
    ("infoflow.specialized_ms", "ms"),
    ("infoflow.improved_ms", "ms"),
    ("infoflow.graph_ms", "ms"),
    ("infoflow.kemmerer_ms", "ms"),
    ("infoflow.audit_ms", "ms"),
    ("engine.update_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.units_reused_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("store.dir_mb", "MB"),
    ("sim.compile_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.deltas_per_s", "1/s"),
    ("dynflow.witness_ms", "ms"),
    ("dynflow.rounds_per_s", "1/s"),
    ("dynflow.edge_coverage", "ratio"),
    ("cli.pool.utilization", "ratio"),
    ("cli.pool.queue_wait_ms", "ms"),
    ("cli.pool.steals", "count"),
    ("cli.report.render_ms", "ms"),
    ("cli.report.bytes", "bytes"),
    ("daemon.request_p50_ms", "ms"),
    ("daemon.request_p99_ms", "ms"),
    ("daemon.warm_p50_ms", "ms"),
    ("daemon.cold_p50_ms", "ms"),
    ("daemon.update_p50_ms", "ms"),
    ("daemon.metrics_first_ms", "ms"),
    ("daemon.metrics_last_ms", "ms"),
    ("daemon.rss_growth_mb", "MB"),
    ("daemon.non200", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.completed_rps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_ratio", "ratio"),
    ("trace.passes", "count"),
];

/// What a traced run measured besides its spans.
#[derive(Debug, Default)]
pub struct Traced {
    /// Traced passes.
    pub passes: usize,
    /// Source bytes the traced passes parsed.
    pub source_bytes: usize,
    /// Wall seconds of the untraced passes.
    pub untraced_s: f64,
    /// Wall seconds of the same passes traced.
    pub traced_s: f64,
    /// Thread seconds of the traced passes: wall times recording threads.
    pub thread_s: f64,
}

/// The metrics every traced run reports: each span's self milliseconds
/// per traced pass under its per-layer `<span>_ms` name, the front end's
/// throughput, and the trace's overhead, uncovered share and pass count.
pub fn traced(profile: &Profile, run: &Traced) -> Metrics {
    let passes = run.passes as f64;
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        let span = name.strip_suffix("_ms").unwrap_or(name);
        if unit == "ms" && profile.self_ns.contains_key(span) {
            m.push(name, profile.ms(span) / passes, unit);
        }
    }
    m.push(
        "syntax.mb_per_s",
        ratio(
            run.source_bytes as f64 / 1e6,
            profile.ms("syntax.frontend") / 1e3,
        ),
        "MB/s",
    );
    m.push(
        "trace.overhead_ratio",
        ratio(run.traced_s, run.untraced_s),
        "ratio",
    );
    m.push(
        "trace.uncovered_ratio",
        profile.uncovered_ratio(run.thread_s),
        "ratio",
    );
    m.push("trace.passes", passes, "count");
    m
}

/// Completes a traced run's metrics: every [`PER_LAYER`] name the
/// workload did not fill reads 0, and the output follows table order.
pub fn per_layer(filled: Metrics) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.push(name, filled.get(name).unwrap_or(0.0), unit);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("a_ms", 1.25, "ms");
        m.push("b", f64::NAN, "count");
        let line = m.result_line(Tally {
            attempted: 3,
            failed: 0,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn per_layer_fills_every_name() {
        let mut filled = Metrics::default();
        filled.push("dataflow.rd_ms", 3.0, "ms");
        let m = per_layer(filled);
        assert_eq!(m.0.len(), PER_LAYER.len());
        assert_eq!(m.get("dataflow.rd_ms"), Some(3.0));
        assert_eq!(m.get("sim.run_ms"), Some(0.0));
    }
}
