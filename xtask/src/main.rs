//! `cargo run -p xtask -- <task>` — repository automation.
//!
//! ## `bench-gate`
//!
//! The CI perf-regression gate: compares a freshly produced
//! `BENCH_alfp.json` (written by `cargo bench -p bench --bench scaling`)
//! against the committed `BENCH_baseline.json` and fails when any workload
//! series regressed beyond the tolerance.
//!
//! ```console
//! $ cargo run -p xtask -- bench-gate \
//!       --baseline BENCH_baseline.json --current BENCH_alfp.json
//! ```
//!
//! CI runners and developer machines differ wildly in absolute speed, so a
//! committed nanosecond baseline cannot be compared directly.  The gate
//! therefore **rescales by machine speed** before judging: it computes the
//! per-point ratio `current / baseline` for every `(workload, size)` pair,
//! takes the median ratio across *all* points as the machine-speed factor,
//! and flags a series only when its own median ratio exceeds
//! `factor * (1 + TOLERANCE_PCT / 100)` (25%).  A uniform 2× slower runner
//! passes; one series slowing down while the rest hold steady fails.
//!
//! **Re-baselining** (after an intentional perf change): run the bench and
//! copy the fresh summary over the committed baseline —
//! `cargo bench -p bench --bench scaling && cp BENCH_alfp.json
//! BENCH_baseline.json` — and commit it together with the change that
//! shifted the numbers.
//!
//! Series present only in the current summary are reported as informational
//! (new workloads need no baseline); series that *disappear* from the
//! current summary fail the gate, so a bench refactor cannot silently drop
//! coverage.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Allowed per-series slowdown beyond the machine-speed factor, in percent.
const TOLERANCE_PCT: f64 = 25.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-gate") => bench_gate(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  cargo run -p xtask -- bench-gate --baseline <file> --current <file>";

fn bench_gate(args: &[String]) -> ExitCode {
    let mut baseline_path = None;
    let mut current_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = it.next().cloned(),
            "--current" => current_path = it.next().cloned(),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let load = |path: &str| -> Result<Vec<BenchPoint>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_points(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(&baseline_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = match load(&current_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = compare(&baseline, &current);
    print!("{}", outcome.render());
    if outcome.failed_series.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One `(workload, size)` measurement of a bench summary.
#[derive(Debug, Clone, PartialEq)]
struct BenchPoint {
    workload: String,
    size: u64,
    median_ns: u128,
}

/// Parses the flat-object array `scaling` writes (`BENCH_alfp.json`).
/// Deliberately minimal: the format is produced by this repository's own
/// bench, not by arbitrary tools.
fn parse_points(text: &str) -> Result<Vec<BenchPoint>, String> {
    let mut points = Vec::new();
    for (i, obj) in text.split('{').skip(1).enumerate() {
        let obj = obj
            .split('}')
            .next()
            .ok_or_else(|| format!("object {i}: unterminated"))?;
        let field = |name: &str| -> Option<&str> {
            let at = obj.find(&format!("\"{name}\""))?;
            let rest = obj[at..].split_once(':')?.1;
            Some(rest.split(',').next().unwrap_or(rest).trim())
        };
        let workload = field("workload")
            .ok_or_else(|| format!("object {i}: missing workload"))?
            .trim_matches('"')
            .to_string();
        let size: u64 = field("size")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("object {i}: bad size"))?;
        let median_ns: u128 = field("median_ns")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("object {i}: bad median_ns"))?;
        points.push(BenchPoint {
            workload,
            size,
            median_ns,
        });
    }
    if points.is_empty() {
        return Err("no bench points found".into());
    }
    Ok(points)
}

#[derive(Debug, Default)]
struct GateOutcome {
    /// Per-series verdict lines, in workload order.
    lines: Vec<String>,
    /// Workloads that regressed beyond tolerance or went missing.
    failed_series: Vec<String>,
    machine_factor: f64,
}

impl GateOutcome {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench gate: machine-speed factor {:.3}, tolerance {TOLERANCE_PCT:.0}%\n",
            self.machine_factor
        ));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.failed_series.is_empty() {
            out.push_str("bench gate: OK\n");
        } else {
            out.push_str(&format!(
                "bench gate: FAILED ({})\n",
                self.failed_series.join(", ")
            ));
        }
        out
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN ratios"));
    values[values.len() / 2]
}

/// Judges `current` against `baseline`: per-point ratios, global
/// machine-speed rescale, per-series median compared against the tolerance.
fn compare(baseline: &[BenchPoint], current: &[BenchPoint]) -> GateOutcome {
    let current_by_key: BTreeMap<(&str, u64), u128> = current
        .iter()
        .map(|p| ((p.workload.as_str(), p.size), p.median_ns))
        .collect();

    // Per-series point ratios (baseline order preserved).
    let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut missing: Vec<String> = Vec::new();
    let mut all_ratios: Vec<f64> = Vec::new();
    for p in baseline {
        match current_by_key.get(&(p.workload.as_str(), p.size)) {
            Some(&cur) => {
                let ratio = cur as f64 / (p.median_ns.max(1)) as f64;
                series.entry(&p.workload).or_default().push(ratio);
                all_ratios.push(ratio);
            }
            None => {
                if !missing.contains(&p.workload) {
                    missing.push(p.workload.clone());
                }
            }
        }
    }

    let machine_factor = if all_ratios.is_empty() {
        1.0
    } else {
        median(&mut all_ratios)
    };
    let allowed = machine_factor * (1.0 + TOLERANCE_PCT / 100.0);

    let mut outcome = GateOutcome {
        machine_factor,
        ..GateOutcome::default()
    };
    for (workload, ratios) in &series {
        let r = median(&mut ratios.clone());
        let verdict = if r > allowed { "REGRESSED" } else { "ok" };
        outcome.lines.push(format!(
            "  {workload:<26} median ratio {r:>7.3} (allowed {allowed:.3})  {verdict}"
        ));
        if r > allowed {
            outcome.failed_series.push((*workload).to_string());
        }
    }
    for workload in missing {
        outcome
            .lines
            .push(format!("  {workload:<26} MISSING from current summary"));
        outcome.failed_series.push(workload);
    }
    // Purely informational: new series have no baseline yet.
    let baseline_workloads: Vec<&str> = baseline.iter().map(|p| p.workload.as_str()).collect();
    let mut seen_new: Vec<&str> = Vec::new();
    for p in current {
        if !baseline_workloads.contains(&p.workload.as_str())
            && !seen_new.contains(&p.workload.as_str())
        {
            seen_new.push(&p.workload);
            outcome
                .lines
                .push(format!("  {:<26} new series (no baseline)", p.workload));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(&str, u64, u128)]) -> Vec<BenchPoint> {
        raw.iter()
            .map(|(w, s, m)| BenchPoint {
                workload: w.to_string(),
                size: *s,
                median_ns: *m,
            })
            .collect()
    }

    #[test]
    fn parses_the_scaling_summary_format() {
        let text = r#"[
  {"workload": "chain_tc", "size": 32, "tuples": 561, "median_ns": 181632},
  {"workload": "rd_dense", "size": 1, "tuples": 519, "median_ns": 2740}
]
"#;
        let points = parse_points(text).unwrap();
        assert_eq!(
            points,
            pts(&[("chain_tc", 32, 181632), ("rd_dense", 1, 2740)])
        );
        assert!(parse_points("[]").is_err());
        assert!(parse_points(r#"[{"workload": "x", "size": 1}]"#).is_err());
    }

    #[test]
    fn identical_summaries_pass() {
        let b = pts(&[("a", 1, 1000), ("a", 2, 2000), ("b", 1, 500)]);
        let out = compare(&b, &b);
        assert!(out.failed_series.is_empty(), "{}", out.render());
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let b = pts(&[("a", 1, 1000), ("a", 2, 2000), ("b", 1, 500), ("c", 3, 900)]);
        // Series `b` regressed 2x; the others hold, so rescaling cannot
        // hide it.
        let c = pts(&[
            ("a", 1, 1000),
            ("a", 2, 2000),
            ("b", 1, 1000),
            ("c", 3, 900),
        ]);
        let out = compare(&b, &c);
        assert_eq!(out.failed_series, vec!["b".to_string()], "{}", out.render());
        // Within tolerance passes.
        let c = pts(&[("a", 1, 1000), ("a", 2, 2000), ("b", 1, 600), ("c", 3, 900)]);
        let out = compare(&b, &c);
        assert!(out.failed_series.is_empty(), "{}", out.render());
    }

    #[test]
    fn uniformly_slower_machines_pass_with_rescale() {
        let b = pts(&[("a", 1, 1000), ("b", 1, 500), ("c", 3, 900)]);
        let c = pts(&[("a", 1, 3000), ("b", 1, 1500), ("c", 3, 2700)]);
        let out = compare(&b, &c);
        assert!(out.failed_series.is_empty(), "{}", out.render());
    }

    #[test]
    fn missing_series_fail_and_new_series_inform() {
        let b = pts(&[("a", 1, 1000), ("gone", 1, 10)]);
        let c = pts(&[("a", 1, 1000), ("fresh", 1, 10)]);
        let out = compare(&b, &c);
        assert_eq!(out.failed_series, vec!["gone".to_string()]);
        assert!(out.render().contains("fresh"), "{}", out.render());
        assert!(out.render().contains("new series"), "{}", out.render());
    }
}
