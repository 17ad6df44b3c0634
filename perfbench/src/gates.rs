//! Correctness gates.  Each one checks an output against an answer the
//! analyzer did not produce in the timed operation; a wrong answer counts
//! as a failed operation, never as a skipped one.

use aes_vhdl::encrypt_block;
use vhdl1_cli::DesignReport;
use vhdl1_corpus::GeneratedDesign;
use vhdl1_infoflow::FlowGraph;

/// Attempted and failed operation counts of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check (or that errored).
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn record(&mut self, what: &str, check: Result<(), String>) -> bool {
        self.attempted += 1;
        match check {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {why}");
                false
            }
        }
    }
}

fn sorted(pairs: impl IntoIterator<Item = (String, String)>) -> Vec<(String, String)> {
    let mut v: Vec<_> = pairs.into_iter().collect();
    v.sort();
    v.dedup();
    v
}

/// `corpus_verify`: the audit's violations are exactly the corpus-embedded
/// ground truth, the design smoke-simulated, and the dynamic oracle found
/// no soundness violation.
pub fn corpus_design(report: &DesignReport, truth: &GeneratedDesign) -> Result<(), String> {
    let found = sorted(
        report
            .violations
            .iter()
            .map(|v| (v.from.clone(), v.to.clone())),
    );
    let expected = sorted(truth.expected_violations.iter().cloned());
    if found != expected {
        return Err(format!("violations {found:?}, ground truth {expected:?}"));
    }
    if let Some(e) = &report.smoke_error {
        return Err(format!("smoke failed: {e}"));
    }
    if report.smoke_deltas.is_none() {
        return Err("no smoke result".to_string());
    }
    if let Some(e) = &report.dynflow_error {
        return Err(format!("dynflow failed: {e}"));
    }
    match &report.dynflow {
        None => Err("no dynflow result".to_string()),
        Some(d) if !d.soundness_violations.is_empty() => Err(format!(
            "dynflow soundness violations {:?}",
            d.soundness_violations
        )),
        Some(_) => Ok(()),
    }
}

/// `aes_paper`: the simulated ciphertext equals the reference cipher's.
pub fn ciphertext(got: &[u8], key: &[u8; 16], plaintext: &[u8; 16]) -> Result<(), String> {
    let want = encrypt_block(key, plaintext);
    if got == want.as_slice() {
        Ok(())
    } else {
        Err(format!("ciphertext {got:02x?}, reference {want:02x?}"))
    }
}

/// `aes_paper`: AddRoundKey over 16 bytes keeps its byte lanes apart —
/// output byte `j` depends on input and key byte `j` only.
pub fn lanes_separated(graph: &FlowGraph) -> Result<(), String> {
    for i in 0..16 {
        for j in 0..16 {
            for src in ["a", "k"] {
                let (from, to) = (format!("{src}_{i}"), format!("b_{j}"));
                if graph.has_edge(&from, &to) != (i == j) {
                    return Err(format!("lane separation violated at {from} -> {to}"));
                }
            }
        }
    }
    Ok(())
}

/// `edit_session` and `serve_mixed`: bytes equal the reference bytes.
pub fn same_bytes(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{} bytes differ from the {}-byte reference at byte {at}",
        got.len(),
        want.len()
    ))
}

/// `edit_session`: a first-time edit recomputes exactly one process.
pub fn one_unit_recomputed(recomputed: u64) -> Result<(), String> {
    if recomputed == 1 {
        Ok(())
    } else {
        Err(format!("edit recomputed {recomputed} units, expected 1"))
    }
}

/// `serve_mixed`: status 200 and the reference body.
pub fn response(status: u16, body: &[u8], want: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    same_bytes(body, want)
}

/// `serve_mixed`: a `/metrics` scrape answers 200 with the daemon's
/// request counters.
pub fn metrics_scrape(status: u16, body: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    if !String::from_utf8_lossy(body).contains("vhdl1d_requests_total") {
        return Err("metrics exposition lacks the request counters".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vhdl1_cli::{run_batch, BatchOptions, Job, VerifyOptions};
    use vhdl1_corpus::{generate, CorpusSpec};
    use vhdl1_infoflow::Engine;

    #[test]
    fn corpus_gate_rejects_a_dropped_violation_edge() {
        let designs = generate(&CorpusSpec::new(3, 8));
        let jobs: Vec<Job> = designs.iter().cloned().map(Job::from_generated).collect();
        let opts = BatchOptions {
            smoke: true,
            verify: Some(VerifyOptions { rounds: 8, seed: 1 }),
            ..BatchOptions::default()
        };
        let batch = run_batch(&jobs, &opts);
        let mut tally = Tally::default();
        for (report, truth) in batch.designs.iter().zip(&designs) {
            assert!(tally.record(&report.name, corpus_design(report, truth)));
        }
        let (index, leaky) = batch
            .designs
            .iter()
            .enumerate()
            .find(|(_, d)| !d.violations.is_empty())
            .expect("the corpus has a leaky design");
        let mut planted = leaky.clone();
        planted.violations.pop();
        assert!(!tally.record("planted", corpus_design(&planted, &designs[index])));
        let mut unsound = leaky.clone();
        if let Some(d) = unsound.dynflow.as_mut() {
            d.soundness_violations.push(("a".into(), "b".into()));
        }
        assert!(!tally.record("planted", corpus_design(&unsound, &designs[index])));
        assert_eq!(tally.failed, 2);
        assert_eq!(tally.attempted, designs.len() as u64 + 2);
    }

    #[test]
    fn ciphertext_gate_rejects_a_flipped_byte() {
        let key = [7u8; 16];
        let pt = [9u8; 16];
        let mut ct = encrypt_block(&key, &pt);
        let mut tally = Tally::default();
        assert!(tally.record("good", ciphertext(&ct, &key, &pt)));
        ct[5] ^= 0x01;
        assert!(!tally.record("planted", ciphertext(&ct, &key, &pt)));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn lane_gate_accepts_add_round_key_and_rejects_mixing() {
        let engine = Engine::default();
        let ark = engine
            .analyze_source(&aes_vhdl::add_round_key_vhdl(16))
            .unwrap();
        assert_eq!(lanes_separated(ark.merged_flow_graph().unwrap()), Ok(()));
        let mix = engine
            .analyze_source(&aes_vhdl::mix_columns_vhdl())
            .unwrap();
        assert!(lanes_separated(mix.merged_flow_graph().unwrap()).is_err());
    }

    #[test]
    fn byte_gates_reject_altered_bodies_and_reports() {
        let fresh = br#"{"designs": [{"edges": [["a", "b"]]}]}"#;
        let mut tally = Tally::default();
        assert!(tally.record("same", response(200, fresh, fresh)));
        let mut altered = fresh.to_vec();
        altered[20] = b'X';
        assert!(!tally.record("body", response(200, &altered, fresh)));
        assert!(!tally.record("status", response(500, fresh, fresh)));
        assert!(!tally.record("revision", same_bytes(&fresh[..10], fresh)));
        assert!(!tally.record("units", one_unit_recomputed(2)));
        let scrape = b"vhdl1d_requests_total{endpoint=\"analyze\"} 3\n";
        assert!(tally.record("scrape", metrics_scrape(200, scrape)));
        assert!(!tally.record("scrape", metrics_scrape(503, scrape)));
        assert!(!tally.record("scrape", metrics_scrape(200, b"# empty\n")));
        assert_eq!((tally.attempted, tally.failed), (8, 6));
    }
}
