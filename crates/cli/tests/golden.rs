//! Golden-file tests for the `vhdl1c` emitters, plus end-to-end determinism
//! checks of the `gen | analyze` pipeline.
//!
//! Regenerate the golden files after an intentional schema change with:
//! `UPDATE_GOLDEN=1 cargo test -p vhdl1-cli --test golden`.

use std::process::{Command, Stdio};
use vhdl1_cli::driver::{run_batch, BatchOptions, Format, Job, VerifyOptions};
use vhdl1_corpus::{generate, write_manifest, CorpusSpec, Family};

/// The quickstart-sized fixture shared by the JSON and DOT goldens.
const GATEKEEPER: &str = "\
entity gatekeeper is
  port(
    data_in : in std_logic_vector(7 downto 0);
    enable  : in std_logic;
    data_out : out std_logic_vector(7 downto 0)
  );
end gatekeeper;
architecture rtl of gatekeeper is
  signal latched : std_logic_vector(7 downto 0);
begin
  latch : process
  begin
    latched <= data_in;
    wait on data_in;
  end process latch;
  forward : process
    variable buffered : std_logic_vector(7 downto 0);
  begin
    if enable = '1' then
      buffered := latched;
    else
      buffered := \"00000000\";
    end if;
    data_out <= buffered;
    wait on latched, enable;
  end process forward;
end rtl;
";

fn fixture_jobs() -> Vec<Job> {
    let mut jobs = vec![Job::from_source("gatekeeper", GATEKEEPER)];
    // Two tiny corpus entries (one clean, one leaky) exercise the
    // ground-truth fields of the report.
    let spec = CorpusSpec::new(1, 2).with_families(vec![Family::Fsm]);
    jobs.extend(generate(&spec).into_iter().map(Job::from_generated));
    jobs
}

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file `{path}` ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "`{name}` drifted from its golden file; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn json_report_matches_golden() {
    let batch = run_batch(&fixture_jobs(), &BatchOptions::default());
    check_golden("report.json", &batch.to_json());
}

#[test]
fn dot_report_matches_golden() {
    let batch = run_batch(
        &fixture_jobs(),
        &BatchOptions {
            format: Format::Dot,
            ..BatchOptions::default()
        },
    );
    check_golden("graphs.dot", &batch.to_dot());
}

#[test]
fn text_report_matches_golden() {
    let batch = run_batch(
        &fixture_jobs(),
        &BatchOptions {
            format: Format::Text,
            ..BatchOptions::default()
        },
    );
    check_golden("report.txt", &batch.to_text());
}

fn verify_options() -> BatchOptions {
    BatchOptions {
        verify: Some(VerifyOptions { rounds: 8, seed: 1 }),
        ..BatchOptions::default()
    }
}

#[test]
fn verify_json_report_matches_golden() {
    let batch = run_batch(&fixture_jobs(), &verify_options());
    check_golden("verify.json", &batch.to_json());
}

#[test]
fn verify_text_report_matches_golden() {
    let batch = run_batch(
        &fixture_jobs(),
        &BatchOptions {
            format: Format::Text,
            ..verify_options()
        },
    );
    check_golden("verify.txt", &batch.to_text());
}

/// Verify reports are byte-identical across repeated runs and across worker
/// counts: the dynflow sweep depends only on `(design, rounds, seed)`.
#[test]
fn verify_report_is_deterministic_across_runs_and_worker_counts() {
    let jobs: Vec<Job> = generate(&CorpusSpec::new(7, 8))
        .into_iter()
        .map(Job::from_generated)
        .collect();
    let first = run_batch(&jobs, &verify_options()).to_json();
    let again = run_batch(&jobs, &verify_options()).to_json();
    assert_eq!(first, again, "verify must be pure across runs");
    for workers in [2, 4] {
        let parallel = run_batch(
            &jobs,
            &BatchOptions {
                jobs: workers,
                ..verify_options()
            },
        )
        .to_json();
        assert_eq!(
            first, parallel,
            "verify output must not depend on --jobs {workers}"
        );
    }
}

/// Dynamic flow-witness coverage of the seed-7 smoke corpus stays
/// complete: differential simulation witnesses every static flow-graph
/// edge and no flow the static analysis missed.
#[test]
fn seed7_corpus_verify_witnesses_every_static_edge_soundly() {
    let jobs: Vec<Job> = generate(&CorpusSpec::new(7, 25))
        .into_iter()
        .map(Job::from_generated)
        .collect();
    let batch = run_batch(
        &jobs,
        &BatchOptions {
            jobs: 4,
            ..verify_options()
        },
    );
    let (covered, total) = batch.dynflow_edges();
    assert!(total > 0, "verify must produce static edges to witness");
    assert_eq!(covered, total, "dynamic coverage of static edges");
    assert_eq!(batch.soundness_violations(), 0);
    assert!(batch.check_ok());
}

#[test]
fn same_seed_means_byte_identical_corpus_and_report() {
    let manifest_a = write_manifest(&generate(&CorpusSpec::new(7, 12)));
    let manifest_b = write_manifest(&generate(&CorpusSpec::new(7, 12)));
    assert_eq!(manifest_a, manifest_b, "corpus generation must be pure");

    let jobs: Vec<Job> = generate(&CorpusSpec::new(7, 12))
        .into_iter()
        .map(Job::from_generated)
        .collect();
    let report_a = run_batch(&jobs, &BatchOptions::default()).to_json();
    let report_b = run_batch(
        &jobs,
        &BatchOptions {
            jobs: 4,
            ..BatchOptions::default()
        },
    )
    .to_json();
    assert_eq!(
        report_a, report_b,
        "reports must be byte-identical regardless of worker count"
    );
}

/// Drives the real binary end to end: `vhdl1c gen | vhdl1c analyze`.
#[test]
fn binary_pipe_gen_analyze() {
    let bin = env!("CARGO_BIN_EXE_vhdl1c");
    let mut gen = Command::new(bin)
        .args(["gen", "--seed", "7", "--count", "8"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vhdl1c gen");
    let analyze = Command::new(bin)
        .args(["analyze", "--jobs", "2", "--format", "json", "--check"])
        .stdin(gen.stdout.take().expect("gen stdout"))
        .stdout(Stdio::piped())
        .output()
        .expect("run vhdl1c analyze");
    assert!(gen.wait().expect("wait for gen").success());
    assert!(
        analyze.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&analyze.stderr)
    );
    let json = String::from_utf8(analyze.stdout).unwrap();
    assert!(json.contains("\"designs\": ["));
    assert!(json.contains("\"ground_truth_mismatches\": 0"));
    assert!(json.contains("\"errors\": 0"));
}

/// Drives the real binary end to end: `vhdl1c gen | vhdl1c verify --check`.
#[test]
fn binary_pipe_gen_verify() {
    let bin = env!("CARGO_BIN_EXE_vhdl1c");
    let mut gen = Command::new(bin)
        .args(["gen", "--seed", "7", "--count", "8"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn vhdl1c gen");
    let verify = Command::new(bin)
        .args([
            "verify",
            "--jobs",
            "2",
            "--rounds",
            "8",
            "--seed",
            "1",
            "--min-coverage",
            "0.9",
            "--check",
        ])
        .stdin(gen.stdout.take().expect("gen stdout"))
        .stdout(Stdio::piped())
        .output()
        .expect("run vhdl1c verify");
    assert!(gen.wait().expect("wait for gen").success());
    assert!(
        verify.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&verify.stderr)
    );
    let json = String::from_utf8(verify.stdout).unwrap();
    assert!(json.contains("\"schema\": 3,"));
    assert!(json.contains("\"soundness_violations\": 0"));
    assert!(json.contains("\"dynflow_failures\": 0"));
}

/// The binary rejects unknown options instead of silently ignoring them.
#[test]
fn binary_rejects_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_vhdl1c");
    let out = Command::new(bin)
        .args(["analyze", "--frobnicate"])
        .output()
        .expect("run vhdl1c");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}
