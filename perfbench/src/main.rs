//! `perfbench` — the end-to-end benchmark of the VHDL1 information-flow
//! analyzer and its `vhdl1d` daemon.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH --tmp DIR
//! ```
//!
//! Runs one workload for `S` seconds on inputs generated from `N`, checks
//! every output, and prints one JSON result line last on stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  See `README.md` for the workloads and metrics.

mod aes;
mod corpus;
mod edit;
mod gates;
mod http;
mod inputs;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use gates::Tally;
use metrics::Metrics;

/// Workload names: those `BENCHMARK.json` lists, in its order, then
/// `serve_mixed`, which it does not list (see `README.md`).
const WORKLOADS: [&str; 4] = ["corpus_verify", "aes_paper", "edit_session", "serve_mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// The `vhdl1d` executable (`serve_mixed`).
    pub daemon: PathBuf,
    /// Scratch directory for daemon cache directories.
    pub tmp: PathBuf,
    /// Worker threads: `available_parallelism`.
    pub workers: usize,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: PathBuf::from(".bench_build/release/vhdl1d"),
        tmp: PathBuf::from(".bench_tmp"),
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| number("an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| number("seconds"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(number("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--daemon" => cfg.daemon = PathBuf::from(value),
            "--tmp" => cfg.tmp = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            cfg.workload
        ));
    }
    Ok(cfg)
}

fn run(cfg: &Config) -> Result<(Metrics, Tally), String> {
    if !cfg.trace {
        return match cfg.workload.as_str() {
            "corpus_verify" => Ok(corpus::run(cfg)),
            "aes_paper" => Ok(aes::run(cfg)),
            "edit_session" => Ok(edit::run(cfg)),
            _ => serve::run(cfg),
        };
    }
    let (metrics, tally, profile) = match cfg.workload.as_str() {
        "corpus_verify" => corpus::trace(cfg),
        "aes_paper" => aes::trace(cfg),
        "edit_session" => edit::trace(cfg),
        _ => serve::trace(cfg)?,
    };
    // The spans stay in memory during the run and are written once here.
    let path = cfg
        .tmp
        .join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed));
    std::fs::create_dir_all(&cfg.tmp)
        .and_then(|()| profile.write_jsonl(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok((metrics::per_layer(metrics), tally))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, {} workers",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.workers
    );
    match run(&cfg) {
        Ok((metrics, tally)) => {
            println!("{}", metrics.result_line(tally));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let cfg = parse_args(&args("--workload aes_paper --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (3, 2.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload aes_paper --trace 2")).is_err());
        assert!(parse_args(&args("--workload aes_paper --seconds")).is_err());
    }
}
