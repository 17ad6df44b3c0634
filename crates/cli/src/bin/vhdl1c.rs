//! `vhdl1c` — generate and batch-analyze VHDL1 design corpora.
//!
//! ```console
//! $ vhdl1c gen --seed 7 --count 50                    # corpus manifest on stdout
//! $ vhdl1c gen --seed 7 --count 50 | vhdl1c analyze --jobs 8 --format json
//! $ vhdl1c analyze design.vhd --policy levels.pol --format text
//! $ vhdl1c analyze corpus.manifest --jobs 4 --smoke --check --out report.json
//! $ vhdl1c gen --seed 3 --count 20 --families hostile \
//!     | vhdl1c analyze --budget tight --deadline-ms 2000 --check
//! ```

use std::io::{Read as _, Write as _};
use std::process::ExitCode;
use vhdl1_cli::driver::{
    run_batch, run_batch_traced, run_edit_stream, BatchOptions, Format, Job, VerifyOptions,
};
use vhdl1_cli::profile;
use vhdl1_corpus::{edit_stream, generate, parse_manifest, write_manifest, CorpusSpec, Family};
use vhdl1_infoflow::{Budget, Policy};

const USAGE: &str = "\
usage:
  vhdl1c gen --seed N --count N [--families f1,f2] [--out FILE]
      Generate a deterministic corpus manifest (stdout by default).
      Families: pipeline, fsm, sbox_core, cross_flow (default: all),
      plus the opt-in `hostile` family of adversarial stress designs
      (never generated unless named).

  vhdl1c analyze [FILE...] [options]
      Analyze .vhd/.vhdl files and/or corpus manifests; with no FILE,
      read a manifest from stdin (the `gen | analyze` pipe).
      --jobs N          worker threads (default 1)
      --format FMT      json | dot | text (default json)
      --policy FILE     audit against this policy file instead of the
                        corpus-embedded ground-truth policies
      --out FILE        write the report to FILE instead of stdout
      --smoke           also smoke-simulate each design to quiescence
      --timing          record per-design and batch wall-clock times
      --check           gate the exit code on batch cleanliness (below)
      --budget NAME     resource budget: tight | standard | unlimited
                        (default unlimited); exhausted designs land in
                        the report's `degraded` section
      --deadline-ms N   per-design wall-clock deadline; over-deadline
                        designs are cooperatively cancelled and degraded
      --base            base closure only (no incoming/outgoing nodes)
      --no-cache        disable the engine's analysis memo table
                        (report-level dedup of identical jobs stays on)
      --cache-dir DIR   persist analysis artifacts to DIR; reruns (and
                        vhdl1d daemons) serve warm designs from disk
                        without re-parsing
      --stats           print engine stage/cache counters to stderr
      --profile[=FILE]  print a per-stage self-time table to stderr and,
                        with =FILE, write the profile JSON document to
                        FILE; the analysis report itself is unchanged

  vhdl1c edit-stream [options]
      Generate a deterministic edit stream — a multi-process base design
      plus cumulative single-process mutations — and replay it through
      one incremental analysis workspace, analyzing every revision in
      order.  Report bytes are identical to a fresh `analyze` of each
      revision; only the work differs (untouched processes are reused).
      --seed N          stream seed (default 1)
      --processes N     processes in the design (default 8, min 2)
      --edits N         single-process mutations to replay (default 4,
                        at most 2 per process)
      Takes analyze's --format, --policy, --out, --budget, --base,
      --no-cache, --cache-dir, --timing, --stats and --profile[=FILE]
      options, plus:
      --check           gate the exit code on batch cleanliness and on
                        the reuse contract: every edit must recompute
                        exactly one process (skipped under --no-cache
                        or a step-bounded --budget, where incremental
                        reuse is disabled by design)

  vhdl1c verify [FILE...] [options]
      Analyze like `analyze`, then witness dynamic flows per design by
      seeded differential simulation (twin runs perturbing one input at
      a time) and cross-check them against the static flow graph:
      a witnessed flow the static analysis missed is a soundness
      violation (hard --check failure); static edges never witnessed
      are reported as the precision gap, with per-edge flow coverage.
      Takes every `analyze` option, plus:
      --rounds N        stimulus rounds per perturbation source
                        (default 16)
      --seed N          stimulus seed (default 1)
      --min-coverage F  with --check, also fail (exit 2) when static
                        flow-edge coverage over leaky designs falls
                        below F (0..=1)

  vhdl1c help
      Show this message.

exit codes:
  0  success (with --check: batch clean, nothing degraded)
  1  usage or I/O error
  2  --check failed: unexpected error, ground-truth mismatch, smoke
     failure, dynamic soundness violation, dynflow failure, or
     coverage below --min-coverage (wrong answers)
  3  --check passed but at least one design exceeded its resource
     budget or deadline (incomplete answers)

policy file format: `level NAME N` and `allow FROM -> TO` lines.";

/// A CLI failure: usage errors reprint the usage text, runtime errors
/// (unreadable files, malformed policies, broken pipes) stay one line.
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn runtime(message: impl Into<String>) -> CliError {
    CliError::Runtime(message.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let (command, rest) = args.split_first().ok_or_else(|| usage("missing command"))?;
    match command.as_str() {
        "gen" => gen_command(rest),
        "analyze" => analyze_command(rest, false),
        "verify" => analyze_command(rest, true),
        "edit-stream" => edit_stream_command(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// Pulls the value of a `--flag VALUE` option out of `args`, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(usage(format!("`{flag}` needs a value")));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pulls `--profile` or `--profile=PATH` out of `args`: `None` when absent,
/// `Some(None)` for the bare flag, `Some(Some(path))` with a destination.
fn take_profile(args: &mut Vec<String>) -> Option<Option<String>> {
    let i = args
        .iter()
        .position(|a| a == "--profile" || a.starts_with("--profile="))?;
    let arg = args.remove(i);
    Some(arg.strip_prefix("--profile=").map(str::to_string))
}

/// Pulls a boolean `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn gen_command(args: &[String]) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let seed: u64 = take_value(&mut args, "--seed")?
        .ok_or_else(|| usage("gen needs --seed"))?
        .parse()
        .map_err(|_| usage("--seed must be an unsigned integer"))?;
    let count: usize = take_value(&mut args, "--count")?
        .ok_or_else(|| usage("gen needs --count"))?
        .parse()
        .map_err(|_| usage("--count must be an unsigned integer"))?;
    let mut spec = CorpusSpec::new(seed, count);
    if let Some(families) = take_value(&mut args, "--families")? {
        let families: Vec<Family> = families
            .split(',')
            .map(|f| {
                Family::from_str(f.trim()).ok_or_else(|| usage(format!("unknown family `{f}`")))
            })
            .collect::<Result<_, _>>()?;
        spec = spec.with_families(families);
    }
    let out_path = take_value(&mut args, "--out")?;
    if let Some(extra) = args.first() {
        return Err(usage(format!("unexpected argument `{extra}`")));
    }
    let manifest = write_manifest(&generate(&spec));
    write_output(out_path.as_deref(), &manifest)?;
    Ok(ExitCode::SUCCESS)
}

fn analyze_command(args: &[String], verify: bool) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let mut opts = BatchOptions::default();
    let mut min_coverage = None;
    if verify {
        let mut verify_opts = VerifyOptions::default();
        if let Some(rounds) = take_value(&mut args, "--rounds")? {
            verify_opts.rounds = rounds
                .parse()
                .map_err(|_| usage("--rounds must be an unsigned integer"))?;
        }
        if let Some(seed) = take_value(&mut args, "--seed")? {
            verify_opts.seed = seed
                .parse()
                .map_err(|_| usage("--seed must be an unsigned integer"))?;
        }
        if let Some(cov) = take_value(&mut args, "--min-coverage")? {
            let cov: f64 = cov
                .parse()
                .map_err(|_| usage("--min-coverage must be a number in 0..=1"))?;
            if !(0.0..=1.0).contains(&cov) {
                return Err(usage("--min-coverage must be a number in 0..=1"));
            }
            min_coverage = Some(cov);
        }
        opts.verify = Some(verify_opts);
    }
    if let Some(jobs) = take_value(&mut args, "--jobs")? {
        opts.jobs = jobs
            .parse()
            .map_err(|_| usage("--jobs must be an unsigned integer"))?;
    }
    if let Some(fmt) = take_value(&mut args, "--format")? {
        opts.format =
            Format::from_str(&fmt).ok_or_else(|| usage(format!("unknown format `{fmt}`")))?;
    }
    if let Some(path) = take_value(&mut args, "--policy")? {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| runtime(format!("cannot read policy `{path}`: {e}")))?;
        opts.policy =
            Some(Policy::parse_text(&text).map_err(|e| runtime(format!("policy `{path}`: {e}")))?);
    }
    if let Some(name) = take_value(&mut args, "--budget")? {
        opts.analysis.budget = Budget::preset(&name).ok_or_else(|| {
            usage(format!(
                "unknown budget `{name}` (tight, standard, unlimited)"
            ))
        })?;
    }
    if let Some(ms) = take_value(&mut args, "--deadline-ms")? {
        let ms: u64 = ms
            .parse()
            .map_err(|_| usage("--deadline-ms must be an unsigned integer"))?;
        // Belt and suspenders: the engine checks its own wall clock at stage
        // boundaries, and the driver's watchdog trips the cooperative cancel
        // flag of any design that overstays.
        opts.analysis.budget.deadline_ms = Some(ms);
        opts.deadline_ms = Some(ms);
    }
    opts.smoke = take_flag(&mut args, "--smoke");
    opts.timing = take_flag(&mut args, "--timing");
    let profile = take_profile(&mut args);
    opts.profile = profile.is_some();
    let stats = take_flag(&mut args, "--stats");
    let check = take_flag(&mut args, "--check");
    if take_flag(&mut args, "--base") {
        opts.analysis.improved = false;
    }
    let no_cache = take_flag(&mut args, "--no-cache");
    if no_cache {
        opts.cache = vhdl1_infoflow::CachePolicy::Disabled;
    }
    if let Some(dir) = take_value(&mut args, "--cache-dir")? {
        if no_cache {
            return Err(usage("--cache-dir conflicts with --no-cache".to_string()));
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| runtime(format!("cannot create cache dir `{dir}`: {e}")))?;
        opts.cache = vhdl1_infoflow::CachePolicy::Persistent {
            dir: dir.into(),
            cap: vhdl1_cli::driver::DEFAULT_PERSISTENT_CACHE_CAP,
        };
    }
    let out_path = take_value(&mut args, "--out")?;
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(usage(format!("unknown option `{flag}`")));
    }

    let jobs = collect_jobs(&args)?;
    // Telemetry collection is only engaged when asked for; the plain path
    // goes through `run_batch` with no clock reads at all.
    let (batch, telemetry) = if opts.profile || stats {
        let (batch, telemetry) = run_batch_traced(&jobs, &opts);
        (batch, Some(telemetry))
    } else {
        (run_batch(&jobs, &opts), None)
    };
    let rendered = match opts.format {
        Format::Json => batch.to_json(),
        Format::Dot => batch.to_dot(),
        Format::Text => batch.to_text(),
    };
    write_output(out_path.as_deref(), &rendered)?;
    for e in &batch.errors {
        let tag = if e.expected { " (expected)" } else { "" };
        eprintln!("error{tag}: {}: {}", e.name, e.error);
    }
    for d in &batch.degraded {
        eprintln!(
            "degraded: {}: {} budget exhausted (consumed {}, limit {})",
            d.name, d.stage, d.consumed, d.limit
        );
    }
    if let Some(telemetry) = &telemetry {
        if stats {
            eprint!("{}", profile::render_stats(telemetry));
        }
        if let Some(dest) = &profile {
            eprint!("{}", profile::render_table(telemetry));
            if let Some(path) = dest {
                std::fs::write(path, profile::render_json(telemetry))
                    .map_err(|e| runtime(format!("cannot write profile `{path}`: {e}")))?;
            }
        }
    }
    if check {
        // Coverage gate: judged over the leaky population when one exists
        // (clean designs legitimately keep conservative edges unexercised),
        // over everything otherwise.
        let coverage_ok = min_coverage.is_none_or(|min| {
            let (covered, total) = match batch.dynflow_leaky_edges() {
                (_, 0) => batch.dynflow_edges(),
                leaky => leaky,
            };
            total == 0 || covered as f64 / total as f64 >= min
        });
        if !batch.check_ok() || !coverage_ok {
            eprintln!(
                "check failed: {} unexpected error(s), {} ground-truth mismatch(es), \
                 {} smoke failure(s), {} soundness violation(s), {} dynflow failure(s){}",
                batch.unexpected_errors(),
                batch.ground_truth_mismatches(),
                batch.smoke_failures(),
                batch.soundness_violations(),
                batch.dynflow_failures(),
                if coverage_ok {
                    String::new()
                } else {
                    format!(", coverage below {:.2}", min_coverage.unwrap_or(0.0))
                }
            );
            return Ok(ExitCode::from(2));
        }
        if !batch.degraded.is_empty() {
            eprintln!(
                "check passed with {} design(s) degraded by resource budgets",
                batch.degraded.len()
            );
            return Ok(ExitCode::from(3));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn edit_stream_command(args: &[String]) -> Result<ExitCode, CliError> {
    let mut args = args.to_vec();
    let parse_u = |flag: &str, value: Option<String>, default: usize| -> Result<usize, CliError> {
        value.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| usage(format!("`{flag}` must be an unsigned integer")))
        })
    };
    let seed: u64 = take_value(&mut args, "--seed")?
        .map_or(Ok(1), |v| v.parse())
        .map_err(|_| usage("--seed must be an unsigned integer"))?;
    let processes = parse_u("--processes", take_value(&mut args, "--processes")?, 8)?;
    if processes < 2 {
        return Err(usage("--processes must be at least 2"));
    }
    let edits = parse_u("--edits", take_value(&mut args, "--edits")?, 4)?;
    let max_edits = vhdl1_corpus::edit::max_edits(processes);
    if edits > max_edits {
        return Err(usage(format!(
            "--edits {edits} exceeds the limit of {max_edits} for --processes {processes}"
        )));
    }

    let mut opts = BatchOptions::default();
    if let Some(fmt) = take_value(&mut args, "--format")? {
        opts.format =
            Format::from_str(&fmt).ok_or_else(|| usage(format!("unknown format `{fmt}`")))?;
    }
    if let Some(path) = take_value(&mut args, "--policy")? {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| runtime(format!("cannot read policy `{path}`: {e}")))?;
        opts.policy =
            Some(Policy::parse_text(&text).map_err(|e| runtime(format!("policy `{path}`: {e}")))?);
    }
    if let Some(name) = take_value(&mut args, "--budget")? {
        opts.analysis.budget = Budget::preset(&name).ok_or_else(|| {
            usage(format!(
                "unknown budget `{name}` (tight, standard, unlimited)"
            ))
        })?;
    }
    opts.timing = take_flag(&mut args, "--timing");
    let stats = take_flag(&mut args, "--stats");
    let profile_dest = take_profile(&mut args);
    opts.profile = profile_dest.is_some();
    let check = take_flag(&mut args, "--check");
    if take_flag(&mut args, "--base") {
        opts.analysis.improved = false;
    }
    let no_cache = take_flag(&mut args, "--no-cache");
    if no_cache {
        opts.cache = vhdl1_infoflow::CachePolicy::Disabled;
    }
    if let Some(dir) = take_value(&mut args, "--cache-dir")? {
        if no_cache {
            return Err(usage("--cache-dir conflicts with --no-cache".to_string()));
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| runtime(format!("cannot create cache dir `{dir}`: {e}")))?;
        opts.cache = vhdl1_infoflow::CachePolicy::Persistent {
            dir: dir.into(),
            cap: vhdl1_cli::driver::DEFAULT_PERSISTENT_CACHE_CAP,
        };
    }
    let out_path = take_value(&mut args, "--out")?;
    if let Some(extra) = args.first() {
        return Err(usage(format!("unexpected argument `{extra}`")));
    }

    let stream = edit_stream(seed, processes, edits);
    let jobs: Vec<Job> = stream
        .sources()
        .into_iter()
        .enumerate()
        .map(|(revision, src)| Job::from_source(format!("{}@r{revision}", stream.name), src))
        .collect();
    let (batch, telemetry) = run_edit_stream(&jobs, &opts);
    let rendered = match opts.format {
        Format::Json => batch.to_json(),
        Format::Dot => batch.to_dot(),
        Format::Text => batch.to_text(),
    };
    write_output(out_path.as_deref(), &rendered)?;
    for e in &batch.errors {
        eprintln!("error: {}: {}", e.name, e.error);
    }
    if stats {
        eprint!("{}", profile::render_stats(&telemetry));
    }
    if let Some(dest) = &profile_dest {
        eprint!("{}", profile::render_table(&telemetry));
        if let Some(path) = dest {
            std::fs::write(path, profile::render_json(&telemetry))
                .map_err(|e| runtime(format!("cannot write profile `{path}`: {e}")))?;
        }
    }
    if check {
        if !batch.check_ok() {
            eprintln!(
                "check failed: {} unexpected error(s), {} ground-truth mismatch(es)",
                batch.unexpected_errors(),
                batch.ground_truth_mismatches()
            );
            return Ok(ExitCode::from(2));
        }
        // Reuse contract — meaningful only when the incremental path is
        // live (a disabled cache or step-bounded dataflow budget falls
        // back to whole-design analysis by design).
        let incremental = !no_cache && opts.analysis.budget.max_dataflow_steps.is_none();
        if incremental {
            // Cold caches recompute the base plus one process per edit;
            // a warm persistent store can only lower that.  Every process
            // of every revision must be accounted one way or the other.
            let s = &telemetry.stats;
            let total = ((edits + 1) * processes) as u64;
            let max_recomputed = (processes + edits) as u64;
            if s.units_recomputed > max_recomputed || s.units_reused + s.units_recomputed != total {
                eprintln!(
                    "check failed: reuse contract broken: recomputed {} units \
                     (allowed at most {}), reused {}, expected {} total",
                    s.units_recomputed, max_recomputed, s.units_reused, total
                );
                return Ok(ExitCode::from(2));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Builds the job list: named files (plain VHDL or manifests) or, with no
/// files, a manifest read from stdin.
fn collect_jobs(paths: &[String]) -> Result<Vec<Job>, CliError> {
    let mut jobs = Vec::new();
    if paths.is_empty() {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| runtime(format!("cannot read stdin: {e}")))?;
        jobs.extend(manifest_jobs(&text, "<stdin>")?);
        return Ok(jobs);
    }
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| runtime(format!("cannot read `{path}`: {e}")))?;
        let is_vhdl = path.ends_with(".vhd") || path.ends_with(".vhdl");
        if is_vhdl {
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(path)
                .to_string();
            jobs.push(Job::from_source(stem, text));
        } else {
            jobs.extend(manifest_jobs(&text, path)?);
        }
    }
    Ok(jobs)
}

fn manifest_jobs(text: &str, origin: &str) -> Result<Vec<Job>, CliError> {
    let designs = parse_manifest(text).map_err(|e| runtime(format!("manifest `{origin}`: {e}")))?;
    if designs.is_empty() {
        return Err(runtime(format!(
            "manifest `{origin}` contains no designs (expected `--! design` headers)"
        )));
    }
    Ok(designs.into_iter().map(Job::from_generated).collect())
}

/// Writes the rendered output, turning every I/O failure — including a
/// broken stdout pipe (`gen | head`) — into a one-line diagnostic instead
/// of a panic.
fn write_output(path: Option<&str>, content: &str) -> Result<(), CliError> {
    match path {
        Some(path) => std::fs::write(path, content)
            .map_err(|e| runtime(format!("cannot write `{path}`: {e}"))),
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(content.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| runtime(format!("cannot write to stdout: {e}")))
        }
    }
}
