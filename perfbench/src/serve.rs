//! `serve_mixed`: a `vhdl1d` child process under mixed traffic — warm and
//! cold `/analyze`, `/update` revisions and periodic `/metrics` scrapes —
//! sent first as a closed loop, which measures the daemon's capacity, then
//! as an open loop offered a fixed share of that capacity.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vhdl1_cli::{run_batch_on, BatchOptions, Job};
use vhdl1_corpus::GeneratedDesign;
use vhdl1_infoflow::Engine;

use crate::gates::{self, Tally};
use crate::http::{self, prometheus_value};
use crate::inputs::{self, Request, ServeInputs, CACHE_CAP, HOT, MIX_BLOCK};
use crate::metrics::{end_to_end, traced, Metrics, Samples, Traced};
use crate::stats::{dir_bytes, median, proc_mem_mb, quantile, ratio};
use crate::trace::{Profile, Span, Tracer};
use crate::Config;

/// Latency limit of one request, from its due time to its full response.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Daemon set-ups per run; the last daemon serves the traffic.
const SETUPS: usize = 7;
/// Share of the capacity measured by the closed loop that the open loop
/// offers: enough to keep the daemon busy, with headroom for the machine to
/// slow down between the two loops.
pub const LOAD: f64 = 0.4;

/// A running `vhdl1d` child, stopped and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon with default flags plus a fresh cache directory
    /// and a cache cap below the run's distinct-design count.
    fn spawn(cfg: &Config, dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut child = Command::new(&cfg.daemon)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--cache-cap",
                &CACHE_CAP.to_string(),
            ])
            .arg("--cache-dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.daemon.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("vhdl1d listening on ")
            .map(str::to_string);
        let daemon = Daemon {
            child,
            addr: addr.unwrap_or_default(),
            dir,
        };
        match read {
            Ok(_) if !daemon.addr.is_empty() => Ok(daemon),
            _ => Err(format!("vhdl1d did not report its address: {line:?}")),
        }
    }

    fn get(&self, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
        http::request(&self.addr, "GET", target, b"")
    }

    fn post(&self, target: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        http::request(&self.addr, "POST", target, body)
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if matches!(self.get("/healthz"), Ok((200, _))) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("vhdl1d never became healthy".to_string())
    }

    fn mem_mb(&self, field: &str) -> f64 {
        proc_mem_mb(Some(self.child.id()), field).unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.post("/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What `request` sends: its target and, except for `/metrics`, the
/// design's name and source (the body).
fn parts(inputs: &ServeInputs, request: Request) -> (String, Option<(&str, &str)>) {
    fn analyze(d: &GeneratedDesign) -> (String, Option<(&str, &str)>) {
        let target = format!("/analyze?name={}", d.name);
        (target, Some((d.name.as_str(), d.source.as_str())))
    }
    match request {
        Request::Warm(i) => analyze(&inputs.hot[i]),
        Request::Cold(i) => analyze(&inputs.cold[i]),
        Request::Update { id, rev } => {
            let stream = &inputs.updates[id];
            let target = format!("/update?id={}", stream.name);
            (target, Some((stream.name.as_str(), stream.sources()[rev])))
        }
        Request::Metrics => ("/metrics".to_string(), None),
    }
}

/// The reference response of every analysis request of the run: the bytes
/// of `run_batch` over the same job, computed before any timing.
type References = HashMap<Request, Vec<u8>>;

fn references(inputs: &ServeInputs) -> References {
    let engine = Engine::default();
    let mut refs = References::new();
    let hot = (0..HOT).map(Request::Warm);
    for request in hot
        .chain(inputs.closed.iter().copied())
        .chain(inputs.open.iter().copied())
    {
        if let (_, Some((name, source))) = parts(inputs, request) {
            refs.entry(request).or_insert_with(|| {
                let jobs = [Job::from_source(name, source)];
                run_batch_on(&engine, &jobs, &BatchOptions::default())
                    .to_json()
                    .into_bytes()
            });
        }
    }
    refs
}

/// One request's outcome.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Position in the loop's request list.
    index: usize,
    request: Request,
    /// Due time (closed loop: send time) from the start of the loop.
    due_ns: u64,
    lag_ns: u64,
    /// From the due time to the full response.
    latency_ns: u64,
    status: u16,
    ok: bool,
    body_bytes: usize,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }

    fn is_analysis(&self) -> bool {
        self.request != Request::Metrics
    }
}

/// The outcome of one loop.
struct Drive {
    /// In sending order.
    records: Vec<Record>,
    /// Each sender's spans (traced loops only).
    spans: Vec<Vec<Span>>,
    /// From the start of the loop to the last response.
    wall_s: f64,
}

impl Drive {
    fn requests_per_s(&self) -> f64 {
        ratio(self.records.len() as f64, self.wall_s)
    }

    fn latencies_ms(&self, pick: impl Fn(Request) -> bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| pick(r.request))
            .map(Record::latency_ms)
            .collect()
    }
}

fn span_name(request: Request) -> &'static str {
    match request {
        Request::Warm(_) => "daemon.warm",
        Request::Cold(_) => "daemon.cold",
        Request::Update { .. } => "daemon.update",
        Request::Metrics => "daemon.metrics",
    }
}

/// Sends `requests` with `senders` threads, one request at a time each,
/// and checks every response.  Without a schedule the loop is closed: a
/// sender sends its next request as soon as the last one returned.  With
/// `(arrivals, rate)` it is open: request `i` is due `arrivals[i] / rate`
/// seconds after the start and is timed from its due time.
fn drive(
    daemon: &Daemon,
    inputs: &ServeInputs,
    refs: &References,
    requests: &[Request],
    schedule: Option<(&[f64], f64)>,
    senders: usize,
    traced: bool,
) -> Drive {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Vec<Record>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = if traced {
                        Tracer::on(start)
                    } else {
                        Tracer::off()
                    };
                    let mut records = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&request) = requests.get(index) else {
                            break;
                        };
                        let due = match schedule {
                            Some((arrivals, rate)) => {
                                let due = start + Duration::from_secs_f64(arrivals[index] / rate);
                                tr.span("loadgen.wait", index as u64, || wait_until(due));
                                due
                            }
                            None => {
                                wait_until(start);
                                Instant::now()
                            }
                        };
                        let sent = Instant::now();
                        let (target, body) = parts(inputs, request);
                        let response = tr.span(span_name(request), index as u64, || match body {
                            Some((_, source)) => daemon.post(&target, source.as_bytes()),
                            None => daemon.get(&target),
                        });
                        let done = Instant::now();
                        let (status, check, body_bytes) = match response {
                            Ok((status, bytes)) => {
                                let check = match refs.get(&request) {
                                    Some(want) => gates::response(status, &bytes, want),
                                    None => gates::metrics_scrape(status, &bytes),
                                };
                                (status, check, bytes.len())
                            }
                            Err(e) => (0, Err(e.to_string()), 0),
                        };
                        if let Err(why) = &check {
                            eprintln!("perfbench: FAILED {target}: {why}");
                        }
                        let since_start =
                            |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
                        records.push(Record {
                            index,
                            request,
                            due_ns: since_start(due),
                            lag_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                            latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
                            status,
                            ok: check.is_ok(),
                            body_bytes,
                        });
                    }
                    (records, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    let mut spans = Vec::new();
    for (r, s) in results {
        records.extend(r);
        spans.push(s);
    }
    records.sort_by_key(|r| r.index);
    Drive {
        records,
        spans,
        wall_s,
    }
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread's
/// wake-up delay on a virtual machine would otherwise count as request
/// latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// How long before a request's due time its sender stops sleeping.
const SPIN: Duration = Duration::from_micros(500);

/// Spawns a daemon, waits for `/healthz` and primes the hot set with a
/// closed loop; returns the daemon and the seconds all that took.
fn set_up(
    cfg: &Config,
    inputs: &ServeInputs,
    refs: &References,
    n: usize,
    tally: &mut Tally,
) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(
        cfg,
        cfg.tmp.join(format!("serve-{}-{n}", std::process::id())),
    )?;
    daemon.wait_healthy()?;
    let hot: Vec<Request> = (0..HOT).map(Request::Warm).collect();
    let primed = drive(&daemon, inputs, refs, &hot, None, cfg.workers, false);
    let seconds = t.elapsed().as_secs_f64();
    tally_records(&primed.records, tally);
    Ok((daemon, seconds))
}

/// Counts every request as an operation; failures were reported by
/// [`drive`].
fn tally_records(records: &[Record], tally: &mut Tally) {
    for r in records {
        tally.attempted += 1;
        tally.failed += u64::from(!r.ok);
    }
}

/// The closed loop, then the open loop at [`LOAD`] times the capacity the
/// closed loop measured (or at `rate`, when given).
fn phases(
    cfg: &Config,
    daemon: &Daemon,
    inputs: &ServeInputs,
    refs: &References,
    rate: Option<f64>,
    traced: bool,
) -> (Drive, Drive, f64) {
    let closed = drive(
        daemon,
        inputs,
        refs,
        &inputs.closed,
        None,
        cfg.workers,
        traced,
    );
    let rate = rate.unwrap_or(LOAD * closed.requests_per_s());
    let schedule = Some((inputs.arrivals.as_slice(), rate));
    let open = drive(
        daemon,
        inputs,
        refs,
        &inputs.open,
        schedule,
        cfg.workers,
        traced,
    );
    (closed, open, rate)
}

/// The untraced run: end-to-end metrics.  The closed loop gives the
/// throughput and block metrics, the open loop `slo_met_ratio`.
pub fn run(cfg: &Config) -> Result<(Metrics, Tally), String> {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let inputs = inputs::serve(cfg.seed, cfg.seconds);
    let refs = references(&inputs);
    let mut daemon = None;
    for n in 0..SETUPS {
        let (d, seconds) = set_up(cfg, &inputs, &refs, n, &mut tally)?;
        samples.setups_s.push(seconds);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let (closed, open, _) = phases(cfg, &daemon, &inputs, &refs, None, false);
    samples.peak_rss_mb = daemon.mem_mb("VmHWM");
    drop(daemon);
    tally_records(&closed.records, &mut tally);
    tally_records(&open.records, &mut tally);
    samples.designs = closed
        .records
        .iter()
        .filter(|r| r.ok && r.is_analysis())
        .count() as u64;
    samples.busy_s = closed.wall_s;
    // A pass and a step are both a block of consecutive closed-loop
    // requests, from its first send to its last response: the daemon's
    // speed decides it.  Single request latencies follow the scheduling of
    // client and daemon threads on the same cores too closely to gate on;
    // they are the per-layer `daemon.request_*` metrics.
    samples.passes_s = closed
        .records
        .chunks_exact(MIX_BLOCK)
        .map(|block| {
            let first = block.iter().map(|r| r.due_ns).min().unwrap_or(0);
            let last = block
                .iter()
                .map(|r| r.due_ns + r.latency_ns)
                .max()
                .unwrap_or(0);
            (last - first) as f64 / 1e9
        })
        .collect();
    samples.steps_ms = samples.passes_s.iter().map(|s| s * 1e3).collect();
    samples.slo_checked = open.records.len() as u64;
    samples.slo_met = open
        .records
        .iter()
        .filter(|r| r.ok && r.latency_ms() <= LATENCY_LIMIT_MS)
        .count() as u64;
    Ok((end_to_end(&samples, 0.9, tally), tally))
}

/// The traced run: per-layer metrics.  Both loops run untraced on one
/// daemon, then traced, at the same open-loop rate, on a fresh daemon.
pub fn trace(cfg: &Config) -> Result<(Metrics, Tally, Profile), String> {
    let half = cfg.seconds / 2.0;
    let mut tally = Tally::default();
    let inputs = inputs::serve(cfg.seed, half);
    let refs = references(&inputs);
    let (daemon, _) = set_up(cfg, &inputs, &refs, 0, &mut tally)?;
    let (closed, open, rate) = phases(cfg, &daemon, &inputs, &refs, None, false);
    drop(daemon);
    let (daemon, _) = set_up(cfg, &inputs, &refs, 1, &mut tally)?;
    let rss_before = daemon.mem_mb("VmRSS");
    let (traced_closed, traced_open, _) = phases(cfg, &daemon, &inputs, &refs, Some(rate), true);
    let rss_after = daemon.mem_mb("VmRSS");
    let scrape = daemon
        .get("/metrics")
        .map(|(_, body)| String::from_utf8_lossy(&body).into_owned())
        .unwrap_or_default();
    let dir_mb = dir_bytes(&daemon.dir) as f64 / 1e6;
    drop(daemon);
    let both = [&traced_closed, &traced_open];
    for drive in [&closed, &open].into_iter().chain(both) {
        tally_records(&drive.records, &mut tally);
    }

    let mut profile = Profile::default();
    for drive in both {
        for spans in &drive.spans {
            profile.add(spans.clone());
        }
    }
    let run = Traced {
        passes: 1,
        source_bytes: 0,
        // The closed loops send the same requests as fast as the daemon
        // answers, so their walls compare like with like.
        untraced_s: closed.wall_s,
        traced_s: traced_closed.wall_s,
        thread_s: (traced_closed.wall_s + traced_open.wall_s) * cfg.workers as f64,
    };
    let mut m = traced(&profile, &run);
    // Request latency percentiles of the untraced open loop: every
    // request, timed from its due time.
    let requests = open.latencies_ms(|_| true);
    m.push("daemon.request_p50_ms", median(&requests), "ms");
    m.push("daemon.request_p99_ms", quantile(&requests, 0.99), "ms");
    let p50 = |pick: fn(Request) -> bool| median(&traced_open.latencies_ms(pick));
    m.push(
        "daemon.warm_p50_ms",
        p50(|r| matches!(r, Request::Warm(_))),
        "ms",
    );
    m.push(
        "daemon.cold_p50_ms",
        p50(|r| matches!(r, Request::Cold(_))),
        "ms",
    );
    m.push(
        "daemon.update_p50_ms",
        p50(|r| matches!(r, Request::Update { .. })),
        "ms",
    );
    let scrapes = traced_open.latencies_ms(|r| r == Request::Metrics);
    m.push(
        "daemon.metrics_first_ms",
        scrapes.first().copied().unwrap_or(0.0),
        "ms",
    );
    m.push(
        "daemon.metrics_last_ms",
        scrapes.last().copied().unwrap_or(0.0),
        "ms",
    );
    m.push("daemon.rss_growth_mb", rss_after - rss_before, "MB");
    let records = || both.into_iter().flat_map(|d| &d.records);
    m.push(
        "daemon.non200",
        records().filter(|r| r.status != 200).count() as f64,
        "count",
    );
    let counter = |name: &str| prometheus_value(&scrape, name).unwrap_or(0.0);
    m.push("store.hits", counter("vhdl1_store_hits_total"), "count");
    m.push("store.writes", counter("vhdl1_store_writes_total"), "count");
    m.push("store.dir_mb", dir_mb, "MB");
    let hits = counter("vhdl1_engine_cache_hits_total");
    m.push(
        "engine.cache_hit_ratio",
        ratio(hits, hits + counter("vhdl1_engine_cache_misses_total")),
        "ratio",
    );
    let reused = counter("vhdl1_units_reused_total");
    m.push(
        "engine.units_reused_ratio",
        ratio(reused, reused + counter("vhdl1_units_recomputed_total")),
        "ratio",
    );
    let analyses: Vec<f64> = records()
        .filter(|r| r.is_analysis())
        .map(|r| r.body_bytes as f64)
        .collect();
    m.push("cli.report.bytes", median(&analyses), "bytes");
    let lags: Vec<f64> = traced_open
        .records
        .iter()
        .map(|r| r.lag_ns as f64 / 1e6)
        .collect();
    m.push("loadgen.lag_p99_ms", quantile(&lags, 0.99), "ms");
    m.push("loadgen.offered_rps", rate, "1/s");
    m.push(
        "loadgen.completed_rps",
        ratio(
            traced_open.records.iter().filter(|r| r.ok).count() as f64,
            traced_open.wall_s,
        ),
        "1/s",
    );
    Ok((m, tally, profile))
}
