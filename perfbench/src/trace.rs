//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer's public
//! functions, kept in memory and reduced once at the end of the run.  A
//! span's self time is its duration minus the part its child spans cover;
//! a layer's time is the summed self time of the spans named after it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vhdl1_infoflow::{Analysis, EngineError, FlowGraph, Policy};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `infoflow.improved`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span of the same recorder.
    pub parent: Option<usize>,
    /// Design or request id the span worked on.
    pub id: u64,
}

/// Per-thread span recorder; a disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing (untraced runs).
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `origin`.
    pub fn on(origin: Instant) -> Tracer {
        Tracer {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.now_ns();
            self.open.retain(|&open| open != index);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, id);
        let out = f();
        self.end(span);
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Runs an analysis's stages in dependency order, a span around each call
/// so each accessor times only its own stage: reaching definitions, the
/// local and specialised matrices, the improved closure, the flow graph
/// and the audit against `policy`.  Returns the merged flow graph.
pub fn stages<'a>(
    analysis: &'a Analysis<'_>,
    tr: &mut Tracer,
    id: u64,
    policy: &Policy,
) -> Result<&'a FlowGraph, EngineError> {
    tr.span("dataflow.rd", id, || analysis.rd().map(drop))?;
    tr.span("infoflow.local", id, || {
        analysis.local();
    });
    tr.span("infoflow.specialized", id, || {
        analysis.specialized().map(drop)
    })?;
    tr.span("infoflow.improved", id, || analysis.improved().map(drop))?;
    let graph = tr.span("infoflow.graph", id, || analysis.merged_flow_graph())?;
    tr.span("infoflow.audit", id, || analysis.audit(policy).map(drop))?;
    Ok(graph)
}

/// Spans of several threads, reduced to per-name self times.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// The spans, one list per recording thread.
    pub threads: Vec<Vec<Span>>,
    /// Self nanoseconds per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed self time of every span (wall time the spans cover).
    pub covered_ns: u64,
}

impl Profile {
    /// Adds one thread's spans.
    pub fn add(&mut self, spans: Vec<Span>) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *self.self_ns.entry(span.name).or_default() += own;
            self.covered_ns += own;
        }
        self.threads.push(spans);
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (thread, spans) in self.threads.iter().enumerate() {
            for (index, span) in spans.iter().enumerate() {
                let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"thread\": {thread}, \"index\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                    span.name, span.start_ns, span.end_ns, span.id
                )?;
            }
        }
        out.flush()
    }

    /// Self milliseconds of the spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Share of `thread_s` (wall seconds times recording threads) that no
    /// span covers.
    pub fn uncovered_ratio(&self, thread_s: f64) -> f64 {
        if thread_s <= 0.0 {
            return 0.0;
        }
        (1.0 - self.covered_ns as f64 / (thread_s * 1e9)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 0,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                id: 0,
            },
        ];
        let mut profile = Profile::default();
        profile.add(spans);
        assert_eq!(profile.self_ns["outer"], 70);
        assert_eq!(profile.self_ns["inner"], 30);
        assert_eq!(profile.covered_ns, 100);
        assert!((profile.uncovered_ratio(200e-9) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.span("x", 0, || 7), 7);
        assert!(tracer.into_spans().is_empty());
    }
}
