//! Demand-driven analysis sessions: the [`Engine`] / [`Analysis`] query API.
//!
//! The paper's pipeline (Tables 6–9) is strictly staged, but callers rarely
//! need every stage: a dashboard asking for the flow graph of the base
//! closure should not pay for the Table-9 environment modelling, and a batch
//! driver re-analysing an unchanged source should not pay for anything at
//! all.  This module therefore exposes the analysis as *queries* over a
//! long-lived session:
//!
//! * [`Engine`] — a cross-design session holding the shared
//!   [`AnalysisOptions`], the content-hash memo table (previously private to
//!   the `vhdl1c` driver) and the per-stage computation counters.  An engine
//!   is cheap to create, [`Sync`], and designed to be shared by the worker
//!   threads of a batch driver.
//! * [`Analysis`] — a per-design handle whose stage accessors ([`rd`],
//!   [`local`], [`specialized`], [`global`], [`improved`], [`flow_graph`],
//!   [`kemmerer_graph`], …) compute on first demand into `OnceLock` slots
//!   and return **borrowed** artifacts.  Asking twice never recomputes;
//!   asking for a downstream stage computes exactly the upstream stages it
//!   needs and nothing else.
//! * [`EngineError`] — the structured error of the session API: front-end
//!   failures carry the failing [`phase`](EngineError::phase) and source
//!   [`position`](EngineError::pos); budget exhaustion surfaces as
//!   [`EngineError::ResourceExhausted`] naming the exhausted
//!   [`EngineStage`] and how much of the limit was consumed.
//!
//! # Budgets
//!
//! Every stage accessor honours the [`crate::Budget`] carried by the
//! engine's [`AnalysisOptions`].  Limits are **cooperative**: stages check
//! their own counters at iteration boundaries, and the wall-clock deadline
//! plus the optional [`CancelFlag`] are checked at stage boundaries (before
//! a not-yet-computed stage starts).  Deterministic counter exhaustion is
//! memoized like any other stage result — so a given source and budget
//! truncate at the same point on every run — while deadline/cancel
//! exhaustion is *never* memoized (it depends on wall-clock time, not the
//! input).
//!
//! The eager one-shot functions ([`crate::analyze`], [`crate::analyze_with`],
//! [`crate::analyze_source`], [`crate::analyze_all`]) are thin compatibility
//! wrappers that materialise an owned [`AnalysisResult`] from a finished
//! `Analysis` (see DESIGN.md for why they stay).
//!
//! [`rd`]: Analysis::rd
//! [`local`]: Analysis::local
//! [`specialized`]: Analysis::specialized
//! [`global`]: Analysis::global
//! [`improved`]: Analysis::improved
//! [`flow_graph`]: Analysis::flow_graph
//! [`kemmerer_graph`]: Analysis::kemmerer_graph

use crate::analysis::{AnalysisOptions, AnalysisResult};
use crate::budget::{Budget, CancelFlag};
use crate::closure::{global_closure_bounded, specialize_rd, SpecializedRd};
use crate::dynflow::{cross_check, DynFlowReport};
use crate::graph::{FlowGraph, GraphLabels};
use crate::improved::{improved_closure_bounded, ImprovedClosure};
use crate::kemmerer::kemmerer_graph_from_matrix;
use crate::local::{local_dependencies, local_dependencies_process};
use crate::policy::{audit, AuditReport, Policy};
use crate::rm::ResourceMatrix;
use crate::store::{Artifact, ArtifactStore, DesignSummary, UnitArtifact};
use crate::trace::{SpanTimer, TraceSink};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vhdl1_dataflow::{
    active_signals_rd_process, present_rd, ActiveRd, CrossFlow, DesignCfg, ProcessCfg,
    ReachingDefinitions,
};
use vhdl1_dynflow::DynFlowOptions;
use vhdl1_sim::{SimError, SimOptions, Simulator};
use vhdl1_syntax::{
    design_context_text, unit_canonical_text, unit_fingerprints, Design, FrontendLimits, Pos,
    SyntaxError, SyntaxErrorKind,
};

/// 64-bit FNV-1a content hash — the engine's cache key over source bytes.
///
/// Exposed because reports and external caches key on the same digest (the
/// `vhdl1c` `source_hash` field is `fnv1a:<hex>` of this function).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A stable, field-wise fingerprint of [`AnalysisOptions`] — the options
/// half of [`Engine::source_key`].
///
/// Persistent cache keys ([`CachePolicy::Persistent`]) outlive the process,
/// so the fingerprint must not depend on anything incidental like a `Debug`
/// rendering: every semantic field is serialised explicitly (version-tagged,
/// little-endian) and hashed with FNV-1a.  Two deliberate properties:
///
/// * adding an options field is a *fingerprint change* only if this
///   function is updated — which is exactly when old artifacts must be
///   invalidated — and the golden-hash test pins that decision;
/// * [`AnalysisOptions::trace`] is **excluded**: tracing is observability
///   only (reports are byte-identical profiled or not), so a tracing
///   daemon shares artifacts with a non-tracing CLI run.
pub fn options_fingerprint(options: &AnalysisOptions) -> u64 {
    let mut buf = Vec::with_capacity(128);
    buf.extend_from_slice(b"vhdl1-options-v1");
    for flag in [
        options.rd.process_repeats,
        options.rd.use_under_approximation,
        options.rd.kill_initial_at_wait,
        options.specialize_rd,
        options.improved,
        options.improved_options.finals_are_outgoing,
    ] {
        buf.push(u8::from(flag));
    }
    let mut opt_u64 = |v: Option<u64>| match v {
        Some(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        None => buf.push(0),
    };
    let b = &options.budget;
    opt_u64(b.max_source_bytes);
    opt_u64(b.max_parse_depth.map(u64::from));
    opt_u64(b.max_dataflow_steps);
    opt_u64(b.max_closure_iterations);
    opt_u64(b.max_alfp_facts);
    opt_u64(b.max_alfp_rounds);
    opt_u64(b.max_sim_deltas);
    opt_u64(b.max_sim_steps);
    opt_u64(b.deadline_ms);
    fnv1a64(&buf)
}

/// Retention policy of the engine's content-hash memo table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Memoize every analysed source for the lifetime of the engine (batch
    /// drivers: the working set is the corpus).
    #[default]
    Unbounded,
    /// Keep at most this many designs, evicting the least recently inserted.
    Capped(usize),
    /// Never memoize (one-shot compatibility wrappers).
    Disabled,
    /// [`Capped`](CachePolicy::Capped) in memory *plus* a disk-backed
    /// content-addressed artifact store ([`crate::store`]) under `dir`: a
    /// fresh engine serves previously analysed designs from disk without
    /// parsing, and every freshly computed serving artifact is written
    /// back (atomically) for the next process.  `cap` bounds both the
    /// memo table and the on-disk artifact count.  Corrupted or
    /// version-mismatched artifacts are misses, never errors.
    Persistent {
        /// Artifact directory (created on first use).
        dir: std::path::PathBuf,
        /// Maximum designs kept, in memory and on disk.
        cap: usize,
    },
}

impl CachePolicy {
    /// The in-memory memo-table cap this policy implies, `None` when
    /// unbounded or disabled.
    fn memory_cap(&self) -> Option<usize> {
        match self {
            CachePolicy::Capped(cap) | CachePolicy::Persistent { cap, .. } => Some(*cap),
            CachePolicy::Unbounded | CachePolicy::Disabled => None,
        }
    }
}

/// Configuration of an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Options shared by every analysis of the session.
    pub options: AnalysisOptions,
    /// Memo-table retention.
    pub cache: CachePolicy,
}

/// The front-end phase an [`EngineError::Frontend`] originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Lexical analysis of the source text.
    Lex,
    /// Parsing.
    Parse,
    /// Elaboration (scoping, uniqueness and binding checks).
    Elaborate,
}

impl fmt::Display for EnginePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnginePhase::Lex => write!(f, "lex"),
            EnginePhase::Parse => write!(f, "parse"),
            EnginePhase::Elaborate => write!(f, "elaborate"),
        }
    }
}

/// The pipeline stage an [`EngineError::ResourceExhausted`] names: the stage
/// whose budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EngineStage {
    /// The front end: source-size or parse-depth limit.
    Frontend,
    /// Reaching Definitions: worklist step limit.
    Rd,
    /// The base closure (Table 8): iteration limit.
    Closure,
    /// The improved closure (Table 9): iteration limit.
    Improved,
    /// The smoke simulation: delta-cycle or statement-step limit.
    Smoke,
    /// The dynamic flow witnessing (differential simulation): delta-cycle
    /// or statement-step limit.
    DynFlow,
    /// The wall-clock deadline or an external cancellation, observed at a
    /// stage boundary.
    Deadline,
}

impl EngineStage {
    /// The stage's stable lower-case name, as it appears in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineStage::Frontend => "frontend",
            EngineStage::Rd => "rd",
            EngineStage::Closure => "closure",
            EngineStage::Improved => "improved",
            EngineStage::Smoke => "smoke",
            EngineStage::DynFlow => "dynflow",
            EngineStage::Deadline => "deadline",
        }
    }
}

impl fmt::Display for EngineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A structured analysis-session error.
///
/// Every failure mode of the pipeline maps onto exactly one variant, so
/// drivers can triage without string matching: front-end rejections keep
/// their phase and position, simulation failures keep the underlying
/// [`SimError`], and budget exhaustion names the exhausted stage with its
/// limit and consumption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The source did not lex, parse or elaborate.
    Frontend {
        /// The front-end phase that rejected the source.
        phase: EnginePhase,
        /// Source position of the failure, if known.
        pos: Option<Pos>,
        /// The bare failure message (no phase/position prefix).
        message: String,
        /// The underlying front-end error.
        source: SyntaxError,
    },
    /// The smoke simulation failed to compile or execute the design (for a
    /// reason other than a budget limit).
    Sim(SimError),
    /// A stage exhausted its [`Budget`] — the analysis was cut off, not
    /// wrong.  Deterministic for every stage except
    /// [`EngineStage::Deadline`]: the same source under the same budget
    /// exhausts at the same point on every run.
    ResourceExhausted {
        /// The stage whose budget ran out.
        stage: EngineStage,
        /// The configured limit (milliseconds for
        /// [`EngineStage::Deadline`], stage-specific units otherwise).
        limit: u64,
        /// How much was consumed when the stage gave up (strictly greater
        /// than `limit` for counter budgets).
        consumed: u64,
        /// Source position of the construct being processed, when the stage
        /// could attribute one (parse-depth exhaustion does).
        pos: Option<Pos>,
    },
}

impl EngineError {
    /// The front-end phase that failed, for [`EngineError::Frontend`].
    pub fn phase(&self) -> Option<EnginePhase> {
        match self {
            EngineError::Frontend { phase, .. } => Some(*phase),
            _ => None,
        }
    }

    /// The exhausted stage, for [`EngineError::ResourceExhausted`].
    pub fn stage(&self) -> Option<EngineStage> {
        match self {
            EngineError::ResourceExhausted { stage, .. } => Some(*stage),
            _ => None,
        }
    }

    /// Whether this error reports budget exhaustion (the analysis was cut
    /// off) rather than a defect of the input (it was rejected).
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(self, EngineError::ResourceExhausted { .. })
    }

    /// Source position of the failure, if known (elaboration errors carry
    /// one whenever the AST node at fault was parsed rather than built
    /// programmatically).
    pub fn pos(&self) -> Option<Pos> {
        match self {
            EngineError::Frontend { pos, .. } => *pos,
            EngineError::Sim(e) => e.pos(),
            EngineError::ResourceExhausted { pos, .. } => *pos,
        }
    }

    /// `(line, column)` of the failure, if known.
    pub fn line_col(&self) -> Option<(u32, u32)> {
        self.pos().map(|p| (p.line, p.col))
    }

    /// The bare failure message (no phase/position prefix).
    pub fn message(&self) -> String {
        match self {
            EngineError::Frontend { message, .. } => message.clone(),
            EngineError::Sim(e) => e.to_string(),
            EngineError::ResourceExhausted {
                stage,
                limit,
                consumed,
                ..
            } => format!("{stage} budget exhausted: consumed {consumed}, limit {limit}"),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Frontend {
                phase,
                pos,
                message,
                ..
            } => match pos {
                Some(p) => write!(f, "{phase} error at {p}: {message}"),
                None => write!(f, "{phase} error: {message}"),
            },
            EngineError::Sim(e) => write!(f, "sim error: {e}"),
            EngineError::ResourceExhausted {
                stage,
                limit,
                consumed,
                pos,
            } => {
                write!(
                    f,
                    "{stage} budget exhausted: consumed {consumed}, limit {limit}"
                )?;
                if let Some(p) = pos {
                    write!(f, " at {p}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Frontend { source, .. } => Some(source),
            EngineError::Sim(e) => Some(e),
            EngineError::ResourceExhausted { .. } => None,
        }
    }
}

impl From<SyntaxError> for EngineError {
    fn from(e: SyntaxError) -> Self {
        EngineError::Frontend {
            phase: match e.kind() {
                SyntaxErrorKind::Lex => EnginePhase::Lex,
                SyntaxErrorKind::Parse => EnginePhase::Parse,
                SyntaxErrorKind::Elaborate => EnginePhase::Elaborate,
            },
            pos: e.pos(),
            message: e.message().to_string(),
            source: e,
        }
    }
}

/// Snapshot of the per-stage computation counters of an [`Engine`].
///
/// Each field counts how many times the corresponding stage was *actually
/// computed* (memo hits do not count), summed over every [`Analysis`] of the
/// session.  Tests use this to prove laziness: querying only
/// [`Analysis::flow_graph`] under `improved: false` must leave
/// [`improved`](EngineStats::improved) at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Front-end runs (parse + elaborate) on behalf of
    /// [`Engine::analyze_source`].
    pub frontend: u64,
    /// Reaching Definitions computations (Section 4).
    pub rd: u64,
    /// Local Resource Matrix computations (Table 6).
    pub local: u64,
    /// RD specialisations (Table 7).
    pub specialized: u64,
    /// Base closures (Table 8).
    pub global: u64,
    /// Improved closures (Table 9).
    pub improved: u64,
    /// Flow-graph constructions (any of the graph views).
    pub flow_graph: u64,
    /// Kemmerer baseline graph constructions.
    pub kemmerer: u64,
    /// Smoke simulations to quiescence (Kemmerer-style validation runs).
    pub smoke: u64,
    /// Dynamic flow-witness computations (differential simulation sweeps);
    /// one per distinct `(rounds, seed)` demanded per design.
    pub dynamic_flows: u64,
    /// Memo-table hits in [`Engine::analyze_source`].
    pub cache_hits: u64,
    /// Memo-table misses in [`Engine::analyze_source`].
    pub cache_misses: u64,
    /// Disk-artifact hits under [`CachePolicy::Persistent`] (memory miss
    /// served from the store without parsing).
    pub store_hits: u64,
    /// Disk-artifact misses under [`CachePolicy::Persistent`] (absent,
    /// corrupted or version-mismatched artifact; the design was computed
    /// from source).
    pub store_misses: u64,
    /// Artifacts written back to the store.
    pub store_writes: u64,
    /// Per-process units served from cache by [`Workspace::update`] —
    /// processes whose fingerprint was unchanged (or whose whole design
    /// hit), so their per-process RD rows and local Resource Matrix were
    /// reused instead of recomputed.
    pub units_reused: u64,
    /// Per-process units recomputed by [`Workspace::update`] — processes
    /// whose fingerprint changed (or was never seen).
    pub units_recomputed: u64,
}

#[derive(Default)]
struct Counters {
    frontend: AtomicU64,
    rd: AtomicU64,
    local: AtomicU64,
    specialized: AtomicU64,
    global: AtomicU64,
    improved: AtomicU64,
    flow_graph: AtomicU64,
    kemmerer: AtomicU64,
    smoke: AtomicU64,
    dynflow: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_writes: AtomicU64,
    units_reused: AtomicU64,
    units_recomputed: AtomicU64,
}

/// Built-in delta-cycle cap per quiescence run of
/// [`Analysis::dynamic_flows`] (each twin's settle and each stimulus
/// round).  The budget's `max_sim_deltas` tightens it further; only the
/// budget-tightened case reports as [`EngineStage::DynFlow`] exhaustion.
pub const DYNFLOW_MAX_DELTAS: u64 = 10_000;

/// The result of a smoke simulation: the design ran to quiescence on the
/// dense simulator core of `vhdl1-sim`.
///
/// The paper's Section 6 validation simulates every design (ModelSim's
/// role); the engine exposes that as a lazy query so audits can require a
/// design to actually *execute* before trusting its flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmokeReport {
    /// Delta cycles until quiescence.
    pub deltas: u64,
    /// FNV-1a digest over the run's state trajectory: each delta cycle's
    /// changed signals (in deterministic signal order) followed by the
    /// quiescent state of every signal in declaration order — byte-identical
    /// across runs and machines for the same design, pinning simulator
    /// determinism including the path taken, not just the final state.
    pub state_digest: u64,
}

/// The lazily filled memo slots of one design's analysis.  Every slot is a
/// `OnceLock`, so concurrent queries through a shared (cached) analysis
/// compute each stage exactly once.
///
/// Fallible stages store `Result`s: deterministic budget exhaustion is a
/// memoizable outcome exactly like success (the truncation point depends
/// only on the input and the budget).  Deadline/cancel exhaustion never
/// reaches these slots — it is raised by the pre-`OnceLock` gate of each
/// accessor.
/// One memo cell of the keyed dynflow family: shareable across the lock so
/// the map guard never spans a computation.
type DynFlowCell = Arc<OnceLock<Result<Arc<DynFlowReport>, EngineError>>>;

#[derive(Default)]
struct Slots {
    /// The report-facing shape of the design (name, process/label/resource
    /// counts).  Prefilled from a disk artifact, so report rendering never
    /// forces a re-parse on the warm path.
    summary: OnceLock<DesignSummary>,
    rd: OnceLock<Result<ReachingDefinitions, EngineError>>,
    local: OnceLock<ResourceMatrix>,
    specialized: OnceLock<SpecializedRd>,
    global: OnceLock<Result<ResourceMatrix, EngineError>>,
    improved: OnceLock<Result<Option<ImprovedClosure>, EngineError>>,
    graph: OnceLock<FlowGraph>,
    base_graph: OnceLock<FlowGraph>,
    merged_graph: OnceLock<FlowGraph>,
    kemmerer: OnceLock<FlowGraph>,
    /// Per-node label annotations for DOT rendering.  Persisted with the
    /// artifact so a warm `--format dot` run needs zero front-end work.
    graph_labels: OnceLock<GraphLabels>,
    smoke: OnceLock<Result<SmokeReport, EngineError>>,
    /// Dynamic flow witnessing is parameterised by `(rounds, seed)`, so the
    /// memo is a keyed family of `OnceLock`s: each distinct parameter pair
    /// computes exactly once per design, concurrently-safe like every other
    /// slot.
    dynflow: Mutex<HashMap<(u64, u64), DynFlowCell>>,
}

/// A design together with its memo slots, shareable across cache hits.
///
/// The elaborated design itself is lazy: a memo restored from a disk
/// artifact starts with the serving slots (summary, graphs, smoke, dynflow)
/// prefilled and the design **unparsed** — it is re-elaborated from the
/// stored source only if a query actually needs stage recomputation.  Memos
/// created by the front end start with the design present.
struct Memo {
    design: OnceLock<Design>,
    /// The source text, kept only when a persistent store may need to
    /// re-parse or write back (i.e. the engine has a store).
    source: Option<Box<str>>,
    /// The memo-table key, kept under the same condition as `source`.
    key: Option<u64>,
    slots: Slots,
}

impl Memo {
    /// A memo for a freshly elaborated design.
    fn computed(design: Design, key: Option<u64>, source: Option<Box<str>>) -> Memo {
        let cell = OnceLock::new();
        let _ = cell.set(design);
        Memo {
            design: cell,
            source,
            key,
            slots: Slots::default(),
        }
    }

    /// A memo restored from a disk artifact: serving slots prefilled,
    /// design unparsed.
    fn from_artifact(artifact: Artifact) -> Memo {
        let slots = Slots::default();
        if let Some(summary) = artifact.summary {
            let _ = slots.summary.set(summary);
        }
        if let Some(graph) = artifact.graph {
            let _ = slots.graph.set(graph);
        }
        if let Some(graph) = artifact.base_graph {
            let _ = slots.base_graph.set(graph);
        }
        if let Some(graph) = artifact.merged_graph {
            let _ = slots.merged_graph.set(graph);
        }
        if let Some(graph) = artifact.kemmerer {
            let _ = slots.kemmerer.set(graph);
        }
        if let Some(labels) = artifact.graph_labels {
            let _ = slots.graph_labels.set(labels);
        }
        if let Some(smoke) = artifact.smoke {
            let _ = slots.smoke.set(Ok(smoke));
        }
        {
            let mut map = slots.dynflow.lock().expect("fresh mutex");
            for (rounds, seed, report) in artifact.dynflows {
                let cell: DynFlowCell = Arc::default();
                let _ = cell.set(Ok(Arc::new(report)));
                map.insert((rounds, seed), cell);
            }
        }
        Memo {
            design: OnceLock::new(),
            source: Some(artifact.source.into_boxed_str()),
            key: Some(artifact.key),
            slots,
        }
    }
}

#[derive(Default)]
struct Cache {
    map: HashMap<u64, Arc<Memo>>,
    /// Insertion order, for `CachePolicy::Capped` eviction.
    order: VecDeque<u64>,
}

/// One cached per-process analysis unit ([`Workspace::update`]): the
/// process's control-flow graph, its active-signal RD solutions and its
/// local Resource Matrix, keyed by
/// `unit_fingerprint ⊕ rotl17(options_fingerprint)`.
struct UnitState {
    /// Canonical design-context text — verified on every hit, so a
    /// fingerprint collision degrades to a recompute instead of assembling
    /// the wrong process's rows.
    context: String,
    /// Canonical labelled process text, verified likewise.
    unit: String,
    cfg: ProcessCfg,
    active: ActiveRd,
    local: ResourceMatrix,
}

/// How many per-process units each memoized-design slot is worth in the
/// unit cache: a design cap of `n` keeps up to `64 n` units.
const UNITS_PER_DESIGN_CAP: usize = 64;

#[derive(Default)]
struct UnitCache {
    map: HashMap<u64, Arc<UnitState>>,
    /// Insertion order, for FIFO eviction under a capped policy.
    order: VecDeque<u64>,
}

/// A long-lived analysis session: shared options, the content-hash memo
/// table, and the stage-computation counters.
///
/// # Examples
///
/// ```
/// use vhdl1_infoflow::{Engine, AnalysisOptions};
///
/// let engine = Engine::with_options(AnalysisOptions::base());
/// let design = vhdl1_syntax::frontend(
///     "entity e is port(a : in std_logic; b : out std_logic); end e;
///      architecture rtl of e is begin
///        p : process begin b <= a; wait on a; end process p;
///      end rtl;")?;
/// let analysis = engine.analyze(&design);
/// assert!(analysis.flow_graph()?.has_edge("a", "b"));
/// // Only the stages the graph needs ran; Table 9 was never touched.
/// assert_eq!(engine.stats().improved, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Engine {
    config: EngineConfig,
    cache: Mutex<Cache>,
    /// Per-process unit cache of [`Workspace::update`], keyed by unit
    /// fingerprint (so it survives whole-design cache misses: an edited
    /// design misses the memo table but reuses every untouched process).
    units: Mutex<UnitCache>,
    counters: Counters,
    /// Disk-backed artifact store, present only under
    /// [`CachePolicy::Persistent`].  `None` also when the directory could
    /// not be opened — the engine then degrades to in-memory caching
    /// (callers that must know validate the directory up front).
    store: Option<ArtifactStore>,
    /// Span/metrics collector, allocated only when
    /// [`AnalysisOptions::trace`] is set — the disabled path carries `None`
    /// and every instrumentation site is a single discriminant check.
    trace: Option<Arc<TraceSink>>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with an explicit configuration.
    ///
    /// Under [`CachePolicy::Persistent`] the artifact directory is opened
    /// (created if absent) here; an unopenable directory silently degrades
    /// the engine to in-memory caching — serving must not fail because a
    /// cache is missing.  Callers that want a hard error validate the
    /// directory before building the engine.
    pub fn new(config: EngineConfig) -> Engine {
        let store = match &config.cache {
            CachePolicy::Persistent { dir, cap } => ArtifactStore::open(dir, *cap).ok(),
            _ => None,
        };
        Engine {
            trace: config.options.trace.then(|| Arc::new(TraceSink::new())),
            store,
            config,
            cache: Mutex::new(Cache::default()),
            units: Mutex::new(UnitCache::default()),
            counters: Counters::default(),
        }
    }

    /// Creates an engine with the given analysis options and the default
    /// (unbounded) cache policy.
    pub fn with_options(options: AnalysisOptions) -> Engine {
        Engine::new(EngineConfig {
            options,
            ..EngineConfig::default()
        })
    }

    /// The session's analysis options.
    pub fn options(&self) -> &AnalysisOptions {
        &self.config.options
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's span/metrics collector, present only when the options
    /// enable [`AnalysisOptions::trace`].  Batch drivers snapshot it after
    /// the run ([`TraceSink::snapshot`]) to build profiles.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// Opens a span when tracing is enabled; `None` otherwise (the
    /// zero-cost disabled path — no allocation, no clock read).
    fn trace_begin(&self, stage: &'static str) -> Option<SpanTimer> {
        self.trace.as_ref().map(|sink| sink.begin(stage))
    }

    /// Closes a span opened by [`Engine::trace_begin`].
    fn trace_end(&self, timer: Option<SpanTimer>, design: &str, work: u64, items: u64) {
        if let (Some(timer), Some(sink)) = (timer, self.trace.as_deref()) {
            sink.end(timer, design, work, items);
        }
    }

    /// Snapshot of the stage-computation and cache counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        EngineStats {
            frontend: g(&c.frontend),
            rd: g(&c.rd),
            local: g(&c.local),
            specialized: g(&c.specialized),
            global: g(&c.global),
            improved: g(&c.improved),
            flow_graph: g(&c.flow_graph),
            kemmerer: g(&c.kemmerer),
            smoke: g(&c.smoke),
            dynamic_flows: g(&c.dynflow),
            cache_hits: g(&c.cache_hits),
            cache_misses: g(&c.cache_misses),
            store_hits: g(&c.store_hits),
            store_misses: g(&c.store_misses),
            store_writes: g(&c.store_writes),
            units_reused: g(&c.units_reused),
            units_recomputed: g(&c.units_recomputed),
        }
    }

    /// The memo-table key of a source text under this engine's options:
    /// FNV-1a over the source bytes mixed with the stable
    /// [`options_fingerprint`] (so persisted keys from engines with
    /// different options never collide).  The [`Budget`] is part of the
    /// options, so analyses under different budgets never share memo slots
    /// either — which is what keeps budget truncation points deterministic.
    pub fn source_key(&self, src: &str) -> u64 {
        fnv1a64(src.as_bytes()) ^ options_fingerprint(&self.config.options).rotate_left(17)
    }

    /// The engine's disk artifact store, when [`CachePolicy::Persistent`]
    /// is active and its directory opened successfully.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Number of designs currently memoized.
    pub fn cached_designs(&self) -> usize {
        self.cache.lock().expect("engine cache poisoned").map.len()
    }

    /// Drops every memoized design from **memory**.  On-disk artifacts of a
    /// persistent cache are untouched — remove the directory to clear them.
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().expect("engine cache poisoned");
        cache.map.clear();
        cache.order.clear();
    }

    /// Starts a lazy analysis of an elaborated design.
    ///
    /// Nothing is computed until a stage is queried.  The handle borrows
    /// both the engine and the design; the memo table is not consulted
    /// (content hashing is defined over source text — use
    /// [`Engine::analyze_source`] for that).
    ///
    /// # Examples
    ///
    /// ```
    /// use vhdl1_infoflow::Engine;
    ///
    /// let design = vhdl1_syntax::frontend(
    ///     "entity e is port(a : in std_logic; b : out std_logic); end e;
    ///      architecture rtl of e is begin
    ///        p : process begin b <= a; wait on a; end process p;
    ///      end rtl;")?;
    /// let engine = Engine::default();
    /// let analysis = engine.analyze(&design);
    /// assert_eq!(engine.stats().rd, 0); // nothing ran yet
    /// assert!(analysis.flow_graph()?.has_edge("a", "b"));
    /// assert_eq!(engine.stats().rd, 1); // demanded exactly once
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn analyze<'e>(&'e self, design: &'e Design) -> Analysis<'e> {
        Analysis {
            engine: self,
            inner: Inner::Borrowed {
                design,
                slots: Box::default(),
            },
            started: Instant::now(),
            cancel: None,
        }
    }

    /// Parses, elaborates and lazily analyses a source text, memoized by
    /// content hash: two calls with identical source (under identical
    /// options) share one design and one set of stage memos, so the second
    /// call performs no work beyond the hash lookup — not even parsing.
    ///
    /// # Errors
    ///
    /// Returns a structured [`EngineError`] when the source does not lex,
    /// parse or elaborate, or exceeds the budget's source-size or
    /// parse-depth limit.
    pub fn analyze_source(&self, src: &str) -> Result<Analysis<'_>, EngineError> {
        if self.config.cache == CachePolicy::Disabled {
            self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(self.owned_analysis(self.run_frontend(src)?));
        }
        let key = self.source_key(src);
        if let Some(analysis) = self.lookup(key) {
            return Ok(analysis);
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        let fresh = match self.probe_store(key, src) {
            Some(artifact) => Memo::from_artifact(artifact),
            // Full miss: run the front end outside the lock (parsing can be
            // slow), then publish.
            None => Memo::computed(
                self.run_frontend(src)?,
                self.store.as_ref().map(|_| key),
                self.store.as_ref().map(|_| src.into()),
            ),
        };
        Ok(self.shared(self.publish(key, fresh)))
    }

    /// The memory-probe half of [`Engine::analyze_source`]: a memo-table
    /// hit (bumping `cache_hits`) or `None`.
    fn lookup(&self, key: u64) -> Option<Analysis<'_>> {
        let memo = Arc::clone(
            self.cache
                .lock()
                .expect("engine cache poisoned")
                .map
                .get(&key)?,
        );
        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(self.shared(memo))
    }

    /// The disk-probe half of [`Engine::analyze_source`] (persistent policy
    /// only) — a hit restores the serving slots without any parsing.  The
    /// stored source must match byte-for-byte, so an FNV collision degrades
    /// to a miss instead of serving a different design's artifacts.
    fn probe_store(&self, key: u64, src: &str) -> Option<Artifact> {
        let store = self.store.as_ref()?;
        let artifact = store.load(key).filter(|a| a.source == src);
        let counter = if artifact.is_some() {
            &self.counters.store_hits
        } else {
            &self.counters.store_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        artifact
    }

    /// Publishes a fresh memo under `key`, returning the winner if a racing
    /// thread published the same key first (both handles then share one set
    /// of slots), and evicts beyond a capped policy's memory cap.
    fn publish(&self, key: u64, fresh: Memo) -> Arc<Memo> {
        let mut cache = self.cache.lock().expect("engine cache poisoned");
        let mut inserted = false;
        let memo = Arc::clone(cache.map.entry(key).or_insert_with(|| {
            inserted = true;
            Arc::new(fresh)
        }));
        // Record insertion order only for a fresh entry: a racing thread that
        // lost the publish must not add a duplicate order record (it would
        // later evict the wrong key and leak stale order entries).
        if inserted {
            cache.order.push_back(key);
        }
        if let Some(cap) = self.config.cache.memory_cap() {
            while cache.map.len() > cap.max(1) {
                match cache.order.pop_front() {
                    Some(old) if old != key => {
                        cache.map.remove(&old);
                    }
                    Some(_) => cache.order.push_back(key),
                    None => break,
                }
            }
        }
        memo
    }

    fn shared(&self, memo: Arc<Memo>) -> Analysis<'_> {
        Analysis {
            engine: self,
            inner: Inner::Shared(memo),
            started: Instant::now(),
            cancel: None,
        }
    }

    /// Lazily analyses every source of a batch, preserving order and
    /// stopping at the first front-end failure.
    ///
    /// # Errors
    ///
    /// Returns the first [`EngineError`] together with the index of the
    /// failing source.
    pub fn analyze_sources<'e, 'a>(
        &'e self,
        sources: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<Analysis<'e>>, (usize, EngineError)> {
        sources
            .into_iter()
            .enumerate()
            .map(|(i, src)| self.analyze_source(src).map_err(|e| (i, e)))
            .collect()
    }

    fn run_frontend(&self, src: &str) -> Result<Design, EngineError> {
        let budget = self.config.options.budget;
        if let Some(max) = budget.max_source_bytes {
            if src.len() as u64 > max {
                return Err(EngineError::ResourceExhausted {
                    stage: EngineStage::Frontend,
                    limit: max,
                    consumed: src.len() as u64,
                    pos: None,
                });
            }
        }
        self.counters.frontend.fetch_add(1, Ordering::Relaxed);
        let limits = FrontendLimits {
            max_source_bytes: budget.max_source_bytes,
            max_parse_depth: budget.max_parse_depth,
        };
        let span = self.trace_begin("frontend");
        let result = vhdl1_syntax::frontend_with_limits(src, &limits);
        if span.is_some() {
            match &result {
                Ok(design) => self.trace_end(
                    span,
                    &design.name,
                    src.len() as u64,
                    design.signals.len() as u64,
                ),
                // Rejected sources have no design name yet; the span still
                // accounts the front-end time spent refusing them.
                Err(_) => self.trace_end(span, "<rejected>", src.len() as u64, 0),
            }
        }
        result.map_err(|e| {
            if e.is_resource_limit() {
                // The only resource limit left to the front end is parse
                // depth (the size cap was enforced above).
                let depth = u64::from(
                    budget
                        .max_parse_depth
                        .unwrap_or(vhdl1_syntax::DEFAULT_PARSE_DEPTH)
                        .min(vhdl1_syntax::DEFAULT_PARSE_DEPTH),
                );
                EngineError::ResourceExhausted {
                    stage: EngineStage::Frontend,
                    limit: depth,
                    consumed: depth + 1,
                    pos: e.pos(),
                }
            } else {
                EngineError::from(e)
            }
        })
    }

    fn owned_analysis(&self, design: Design) -> Analysis<'_> {
        Analysis {
            engine: self,
            inner: Inner::Shared(Arc::new(Memo::computed(design, None, None))),
            started: Instant::now(),
            cancel: None,
        }
    }

    /// Opens an edit session over this engine: a [`Workspace`] whose
    /// [`update`](Workspace::update) re-analyses successive revisions of a
    /// design incrementally, reusing the per-process stages of every
    /// process whose content fingerprint is unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use vhdl1_infoflow::Engine;
    ///
    /// let engine = Engine::default();
    /// let ws = engine.workspace();
    /// let v1 = "entity e is port(a : in std_logic; b : out std_logic); end e;
    ///      architecture rtl of e is begin
    ///        p1 : process begin b <= a; wait on a; end process p1;
    ///        p2 : process begin null; wait on a; end process p2;
    ///      end rtl;";
    /// ws.update(v1)?.flow_graph()?;
    /// // Edit only p2: p1's per-process stages are reused.
    /// let v2 = v1.replace("null;", "b <= a and a;");
    /// ws.update(&v2)?.flow_graph()?;
    /// assert_eq!(engine.stats().units_recomputed, 3); // 2 cold + 1 edited
    /// assert_eq!(engine.stats().units_reused, 1);     // p1 on the update
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn workspace(&self) -> Workspace<'_> {
        Workspace { engine: self }
    }

    /// Probes the per-process unit cache (memory, then the persistent
    /// store), verifying the canonical texts so a fingerprint collision is
    /// a recompute, never a wrong hit.  Store rehydration rebuilds the
    /// control-flow graph from the freshly elaborated design (cheap and
    /// linear) and the solved rows from the artifact.
    fn unit_lookup(
        &self,
        key: u64,
        design: &Design,
        pidx: usize,
        context: &str,
        unit: &str,
    ) -> Option<Arc<UnitState>> {
        {
            let units = self.units.lock().expect("unit cache poisoned");
            if let Some(state) = units.map.get(&key) {
                if state.context == context && state.unit == unit {
                    return Some(Arc::clone(state));
                }
            }
        }
        let stored = self.store.as_ref()?.load_unit(key)?;
        if stored.context != context || stored.unit != unit {
            return None;
        }
        let state = UnitState {
            cfg: ProcessCfg::build(&design.processes[pidx]),
            active: stored.active(),
            local: stored.local_matrix(),
            context: stored.context,
            unit: stored.unit,
        };
        Some(self.unit_publish(key, state))
    }

    /// Publishes a unit into the memory cache, FIFO-capped at
    /// [`UNITS_PER_DESIGN_CAP`] units per design slot of a capped policy.
    fn unit_publish(&self, key: u64, state: UnitState) -> Arc<UnitState> {
        let state = Arc::new(state);
        let mut units = self.units.lock().expect("unit cache poisoned");
        if units.map.insert(key, Arc::clone(&state)).is_none() {
            units.order.push_back(key);
        }
        if let Some(cap) = self.config.cache.memory_cap() {
            let cap = cap.max(1).saturating_mul(UNITS_PER_DESIGN_CAP);
            while units.map.len() > cap {
                match units.order.pop_front() {
                    Some(old) if old != key => {
                        units.map.remove(&old);
                    }
                    Some(_) => units.order.push_back(key),
                    None => break,
                }
            }
        }
        state
    }
}

/// An edit session over an [`Engine`]: feed successive revisions of a
/// design to [`Workspace::update`] and get a full [`Analysis`] back for
/// each, paying only for what the edit touched.
///
/// The engine elaborates each revision, fingerprints every process against
/// its design context ([`vhdl1_syntax::unit_fingerprint`]) and reuses the
/// per-process stages — control-flow graph, active-signal Reaching
/// Definitions rows, local Resource Matrix — of every unit whose
/// fingerprint is unchanged, recomputing only touched processes plus the
/// cross-process global stages (cross-flow, present-value RD, closures).
/// [`EngineStats::units_reused`] / [`EngineStats::units_recomputed`] report
/// the split per session.
///
/// The handle is stateless (all state lives in the engine), so a daemon
/// can open one per request over a shared engine; reports produced through
/// a workspace are byte-identical to fresh single-shot analyses of the
/// same source.
#[derive(Debug, Clone, Copy)]
pub struct Workspace<'e> {
    engine: &'e Engine,
}

impl<'e> Workspace<'e> {
    /// The engine this workspace updates.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Re-analyses a revision of the design, reusing every per-process
    /// unit whose content fingerprint is unchanged since any earlier
    /// [`update`](Workspace::update) (or persisted unit artifact).
    ///
    /// Falls back to the plain [`Engine::analyze_source`] path — no unit
    /// accounting — when the cache policy is
    /// [`Disabled`](CachePolicy::Disabled) (nothing could be reused) or a
    /// dataflow step budget is set (per-unit solves would move the
    /// deterministic truncation point).  A whole-design cache or store hit
    /// counts every process as reused.
    ///
    /// # Errors
    ///
    /// Returns a structured [`EngineError`] when the revision does not
    /// lex, parse or elaborate, or exceeds the front-end budget.
    pub fn update(&self, src: &str) -> Result<Analysis<'e>, EngineError> {
        let engine = self.engine;
        if engine.config.cache == CachePolicy::Disabled
            || engine.config.options.budget.max_dataflow_steps.is_some()
        {
            return engine.analyze_source(src);
        }
        let key = engine.source_key(src);
        if let Some(analysis) = engine.lookup(key) {
            let reused = analysis.summary().processes as u64;
            engine
                .counters
                .units_reused
                .fetch_add(reused, Ordering::Relaxed);
            return Ok(analysis);
        }
        engine.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(artifact) = engine.probe_store(key, src) {
            let analysis = engine.shared(engine.publish(key, Memo::from_artifact(artifact)));
            let reused = analysis.summary().processes as u64;
            engine
                .counters
                .units_reused
                .fetch_add(reused, Ordering::Relaxed);
            return Ok(analysis);
        }
        let design = engine.run_frontend(src)?;

        // Per-unit probe: reuse or recompute each process's stages.
        let context = design_context_text(&design);
        let fingerprints = unit_fingerprints(&design);
        let options_rot = options_fingerprint(&engine.config.options).rotate_left(17);
        let mut states = Vec::with_capacity(design.processes.len());
        for (pidx, fingerprint) in fingerprints.iter().enumerate() {
            let unit_key = fingerprint ^ options_rot;
            let unit = unit_canonical_text(&design, pidx);
            if let Some(state) = engine.unit_lookup(unit_key, &design, pidx, &context, &unit) {
                engine.counters.units_reused.fetch_add(1, Ordering::Relaxed);
                states.push(state);
                continue;
            }
            engine
                .counters
                .units_recomputed
                .fetch_add(1, Ordering::Relaxed);
            let cfg = ProcessCfg::build(&design.processes[pidx]);
            let active = active_signals_rd_process(&cfg, &engine.config.options.rd);
            let local = local_dependencies_process(&design, pidx);
            if let Some(store) = &engine.store {
                let _ = store.save_unit(&UnitArtifact::of(
                    unit_key, &context, &unit, &active, &local,
                ));
            }
            states.push(engine.unit_publish(
                unit_key,
                UnitState {
                    context: context.clone(),
                    unit,
                    cfg,
                    active,
                    local,
                },
            ));
        }

        // Global assembly: per-unit artifacts concatenate exactly (labels
        // are globally unique and the per-process analyses couple nothing
        // across processes); only the cross-process stages — cross-flow and
        // the present-value RD — recompute from scratch.
        engine.counters.rd.fetch_add(1, Ordering::Relaxed);
        let span = engine.trace_begin("rd");
        let rd_options = engine.config.options.rd;
        let cfg = DesignCfg::from_processes(states.iter().map(|s| s.cfg.clone()).collect());
        let cross = CrossFlow::build(&design);
        let active = ActiveRd::concat(states.iter().map(|s| s.active.clone()));
        let present = present_rd(&design, &cfg, &cross, &active, &rd_options);
        if span.is_some() {
            let labels = cfg.labels().len() as u64;
            engine.trace_end(span, &design.name, labels, labels);
        }
        let rd = ReachingDefinitions {
            options: rd_options,
            cfg,
            cross,
            active,
            present,
        };

        engine.counters.local.fetch_add(1, Ordering::Relaxed);
        let span = engine.trace_begin("local");
        let mut local = ResourceMatrix::new();
        for state in &states {
            local.extend_from(&state.local);
        }
        if span.is_some() {
            let entries = local.len() as u64;
            engine.trace_end(span, &design.name, entries, entries);
        }

        let memo = Memo::computed(
            design,
            engine.store.as_ref().map(|_| key),
            engine.store.as_ref().map(|_| src.into()),
        );
        let _ = memo.slots.rd.set(Ok(rd));
        let _ = memo.slots.local.set(local);
        Ok(engine.shared(engine.publish(key, memo)))
    }
}

enum Inner<'e> {
    /// Design borrowed from the caller; slots private to this handle.
    Borrowed {
        design: &'e Design,
        slots: Box<Slots>,
    },
    /// Design and slots owned by (and possibly shared through) the memo
    /// table.
    Shared(Arc<Memo>),
}

/// A lazy, memoized analysis of one design.
///
/// Every accessor computes its stage on first demand — reusing upstream
/// stages transparently — and returns a borrowed artifact; repeated queries
/// return the *same* reference without recomputation.  Handles obtained from
/// [`Engine::analyze_source`] for identical sources share their memos.
///
/// Accessors are fallible: they surface [`EngineError::ResourceExhausted`]
/// when the engine's [`Budget`] cuts a stage short.  Stages already
/// memoized remain readable after a deadline or cancellation — only *new*
/// work is refused.
pub struct Analysis<'e> {
    engine: &'e Engine,
    inner: Inner<'e>,
    /// When this handle was created — the epoch of `budget.deadline_ms`.
    started: Instant,
    /// External cooperative cancellation, observed at stage boundaries.
    cancel: Option<CancelFlag>,
}

impl fmt::Debug for Analysis<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analysis")
            .field("design", &self.design().name)
            .finish()
    }
}

impl<'e> Analysis<'e> {
    /// The analysed design.
    ///
    /// For an analysis restored from a disk artifact the design is lazy:
    /// the first call re-elaborates it from the stored source (queries
    /// served entirely from restored slots never get here).
    ///
    /// # Panics
    ///
    /// Panics when a restored artifact's source no longer elaborates under
    /// the engine's options — impossible unless the artifact was produced
    /// by a semantically different build that forgot to bump
    /// [`crate::store::ARTIFACT_VERSION`].  Batch drivers isolate the panic
    /// per design; the fix is clearing the cache directory.
    pub fn design(&self) -> &Design {
        match &self.inner {
            Inner::Borrowed { design, .. } => design,
            Inner::Shared(memo) => memo.design.get_or_init(|| {
                let source = memo
                    .source
                    .as_deref()
                    .expect("memo without a design always carries its source");
                match self.engine.run_frontend(source) {
                    Ok(design) => design,
                    Err(e) => panic!(
                        "stale persistent artifact: stored source no longer \
                         elaborates ({e}); clear the cache directory"
                    ),
                }
            }),
        }
    }

    /// The report-facing shape of the design: name, process count, label
    /// count, resource count.
    ///
    /// Restored from the disk artifact on the warm path — unlike
    /// [`Analysis::design`], this never re-parses a persistently cached
    /// design.
    pub fn summary(&self) -> &DesignSummary {
        self.slots()
            .summary
            .get_or_init(|| DesignSummary::of(self.design()))
    }

    /// The engine this analysis runs in.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The options in effect (the engine's).
    pub fn options(&self) -> &AnalysisOptions {
        &self.engine.config.options
    }

    /// Attaches a cooperative cancellation flag: once
    /// [`CancelFlag::cancel`] is called (by a watchdog, typically), every
    /// accessor that would start a *new* stage returns
    /// [`EngineError::ResourceExhausted`] with the
    /// [`EngineStage::Deadline`] stage instead.
    pub fn with_cancel_flag(mut self, flag: CancelFlag) -> Analysis<'e> {
        self.cancel = Some(flag);
        self
    }

    fn budget(&self) -> &Budget {
        &self.engine.config.options.budget
    }

    /// The deadline/cancellation gate, checked before any not-yet-memoized
    /// stage starts.  Never memoized: it depends on wall-clock time.
    fn check_alive(&self) -> Result<(), EngineError> {
        let elapsed = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        if self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled) {
            self.trace_event("cancel", elapsed);
            return Err(EngineError::ResourceExhausted {
                stage: EngineStage::Deadline,
                limit: self.budget().deadline_ms.unwrap_or(0),
                consumed: elapsed,
                pos: None,
            });
        }
        // Inclusive: a deadline of 0 ms is already expired when the handle
        // is created, which gives callers a deterministic "trip before the
        // first stage" switch.
        if let Some(deadline) = self.budget().deadline_ms {
            if elapsed >= deadline {
                self.trace_event("deadline", elapsed);
                return Err(EngineError::ResourceExhausted {
                    stage: EngineStage::Deadline,
                    limit: deadline,
                    consumed: elapsed,
                    pos: None,
                });
            }
        }
        Ok(())
    }

    fn slots(&self) -> &Slots {
        match &self.inner {
            Inner::Borrowed { slots, .. } => slots,
            Inner::Shared(memo) => &memo.slots,
        }
    }

    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a memoized stage query (no span is allocated for hits).
    fn trace_hit(&self, stage: &'static str) {
        if let Some(sink) = &self.engine.trace {
            sink.memo_hit(stage);
        }
    }

    /// Records a deadline/cancel trip against this design.
    fn trace_event(&self, kind: &'static str, elapsed_ms: u64) {
        if let Some(sink) = &self.engine.trace {
            sink.event(&self.design().name, kind, elapsed_ms);
        }
    }

    /// The budget units consumed by an exhausted stage, for span work
    /// accounting on the failure path (zero for non-budget failures).
    fn consumed_of(e: &EngineError) -> u64 {
        match e {
            EngineError::ResourceExhausted { consumed, .. } => *consumed,
            _ => 0,
        }
    }

    /// Writes this memo's serving artifacts back to the engine's disk
    /// store.  Called by the serving accessors after a *fresh* computation;
    /// a no-op for handles without a store or without a key/source (i.e.
    /// [`Engine::analyze`] handles over caller-owned designs).  Best
    /// effort: an I/O failure costs persistence, never the analysis.
    fn persist(&self) {
        let Some(store) = &self.engine.store else {
            return;
        };
        let Inner::Shared(memo) = &self.inner else {
            return;
        };
        let (Some(key), Some(source)) = (memo.key, memo.source.as_deref()) else {
            return;
        };
        let mut artifact = Artifact::new(key, source.to_string());
        // The summary rides along with every write: the fresh path has the
        // design at hand, and the warm path restores it before anything
        // could ask for a re-parse.
        artifact.summary = Some(self.summary().clone());
        let slots = self.slots();
        artifact.graph = slots.graph.get().cloned();
        artifact.base_graph = slots.base_graph.get().cloned();
        artifact.merged_graph = slots.merged_graph.get().cloned();
        artifact.kemmerer = slots.kemmerer.get().cloned();
        artifact.graph_labels = slots.graph_labels.get().cloned();
        artifact.smoke = slots.smoke.get().and_then(|r| r.as_ref().ok()).copied();
        {
            let map = slots.dynflow.lock().expect("dynflow memo poisoned");
            for ((rounds, seed), cell) in map.iter() {
                if let Some(Ok(report)) = cell.get() {
                    artifact.dynflows.push((*rounds, *seed, (**report).clone()));
                }
            }
        }
        // Deterministic section order regardless of query order.
        artifact.dynflows.sort_by_key(|d| (d.0, d.1));
        if store.save(&artifact).is_ok() {
            self.engine
                .counters
                .store_writes
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The Reaching Definitions artifacts (Section 4).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ResourceExhausted`] (stage `rd`) when a
    /// fixpoint exceeds the budget's dataflow step limit, or stage
    /// `deadline` when the deadline/cancel gate trips first.
    pub fn rd(&self) -> Result<&ReachingDefinitions, EngineError> {
        if self.slots().rd.get().is_none() {
            self.check_alive()?;
        } else {
            self.trace_hit("rd");
        }
        self.slots()
            .rd
            .get_or_init(|| {
                self.bump(&self.engine.counters.rd);
                let span = self.engine.trace_begin("rd");
                let max = self.budget().max_dataflow_steps.unwrap_or(u64::MAX);
                let result =
                    ReachingDefinitions::compute_bounded(self.design(), &self.options().rd, max)
                        .map_err(|e| EngineError::ResourceExhausted {
                            stage: EngineStage::Rd,
                            limit: e.limit,
                            consumed: e.steps,
                            pos: None,
                        });
                if span.is_some() {
                    let (work, items) = match &result {
                        Ok(rd) => {
                            let labels = rd.cfg.labels().len() as u64;
                            (labels, labels)
                        }
                        Err(e) => (Self::consumed_of(e), 0),
                    };
                    self.engine
                        .trace_end(span, &self.design().name, work, items);
                }
                result
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// The local Resource Matrix `RM_lo` (Table 6).  Infallible: the local
    /// dependencies are a single linear pass, bounded by the source-size
    /// budget the front end already enforced.
    pub fn local(&self) -> &ResourceMatrix {
        if self.slots().local.get().is_some() {
            self.trace_hit("local");
        }
        self.slots().local.get_or_init(|| {
            self.bump(&self.engine.counters.local);
            let span = self.engine.trace_begin("local");
            let matrix = local_dependencies(self.design());
            if span.is_some() {
                let entries = matrix.len() as u64;
                self.engine
                    .trace_end(span, &self.design().name, entries, entries);
            }
            matrix
        })
    }

    /// The specialised Reaching Definitions (Table 7).
    ///
    /// # Errors
    ///
    /// Propagates the upstream [`Analysis::rd`] failure.
    pub fn specialized(&self) -> Result<&SpecializedRd, EngineError> {
        if self.slots().specialized.get().is_none() {
            self.check_alive()?;
            self.rd()?;
        } else {
            self.trace_hit("specialized");
        }
        Ok(self.slots().specialized.get_or_init(|| {
            let rd = self.rd().expect("rd forced above");
            let local = self.local();
            self.bump(&self.engine.counters.specialized);
            let span = self.engine.trace_begin("specialized");
            let spec = specialize_rd(rd, local, self.options().specialize_rd);
            if span.is_some() {
                let facts: u64 = spec.present.values().map(|s| s.len() as u64).sum::<u64>()
                    + spec.active.values().map(|s| s.len() as u64).sum::<u64>();
                let rows = (spec.present.len() + spec.active.len()) as u64;
                self.engine
                    .trace_end(span, &self.design().name, facts, rows);
            }
            spec
        }))
    }

    /// The global Resource Matrix `RM_gl` of the base closure (Table 8).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ResourceExhausted`] (stage `closure`) when
    /// the closure exceeds the budget's iteration limit, and propagates
    /// upstream failures.
    pub fn global(&self) -> Result<&ResourceMatrix, EngineError> {
        if self.slots().global.get().is_none() {
            self.check_alive()?;
            self.specialized()?;
        } else {
            self.trace_hit("global");
        }
        self.slots()
            .global
            .get_or_init(|| {
                let rd = self.rd().expect("rd forced above");
                let spec = self.specialized().expect("specialized forced above");
                let local = self.local();
                self.bump(&self.engine.counters.global);
                let span = self.engine.trace_begin("global");
                let max = self.budget().max_closure_iterations.unwrap_or(u64::MAX);
                let result = global_closure_bounded(rd, spec, local, max).map_err(|e| {
                    EngineError::ResourceExhausted {
                        stage: EngineStage::Closure,
                        limit: e.limit,
                        consumed: e.iterations,
                        pos: None,
                    }
                });
                if span.is_some() {
                    let (work, items) = match &result {
                        Ok(matrix) => (matrix.len() as u64, matrix.len() as u64),
                        Err(e) => (Self::consumed_of(e), 0),
                    };
                    self.engine
                        .trace_end(span, &self.design().name, work, items);
                }
                result
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// The improved closure (Table 9), or `None` when the engine's options
    /// disable the improved analysis.  Only computed when queried — and
    /// never computed at all by [`Analysis::flow_graph`] under
    /// `improved: false`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ResourceExhausted`] (stage `improved`) when
    /// the combined fixpoint exceeds the budget's iteration limit, and
    /// propagates upstream failures.
    pub fn improved(&self) -> Result<Option<&ImprovedClosure>, EngineError> {
        if self.slots().improved.get().is_none() {
            self.check_alive()?;
            if self.options().improved {
                self.specialized()?;
            }
        } else if self.options().improved {
            self.trace_hit("improved");
        }
        self.slots()
            .improved
            .get_or_init(|| {
                if !self.options().improved {
                    return Ok(None);
                }
                let rd = self.rd().expect("rd forced above");
                let spec = self.specialized().expect("specialized forced above");
                let local = self.local();
                self.bump(&self.engine.counters.improved);
                let span = self.engine.trace_begin("improved");
                let max = self.budget().max_closure_iterations.unwrap_or(u64::MAX);
                let result = improved_closure_bounded(
                    self.design(),
                    rd,
                    spec,
                    local,
                    &self.options().improved_options,
                    max,
                )
                .map(Some)
                .map_err(|e| EngineError::ResourceExhausted {
                    stage: EngineStage::Improved,
                    limit: e.limit,
                    consumed: e.iterations,
                    pos: None,
                });
                if span.is_some() {
                    let (work, items) = match &result {
                        Ok(Some(imp)) => (imp.matrix.len() as u64, imp.matrix.len() as u64),
                        Ok(None) => (0, 0),
                        Err(e) => (Self::consumed_of(e), 0),
                    };
                    self.engine
                        .trace_end(span, &self.design().name, work, items);
                }
                result
            })
            .as_ref()
            .map(|o| o.as_ref())
            .map_err(|e| e.clone())
    }

    /// The information-flow graph of the analysis: the improved graph when
    /// the engine's options request the improved analysis, the base graph
    /// otherwise.
    ///
    /// Memoized: repeated calls return the same reference without rebuilding
    /// the graph (the repeated-rebuild hot spot of the eager
    /// [`AnalysisResult::flow_graph`]).
    ///
    /// # Errors
    ///
    /// Propagates the failure of whichever closure the graph is built from.
    ///
    /// # Examples
    ///
    /// ```
    /// use vhdl1_infoflow::Engine;
    ///
    /// let design = vhdl1_syntax::frontend(
    ///     "entity e is port(a : in std_logic; b : out std_logic); end e;
    ///      architecture rtl of e is begin
    ///        p : process begin b <= a; wait on a; end process p;
    ///      end rtl;")?;
    /// let engine = Engine::default();
    /// let analysis = engine.analyze(&design);
    /// let first = analysis.flow_graph()?;
    /// assert!(first.has_edge("a", "b"));
    /// // Same allocation, not an equal copy:
    /// assert!(std::ptr::eq(first, analysis.flow_graph()?));
    /// assert_eq!(engine.stats().flow_graph, 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn flow_graph(&self) -> Result<&FlowGraph, EngineError> {
        let fresh = self.slots().graph.get().is_none();
        if fresh {
            self.check_alive()?;
            if self.improved()?.is_none() {
                self.global()?;
            }
        } else {
            self.trace_hit("flow_graph");
        }
        let graph = self.slots().graph.get_or_init(|| {
            let matrix = match self.improved().expect("improved forced above") {
                Some(imp) => &imp.matrix,
                None => self.global().expect("global forced above"),
            };
            self.bump(&self.engine.counters.flow_graph);
            let span = self.engine.trace_begin("flow_graph");
            let graph = FlowGraph::from_resource_matrix(matrix);
            if span.is_some() {
                self.engine.trace_end(
                    span,
                    &self.design().name,
                    graph.node_count() as u64,
                    graph.edge_count() as u64,
                );
            }
            graph
        });
        if fresh {
            self.persist();
        }
        Ok(graph)
    }

    /// Per-node label annotations for DOT rendering
    /// ([`FlowGraph::to_dot_with`]): the labels at which the design
    /// accesses each graph node, derived from the local Resource Matrix.
    ///
    /// Persisted with the artifact, so rendering an annotated graph from a
    /// warm persistent cache runs zero front-end work — unlike going
    /// through [`Analysis::design`], which re-elaborates the stored source.
    pub fn graph_labels(&self) -> &GraphLabels {
        let fresh = self.slots().graph_labels.get().is_none();
        let labels = self
            .slots()
            .graph_labels
            .get_or_init(|| GraphLabels::of(self.local()));
        if fresh {
            self.persist();
        }
        labels
    }

    /// The information-flow graph of the base (non-improved) closure,
    /// memoized independently of [`Analysis::flow_graph`].
    ///
    /// # Errors
    ///
    /// Propagates the failure of the base closure.
    pub fn base_flow_graph(&self) -> Result<&FlowGraph, EngineError> {
        let fresh = self.slots().base_graph.get().is_none();
        if fresh {
            self.check_alive()?;
            self.global()?;
        } else {
            self.trace_hit("flow_graph");
        }
        let graph = self.slots().base_graph.get_or_init(|| {
            let global = self.global().expect("global forced above");
            self.bump(&self.engine.counters.flow_graph);
            let span = self.engine.trace_begin("flow_graph");
            let graph = FlowGraph::from_resource_matrix(global);
            if span.is_some() {
                self.engine.trace_end(
                    span,
                    &self.design().name,
                    graph.node_count() as u64,
                    graph.edge_count() as u64,
                );
            }
            graph
        });
        if fresh {
            self.persist();
        }
        Ok(graph)
    }

    /// [`Analysis::flow_graph`] with incoming/outgoing nodes merged into
    /// their underlying resources — the presentation form policies talk
    /// about, and the graph [`Analysis::audit`] checks.
    ///
    /// # Errors
    ///
    /// Propagates the failure of [`Analysis::flow_graph`].
    pub fn merged_flow_graph(&self) -> Result<&FlowGraph, EngineError> {
        let fresh = self.slots().merged_graph.get().is_none();
        if fresh {
            self.flow_graph()?;
        } else {
            self.trace_hit("flow_graph");
        }
        let graph = self.slots().merged_graph.get_or_init(|| {
            let graph = self.flow_graph().expect("flow graph forced above");
            self.bump(&self.engine.counters.flow_graph);
            let span = self.engine.trace_begin("flow_graph");
            let merged = graph.merge_io_nodes();
            if span.is_some() {
                self.engine.trace_end(
                    span,
                    &self.design().name,
                    merged.node_count() as u64,
                    merged.edge_count() as u64,
                );
            }
            merged
        });
        if fresh {
            self.persist();
        }
        Ok(graph)
    }

    /// The graph produced by Kemmerer's method on the same local Resource
    /// Matrix (the paper's comparison baseline).  Needs only Table 6.
    ///
    /// # Errors
    ///
    /// Fails only through the deadline/cancel gate (the Kemmerer baseline
    /// has no counter budget of its own).
    pub fn kemmerer_graph(&self) -> Result<&FlowGraph, EngineError> {
        let fresh = self.slots().kemmerer.get().is_none();
        if fresh {
            self.check_alive()?;
        } else {
            self.trace_hit("kemmerer");
        }
        let graph = self.slots().kemmerer.get_or_init(|| {
            let local = self.local();
            self.bump(&self.engine.counters.kemmerer);
            let span = self.engine.trace_begin("kemmerer");
            let graph = kemmerer_graph_from_matrix(local);
            if span.is_some() {
                self.engine.trace_end(
                    span,
                    &self.design().name,
                    graph.node_count() as u64,
                    graph.edge_count() as u64,
                );
            }
            graph
        });
        if fresh {
            self.persist();
        }
        Ok(graph)
    }

    /// Audits the (merged) flow graph against a policy.
    ///
    /// The graph is memoized; the audit itself is recomputed per call since
    /// it depends on the caller's policy.
    ///
    /// # Errors
    ///
    /// Propagates the failure of [`Analysis::merged_flow_graph`].
    pub fn audit(&self, policy: &Policy) -> Result<AuditReport, EngineError> {
        Ok(audit(self.merged_flow_graph()?, policy))
    }

    /// Smoke-simulates the design to quiescence on the dense simulator core
    /// and reports the delta-cycle count plus a digest of the run's **whole
    /// state trajectory** — every delta cycle's changed signals folded in
    /// order, then the quiescent state of every signal (the Section 6 "does
    /// it actually run" validation).  Two designs that merely *end* in the
    /// same state digest differently when they took different paths there,
    /// which is what makes the digest usable as a twin-run comparison key.
    ///
    /// Memoized like every other stage: the first call compiles and runs
    /// the design (its `max_deltas` bound applies, further capped by the
    /// budget's `max_sim_deltas`); repeated calls return the recorded
    /// outcome without re-simulating.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Sim`] for compilation or execution failures
    /// (positioned whenever the offending construct was parsed from source
    /// text), or [`EngineError::ResourceExhausted`] (stage `smoke`) when
    /// the *budget's* simulation limits cut the run short — exceeding the
    /// caller's own `max_deltas` stays an [`EngineError::Sim`].
    pub fn smoke(&self, max_deltas: u64) -> Result<SmokeReport, EngineError> {
        let fresh = self.slots().smoke.get().is_none();
        if fresh {
            self.check_alive()?;
        } else {
            self.trace_hit("smoke");
        }
        let report = self
            .slots()
            .smoke
            .get_or_init(|| {
                self.bump(&self.engine.counters.smoke);
                let span = self.engine.trace_begin("smoke");
                let budget = *self.budget();
                let budget_deltas = budget.max_sim_deltas.unwrap_or(u64::MAX);
                let effective_deltas = max_deltas.min(budget_deltas);
                let design = self.design();
                let run = || -> Result<SmokeReport, SimError> {
                    let mut sim = Simulator::with_options(
                        design,
                        SimOptions {
                            max_total_steps: budget.max_sim_steps,
                            ..SimOptions::default()
                        },
                    )?;
                    // Mirror `run_until_quiescent` delta accounting exactly,
                    // but fold every intermediate delta's changed signals
                    // into the digest as we go.
                    let mut digest_input = String::new();
                    let mut deltas: u64 = 0;
                    while let Some(report) = sim.delta_step()? {
                        deltas += 1;
                        if deltas > effective_deltas {
                            return Err(SimError::DeltaLimitExceeded {
                                limit: effective_deltas,
                            });
                        }
                        digest_input.push_str("delta ");
                        digest_input.push_str(&deltas.to_string());
                        digest_input.push('\n');
                        for sig in &report.changed {
                            let value = sim.signal(sig).expect("changed signal exists");
                            digest_input.push_str(sig);
                            digest_input.push('=');
                            digest_input.push_str(&value.to_literal());
                            digest_input.push('\n');
                        }
                    }
                    digest_input.push_str("quiescent\n");
                    for sig in &design.signals {
                        let value = sim.signal(&sig.name).expect("signal exists");
                        digest_input.push_str(&sig.name);
                        digest_input.push('=');
                        digest_input.push_str(&value.to_literal());
                        digest_input.push('\n');
                    }
                    Ok(SmokeReport {
                        deltas,
                        state_digest: fnv1a64(digest_input.as_bytes()),
                    })
                };
                let result = run().map_err(|e| match e {
                    // A delta overrun is budget exhaustion only when the
                    // budget (not the caller's bound) was the binding limit.
                    SimError::DeltaLimitExceeded { limit }
                        if limit == budget_deltas && budget_deltas < max_deltas =>
                    {
                        EngineError::ResourceExhausted {
                            stage: EngineStage::Smoke,
                            limit,
                            consumed: limit + 1,
                            pos: None,
                        }
                    }
                    SimError::TotalStepLimitExceeded { limit } => EngineError::ResourceExhausted {
                        stage: EngineStage::Smoke,
                        limit,
                        consumed: limit + 1,
                        pos: None,
                    },
                    other => EngineError::Sim(other),
                });
                if span.is_some() {
                    let (work, items) = match &result {
                        Ok(smoke) => (smoke.deltas, design.signals.len() as u64),
                        Err(e) => (Self::consumed_of(e), 0),
                    };
                    self.engine.trace_end(span, &design.name, work, items);
                }
                result
            })
            .clone();
        if fresh && report.is_ok() {
            self.persist();
        }
        report
    }

    /// Witnesses dynamic flows by secret-perturbation differential
    /// simulation and cross-checks them against the static flow graphs: the
    /// design runs `rounds` seeded stimulus rounds per input port as a twin
    /// pair over one shared compile (`vhdl1-dynflow`), and the witnessed
    /// divergences are measured against [`Analysis::merged_flow_graph`] and
    /// [`Analysis::kemmerer_graph`] — soundness violations (witnessed flows
    /// the static analysis misses), unwitnessed static edges (precision),
    /// and per-edge coverage.
    ///
    /// Memoized per `(rounds, seed)`: distinct parameter pairs are
    /// independent computations, equal pairs compute exactly once per design
    /// (counted by [`EngineStats::dynamic_flows`]) even across threads
    /// sharing a memo-table entry.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Sim`] when the design fails to compile or
    /// execute, or [`EngineError::ResourceExhausted`] (stage `dynflow`) when
    /// the budget's simulation limits cut the sweep short — and propagates
    /// the failure of the static graphs it cross-checks against.
    pub fn dynamic_flows(&self, rounds: u64, seed: u64) -> Result<Arc<DynFlowReport>, EngineError> {
        let cell = {
            let mut map = self.slots().dynflow.lock().expect("dynflow memo poisoned");
            Arc::clone(map.entry((rounds, seed)).or_default())
        };
        let fresh = cell.get().is_none();
        if fresh {
            self.check_alive()?;
            self.merged_flow_graph()?;
            self.kemmerer_graph()?;
        } else {
            self.trace_hit("dynamic_flows");
        }
        let report = cell
            .get_or_init(|| {
                self.bump(&self.engine.counters.dynflow);
                let span = self.engine.trace_begin("dynamic_flows");
                let budget = *self.budget();
                let budget_deltas = budget.max_sim_deltas.unwrap_or(u64::MAX);
                let max_deltas = DYNFLOW_MAX_DELTAS.min(budget_deltas);
                let options = DynFlowOptions {
                    rounds,
                    seed,
                    max_deltas_per_run: max_deltas,
                    max_total_steps: budget.max_sim_steps,
                };
                let merged = self.merged_flow_graph().expect("merged graph forced above");
                let kemmerer = self.kemmerer_graph().expect("kemmerer graph forced above");
                let result = vhdl1_dynflow::witness(self.design(), &options)
                    .map(|w| Arc::new(cross_check(&w, merged, kemmerer)))
                    .map_err(|e| match e {
                        // A delta overrun is budget exhaustion only when the
                        // budget (not the built-in per-run cap) was binding.
                        SimError::DeltaLimitExceeded { limit }
                            if limit == budget_deltas && budget_deltas < DYNFLOW_MAX_DELTAS =>
                        {
                            EngineError::ResourceExhausted {
                                stage: EngineStage::DynFlow,
                                limit,
                                consumed: limit + 1,
                                pos: None,
                            }
                        }
                        SimError::TotalStepLimitExceeded { limit } => {
                            EngineError::ResourceExhausted {
                                stage: EngineStage::DynFlow,
                                limit,
                                consumed: limit + 1,
                                pos: None,
                            }
                        }
                        other => EngineError::Sim(other),
                    });
                if span.is_some() {
                    let (work, items) = match &result {
                        Ok(report) => (report.total_deltas, report.static_edges as u64),
                        Err(e) => (Self::consumed_of(e), 0),
                    };
                    self.engine
                        .trace_end(span, &self.design().name, work, items);
                }
                result
            })
            .clone();
        if fresh && report.is_ok() {
            self.persist();
        }
        report
    }

    /// Materialises the owned, eager [`AnalysisResult`] of the classic API,
    /// computing any stage not yet demanded.
    ///
    /// Stages already computed are moved out (borrowed handles) or cloned
    /// (handles sharing a memo-table entry).
    ///
    /// # Panics
    ///
    /// Panics when the engine's budget cuts a stage short — the eager API
    /// predates budgets and has no error channel.  Budget-aware callers use
    /// [`Analysis::try_into_result`].
    pub fn into_result(self) -> AnalysisResult {
        match self.try_into_result() {
            Ok(result) => result,
            Err(e) => panic!("analysis exceeded its budget: {e}"),
        }
    }

    /// Fallible [`Analysis::into_result`]: materialises the owned
    /// [`AnalysisResult`], surfacing budget exhaustion as an error instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`EngineError`] of the first stage that exceeded the
    /// budget (or tripped the deadline/cancel gate).
    pub fn try_into_result(self) -> Result<AnalysisResult, EngineError> {
        // Force every stage the eager result carries.
        self.global()?;
        self.improved()?;
        let design_name = self.design().name.clone();
        let options = *self.options();
        let take = |slots: Slots| AnalysisResult {
            design_name: design_name.clone(),
            options,
            rd: slots
                .rd
                .into_inner()
                .expect("rd forced above")
                .expect("rd errors propagated above"),
            local: slots.local.into_inner().expect("local forced above"),
            specialized: slots
                .specialized
                .into_inner()
                .expect("specialized forced above"),
            global: slots
                .global
                .into_inner()
                .expect("global forced above")
                .expect("global errors propagated above"),
            improved: slots
                .improved
                .into_inner()
                .expect("improved forced above")
                .expect("improved errors propagated above"),
        };
        Ok(match self.inner {
            Inner::Borrowed { slots, .. } => take(*slots),
            Inner::Shared(memo) => match Arc::try_unwrap(memo) {
                Ok(memo) => take(memo.slots),
                Err(memo) => AnalysisResult {
                    design_name,
                    options,
                    rd: memo
                        .slots
                        .rd
                        .get()
                        .expect("rd forced above")
                        .as_ref()
                        .expect("rd errors propagated above")
                        .clone(),
                    local: memo.slots.local.get().expect("local forced above").clone(),
                    specialized: memo
                        .slots
                        .specialized
                        .get()
                        .expect("specialized forced above")
                        .clone(),
                    global: memo
                        .slots
                        .global
                        .get()
                        .expect("global forced above")
                        .as_ref()
                        .expect("global errors propagated above")
                        .clone(),
                    improved: memo
                        .slots
                        .improved
                        .get()
                        .expect("improved forced above")
                        .as_ref()
                        .expect("improved errors propagated above")
                        .clone(),
                },
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_with;
    use vhdl1_syntax::frontend;

    const COPY: &str = "entity e is port(a : in std_logic; b : out std_logic); end e;
         architecture rtl of e is begin
           p : process begin b <= a; wait on a; end process p;
         end rtl;";

    const TWO_PROC: &str = "entity e is port(a : in std_logic; b : out std_logic); end e;
         architecture rtl of e is
           signal t : std_logic;
         begin
           p1 : process begin t <= a; wait on a; end process p1;
           p2 : process begin b <= t; wait on t; end process p2;
         end rtl;";

    #[test]
    fn nothing_computes_until_demanded() {
        let design = frontend(COPY).unwrap();
        let engine = Engine::default();
        let _analysis = engine.analyze(&design);
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn each_stage_computes_once_and_returns_the_same_reference() {
        let design = frontend(COPY).unwrap();
        let engine = Engine::default();
        let analysis = engine.analyze(&design);
        let rd1 = analysis.rd().unwrap() as *const _;
        let rd2 = analysis.rd().unwrap() as *const _;
        assert_eq!(rd1, rd2);
        let g1 = analysis.flow_graph().unwrap() as *const _;
        let g2 = analysis.flow_graph().unwrap() as *const _;
        assert_eq!(g1, g2);
        let k1 = analysis.kemmerer_graph().unwrap() as *const _;
        let k2 = analysis.kemmerer_graph().unwrap() as *const _;
        assert_eq!(k1, k2);
        let stats = engine.stats();
        assert_eq!(stats.rd, 1);
        assert_eq!(stats.flow_graph, 1);
        assert_eq!(stats.kemmerer, 1);
    }

    #[test]
    fn base_options_flow_graph_performs_no_table9_work() {
        let design = frontend(TWO_PROC).unwrap();
        let engine = Engine::with_options(AnalysisOptions::base());
        let analysis = engine.analyze(&design);
        assert!(analysis.flow_graph().unwrap().has_edge("a", "b"));
        let stats = engine.stats();
        assert_eq!(stats.improved, 0, "Table 9 must not run under base options");
        assert_eq!(stats.rd, 1);
        assert_eq!(stats.global, 1);
        // The improved query itself answers None without running Table 9.
        assert!(analysis.improved().unwrap().is_none());
        assert_eq!(engine.stats().improved, 0);
    }

    #[test]
    fn kemmerer_graph_needs_only_table6() {
        let design = frontend(TWO_PROC).unwrap();
        let engine = Engine::default();
        let analysis = engine.analyze(&design);
        let _ = analysis.kemmerer_graph().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.local, 1);
        assert_eq!(stats.rd, 0, "Kemmerer's method is RD-free");
        assert_eq!(stats.global, 0);
        assert_eq!(stats.improved, 0);
    }

    #[test]
    fn into_result_matches_the_eager_pipeline() {
        let design = frontend(TWO_PROC).unwrap();
        let options = AnalysisOptions::default();
        let eager = analyze_with(&design, &options);
        let engine = Engine::with_options(options);
        let lazy = engine.analyze(&design).into_result();
        assert_eq!(eager, lazy);
        // And after partial demand in graph-first order:
        let analysis = engine.analyze(&design);
        let _ = analysis.flow_graph().unwrap();
        assert_eq!(eager, analysis.into_result());
    }

    #[test]
    fn analyze_source_memoizes_by_content_hash() {
        let engine = Engine::default();
        let a = engine.analyze_source(COPY).unwrap();
        let _ = a.flow_graph().unwrap();
        let b = engine.analyze_source(COPY).unwrap();
        // Shared memo: the graph is the very same allocation.
        assert!(std::ptr::eq(
            a.flow_graph().unwrap(),
            b.flow_graph().unwrap()
        ));
        let stats = engine.stats();
        assert_eq!(stats.frontend, 1, "second call must not reparse");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.flow_graph, 1);
        assert_eq!(engine.cached_designs(), 1);
    }

    #[test]
    fn analyze_sources_preserves_order_and_reports_failing_index() {
        let engine = Engine::default();
        let renamed = COPY.replace("rtl", "second");
        let analyses = engine.analyze_sources([COPY, renamed.as_str()]).unwrap();
        assert_eq!(analyses.len(), 2);
        assert_eq!(analyses[0].design().name, "rtl");
        assert_eq!(analyses[1].design().name, "second");
        assert!(analyses
            .iter()
            .all(|a| a.flow_graph().unwrap().has_edge("a", "b")));

        let (index, err) = engine
            .analyze_sources([COPY, "entity broken"])
            .expect_err("second source must fail");
        assert_eq!(index, 1);
        assert_eq!(err.phase(), Some(EnginePhase::Parse));
    }

    #[test]
    fn disabled_cache_reparses_every_time() {
        let engine = Engine::new(EngineConfig {
            cache: CachePolicy::Disabled,
            ..EngineConfig::default()
        });
        let _ = engine.analyze_source(COPY).unwrap();
        let _ = engine.analyze_source(COPY).unwrap();
        assert_eq!(engine.stats().frontend, 2);
        assert_eq!(engine.cached_designs(), 0);
    }

    #[test]
    fn capped_cache_evicts_oldest() {
        let engine = Engine::new(EngineConfig {
            cache: CachePolicy::Capped(2),
            ..EngineConfig::default()
        });
        let srcs: Vec<String> = (0..3)
            .map(|i| COPY.replace("rtl", &format!("r{i}")))
            .collect();
        for s in &srcs {
            let _ = engine.analyze_source(s).unwrap();
        }
        assert_eq!(engine.cached_designs(), 2);
        // Oldest (r0) evicted: analysing it again is a miss.
        let _ = engine.analyze_source(&srcs[0]).unwrap();
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().frontend, 4);
    }

    #[test]
    fn clear_cache_forgets_designs() {
        let engine = Engine::default();
        let _ = engine.analyze_source(COPY).unwrap();
        assert_eq!(engine.cached_designs(), 1);
        engine.clear_cache();
        assert_eq!(engine.cached_designs(), 0);
        let _ = engine.analyze_source(COPY).unwrap();
        assert_eq!(engine.stats().frontend, 2);
    }

    #[test]
    fn source_key_depends_on_options() {
        let base = Engine::with_options(AnalysisOptions::base());
        let full = Engine::default();
        assert_ne!(base.source_key(COPY), full.source_key(COPY));
        assert_eq!(full.source_key(COPY), Engine::default().source_key(COPY));
        assert_ne!(full.source_key(COPY), full.source_key(TWO_PROC));
        // The budget participates in the key: tight and unlimited budgets
        // never share memo slots (truncation points stay deterministic).
        let tight = Engine::with_options(AnalysisOptions {
            budget: Budget::tight(),
            ..AnalysisOptions::default()
        });
        assert_ne!(tight.source_key(COPY), full.source_key(COPY));
    }

    #[test]
    fn engine_errors_are_structured() {
        let engine = Engine::default();

        let parse_err = engine.analyze_source("entity oops").unwrap_err();
        assert_eq!(parse_err.phase(), Some(EnginePhase::Parse));
        assert!(parse_err.pos().is_some());
        assert!(!parse_err.is_resource_exhausted());
        assert_eq!(parse_err.stage(), None);

        let elab_src = "entity e is port(a : in std_logic; b : out std_logic); end e;
architecture rtl of e is begin
  p : process begin b <= ghost; wait on a; end process;
end rtl;";
        let elab_err = engine.analyze_source(elab_src).unwrap_err();
        assert_eq!(elab_err.phase(), Some(EnginePhase::Elaborate));
        assert_eq!(elab_err.line_col(), Some((3, 26)));
        assert!(elab_err.to_string().contains("elaborate error at 3:26"));
        assert!(elab_err.message().contains("ghost"));
        // The original front-end error rides along as the source.
        use std::error::Error as _;
        assert!(elab_err.source().is_some());

        // Errors are not memoized as designs.
        assert_eq!(engine.cached_designs(), 0);
    }

    #[test]
    fn oversized_source_exhausts_the_frontend_budget() {
        let engine = Engine::with_options(AnalysisOptions {
            budget: Budget {
                max_source_bytes: Some(64),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let err = engine.analyze_source(COPY).unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Frontend));
        assert!(err.is_resource_exhausted());
        let EngineError::ResourceExhausted {
            limit, consumed, ..
        } = &err
        else {
            panic!("expected ResourceExhausted, got {err:?}");
        };
        assert_eq!(*limit, 64);
        assert_eq!(*consumed, COPY.len() as u64);
        assert!(
            err.to_string().contains("frontend budget exhausted"),
            "{err}"
        );
        // Exhaustion never pollutes the memo table.
        assert_eq!(engine.cached_designs(), 0);
    }

    #[test]
    fn deep_nesting_exhausts_the_parse_depth_budget() {
        let engine = Engine::with_options(AnalysisOptions {
            budget: Budget {
                max_parse_depth: Some(8),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let nested = format!(
            "architecture a of e is begin p : process begin x := {}a{}; \
             wait; end process p; end a;",
            "(".repeat(40),
            ")".repeat(40)
        );
        let err = engine.analyze_source(&nested).unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Frontend));
        assert!(err.pos().is_some(), "depth exhaustion carries a position");
    }

    #[test]
    fn rd_budget_exhaustion_is_structured_and_memoized() {
        let engine = Engine::with_options(AnalysisOptions {
            budget: Budget {
                max_dataflow_steps: Some(1),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let analysis = engine.analyze_source(TWO_PROC).unwrap();
        let err = analysis.rd().unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Rd));
        // Downstream queries see the same error (memoized, not recomputed).
        let err2 = analysis.flow_graph().unwrap_err();
        assert_eq!(err, err2);
        assert_eq!(engine.stats().rd, 1, "the failed stage ran exactly once");
        // A second handle over the same source replays the memoized failure.
        let again = engine.analyze_source(TWO_PROC).unwrap();
        assert_eq!(again.rd().unwrap_err(), err);
        assert_eq!(engine.stats().rd, 1);
    }

    #[test]
    fn closure_budget_exhaustion_names_the_closure_stage() {
        let engine = Engine::with_options(AnalysisOptions {
            improved: false,
            budget: Budget {
                max_closure_iterations: Some(1),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let design = frontend(TWO_PROC).unwrap();
        let analysis = engine.analyze(&design);
        let err = analysis.global().unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Closure));
        // rd itself is fine: only the closure was cut off.
        assert!(analysis.rd().is_ok());
        // The improved stage of a budgeted engine with improved: true
        // reports its own stage name.
        let engine2 = Engine::with_options(AnalysisOptions {
            budget: Budget {
                max_closure_iterations: Some(1),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let analysis2 = engine2.analyze(&design);
        assert_eq!(
            analysis2.improved().unwrap_err().stage(),
            Some(EngineStage::Improved)
        );
    }

    #[test]
    fn try_into_result_surfaces_exhaustion_where_into_result_panics() {
        let engine = Engine::with_options(AnalysisOptions {
            budget: Budget {
                max_dataflow_steps: Some(1),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let design = frontend(TWO_PROC).unwrap();
        let err = engine.analyze(&design).try_into_result().unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Rd));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.analyze(&design).into_result()
        }))
        .unwrap_err();
        let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("exceeded its budget"), "{text}");
    }

    #[test]
    fn cancel_flag_stops_new_stages_but_keeps_memoized_ones() {
        let design = frontend(TWO_PROC).unwrap();
        let engine = Engine::default();
        let flag = CancelFlag::new();
        let analysis = engine.analyze(&design).with_cancel_flag(flag.clone());
        // Before cancellation everything works.
        assert!(analysis.rd().is_ok());
        flag.cancel();
        // Memoized stages stay readable; new stages are refused.
        assert!(analysis.rd().is_ok());
        let err = analysis.global().unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Deadline));
        assert_eq!(engine.stats().global, 0, "no new work after cancel");
        // A fresh, uncancelled handle over the same design is unaffected.
        assert!(engine.analyze(&design).global().is_ok());
    }

    #[test]
    fn elapsed_deadline_refuses_new_stages() {
        let engine = Engine::with_options(AnalysisOptions {
            budget: Budget {
                deadline_ms: Some(0),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let design = frontend(TWO_PROC).unwrap();
        let analysis = engine.analyze(&design);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let err = analysis.rd().unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Deadline));
        let EngineError::ResourceExhausted { consumed, .. } = err else {
            panic!("deadline must report ResourceExhausted");
        };
        assert!(consumed >= 5);
        assert_eq!(engine.stats().rd, 0);
    }

    #[test]
    fn audit_uses_the_merged_graph() {
        let design = frontend(COPY).unwrap();
        let engine = Engine::default();
        let analysis = engine.analyze(&design);
        let strict = Policy::new().with_level("a", 1).with_level("b", 0);
        let report = analysis.audit(&strict).unwrap();
        assert_eq!(report.violations.len(), 1);
        // A second audit with another policy reuses the memoized graph.
        let graphs_before = engine.stats().flow_graph;
        let permissive = analysis.audit(&Policy::new()).unwrap();
        assert!(permissive.violations.is_empty());
        assert_eq!(engine.stats().flow_graph, graphs_before);
    }

    #[test]
    fn smoke_simulates_once_and_memoizes_the_outcome() {
        let design = frontend(TWO_PROC).unwrap();
        let engine = Engine::default();
        let analysis = engine.analyze(&design);
        let first = analysis.smoke(1_000).expect("two-process copy quiesces");
        assert!(first.deltas >= 1);
        // Second query — even with a different bound — replays the memo.
        let second = analysis.smoke(1).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.stats().smoke, 1);
        // The digest is deterministic across engines and analyses.
        let other = Engine::default();
        let again = other.analyze(&design).smoke(1_000).unwrap();
        assert_eq!(first.state_digest, again.state_digest);
        assert_eq!(first.deltas, again.deltas);
        // Smoke needs no analysis stages at all.
        assert_eq!(engine.stats().rd, 0);
    }

    #[test]
    fn smoke_errors_are_recorded_with_positions() {
        // An out-of-range slice passes elaboration but fails simulator
        // compilation; the error carries its source position.
        let src = "entity e is port(a : in std_logic_vector(3 downto 0); b : out std_logic); end e;
architecture rtl of e is begin
  p : process begin
    b <= a(9 downto 8);
    wait on a;
  end process;
end rtl;";
        let engine = Engine::default();
        let analysis = engine.analyze_source(src).unwrap();
        let err = analysis.smoke(100).unwrap_err();
        assert_eq!(err.line_col().map(|(l, _)| l), Some(4), "{err}");
        assert!(err.to_string().contains("at 4:"), "{err}");
        assert!(matches!(err, EngineError::Sim(_)));
        // Errors are memoized too.
        let err2 = analysis.smoke(100).unwrap_err();
        assert_eq!(err, err2);
        assert_eq!(engine.stats().smoke, 1);
    }

    #[test]
    fn smoke_distinguishes_budget_exhaustion_from_caller_bounds() {
        // An oscillator never quiesces (the seed assignment makes t definite,
        // after which every wake flips it): under a budget delta cap below
        // the caller's bound, that is resource exhaustion …
        let ring = "entity e is port(a : in std_logic); end e;
architecture rtl of e is
  signal t : std_logic;
begin
  p : process begin t <= '1'; wait on t; t <= not t; wait on t; end process p;
end rtl;";
        let engine = Engine::with_options(AnalysisOptions {
            budget: Budget {
                max_sim_deltas: Some(10),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let design = frontend(ring).unwrap();
        let err = engine.analyze(&design).smoke(1_000).unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Smoke));
        // … while the same overrun against the caller's own (tighter or
        // equal) bound stays a plain simulation error.
        let plain = Engine::default();
        let err = plain.analyze(&design).smoke(10).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Sim(SimError::DeltaLimitExceeded { limit: 10 })
        ));
    }

    #[test]
    fn smoke_step_budget_exhaustion_is_structured() {
        let engine = Engine::with_options(AnalysisOptions {
            budget: Budget {
                max_sim_steps: Some(2),
                ..Budget::default()
            },
            ..AnalysisOptions::default()
        });
        let design = frontend(TWO_PROC).unwrap();
        let err = engine.analyze(&design).smoke(1_000).unwrap_err();
        assert_eq!(err.stage(), Some(EngineStage::Smoke));
        let EngineError::ResourceExhausted { limit, .. } = err else {
            panic!("step overrun must be ResourceExhausted");
        };
        assert_eq!(limit, 2);
    }

    #[test]
    fn shared_engine_is_usable_across_threads() {
        let engine = Engine::default();
        let srcs: Vec<String> = (0..8)
            .map(|i| COPY.replace("rtl", &format!("t{i}")))
            .collect();
        std::thread::scope(|scope| {
            for chunk in srcs.chunks(2) {
                let engine = &engine;
                scope.spawn(move || {
                    for src in chunk {
                        let analysis = engine.analyze_source(src).unwrap();
                        assert!(analysis.flow_graph().unwrap().has_edge("a", "b"));
                    }
                });
            }
        });
        assert_eq!(engine.cached_designs(), 8);
        assert_eq!(engine.stats().flow_graph, 8);
    }

    /// Self-cleaning scratch directory for persistent-cache tests.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "vhdl1-engine-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn persistent_engine(dir: &std::path::Path) -> Engine {
        Engine::new(EngineConfig {
            options: AnalysisOptions::default(),
            cache: CachePolicy::Persistent {
                dir: dir.to_path_buf(),
                cap: 16,
            },
        })
    }

    #[test]
    fn persistent_cache_survives_engine_restart_without_reparsing() {
        let tmp = TempDir::new("warm");
        let (cold_graph, cold_summary) = {
            let engine = persistent_engine(&tmp.0);
            let analysis = engine.analyze_source(COPY).unwrap();
            let graph = analysis.merged_flow_graph().unwrap().clone();
            let summary = analysis.summary().clone();
            let stats = engine.stats();
            assert_eq!(stats.frontend, 1);
            assert_eq!(stats.store_misses, 1, "cold start misses the store");
            assert!(
                stats.store_writes >= 1,
                "warm artifacts are written through"
            );
            (graph, summary)
        };

        // A brand-new engine (fresh process, in effect) over the same
        // directory must serve the design purely from disk: no parse, no
        // RD, no closure, no graph construction.
        let engine = persistent_engine(&tmp.0);
        let analysis = engine.analyze_source(COPY).unwrap();
        assert_eq!(analysis.summary(), &cold_summary);
        assert_eq!(analysis.merged_flow_graph().unwrap(), &cold_graph);
        let stats = engine.stats();
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.frontend, 0, "warm hit must not re-parse");
        assert_eq!(stats.rd, 0, "warm hit must not re-run RD");
        assert_eq!(stats.global, 0, "warm hit must not re-run the closure");
        assert_eq!(stats.improved, 0);
        assert_eq!(stats.flow_graph, 0, "warm hit must not rebuild graphs");
    }

    #[test]
    fn corrupt_or_truncated_artifacts_degrade_to_recomputation() {
        let tmp = TempDir::new("corrupt");
        {
            let engine = persistent_engine(&tmp.0);
            let analysis = engine.analyze_source(COPY).unwrap();
            let _ = analysis.merged_flow_graph().unwrap();
        }
        for entry in std::fs::read_dir(&tmp.0).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }
        let engine = persistent_engine(&tmp.0);
        let analysis = engine.analyze_source(COPY).unwrap();
        assert!(analysis.merged_flow_graph().unwrap().has_edge("a", "b"));
        let stats = engine.stats();
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.store_misses, 1, "corruption is a miss, not an error");
        assert_eq!(stats.frontend, 1, "the design is recomputed from source");
    }

    #[test]
    fn options_fingerprint_is_stable_and_field_sensitive() {
        // Golden fingerprint of the default options: pins the serialized
        // option layout.  A change here invalidates every persisted
        // artifact in the wild — bump ARTIFACT_VERSION alongside it and
        // say so in CHANGES.md.
        assert_eq!(
            options_fingerprint(&AnalysisOptions::default()),
            0x716c_2536_9554_2b4f,
            "options_fingerprint(default) changed; see comment above"
        );
        let mut base = AnalysisOptions::base();
        assert_ne!(
            options_fingerprint(&base),
            options_fingerprint(&AnalysisOptions::default()),
            "`improved` participates in the fingerprint"
        );
        let before = options_fingerprint(&base);
        base.budget.max_alfp_facts = Some(7);
        assert_ne!(options_fingerprint(&base), before, "budget participates");
        // Tracing is observability-only and deliberately excluded: a
        // tracing daemon shares disk artifacts with a non-tracing CLI.
        let traced = AnalysisOptions {
            trace: true,
            ..AnalysisOptions::default()
        };
        assert_eq!(
            options_fingerprint(&traced),
            options_fingerprint(&AnalysisOptions::default()),
            "trace must not fork cache keys"
        );
    }
}
