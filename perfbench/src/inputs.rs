//! Seeded input generation.  Everything a workload feeds the program is
//! derived from the `--seed` argument here, outside every timed region; the
//! same seed gives byte-identical inputs.

use vhdl1_corpus::{edit_stream, generate, CorpusSpec, EditStream, GeneratedDesign, Rng};

/// A seed for part `tag` of the inputs of run seed `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed).derive(tag).next_u64()
}

// ---- corpus_verify -------------------------------------------------------

/// Designs per corpus (one batch pass).
pub const CORPUS_DESIGNS: usize = 50;
/// Distinct corpora a run cycles through, so one run averages over several
/// corpora rather than one.
pub const CORPORA: usize = 8;
/// Dynamic-oracle stimulus rounds per perturbation source.
pub const VERIFY_ROUNDS: u64 = 128;

/// Corpus `k` of the run: the four default families, clean and leaky.
pub fn corpus(seed: u64, k: usize) -> Vec<GeneratedDesign> {
    generate(&CorpusSpec::new(sub_seed(seed, k as u64), CORPUS_DESIGNS))
}

/// Stimulus seed of the dynamic oracle.
pub fn verify_seed(seed: u64) -> u64 {
    sub_seed(seed, 1 << 32)
}

// ---- aes_paper -----------------------------------------------------------

/// Key/plaintext blocks simulated per pass on the full AES-128.
pub const AES_BLOCKS: usize = 8;

/// The paper's §6 set: analysed components, the full cipher, and the
/// blocks it encrypts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AesInputs {
    /// `(name, source)` of each component analysed per pass, in pass order.
    pub components: Vec<(String, String)>,
    /// Source of the full, unrolled AES-128.
    pub cipher: String,
    /// `(key, plaintext)` blocks.
    pub blocks: Vec<([u8; 16], [u8; 16])>,
}

/// The §6 inputs of run seed `seed`: the SubBytes width and the component
/// order are seeded, as are the key/plaintext blocks.
pub fn aes(seed: u64) -> AesInputs {
    let mut rng = Rng::new(sub_seed(seed, 0));
    let width = 2 + rng.below(3) as usize;
    let mut components = vec![
        ("aes_round".to_string(), aes_vhdl::aes_round_vhdl()),
        (
            format!("sub_bytes_{width}"),
            aes_vhdl::sub_bytes_vhdl(width),
        ),
        ("mix_columns".to_string(), aes_vhdl::mix_columns_vhdl()),
        ("shift_rows".to_string(), aes_vhdl::shift_rows_vhdl()),
        (ADD_ROUND_KEY.to_string(), aes_vhdl::add_round_key_vhdl(16)),
    ];
    for i in (1..components.len()).rev() {
        components.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut byte = || rng.next_u64() as u8;
    let blocks = (0..AES_BLOCKS)
        .map(|_| {
            let key: [u8; 16] = std::array::from_fn(|_| byte());
            let pt: [u8; 16] = std::array::from_fn(|_| byte());
            (key, pt)
        })
        .collect();
    AesInputs {
        components,
        cipher: aes_vhdl::aes128_vhdl(),
        blocks,
    }
}

/// Name of the AddRoundKey component, whose lanes are gated.
pub const ADD_ROUND_KEY: &str = "add_round_key_16";

// ---- edit_session --------------------------------------------------------

/// Process counts of the sessions of one round, in round order.  The
/// middle size runs twice so the median step lies inside its group of
/// steps rather than on the edge between two sizes.
pub const EDIT_SIZES: [usize; 4] = [16, 32, 32, 48];
/// First-time edits per session (`edit_stream` allows `2 × processes`).
pub const EDITS: usize = 8;
/// Undo steps per session: re-submissions of an earlier revision.
pub const UNDOS: usize = 2;

/// One step of an edit session: submit `sources()[index]` of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditStep {
    /// A revision never submitted before in the session.
    Edit(usize),
    /// Re-submission of an earlier revision.
    Undo(usize),
}

/// An editor session: a stream and the order its revisions are submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditSession {
    /// Base design and its revisions.
    pub stream: EditStream,
    /// Steps after the base revision.
    pub steps: Vec<EditStep>,
}

/// Session `index` of run seed `seed`; its size follows [`EDIT_SIZES`].
pub fn edit_session(seed: u64, index: usize) -> EditSession {
    let processes = EDIT_SIZES[index % EDIT_SIZES.len()];
    let mut rng = Rng::new(sub_seed(seed, index as u64));
    let stream = edit_stream(rng.next_u64(), processes, EDITS);
    // Undos follow distinct edits (never the first), each re-submitting a
    // revision other than the one just analysed.
    let mut after: Vec<usize> = Vec::new();
    while after.len() < UNDOS {
        let edit = 1 + rng.below(EDITS as u64 - 1) as usize;
        if !after.contains(&edit) {
            after.push(edit);
        }
    }
    let mut steps = Vec::with_capacity(EDITS + UNDOS);
    for edit in 1..=EDITS {
        steps.push(EditStep::Edit(edit));
        if after.contains(&edit) {
            steps.push(EditStep::Undo(rng.below(edit as u64) as usize));
        }
    }
    EditSession { stream, steps }
}

// ---- serve_mixed ---------------------------------------------------------

/// Designs in the hot set (primed during set-up).
pub const HOT: usize = 64;
/// Ids receiving `/update` revisions.
pub const UPDATE_IDS: usize = 3;
/// Processes of each `/update` design; revisions per id are `2 ×` this.
pub const UPDATE_PROCESSES: usize = 12;
/// The traffic comes in blocks of this many requests, each with the same
/// mix in a seeded order, so every seed sends the same mix.
pub const MIX_BLOCK: usize = 100;
/// Cold `/analyze` requests per block, of which [`REVISITS`] revisit an
/// earlier cold design; [`UPDATES`] are `/update` requests and the rest
/// are warm `/analyze` requests.
pub const COLD: usize = 6;
/// See [`COLD`].
pub const REVISITS: usize = 2;
/// See [`COLD`].
pub const UPDATES: usize = 6;
/// One `GET /metrics` scrape after every this many open-loop requests.
pub const METRICS_EVERY: usize = 500;
/// `--cache-cap` of the daemon: below the distinct-design count of a run.
pub const CACHE_CAP: usize = 96;
/// Requests per measured second in the closed-loop (capacity) phase and
/// in the open-loop phase.  They size a run's input; the open loop's rate
/// is measured, not set here.
pub const CLOSED_PER_S: f64 = 800.0;
/// See [`CLOSED_PER_S`].
pub const OPEN_PER_S: f64 = 600.0;

/// One request of the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// `POST /analyze` of hot design `i`.
    Warm(usize),
    /// `POST /analyze` of cold design `i`.
    Cold(usize),
    /// `POST /update?id=` of revision `rev` of update stream `id`.
    Update {
        /// Update stream.
        id: usize,
        /// Index into the stream's `sources()`.
        rev: usize,
    },
    /// `GET /metrics`.
    Metrics,
}

/// The traffic of a `serve_mixed` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// Hot set.
    pub hot: Vec<GeneratedDesign>,
    /// Cold designs, in first-request order.
    pub cold: Vec<GeneratedDesign>,
    /// Update streams.
    pub updates: Vec<EditStream>,
    /// The closed-loop phase's requests, in sending order.
    pub closed: Vec<Request>,
    /// The open-loop phase's requests, in arrival order.
    pub open: Vec<Request>,
    /// Their Poisson arrival times in mean gaps from the first, so request
    /// `i` is due `arrivals[i] / rate` seconds into a loop at `rate`.
    pub arrivals: Vec<f64>,
}

/// The traffic of run seed `seed` for `seconds` measured seconds: one
/// seeded request sequence, its first part sent as a closed loop, the rest,
/// with the `/metrics` scrapes, as an open loop.
pub fn serve(seed: u64, seconds: f64) -> ServeInputs {
    let blocks = |per_s: f64| (seconds * per_s / MIX_BLOCK as f64).ceil() as usize;
    let (closed_blocks, open_blocks) = (blocks(CLOSED_PER_S), blocks(OPEN_PER_S));
    let mut rng = Rng::new(sub_seed(seed, 0));
    let mut cold_new = 0usize;
    let mut next_rev = [0usize; UPDATE_IDS];
    let revs = 2 * UPDATE_PROCESSES + 1;
    let mut requests = Vec::new();
    for _ in 0..closed_blocks + open_blocks {
        // 0 = new cold, 1 = revisit, 2 = update, 3 = warm; shuffled.
        let mut kinds = [3u8; MIX_BLOCK];
        kinds[..COLD - REVISITS].fill(0);
        kinds[COLD - REVISITS..COLD].fill(1);
        kinds[COLD..COLD + UPDATES].fill(2);
        for i in (1..MIX_BLOCK).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for kind in kinds {
            requests.push(match kind {
                1 if cold_new > 0 => Request::Cold(rng.below(cold_new as u64) as usize),
                0 | 1 => {
                    cold_new += 1;
                    Request::Cold(cold_new - 1)
                }
                2 => {
                    let id = rng.below(UPDATE_IDS as u64) as usize;
                    let rev = next_rev[id] % revs;
                    next_rev[id] += 1;
                    Request::Update { id, rev }
                }
                _ => Request::Warm(rng.below(HOT as u64) as usize),
            });
        }
    }
    let mut open = Vec::new();
    for (i, request) in requests
        .split_off(closed_blocks * MIX_BLOCK)
        .into_iter()
        .enumerate()
    {
        if i % METRICS_EVERY == METRICS_EVERY / 2 {
            open.push(Request::Metrics);
        }
        open.push(request);
    }
    let mut t = 0.0;
    let arrivals = open
        .iter()
        .map(|_| {
            let at = t;
            let uniform = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - uniform).ln();
            at
        })
        .collect();
    ServeInputs {
        hot: generate(&CorpusSpec::new(sub_seed(seed, 1), HOT)),
        cold: generate(&CorpusSpec::new(sub_seed(seed, 2), cold_new)),
        updates: (0..UPDATE_IDS)
            .map(|id| edit_stream(sub_seed(seed, 3 + id as u64), UPDATE_PROCESSES, revs - 1))
            .collect(),
        closed: requests,
        open,
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct designs a serve run submits.
    fn distinct_designs(inputs: &ServeInputs) -> usize {
        let mut revisions: Vec<(usize, usize)> = inputs
            .closed
            .iter()
            .chain(&inputs.open)
            .filter_map(|r| match *r {
                Request::Update { id, rev } => Some((id, rev)),
                _ => None,
            })
            .collect();
        revisions.sort_unstable();
        revisions.dedup();
        inputs.hot.len() + inputs.cold.len() + revisions.len()
    }

    fn bytes(x: &impl std::fmt::Debug) -> Vec<u8> {
        format!("{x:?}").into_bytes()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(bytes(&corpus(5, 1)), bytes(&corpus(5, 1)));
        assert_ne!(bytes(&corpus(5, 1)), bytes(&corpus(6, 1)));
        assert_ne!(bytes(&corpus(5, 0)), bytes(&corpus(5, 1)));
        assert_eq!(bytes(&aes(5)), bytes(&aes(5)));
        assert_ne!(bytes(&aes(5)), bytes(&aes(6)));
        assert_eq!(bytes(&edit_session(5, 2)), bytes(&edit_session(5, 2)));
        assert_ne!(bytes(&edit_session(5, 2)), bytes(&edit_session(6, 2)));
        assert_eq!(bytes(&serve(5, 2.0)), bytes(&serve(5, 2.0)));
        assert_ne!(bytes(&serve(5, 2.0)), bytes(&serve(6, 2.0)));
    }

    #[test]
    fn edit_sessions_stay_within_the_stream_limit() {
        for index in 0..EDIT_SIZES.len() {
            let session = edit_session(11, index);
            assert!(EDITS <= 2 * session.stream.processes);
            assert_eq!(session.steps.len(), EDITS + UNDOS);
            let mut seen = 0;
            for step in &session.steps {
                match *step {
                    EditStep::Edit(i) => {
                        assert_eq!(i, seen + 1);
                        seen = i;
                    }
                    EditStep::Undo(i) => assert!(i < seen),
                }
            }
        }
    }

    #[test]
    fn serve_traffic_has_a_fixed_mix_and_outgrows_the_cache_cap() {
        let inputs = serve(9, 2.0);
        assert!(distinct_designs(&inputs) > CACHE_CAP);
        assert_eq!(inputs.arrivals.len(), inputs.open.len());
        assert!(inputs.arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(!inputs.closed.contains(&Request::Metrics));
        assert!(inputs.open.contains(&Request::Metrics));
        assert_eq!(inputs.closed.len() % MIX_BLOCK, 0);
        for block in inputs.closed.chunks(MIX_BLOCK) {
            let count = |pick: fn(&Request) -> bool| block.iter().filter(|r| pick(r)).count();
            assert_eq!(count(|r| matches!(r, Request::Cold(_))), COLD);
            assert_eq!(count(|r| matches!(r, Request::Update { .. })), UPDATES);
        }
    }
}
