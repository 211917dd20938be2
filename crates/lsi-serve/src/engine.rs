//! The concurrent query engine: worker pool, admission control, deadlines,
//! panic isolation, and degraded-mode fallback.
//!
//! ## Lifecycle of a query
//!
//! ```text
//! submit ──► bounded queue ──► worker ──► catch_unwind ┐
//!    │ full?                     │                     │ panic?
//!    ▼                           ▼                     ▼
//! Overloaded              deadline check      Internal + respawn
//!                               │
//!                    validate (BadQuery?) ──► score in LSI space
//!                               │                 │ soft deadline hit?
//!                               │                 ▼
//!                               │          term-space fallback
//!                               │                 │
//!                               ▼                 ▼
//!                        DeadlineExceeded   Ok(Ranked | Degraded)
//! ```
//!
//! Every submission resolves to exactly one of: `Ok(QueryResponse)`,
//! or a typed [`QueryError`] — never a panic, never a hang (deadlines are
//! cooperative: the scoring loops in `lsi-core` poll the query's
//! [`CancelToken`] and abandon work once it expires).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsi_core::cancel::CancelToken;
use lsi_core::{
    BadQuery, BuildStatus, DurabilityError, DurableIndex, LsiError, LsiIndex, MutationRecord,
    SectionId,
};
use lsi_ir::retrieval::{RankedList, VectorSpaceIndex};
use lsi_ir::TermDocumentMatrix;

use crate::stats::{Outcome, ServeStats, StatsSnapshot};

/// A fault-injection hook run by the worker at the start of every query,
/// inside the panic-isolation boundary. The argument is the query's
/// caller-chosen [`Query::tag`]. This is the serving-side analogue of
/// `lsi_linalg::faults::FaultPlan`: chaos tests use it to inject slow
/// (sleeping) and poison (panicking) scorers through the exact production
/// path. Not intended for production configurations.
pub type FaultHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Tuning knobs for a [`QueryEngine`].
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads scoring queries (≥ 1; silently clamped).
    pub workers: usize,
    /// Capacity of the bounded submission queue; a full queue sheds new
    /// submissions with [`QueryError::Overloaded`].
    pub queue_capacity: usize,
    /// Hard per-query deadline, measured from submission. `None` disables
    /// deadline enforcement.
    pub deadline: Option<Duration>,
    /// Soft per-query deadline: once exceeded, LSI-space scoring is
    /// abandoned and the query is re-answered by the raw term-space
    /// fallback (when one is attached), marked
    /// [`DegradeReason::SoftDeadline`]. Ignored without a fallback.
    pub soft_deadline: Option<Duration>,
    /// Optional fault-injection hook (see [`FaultHook`]).
    pub fault_hook: Option<FaultHook>,
    /// Read by nothing: every worker takes one queued job per pickup and
    /// answers it through [`LsiIndex::try_query`]. Scoring several queued
    /// queries in one pass over the document rows was measured no faster
    /// (15.5 ms per query one at a time against 16.4 ms in batches of 8,
    /// at 10⁵ documents) and was removed. The field remains so that
    /// `EngineConfig` struct literals written against it keep compiling.
    pub max_batch: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            deadline: Some(Duration::from_secs(1)),
            soft_deadline: None,
            fault_hook: None,
            max_batch: 1,
        }
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("deadline", &self.deadline)
            .field("soft_deadline", &self.soft_deadline)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("max_batch", &self.max_batch)
            .finish()
    }
}

/// One retrieval request.
#[derive(Debug, Clone)]
pub struct Query {
    /// Sparse term-space query: `(term id, weight)` pairs.
    pub terms: Vec<(usize, f64)>,
    /// Maximum number of hits to return.
    pub top_k: usize,
    /// Opaque caller tag, forwarded to the [`FaultHook`] and useful for
    /// tracing; the engine itself never interprets it.
    pub tag: u64,
}

impl Query {
    /// A query with tag 0.
    pub fn new(terms: Vec<(usize, f64)>, top_k: usize) -> Self {
        Query {
            terms,
            top_k,
            tag: 0,
        }
    }
}

/// Why a response was served from the degraded path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The index itself reported [`BuildStatus::Degraded`] (its true rank
    /// is below the requested rank).
    DegradedIndex,
    /// LSI-space scoring exceeded the soft deadline; the answer comes from
    /// the raw term-space scorer instead.
    SoftDeadline,
    /// The snapshot was partially opened with this section quarantined
    /// (corrupt on disk); answers come from the term-space fallback, or
    /// from the surviving LSI state when no fallback is attached, until
    /// `lsi recover` rebuilds the section.
    DamagedSection(SectionId),
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::DegradedIndex => write!(f, "index built at degraded rank"),
            DegradeReason::SoftDeadline => write!(f, "soft deadline exceeded"),
            DegradeReason::DamagedSection(section) => {
                write!(f, "snapshot section `{section}` quarantined")
            }
        }
    }
}

/// A successful answer: full-fidelity or explicitly degraded.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Cosine-ranked hits in LSI space — the full-fidelity path.
    Ranked(RankedList),
    /// Hits from the degraded path, with the reason attached so callers
    /// can distinguish "best effort" from "the real thing".
    Degraded {
        /// The ranked hits (term-space cosine, or live-subspace LSI for a
        /// degraded index with no fallback attached).
        hits: RankedList,
        /// Why the engine degraded.
        reason: DegradeReason,
    },
}

impl QueryResponse {
    /// The ranked hits, whichever path produced them.
    pub fn hits(&self) -> &RankedList {
        match self {
            QueryResponse::Ranked(hits) => hits,
            QueryResponse::Degraded { hits, .. } => hits,
        }
    }

    /// True for the degraded path.
    pub fn is_degraded(&self) -> bool {
        matches!(self, QueryResponse::Degraded { .. })
    }
}

/// Typed failure of one submission. Every variant is a defined outcome of
/// the serving contract — a submitter never sees a panic or a hang.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The bounded submission queue was full; the query was shed at
    /// admission and never scored.
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The hard deadline expired before an answer was produced.
    DeadlineExceeded,
    /// The query was malformed (out-of-range term id, non-finite weight);
    /// rejected by validation before scoring.
    BadQuery(BadQuery),
    /// A worker panicked or hit an unexpected error while handling the
    /// query. The worker was respawned; the engine keeps serving.
    Internal {
        /// Human-readable description of what went wrong.
        detail: String,
    },
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Overloaded { capacity } => {
                write!(f, "overloaded: submission queue full ({capacity} slots)")
            }
            QueryError::DeadlineExceeded => write!(f, "deadline exceeded"),
            QueryError::BadQuery(b) => write!(f, "bad query: {b}"),
            QueryError::Internal { detail } => write!(f, "internal error: {detail}"),
            QueryError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A pending response: wait on it to get the query's terminal state.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<QueryResponse, QueryError>>,
}

impl Ticket {
    /// Blocks until the query resolves. The worker always sends exactly
    /// one result per admitted job (panics included, via the isolation
    /// boundary), so this returns promptly once the queue drains; a
    /// severed channel — only possible if the engine was torn down
    /// abnormally — maps to [`QueryError::Internal`].
    pub fn wait(self) -> Result<QueryResponse, QueryError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(QueryError::Internal {
                detail: "reply channel severed before a result was sent".into(),
            })
        })
    }

    /// Blocks until the query resolves or `deadline` passes, whichever is
    /// first. On timeout the ticket itself is handed back (`Err`), so the
    /// caller can hedge — submit a retry elsewhere — and still collect
    /// this original answer later; the pending query is *not* cancelled.
    pub fn wait_until(
        self,
        deadline: Instant,
    ) -> Result<Result<QueryResponse, QueryError>, Ticket> {
        let budget = deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(budget) {
            Ok(result) => Ok(result),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Err(QueryError::Internal {
                detail: "reply channel severed before a result was sent".into(),
            })),
        }
    }
}

struct Job {
    query: Query,
    submitted_at: Instant,
    reply: mpsc::Sender<Result<QueryResponse, QueryError>>,
}

/// The served index: plain in-memory, or wrapped in the write-ahead
/// durability layer so every accepted fold-in is journaled (and fsynced)
/// before it is acknowledged.
enum ServedIndex {
    Plain(LsiIndex),
    Durable(DurableIndex),
}

impl ServedIndex {
    fn index(&self) -> &LsiIndex {
        match self {
            ServedIndex::Plain(index) => index,
            ServedIndex::Durable(durable) => durable.index(),
        }
    }

    /// Applies one fold-in. The durable variant journals first; a storage
    /// failure surfaces as [`QueryError::Internal`] and leaves the
    /// in-memory index untouched — the mutation was never acknowledged.
    fn add_document(&mut self, terms: &[(usize, f64)]) -> Result<usize, QueryError> {
        match self {
            ServedIndex::Plain(index) => index.try_add_document(terms).map_err(map_lsi_error),
            ServedIndex::Durable(durable) => {
                durable.add_document(terms).map_err(map_durability_error)
            }
        }
    }

    /// Appends a document by its precomputed LSI-space coordinates (the
    /// sharding transplant path). The durable variant journals an
    /// `AddVector` frame carrying `doc_id` first.
    fn add_document_vector(&mut self, doc_id: &str, coords: &[f64]) -> Result<usize, QueryError> {
        match self {
            ServedIndex::Plain(index) => index.add_document_vector(coords).map_err(map_lsi_error),
            ServedIndex::Durable(durable) => durable
                .add_document_vector(doc_id, coords)
                .map_err(map_durability_error),
        }
    }

    /// Retires a document (zeroed representation, skipped by cosine
    /// scans). The durable variant journals a `Retire` frame first.
    fn retire_document(&mut self, doc: usize) -> Result<(), QueryError> {
        match self {
            ServedIndex::Plain(index) => index.retire_document(doc).map_err(map_lsi_error),
            ServedIndex::Durable(durable) => {
                durable.retire_document(doc).map_err(map_durability_error)
            }
        }
    }
}

/// Index state guarded by one RwLock: queries share read access; fold-in
/// updates take the write lock.
struct EngineState {
    served: ServedIndex,
    /// Raw term-space fallback over the same (weighted) corpus, kept in
    /// lockstep with fold-in updates; `None` when the engine was built
    /// without a term-document matrix.
    raw: Option<VectorSpaceIndex>,
    /// Cached `matches!(index.build_status(), Degraded)`.
    index_degraded: bool,
    /// First *answer-affecting* quarantined section of a partially opened
    /// snapshot (see [`SectionId::affects_queries`]), cached from
    /// [`LsiIndex::quarantined_sections`] at construction. Bookkeeping
    /// quarantines (`doc-factors`, `foldin-meta`) never touch query
    /// scoring and do not degrade answers.
    quarantined_section: Option<SectionId>,
}

struct Shared {
    state: RwLock<EngineState>,
    stats: ServeStats,
    config: EngineConfig,
}

/// How one incarnation of a worker loop ended.
enum LoopExit {
    /// The submission channel closed: clean shutdown.
    Shutdown,
    /// A job panicked inside the isolation boundary; the caller got
    /// `QueryError::Internal` and this incarnation retires so a fresh one
    /// can be counted in as its respawn.
    PanicCaught,
}

/// A resilient, concurrent query front end over an [`LsiIndex`].
///
/// See the [module docs](self) for the lifecycle. Construction spawns the
/// worker pool; dropping the engine closes the queue, lets workers drain
/// outstanding jobs (every ticket still resolves), and joins them.
///
/// # Examples
///
/// ```
/// use lsi_core::{LsiConfig, LsiIndex};
/// use lsi_ir::TermDocumentMatrix;
/// use lsi_serve::{EngineConfig, Query, QueryEngine};
///
/// let td = TermDocumentMatrix::from_triplets(
///     3,
///     3,
///     &[(0, 0, 2.0), (1, 0, 1.0), (0, 1, 1.0), (2, 2, 3.0)],
/// )
/// .unwrap();
/// let index = LsiIndex::build(&td, LsiConfig::with_rank(2)).unwrap();
/// let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
///
/// let response = engine.query(Query::new(vec![(0, 1.0)], 3)).unwrap();
/// assert!(!response.hits().is_empty());
/// ```
pub struct QueryEngine {
    shared: Arc<Shared>,
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    next_tag: AtomicU64,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("config", &self.shared.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl QueryEngine {
    /// Builds an engine over `index` with no term-space fallback: degraded
    /// situations are still answered (in the index's live subspace) and
    /// marked, but soft deadlines have nothing to fall back to and are
    /// ignored.
    pub fn new(index: LsiIndex, config: EngineConfig) -> Self {
        Self::build(ServedIndex::Plain(index), None, config)
    }

    /// Builds an engine over `index` plus a raw term-space fallback scorer
    /// constructed from `td` (weighted with the index's own weighting
    /// scheme), enabling full degraded-mode retrieval.
    pub fn with_fallback(index: LsiIndex, td: &TermDocumentMatrix, config: EngineConfig) -> Self {
        let weighted = td.weighted(index.config().weighting);
        let raw = VectorSpaceIndex::build(&weighted);
        Self::build(ServedIndex::Plain(index), Some(raw), config)
    }

    /// Builds an engine over a [`DurableIndex`]: every accepted fold-in is
    /// journaled and fsynced *before* [`add_document`](Self::add_document)
    /// returns, so a crash never loses an acknowledged mutation. Pair with
    /// [`checkpoint`](Self::checkpoint) to compact the journal.
    pub fn with_durable(durable: DurableIndex, config: EngineConfig) -> Self {
        Self::build(ServedIndex::Durable(durable), None, config)
    }

    /// Builds an engine over a [`DurableIndex`] plus a raw term-space
    /// fallback scorer built from `td`. The fallback both absorbs soft
    /// deadlines and keeps a partially opened snapshot (quarantined
    /// [`DocVectors`](SectionId::DocVectors)) answering at full corpus
    /// coverage, marked [`DegradeReason::DamagedSection`].
    pub fn with_durable_fallback(
        durable: DurableIndex,
        td: &TermDocumentMatrix,
        config: EngineConfig,
    ) -> Self {
        let weighted = td.weighted(durable.index().config().weighting);
        let raw = VectorSpaceIndex::build(&weighted);
        Self::build(ServedIndex::Durable(durable), Some(raw), config)
    }

    /// # Panics
    /// Panics when the OS refuses to spawn a worker thread (resource
    /// exhaustion at construction time; an engine without workers could
    /// never serve).
    fn build(served: ServedIndex, raw: Option<VectorSpaceIndex>, config: EngineConfig) -> Self {
        let workers = config.workers.max(1);
        let capacity = config.queue_capacity.max(1);
        let index_degraded = matches!(served.index().build_status(), BuildStatus::Degraded { .. });
        let quarantined_section = served
            .index()
            .quarantined_sections()
            .iter()
            .copied()
            .find(|s| s.affects_queries());
        let shared = Arc::new(Shared {
            state: RwLock::new(EngineState {
                served,
                raw,
                index_degraded,
                quarantined_section,
            }),
            stats: ServeStats::new(),
            config,
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(capacity);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("lsi-serve-worker-{i}"))
                    .spawn(move || worker_supervisor(&shared, &rx))
                    .expect("spawning a worker thread")
            })
            .collect();
        QueryEngine {
            shared,
            sender: Some(tx),
            workers: handles,
            next_tag: AtomicU64::new(1),
        }
    }

    /// Submits a query without blocking on its result. Admission control
    /// happens here: a full queue sheds the query with
    /// [`QueryError::Overloaded`] immediately.
    pub fn submit(&self, query: Query) -> Result<Ticket, QueryError> {
        let stats = &self.shared.stats;
        stats.record_submitted();
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            query,
            submitted_at: Instant::now(),
            reply: reply_tx,
        };
        let Some(sender) = &self.sender else {
            stats.record_shed();
            return Err(QueryError::ShuttingDown);
        };
        match sender.try_send(job) {
            Ok(()) => {
                stats.record_admitted();
                Ok(Ticket { rx: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                stats.record_shed();
                Err(QueryError::Overloaded {
                    capacity: self.shared.config.queue_capacity.max(1),
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                stats.record_shed();
                Err(QueryError::ShuttingDown)
            }
        }
    }

    /// Submits and blocks until the query resolves — the convenience
    /// one-shot path.
    pub fn query(&self, query: Query) -> Result<QueryResponse, QueryError> {
        self.submit(query)?.wait()
    }

    /// Folds a new document into the served index (and the term-space
    /// fallback, when present) under the write lock; concurrent queries
    /// see either the old or the new document set, never a torn one.
    /// Malformed updates are rejected with [`QueryError::BadQuery`]. On a
    /// durable engine ([`with_durable`](Self::with_durable)) the mutation
    /// is journaled and fsynced before this returns; a journal I/O failure
    /// surfaces as [`QueryError::Internal`] with nothing applied.
    pub fn add_document(&self, terms: &[(usize, f64)]) -> Result<usize, QueryError> {
        let mut state = self
            .shared
            .state
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        let id = state.served.add_document(terms)?;
        if let Some(raw) = &mut state.raw {
            raw.add_document(terms);
        }
        self.shared.stats.record_doc_added();
        Ok(id)
    }

    /// Appends a document by its precomputed LSI-space coordinates under
    /// the write lock — the sharding transplant path: the bits are stored
    /// verbatim, so the document scores identically to the donor index's
    /// row. On a durable engine the mutation is journaled as an
    /// `AddVector` frame carrying `doc_id` (fsynced) before this returns.
    /// The term-space fallback, when present, is *not* updated (shards are
    /// built without one). Returns the new document's local id.
    pub fn add_document_vector(&self, doc_id: &str, coords: &[f64]) -> Result<usize, QueryError> {
        let mut state = self
            .shared
            .state
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        let id = state.served.add_document_vector(doc_id, coords)?;
        self.shared.stats.record_doc_added();
        Ok(id)
    }

    /// Retires a document under the write lock: its representation is
    /// zeroed so every subsequent scan skips it; the id stays allocated.
    /// On a durable engine the retirement is journaled (fsynced) first.
    pub fn retire_document(&self, doc: usize) -> Result<(), QueryError> {
        let mut state = self
            .shared
            .state
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        state.served.retire_document(doc)
    }

    /// Journals a retirement (fsynced) **without** zeroing the live row.
    /// This is the rebalance tombstone path: the coordinator makes the
    /// document invisible through its own id map, and must not mutate the
    /// row bits while queries snapshotted before the move may still score
    /// against them. Returns `Ok(false)` for engines without a durability
    /// layer (nothing to journal; the caller's map is the only state).
    pub fn log_retire(&self, doc: usize) -> Result<bool, QueryError> {
        let mut state = self
            .shared
            .state
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        match &mut state.served {
            ServedIndex::Plain(index) => {
                if doc >= index.n_docs() {
                    return Err(map_lsi_error(
                        lsi_core::BadQuery::DocOutOfRange {
                            doc,
                            n_docs: index.n_docs(),
                        }
                        .into(),
                    ));
                }
                Ok(false)
            }
            ServedIndex::Durable(durable) => durable
                .log_retire(doc)
                .map(|()| true)
                .map_err(map_durability_error),
        }
    }

    /// Runs `f` against the served index under the read lock (concurrent
    /// with queries, serialized against mutations). This is the
    /// coordinator's window into shard state — reading document rows for
    /// a rebalance transfer, or dumping live state for a compaction —
    /// without cloning the index out.
    pub fn with_index<R>(&self, f: impl FnOnce(&LsiIndex) -> R) -> R {
        let state = self
            .shared
            .state
            .read()
            .unwrap_or_else(|poison| poison.into_inner());
        f(state.served.index())
    }

    /// Rotates a durable engine's journal down to an explicit record list
    /// under the write lock ([`lsi_core::Journal::rotate_with`]), without
    /// touching the snapshot. Returns `Ok(false)` for engines without a
    /// durability layer. This is the compaction path for shards, whose
    /// journal is the canonical document list (the snapshot is an
    /// immutable basis that cannot carry the shard's id map).
    pub fn rotate_journal(&self, records: &[MutationRecord]) -> Result<bool, QueryError> {
        let mut state = self
            .shared
            .state
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        match &mut state.served {
            ServedIndex::Plain(_) => Ok(false),
            ServedIndex::Durable(durable) => durable
                .rotate_journal_with(records)
                .map(|()| true)
                .map_err(|e| QueryError::Internal {
                    detail: format!("journal rotation failed: {e}"),
                }),
        }
    }

    /// Compacts the durability layer under the write lock: atomically
    /// rewrites the snapshot from the live index and rotates the journal.
    /// Returns `Ok(true)` after a compaction, `Ok(false)` for engines
    /// built without a durability layer, and [`QueryError::Internal`] when
    /// the snapshot or rotation I/O fails (the in-memory index keeps
    /// serving either way).
    pub fn checkpoint(&self) -> Result<bool, QueryError> {
        let mut state = self
            .shared
            .state
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        match &mut state.served {
            ServedIndex::Plain(_) => Ok(false),
            ServedIndex::Durable(durable) => {
                durable
                    .checkpoint()
                    .map(|()| true)
                    .map_err(|e| QueryError::Internal {
                        detail: format!("checkpoint failed: {e}"),
                    })
            }
        }
    }

    /// True when the engine journals mutations
    /// ([`with_durable`](Self::with_durable)).
    pub fn is_durable(&self) -> bool {
        matches!(
            self.shared
                .state
                .read()
                .unwrap_or_else(|poison| poison.into_inner())
                .served,
            ServedIndex::Durable(_)
        )
    }

    /// Number of documents currently served.
    pub fn n_docs(&self) -> usize {
        self.shared
            .state
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .served
            .index()
            .n_docs()
    }

    /// A point-in-time copy of the serving statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A fresh engine-unique tag for [`Query::tag`].
    pub fn fresh_tag(&self) -> u64 {
        self.next_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// Closes the submission queue, drains outstanding jobs, and joins the
    /// workers. Equivalent to dropping the engine, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Dropping the sender closes the channel; workers finish queued
        // jobs (every ticket resolves) and then exit.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Outer worker guard: re-enters the loop after a caught panic so the pool
/// never shrinks. Each re-entry is one "respawn" in the stats.
fn worker_supervisor(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        let exit = catch_unwind(AssertUnwindSafe(|| worker_loop(shared, rx)));
        match exit {
            Ok(LoopExit::Shutdown) => break,
            Ok(LoopExit::PanicCaught) => shared.stats.record_respawn(),
            // A panic escaping worker_loop itself (outside the per-job
            // boundary) should be impossible; recover anyway.
            Err(_) => shared.stats.record_respawn(),
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) -> LoopExit {
    loop {
        // Take one job, holding the pickup lock only while waiting for it.
        let job = {
            let guard = rx.lock().unwrap_or_else(|poison| poison.into_inner());
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return LoopExit::Shutdown,
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_job(shared, &job.query, job.submitted_at)
        }));
        let latency = job.submitted_at.elapsed();
        match outcome {
            Ok(result) => {
                shared.stats.record_outcome(outcome_of(&result), latency);
                let _ = job.reply.send(result);
            }
            Err(panic_payload) => {
                shared.stats.record_outcome(Outcome::Internal, latency);
                let detail = panic_message(&*panic_payload);
                let _ = job.reply.send(Err(QueryError::Internal {
                    detail: format!("query worker panicked: {detail}"),
                }));
                // Retire this incarnation; the supervisor respawns it.
                return LoopExit::PanicCaught;
            }
        }
    }
}

fn outcome_of(result: &Result<QueryResponse, QueryError>) -> Outcome {
    match result {
        Ok(QueryResponse::Ranked(_)) => Outcome::CompletedFull,
        Ok(QueryResponse::Degraded { .. }) => Outcome::CompletedDegraded,
        Err(QueryError::DeadlineExceeded) => Outcome::TimedOut,
        Err(QueryError::BadQuery(_)) => Outcome::BadQuery,
        Err(_) => Outcome::Internal,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The per-query state machine (runs inside the panic-isolation boundary).
fn handle_job(
    shared: &Shared,
    query: &Query,
    submitted_at: Instant,
) -> Result<QueryResponse, QueryError> {
    if let Some(hook) = &shared.config.fault_hook {
        hook(query.tag);
    }

    let hard_at = shared.config.deadline.map(|d| submitted_at + d);
    let hard = match hard_at {
        Some(at) => CancelToken::with_deadline_at(at),
        None => CancelToken::new(),
    };
    // Queue wait (or a slow fault hook) may already have consumed the
    // budget; don't start scoring a dead query.
    if hard.is_cancelled() {
        return Err(QueryError::DeadlineExceeded);
    }

    let state = shared
        .state
        .read()
        .unwrap_or_else(|poison| poison.into_inner());
    let index = state.served.index();

    // Validation gates every path, so malformed input can never reach a
    // scorer (LSI or fallback).
    index.validate_query(&query.terms).map_err(map_lsi_error)?;

    // Partially opened snapshot or degraded index: route through the
    // marked fallback path.
    if let Some(reason) = degrade_reason(&state) {
        return degraded_response(&state, query, &hard, reason);
    }

    // Healthy index: score in LSI space under the soft deadline (when a
    // fallback exists to degrade to; otherwise only the hard one).
    let soft_at = match (&state.raw, shared.config.soft_deadline) {
        (Some(_), Some(soft)) => Some(submitted_at + soft),
        _ => None,
    };
    let token = match soft_at {
        Some(at) => hard.child_with_deadline_at(at),
        None => hard.clone(),
    };
    match index.try_query(&query.terms, query.top_k, Some(&token)) {
        Ok(hits) => Ok(QueryResponse::Ranked(hits)),
        Err(LsiError::Cancelled) => {
            if hard.is_cancelled() {
                return Err(QueryError::DeadlineExceeded);
            }
            // Soft deadline fired with budget to spare: degrade to the raw
            // term-space scorer (guaranteed present when soft_at is set).
            // lsi-lint: allow(E1-panic-policy, "invariant: degraded mode is only entered when the fallback index exists")
            let raw = state.raw.as_ref().expect("soft deadline implies fallback");
            let hits = raw.query(&query.terms, query.top_k);
            hard.check().map_err(|_| QueryError::DeadlineExceeded)?;
            Ok(QueryResponse::Degraded {
                hits,
                reason: DegradeReason::SoftDeadline,
            })
        }
        Err(e) => Err(map_lsi_error(e)),
    }
}

/// Why the current state cannot serve full-fidelity LSI answers, if so.
fn degrade_reason(state: &EngineState) -> Option<DegradeReason> {
    // Partially opened snapshot: a quarantined section means the LSI
    // document vectors cannot be trusted (zeroed rows), so prefer the raw
    // term-space scorer; without one, the surviving LSI state still
    // answers (quarantined rows score zero and sink), but marked.
    if let Some(section) = state.quarantined_section {
        return Some(DegradeReason::DamagedSection(section));
    }
    // Degraded index: prefer the raw term-space scorer; without one, the
    // live-subspace LSI answer is still served, but marked.
    if state.index_degraded {
        return Some(DegradeReason::DegradedIndex);
    }
    None
}

/// Answers one query in degraded mode: the raw term-space scorer when a
/// fallback is attached, the surviving LSI state otherwise — either way
/// marked with `reason`.
fn degraded_response(
    state: &EngineState,
    query: &Query,
    hard: &CancelToken,
    reason: DegradeReason,
) -> Result<QueryResponse, QueryError> {
    let hits = match &state.raw {
        Some(raw) => raw.query(&query.terms, query.top_k),
        None => state
            .served
            .index()
            .try_query(&query.terms, query.top_k, Some(hard))
            .map_err(map_lsi_error)?,
    };
    hard.check().map_err(|_| QueryError::DeadlineExceeded)?;
    Ok(QueryResponse::Degraded { hits, reason })
}

fn map_durability_error(e: DurabilityError) -> QueryError {
    match e {
        DurabilityError::Index(inner) => map_lsi_error(inner),
        DurabilityError::Storage(inner) => QueryError::Internal {
            detail: format!("journal append failed: {inner}"),
        },
    }
}

fn map_lsi_error(e: LsiError) -> QueryError {
    match e {
        LsiError::BadQuery(b) => QueryError::BadQuery(b),
        LsiError::Cancelled => QueryError::DeadlineExceeded,
        other => QueryError::Internal {
            detail: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsi_core::LsiConfig;

    fn sample() -> (LsiIndex, TermDocumentMatrix) {
        let td = TermDocumentMatrix::from_triplets(
            6,
            5,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (0, 1, 1.0),
                (2, 2, 3.0),
                (3, 2, 1.0),
                (2, 3, 2.0),
                (4, 4, 1.0),
                (5, 4, 2.0),
            ],
        )
        .unwrap();
        let index = LsiIndex::build(&td, LsiConfig::with_rank(3)).unwrap();
        (index, td)
    }

    #[test]
    fn basic_query_round_trip() {
        let (index, td) = sample();
        let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
        let resp = engine.query(Query::new(vec![(0, 1.0)], 5)).unwrap();
        assert!(!resp.is_degraded());
        assert!(!resp.hits().is_empty());
        let s = engine.stats();
        assert_eq!(s.completed_full, 1);
        assert!(s.consistent());
    }

    /// A deterministic mix of well-formed queries over the sample corpus.
    fn query_mix(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                Query::new(
                    vec![(i % 6, 1.0 + (i % 3) as f64), ((i + 2) % 6, 0.5)],
                    1 + i % 5,
                )
            })
            .collect()
    }

    #[test]
    fn backlog_answers_bitwise_like_try_query_and_books_balance() {
        let (index, _td) = sample();
        // Sequential spec for every query, straight from the index.
        let mix = query_mix(48);
        let want: Vec<Vec<(usize, u64)>> = mix
            .iter()
            .map(|q| {
                index
                    .try_query(&q.terms, q.top_k, None)
                    .unwrap()
                    .hits()
                    .iter()
                    .map(|h| (h.doc, h.score.to_bits()))
                    .collect()
            })
            .collect();
        let engine = QueryEngine::new(
            index,
            EngineConfig {
                workers: 1,
                queue_capacity: 64,
                ..EngineConfig::default()
            },
        );
        // One worker facing a 48-deep standing backlog.
        let tickets: Vec<Ticket> = mix
            .iter()
            .map(|q| {
                engine
                    .submit(q.clone())
                    .expect("queue sized for the backlog")
            })
            .collect();
        for (ticket, want_bits) in tickets.into_iter().zip(&want) {
            let response = ticket.wait().expect("healthy engine query");
            assert!(matches!(response, QueryResponse::Ranked(_)));
            let got: Vec<(usize, u64)> = response
                .hits()
                .hits()
                .iter()
                .map(|h| (h.doc, h.score.to_bits()))
                .collect();
            assert_eq!(&got, want_bits, "engine answer diverged from try_query");
        }
        let s = engine.stats();
        assert_eq!(s.completed_full, 48);
        assert!(s.consistent(), "{s:?}");
    }

    #[test]
    fn backlog_soft_deadline_degrades_per_job() {
        let (index, td) = sample();
        let weighted = td.weighted(index.config().weighting);
        let raw = VectorSpaceIndex::build(&weighted);
        let engine = QueryEngine::with_fallback(
            index,
            &td,
            EngineConfig {
                workers: 1,
                queue_capacity: 64,
                soft_deadline: Some(Duration::ZERO),
                ..EngineConfig::default()
            },
        );
        // Every query's soft budget is already spent at pickup, so each
        // backlogged job comes back Cancelled from the scorer and must turn
        // into its own marked fallback answer.
        let mix = query_mix(32);
        let tickets: Vec<Ticket> = mix
            .iter()
            .map(|q| engine.submit(q.clone()).expect("queue sized for the load"))
            .collect();
        for (ticket, q) in tickets.into_iter().zip(&mix) {
            match ticket.wait().expect("healthy engine query") {
                QueryResponse::Degraded { hits, reason } => {
                    assert_eq!(reason, DegradeReason::SoftDeadline);
                    let want = raw.query(&q.terms, q.top_k);
                    assert_eq!(hits, want, "fallback answer diverged");
                }
                other => panic!("expected soft-deadline degrade, got {other:?}"),
            }
        }
        let s = engine.stats();
        assert_eq!(s.completed_degraded, 32);
        assert!(s.consistent(), "{s:?}");
    }

    #[test]
    fn bad_queries_are_typed_not_panics() {
        let (index, td) = sample();
        let n = index.n_terms();
        let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
        let oor = engine.query(Query::new(vec![(n + 1, 1.0)], 5));
        assert!(matches!(
            oor,
            Err(QueryError::BadQuery(BadQuery::TermOutOfRange { .. }))
        ));
        let nan = engine.query(Query::new(vec![(0, f64::NAN)], 5));
        assert!(matches!(
            nan,
            Err(QueryError::BadQuery(BadQuery::NonFiniteWeight { .. }))
        ));
        assert_eq!(engine.stats().bad_query, 2);
    }

    #[test]
    fn poison_scorer_is_isolated_and_worker_respawns() {
        let (index, td) = sample();
        let config = EngineConfig {
            workers: 2,
            fault_hook: Some(Arc::new(|tag| {
                if tag == 666 {
                    panic!("injected poison scorer");
                }
            })),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::with_fallback(index, &td, config);
        let poison = engine.query(Query {
            terms: vec![(0, 1.0)],
            top_k: 5,
            tag: 666,
        });
        match poison {
            Err(QueryError::Internal { detail }) => {
                assert!(detail.contains("poison"), "{detail}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The engine keeps serving on fresh worker incarnations.
        for _ in 0..8 {
            let ok = engine.query(Query::new(vec![(0, 1.0)], 5)).unwrap();
            assert!(!ok.hits().is_empty());
        }
        // The respawn is recorded by the worker's supervisor *after* the
        // Internal reply reaches the caller, so it lands asynchronously;
        // wait (bounded) instead of racing the supervisor thread.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while engine.stats().worker_respawns < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let s = engine.stats();
        assert_eq!(s.internal, 1);
        assert_eq!(s.worker_respawns, 1);
        assert!(s.consistent());
    }

    #[test]
    fn slow_query_hits_hard_deadline() {
        let (index, td) = sample();
        let config = EngineConfig {
            workers: 2,
            deadline: Some(Duration::from_millis(40)),
            fault_hook: Some(Arc::new(|tag| {
                if tag == 7 {
                    std::thread::sleep(Duration::from_millis(200));
                }
            })),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::with_fallback(index, &td, config);
        let slow = engine.query(Query {
            terms: vec![(0, 1.0)],
            top_k: 5,
            tag: 7,
        });
        assert_eq!(slow, Err(QueryError::DeadlineExceeded));
        assert_eq!(engine.stats().timed_out, 1);
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        let (index, td) = sample();
        let config = EngineConfig {
            workers: 1,
            queue_capacity: 1,
            deadline: None,
            fault_hook: Some(Arc::new(|_| {
                std::thread::sleep(Duration::from_millis(30));
            })),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::with_fallback(index, &td, config);
        let mut tickets = Vec::new();
        let mut shed = 0;
        for _ in 0..12 {
            match engine.submit(Query::new(vec![(0, 1.0)], 3)) {
                Ok(t) => tickets.push(t),
                Err(QueryError::Overloaded { capacity }) => {
                    assert_eq!(capacity, 1);
                    shed += 1;
                }
                Err(other) => panic!("unexpected admission error {other:?}"),
            }
        }
        assert!(shed > 0, "queue never filled");
        for t in tickets {
            t.wait().unwrap();
        }
        let s = engine.stats();
        assert_eq!(s.shed, shed);
        assert!(s.consistent(), "{s:?}");
    }

    #[test]
    fn soft_deadline_degrades_to_term_space() {
        let (index, td) = sample();
        let config = EngineConfig {
            soft_deadline: Some(Duration::ZERO), // degrade immediately
            deadline: Some(Duration::from_secs(30)),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::with_fallback(index, &td, config);
        let resp = engine.query(Query::new(vec![(0, 1.0)], 5)).unwrap();
        match &resp {
            QueryResponse::Degraded { hits, reason } => {
                assert_eq!(*reason, DegradeReason::SoftDeadline);
                assert!(!hits.is_empty());
            }
            other => panic!("expected degraded response, got {other:?}"),
        }
        assert_eq!(engine.stats().completed_degraded, 1);
    }

    #[test]
    fn soft_deadline_without_fallback_is_ignored() {
        let (index, _td) = sample();
        let config = EngineConfig {
            soft_deadline: Some(Duration::ZERO),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::new(index, config);
        let resp = engine.query(Query::new(vec![(0, 1.0)], 5)).unwrap();
        assert!(!resp.is_degraded());
    }

    #[test]
    fn degraded_index_marks_responses() {
        // Two identical documents: true rank 1 < requested rank 2.
        let td = TermDocumentMatrix::from_triplets(
            3,
            2,
            &[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)],
        )
        .unwrap();
        let index = LsiIndex::build(&td, LsiConfig::with_rank(2)).unwrap();
        assert!(matches!(index.build_status(), BuildStatus::Degraded { .. }));
        let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
        let resp = engine.query(Query::new(vec![(0, 1.0)], 5)).unwrap();
        match resp {
            QueryResponse::Degraded { hits, reason } => {
                assert_eq!(reason, DegradeReason::DegradedIndex);
                assert!(!hits.is_empty());
            }
            other => panic!("expected degraded response, got {other:?}"),
        }
    }

    #[test]
    fn add_document_is_immediately_searchable() {
        let (index, td) = sample();
        let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
        let before = engine.n_docs();
        let id = engine.add_document(&[(0, 3.0), (1, 1.0)]).unwrap();
        assert_eq!(id, before);
        assert_eq!(engine.n_docs(), before + 1);
        let resp = engine
            .query(Query::new(vec![(0, 1.0)], before + 1))
            .unwrap();
        assert!(resp.hits().doc_ids().contains(&id));
        // Malformed updates are typed errors.
        let bad = engine.add_document(&[(0, f64::INFINITY)]);
        assert!(matches!(bad, Err(QueryError::BadQuery(_))));
        assert_eq!(engine.stats().docs_added, 1);
    }

    #[test]
    fn durable_engine_journals_mutations_and_recovers() {
        let dir = std::env::temp_dir().join(format!("lsi_serve_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("index.lsix");

        let (index, _td) = sample();
        let durable = DurableIndex::create(&snapshot, index).unwrap();
        let engine = QueryEngine::with_durable(durable, EngineConfig::default());
        assert!(engine.is_durable());

        let before = engine.n_docs();
        engine.add_document(&[(0, 2.0), (1, 1.0)]).unwrap();
        engine.add_document(&[(2, 1.5)]).unwrap();
        assert_eq!(engine.n_docs(), before + 2);
        // Malformed updates never reach the journal.
        assert!(matches!(
            engine.add_document(&[(0, f64::NAN)]),
            Err(QueryError::BadQuery(_))
        ));
        let s = engine.stats();
        assert_eq!(s.docs_added, 2);
        assert!(s.consistent());

        // Pre-checkpoint crash model: journal replay restores both docs.
        let (recovered, report) = DurableIndex::open_durable(&snapshot).unwrap();
        assert_eq!(recovered.index().n_docs(), before + 2);
        assert_eq!(report.frames_replayed, 2);
        drop(recovered);

        assert!(engine.checkpoint().unwrap(), "durable engine compacts");
        let (recovered, report) = DurableIndex::open_durable(&snapshot).unwrap();
        assert_eq!(recovered.index().n_docs(), before + 2);
        assert_eq!(report.snapshot_docs, before + 2);
        assert_eq!(report.frames_replayed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_engine_checkpoint_is_a_typed_no_op() {
        let (index, td) = sample();
        let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
        assert!(!engine.is_durable());
        assert_eq!(engine.checkpoint(), Ok(false));
    }

    #[test]
    fn shutdown_resolves_outstanding_tickets() {
        let (index, td) = sample();
        let config = EngineConfig {
            workers: 1,
            queue_capacity: 16,
            deadline: None,
            fault_hook: Some(Arc::new(|_| {
                std::thread::sleep(Duration::from_millis(5));
            })),
            ..EngineConfig::default()
        };
        let engine = QueryEngine::with_fallback(index, &td, config);
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| engine.submit(Query::new(vec![(0, 1.0)], 3)).unwrap())
            .collect();
        engine.shutdown(); // drains the queue and joins workers
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    /// Worker scoring composes with the linalg thread knob: the index build
    /// and every scored query run through the parallel kernels, and the
    /// ranked results (documents *and* scores, bitwise) are identical for
    /// every `LSI_THREADS` setting.
    #[test]
    fn scoring_is_bitwise_invariant_across_linalg_threads() {
        use lsi_linalg::parallel::set_threads;

        let run = |threads: usize| {
            set_threads(threads);
            let (index, td) = sample();
            let engine = QueryEngine::with_fallback(index, &td, EngineConfig::default());
            let resp = engine
                .query(Query::new(vec![(0, 1.0), (2, 0.5)], 5))
                .unwrap();
            resp.hits()
                .hits()
                .iter()
                .map(|h| (h.doc, h.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let reference = run(1);
        for t in [2, 3, 8] {
            assert_eq!(run(t), reference, "scoring differs at {t} linalg threads");
        }
        set_threads(0);
    }
}
