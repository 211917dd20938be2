//! Fault-tolerant sharded scatter-gather serving.
//!
//! A [`Cluster`] splits a corpus across `N` document-partitioned shards.
//! Every shard carries the **same** rank-`k` spectral basis
//! ([`LsiIndex::basis_clone`]) and only its own documents' LSI-space rows,
//! transplanted bitwise ([`LsiIndex::add_document_vector`]); a document
//! therefore scores to *identical bits* on whichever shard holds it, which
//! is what makes the merged answer independent of the partitioning.
//!
//! ## Coordinator state machine (per query)
//!
//! ```text
//! validate ──► scatter (skip ejected) ──► gather slot s = 0..N in order
//!    │ bad?          │ submit refused?        │
//!    ▼               ▼                        ▼
//! BadQuery      shard failure        wait soft deadline ── hit? ──► hedge
//!                                         │                          │
//!                                         ▼                          ▼
//!                                     map → slot s        wait hard deadline
//!                                                             │ miss?
//!                                                             ▼
//!                                                       shard failure
//! answered < quorum ──► QuorumLost
//! all N, none degraded ──► Complete(top-k)
//! otherwise ──► Degraded { MissingShards(n) | DegradedReplies(n) }
//! ```
//!
//! ## Order-fixed merge
//!
//! Replies land in **slot `s`** (shard-index order), never in arrival
//! order; [`merge_top_k`] concatenates the slots in index order, sorts by
//! `(doc, score)`, deduplicates by global id, and re-ranks through
//! [`RankedList::from_hits`] (score-descending, doc-ascending ties). The
//! merged bits are therefore identical for every shard count, every
//! partitioning, and every reply arrival order — the serving-layer
//! analogue of `lsi_linalg::parallel`'s order-fixed reductions.
//!
//! ## Failure containment
//!
//! Per-shard *soft* deadlines trigger a hedged retry into the same shard's
//! pool (a respawned or idle worker often answers while the first pick is
//! stuck); the *hard* deadline gives up on the shard for this query.
//! A consecutive-failure circuit breaker ejects a misbehaving shard from
//! the scatter set ([`Cluster::revive`] closes it again). As long as the
//! configured quorum fraction of shards answers, the response degrades
//! honestly — [`ClusterResponse::Degraded`] with the missing-shard count —
//! instead of erroring; below quorum the query fails loudly with
//! [`ClusterError::QuorumLost`]. A response is **never** silently wrong:
//! every hit it does return carries the same score bits the full corpus
//! would produce.
//!
//! ## Durability & rebalance crash-consistency
//!
//! A durable shard is anchored to an immutable basis-only snapshot
//! (`shard-NNN.lsix`, zero documents); its write-ahead journal is the
//! canonical document list (`AddVector` frames carry the global id).
//! [`Cluster::rebalance`] moves a document by appending (and fsyncing) the
//! `AddVector` on the **destination journal before** tombstoning the
//! source — a crash between the two leaves the document on both shards,
//! and the merge's global-id dedup collapses the copies (identical bits)
//! back to exactly-once. The source tombstone is journal-only
//! ([`QueryEngine::log_retire`]): the live row is never zeroed, so queries
//! that snapshotted the source's id map before the move still score
//! against stable bits; visibility is decided solely by the per-shard id
//! map, snapshotted atomically against moves at scatter time.
//! [`Cluster::compact_shard`] bounds the journal by rotating it down to a
//! replayable state dump; shard [`split`](Cluster::split) and
//! [`merge_shards`](Cluster::merge_shards) are built from the same
//! journaled move, so every lifecycle step is recoverable by replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use lsi_core::{
    journal_path, BadQuery, DurableIndex, Journal, LsiError, LsiIndex, MutationRecord,
    RecoveryReport, StorageError,
};
use lsi_ir::retrieval::{RankedList, SearchHit};

use crate::engine::{EngineConfig, FaultHook, Query, QueryEngine, QueryError, QueryResponse};
use crate::stats::{ClusterStatsSnapshot, ShardStatsRow};
use crate::transport::{LocalShard, PendingReply, ShardTransport};

/// Builds the per-shard [`FaultHook`] at cluster construction; the chaos
/// suite uses it to give each shard its own failure personality.
pub type ShardFaultHooks = Arc<dyn Fn(usize) -> Option<FaultHook> + Send + Sync>;

/// Tuning knobs for a [`Cluster`].
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of shards to partition the corpus into (≥ 1; silently
    /// clamped). Ignored by [`Cluster::open`], which trusts the on-disk
    /// shard set.
    pub shards: usize,
    /// Per-shard engine configuration. The engine's own `deadline` is
    /// overridden with [`hard_deadline`](Self::hard_deadline) so worker-side
    /// cooperative cancellation matches the coordinator's give-up point.
    /// Each shard worker answers one scattered query at a time, so the
    /// order-fixed merge yields partition-invariant answers for any worker
    /// count (property-tested in `tests/cluster_properties.rs`).
    pub engine: EngineConfig,
    /// Per-shard soft deadline: once a shard's reply is this late, the
    /// coordinator hedges a retry into the shard's pool. `None` disables
    /// hedging.
    pub soft_deadline: Option<Duration>,
    /// Per-shard hard deadline: a shard that has not answered (original or
    /// hedge) by this point counts as failed for the query.
    pub hard_deadline: Duration,
    /// Consecutive failures after which the circuit breaker ejects a shard
    /// from the scatter set.
    pub breaker_threshold: u64,
    /// Minimum fraction of shards (of the full shard set) that must answer
    /// for a response to be produced at all; below it the query fails with
    /// [`ClusterError::QuorumLost`].
    pub quorum: f64,
    /// Explicit document → shard assignment (length = corpus size, values
    /// `< shards`). `None` assigns document `j` to shard `j % shards`.
    pub assignment: Option<Vec<usize>>,
    /// Optional per-shard fault-hook factory (chaos testing only); takes
    /// precedence over `engine.fault_hook` for shards where it returns
    /// `Some`.
    pub fault_hooks: Option<ShardFaultHooks>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            engine: EngineConfig::default(),
            soft_deadline: None,
            hard_deadline: Duration::from_secs(1),
            breaker_threshold: 3,
            quorum: 0.5,
            assignment: None,
            fault_hooks: None,
        }
    }
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("shards", &self.shards)
            .field("engine", &self.engine)
            .field("soft_deadline", &self.soft_deadline)
            .field("hard_deadline", &self.hard_deadline)
            .field("breaker_threshold", &self.breaker_threshold)
            .field("quorum", &self.quorum)
            .field("assignment", &self.assignment.is_some())
            .field("fault_hooks", &self.fault_hooks.is_some())
            .finish()
    }
}

/// Why a cluster response is degraded rather than complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterDegradeReason {
    /// This many shards (ejected, refused, failed, or past the hard
    /// deadline) contributed nothing; their documents are absent from the
    /// hits.
    MissingShards(usize),
    /// Every shard answered, but this many answered through their own
    /// degraded path.
    DegradedReplies(usize),
}

impl std::fmt::Display for ClusterDegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterDegradeReason::MissingShards(n) => write!(f, "{n} shard(s) missing"),
            ClusterDegradeReason::DegradedReplies(n) => write!(f, "{n} degraded shard replies"),
        }
    }
}

/// A cluster answer: complete, or honestly marked partial.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterResponse {
    /// Every shard answered at full fidelity; the hits are bitwise what a
    /// single unsharded index would return.
    Complete(RankedList),
    /// Quorum was met but the answer is partial or best-effort; the reason
    /// says exactly how.
    Degraded {
        /// The merged hits over the shards that did answer.
        hits: RankedList,
        /// Why the response is partial.
        reason: ClusterDegradeReason,
    },
}

impl ClusterResponse {
    /// The merged hits, whichever path produced them.
    pub fn hits(&self) -> &RankedList {
        match self {
            ClusterResponse::Complete(hits) => hits,
            ClusterResponse::Degraded { hits, .. } => hits,
        }
    }

    /// True for a partial / best-effort answer.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ClusterResponse::Degraded { .. })
    }
}

/// Typed failure of a cluster operation.
#[derive(Debug)]
pub enum ClusterError {
    /// The query was malformed; rejected before the scatter.
    BadQuery(BadQuery),
    /// Fewer shards answered than the quorum fraction requires.
    QuorumLost {
        /// Shards that produced a usable reply.
        answered: usize,
        /// Minimum answering shards required by the configured quorum.
        needed: usize,
        /// Total shards in the cluster.
        shards: usize,
    },
    /// A storage / journal operation failed.
    Storage(StorageError),
    /// A shard engine rejected a mutation or lifecycle operation.
    Query(QueryError),
    /// A rebalance named a global document id not present on the source
    /// shard.
    UnknownDocument {
        /// The missing global id.
        doc: u64,
    },
    /// The operation's arguments are invalid for this cluster (shard index
    /// out of range, identical source and destination, bad assignment…).
    BadOperation(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadQuery(b) => write!(f, "bad query: {b}"),
            ClusterError::QuorumLost {
                answered,
                needed,
                shards,
            } => write!(
                f,
                "quorum lost: {answered}/{shards} shards answered, {needed} required"
            ),
            ClusterError::Storage(e) => write!(f, "shard storage error: {e}"),
            ClusterError::Query(e) => write!(f, "shard engine error: {e}"),
            ClusterError::UnknownDocument { doc } => {
                write!(f, "document {doc} not found on the source shard")
            }
            ClusterError::BadOperation(detail) => write!(f, "bad cluster operation: {detail}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Storage(e) => Some(e),
            ClusterError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> Self {
        ClusterError::Storage(e)
    }
}

impl From<QueryError> for ClusterError {
    fn from(e: QueryError) -> Self {
        ClusterError::Query(e)
    }
}

/// One shard: its transport plus the coordinator's local → global id map.
/// `ids[local] = None` marks a tombstone (moved away or retired); the map,
/// not the index row, is the single source of visibility truth. The
/// transport is in-process ([`LocalShard`]) or a socket RPC client to a
/// shard daemon — the cell, and everything downstream of it, cannot tell.
struct ShardCell {
    /// `None` only for shards that failed to open (down slots) or while a
    /// crash-recovery swap is mid-flight; every accessor treats it as a
    /// shard failure.
    transport: Option<Box<dyn ShardTransport>>,
    ids: Vec<Option<u64>>,
    /// Shard incarnation, bumped by every crash-recovery swap — the
    /// in-process [`Cluster::crash_shard_with`] and the supervisor's
    /// daemon respawn alike. Journal replay re-applies `Retire` frames by
    /// zeroing rows, so a recovered shard can score a pre-crash id
    /// snapshot differently than the incarnation the scatter submitted
    /// to — hedges therefore never cross incarnations (the shard's
    /// contribution is honestly dropped and the answer degrades instead).
    generation: u64,
}

impl ShardCell {
    fn alive(&self) -> usize {
        self.ids.iter().filter(|id| id.is_some()).count()
    }

    fn tombstones(&self) -> usize {
        self.ids.len() - self.alive()
    }
}

/// Coordinator-side per-shard health counters (see [`ShardStatsRow`]).
#[derive(Default)]
struct ShardHealth {
    queries: AtomicU64,
    failures: AtomicU64,
    consecutive: AtomicU64,
    deadline_hits: AtomicU64,
    hedges: AtomicU64,
    ejected: AtomicBool,
}

/// Coordinator-level terminal-state counters (see [`ClusterStatsSnapshot`]).
#[derive(Default)]
struct ClusterCounters {
    queries: AtomicU64,
    complete: AtomicU64,
    degraded: AtomicU64,
    quorum_lost: AtomicU64,
    bad_query: AtomicU64,
}

/// What the scatter produced for one shard slot.
enum ShardAttempt {
    /// Breaker open (or engine mid-recovery): not queried.
    Skipped,
    /// `submit` was refused (overload / shutdown): counts as a failure.
    Refused,
    /// In flight; `ids` is the submit-time id-map snapshot the reply (and
    /// any hedge reply) is mapped through.
    InFlight {
        pending: PendingReply,
        ids: Vec<Option<u64>>,
        generation: u64,
        submitted: Instant,
    },
}

/// A document-partitioned scatter-gather cluster over one LSI model.
///
/// See the [module docs](self) for the architecture. All query and
/// rebalance paths take `&self` and are safe to drive from many threads;
/// only the shard-set lifecycle ops ([`split`](Self::split),
/// [`merge_shards`](Self::merge_shards)) need `&mut self`.
///
/// # Examples
///
/// ```
/// use lsi_core::{LsiConfig, LsiIndex};
/// use lsi_ir::TermDocumentMatrix;
/// use lsi_serve::cluster::{Cluster, ClusterConfig};
/// use lsi_serve::Query;
///
/// let td = TermDocumentMatrix::from_triplets(
///     4,
///     4,
///     &[(0, 0, 2.0), (1, 0, 1.0), (0, 1, 1.0), (2, 2, 3.0), (3, 3, 1.0)],
/// )
/// .unwrap();
/// let index = LsiIndex::build(&td, LsiConfig::with_rank(2)).unwrap();
/// let config = ClusterConfig {
///     shards: 2,
///     ..ClusterConfig::default()
/// };
/// let cluster = Cluster::build(&index, config).unwrap();
/// let response = cluster.query(Query::new(vec![(0, 1.0)], 4)).unwrap();
/// assert!(!response.is_degraded());
/// cluster.shutdown();
/// ```
pub struct Cluster {
    /// The shared spectral basis (zero documents); folds queries in and
    /// validates them without touching any shard.
    basis: LsiIndex,
    cells: Vec<RwLock<ShardCell>>,
    health: Vec<ShardHealth>,
    counters: ClusterCounters,
    config: ClusterConfig,
    /// Shard directory for durable clusters; `None` for in-memory ones.
    dir: Option<PathBuf>,
    next_gid: AtomicU64,
    /// Serializes document moves against query scatters: a scatter holds
    /// the read side while snapshotting **all** shard id maps, so every
    /// query sees each move either entirely applied or not at all — the
    /// lock that turns the two-journal move into one atom from a reader's
    /// point of view.
    moves: RwLock<()>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.cells.len())
            .field("durable", &self.dir.is_some())
            .field("config", &self.config)
            .finish()
    }
}

/// Snapshot filename for shard `shard` under `dir`.
fn shard_snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.lsix"))
}

/// Maps one shard reply's local hits to global ids through the submit-time
/// id-map snapshot. Locals past the snapshot (documents added after the
/// submit) and tombstoned locals are dropped — visibility is exactly the
/// snapshot's.
fn map_hits(hits: &RankedList, ids: &[Option<u64>]) -> Vec<SearchHit> {
    hits.hits()
        .iter()
        .filter_map(|h| {
            ids.get(h.doc).copied().flatten().map(|gid| SearchHit {
                doc: gid as usize,
                score: h.score,
            })
        })
        .collect()
}

/// The order-fixed reduction over per-shard reply slots: concatenates the
/// slots in shard-index order, deduplicates by global id (copies produced
/// by an interrupted move carry identical score bits, so which copy
/// survives is immaterial), and re-ranks score-descending with ascending-id
/// ties. The output bits depend only on the *set* of `(gid, score)` pairs —
/// never on shard count, reply arrival order, or slot permutation of equal
/// content.
pub fn merge_top_k(slots: &[Option<Vec<SearchHit>>], top_k: usize) -> RankedList {
    let mut all: Vec<SearchHit> = Vec::new();
    for hits in slots.iter().flatten() {
        all.extend_from_slice(hits);
    }
    all.sort_by(|a, b| match a.doc.cmp(&b.doc) {
        std::cmp::Ordering::Equal => b.score.total_cmp(&a.score),
        other => other,
    });
    all.dedup_by(|a, b| a.doc == b.doc);
    RankedList::from_hits(all).truncated(top_k)
}

/// Rebuilds a shard's local → global id map by mirroring the journal
/// replay: `AddVector` frames carry the global id as a decimal string
/// (empty / unparsable ids — e.g. a compaction dump of a tombstoned row —
/// map to `None`), legacy fold-in frames have no global identity, and
/// `Retire` frames tombstone their slot.
pub(crate) fn rebuild_ids(
    snapshot_docs: usize,
    records: &[MutationRecord],
    n_docs: usize,
) -> Vec<Option<u64>> {
    let mut ids: Vec<Option<u64>> = vec![None; snapshot_docs];
    for record in records {
        match record {
            MutationRecord::AddVector { seq, doc_id, .. } => {
                if *seq as usize == ids.len() {
                    ids.push(doc_id.parse::<u64>().ok());
                }
            }
            MutationRecord::AddDocument { seq, .. } | MutationRecord::FoldIn { seq, .. } => {
                if *seq as usize == ids.len() {
                    ids.push(None);
                }
            }
            MutationRecord::Retire { seq, doc } => {
                if *seq as usize <= ids.len() {
                    if let Some(slot) = ids.get_mut(*doc as usize) {
                        *slot = None;
                    }
                }
            }
            MutationRecord::Checkpoint { .. } => {}
        }
    }
    // Paranoid alignment with the replayed index; the chaos suite's
    // fingerprint check would catch any divergence this hides.
    ids.truncate(n_docs);
    while ids.len() < n_docs {
        ids.push(None);
    }
    ids
}

/// The replayable state dump a compaction rotates the journal down to: one
/// `AddVector` per local row (tombstoned rows keep their live bits and an
/// empty global id) followed by one `Retire` per tombstone. Replaying the
/// dump reproduces the same document count, the same visible `(gid, row)`
/// set, and the same next sequence number as the live shard.
pub(crate) fn state_dump(ids: &[Option<u64>], index: &LsiIndex) -> Vec<MutationRecord> {
    let n = ids.len();
    let mut records = Vec::with_capacity(n + ids.iter().filter(|id| id.is_none()).count());
    for (local, gid) in ids.iter().enumerate() {
        records.push(MutationRecord::AddVector {
            seq: local as u64,
            doc_id: gid.map(|g| g.to_string()).unwrap_or_default(),
            coords: index.doc_vector(local).to_vec(),
        });
    }
    for (local, gid) in ids.iter().enumerate() {
        if gid.is_none() {
            records.push(MutationRecord::Retire {
                seq: n as u64,
                doc: local as u64,
            });
        }
    }
    records
}

impl Cluster {
    /// Partitions `index`'s documents into an in-memory cluster. Document
    /// `j` keeps `j` as its global id, goes to shard `j % shards` (or
    /// where [`ClusterConfig::assignment`] says), and its LSI-space row is
    /// transplanted bitwise — so the cluster's merged answers are bitwise
    /// those of `index` itself.
    pub fn build(index: &LsiIndex, config: ClusterConfig) -> Result<Self, ClusterError> {
        Self::assemble(index, None, config)
    }

    /// Like [`build`](Self::build), but every shard is durable: a
    /// basis-only snapshot `shard-NNN.lsix` plus a write-ahead journal
    /// seeded with one `AddVector` frame per document — the journal *is*
    /// the shard's canonical document list. The directory is created if
    /// missing; reopen with [`open`](Self::open).
    pub fn create(
        index: &LsiIndex,
        dir: &Path,
        config: ClusterConfig,
    ) -> Result<Self, ClusterError> {
        std::fs::create_dir_all(dir).map_err(StorageError::from)?;
        Self::assemble(index, Some(dir), config)
    }

    fn assemble(
        index: &LsiIndex,
        dir: Option<&Path>,
        config: ClusterConfig,
    ) -> Result<Self, ClusterError> {
        let config = ClusterConfig {
            shards: config.shards.max(1),
            ..config
        };
        if !(config.quorum > 0.0 && config.quorum <= 1.0) {
            return Err(ClusterError::BadOperation(format!(
                "quorum fraction must be in (0, 1], got {}",
                config.quorum
            )));
        }
        let m = index.n_docs();
        let assignment: Vec<usize> = match &config.assignment {
            Some(a) => {
                if a.len() != m {
                    return Err(ClusterError::BadOperation(format!(
                        "assignment length {} != corpus size {m}",
                        a.len()
                    )));
                }
                if let Some(&bad) = a.iter().find(|&&s| s >= config.shards) {
                    return Err(ClusterError::BadOperation(format!(
                        "assignment names shard {bad}, but the cluster has {}",
                        config.shards
                    )));
                }
                a.clone()
            }
            None => (0..m).map(|j| j % config.shards).collect(),
        };

        let basis = index.basis_clone();
        let mut cells = Vec::with_capacity(config.shards);
        let mut health = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let docs: Vec<(u64, Vec<f64>)> = (0..m)
                .filter(|&j| assignment[j] == shard)
                .map(|j| (j as u64, index.doc_vector(j).to_vec()))
                .collect();
            let cell = match dir {
                Some(dir) => Self::create_durable_shard(dir, shard, &basis, &docs, &config)?,
                None => Self::create_plain_shard(&basis, &docs, shard, &config)?,
            };
            cells.push(RwLock::new(cell));
            health.push(ShardHealth::default());
        }
        Ok(Cluster {
            basis,
            cells,
            health,
            counters: ClusterCounters::default(),
            config,
            dir: dir.map(Path::to_path_buf),
            next_gid: AtomicU64::new(m as u64),
            moves: RwLock::new(()),
        })
    }

    fn engine_config_for(config: &ClusterConfig, shard: usize) -> EngineConfig {
        let mut engine = config.engine.clone();
        engine.deadline = Some(config.hard_deadline);
        if let Some(hooks) = &config.fault_hooks {
            if let Some(hook) = hooks(shard) {
                engine.fault_hook = Some(hook);
            }
        }
        engine
    }

    fn create_plain_shard(
        basis: &LsiIndex,
        docs: &[(u64, Vec<f64>)],
        shard: usize,
        config: &ClusterConfig,
    ) -> Result<ShardCell, ClusterError> {
        let mut index = basis.clone();
        for (_, coords) in docs {
            index.add_document_vector(coords).map_err(|e| {
                ClusterError::Query(QueryError::Internal {
                    detail: format!("shard seeding rejected a row: {e}"),
                })
            })?;
        }
        let engine = QueryEngine::new(index, Self::engine_config_for(config, shard));
        Ok(ShardCell {
            transport: Some(Box::new(LocalShard::new(engine))),
            ids: docs.iter().map(|&(gid, _)| Some(gid)).collect(),
            generation: 0,
        })
    }

    fn create_durable_shard(
        dir: &Path,
        shard: usize,
        basis: &LsiIndex,
        docs: &[(u64, Vec<f64>)],
        config: &ClusterConfig,
    ) -> Result<ShardCell, ClusterError> {
        let snapshot = shard_snapshot_path(dir, shard);
        lsi_core::write_index_atomic(&snapshot, basis)?;
        let records: Vec<MutationRecord> = docs
            .iter()
            .enumerate()
            .map(|(local, (gid, coords))| MutationRecord::AddVector {
                seq: local as u64,
                doc_id: gid.to_string(),
                coords: coords.clone(),
            })
            .collect();
        Journal::create_with(&journal_path(&snapshot), &records)?;
        let (durable, report, records) = DurableIndex::open_durable_with_records(&snapshot)?;
        let ids = rebuild_ids(report.snapshot_docs, &records, durable.index().n_docs());
        let engine = QueryEngine::with_durable(durable, Self::engine_config_for(config, shard));
        Ok(ShardCell {
            transport: Some(Box::new(LocalShard::new(engine))),
            ids,
            generation: 0,
        })
    }

    /// Reopens a durable cluster from its shard directory, replaying every
    /// shard's journal over its basis snapshot and rebuilding the id maps
    /// from the replayed records. Returns one [`RecoveryReport`] per shard
    /// (shard-index order). `config.shards` is ignored — the on-disk shard
    /// set wins.
    pub fn open(
        dir: &Path,
        config: ClusterConfig,
    ) -> Result<(Self, Vec<RecoveryReport>), ClusterError> {
        let (cluster, reports) = Self::open_tolerant(dir, config)?;
        let mut out = Vec::with_capacity(reports.len());
        for report in reports {
            out.push(report.map_err(ClusterError::Storage)?);
        }
        Ok((cluster, out))
    }

    /// [`open`](Self::open), tolerating unopenable shards: a shard whose
    /// snapshot is too damaged to open at all (directory or
    /// essential-section corruption) is left *down* — its slot remains,
    /// the scatter skips it, and answers are honestly marked
    /// [`MissingShards`](ClusterDegradeReason::MissingShards) under the
    /// usual quorum rules — instead of failing the whole cluster open.
    /// Damage is thereby contained twice over: a flipped byte in one
    /// shard's degradable section quarantines just that section (the
    /// shard still opens), and essential damage downs just that shard.
    ///
    /// Returns, per shard, `Ok(report)` or the open error that downed it.
    /// Fails only when *no* shard opens (nothing to serve, and no basis
    /// to serve it with).
    pub fn open_tolerant(
        dir: &Path,
        config: ClusterConfig,
    ) -> Result<(Self, Vec<Result<RecoveryReport, StorageError>>), ClusterError> {
        let mut snapshots: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(StorageError::from)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| {
                path.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".lsix"))
            })
            .collect();
        snapshots.sort();
        if snapshots.is_empty() {
            return Err(ClusterError::BadOperation(format!(
                "no shard-NNN.lsix snapshots under {}",
                dir.display()
            )));
        }

        let mut cells = Vec::with_capacity(snapshots.len());
        let mut health = Vec::with_capacity(snapshots.len());
        let mut reports = Vec::with_capacity(snapshots.len());
        let mut basis: Option<LsiIndex> = None;
        let mut next_gid = 0u64;
        for (shard, snapshot) in snapshots.iter().enumerate() {
            let (durable, report, records) = match DurableIndex::open_durable_with_records(snapshot)
            {
                Ok(opened) => opened,
                Err(e) => {
                    // Down, not fatal: the slot stays so shard indices and
                    // quorum arithmetic are unchanged, and the scatter
                    // simply gets nothing from it.
                    cells.push(RwLock::new(ShardCell {
                        transport: None,
                        ids: Vec::new(),
                        generation: 0,
                    }));
                    health.push(ShardHealth::default());
                    reports.push(Err(e));
                    continue;
                }
            };
            let ids = rebuild_ids(report.snapshot_docs, &records, durable.index().n_docs());
            for gid in ids.iter().flatten() {
                next_gid = next_gid.max(gid + 1);
            }
            if basis.is_none() {
                basis = Some(durable.index().basis_clone());
            }
            let engine =
                QueryEngine::with_durable(durable, Self::engine_config_for(&config, shard));
            cells.push(RwLock::new(ShardCell {
                transport: Some(Box::new(LocalShard::new(engine))),
                ids,
                generation: 0,
            }));
            health.push(ShardHealth::default());
            reports.push(Ok(report));
        }
        let n_shards = cells.len();
        let Some(basis) = basis else {
            // Every shard failed to open; surface the first failure (the
            // caller cannot serve anything, so this is a hard error).
            let first = reports.into_iter().find_map(Result::err);
            return Err(match first {
                Some(e) => ClusterError::Storage(e),
                None => ClusterError::BadOperation("shard scan produced no basis".to_string()),
            });
        };
        Ok((
            Cluster {
                basis,
                cells,
                health,
                counters: ClusterCounters::default(),
                config: ClusterConfig {
                    shards: n_shards,
                    ..config
                },
                dir: Some(dir.to_path_buf()),
                next_gid: AtomicU64::new(next_gid),
                moves: RwLock::new(()),
            },
            reports,
        ))
    }

    /// Number of shards (stable indices; merged-away shards stay as empty
    /// slots).
    pub fn n_shards(&self) -> usize {
        self.cells.len()
    }

    /// Documents currently visible across all shards.
    pub fn n_docs(&self) -> usize {
        self.cells
            .iter()
            .map(|cell| cell.read().unwrap_or_else(|p| p.into_inner()).alive())
            .sum()
    }

    /// True when the shards journal their mutations to disk.
    pub fn is_durable(&self) -> bool {
        self.dir.is_some()
    }

    /// The visible global ids on `shard`, in local-slot order.
    pub fn shard_docs(&self, shard: usize) -> Result<Vec<u64>, ClusterError> {
        self.check_shard(shard)?;
        let cell = self.cells[shard].read().unwrap_or_else(|p| p.into_inner());
        Ok(cell.ids.iter().copied().flatten().collect())
    }

    fn check_shard(&self, shard: usize) -> Result<(), ClusterError> {
        if shard >= self.cells.len() {
            return Err(ClusterError::BadOperation(format!(
                "shard {shard} out of range (cluster has {})",
                self.cells.len()
            )));
        }
        Ok(())
    }

    fn quorum_needed(&self) -> usize {
        let n = self.cells.len();
        (((self.config.quorum * n as f64).ceil()) as usize).clamp(1, n)
    }

    fn note_failure(&self, shard: usize) {
        self.health[shard].failures.fetch_add(1, Ordering::Relaxed);
        let consecutive = self.health[shard]
            .consecutive
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        if consecutive >= self.config.breaker_threshold {
            self.health[shard].ejected.store(true, Ordering::Relaxed);
        }
    }

    /// Closes `shard`'s circuit breaker: clears the consecutive-failure
    /// count and puts the shard back into the scatter set.
    pub fn revive(&self, shard: usize) -> Result<(), ClusterError> {
        self.check_shard(shard)?;
        self.health[shard].consecutive.store(0, Ordering::Relaxed);
        self.health[shard].ejected.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Scatters `query` to every non-ejected shard, gathers with per-shard
    /// soft-deadline hedging and hard-deadline give-up, and merges the
    /// replies with the order-fixed reduction ([`merge_top_k`]). See the
    /// [module docs](self) for the full state machine.
    pub fn query(&self, query: Query) -> Result<ClusterResponse, ClusterError> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.basis.validate_query(&query.terms) {
            self.counters.bad_query.fetch_add(1, Ordering::Relaxed);
            return Err(match e {
                LsiError::BadQuery(bad) => ClusterError::BadQuery(bad),
                other => ClusterError::Query(QueryError::Internal {
                    detail: other.to_string(),
                }),
            });
        }

        let n = self.cells.len();
        let mut attempts: Vec<ShardAttempt> = Vec::with_capacity(n);
        {
            // Hold the move lock across the whole scatter so every shard's
            // id-map snapshot reflects the same set of completed moves.
            let _moves = self.moves.read().unwrap_or_else(|p| p.into_inner());
            for (shard, cell) in self.cells.iter().enumerate() {
                if self.health[shard].ejected.load(Ordering::Relaxed) {
                    attempts.push(ShardAttempt::Skipped);
                    continue;
                }
                let cell = cell.read().unwrap_or_else(|p| p.into_inner());
                let Some(transport) = &cell.transport else {
                    attempts.push(ShardAttempt::Skipped);
                    continue;
                };
                self.health[shard].queries.fetch_add(1, Ordering::Relaxed);
                // Ask for every local hit: truncation happens once, in the
                // merged global ranking, so a shard-local cutoff can never
                // change the answer.
                let local = Query {
                    terms: query.terms.clone(),
                    top_k: usize::MAX,
                    tag: query.tag,
                };
                match transport.submit(local) {
                    Ok(pending) => attempts.push(ShardAttempt::InFlight {
                        pending,
                        ids: cell.ids.clone(),
                        generation: cell.generation,
                        submitted: Instant::now(),
                    }),
                    Err(_) => attempts.push(ShardAttempt::Refused),
                }
            }
        }

        // Gather into shard-indexed slots; arrival order cannot influence
        // the merge input.
        let mut slots: Vec<Option<Vec<SearchHit>>> = Vec::with_capacity(n);
        let mut degraded_replies = 0usize;
        for (shard, attempt) in attempts.into_iter().enumerate() {
            match attempt {
                ShardAttempt::Skipped => slots.push(None),
                ShardAttempt::Refused => {
                    self.note_failure(shard);
                    slots.push(None);
                }
                ShardAttempt::InFlight {
                    pending,
                    ids,
                    generation,
                    submitted,
                } => match self.await_shard(shard, pending, submitted, generation, &query) {
                    Some(response) => {
                        if response.is_degraded() {
                            degraded_replies += 1;
                        }
                        self.health[shard].consecutive.store(0, Ordering::Relaxed);
                        slots.push(Some(map_hits(response.hits(), &ids)));
                    }
                    None => {
                        self.note_failure(shard);
                        slots.push(None);
                    }
                },
            }
        }

        let answered = slots.iter().filter(|slot| slot.is_some()).count();
        let needed = self.quorum_needed();
        if answered < needed {
            self.counters.quorum_lost.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::QuorumLost {
                answered,
                needed,
                shards: n,
            });
        }

        let hits = merge_top_k(&slots, query.top_k);
        let missing = n - answered;
        if missing == 0 && degraded_replies == 0 {
            self.counters.complete.fetch_add(1, Ordering::Relaxed);
            Ok(ClusterResponse::Complete(hits))
        } else {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
            let reason = if missing > 0 {
                ClusterDegradeReason::MissingShards(missing)
            } else {
                ClusterDegradeReason::DegradedReplies(degraded_replies)
            };
            Ok(ClusterResponse::Degraded { hits, reason })
        }
    }

    /// Waits out one shard's reply with the soft-deadline / hedge / hard-
    /// deadline ladder. Returns `None` when the shard contributes nothing
    /// to this query. The hedge reply is mapped through the *original*
    /// submit-time id snapshot by the caller — within one shard
    /// incarnation shard rows are append-only and never mutated in place,
    /// so any local id covered by that snapshot scores to the same bits in
    /// the hedge reply. A crash-recovered shard breaks that invariant
    /// (replay zeroes `Retire`d rows), so a hedge is only submitted while
    /// `generation` still matches the scatter-time incarnation — whether
    /// the recovery was an in-process engine swap or a supervisor
    /// respawning a killed daemon.
    fn await_shard(
        &self,
        shard: usize,
        pending: PendingReply,
        submitted: Instant,
        generation: u64,
        query: &Query,
    ) -> Option<QueryResponse> {
        let hard_at = submitted + self.config.hard_deadline;
        let Some(soft) = self.config.soft_deadline else {
            return match pending.wait_until(hard_at) {
                Ok(result) => result.ok(),
                Err(_pending) => None,
            };
        };

        let original = match pending.wait_until(submitted + soft) {
            Ok(result) => return result.ok(),
            Err(pending) => pending,
        };
        self.health[shard]
            .deadline_hits
            .fetch_add(1, Ordering::Relaxed);

        // Hedge a retry into the same shard's pool: a respawned or idle
        // worker (or, cross-process, a fresh connection) often answers
        // while the first pick is stuck.
        let hedge = {
            let cell = self.cells[shard].read().unwrap_or_else(|p| p.into_inner());
            if cell.generation == generation {
                cell.transport.as_ref().map(|transport| {
                    transport.submit(Query {
                        terms: query.terms.clone(),
                        top_k: usize::MAX,
                        tag: query.tag,
                    })
                })
            } else {
                // The shard was crash-swapped since the scatter: the id
                // snapshot no longer maps this shard's answers faithfully,
                // so only the original (same-incarnation) reply may still
                // contribute.
                None
            }
        };
        match hedge {
            Some(Ok(hedge_pending)) => {
                self.health[shard].hedges.fetch_add(1, Ordering::Relaxed);
                match hedge_pending.wait_until(hard_at) {
                    Ok(Ok(response)) => Some(response),
                    // Hedge failed outright: the original may still answer
                    // within the hard budget.
                    Ok(Err(_)) => match original.wait_until(hard_at) {
                        Ok(result) => result.ok(),
                        Err(_pending) => None,
                    },
                    // Hedge is also late; one last non-blocking poll of
                    // the original before giving up on the shard.
                    Err(_hedge_pending) => match original.wait_until(Instant::now()) {
                        Ok(result) => result.ok(),
                        Err(_pending) => None,
                    },
                }
            }
            Some(Err(_)) | None => match original.wait_until(hard_at) {
                Ok(result) => result.ok(),
                Err(_pending) => None,
            },
        }
    }

    /// Folds a new document into the cluster: projects `terms` through the
    /// shared basis, assigns the next global id, and appends the row to
    /// the least-loaded live shard (ties to the lowest index). On durable
    /// clusters the row is journaled and fsynced before this returns.
    /// Returns the document's global id.
    pub fn add_document(&self, terms: &[(usize, f64)]) -> Result<u64, ClusterError> {
        self.basis.validate_query(terms).map_err(|e| match e {
            LsiError::BadQuery(bad) => ClusterError::BadQuery(bad),
            other => ClusterError::Query(QueryError::Internal {
                detail: other.to_string(),
            }),
        })?;
        let coords = self.basis.fold_in(terms);
        let _moves = self.moves.write().unwrap_or_else(|p| p.into_inner());
        let target = self
            .cells
            .iter()
            .enumerate()
            .filter(|&(s, _)| !self.health[s].ejected.load(Ordering::Relaxed))
            .map(|(s, cell)| (cell.read().unwrap_or_else(|p| p.into_inner()).alive(), s))
            .min()
            .map(|(_, s)| s)
            .ok_or_else(|| {
                ClusterError::BadOperation("no live shard to place the document on".to_string())
            })?;
        let gid = self.next_gid.fetch_add(1, Ordering::Relaxed);
        let mut cell = self.cells[target]
            .write()
            .unwrap_or_else(|p| p.into_inner());
        let Some(transport) = &cell.transport else {
            return Err(ClusterError::Query(QueryError::ShuttingDown));
        };
        transport.add_document_vector(&gid.to_string(), &coords)?;
        cell.ids.push(Some(gid));
        Ok(gid)
    }

    /// Moves `docs` (global ids) from shard `from` to shard `to`,
    /// crash-consistently: per document, the `AddVector` is journaled and
    /// fsynced on the **destination before** the source tombstone is
    /// journaled and the id map updated. A crash between the two leaves
    /// the document on both shards; the merge's global-id dedup restores
    /// exactly-once on reopen. Queries never observe a half-applied move
    /// (the scatter snapshots id maps under the move lock). Returns the
    /// number of documents moved.
    pub fn rebalance(&self, from: usize, to: usize, docs: &[u64]) -> Result<usize, ClusterError> {
        self.check_shard(from)?;
        self.check_shard(to)?;
        if from == to {
            return Err(ClusterError::BadOperation(format!(
                "rebalance source and destination are both shard {from}"
            )));
        }
        let mut moved = 0usize;
        for &gid in docs {
            let _moves = self.moves.write().unwrap_or_else(|p| p.into_inner());
            // 1. Read the row off the source (no lock held across steps:
            //    the move lock already excludes every other mover).
            let (local, coords) = {
                let cell = self.cells[from].read().unwrap_or_else(|p| p.into_inner());
                let Some(transport) = &cell.transport else {
                    return Err(ClusterError::Query(QueryError::ShuttingDown));
                };
                let local = cell
                    .ids
                    .iter()
                    .position(|&id| id == Some(gid))
                    .ok_or(ClusterError::UnknownDocument { doc: gid })?;
                (local, transport.doc_vector(local)?)
            };
            // 2. Destination first: journal + apply + map.
            {
                let mut cell = self.cells[to].write().unwrap_or_else(|p| p.into_inner());
                let Some(transport) = &cell.transport else {
                    return Err(ClusterError::Query(QueryError::ShuttingDown));
                };
                transport.add_document_vector(&gid.to_string(), &coords)?;
                cell.ids.push(Some(gid));
            }
            // 3. Then the source tombstone: journal-only retire (the live
            //    row keeps its bits for in-flight readers), map update.
            {
                let mut cell = self.cells[from].write().unwrap_or_else(|p| p.into_inner());
                let Some(transport) = &cell.transport else {
                    return Err(ClusterError::Query(QueryError::ShuttingDown));
                };
                transport.log_retire(local)?;
                cell.ids[local] = None;
            }
            moved += 1;
        }
        Ok(moved)
    }

    /// Splits `shard` by adding a new shard to the cluster and moving the
    /// upper half of `shard`'s documents onto it through the journaled
    /// [`rebalance`](Self::rebalance) path. Returns the new shard's index.
    pub fn split(&mut self, shard: usize) -> Result<usize, ClusterError> {
        self.check_shard(shard)?;
        let new_shard = self.cells.len();
        let cell = match &self.dir {
            Some(dir) => {
                let dir = dir.clone();
                Self::create_durable_shard(&dir, new_shard, &self.basis, &[], &self.config)?
            }
            None => Self::create_plain_shard(&self.basis, &[], new_shard, &self.config)?,
        };
        self.cells.push(RwLock::new(cell));
        self.health.push(ShardHealth::default());
        let docs = self.shard_docs(shard)?;
        let upper = &docs[docs.len() / 2..];
        self.rebalance(shard, new_shard, upper)?;
        Ok(new_shard)
    }

    /// Merges shard `from` into shard `into` by moving every visible
    /// document through the journaled [`rebalance`](Self::rebalance) path.
    /// `from` stays in the cluster as an empty shard (indices are stable);
    /// compact it afterwards to shrink its journal to the empty dump.
    pub fn merge_shards(&mut self, from: usize, into: usize) -> Result<usize, ClusterError> {
        let docs = self.shard_docs(from)?;
        self.rebalance(from, into, &docs)
    }

    /// Compacts `shard`'s journal down to the replayable state dump of its
    /// live rows and tombstones ([`state_dump`] semantics), bounding the
    /// journal at `O(rows)` frames regardless of mutation history. A no-op
    /// (`Ok(false)`) for in-memory clusters.
    pub fn compact_shard(&self, shard: usize) -> Result<bool, ClusterError> {
        self.check_shard(shard)?;
        let cell = self.cells[shard].write().unwrap_or_else(|p| p.into_inner());
        let Some(transport) = &cell.transport else {
            return Err(ClusterError::Query(QueryError::ShuttingDown));
        };
        Ok(transport.compact(&cell.ids)?)
    }

    /// Fingerprint of the cluster's visible documents: global id → the
    /// exact bit pattern of the document's LSI-space row. Two clusters
    /// with equal fingerprints answer every query with identical bits; the
    /// chaos suite compares fingerprints across crash-recovery cycles.
    pub fn fingerprint(&self) -> BTreeMap<u64, Vec<u64>> {
        let mut map = BTreeMap::new();
        for cell in &self.cells {
            let cell = cell.read().unwrap_or_else(|p| p.into_inner());
            let Some(transport) = &cell.transport else {
                continue;
            };
            for (local, gid) in cell.ids.iter().enumerate() {
                if let Some(gid) = gid {
                    if let Ok(coords) = transport.doc_vector(local) {
                        map.insert(*gid, coords.iter().map(|x| x.to_bits()).collect());
                    }
                }
            }
        }
        map
    }

    /// Simulates a shard crash (chaos testing only, durable clusters
    /// only): shuts the shard's engine down — closing its journal handle —
    /// runs `damage` on the shard's snapshot path (tear the journal,
    /// scribble on tails…), then recovers the shard by replay exactly as
    /// [`open`](Self::open) would. Queries concurrently scattered to the
    /// shard block on its cell lock for the duration; queries already in
    /// flight never hedge into the recovered engine (the incarnation bump
    /// invalidates their id snapshots), so they either finish on the old
    /// engine's reply or degrade. Returns the shard's recovery report.
    pub fn crash_shard_with<F>(
        &self,
        shard: usize,
        damage: F,
    ) -> Result<RecoveryReport, ClusterError>
    where
        F: FnOnce(&Path),
    {
        self.check_shard(shard)?;
        let Some(dir) = &self.dir else {
            return Err(ClusterError::BadOperation(
                "crash simulation needs a durable cluster".to_string(),
            ));
        };
        let snapshot = shard_snapshot_path(dir, shard);
        let mut cell = self.cells[shard].write().unwrap_or_else(|p| p.into_inner());
        if cell
            .transport
            .as_ref()
            .is_some_and(|t| t.engine().is_none())
        {
            // A remote shard's journal belongs to its daemon process;
            // opening it here would race the owner. Kill the daemon (the
            // supervisor respawns it) instead of simulating in-process.
            return Err(ClusterError::BadOperation(
                "crash simulation needs in-process shards; kill the daemon instead".to_string(),
            ));
        }
        if let Some(transport) = cell.transport.take() {
            if let Some(engine) = transport.take_engine() {
                engine.shutdown();
            }
        }
        damage(&snapshot);
        let (durable, report, records) = DurableIndex::open_durable_with_records(&snapshot)?;
        cell.ids = rebuild_ids(report.snapshot_docs, &records, durable.index().n_docs());
        cell.transport = Some(Box::new(LocalShard::new(QueryEngine::with_durable(
            durable,
            Self::engine_config_for(&self.config, shard),
        ))));
        // New incarnation: replay zeroed any `Retire`d rows, so in-flight
        // queries holding the pre-crash id snapshot must not hedge into
        // this engine (see `ShardCell::generation`).
        cell.generation += 1;
        Ok(report)
    }

    /// A point-in-time copy of the coordinator's counters plus one
    /// [`ShardStatsRow`] per shard.
    pub fn stats(&self) -> ClusterStatsSnapshot {
        let shards = self
            .cells
            .iter()
            .enumerate()
            .map(|(shard, cell)| {
                let cell = cell.read().unwrap_or_else(|p| p.into_inner());
                ShardStatsRow {
                    shard,
                    docs: cell.alive(),
                    tombstones: cell.tombstones(),
                    queries: self.health[shard].queries.load(Ordering::Relaxed),
                    failures: self.health[shard].failures.load(Ordering::Relaxed),
                    consecutive_failures: self.health[shard].consecutive.load(Ordering::Relaxed),
                    deadline_hits: self.health[shard].deadline_hits.load(Ordering::Relaxed),
                    hedges: self.health[shard].hedges.load(Ordering::Relaxed),
                    ejected: self.health[shard].ejected.load(Ordering::Relaxed),
                    engine: cell
                        .transport
                        .as_ref()
                        .map(|transport| transport.stats())
                        .unwrap_or_else(|| crate::stats::ServeStats::new().snapshot()),
                }
            })
            .collect();
        ClusterStatsSnapshot {
            queries: self.counters.queries.load(Ordering::Relaxed),
            complete: self.counters.complete.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            quorum_lost: self.counters.quorum_lost.load(Ordering::Relaxed),
            bad_query: self.counters.bad_query.load(Ordering::Relaxed),
            shards,
        }
    }

    /// Shuts every shard transport down — in-process engines drain their
    /// queues and join their workers; remote daemons are left to their
    /// supervisor's shutdown.
    pub fn shutdown(self) {
        for cell in self.cells {
            let cell = cell.into_inner().unwrap_or_else(|p| p.into_inner());
            if let Some(transport) = cell.transport {
                transport.shutdown();
            }
        }
    }

    /// Assembles a coordinator over already-running shard transports (the
    /// supervisor's entry point: one RPC transport + hello-reported id map
    /// per daemon). `basis` must be the shards' shared basis — the
    /// supervisor reads it from a shard snapshot, read-only.
    pub(crate) fn from_remote_parts(
        basis: LsiIndex,
        shards: Vec<crate::transport::ShardPart>,
        dir: PathBuf,
        config: ClusterConfig,
    ) -> Result<Self, ClusterError> {
        if shards.is_empty() {
            return Err(ClusterError::BadOperation(
                "a cluster needs at least one shard transport".to_string(),
            ));
        }
        if !(config.quorum > 0.0 && config.quorum <= 1.0) {
            return Err(ClusterError::BadOperation(format!(
                "quorum fraction must be in (0, 1], got {}",
                config.quorum
            )));
        }
        let n_shards = shards.len();
        let mut next_gid = 0u64;
        let mut cells = Vec::with_capacity(n_shards);
        let mut health = Vec::with_capacity(n_shards);
        for (transport, ids) in shards {
            for gid in ids.iter().flatten() {
                next_gid = next_gid.max(gid + 1);
            }
            cells.push(RwLock::new(ShardCell {
                transport: Some(transport),
                ids,
                generation: 0,
            }));
            health.push(ShardHealth::default());
        }
        Ok(Cluster {
            basis,
            cells,
            health,
            counters: ClusterCounters::default(),
            config: ClusterConfig {
                shards: n_shards,
                ..config
            },
            dir: Some(dir),
            next_gid: AtomicU64::new(next_gid),
            moves: RwLock::new(()),
        })
    }

    /// Swaps in a fresh transport for `shard` (the supervisor's respawn
    /// path), adopting the id map the recovered daemon reported in its
    /// hello — the journal's truth, which supersedes the coordinator's map
    /// because acks lost to the kill may have been journaled. Bumps the
    /// shard's incarnation so in-flight queries never hedge across the
    /// recovery, exactly as [`crash_shard_with`](Self::crash_shard_with)
    /// does in-process.
    pub(crate) fn swap_shard_transport(
        &self,
        shard: usize,
        transport: Box<dyn ShardTransport>,
        ids: Vec<Option<u64>>,
    ) -> Result<(), ClusterError> {
        self.check_shard(shard)?;
        let mut cell = self.cells[shard].write().unwrap_or_else(|p| p.into_inner());
        if let Some(old) = cell.transport.take() {
            old.shutdown();
        }
        // Adopted ids can include journaled-but-unacked fold-ins; keep the
        // global id allocator ahead of everything the journal holds.
        for gid in ids.iter().flatten() {
            self.next_gid.fetch_max(gid + 1, Ordering::Relaxed);
        }
        cell.ids = ids;
        cell.transport = Some(transport);
        cell.generation += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsi_core::LsiConfig;
    use lsi_ir::TermDocumentMatrix;
    use std::sync::atomic::AtomicBool;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsi_cluster_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// 10 docs over 8 terms with enough overlap that queries rank most of
    /// the corpus.
    fn sample_index() -> LsiIndex {
        let mut triplets = Vec::new();
        for doc in 0..10usize {
            for off in 0..3usize {
                let term = (doc + off * 2) % 8;
                triplets.push((term, doc, 1.0 + ((doc * 7 + off * 3) % 5) as f64));
            }
        }
        let td = TermDocumentMatrix::from_triplets(8, 10, &triplets).expect("valid triplets");
        LsiIndex::build(&td, LsiConfig::with_rank(3)).expect("build index")
    }

    fn bits(list: &RankedList) -> Vec<(usize, u64)> {
        list.hits()
            .iter()
            .map(|h| (h.doc, h.score.to_bits()))
            .collect()
    }

    fn fast_config(shards: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            engine: EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn sharded_answers_match_the_unsharded_index_bitwise() {
        let index = sample_index();
        let terms = vec![(0, 2.0), (3, 1.0), (5, 0.5)];
        let direct = index.try_query(&terms, 6, None).expect("direct query");
        for shards in [1, 2, 3, 5] {
            let cluster = Cluster::build(&index, fast_config(shards)).expect("build cluster");
            let response = cluster.query(Query::new(terms.clone(), 6)).expect("query");
            assert!(!response.is_degraded(), "{shards} shards degraded");
            assert_eq!(
                bits(response.hits()),
                bits(&direct),
                "{shards}-shard answer diverged from the unsharded index"
            );
            assert!(cluster.stats().consistent());
            cluster.shutdown();
        }
    }

    #[test]
    fn merge_is_invariant_to_slot_count_and_duplicates() {
        let hit = |doc: usize, score: f64| SearchHit { doc, score };
        let a = vec![hit(3, 0.9), hit(1, 0.2)];
        let b = vec![hit(2, 0.5), hit(7, 0.4)];
        let merged = merge_top_k(&[Some(a.clone()), Some(b.clone())], 3);
        let merged_swapped = merge_top_k(&[Some(b.clone()), Some(a.clone())], 3);
        assert_eq!(bits(&merged), bits(&merged_swapped));
        assert_eq!(merged.doc_ids(), vec![3, 2, 7]);

        // A doc caught mid-move shows up in both slots with identical bits;
        // the merge keeps exactly one copy.
        let with_dup = merge_top_k(&[Some(a.clone()), Some(b), Some(a)], 10);
        assert_eq!(with_dup.doc_ids(), vec![3, 2, 7, 1]);
    }

    #[test]
    fn breaker_ejects_a_poisoned_shard_and_revive_restores_it() {
        let index = sample_index();
        let poisoned = Arc::new(AtomicBool::new(true));
        let hook_flag = Arc::clone(&poisoned);
        let mut config = fast_config(2);
        config.breaker_threshold = 2;
        config.fault_hooks = Some(Arc::new(move |shard| {
            if shard != 1 {
                return None;
            }
            let flag = Arc::clone(&hook_flag);
            Some(Arc::new(move |_tag| {
                if flag.load(Ordering::Relaxed) {
                    panic!("injected shard poison");
                }
            }) as FaultHook)
        }));
        let cluster = Cluster::build(&index, config).expect("build cluster");
        let terms = vec![(0, 1.0)];

        for i in 0..4 {
            let response = cluster
                .query(Query::new(terms.clone(), 5))
                .expect("quorum holds");
            match response {
                ClusterResponse::Degraded {
                    reason: ClusterDegradeReason::MissingShards(1),
                    ..
                } => {}
                other => panic!("query {i}: expected one missing shard, got {other:?}"),
            }
        }
        let stats = cluster.stats();
        assert!(
            stats.shards[1].ejected,
            "breaker should have opened:\n{}",
            stats.table()
        );
        // Ejected shards are skipped entirely: query count stops rising.
        let scattered_before = stats.shards[1].queries;
        let _ = cluster
            .query(Query::new(terms.clone(), 5))
            .expect("still answering");
        assert_eq!(cluster.stats().shards[1].queries, scattered_before);

        poisoned.store(false, Ordering::Relaxed);
        cluster.revive(1).expect("revive");
        let response = cluster
            .query(Query::new(terms.clone(), 5))
            .expect("revived");
        assert!(!response.is_degraded(), "revived shard should answer again");
        assert!(cluster.stats().consistent());
        cluster.shutdown();
    }

    #[test]
    fn quorum_loss_is_a_loud_error() {
        let index = sample_index();
        let mut config = fast_config(2);
        config.quorum = 1.0;
        config.fault_hooks = Some(Arc::new(|shard| {
            (shard == 1).then(|| Arc::new(|_tag: u64| panic!("injected shard poison")) as FaultHook)
        }));
        let cluster = Cluster::build(&index, config).expect("build cluster");
        match cluster.query(Query::new(vec![(0, 1.0)], 5)) {
            Err(ClusterError::QuorumLost {
                answered: 1,
                needed: 2,
                shards: 2,
            }) => {}
            other => panic!("expected quorum loss, got {other:?}"),
        }
        let stats = cluster.stats();
        assert_eq!(stats.quorum_lost, 1);
        assert!(stats.consistent());
        cluster.shutdown();
    }

    #[test]
    fn rebalance_preserves_answers_and_moves_ownership() {
        let index = sample_index();
        let terms = vec![(1, 1.0), (4, 2.0)];
        let direct = index.try_query(&terms, 10, None).expect("direct query");
        let cluster = Cluster::build(&index, fast_config(2)).expect("build cluster");

        let before = cluster.fingerprint();
        let moved = cluster.rebalance(0, 1, &[0, 4]).expect("rebalance");
        assert_eq!(moved, 2);
        assert!(cluster.shard_docs(1).expect("docs").contains(&4));
        assert!(!cluster.shard_docs(0).expect("docs").contains(&4));
        assert_eq!(
            cluster.fingerprint(),
            before,
            "moves must not change visible bits"
        );

        let response = cluster.query(Query::new(terms, 10)).expect("query");
        assert!(!response.is_degraded());
        assert_eq!(bits(response.hits()), bits(&direct));
        assert!(matches!(
            cluster.rebalance(0, 1, &[0]),
            Err(ClusterError::UnknownDocument { doc: 0 })
        ));
        cluster.shutdown();
    }

    #[test]
    fn split_and_merge_keep_the_visible_corpus_intact() {
        let index = sample_index();
        let terms = vec![(2, 1.0), (6, 1.0)];
        let direct = index.try_query(&terms, 10, None).expect("direct query");
        let mut cluster = Cluster::build(&index, fast_config(2)).expect("build cluster");
        let before = cluster.fingerprint();

        let new_shard = cluster.split(0).expect("split");
        assert_eq!(new_shard, 2);
        assert_eq!(cluster.n_shards(), 3);
        assert!(!cluster.shard_docs(new_shard).expect("docs").is_empty());
        assert_eq!(cluster.fingerprint(), before);

        cluster.merge_shards(new_shard, 1).expect("merge");
        assert!(cluster.shard_docs(new_shard).expect("docs").is_empty());
        assert_eq!(cluster.fingerprint(), before);

        let response = cluster.query(Query::new(terms, 10)).expect("query");
        assert_eq!(bits(response.hits()), bits(&direct));
        assert!(cluster.stats().consistent());
        cluster.shutdown();
    }

    #[test]
    fn durable_cluster_reopens_bit_identically_after_mutations() {
        let dir = temp_dir("reopen");
        let index = sample_index();
        let terms = vec![(0, 1.0), (7, 2.0)];

        let cluster = Cluster::create(&index, &dir, fast_config(3)).expect("create cluster");
        let gid = cluster
            .add_document(&[(0, 3.0), (1, 1.0)])
            .expect("fold in");
        assert_eq!(gid, 10);
        cluster.rebalance(0, 2, &[0]).expect("rebalance");
        assert!(
            cluster.compact_shard(0).expect("compact"),
            "durable shards compact"
        );
        let live_fp = cluster.fingerprint();
        let live_answer = cluster.query(Query::new(terms.clone(), 11)).expect("query");
        cluster.shutdown();

        let (reopened, reports) = Cluster::open(&dir, fast_config(999)).expect("open cluster");
        assert_eq!(reopened.n_shards(), 3, "on-disk shard set wins over config");
        assert_eq!(reports.len(), 3);
        assert_eq!(reopened.fingerprint(), live_fp);
        assert_eq!(reopened.n_docs(), 11);
        let answer = reopened.query(Query::new(terms, 11)).expect("query");
        assert_eq!(bits(answer.hits()), bits(live_answer.hits()));
        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_queries_and_bad_operations_are_typed() {
        let index = sample_index();
        let cluster = Cluster::build(&index, fast_config(2)).expect("build cluster");
        assert!(matches!(
            cluster.query(Query::new(vec![(999, 1.0)], 5)),
            Err(ClusterError::BadQuery(_))
        ));
        assert!(matches!(
            cluster.rebalance(0, 0, &[1]),
            Err(ClusterError::BadOperation(_))
        ));
        assert!(matches!(
            cluster.rebalance(0, 9, &[1]),
            Err(ClusterError::BadOperation(_))
        ));
        assert!(matches!(
            cluster.crash_shard_with(0, |_| {}),
            Err(ClusterError::BadOperation(_))
        ));
        let stats = cluster.stats();
        assert_eq!(stats.bad_query, 1);
        assert!(stats.consistent());
        cluster.shutdown();
    }

    #[test]
    fn damaged_shard_snapshot_is_contained_by_tolerant_open() {
        let dir = temp_dir("tolerant_open");
        let index = sample_index();
        let cluster = Cluster::create(&index, &dir, fast_config(3)).expect("create cluster");
        cluster.shutdown();

        // Corrupt shard 1's snapshot inside an essential section: that
        // shard can no longer open at all.
        let snapshot = shard_snapshot_path(&dir, 1);
        let mut bytes = std::fs::read(&snapshot).expect("read shard snapshot");
        let report = lsi_core::inspect_snapshot(&bytes).expect("inspect shard snapshot");
        let section = report
            .sections
            .iter()
            .find(|s| s.id == Some(lsi_core::SectionId::TermFactors))
            .expect("term-factors section present");
        bytes[(section.offset + 8 + section.len / 2) as usize] ^= 0xFF;
        std::fs::write(&snapshot, &bytes).expect("install corrupt shard snapshot");

        // The strict open refuses the whole cluster.
        assert!(matches!(
            Cluster::open(&dir, fast_config(3)),
            Err(ClusterError::Storage(_))
        ));

        // The tolerant open downs exactly that shard and keeps serving:
        // the other shards' documents still answer, honestly marked.
        let (reopened, reports) =
            Cluster::open_tolerant(&dir, fast_config(3)).expect("tolerant open");
        assert_eq!(reports.len(), 3);
        assert!(reports[0].is_ok() && reports[2].is_ok());
        assert!(reports[1].is_err(), "damaged shard must report its error");
        let response = reopened
            .query(Query::new(vec![(0, 1.0), (7, 2.0)], 10))
            .expect("quorum holds with one shard down");
        match response {
            ClusterResponse::Degraded {
                hits,
                reason: ClusterDegradeReason::MissingShards(1),
            } => {
                assert!(!hits.is_empty());
                // Shard 1 held docs 1, 4, 7 (round-robin): none can appear.
                assert!(
                    hits.doc_ids().iter().all(|d| d % 3 != 1),
                    "downed shard leaked documents: {:?}",
                    hits.doc_ids()
                );
            }
            other => panic!("expected MissingShards(1), got {other:?}"),
        }
        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
