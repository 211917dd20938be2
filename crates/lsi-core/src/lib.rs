#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Latent Semantic Indexing.
//!
//! The paper's object of study (§2): take the `n × m` term–document matrix
//! `A`, compute its rank-`k` truncated SVD `A_k = U_k D_k V_kᵀ`, represent
//! documents by the rows of `V_k D_k`, and process queries in the
//! `k`-dimensional "LSI space" spanned by the columns of `U_k`.
//!
//! * [`index`] — build the index (dense, Lanczos, or randomized SVD
//!   backend), fold queries in, retrieve by cosine in LSI space.
//! * [`skew`] — the δ-skew measure of Section 4's theorems: how close the
//!   LSI representation is to "orthogonal across topics, parallel within a
//!   topic".
//! * [`angles`] — the pairwise-angle statistics of the paper's experiment
//!   (its only table), in both the original term space and the LSI space.
//! * [`synonymy`] — the co-occurrence analysis of Section 4's "Synonymy"
//!   discussion: terms with identical co-occurrence patterns differ only
//!   along trailing eigenvectors of `A Aᵀ`, which rank-k LSI projects out.

//! * [`storage`] — a versioned binary on-disk format, because the SVD is
//!   the expensive step and a deployed index is computed once.

//! * [`cancel`] — cooperative cancellation tokens threaded through the
//!   query hot paths, so a serving layer can enforce deadlines.

//! * [`journal`] — a write-ahead mutation log plus [`DurableIndex`], so
//!   fold-in updates survive crashes: journaled and fsynced before they
//!   are acknowledged, replayed over the last snapshot on recovery.

//! * [`sections`] — the sectioned `.lsix` v3 container: a CRC'd section
//!   directory plus independently checksummed sections, so one flipped
//!   byte quarantines a section instead of the whole index, and
//!   [`inspect_snapshot`] reports per-section health.

//! * [`lazy`] — [`LazySnapshot`], the streaming v3 loader: open reads only
//!   header + directory + dictionary; factors and document vectors stream
//!   in (CRC-verified) on first use, so open-to-first-query cost is
//!   sublinear in index size.

//! * [`iofault`] — injectable write faults (ENOSPC, short write, torn
//!   write, transient) behind every durable persistence path, plus
//!   [`RetryPolicy`], the bounded retry-with-backoff that rides out
//!   transient faults.

//! * [`frame`] — the journal's length-prefixed CRC framing as a reusable
//!   codec, so stream transports (the shard RPC socket protocol) apply
//!   the same bounded, checksummed discipline to wire bytes as the
//!   journal applies to disk bytes.

pub mod angles;
pub mod cancel;
pub mod config;
pub mod frame;
pub mod index;
pub mod iofault;
pub mod journal;
pub mod lazy;
pub mod sections;
pub mod skew;
pub mod storage;
pub mod synonymy;

pub use angles::{pairwise_angle_stats, AngleStats, PairAngleReport};
pub use cancel::CancelToken;
pub use config::{LsiConfig, SvdBackend};
pub use frame::{FrameError, FrameScan};
pub use index::{BadQuery, BuildStatus, LsiError, LsiIndex};
pub use iofault::{io_faults, is_transient, RetryPolicy};
pub use journal::{
    journal_path, DurabilityError, DurableIndex, Journal, JournalRecovery, MutationRecord,
    RebuildReport, RecoveryReport, TruncationCause,
};
pub use lazy::LazySnapshot;
pub use sections::{inspect_snapshot, SectionDamage, SectionId, SectionStatus, SnapshotReport};
pub use skew::{measure_skew, SkewReport};
pub use storage::{
    open_index_tolerant, read_index, read_index_sized, sync_parent_dir, write_index,
    write_index_atomic, write_index_v2, StorageError,
};
