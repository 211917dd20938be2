//! Write-ahead durability for mutating indexes.
//!
//! The paper's index is static, but the fold-in update path
//! ([`LsiIndex::add_document`]) serves live mutating traffic, and an
//! accepted update that exists only in memory is an accepted update a
//! crash silently loses. This module closes that window with a classic
//! write-ahead log:
//!
//! * [`Journal`] — an append-only file of CRC-framed, length-prefixed
//!   mutation records ([`MutationRecord`]). Every append is flushed and
//!   fsynced **before** the caller applies the mutation in memory, so an
//!   acknowledged mutation is always recoverable.
//! * [`DurableIndex`] — an [`LsiIndex`] paired with its snapshot path and
//!   journal. [`DurableIndex::open_durable`] loads the last checkpointed
//!   `.lsix` snapshot and replays the journal tail, truncating at the
//!   first torn or corrupt frame instead of erroring; a crash at **any**
//!   byte boundary therefore recovers to exactly the pre- or
//!   post-mutation state (enforced exhaustively by `tests/crash_matrix.rs`
//!   at the workspace root).
//! * [`DurableIndex::checkpoint`] — compaction: rewrite the snapshot
//!   atomically ([`write_index_atomic`]), then rotate the journal down to
//!   a single [`MutationRecord::Checkpoint`] frame.
//!
//! Replay is idempotent by construction: every mutation record carries the
//! sequence number (`seq`) equal to the document count at the moment it
//! was applied, and each successful fold-in grows the index by exactly one
//! document. Recovery skips records with `seq` below the snapshot's
//! document count, so replaying the same journal twice equals replaying it
//! once, and a crash between checkpoint's snapshot rename and its journal
//! rotation is harmless.
//!
//! ## On-disk format (`.lsij`, version 1, little-endian)
//!
//! ```text
//! magic  b"LSIJ" | version u32
//! frame* :=  len u32 | body (len bytes) | crc u32
//! body   :=  tag u8 | seq u64 | payload
//!   tag 0 FoldIn      payload = n u32 | (term u64, weight f64) * n
//!   tag 1 AddDocument payload = id_len u32 | id utf-8 | n u32 | (term, weight) * n
//!   tag 2 Checkpoint  payload = (empty)
//!   tag 3 AddVector   payload = id_len u32 | id utf-8 | k u32 | coord f64 * k
//!   tag 4 Retire      payload = doc u64
//! ```
//!
//! The CRC-32 covers the length prefix *and* the body, so a corrupted
//! length field cannot redirect the checksum window undetected.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::frame::{self, FrameError, FrameScan};
use crate::index::{BadQuery, LsiError, LsiIndex};
use crate::iofault::{io_faults, RetryPolicy};
use crate::sections::SectionId;
use crate::storage::{self, write_index_atomic, StorageError};

/// Journal file magic.
const MAGIC: [u8; 4] = *b"LSIJ";
/// Journal format version.
const VERSION: u32 = 1;
/// Header length in bytes (magic + version).
const HEADER_LEN: usize = 8;
/// Upper bound on terms per record (same spirit as [`frame::MAX_FRAME`]).
const MAX_TERMS: u32 = 1 << 22;
/// Upper bound on a document-id string, in bytes.
const MAX_DOC_ID: u32 = 1 << 20;
/// Upper bound on an [`MutationRecord::AddVector`] coordinate count (LSI
/// ranks are small; this is purely a corrupt-length guard).
const MAX_COORDS: u32 = 1 << 16;
/// Smallest possible body: tag byte plus sequence number.
const MIN_BODY: usize = 9;

/// One durable mutation, as written to and replayed from the journal.
///
/// `seq` is the index's document count at the moment the mutation was
/// applied (equivalently: the id the folded-in document received). It is
/// the idempotence key for replay — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationRecord {
    /// A fold-in of raw `(term, weight)` pairs with no external identity.
    FoldIn {
        /// Document count when this mutation was applied.
        seq: u64,
        /// The (already weighted) query-style term vector folded in.
        terms: Vec<(usize, f64)>,
    },
    /// A fold-in that also carries a caller-side document id (the CLI's
    /// container keeps ids alongside the index and journals through this
    /// variant so recovery can restore both).
    AddDocument {
        /// Document count when this mutation was applied.
        seq: u64,
        /// Caller-side document identifier.
        doc_id: String,
        /// The (already weighted) term vector folded in.
        terms: Vec<(usize, f64)>,
    },
    /// A compaction marker written by journal rotation: everything with
    /// `seq` below this value is contained in the snapshot.
    Checkpoint {
        /// Document count captured by the checkpointed snapshot.
        seq: u64,
    },
    /// A document appended by its already-computed LSI-space coordinates
    /// (no fold-in at replay time). This is the sharding transplant
    /// record: the coordinate bits are stored verbatim, so a replayed
    /// document scores bitwise identically to the donor index's row.
    AddVector {
        /// Document count when this mutation was applied.
        seq: u64,
        /// Caller-side document identifier (shards store the global doc
        /// id here).
        doc_id: String,
        /// The length-`rank` LSI-space representation, bit-exact.
        coords: Vec<f64>,
    },
    /// Retirement of a previously added document: its representation is
    /// zeroed so cosine scans skip it. `seq` is the document count at
    /// append time (retirement does not change the count); replay is
    /// idempotent because zeroing twice equals zeroing once.
    Retire {
        /// Document count when the retirement was applied.
        seq: u64,
        /// Local id of the retired document.
        doc: u64,
    },
}

impl MutationRecord {
    /// The record's sequence number (document count at apply time).
    pub fn seq(&self) -> u64 {
        match self {
            Self::FoldIn { seq, .. }
            | Self::AddDocument { seq, .. }
            | Self::Checkpoint { seq }
            | Self::AddVector { seq, .. }
            | Self::Retire { seq, .. } => *seq,
        }
    }
}

/// Why journal replay stopped before the file's physical end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationCause {
    /// The final frame was cut short — the classic torn write.
    TornFrame,
    /// A frame's CRC-32 did not match its contents.
    ChecksumMismatch,
    /// A frame's checksum held but its body did not decode (bad tag,
    /// non-finite weight, absurd count).
    MalformedRecord,
    /// A record's sequence number skipped ahead of the index state, or a
    /// structurally valid record failed to apply — replay cannot safely
    /// continue past it.
    SequenceGap,
}

impl std::fmt::Display for TruncationCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TornFrame => write!(f, "torn frame"),
            Self::ChecksumMismatch => write!(f, "checksum mismatch"),
            Self::MalformedRecord => write!(f, "malformed record"),
            Self::SequenceGap => write!(f, "sequence gap"),
        }
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone)]
pub struct JournalRecovery {
    /// The records of the valid frame prefix, in append order.
    pub records: Vec<MutationRecord>,
    /// Bytes discarded past the last valid frame (0 for a clean journal).
    pub truncated_bytes: u64,
    /// Why the tail was discarded, if it was.
    pub truncation: Option<TruncationCause>,
    /// True when the journal file was missing or its header was torn and a
    /// fresh journal was (re)created in its place.
    pub created: bool,
}

/// An append-only write-ahead log of [`MutationRecord`]s.
///
/// Appends are fsynced before they return; opening scans the file and
/// truncates it back to the last intact frame. See the module docs for the
/// frame format.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

/// The sidecar journal path for a snapshot: the file name with `.lsij`
/// appended (`index.lsix` → `index.lsix.lsij`).
pub fn journal_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".lsij");
    snapshot.with_file_name(name)
}

/// The bytes of a freshly rotated journal: header plus, when given, a
/// single [`MutationRecord::Checkpoint`] frame. Public so crash-injection
/// harnesses can enumerate byte-exact intermediate disk states.
pub fn fresh_journal_bytes(checkpoint: Option<u64>) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + 32);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    if let Some(seq) = checkpoint {
        bytes.extend_from_slice(&encode_frame(&MutationRecord::Checkpoint { seq }));
    }
    bytes
}

/// The bytes of a journal holding exactly `records` (header plus one frame
/// per record, in order). Public so crash-injection harnesses can
/// enumerate byte-exact intermediate disk states of a record-list
/// rotation ([`Journal::rotate_with`]).
pub fn journal_bytes(records: &[MutationRecord]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + 64 * records.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    for record in records {
        bytes.extend_from_slice(&encode_frame(record));
    }
    bytes
}

/// Encodes one record as a complete journal frame (length prefix, body,
/// CRC trailer) through [`frame::encode_frame`]. Public for the
/// crash-matrix and fuzz harnesses.
///
/// # Panics
/// Panics if the record's body exceeds [`frame::MAX_FRAME`] bytes;
/// [`Journal::append`] rejects such a record with a typed error first.
pub fn encode_frame(record: &MutationRecord) -> Vec<u8> {
    frame::encode_frame(&encode_body(record))
}

fn encode_body(record: &MutationRecord) -> Vec<u8> {
    let mut b = Vec::new();
    match record {
        MutationRecord::FoldIn { seq, terms } => {
            b.push(0);
            b.extend_from_slice(&seq.to_le_bytes());
            encode_terms(&mut b, terms);
        }
        MutationRecord::AddDocument { seq, doc_id, terms } => {
            b.push(1);
            b.extend_from_slice(&seq.to_le_bytes());
            b.extend_from_slice(&(doc_id.len() as u32).to_le_bytes());
            b.extend_from_slice(doc_id.as_bytes());
            encode_terms(&mut b, terms);
        }
        MutationRecord::Checkpoint { seq } => {
            b.push(2);
            b.extend_from_slice(&seq.to_le_bytes());
        }
        MutationRecord::AddVector {
            seq,
            doc_id,
            coords,
        } => {
            b.push(3);
            b.extend_from_slice(&seq.to_le_bytes());
            b.extend_from_slice(&(doc_id.len() as u32).to_le_bytes());
            b.extend_from_slice(doc_id.as_bytes());
            b.extend_from_slice(&(coords.len() as u32).to_le_bytes());
            for &c in coords {
                b.extend_from_slice(&c.to_le_bytes());
            }
        }
        MutationRecord::Retire { seq, doc } => {
            b.push(4);
            b.extend_from_slice(&seq.to_le_bytes());
            b.extend_from_slice(&doc.to_le_bytes());
        }
    }
    b
}

fn encode_terms(b: &mut Vec<u8>, terms: &[(usize, f64)]) {
    b.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for &(t, w) in terms {
        b.extend_from_slice(&(t as u64).to_le_bytes());
        b.extend_from_slice(&w.to_le_bytes());
    }
}

/// A bounds-checked little-endian byte cursor for frame decoding.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_terms(r: &mut ByteReader<'_>) -> Option<Vec<(usize, f64)>> {
    let n = r.u32()?;
    if n > MAX_TERMS {
        return None;
    }
    let mut terms = Vec::with_capacity(n.min(1 << 16) as usize);
    for _ in 0..n {
        let t = r.u64()?;
        let w = r.f64()?;
        if !w.is_finite() || usize::try_from(t).is_err() {
            return None;
        }
        terms.push((t as usize, w));
    }
    Some(terms)
}

/// Decodes one frame body. `None` means the bytes are structurally invalid
/// even though the checksum held (possible only for bytes never produced
/// by [`encode_frame`]).
fn decode_body(body: &[u8]) -> Option<MutationRecord> {
    let mut r = ByteReader::new(body);
    let tag = r.u8()?;
    let seq = r.u64()?;
    let record = match tag {
        0 => MutationRecord::FoldIn {
            seq,
            terms: decode_terms(&mut r)?,
        },
        1 => {
            let id_len = r.u32()?;
            if id_len > MAX_DOC_ID {
                return None;
            }
            let id_bytes = r.take(id_len as usize)?;
            let doc_id = std::str::from_utf8(id_bytes).ok()?.to_string();
            MutationRecord::AddDocument {
                seq,
                doc_id,
                terms: decode_terms(&mut r)?,
            }
        }
        2 => MutationRecord::Checkpoint { seq },
        3 => {
            let id_len = r.u32()?;
            if id_len > MAX_DOC_ID {
                return None;
            }
            let id_bytes = r.take(id_len as usize)?;
            let doc_id = std::str::from_utf8(id_bytes).ok()?.to_string();
            let k = r.u32()?;
            if k > MAX_COORDS {
                return None;
            }
            let mut coords = Vec::with_capacity(k as usize);
            for _ in 0..k {
                let c = r.f64()?;
                if !c.is_finite() {
                    return None;
                }
                coords.push(c);
            }
            MutationRecord::AddVector {
                seq,
                doc_id,
                coords,
            }
        }
        4 => MutationRecord::Retire { seq, doc: r.u64()? },
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(record)
}

/// Scans the frame region of a journal (everything after the header) and
/// returns the decoded valid prefix, its byte length, and — if the scan
/// stopped early — why. Public for the fuzz and crash-matrix harnesses.
pub fn decode_frames(bytes: &[u8]) -> (Vec<MutationRecord>, usize, Option<TruncationCause>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        // A body shorter than tag + seq can never decode, so such a length
        // is malformed even before the rest of its frame has arrived.
        if frame::declared_len(rest).is_some_and(|len| len < MIN_BODY) {
            return (records, pos, Some(TruncationCause::MalformedRecord));
        }
        let cause = match frame::scan_frame(rest) {
            Ok(FrameScan::Complete { payload, consumed }) => match decode_body(payload) {
                Some(record) => {
                    records.push(record);
                    pos += consumed;
                    continue;
                }
                None => TruncationCause::MalformedRecord,
            },
            Ok(FrameScan::Incomplete) => TruncationCause::TornFrame,
            Err(FrameError::TooLarge { .. }) => TruncationCause::MalformedRecord,
            Err(FrameError::ChecksumMismatch { .. }) => TruncationCause::ChecksumMismatch,
        };
        return (records, pos, Some(cause));
    }
    (records, pos, None)
}

/// Writes a complete journal image crash-safely: bytes go to a `.tmp`
/// sibling, are synced, renamed over the destination, and the parent
/// directory is synced so the rename survives a crash.
fn write_fresh_bytes(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    // Transient I/O faults retry the whole attempt; every failed attempt
    // removes its `.tmp`, so each retry starts from the same clean
    // pre-state and a hard fault leaves the destination untouched.
    RetryPolicy::default().run(|| write_fresh_bytes_once(path, bytes))
}

fn write_fresh_bytes_once(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = journal_tmp_path(path);
    if tmp.exists() {
        let _ = std::fs::remove_file(&tmp);
    }
    let mut file = io_faults::MaybeFaulty::new(File::create(&tmp)?);
    let result = file.write_all(bytes).and_then(|()| file.inner().sync_all());
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(StorageError::Io(e));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        StorageError::Io(e)
    })?;
    storage::sync_parent_dir(path)
}

/// Writes a fresh journal (header, plus a checkpoint frame when given)
/// crash-safely via [`write_fresh_bytes`].
fn write_fresh(path: &Path, checkpoint: Option<u64>) -> Result<(), StorageError> {
    write_fresh_bytes(path, &fresh_journal_bytes(checkpoint))
}

/// The temporary sibling used by journal rotation (`<name>.tmp`).
pub fn journal_tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

impl Journal {
    /// Creates a fresh, empty journal at `path`, replacing whatever was
    /// there. The file and its parent directory are synced before this
    /// returns.
    pub fn create(path: &Path) -> Result<Self, StorageError> {
        write_fresh(path, None)?;
        Self::open_append(path.to_path_buf())
    }

    /// Creates a journal at `path` holding exactly `records`, replacing
    /// whatever was there, in one crash-safe write (a shard seeding its
    /// document list appends nothing frame-by-frame). The file and its
    /// parent directory are synced before this returns.
    pub fn create_with(path: &Path, records: &[MutationRecord]) -> Result<Self, StorageError> {
        write_fresh_bytes(path, &journal_bytes(records))?;
        Self::open_append(path.to_path_buf())
    }

    /// Opens the journal at `path`, scanning its frames and truncating the
    /// file back to the last intact frame. A missing file — or one whose
    /// header itself was torn mid-create — is replaced by a fresh journal
    /// (`created` in the recovery report). A file with a foreign magic or
    /// an unsupported version is a real error, not crash damage, and is
    /// reported as such rather than clobbered.
    ///
    /// A stale `<name>.tmp` sibling — the residue of a crash between a
    /// rotation's temp-file write and its rename — is swept here (the
    /// rename never happened, so the rotation was never acknowledged and
    /// the temp bytes are garbage), mirroring `write_index_atomic`'s
    /// stale-`.tmp` sweep for snapshots.
    pub fn open(path: &Path) -> Result<(Self, JournalRecovery), StorageError> {
        let stale_tmp = journal_tmp_path(path);
        if stale_tmp.exists() {
            let _ = std::fs::remove_file(&stale_tmp);
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let journal = Self::create(path)?;
                return Ok((
                    journal,
                    JournalRecovery {
                        records: Vec::new(),
                        truncated_bytes: 0,
                        truncation: None,
                        created: true,
                    },
                ));
            }
            Err(e) => return Err(StorageError::Io(e)),
        };
        if bytes.len() < HEADER_LEN {
            // Torn header: the journal died mid-create, before any frame
            // could have been acknowledged. Start over.
            let truncated = bytes.len() as u64;
            let journal = Self::create(path)?;
            return Ok((
                journal,
                JournalRecovery {
                    records: Vec::new(),
                    truncated_bytes: truncated,
                    truncation: Some(TruncationCause::TornFrame),
                    created: true,
                },
            ));
        }
        if bytes[0..4] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(StorageError::UnsupportedVersion(version));
        }
        let (records, valid_len, truncation) = decode_frames(&bytes[HEADER_LEN..]);
        let keep = (HEADER_LEN + valid_len) as u64;
        let truncated_bytes = bytes.len() as u64 - keep;
        let file = OpenOptions::new().append(true).open(path)?;
        if truncated_bytes > 0 {
            file.set_len(keep)?;
            file.sync_all()?;
        }
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
            },
            JournalRecovery {
                records,
                truncated_bytes,
                truncation,
                created: false,
            },
        ))
    }

    fn open_append(path: PathBuf) -> Result<Self, StorageError> {
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Self { path, file })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs it to disk. Only after this returns
    /// `Ok` may the caller apply (and acknowledge) the mutation.
    ///
    /// The append is all-or-nothing on disk: a failed write (device full,
    /// short write, torn write) truncates the file back to its exact
    /// pre-append length before the error is surfaced, so a failed append
    /// never leaves a partial frame for recovery to find. Transient
    /// faults are retried with bounded backoff; recovery would also
    /// truncate a torn tail, but an *unacknowledged* frame must not
    /// survive either.
    ///
    /// A record whose body exceeds [`frame::MAX_FRAME`] bytes is refused
    /// with [`StorageError::BadDimensions`] before anything is written:
    /// replay would reject its frame, so it must never be acknowledged.
    pub fn append(&mut self, record: &MutationRecord) -> Result<(), StorageError> {
        let body = encode_body(record);
        if body.len() > frame::MAX_FRAME {
            return Err(StorageError::BadDimensions(format!(
                "journal record body of {} bytes exceeds the {}-byte frame cap",
                body.len(),
                frame::MAX_FRAME
            )));
        }
        let frame = frame::encode_frame(&body);
        let pre_len = self.file.metadata()?.len();
        RetryPolicy::default().run(|| {
            let result =
                io_faults::write_all(&mut self.file, &frame).and_then(|()| self.file.sync_all());
            if let Err(e) = result {
                // Roll back to the exact pre-append length; best-effort —
                // if even the truncate fails, recovery's torn-tail scan
                // still discards the partial frame.
                let _ = self.file.set_len(pre_len);
                let _ = self.file.sync_all();
                return Err(StorageError::Io(e));
            }
            Ok(())
        })
    }

    /// Rotates the journal after a checkpoint: atomically replaces the
    /// file with a fresh one holding a single
    /// [`MutationRecord::Checkpoint`] frame at `checkpoint_seq`. The new
    /// file and the parent directory are synced before this returns.
    pub fn rotate(&mut self, checkpoint_seq: u64) -> Result<(), StorageError> {
        write_fresh(&self.path, Some(checkpoint_seq))?;
        // The old handle points at the replaced inode; reopen.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }

    /// Rotates the journal down to an explicit record list: atomically
    /// replaces the file with one holding exactly `records`. This is the
    /// compaction primitive for journals that *are* the canonical document
    /// list (sharded serving): the unbounded mutation history is replaced
    /// by a bounded state dump whose replay reproduces the live state. A
    /// crash at any byte leaves either the old journal or the new one —
    /// never a blend — because the swap is a single `rename`.
    pub fn rotate_with(&mut self, records: &[MutationRecord]) -> Result<(), StorageError> {
        write_fresh_bytes(&self.path, &journal_bytes(records))?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

/// An error from the durable mutation path: either the journal/snapshot
/// I/O failed (nothing was applied) or the mutation itself was invalid
/// (rejected before it was journaled).
#[derive(Debug)]
pub enum DurabilityError {
    /// Journal or snapshot I/O failed; the mutation was not applied.
    Storage(StorageError),
    /// The mutation was rejected by index validation before journaling.
    Index(LsiError),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Storage(e) => write!(f, "durable mutation failed in storage: {e}"),
            Self::Index(e) => write!(f, "durable mutation rejected: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Storage(e) => Some(e),
            Self::Index(e) => Some(e),
        }
    }
}

impl From<StorageError> for DurabilityError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

impl From<LsiError> for DurabilityError {
    fn from(e: LsiError) -> Self {
        Self::Index(e)
    }
}

/// What [`DurableIndex::open_durable`] did to reconstruct the index.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Documents in the loaded snapshot.
    pub snapshot_docs: usize,
    /// Intact frames found in the journal.
    pub frames_read: usize,
    /// Frames applied on top of the snapshot.
    pub frames_replayed: usize,
    /// Frames already contained in the snapshot (sequence number below the
    /// snapshot's document count) or checkpoint markers — skipped.
    pub frames_skipped: usize,
    /// Intact frames that could not be applied (sequence gap); replay
    /// stopped at the first one.
    pub frames_dropped: usize,
    /// Bytes discarded past the last intact frame.
    pub truncated_bytes: u64,
    /// Why the journal tail was discarded, if it was.
    pub truncation: Option<TruncationCause>,
    /// Snapshot sections that were damaged and quarantined by the
    /// tolerant open (empty for intact snapshots and v1/v2 formats). A
    /// quarantined [`SectionId::DocVectors`] leaves every snapshot-held
    /// document row zeroed — queries degrade to the term-space fallback
    /// until [`DurableIndex::rebuild_quarantined`] repairs the section.
    pub quarantined: Vec<SectionId>,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot {} docs; journal {} frame(s): {} replayed, {} skipped, {} dropped",
            self.snapshot_docs,
            self.frames_read,
            self.frames_replayed,
            self.frames_skipped,
            self.frames_dropped
        )?;
        match self.truncation {
            Some(cause) => write!(f, "; truncated {} byte(s) ({cause})", self.truncated_bytes)?,
            None => write!(f, "; clean tail")?,
        }
        if !self.quarantined.is_empty() {
            write!(f, "; quarantined:")?;
            for s in &self.quarantined {
                write!(f, " {s}")?;
            }
        }
        Ok(())
    }
}

/// What [`DurableIndex::rebuild_quarantined`] repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Factorization-covered document rows recomputed from `D_k V_kᵀ`.
    pub rebuilt: usize,
    /// Journal retirements re-applied after the rebuild (the rebuild
    /// resurrects retired rows; their Retire records zero them again).
    pub retires_reapplied: usize,
    /// Folded-in rows that stayed zero: their fold-in frames were
    /// compacted away before the damage, so nothing can recompute them.
    pub unrecovered: usize,
}

impl std::fmt::Display for RebuildReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} row(s) rebuilt, {} retirement(s) re-applied, {} unrecoverable",
            self.rebuilt, self.retires_reapplied, self.unrecovered
        )
    }
}

/// An [`LsiIndex`] with crash-consistent mutations: every
/// [`add_document`](Self::add_document) is journaled and fsynced before it
/// is applied in memory, and [`open_durable`](Self::open_durable) replays
/// the journal tail over the last snapshot.
#[derive(Debug)]
pub struct DurableIndex {
    index: LsiIndex,
    journal: Journal,
    snapshot: PathBuf,
    /// Checkpoint automatically once this many frames have been appended
    /// since the last checkpoint (`None` = never — the default, because
    /// callers whose journal is the canonical document list, e.g. cluster
    /// shards, must not have it compacted away beneath them).
    auto_compact_frames: Option<u64>,
    /// Frames appended since the last checkpoint (or open).
    frames_since_checkpoint: u64,
    /// The error from the last failed auto-compaction, if any. The
    /// triggering mutation itself was already durable and applied, so the
    /// failure is parked here instead of failing the mutation; the next
    /// mutation retries the compaction.
    pending_compaction_error: Option<StorageError>,
}

impl DurableIndex {
    /// Establishes durable state at `snapshot`: writes the index there
    /// atomically and creates a fresh sidecar journal
    /// ([`journal_path`]`(snapshot)`).
    pub fn create(snapshot: &Path, index: LsiIndex) -> Result<Self, StorageError> {
        write_index_atomic(snapshot, &index)?;
        let journal = Journal::create(&journal_path(snapshot))?;
        Ok(Self {
            index,
            journal,
            snapshot: snapshot.to_path_buf(),
            auto_compact_frames: None,
            frames_since_checkpoint: 0,
            pending_compaction_error: None,
        })
    }

    /// Recovers durable state from `snapshot` and its sidecar journal:
    /// loads the snapshot, scans the journal (truncating a torn or corrupt
    /// tail), and replays every record whose sequence number is at or past
    /// the snapshot's document count. A missing journal is treated as
    /// empty and recreated.
    ///
    /// Crash damage is never an error here — any prefix of acknowledged
    /// bytes recovers to a valid index. Errors mean the snapshot itself is
    /// unreadable (surface those; the snapshot has its own CRC) or the
    /// journal file belongs to a different format entirely.
    pub fn open_durable(snapshot: &Path) -> Result<(Self, RecoveryReport), StorageError> {
        let (durable, report, _) = Self::open_durable_with_records(snapshot)?;
        Ok((durable, report))
    }

    /// [`open_durable`](Self::open_durable), additionally returning the
    /// intact journal records so callers that keep state *alongside* the
    /// index (e.g. a shard's local→global document-id map, reconstructed
    /// from [`MutationRecord::AddVector`] ids) can rebuild it from the
    /// exact record list the replay saw.
    pub fn open_durable_with_records(
        snapshot: &Path,
    ) -> Result<(Self, RecoveryReport, Vec<MutationRecord>), StorageError> {
        let file = File::open(snapshot)?;
        let total_len = file.metadata()?.len();
        let mut reader = std::io::BufReader::new(file);
        // Tolerant open: degradable-section damage in a v3 snapshot
        // quarantines the section (reported below) instead of failing the
        // whole recovery; the journal replays over the degraded index.
        let (mut index, damage) = storage::open_index_tolerant(&mut reader, Some(total_len))?;
        let snapshot_docs = index.n_docs();
        let (journal, recovery) = Journal::open(&journal_path(snapshot))?;
        let mut report = RecoveryReport {
            snapshot_docs,
            frames_read: recovery.records.len(),
            frames_replayed: 0,
            frames_skipped: 0,
            frames_dropped: 0,
            truncated_bytes: recovery.truncated_bytes,
            truncation: recovery.truncation,
            quarantined: damage.iter().map(|d| d.section).collect(),
        };
        for (i, record) in recovery.records.iter().enumerate() {
            let n = index.n_docs() as u64;
            let applied = match record {
                MutationRecord::Checkpoint { seq } => {
                    // `seq > n` means the snapshot this checkpoint refers
                    // to is not the one we loaded — replay cannot bridge
                    // the gap.
                    (*seq <= n).then_some(false)
                }
                MutationRecord::FoldIn { seq, terms }
                | MutationRecord::AddDocument { seq, terms, .. } => {
                    if *seq < n {
                        Some(false)
                    } else if *seq == n && index.try_add_document(terms).is_ok() {
                        Some(true)
                    } else {
                        None
                    }
                }
                MutationRecord::AddVector { seq, coords, .. } => {
                    if *seq < n {
                        Some(false)
                    } else if *seq == n && index.add_document_vector(coords).is_ok() {
                        Some(true)
                    } else {
                        None
                    }
                }
                MutationRecord::Retire { seq, doc } => {
                    if *seq <= n && index.retire_document(*doc as usize).is_ok() {
                        Some(true)
                    } else {
                        None
                    }
                }
            };
            match applied {
                Some(true) => report.frames_replayed += 1,
                Some(false) => report.frames_skipped += 1,
                None => {
                    report.frames_dropped = recovery.records.len() - i;
                    report
                        .truncation
                        .get_or_insert(TruncationCause::SequenceGap);
                    break;
                }
            }
        }
        let replay_len = recovery.records.len() - report.frames_dropped;
        let mut records = recovery.records;
        records.truncate(replay_len);
        // A basis-only snapshot (zero document rows) quarantining
        // `doc-vectors` loses nothing: every row the index now holds was
        // reconstructed by the replay above, so the quarantine is lifted.
        if snapshot_docs == 0 && report.quarantined.contains(&SectionId::DocVectors) {
            report.quarantined.retain(|s| *s != SectionId::DocVectors);
            let remaining: Vec<SectionId> = index
                .quarantined_sections()
                .iter()
                .copied()
                .filter(|s| *s != SectionId::DocVectors)
                .collect();
            index.set_quarantined(remaining);
        }
        Ok((
            Self {
                index,
                journal,
                snapshot: snapshot.to_path_buf(),
                auto_compact_frames: None,
                // Replayed frames count toward the next auto-compaction:
                // a long journal tail is exactly the replay cost a
                // compaction bound exists to cap.
                frames_since_checkpoint: replay_len as u64,
                pending_compaction_error: None,
            },
            report,
            records,
        ))
    }

    /// The live index (read-only; mutate through
    /// [`add_document`](Self::add_document)).
    pub fn index(&self) -> &LsiIndex {
        &self.index
    }

    /// The snapshot path this durable state is anchored to.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot
    }

    /// The sidecar journal path.
    pub fn journal_file(&self) -> &Path {
        self.journal.path()
    }

    /// Durably folds in a document: validates the terms, appends a
    /// [`MutationRecord::FoldIn`] frame (fsynced), and only then applies
    /// the mutation in memory. Returns the new document's id.
    ///
    /// On a storage error the in-memory index is untouched — the caller
    /// must not acknowledge the mutation.
    pub fn add_document(&mut self, terms: &[(usize, f64)]) -> Result<usize, DurabilityError> {
        self.index.validate_query(terms)?;
        let seq = self.index.n_docs() as u64;
        self.journal.append(&MutationRecord::FoldIn {
            seq,
            terms: terms.to_vec(),
        })?;
        let id = self.index.add_document(terms);
        self.note_mutation();
        Ok(id)
    }

    /// Durably appends a document by its already-computed LSI-space
    /// coordinates (the sharding transplant path): validates the vector,
    /// appends a [`MutationRecord::AddVector`] frame carrying `doc_id` and
    /// the bit-exact coordinates (fsynced), and only then applies the
    /// mutation in memory. Returns the new document's local id.
    pub fn add_document_vector(
        &mut self,
        doc_id: &str,
        coords: &[f64],
    ) -> Result<usize, DurabilityError> {
        if coords.len() != self.index.rank() {
            return Err(DurabilityError::Index(
                BadQuery::WrongDimension {
                    got: coords.len(),
                    expected: self.index.rank(),
                }
                .into(),
            ));
        }
        if coords.iter().any(|x| !x.is_finite()) {
            return Err(DurabilityError::Index(BadQuery::NonFiniteQuery.into()));
        }
        let seq = self.index.n_docs() as u64;
        self.journal.append(&MutationRecord::AddVector {
            seq,
            doc_id: doc_id.to_string(),
            coords: coords.to_vec(),
        })?;
        // Length and finiteness were checked above; apply cannot fail.
        let id = self.index.add_document_vector(coords)?;
        self.note_mutation();
        Ok(id)
    }

    /// Durably retires document `doc`: appends a
    /// [`MutationRecord::Retire`] frame (fsynced), then zeroes the live
    /// representation so cosine scans skip it. The id stays allocated.
    pub fn retire_document(&mut self, doc: usize) -> Result<(), DurabilityError> {
        if doc >= self.index.n_docs() {
            return Err(DurabilityError::Index(
                BadQuery::DocOutOfRange {
                    doc,
                    n_docs: self.index.n_docs(),
                }
                .into(),
            ));
        }
        self.journal.append(&MutationRecord::Retire {
            seq: self.index.n_docs() as u64,
            doc: doc as u64,
        })?;
        self.index.retire_document(doc)?;
        self.note_mutation();
        Ok(())
    }

    /// Journals a [`MutationRecord::Retire`] frame (fsynced) **without**
    /// zeroing the live representation. For callers that keep their own
    /// visibility map above the index (sharded serving): the document
    /// must become invisible through that map, while the live row stays
    /// intact so queries already scoring against it stay consistent. On
    /// replay the retirement *is* applied, which matches — a reopened
    /// index has no in-flight readers.
    pub fn log_retire(&mut self, doc: usize) -> Result<(), DurabilityError> {
        if doc >= self.index.n_docs() {
            return Err(DurabilityError::Index(
                BadQuery::DocOutOfRange {
                    doc,
                    n_docs: self.index.n_docs(),
                }
                .into(),
            ));
        }
        self.journal.append(&MutationRecord::Retire {
            seq: self.index.n_docs() as u64,
            doc: doc as u64,
        })?;
        self.note_mutation();
        Ok(())
    }

    /// Rotates the sidecar journal down to an explicit record list
    /// ([`Journal::rotate_with`]) without touching the snapshot. This is
    /// the compaction path for durable state whose snapshot is an
    /// immutable basis and whose journal is the canonical document list
    /// (sharded serving); the caller supplies a state dump whose replay
    /// over the snapshot reproduces the live index.
    pub fn rotate_journal_with(&mut self, records: &[MutationRecord]) -> Result<(), StorageError> {
        self.journal.rotate_with(records)
    }

    /// Compacts durable state: atomically rewrites the snapshot from the
    /// live index, then rotates the journal down to a single checkpoint
    /// frame. Logically a no-op — a crash at any point leaves a state that
    /// recovers to exactly the live index (old snapshot + old journal, or
    /// new snapshot + old journal with every frame skipped, or new
    /// snapshot + rotated journal).
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        // A checkpoint of a quarantined index would bake the degraded
        // (zeroed) state into the new snapshot and rotate away the very
        // journal a rebuild needs. Repair first:
        // [`rebuild_quarantined`](Self::rebuild_quarantined).
        if let Some(&section) = self.index.quarantined_sections().first() {
            return Err(StorageError::DamagedSection { section });
        }
        write_index_atomic(&self.snapshot, &self.index)?;
        self.journal.rotate(self.index.n_docs() as u64)?;
        self.frames_since_checkpoint = 0;
        self.pending_compaction_error = None;
        Ok(())
    }

    /// Enables (or disables, with `None`) automatic checkpoint compaction:
    /// once `frames` mutations have accumulated since the last checkpoint,
    /// the next mutation triggers [`checkpoint`](Self::checkpoint), so
    /// recovery replay cost stays bounded by `frames` regardless of how
    /// long the index lives.
    ///
    /// Off by default, deliberately: a caller whose journal is the
    /// canonical document list rather than a replayable tail (cluster
    /// shards, which pair a basis-only snapshot with an
    /// [`MutationRecord::AddVector`] journal) must never have its journal
    /// rotated down beneath it. Only enable this when the snapshot alone
    /// fully captures the index state.
    ///
    /// # Panics
    /// Panics if `frames` is `Some(0)` — a zero threshold would checkpoint
    /// on every mutation, which is [`checkpoint`](Self::checkpoint) called
    /// directly, not a policy.
    pub fn set_auto_compact(&mut self, frames: Option<u64>) {
        assert!(
            frames != Some(0),
            "auto-compaction threshold must be at least 1"
        );
        self.auto_compact_frames = frames;
    }

    /// Frames appended (or replayed at open) since the last checkpoint —
    /// the journal length the next recovery would have to replay.
    pub fn frames_since_checkpoint(&self) -> u64 {
        self.frames_since_checkpoint
    }

    /// The error from the last failed auto-compaction, if one is pending.
    /// The mutation that triggered it was already durable and applied —
    /// compaction is an optimization, so its failure is parked here (and
    /// retried on the next mutation) instead of failing the mutation.
    pub fn pending_compaction_error(&self) -> Option<&StorageError> {
        self.pending_compaction_error.as_ref()
    }

    /// Bookkeeping after a durably applied mutation: counts the frame and
    /// runs auto-compaction when the policy says so.
    fn note_mutation(&mut self) {
        self.frames_since_checkpoint += 1;
        let Some(limit) = self.auto_compact_frames else {
            return;
        };
        if self.frames_since_checkpoint >= limit {
            if let Err(e) = self.checkpoint() {
                self.pending_compaction_error = Some(e);
            }
        }
    }

    /// Rebuilds a quarantined document-vector section in place and
    /// persists the repair: recomputes every factorization-covered row
    /// from `D_k V_kᵀ` (bitwise identical to the build), re-applies the
    /// retirements in `records` (their zeroed rows were just
    /// resurrected), and checkpoints so the repaired state is durable.
    ///
    /// `records` should be the intact record list returned by
    /// [`open_durable_with_records`](Self::open_durable_with_records):
    /// folded-in rows past the factorization were already recovered by
    /// replaying those records, and their retirements are re-applied
    /// here. Rows whose fold-in frames were compacted away before the
    /// damage are unrecoverable and stay zero (reported in
    /// [`RebuildReport::unrecovered`]).
    ///
    /// Returns `Ok` with the rebuild summary; a quarantined
    /// [`SectionId::DocFactors`] cannot be rebuilt from the same file (it
    /// *is* the rebuild source) and yields
    /// [`StorageError::DamagedSection`] without touching anything.
    pub fn rebuild_quarantined(
        &mut self,
        records: &[MutationRecord],
    ) -> Result<RebuildReport, StorageError> {
        let quarantined = self.index.quarantined_sections();
        if quarantined.contains(&SectionId::DocFactors) {
            // `vt` was the damaged section: there is nothing on this file
            // to rebuild doc vectors from. A full re-index (or a shard
            // re-seed) is the only repair.
            return Err(StorageError::DamagedSection {
                section: SectionId::DocFactors,
            });
        }
        if !quarantined.contains(&SectionId::DocVectors) {
            // No rows to rebuild. The in-memory state is already whole (a
            // quarantined FoldInMeta is derived bookkeeping), so clearing
            // the flags and checkpointing rewrites every section intact.
            self.index.set_quarantined(Vec::new());
            self.checkpoint()?;
            return Ok(RebuildReport {
                rebuilt: 0,
                retires_reapplied: 0,
                unrecovered: 0,
            });
        }

        let rebuilt = self.index.rebuild_doc_vectors();
        let mut retires_reapplied = 0usize;
        for record in records {
            if let MutationRecord::Retire { doc, .. } = record {
                if self.index.retire_document(*doc as usize).is_ok() {
                    retires_reapplied += 1;
                }
            }
        }
        // Folded-in rows beyond the factorization recover only through
        // journal replay; any still-zero row among them was lost to a
        // compacted journal (or was genuinely retired — already counted).
        let retired: std::collections::HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                MutationRecord::Retire { doc, .. } => Some(*doc),
                _ => None,
            })
            .collect();
        let unrecovered = (rebuilt..self.index.n_docs())
            .filter(|&j| {
                !retired.contains(&(j as u64)) && self.index.doc_vector(j).iter().all(|&x| x == 0.0)
            })
            .count();
        // Every repairable section is repaired; clear the remaining flags
        // (e.g. FoldInMeta, which is derived bookkeeping) so the
        // checkpoint below persists a fully intact snapshot.
        self.index.set_quarantined(Vec::new());
        self.checkpoint()?;
        Ok(RebuildReport {
            rebuilt,
            retires_reapplied,
            unrecovered,
        })
    }

    /// Consumes the wrapper, returning the in-memory index.
    pub fn into_index(self) -> LsiIndex {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsiConfig;
    use crate::index::LsiIndex;
    use lsi_ir::TermDocumentMatrix;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsi_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_index() -> LsiIndex {
        let td = TermDocumentMatrix::from_triplets(
            6,
            5,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 1, 1.0),
                (2, 2, 2.0),
                (3, 2, 1.0),
                (3, 3, 2.0),
                (4, 3, 1.0),
                (4, 4, 2.0),
                (5, 4, 1.0),
            ],
        )
        .expect("valid triplets");
        LsiIndex::build(&td, LsiConfig::with_rank(3)).expect("build sample index")
    }

    fn sample_records() -> Vec<MutationRecord> {
        vec![
            MutationRecord::FoldIn {
                seq: 5,
                terms: vec![(0, 1.0), (3, 0.5)],
            },
            MutationRecord::AddDocument {
                seq: 6,
                doc_id: "doc-six".to_string(),
                terms: vec![(1, 2.0)],
            },
            MutationRecord::Checkpoint { seq: 7 },
            MutationRecord::AddVector {
                seq: 7,
                doc_id: "42".to_string(),
                coords: vec![0.25, -1.5, 3.0],
            },
            MutationRecord::Retire { seq: 8, doc: 2 },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut bytes = Vec::new();
        for r in sample_records() {
            bytes.extend_from_slice(&encode_frame(&r));
        }
        let (records, valid, cause) = decode_frames(&bytes);
        assert_eq!(records, sample_records());
        assert_eq!(valid, bytes.len());
        assert!(cause.is_none());
    }

    #[test]
    fn torn_tail_truncates_to_frame_boundary() {
        let records = sample_records();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(&records[0]));
        let boundary = bytes.len();
        bytes.extend_from_slice(&encode_frame(&records[1]));
        for cut in (boundary + 1)..bytes.len() {
            let (got, valid, cause) = decode_frames(&bytes[..cut]);
            assert_eq!(got, records[..1], "cut at {cut}");
            assert_eq!(valid, boundary, "cut at {cut}");
            assert!(cause.is_some(), "cut at {cut} should report a cause");
        }
    }

    #[test]
    fn every_truncation_cause_is_named() {
        let good = encode_frame(&sample_records()[0]);
        let cause = |bytes: &[u8]| decode_frames(bytes).2;
        assert_eq!(cause(&good), None);
        // A cut length prefix, or a cut frame behind a plausible one.
        assert_eq!(cause(&good[..3]), Some(TruncationCause::TornFrame));
        assert_eq!(
            cause(&good[..good.len() - 1]),
            Some(TruncationCause::TornFrame)
        );
        // A length below tag + seq is malformed, whole frame or not.
        let short = crate::frame::encode_frame(&[2, 0, 0, 0]);
        assert_eq!(cause(&short), Some(TruncationCause::MalformedRecord));
        assert_eq!(cause(&short[..5]), Some(TruncationCause::MalformedRecord));
        let mut short_bad_crc = short.clone();
        *short_bad_crc.last_mut().unwrap() ^= 1;
        assert_eq!(
            cause(&short_bad_crc),
            Some(TruncationCause::MalformedRecord)
        );
        // A length above the cap is malformed, though nothing follows it.
        let huge = ((crate::frame::MAX_FRAME + 1) as u32).to_le_bytes();
        assert_eq!(cause(&huge), Some(TruncationCause::MalformedRecord));
        // A flipped body byte fails the checksum.
        let mut flipped = good.clone();
        flipped[6] ^= 1;
        assert_eq!(cause(&flipped), Some(TruncationCause::ChecksumMismatch));
        // A checksum-valid body with an unknown tag does not decode.
        let bad_tag = crate::frame::encode_frame(&[9; MIN_BODY]);
        assert_eq!(cause(&bad_tag), Some(TruncationCause::MalformedRecord));
    }

    #[test]
    fn oversized_record_is_refused_before_any_write() {
        let dir = temp_dir("oversized");
        let path = dir.join("m.lsij");
        let mut j = Journal::create(&path).expect("create");
        let before = std::fs::read(&path).expect("read");
        // 16 bytes per term: just over the frame cap.
        let terms = vec![(0usize, 1.0f64); crate::frame::MAX_FRAME / 16 + 1];
        let err = j
            .append(&MutationRecord::FoldIn { seq: 0, terms })
            .expect_err("over-cap record");
        assert!(matches!(err, StorageError::BadDimensions(_)), "{err}");
        assert_eq!(std::fs::read(&path).expect("read"), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_never_yields_a_mutated_record() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_frame(r));
        }
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0xFF;
            let (got, _, _) = decode_frames(&dirty);
            assert!(
                got.len() <= records.len() && got[..] == records[..got.len()],
                "flip at {i} produced a non-prefix decode"
            );
        }
    }

    #[test]
    fn journal_lifecycle_append_reopen_rotate() {
        let dir = temp_dir("lifecycle");
        let path = dir.join("m.lsij");
        let mut j = Journal::create(&path).expect("create");
        for r in &sample_records() {
            j.append(r).expect("append");
        }
        drop(j);
        let (mut j, rec) = Journal::open(&path).expect("open");
        assert_eq!(rec.records, sample_records());
        assert_eq!(rec.truncated_bytes, 0);
        j.rotate(9).expect("rotate");
        drop(j);
        let (_, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.records, vec![MutationRecord::Checkpoint { seq: 9 }]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_torn_tail_on_disk() {
        let dir = temp_dir("torn");
        let path = dir.join("m.lsij");
        let mut j = Journal::create(&path).expect("create");
        j.append(&sample_records()[0]).expect("append");
        drop(j);
        // Simulate a torn second frame: append half of one.
        let frame = encode_frame(&sample_records()[1]);
        let mut bytes = std::fs::read(&path).expect("read");
        let clean_len = bytes.len();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(&path, &bytes).expect("write torn");
        let (_, rec) = Journal::open(&path).expect("open torn");
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncation, Some(TruncationCause::TornFrame));
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            clean_len as u64,
            "torn tail must be physically truncated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_torn_header_recreate() {
        let dir = temp_dir("header");
        let path = dir.join("m.lsij");
        let (_, rec) = Journal::open(&path).expect("open missing");
        assert!(rec.created);
        std::fs::write(&path, b"LSI").expect("torn header");
        let (_, rec) = Journal::open(&path).expect("open torn header");
        assert!(rec.created);
        std::fs::write(&path, b"NOPEnope").expect("foreign file");
        assert!(matches!(Journal::open(&path), Err(StorageError::BadMagic)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_index_mutate_checkpoint_reopen() {
        let dir = temp_dir("durable");
        let snapshot = dir.join("index.lsix");
        let mut d = DurableIndex::create(&snapshot, sample_index()).expect("create");
        let base = d.index().n_docs();
        d.add_document(&[(0, 1.0), (2, 0.5)]).expect("add 1");
        d.add_document(&[(1, 1.0)]).expect("add 2");
        let live = d.index().n_docs();
        assert_eq!(live, base + 2);

        // Reopen without checkpoint: journal replay restores both.
        let (d2, report) = DurableIndex::open_durable(&snapshot).expect("reopen");
        assert_eq!(d2.index().n_docs(), live);
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.frames_dropped, 0);
        drop(d2);

        // Checkpoint, then reopen: everything comes from the snapshot.
        d.checkpoint().expect("checkpoint");
        let (d3, report) = DurableIndex::open_durable(&snapshot).expect("reopen 2");
        assert_eq!(d3.index().n_docs(), live);
        assert_eq!(report.snapshot_docs, live);
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(report.frames_skipped, 1, "checkpoint marker is skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_rotation_tmp() {
        let dir = temp_dir("sweep");
        let path = dir.join("m.lsij");
        let mut j = Journal::create(&path).expect("create");
        j.append(&sample_records()[0]).expect("append");
        drop(j);
        // A crash between rotation's tmp write and its rename leaves a
        // stale sibling; open must sweep it (the rotation was never
        // acknowledged) and keep the real journal intact.
        let tmp = journal_tmp_path(&path);
        std::fs::write(&tmp, b"half a rotation").expect("stale tmp");
        let (_, rec) = Journal::open(&path).expect("open");
        assert!(!tmp.exists(), "stale .tmp must be swept on open");
        assert_eq!(rec.records, sample_records()[..1]);
        assert_eq!(rec.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_with_replaces_journal_with_record_list() {
        let dir = temp_dir("rotate_with");
        let path = dir.join("m.lsij");
        let mut j = Journal::create_with(&path, &sample_records()).expect("create_with");
        let compacted = vec![
            MutationRecord::AddVector {
                seq: 0,
                doc_id: "7".to_string(),
                coords: vec![1.0, 0.0],
            },
            MutationRecord::AddVector {
                seq: 1,
                doc_id: "9".to_string(),
                coords: vec![0.0, 1.0],
            },
        ];
        j.rotate_with(&compacted).expect("rotate_with");
        // The handle must keep appending to the *new* inode.
        j.append(&MutationRecord::Retire { seq: 2, doc: 0 })
            .expect("append after rotate");
        drop(j);
        let (_, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[..2], compacted[..]);
        assert_eq!(rec.records[2], MutationRecord::Retire { seq: 2, doc: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_vector_lifecycle_add_retire_reopen() {
        let dir = temp_dir("vector");
        let snapshot = dir.join("index.lsix");
        let index = sample_index();
        let k = index.rank();
        let donor_row: Vec<f64> = index.doc_vector(0).to_vec();
        let mut d = DurableIndex::create(&snapshot, index.basis_clone()).expect("create");
        assert_eq!(d.index().n_docs(), 0, "basis snapshot starts empty");

        let id = d.add_document_vector("100", &donor_row).expect("add");
        assert_eq!(id, 0);
        d.add_document_vector("101", &vec![0.5; k]).expect("add 2");
        d.retire_document(0).expect("retire");
        assert_eq!(d.index().doc_vector(0), vec![0.0; k].as_slice());

        // Bad vectors are rejected before journaling.
        assert!(matches!(
            d.add_document_vector("102", &vec![1.0; k + 1]),
            Err(DurabilityError::Index(_))
        ));
        assert!(matches!(
            d.retire_document(99),
            Err(DurabilityError::Index(_))
        ));

        // Replay restores both documents and the retirement, and returns
        // the record list for sidecar state reconstruction.
        let (d2, report, records) =
            DurableIndex::open_durable_with_records(&snapshot).expect("reopen");
        assert_eq!(d2.index().n_docs(), 2);
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(report.frames_dropped, 0);
        assert_eq!(d2.index().doc_vector(0), vec![0.0; k].as_slice());
        assert_eq!(
            d2.index().doc_vector(1),
            vec![0.5; k].as_slice(),
            "transplanted bits must survive replay verbatim"
        );
        assert_eq!(records.len(), 3);
        assert!(matches!(
            &records[0],
            MutationRecord::AddVector { doc_id, .. } if doc_id == "100"
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_add_rejects_bad_terms_before_journaling() {
        let dir = temp_dir("reject");
        let snapshot = dir.join("index.lsix");
        let mut d = DurableIndex::create(&snapshot, sample_index()).expect("create");
        let journal_len = std::fs::metadata(d.journal_file()).expect("stat").len();
        let err = d.add_document(&[(999, 1.0)]).expect_err("must reject");
        assert!(matches!(err, DurabilityError::Index(_)));
        assert_eq!(
            std::fs::metadata(d.journal_file()).expect("stat").len(),
            journal_len,
            "rejected mutation must not reach the journal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
