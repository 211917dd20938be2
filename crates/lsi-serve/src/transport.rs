//! The shard transport abstraction: in-process engines and out-of-process
//! socket RPC behind one trait.
//!
//! A [`Cluster`](crate::cluster::Cluster) talks to every shard through
//! [`ShardTransport`]. The in-process implementation ([`LocalShard`]) wraps
//! a [`QueryEngine`] directly; the cross-process implementation
//! ([`RemoteShard`]) speaks a length-prefixed CRC-framed RPC protocol
//! (`lsi_core::frame`, the journal's framing discipline applied to wire
//! bytes) over a Unix domain socket to a `lsi shard-serve` daemon
//! ([`crate::daemon`]). Because a shard daemon replays the same journal
//! over the same basis snapshot and scores with the same engine, a
//! `Complete` cluster answer is bitwise identical across transports for
//! every shard count and kill schedule — the merge never learns which side
//! of a process boundary a reply crossed.
//!
//! ## Wire grammar
//!
//! One RPC = one request frame, one reply frame (fresh connection per
//! call; a hedged retry is simply a second connection). Frame payloads are
//! tagged little-endian structs; every decoded length and count is bounded
//! (`MAX_*` caps, remaining-input clamps) before any allocation, so a
//! corrupt or hostile peer surfaces as a typed [`TransportError`], never
//! an OOM abort — the S2 discipline end to end.
//!
//! ## Deadlines
//!
//! Every socket read is bounded: unary RPCs carry a per-call deadline
//! enforced through `set_read_timeout` / `set_write_timeout`, and a
//! pending query reply ([`PendingReply::wait_until`]) re-arms the read
//! timeout with the caller's remaining budget on every partial read, so a
//! stalled or killed daemon costs exactly the shard's hard deadline and
//! nothing more. Idempotent control RPCs (hello, ping, row reads) retry
//! transient timeouts through [`RetryPolicy`]; mutations are at-most-once
//! on the wire and surface their uncertainty as typed errors instead.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lsi_core::frame::{encode_frame, scan_frame, FrameError, FrameScan};
use lsi_core::{RetryPolicy, SectionId, StorageError};
use lsi_ir::retrieval::{RankedList, SearchHit};

use crate::engine::{DegradeReason, Query, QueryEngine, QueryError, QueryResponse, Ticket};
use crate::stats::StatsSnapshot;

/// Upper bound on term pairs in one query frame (mirrors the journal's
/// term cap).
const MAX_WIRE_TERMS: u32 = 1 << 22;
/// Upper bound on LSI coordinates in one frame (ranks are small; this is
/// purely a corrupt-length guard).
const MAX_WIRE_COORDS: u32 = 1 << 16;
/// Upper bound on hits in one reply frame.
const MAX_WIRE_HITS: u32 = 1 << 22;
/// Upper bound on id-map entries in one frame.
const MAX_WIRE_IDS: u32 = 1 << 24;
/// Upper bound on a doc-id or error-detail string, in bytes.
const MAX_WIRE_STRING: u32 = 1 << 16;

/// Typed failure of the socket RPC layer.
#[derive(Debug)]
pub enum TransportError {
    /// A socket operation failed (connect, read, write).
    Io(std::io::Error),
    /// The peer's bytes were not a valid frame (bad length, bad CRC).
    Frame(FrameError),
    /// The frame decoded but its payload was not a valid RPC message.
    Malformed(String),
    /// The peer closed the connection before a complete reply arrived —
    /// the kill -9 signature.
    Disconnected,
    /// The per-call deadline expired before a complete reply arrived.
    Deadline,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "shard rpc i/o error: {e}"),
            TransportError::Frame(e) => write!(f, "shard rpc frame error: {e}"),
            TransportError::Malformed(detail) => write!(f, "shard rpc malformed message: {detail}"),
            TransportError::Disconnected => write!(f, "shard rpc peer disconnected mid-reply"),
            TransportError::Deadline => write!(f, "shard rpc deadline expired"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl TransportError {
    /// Maps into the [`StorageError`] space so [`RetryPolicy`] can decide
    /// retryability: genuine I/O errors keep their kind, a deadline
    /// becomes a transient `TimedOut`, and protocol-level damage becomes
    /// hard `InvalidData` (retrying corrupt bytes only wastes budget).
    fn into_storage(self) -> StorageError {
        match self {
            TransportError::Io(e) => StorageError::Io(e),
            TransportError::Deadline => StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "shard rpc deadline expired",
            )),
            other => StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                other.to_string(),
            )),
        }
    }

    /// Maps into the engine's error space for the cluster boundary.
    fn into_query_error(self) -> QueryError {
        match self {
            TransportError::Deadline => QueryError::DeadlineExceeded,
            other => QueryError::Internal {
                detail: other.to_string(),
            },
        }
    }
}

/// One RPC request, as framed onto the shard socket.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcRequest {
    /// Identify the daemon: returns its pid and local → global id map.
    Hello,
    /// Score a query against the shard's documents.
    Query {
        /// Sparse `(term, weight)` pairs (weights as exact f64 bits).
        terms: Vec<(usize, f64)>,
        /// Shard-local result cutoff (`u64::MAX` = every hit).
        top_k: u64,
        /// Engine tag for fault-hook targeting and tracing.
        tag: u64,
    },
    /// Journal + apply one document by its exact LSI-space coordinates.
    AddVector {
        /// Caller-side document id (the cluster's global id, decimal).
        doc_id: String,
        /// The length-`rank` row, bit-exact.
        coords: Vec<f64>,
    },
    /// Journal a tombstone for a local row (journal-only; the live row
    /// keeps its bits).
    LogRetire {
        /// Shard-local row index.
        doc: u64,
    },
    /// Read one row's exact LSI-space coordinates.
    DocVector {
        /// Shard-local row index.
        doc: u64,
    },
    /// Rotate the journal down to the replayable state dump of `ids`.
    Compact {
        /// The coordinator's local → global id map for this shard.
        ids: Vec<Option<u64>>,
    },
    /// Liveness probe.
    Ping,
    /// Ask the daemon to shut down cleanly (reply comes first).
    Shutdown,
}

/// One RPC reply, as framed back from the shard socket.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcReply {
    /// Reply to [`RpcRequest::Hello`].
    Hello {
        /// The daemon's process id.
        pid: u32,
        /// The daemon's local → global id map (`len` = document count).
        ids: Vec<Option<u64>>,
    },
    /// Reply to [`RpcRequest::Query`]: the engine's answer.
    Answer(QueryResponse),
    /// Reply to [`RpcRequest::AddVector`]: the new local row index.
    Local {
        /// Shard-local row index the document landed on.
        local: u64,
    },
    /// Boolean ack ([`RpcRequest::LogRetire`], [`RpcRequest::Compact`]).
    Flag {
        /// The operation's boolean result.
        value: bool,
    },
    /// Reply to [`RpcRequest::DocVector`]: the row bits.
    Coords {
        /// The row's LSI-space coordinates, bit-exact.
        coords: Vec<f64>,
    },
    /// Bare success ack ([`RpcRequest::Ping`], [`RpcRequest::Shutdown`]).
    Ok,
    /// The shard engine rejected the request.
    Fail(QueryError),
}

/// A bounds-checked little-endian cursor over one frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| TransportError::Malformed("payload truncated".to_string()))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, TransportError> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Result<u32, TransportError> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, TransportError> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64_bits(&mut self) -> Result<f64, TransportError> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32` count, rejected against `cap` (and implicitly against the
    /// remaining payload: `min_elem_bytes` bounds the `with_capacity`
    /// pre-allocation to what the payload could actually hold).
    fn count(&mut self, cap: u32, min_elem_bytes: usize) -> Result<(u32, usize), TransportError> {
        let n = self.u32()?;
        if n > cap {
            return Err(TransportError::Malformed(format!(
                "count {n} exceeds the {cap} cap"
            )));
        }
        let reserve = (n as usize).min(self.remaining() / min_elem_bytes.max(1));
        Ok((n, reserve))
    }

    fn string(&mut self) -> Result<String, TransportError> {
        let len = self.u32()?;
        if len > MAX_WIRE_STRING {
            return Err(TransportError::Malformed(format!(
                "string length {len} exceeds the {MAX_WIRE_STRING} cap"
            )));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TransportError::Malformed("string is not UTF-8".to_string()))
    }

    fn finish(&self) -> Result<(), TransportError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(TransportError::Malformed(format!(
                "{} trailing bytes after the message",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_ids(out: &mut Vec<u8>, ids: &[Option<u64>]) {
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        match id {
            Some(gid) => {
                out.push(1);
                out.extend_from_slice(&gid.to_le_bytes());
            }
            None => out.push(0),
        }
    }
}

fn get_ids(c: &mut Cursor<'_>) -> Result<Vec<Option<u64>>, TransportError> {
    let (n, reserve) = c.count(MAX_WIRE_IDS, 1)?;
    let mut ids = Vec::with_capacity(reserve);
    for _ in 0..n {
        ids.push(match c.u8()? {
            0 => None,
            1 => Some(c.u64()?),
            other => {
                return Err(TransportError::Malformed(format!(
                    "bad id-presence byte {other}"
                )))
            }
        });
    }
    Ok(ids)
}

fn put_coords(out: &mut Vec<u8>, coords: &[f64]) {
    out.extend_from_slice(&(coords.len() as u32).to_le_bytes());
    for &x in coords {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

fn get_coords(c: &mut Cursor<'_>) -> Result<Vec<f64>, TransportError> {
    let (n, reserve) = c.count(MAX_WIRE_COORDS, 8)?;
    let mut coords = Vec::with_capacity(reserve);
    for _ in 0..n {
        let x = c.f64_bits()?;
        if !x.is_finite() {
            return Err(TransportError::Malformed(
                "non-finite coordinate".to_string(),
            ));
        }
        coords.push(x);
    }
    Ok(coords)
}

/// Serializes one request into a frame payload (not yet framed).
pub fn encode_request(req: &RpcRequest) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        RpcRequest::Hello => out.push(0),
        RpcRequest::Query { terms, top_k, tag } => {
            out.push(1);
            out.extend_from_slice(&top_k.to_le_bytes());
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
            for &(t, w) in terms {
                out.extend_from_slice(&(t as u64).to_le_bytes());
                out.extend_from_slice(&w.to_bits().to_le_bytes());
            }
        }
        RpcRequest::AddVector { doc_id, coords } => {
            out.push(2);
            put_string(&mut out, doc_id);
            put_coords(&mut out, coords);
        }
        RpcRequest::LogRetire { doc } => {
            out.push(3);
            out.extend_from_slice(&doc.to_le_bytes());
        }
        RpcRequest::DocVector { doc } => {
            out.push(4);
            out.extend_from_slice(&doc.to_le_bytes());
        }
        RpcRequest::Compact { ids } => {
            out.push(5);
            put_ids(&mut out, ids);
        }
        RpcRequest::Ping => out.push(6),
        RpcRequest::Shutdown => out.push(7),
    }
    out
}

/// Deserializes one request frame payload.
///
/// # Errors
/// [`TransportError::Malformed`] for an unknown tag, an over-cap count or
/// string, truncated fields, trailing bytes, or non-finite weights.
pub fn decode_request(payload: &[u8]) -> Result<RpcRequest, TransportError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        0 => RpcRequest::Hello,
        1 => {
            let top_k = c.u64()?;
            let tag = c.u64()?;
            let (n, reserve) = c.count(MAX_WIRE_TERMS, 16)?;
            let mut terms = Vec::with_capacity(reserve);
            for _ in 0..n {
                let t = c.u64()?;
                let w = c.f64_bits()?;
                let t = usize::try_from(t)
                    .map_err(|_| TransportError::Malformed("term id overflows".to_string()))?;
                terms.push((t, w));
            }
            RpcRequest::Query { terms, top_k, tag }
        }
        2 => RpcRequest::AddVector {
            doc_id: c.string()?,
            coords: get_coords(&mut c)?,
        },
        3 => RpcRequest::LogRetire { doc: c.u64()? },
        4 => RpcRequest::DocVector { doc: c.u64()? },
        5 => RpcRequest::Compact {
            ids: get_ids(&mut c)?,
        },
        6 => RpcRequest::Ping,
        7 => RpcRequest::Shutdown,
        other => {
            return Err(TransportError::Malformed(format!(
                "unknown request tag {other}"
            )))
        }
    };
    c.finish()?;
    Ok(req)
}

fn put_hits(out: &mut Vec<u8>, hits: &RankedList) {
    out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
    for h in hits.hits() {
        out.extend_from_slice(&(h.doc as u64).to_le_bytes());
        out.extend_from_slice(&h.score.to_bits().to_le_bytes());
    }
}

fn get_hits(c: &mut Cursor<'_>) -> Result<RankedList, TransportError> {
    let (n, reserve) = c.count(MAX_WIRE_HITS, 16)?;
    let mut hits = Vec::with_capacity(reserve);
    for _ in 0..n {
        let doc = c.u64()?;
        let score = c.f64_bits()?;
        let doc = usize::try_from(doc)
            .map_err(|_| TransportError::Malformed("hit doc id overflows".to_string()))?;
        if !score.is_finite() {
            return Err(TransportError::Malformed("non-finite score".to_string()));
        }
        hits.push(SearchHit { doc, score });
    }
    // `from_hits` re-sorts by (score desc, doc asc) — a deterministic
    // total order over finite scores, so reconstruction is bit-exact.
    Ok(RankedList::from_hits(hits))
}

fn put_degrade_reason(out: &mut Vec<u8>, reason: &DegradeReason) {
    match reason {
        DegradeReason::DegradedIndex => out.push(0),
        DegradeReason::SoftDeadline => out.push(1),
        DegradeReason::DamagedSection(section) => {
            out.push(2);
            out.push(section.tag());
        }
    }
}

fn get_degrade_reason(c: &mut Cursor<'_>) -> Result<DegradeReason, TransportError> {
    Ok(match c.u8()? {
        0 => DegradeReason::DegradedIndex,
        1 => DegradeReason::SoftDeadline,
        2 => {
            let tag = c.u8()?;
            let section = SectionId::from_tag(tag)
                .ok_or_else(|| TransportError::Malformed(format!("unknown section tag {tag}")))?;
            DegradeReason::DamagedSection(section)
        }
        other => {
            return Err(TransportError::Malformed(format!(
                "unknown degrade reason {other}"
            )))
        }
    })
}

fn put_query_error(out: &mut Vec<u8>, e: &QueryError) {
    match e {
        QueryError::Overloaded { capacity } => {
            out.push(0);
            out.extend_from_slice(&(*capacity as u64).to_le_bytes());
        }
        QueryError::DeadlineExceeded => out.push(1),
        QueryError::Internal { detail } => {
            out.push(2);
            let detail: String = detail.chars().take(MAX_WIRE_STRING as usize / 4).collect();
            put_string(out, &detail);
        }
        QueryError::ShuttingDown => out.push(3),
        // `BadQuery` carries a structured reason that only matters on the
        // validating side; the coordinator pre-validates against the same
        // basis, so this crossing the wire means a version skew — carry
        // the rendered reason.
        QueryError::BadQuery(bad) => {
            out.push(4);
            put_string(out, &bad.to_string());
        }
    }
}

fn get_query_error(c: &mut Cursor<'_>) -> Result<QueryError, TransportError> {
    Ok(match c.u8()? {
        0 => QueryError::Overloaded {
            capacity: c.u64()? as usize,
        },
        1 => QueryError::DeadlineExceeded,
        2 => QueryError::Internal {
            detail: c.string()?,
        },
        3 => QueryError::ShuttingDown,
        4 => QueryError::Internal {
            detail: format!("shard-side bad query: {}", c.string()?),
        },
        other => {
            return Err(TransportError::Malformed(format!(
                "unknown error code {other}"
            )))
        }
    })
}

/// Serializes one reply into a frame payload (not yet framed).
pub fn encode_reply(reply: &RpcReply) -> Vec<u8> {
    let mut out = Vec::new();
    match reply {
        RpcReply::Hello { pid, ids } => {
            out.push(0);
            out.extend_from_slice(&pid.to_le_bytes());
            put_ids(&mut out, ids);
        }
        RpcReply::Answer(response) => {
            out.push(1);
            match response {
                QueryResponse::Ranked(hits) => {
                    out.push(0);
                    put_hits(&mut out, hits);
                }
                QueryResponse::Degraded { hits, reason } => {
                    out.push(1);
                    put_degrade_reason(&mut out, reason);
                    put_hits(&mut out, hits);
                }
            }
        }
        RpcReply::Local { local } => {
            out.push(2);
            out.extend_from_slice(&local.to_le_bytes());
        }
        RpcReply::Flag { value } => {
            out.push(3);
            out.push(u8::from(*value));
        }
        RpcReply::Coords { coords } => {
            out.push(4);
            put_coords(&mut out, coords);
        }
        RpcReply::Ok => out.push(5),
        RpcReply::Fail(e) => {
            out.push(6);
            put_query_error(&mut out, e);
        }
    }
    out
}

/// Deserializes one reply frame payload.
///
/// # Errors
/// [`TransportError::Malformed`] for an unknown tag, an over-cap count or
/// string, truncated fields, trailing bytes, or non-finite scores.
pub fn decode_reply(payload: &[u8]) -> Result<RpcReply, TransportError> {
    let mut c = Cursor::new(payload);
    let reply = match c.u8()? {
        0 => RpcReply::Hello {
            pid: c.u32()?,
            ids: get_ids(&mut c)?,
        },
        1 => RpcReply::Answer(match c.u8()? {
            0 => QueryResponse::Ranked(get_hits(&mut c)?),
            1 => {
                let reason = get_degrade_reason(&mut c)?;
                QueryResponse::Degraded {
                    hits: get_hits(&mut c)?,
                    reason,
                }
            }
            other => {
                return Err(TransportError::Malformed(format!(
                    "unknown response kind {other}"
                )))
            }
        }),
        2 => RpcReply::Local { local: c.u64()? },
        3 => RpcReply::Flag {
            value: match c.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(TransportError::Malformed(format!(
                        "bad boolean byte {other}"
                    )))
                }
            },
        },
        4 => RpcReply::Coords {
            coords: get_coords(&mut c)?,
        },
        5 => RpcReply::Ok,
        6 => RpcReply::Fail(get_query_error(&mut c)?),
        other => {
            return Err(TransportError::Malformed(format!(
                "unknown reply tag {other}"
            )))
        }
    };
    c.finish()?;
    Ok(reply)
}

/// Remaining budget until `deadline`, as a nonzero socket timeout.
fn remaining_timeout(deadline: Instant) -> Result<Duration, TransportError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(TransportError::Deadline);
    }
    Ok(left)
}

/// Writes one framed payload with the deadline's remaining budget as the
/// write timeout.
pub(crate) fn send_frame(
    stream: &mut UnixStream,
    payload: &[u8],
    deadline: Instant,
) -> Result<(), TransportError> {
    stream
        .set_write_timeout(Some(remaining_timeout(deadline)?))
        .map_err(TransportError::Io)?;
    let wire = encode_frame(payload);
    stream.write_all(&wire).map_err(|e| {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            TransportError::Deadline
        } else {
            TransportError::Io(e)
        }
    })?;
    stream.flush().map_err(TransportError::Io)?;
    Ok(())
}

/// Reads one complete frame off `stream` into/through `buf`, re-arming
/// the read timeout with the deadline's remaining budget before every
/// partial read (plain `read`, never `read_exact`: a timeout mid-frame
/// must not lose the bytes already buffered). `buf` carries partial-frame
/// state across calls so a [`TransportError::Deadline`] return can be
/// retried without losing progress.
pub(crate) fn read_frame(
    stream: &mut UnixStream,
    deadline: Instant,
    buf: &mut Vec<u8>,
) -> Result<Vec<u8>, TransportError> {
    loop {
        match scan_frame(buf)? {
            FrameScan::Complete { payload, consumed } => {
                let payload = payload.to_vec();
                buf.drain(..consumed);
                return Ok(payload);
            }
            FrameScan::Incomplete => {}
        }
        stream
            .set_read_timeout(Some(remaining_timeout(deadline)?))
            .map_err(TransportError::Io)?;
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(TransportError::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(TransportError::Deadline)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
}

/// One unary RPC on a fresh connection: connect, send, read one reply.
fn call_once(
    socket: &Path,
    req: &RpcRequest,
    timeout: Duration,
) -> Result<RpcReply, TransportError> {
    let deadline = Instant::now() + timeout;
    let mut stream = UnixStream::connect(socket).map_err(TransportError::Io)?;
    send_frame(&mut stream, &encode_request(req), deadline)?;
    let mut buf = Vec::new();
    let payload = read_frame(&mut stream, deadline, &mut buf)?;
    decode_reply(&payload)
}

/// An in-flight query reply: the transport-agnostic analogue of
/// [`Ticket`].
pub enum PendingReply {
    /// In-process: the engine ticket.
    Local(Ticket),
    /// Cross-process: the RPC connection with its partial-read buffer.
    Remote(RemotePending),
}

/// The remote half of [`PendingReply`]: an open connection whose reply
/// frame may arrive across several bounded reads.
pub struct RemotePending {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl PendingReply {
    /// Waits for the reply until `deadline`. `Ok` carries the terminal
    /// result; `Err` hands the still-pending reply back (the hedging
    /// contract of [`Ticket::wait_until`]). A disconnect, frame error, or
    /// malformed reply is terminal: `Ok(Err(_))` with a typed engine
    /// error, so the caller's failure accounting sees it exactly like an
    /// in-process worker failure.
    pub fn wait_until(
        self,
        deadline: Instant,
    ) -> Result<Result<QueryResponse, QueryError>, PendingReply> {
        match self {
            PendingReply::Local(ticket) => ticket.wait_until(deadline).map_err(PendingReply::Local),
            PendingReply::Remote(mut pending) => {
                match read_frame(&mut pending.stream, deadline, &mut pending.buf) {
                    Ok(payload) => Ok(match decode_reply(&payload) {
                        Ok(RpcReply::Answer(response)) => Ok(response),
                        Ok(RpcReply::Fail(e)) => Err(e),
                        Ok(other) => Err(QueryError::Internal {
                            detail: format!("unexpected reply to a query rpc: {other:?}"),
                        }),
                        Err(e) => Err(e.into_query_error()),
                    }),
                    Err(TransportError::Deadline) => Err(PendingReply::Remote(pending)),
                    Err(e) => Ok(Err(e.into_query_error())),
                }
            }
        }
    }
}

/// How a [`Cluster`](crate::cluster::Cluster) talks to one shard.
///
/// The in-process implementation is [`LocalShard`]; the socket RPC
/// implementation is [`RemoteShard`]. Both expose the same journaled
/// mutation surface as [`QueryEngine`], and both return shard-local hits
/// that score to identical bits for identical rows — the merge layer
/// cannot tell transports apart.
pub trait ShardTransport: Send + Sync {
    /// Submits a query; the reply is awaited through
    /// [`PendingReply::wait_until`].
    ///
    /// # Errors
    /// [`QueryError`] when the shard refuses the submission (overload,
    /// shutdown, unreachable daemon).
    fn submit(&self, query: Query) -> Result<PendingReply, QueryError>;

    /// Journals + applies one document by its exact LSI-space
    /// coordinates; returns the shard-local row index.
    ///
    /// # Errors
    /// [`QueryError`] when the mutation was not durably acknowledged. For
    /// a remote shard the mutation may still have been journaled (the ack
    /// can be lost to a crash); recovery adopts the journal's truth.
    fn add_document_vector(&self, doc_id: &str, coords: &[f64]) -> Result<usize, QueryError>;

    /// Journals a tombstone for local row `doc` (journal-only retire).
    ///
    /// # Errors
    /// [`QueryError`] when the tombstone was not durably acknowledged.
    fn log_retire(&self, doc: usize) -> Result<bool, QueryError>;

    /// Reads local row `doc`'s exact LSI-space coordinates.
    ///
    /// # Errors
    /// [`QueryError`] when the row is out of range or the shard is
    /// unreachable.
    fn doc_vector(&self, doc: usize) -> Result<Vec<f64>, QueryError>;

    /// Rotates the shard's journal down to the replayable state dump of
    /// `ids`. `Ok(false)` for shards with no journal.
    ///
    /// # Errors
    /// [`QueryError`] when the rotation failed or `ids` is out of step
    /// with the shard's document count.
    fn compact(&self, ids: &[Option<u64>]) -> Result<bool, QueryError>;

    /// Liveness probe (cheap; retried on transient failures).
    ///
    /// # Errors
    /// [`QueryError`] when the shard does not answer within the RPC
    /// deadline.
    fn ping(&self) -> Result<(), QueryError>;

    /// The shard's serving statistics ([`StatsSnapshot`]); empty for
    /// transports that do not mirror remote counters.
    fn stats(&self) -> StatsSnapshot;

    /// Releases the transport (joins in-process workers; remote daemons
    /// are owned and shut down by their supervisor, not the transport).
    fn shutdown(self: Box<Self>);

    /// The in-process engine behind this transport, when there is one
    /// (chaos hooks and crash simulation need it; remote shards return
    /// `None`).
    fn engine(&self) -> Option<&QueryEngine> {
        None
    }

    /// Consumes the transport, yielding the in-process engine when there
    /// is one.
    fn take_engine(self: Box<Self>) -> Option<QueryEngine> {
        None
    }
}

/// One assembled shard handed to the coordinator: a transport plus the
/// local → global id map its daemon reported in `Hello` (or the builder
/// derived in-process).
pub type ShardPart = (Box<dyn ShardTransport>, Vec<Option<u64>>);

/// The in-process transport: a thin wrapper over [`QueryEngine`].
pub struct LocalShard {
    engine: QueryEngine,
}

impl LocalShard {
    /// Wraps an engine.
    pub fn new(engine: QueryEngine) -> Self {
        LocalShard { engine }
    }
}

impl ShardTransport for LocalShard {
    fn submit(&self, query: Query) -> Result<PendingReply, QueryError> {
        self.engine.submit(query).map(PendingReply::Local)
    }

    fn add_document_vector(&self, doc_id: &str, coords: &[f64]) -> Result<usize, QueryError> {
        self.engine.add_document_vector(doc_id, coords)
    }

    fn log_retire(&self, doc: usize) -> Result<bool, QueryError> {
        self.engine.log_retire(doc)
    }

    fn doc_vector(&self, doc: usize) -> Result<Vec<f64>, QueryError> {
        self.engine.with_index(|index| {
            if doc < index.n_docs() {
                Ok(index.doc_vector(doc).to_vec())
            } else {
                Err(QueryError::Internal {
                    detail: format!("row {doc} out of range ({} rows)", index.n_docs()),
                })
            }
        })
    }

    fn compact(&self, ids: &[Option<u64>]) -> Result<bool, QueryError> {
        let records = self.engine.with_index(|index| {
            if ids.len() == index.n_docs() {
                Ok(crate::cluster::state_dump(ids, index))
            } else {
                Err(QueryError::Internal {
                    detail: format!(
                        "compact id map covers {} rows, shard holds {}",
                        ids.len(),
                        index.n_docs()
                    ),
                })
            }
        })?;
        self.engine.rotate_journal(&records)
    }

    fn ping(&self) -> Result<(), QueryError> {
        Ok(())
    }

    fn stats(&self) -> StatsSnapshot {
        self.engine.stats()
    }

    fn shutdown(self: Box<Self>) {
        self.engine.shutdown();
    }

    fn engine(&self) -> Option<&QueryEngine> {
        Some(&self.engine)
    }

    fn take_engine(self: Box<Self>) -> Option<QueryEngine> {
        Some(self.engine)
    }
}

/// The socket RPC transport: one Unix-domain-socket connection per call
/// to a `lsi shard-serve` daemon.
pub struct RemoteShard {
    socket: PathBuf,
    rpc_timeout: Duration,
    retry: RetryPolicy,
}

impl RemoteShard {
    /// A transport for the daemon listening on `socket`, with `rpc_timeout`
    /// as the per-call deadline.
    pub fn new(socket: impl Into<PathBuf>, rpc_timeout: Duration) -> Self {
        RemoteShard {
            socket: socket.into(),
            rpc_timeout,
            retry: RetryPolicy::default(),
        }
    }

    /// The daemon's socket path.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// One at-most-once RPC (mutations must not be blindly re-sent: a
    /// lost ack does not imply a lost journal append).
    fn call(&self, req: &RpcRequest) -> Result<RpcReply, QueryError> {
        call_once(&self.socket, req, self.rpc_timeout).map_err(TransportError::into_query_error)
    }

    /// One idempotent RPC, retried on transient failures (timeouts,
    /// interrupts) under the bounded [`RetryPolicy`] backoff.
    fn call_retrying(&self, req: &RpcRequest) -> Result<RpcReply, QueryError> {
        self.retry
            .run(|| {
                call_once(&self.socket, req, self.rpc_timeout).map_err(TransportError::into_storage)
            })
            .map_err(|e| QueryError::Internal {
                detail: format!("shard rpc failed: {e}"),
            })
    }

    /// Performs the hello handshake: the daemon's pid and id map.
    ///
    /// # Errors
    /// [`QueryError`] when the daemon is unreachable or replies with
    /// anything but a hello.
    pub fn hello(&self) -> Result<(u32, Vec<Option<u64>>), QueryError> {
        match self.call_retrying(&RpcRequest::Hello)? {
            RpcReply::Hello { pid, ids } => Ok((pid, ids)),
            other => Err(unexpected_reply("hello", &other)),
        }
    }

    /// Asks the daemon to exit cleanly (it acks, then stops accepting).
    ///
    /// # Errors
    /// [`QueryError`] when the daemon is already gone — usually fine for
    /// callers tearing the cluster down.
    pub fn send_shutdown(&self) -> Result<(), QueryError> {
        match self.call(&RpcRequest::Shutdown)? {
            RpcReply::Ok => Ok(()),
            other => Err(unexpected_reply("shutdown", &other)),
        }
    }
}

fn unexpected_reply(what: &str, reply: &RpcReply) -> QueryError {
    QueryError::Internal {
        detail: format!("unexpected reply to a {what} rpc: {reply:?}"),
    }
}

/// Unwraps `RpcReply::Fail` into the carried error, otherwise applies `f`.
fn expect_reply<T>(
    reply: RpcReply,
    what: &str,
    f: impl FnOnce(RpcReply) -> Option<T>,
) -> Result<T, QueryError> {
    if let RpcReply::Fail(e) = reply {
        return Err(e);
    }
    let detail = unexpected_reply(what, &reply);
    f(reply).ok_or(detail)
}

impl ShardTransport for RemoteShard {
    fn submit(&self, query: Query) -> Result<PendingReply, QueryError> {
        let deadline = Instant::now() + self.rpc_timeout;
        let mut stream = UnixStream::connect(&self.socket).map_err(|e| QueryError::Internal {
            detail: format!("shard daemon unreachable: {e}"),
        })?;
        let req = RpcRequest::Query {
            terms: query.terms,
            top_k: query.top_k as u64,
            tag: query.tag,
        };
        send_frame(&mut stream, &encode_request(&req), deadline)
            .map_err(TransportError::into_query_error)?;
        Ok(PendingReply::Remote(RemotePending {
            stream,
            buf: Vec::new(),
        }))
    }

    fn add_document_vector(&self, doc_id: &str, coords: &[f64]) -> Result<usize, QueryError> {
        let req = RpcRequest::AddVector {
            doc_id: doc_id.to_string(),
            coords: coords.to_vec(),
        };
        expect_reply(self.call(&req)?, "add-vector", |r| match r {
            RpcReply::Local { local } => usize::try_from(local).ok(),
            _ => None,
        })
    }

    fn log_retire(&self, doc: usize) -> Result<bool, QueryError> {
        let req = RpcRequest::LogRetire { doc: doc as u64 };
        expect_reply(self.call(&req)?, "log-retire", |r| match r {
            RpcReply::Flag { value } => Some(value),
            _ => None,
        })
    }

    fn doc_vector(&self, doc: usize) -> Result<Vec<f64>, QueryError> {
        let req = RpcRequest::DocVector { doc: doc as u64 };
        expect_reply(self.call_retrying(&req)?, "doc-vector", |r| match r {
            RpcReply::Coords { coords } => Some(coords),
            _ => None,
        })
    }

    fn compact(&self, ids: &[Option<u64>]) -> Result<bool, QueryError> {
        let req = RpcRequest::Compact { ids: ids.to_vec() };
        expect_reply(self.call(&req)?, "compact", |r| match r {
            RpcReply::Flag { value } => Some(value),
            _ => None,
        })
    }

    fn ping(&self) -> Result<(), QueryError> {
        expect_reply(
            self.call_retrying(&RpcRequest::Ping)?,
            "ping",
            |r| match r {
                RpcReply::Ok => Some(()),
                _ => None,
            },
        )
    }

    fn stats(&self) -> StatsSnapshot {
        // Remote engine counters live in the daemon process; the
        // coordinator's per-shard health rows carry the serving signal.
        crate::stats::ServeStats::new().snapshot()
    }

    fn shutdown(self: Box<Self>) {
        // Connection-per-call: nothing held open. Daemon lifecycle belongs
        // to the supervisor.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: RpcRequest) {
        let wire = encode_request(&req);
        assert_eq!(decode_request(&wire).unwrap(), req);
    }

    fn round_trip_reply(reply: RpcReply) {
        let wire = encode_reply(&reply);
        assert_eq!(decode_reply(&wire).unwrap(), reply);
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        round_trip_request(RpcRequest::Hello);
        round_trip_request(RpcRequest::Query {
            terms: vec![(0, 1.5), (7, -0.25), (usize::MAX >> 1, 1e-300)],
            top_k: u64::MAX,
            tag: 42,
        });
        round_trip_request(RpcRequest::AddVector {
            doc_id: "1729".to_string(),
            coords: vec![0.1, -2.5, 3.25],
        });
        round_trip_request(RpcRequest::LogRetire { doc: 3 });
        round_trip_request(RpcRequest::DocVector { doc: 0 });
        round_trip_request(RpcRequest::Compact {
            ids: vec![Some(5), None, Some(u64::MAX)],
        });
        round_trip_request(RpcRequest::Ping);
        round_trip_request(RpcRequest::Shutdown);
    }

    #[test]
    fn replies_round_trip_bit_exactly() {
        round_trip_reply(RpcReply::Hello {
            pid: 4321,
            ids: vec![Some(0), None, Some(17)],
        });
        let hits = RankedList::from_hits(vec![
            SearchHit {
                doc: 2,
                score: 0.75,
            },
            SearchHit { doc: 0, score: 0.5 },
        ]);
        round_trip_reply(RpcReply::Answer(QueryResponse::Ranked(hits.clone())));
        round_trip_reply(RpcReply::Answer(QueryResponse::Degraded {
            hits,
            reason: DegradeReason::SoftDeadline,
        }));
        round_trip_reply(RpcReply::Answer(QueryResponse::Degraded {
            hits: RankedList::default(),
            reason: DegradeReason::DamagedSection(SectionId::DocVectors),
        }));
        round_trip_reply(RpcReply::Local { local: 9 });
        round_trip_reply(RpcReply::Flag { value: true });
        round_trip_reply(RpcReply::Coords {
            coords: vec![1.0, -1.0],
        });
        round_trip_reply(RpcReply::Ok);
        round_trip_reply(RpcReply::Fail(QueryError::Overloaded { capacity: 64 }));
        round_trip_reply(RpcReply::Fail(QueryError::DeadlineExceeded));
        round_trip_reply(RpcReply::Fail(QueryError::Internal {
            detail: "worker panicked".to_string(),
        }));
        round_trip_reply(RpcReply::Fail(QueryError::ShuttingDown));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut wire = encode_request(&RpcRequest::Ping);
        wire.push(0);
        assert!(matches!(
            decode_request(&wire),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn over_cap_counts_are_rejected_before_allocation() {
        // A Compact request whose id count claims 2^31 entries.
        let mut wire = vec![5u8];
        wire.extend_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(matches!(
            decode_request(&wire),
            Err(TransportError::Malformed(_))
        ));
        // A reply whose hit count is over the cap.
        let mut wire = vec![1u8, 0u8];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_reply(&wire),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_tags_are_malformed() {
        assert!(matches!(
            decode_request(&[200]),
            Err(TransportError::Malformed(_))
        ));
        assert!(matches!(
            decode_reply(&[200]),
            Err(TransportError::Malformed(_))
        ));
        assert!(matches!(
            decode_request(&[]),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn remote_submit_to_a_dead_socket_is_a_typed_refusal() {
        let dir = std::env::temp_dir().join(format!("lsi_transport_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let shard = RemoteShard::new(dir.join("nope.sock"), Duration::from_millis(100));
        assert!(shard.submit(Query::new(vec![(0, 1.0)], 3)).is_err());
        assert!(shard.ping().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
