//! Corruption fuzz sweep over the persistence formats and the shard RPC
//! wire format.
//!
//! Every single-byte corruption of an `.lsix` snapshot or a `.lsij`
//! journal must be *contained*: strict snapshot reads fail with a typed
//! [`lsi_core::StorageError`] (never a panic, never a silently wrong
//! index); tolerant opens of the sectioned v3 format either fail typed or
//! quarantine exactly the degradable section holding the flipped byte;
//! and journal recovery degrades to a strict prefix of the original
//! record stream (never an invented or altered record). The same bar
//! applies to bytes arriving over a shard socket: every flipped or
//! truncated RPC frame dies in [`lsi_core::frame::scan_frame`] or the
//! payload grammar with a typed [`TransportError`] — never a panic, never
//! an unbounded allocation, never a silently altered message. Two masks
//! per offset: `0xFF` (whole byte inverted — gross media damage) and
//! `0x01` (single bit — the classic silent-rot case a checksum must
//! catch).

use std::path::PathBuf;

use lsi_core::journal::{decode_frames, encode_frame, fresh_journal_bytes};
use lsi_core::{
    inspect_snapshot, open_index_tolerant, read_index, write_index, DurableIndex, FrameScan,
    Journal, LsiConfig, LsiIndex, MutationRecord, SectionId, SnapshotReport,
};
use lsi_ir::retrieval::{RankedList, SearchHit, VectorSpaceIndex};
use lsi_ir::TermDocumentMatrix;
use lsi_serve::transport::{
    decode_reply, decode_request, encode_reply, encode_request, RpcReply, RpcRequest,
    TransportError,
};
use lsi_serve::{DegradeReason, EngineConfig, Query, QueryEngine, QueryError, QueryResponse};

const MASKS: [u8; 2] = [0xFF, 0x01];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsi_fuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sample_corpus() -> TermDocumentMatrix {
    TermDocumentMatrix::from_triplets(
        5,
        4,
        &[
            (0, 0, 2.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
            (3, 2, 1.0),
            (3, 3, 2.0),
            (4, 3, 1.0),
        ],
    )
    .expect("valid triplets")
}

fn sample_index() -> LsiIndex {
    LsiIndex::build(&sample_corpus(), LsiConfig::with_rank(2)).expect("build sample index")
}

/// Byte offset of the middle of `id`'s payload in a v3 snapshot image.
fn payload_mid(report: &SnapshotReport, id: SectionId) -> usize {
    let s = report
        .sections
        .iter()
        .find(|s| s.id == Some(id))
        .expect("section present in directory");
    (s.offset + 8 + s.len / 2) as usize
}

/// Flipping any byte of a snapshot — any offset, both masks — must come
/// back as a typed `StorageError`. The version field (offsets 4..8) is
/// excluded: rewriting version 2 as version 1 selects the documented
/// legacy read path (v1 files had no CRC trailer and are accepted by
/// design), so a flip there is a format *downgrade*, not corruption. The
/// chosen masks never produce the value 1, but the exclusion keeps the
/// sweep honest if masks change.
#[test]
fn every_snapshot_byte_flip_is_a_typed_error() {
    let index = sample_index();
    let mut clean = Vec::new();
    write_index(&mut clean, &index).expect("serialize");

    for offset in 0..clean.len() {
        if (4..8).contains(&offset) {
            continue; // version field: see doc comment above
        }
        for mask in MASKS {
            let mut dirty = clean.clone();
            dirty[offset] ^= mask;
            match read_index(&mut dirty.as_slice()) {
                Err(_typed) => {} // contained: every variant is acceptable
                Ok(_) => panic!("flip {mask:#04x} at offset {offset} was silently accepted"),
            }
        }
    }
}

/// Tolerant open, exhaustively: flipping any byte of a v3 snapshot — any
/// offset, both masks — either fails with a typed error (version,
/// directory, or essential-section damage) or opens with a non-empty
/// quarantine naming only degradable sections whose block contains the
/// flipped byte. A flip is never silently absorbed, and the quarantine
/// reported to the caller always matches the one marked on the index.
#[test]
fn every_v3_byte_flip_quarantines_or_errors() {
    let index = sample_index();
    let mut clean = Vec::new();
    write_index(&mut clean, &index).expect("serialize");
    let report = inspect_snapshot(&clean).expect("inspect clean image");

    for offset in 0..clean.len() {
        for mask in MASKS {
            let mut dirty = clean.clone();
            dirty[offset] ^= mask;
            let total = dirty.len() as u64;
            match open_index_tolerant(&mut dirty.as_slice(), Some(total)) {
                Err(_typed) => {} // contained: every variant is acceptable
                Ok((opened, damage)) => {
                    assert!(
                        !damage.is_empty(),
                        "flip {mask:#04x} at offset {offset} was silently absorbed"
                    );
                    for d in &damage {
                        assert!(
                            !d.section.essential(),
                            "tolerant open quarantined essential section {}",
                            d.section
                        );
                        let s = report
                            .sections
                            .iter()
                            .find(|s| s.id == Some(d.section))
                            .expect("quarantined section is in the directory");
                        let block = s.offset..s.offset + 8 + s.len + 4;
                        assert!(
                            block.contains(&(offset as u64)),
                            "flip {mask:#04x} at offset {offset} quarantined \
                             unrelated section {}",
                            d.section
                        );
                    }
                    let marked: Vec<SectionId> = damage.iter().map(|d| d.section).collect();
                    assert_eq!(opened.quarantined_sections(), marked.as_slice());
                }
            }
        }
    }
}

/// The same contract through the full recovery entry point. `open_durable`
/// opens *tolerantly*: damage to the directory or an essential section is
/// still a typed error, while damage inside a degradable section opens the
/// index with exactly that section quarantined — never a panic, never a
/// silently clean index. (Sampled offsets — the exhaustive in-memory
/// sweeps above already cover every byte.)
#[test]
fn open_durable_contains_snapshot_corruption() {
    let dir = temp_dir("open_durable");
    let snapshot = dir.join("index.lsix");
    let d = DurableIndex::create(&snapshot, sample_index()).expect("create");
    drop(d);
    let clean = std::fs::read(&snapshot).expect("read snapshot");
    let report = inspect_snapshot(&clean).expect("inspect clean snapshot");

    // Magic, directory count, and a directory entry: unrecoverable.
    let essential_probes = [
        0usize,
        1,
        8,
        13,
        payload_mid(&report, SectionId::Meta),
        payload_mid(&report, SectionId::SingularValues),
        payload_mid(&report, SectionId::TermFactors),
    ];
    for offset in essential_probes {
        let mut dirty = clean.clone();
        dirty[offset] ^= 0xFF;
        std::fs::write(&snapshot, &dirty).expect("install corrupt snapshot");
        assert!(
            DurableIndex::open_durable(&snapshot).is_err(),
            "essential damage (offset {offset}) opened without error"
        );
    }

    // Degradable sections: partial open with the quarantine reported.
    for id in [
        SectionId::DocFactors,
        SectionId::DocVectors,
        SectionId::FoldInMeta,
    ] {
        let mut dirty = clean.clone();
        dirty[payload_mid(&report, id)] ^= 0xFF;
        std::fs::write(&snapshot, &dirty).expect("install corrupt snapshot");
        let (durable, recovery) =
            DurableIndex::open_durable(&snapshot).expect("degradable damage partially opens");
        assert_eq!(recovery.quarantined, vec![id]);
        assert_eq!(durable.index().quarantined_sections(), &[id]);
    }

    // Restore the clean bytes: recovery works again — corruption handling
    // must not have side effects on the snapshot itself.
    std::fs::write(&snapshot, &clean).expect("restore snapshot");
    let (durable, recovery) =
        DurableIndex::open_durable(&snapshot).expect("clean snapshot reopens");
    assert!(recovery.quarantined.is_empty());
    assert!(durable.index().quarantined_sections().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A partial open with `doc-vectors` quarantined must answer every query
/// exactly — bitwise — like the raw term-space fallback it degrades to,
/// and say so in the degrade reason.
#[test]
fn partial_open_answers_exactly_like_term_space_fallback() {
    let td = sample_corpus();
    let index = LsiIndex::build(&td, LsiConfig::with_rank(2)).expect("build");
    let weighting = index.config().weighting;
    let dir = temp_dir("partial_open");
    let snapshot = dir.join("index.lsix");
    drop(DurableIndex::create(&snapshot, index).expect("create"));

    let mut bytes = std::fs::read(&snapshot).expect("read snapshot");
    let report = inspect_snapshot(&bytes).expect("inspect");
    bytes[payload_mid(&report, SectionId::DocVectors)] ^= 0x01;
    std::fs::write(&snapshot, &bytes).expect("install corrupt snapshot");

    let (durable, recovery) = DurableIndex::open_durable(&snapshot).expect("partial open");
    assert_eq!(recovery.quarantined, vec![SectionId::DocVectors]);

    let engine = QueryEngine::with_durable_fallback(
        durable,
        &td,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let raw = VectorSpaceIndex::build(&td.weighted(weighting));

    let mut queries: Vec<Vec<(usize, f64)>> = (0..5).map(|t| vec![(t, 1.0)]).collect();
    queries.push(vec![(0, 0.5), (3, 2.0)]);
    queries.push(vec![(1, 1.0), (2, 1.0), (4, 0.25)]);

    for terms in queries {
        let resp = engine
            .query(Query::new(terms.clone(), 4))
            .expect("degraded query answers");
        match resp {
            QueryResponse::Degraded { hits, reason } => {
                assert_eq!(reason, DegradeReason::DamagedSection(SectionId::DocVectors));
                let expect = raw.query(&terms, 4);
                assert_eq!(hits.doc_ids(), expect.doc_ids(), "ranking diverged");
                for (h, e) in hits.hits().iter().zip(expect.hits()) {
                    assert_eq!(
                        h.score.to_bits(),
                        e.score.to_bits(),
                        "doc {} scored differently from the fallback",
                        h.doc
                    );
                }
            }
            other => panic!("expected a degraded response, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a journal byte image with three mutation frames after the
/// header, plus the decoded record list it should yield.
fn journal_image() -> (Vec<u8>, Vec<MutationRecord>) {
    let records = vec![
        MutationRecord::Checkpoint { seq: 2 },
        MutationRecord::FoldIn {
            seq: 2,
            terms: vec![(0, 1.5), (3, 0.5)],
        },
        MutationRecord::AddDocument {
            seq: 3,
            doc_id: "doc-x".to_owned(),
            terms: vec![(1, 2.0)],
        },
    ];
    let mut bytes = fresh_journal_bytes(None);
    for r in &records {
        bytes.extend_from_slice(&encode_frame(r));
    }
    (bytes, records)
}

/// Flipping any byte of the journal *body* (past the 8-byte header) must
/// degrade decoding to a strict prefix of the original record stream:
/// the CRC kills the frame containing the flip, truncation drops it and
/// everything after, and no record is ever altered or invented.
#[test]
fn every_journal_body_flip_decodes_to_a_strict_prefix() {
    let (clean, records) = journal_image();
    let (decoded, consumed, cause) = decode_frames(&clean[8..]);
    assert_eq!(decoded, records, "clean image must decode fully");
    assert_eq!(consumed, clean.len() - 8);
    assert!(cause.is_none());

    for offset in 8..clean.len() {
        for mask in MASKS {
            let mut dirty = clean.clone();
            dirty[offset] ^= mask;
            let (got, _, cause) = decode_frames(&dirty[8..]);
            assert!(
                got.len() < records.len(),
                "flip {mask:#04x} at {offset}: no frame was dropped"
            );
            assert_eq!(
                got,
                records[..got.len()],
                "flip {mask:#04x} at {offset}: surviving records altered"
            );
            assert!(
                cause.is_some(),
                "flip {mask:#04x} at {offset}: truncation went unreported"
            );
        }
    }
}

/// Flips in the journal *header* (magic or version) are unrecoverable
/// identity damage and must surface as a typed error from
/// `Journal::open` — never a panic, never a fresh journal silently
/// replacing the damaged one.
#[test]
fn journal_header_flips_are_typed_errors() {
    let dir = temp_dir("journal_header");
    let path = dir.join("index.lsix.lsij");
    let (clean, _) = journal_image();

    for offset in 0..8 {
        for mask in MASKS {
            let mut dirty = clean.clone();
            dirty[offset] ^= mask;
            std::fs::write(&path, &dirty).expect("install corrupt journal");
            assert!(
                Journal::open(&path).is_err(),
                "header flip {mask:#04x} at {offset} opened without error"
            );
        }
    }

    // Body flips through the same entry point: open succeeds, truncates
    // the damaged tail on disk, and keeps only intact frames.
    let mut dirty = clean.clone();
    let last = clean.len() - 1;
    dirty[last] ^= 0xFF;
    std::fs::write(&path, &dirty).expect("install corrupt tail");
    let (journal, recovery) = Journal::open(&path).expect("body damage recovers");
    drop(journal);
    assert!(recovery.truncation.is_some());
    assert!(recovery.truncated_bytes > 0);
    let truncated = std::fs::read(&path).expect("reread journal");
    assert_eq!(
        truncated,
        clean[..clean.len() - recovery.truncated_bytes as usize]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------------------
// RPC frame decoder: the bytes a coordinator reads off a shard socket.
// --------------------------------------------------------------------------

/// One wire message with the grammar (request or reply) that produced it,
/// so a sweep can re-run the matching decoder over damaged bytes.
enum RpcMsg {
    Req(RpcRequest),
    Reply(RpcReply),
}

impl RpcMsg {
    fn encode(&self) -> Vec<u8> {
        match self {
            RpcMsg::Req(r) => encode_request(r),
            RpcMsg::Reply(r) => encode_reply(r),
        }
    }

    /// Decodes `payload` with this message's grammar; `Ok(true)` means the
    /// bytes decoded *and* reproduced the original message bit-exactly.
    fn decode_matches(&self, payload: &[u8]) -> Result<bool, TransportError> {
        match self {
            RpcMsg::Req(r) => decode_request(payload).map(|d| d == *r),
            RpcMsg::Reply(r) => decode_reply(payload).map(|d| d == *r),
        }
    }
}

/// Every wire tag on both sides of the protocol, with payloads that
/// exercise strings, f64 bit patterns, optional ids, and hit lists.
/// (`Fail(BadQuery)` is excluded: it intentionally decodes to `Internal`
/// — the reason is rendered at the encoding boundary — so it is the one
/// message whose round trip is not the identity.) No `0.0` floats: the
/// sweep asserts a flip never decodes back to the original message, and
/// `-0.0 == 0.0` under `f64` equality would mask a sign-bit flip.
fn rpc_messages() -> Vec<RpcMsg> {
    let hits = RankedList::from_hits(vec![
        SearchHit {
            doc: 2,
            score: 0.75,
        },
        SearchHit { doc: 0, score: 0.5 },
    ]);
    vec![
        RpcMsg::Req(RpcRequest::Hello),
        RpcMsg::Req(RpcRequest::Query {
            terms: vec![(0, 1.5), (7, -0.25), (usize::MAX >> 1, 1e-300)],
            top_k: u64::MAX,
            tag: 42,
        }),
        RpcMsg::Req(RpcRequest::AddVector {
            doc_id: "1729".to_string(),
            coords: vec![0.1, -2.5, 3.25],
        }),
        RpcMsg::Req(RpcRequest::LogRetire { doc: 3 }),
        RpcMsg::Req(RpcRequest::DocVector { doc: 0 }),
        RpcMsg::Req(RpcRequest::Compact {
            ids: vec![Some(5), None, Some(u64::MAX)],
        }),
        RpcMsg::Req(RpcRequest::Ping),
        RpcMsg::Req(RpcRequest::Shutdown),
        RpcMsg::Reply(RpcReply::Hello {
            pid: 4321,
            ids: vec![Some(0), None, Some(17)],
        }),
        RpcMsg::Reply(RpcReply::Answer(QueryResponse::Ranked(hits.clone()))),
        RpcMsg::Reply(RpcReply::Answer(QueryResponse::Degraded {
            hits,
            reason: DegradeReason::SoftDeadline,
        })),
        RpcMsg::Reply(RpcReply::Answer(QueryResponse::Degraded {
            hits: RankedList::default(),
            reason: DegradeReason::DamagedSection(SectionId::DocVectors),
        })),
        RpcMsg::Reply(RpcReply::Local { local: 9 }),
        RpcMsg::Reply(RpcReply::Flag { value: true }),
        RpcMsg::Reply(RpcReply::Coords {
            coords: vec![1.0, -1.0],
        }),
        RpcMsg::Reply(RpcReply::Ok),
        RpcMsg::Reply(RpcReply::Fail(QueryError::Overloaded { capacity: 64 })),
        RpcMsg::Reply(RpcReply::Fail(QueryError::DeadlineExceeded)),
        RpcMsg::Reply(RpcReply::Fail(QueryError::Internal {
            detail: "worker panicked".to_string(),
        })),
        RpcMsg::Reply(RpcReply::Fail(QueryError::ShuttingDown)),
    ]
}

/// Flip every byte of every framed RPC message (length prefix, payload,
/// and CRC trailer) under both masks. Each flip must be contained: the
/// frame scanner rejects it with a typed [`lsi_core::FrameError`], or
/// reports `Incomplete` (a grown length prefix — the reader keeps
/// waiting and the per-RPC deadline fires), or — should a damaged frame
/// ever clear the checksum — the payload grammar must refuse it. A
/// corrupted frame never becomes a different valid message.
#[test]
fn every_rpc_frame_flip_is_contained() {
    for msg in rpc_messages() {
        let payload = msg.encode();
        let frame = lsi_core::frame::encode_frame(&payload);

        // Sanity: the pristine frame scans whole and round-trips.
        match lsi_core::frame::scan_frame(&frame).expect("pristine frame scans") {
            FrameScan::Complete {
                payload: p,
                consumed,
            } => {
                assert_eq!(consumed, frame.len(), "frame byte count");
                assert_eq!(p, payload, "scan returns the payload verbatim");
                assert!(
                    msg.decode_matches(p).expect("pristine payload decodes"),
                    "pristine round trip is the identity"
                );
            }
            FrameScan::Incomplete => panic!("pristine frame scanned incomplete"),
        }

        for offset in 0..frame.len() {
            for mask in MASKS {
                let mut dirty = frame.clone();
                dirty[offset] ^= mask;
                match lsi_core::frame::scan_frame(&dirty) {
                    // Typed rejection: checksum mismatch or over-cap length.
                    Err(_) => {}
                    // The length prefix grew past the received bytes: the
                    // reader waits for more and the deadline bounds it.
                    Ok(FrameScan::Incomplete) => {}
                    Ok(FrameScan::Complete { payload: p, .. }) => {
                        assert!(
                            msg.decode_matches(p).is_err(),
                            "flip {mask:#04x} at frame offset {offset} survived \
                             the checksum and decoded"
                        );
                    }
                }
            }
        }
    }
}

/// Every strict prefix of a framed RPC message must scan as `Incomplete`
/// — the mid-stream state a reader sits in while bytes are still
/// arriving. A truncation must never error (the frame may yet complete)
/// and never yield a frame.
#[test]
fn every_rpc_frame_truncation_scans_incomplete() {
    for msg in rpc_messages() {
        let frame = lsi_core::frame::encode_frame(&msg.encode());
        for cut in 0..frame.len() {
            match lsi_core::frame::scan_frame(&frame[..cut]) {
                Ok(FrameScan::Incomplete) => {}
                Ok(FrameScan::Complete { .. }) => {
                    panic!(
                        "prefix of {cut}/{} bytes scanned as a whole frame",
                        frame.len()
                    )
                }
                Err(e) => panic!(
                    "prefix of {cut}/{} bytes errored ({e}) — truncation must stay retriable",
                    frame.len()
                ),
            }
        }
    }
}

/// Byte-flip the bare payload (as if a damaged frame cleared the CRC):
/// the grammar must return a typed [`TransportError::Malformed`] or
/// decode to a *different* valid message — never panic, never allocate
/// beyond the wire caps, and never reproduce the original message from
/// altered bytes (every payload byte is semantically live).
#[test]
fn every_rpc_payload_flip_is_typed_or_differs() {
    for msg in rpc_messages() {
        let payload = msg.encode();
        for offset in 0..payload.len() {
            for mask in MASKS {
                let mut dirty = payload.clone();
                dirty[offset] ^= mask;
                match msg.decode_matches(&dirty) {
                    Err(TransportError::Malformed(_)) => {}
                    Err(e) => panic!(
                        "payload flip {mask:#04x} at {offset} raised a non-grammar \
                         error: {e}"
                    ),
                    Ok(matches) => assert!(
                        !matches,
                        "payload flip {mask:#04x} at {offset} decoded back to the \
                         original message — a dead wire byte"
                    ),
                }
            }
        }
    }
}

/// Truncate the bare payload at every offset: the grammar hits the end of
/// input (or the trailing-bytes check) and returns a typed
/// [`TransportError::Malformed`] — a strict prefix never decodes.
#[test]
fn every_rpc_payload_truncation_is_a_typed_error() {
    for msg in rpc_messages() {
        let payload = msg.encode();
        for cut in 0..payload.len() {
            match msg.decode_matches(&payload[..cut]) {
                Err(TransportError::Malformed(_)) => {}
                Err(e) => panic!("payload prefix of {cut} bytes raised a non-grammar error: {e}"),
                Ok(_) => panic!(
                    "payload prefix of {cut}/{} bytes decoded as a whole message",
                    payload.len()
                ),
            }
        }
    }
}
