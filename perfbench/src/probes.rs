//! Per-layer probes of a traced run. After the closed loop, a fixed
//! subset of the seeded queries is replayed through each layer's public
//! entry point — one request id per probe, one span per call — and every
//! replayed answer is checked. The spans give the per-layer metrics;
//! `README.md` maps each one to the end-to-end metric it should move.

use std::path::Path;
use std::time::{Duration, Instant};

use lsi_core::{journal_path, DurableIndex, LazySnapshot, LsiConfig, LsiIndex};
use lsi_corpus::GeneratedCorpus;
use lsi_ir::{RankedList, SearchHit, TermDocumentMatrix};
use lsi_linalg::solver::solve_truncated_svd;
use lsi_serve::transport::{decode_reply, encode_reply, RpcReply};
use lsi_serve::{merge_top_k, Query, QueryEngine, RemoteShard, ShardTransport};

use crate::trace::CountingOp;
use crate::workload::{bits, Op, Outcome, COLD_TOP_K, RANK, SHARDS};
use crate::workloads::engine_config;
use crate::Run;

/// Journal replays timed per traced run.
const REPLAYS: usize = 3;
/// Deadline of one direct shard RPC.
const RPC_DEADLINE: Duration = Duration::from_secs(10);

fn put_all(run: &mut Run, values: &[(&str, f64, &'static str)]) {
    for &(name, value, unit) in values {
        run.metrics.put(name, value, unit);
    }
}

/// The probe subset: the first `run.scale.probes` queries of `ops`.
fn probe_queries(run: &Run, ops: &[Op]) -> Vec<(Vec<(usize, f64)>, usize)> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Query { terms, top_k } => Some((terms.clone(), *top_k)),
            Op::Write { .. } => None,
        })
        .take(run.scale.probes)
        .collect()
}

/// Shard `shard` of `index` as `Cluster` lays it out: the basis holding
/// every document `j` with `j % SHARDS == shard`, rows copied bit for bit.
pub fn shard_index(index: &LsiIndex, shard: usize) -> Result<LsiIndex, String> {
    let mut out = index.basis_clone();
    for j in (shard..index.n_docs()).step_by(SHARDS) {
        out.add_document_vector(index.doc_vector(j))
            .map_err(|e| format!("shard row {j}: {e}"))?;
    }
    Ok(out)
}

/// Corpus → index, split by layer: `from_generated` (lsi-ir), the whole
/// `LsiIndex::build` (lsi-core), a replay of its weighting and truncated
/// SVD through a counting operator (lsi-linalg), and the fsynced v3
/// snapshot write.
pub fn build_layers(run: &mut Run, corpus: &GeneratedCorpus) -> Result<(), String> {
    let config = LsiConfig::with_rank(RANK);
    let path = run.dir.join("probe-build.lsix");
    let tr = &mut run.tracer;
    let req = tr.request();
    let root = tr.open(req, None, "probe.build");
    let (td, td_span) = tr.time(req, Some(root), "ir.td_build", || {
        TermDocumentMatrix::from_generated(corpus)
    });
    let td = td.map_err(|e| format!("term-document matrix: {e}"))?;
    let (index, build_span) = tr.time(req, Some(root), "core.index_build", || {
        LsiIndex::build(&td, config.clone())
    });
    let index = index.map_err(|e| format!("build: {e}"))?;
    let (weighted, weight_span) = tr.time(req, Some(root), "ir.weight", || {
        td.weighted(config.weighting)
    });
    let op = CountingOp::new(&weighted);
    let start = Instant::now();
    let solved = solve_truncated_svd(&op, RANK, &config.backend.solve_plan());
    let svd_span = tr.record(req, Some(root), "linalg.svd", start, Instant::now());
    let calls = op.into_calls();
    let mut matvec_ms = 0.0;
    for &(s, e) in &calls {
        let id = tr.record(req, Some(svd_span), "linalg.matvec", s, e);
        matvec_ms += tr.span(id).ms();
    }
    let solved = solved.map_err(|e| format!("instrumented solve: {e}"))?;
    let (written, write_span) = tr.time(req, Some(root), "core.snapshot_write", || {
        lsi_core::write_index_atomic(&path, &index)
    });
    tr.close(root);
    written.map_err(|e| format!("snapshot write: {e}"))?;
    let steps = solved
        .report
        .succeeded
        .and_then(|i| solved.report.attempts.get(i))
        .and_then(|attempt| attempt.iterations)
        .unwrap_or(0);
    let (build_ms, weight_ms, svd_ms) = (
        tr.span(build_span).ms(),
        tr.span(weight_span).ms(),
        tr.span(svd_span).ms(),
    );
    let snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let values = [
        ("ir.td_build_ms", tr.span(td_span).ms(), "ms"),
        ("linalg.svd_ms", svd_ms, "ms"),
        ("linalg.matvec_ms", matvec_ms, "ms"),
        ("linalg.matvecs", calls.len() as f64, "count"),
        ("linalg.solver_self_ms", tr.self_ms(svd_span), "ms"),
        ("linalg.lanczos_steps", steps as f64, "count"),
        (
            "core.index_assemble_ms",
            build_ms - weight_ms - svd_ms,
            "ms",
        ),
        ("core.snapshot_write_ms", tr.span(write_span).ms(), "ms"),
        ("core.snapshot_bytes", snapshot_bytes as f64, "B"),
    ];
    let same = solved
        .factors
        .singular_values
        .iter()
        .map(|s| s.to_bits())
        .eq(index.singular_values().iter().map(|s| s.to_bits()));
    run.check(same, || {
        "the instrumented solve differs from LsiIndex::build".to_owned()
    });
    put_all(run, &values);
    Ok(())
}

/// Cold open → first answer, split: `LazySnapshot::open_path` (and the
/// bytes the open reads) and `query_streaming` (top 10).
pub fn lazy_layers(
    run: &mut Run,
    snapshot: &Path,
    index: &LsiIndex,
    ops: &[Op],
) -> Result<(), String> {
    let mut open_bytes = 0u64;
    let mut wrong = 0usize;
    for (terms, _) in probe_queries(run, ops) {
        let tr = &mut run.tracer;
        let req = tr.request();
        let root = tr.open(req, None, "probe.cold_answer");
        let (snap, _) = tr.time(req, Some(root), "core.lazy_open", || {
            LazySnapshot::open_path(snapshot)
        });
        let mut snap = snap.map_err(|e| format!("lazy open: {e}"))?;
        open_bytes = snap.bytes_read();
        let (streamed, _) = tr.time(req, Some(root), "core.stream_query", || {
            snap.query_streaming(&terms, COLD_TOP_K)
        });
        tr.close(root);
        let streamed = streamed.map_err(|e| format!("streamed query: {e}"))?;
        let eager = index
            .try_query(&terms, COLD_TOP_K, None)
            .map_err(|e| format!("eager query: {e}"))?;
        wrong += usize::from(bits(&streamed) != bits(&eager));
    }
    run.check(wrong == 0, || {
        format!("{wrong} streamed probe answers differ from the eager index")
    });
    let values = [
        (
            "core.lazy_open_ms",
            run.tracer.median_ms("core.lazy_open"),
            "ms",
        ),
        ("core.lazy_open_bytes", open_bytes as f64, "B"),
        (
            "core.stream_query_ms",
            run.tracer.median_ms("core.stream_query"),
            "ms",
        ),
    ];
    put_all(run, &values);
    Ok(())
}

/// Submit → answer, split: the query fold-in, each shard's full scan on a
/// shard-sized index, the rank sort of one shard's hits, a standalone
/// one-worker shard engine, and the merge of the shard replies.
pub fn scoring_layers(run: &mut Run, index: &LsiIndex, ops: &[Op]) -> Result<(), String> {
    let shards = (0..SHARDS)
        .map(|s| shard_index(index, s))
        .collect::<Result<Vec<_>, _>>()?;
    let engine = QueryEngine::new(shards[0].clone(), engine_config());
    let mut wrong = 0usize;
    for (terms, top_k) in probe_queries(run, ops) {
        let tr = &mut run.tracer;
        let req = tr.request();
        let root = tr.open(req, None, "probe.scoring");
        let (folded, _) = tr.time(req, Some(root), "core.fold_in", || {
            index.try_fold_in(&terms)
        });
        let folded = folded.map_err(|e| format!("fold-in: {e}"))?;
        let mut replies = Vec::with_capacity(SHARDS);
        for (s, shard) in shards.iter().enumerate() {
            let (scan, _) = tr.time(req, Some(root), "core.shard_scan", || {
                shard.try_query_vector(&folded, usize::MAX, None)
            });
            let scan = scan.map_err(|e| format!("shard scan: {e}"))?;
            if s == 0 {
                let mut in_doc_order = scan.hits().to_vec();
                in_doc_order.sort_by_key(|h| h.doc);
                let (ranked, _) = tr.time(req, Some(root), "ir.rank_sort", move || {
                    RankedList::from_hits(in_doc_order)
                });
                let query = Query::new(terms.clone(), usize::MAX);
                let (served, _) = tr.time(req, Some(root), "serve.engine.query", || {
                    engine.query(query)
                });
                let served = served.map_err(|e| format!("shard engine: {e}"))?;
                wrong += usize::from(
                    bits(&ranked) != bits(&scan)
                        || served.is_degraded()
                        || bits(served.hits()) != bits(&scan),
                );
            }
            replies.push(Some(
                scan.hits()
                    .iter()
                    .map(|h| SearchHit {
                        doc: h.doc * SHARDS + s,
                        score: h.score,
                    })
                    .collect::<Vec<_>>(),
            ));
        }
        let (merged, _) = tr.time(req, Some(root), "serve.cluster.merge", || {
            merge_top_k(&replies, top_k)
        });
        tr.close(root);
        let eager = index
            .try_query(&terms, top_k, None)
            .map_err(|e| format!("eager query: {e}"))?;
        wrong += usize::from(bits(&merged) != bits(&eager));
    }
    engine.shutdown();
    run.check(wrong == 0, || {
        format!("{wrong} replayed scoring answers differ from the eager index")
    });
    let tr = &run.tracer;
    let values = [
        ("core.fold_in_us", tr.median_ms("core.fold_in") * 1e3, "us"),
        ("core.shard_scan_ms", tr.median_ms("core.shard_scan"), "ms"),
        ("ir.rank_sort_ms", tr.median_ms("ir.rank_sort"), "ms"),
        (
            "serve.engine.query_ms",
            tr.median_ms("serve.engine.query"),
            "ms",
        ),
        (
            "serve.cluster.merge_ms",
            tr.median_ms("serve.cluster.merge"),
            "ms",
        ),
    ];
    put_all(run, &values);
    Ok(())
}

/// One client, one query at a time, through the workload's own serving
/// surface: the latency with nothing to wait for. Needs the loop's
/// `query_p50_ms`, from which it derives the waiting time under load.
pub fn unloaded(run: &mut Run, ops: &[Op], answer: impl Fn(&Op) -> Outcome) -> Result<(), String> {
    let probes: Vec<&Op> = ops
        .iter()
        .filter(|op| matches!(op, Op::Query { .. }))
        .take(run.scale.probes)
        .collect();
    let mut failures = 0usize;
    for op in probes {
        let req = run.tracer.request();
        let (outcome, _) = run
            .tracer
            .time(req, None, "serve.cluster.unloaded", || answer(op));
        failures += usize::from(matches!(outcome, Outcome::Failed(_)));
    }
    run.check(failures == 0, || {
        format!("{failures} unloaded probe queries failed")
    });
    let unloaded = run.tracer.median_ms("serve.cluster.unloaded");
    let loaded = run
        .metrics
        .get("query_p50_ms")
        .ok_or("the closed loop must run before the probes")?;
    put_all(
        run,
        &[
            ("serve.cluster.unloaded_ms", unloaded, "ms"),
            ("serve.cluster.wait_ms", loaded - unloaded, "ms"),
        ],
    );
    Ok(())
}

/// Shard 0's daemon reached directly: `RemoteShard::ping` (connect,
/// accept poll and handler spawn), a full-shard query over the socket,
/// and the reply codec. Every answer is checked against the local shard.
pub fn transport_layers(
    run: &mut Run,
    shard_dir: &Path,
    index: &LsiIndex,
    ops: &[Op],
) -> Result<(), String> {
    let shard = shard_index(index, 0)?;
    let built = shard.n_docs();
    let remote = RemoteShard::new(shard_dir.join("shard-000.sock"), RPC_DEADLINE);
    let mut reply_bytes = 0usize;
    let mut wrong = 0usize;
    for (terms, _) in probe_queries(run, ops) {
        let tr = &mut run.tracer;
        let req = tr.request();
        let root = tr.open(req, None, "probe.transport");
        let (pinged, _) = tr.time(req, Some(root), "serve.transport.ping", || remote.ping());
        pinged.map_err(|e| format!("ping: {e}"))?;
        let query = Query::new(terms.clone(), usize::MAX);
        let (reply, _) = tr.time(req, Some(root), "serve.transport.shard_query", || {
            remote
                .submit(query)
                .map(|pending| pending.wait_until(Instant::now() + RPC_DEADLINE))
        });
        let response = match reply {
            Ok(Ok(Ok(response))) => response,
            Ok(Ok(Err(e))) | Err(e) => return Err(format!("shard query: {e}")),
            Ok(Err(_)) => return Err("a shard query passed its deadline".to_owned()),
        };
        let encoded = encode_reply(&RpcReply::Answer(response.clone()));
        reply_bytes = encoded.len();
        let (decoded, _) = tr.time(req, Some(root), "serve.transport.reply_decode", || {
            decode_reply(&encoded)
        });
        tr.close(root);
        let decoded = decoded.map_err(|e| format!("reply decode: {e}"))?;
        let local = shard
            .try_query(&terms, usize::MAX, None)
            .map_err(|e| format!("local shard: {e}"))?;
        // Rows the loop's writes appended to the daemon's shard are left out.
        let remote_rows: Vec<(usize, u64)> = bits(response.hits())
            .into_iter()
            .filter(|&(doc, _)| doc < built)
            .collect();
        wrong += usize::from(
            response.is_degraded()
                || remote_rows != bits(&local)
                || decoded != RpcReply::Answer(response),
        );
    }
    run.check(wrong == 0, || {
        format!("{wrong} remote shard answers differ from the local shard")
    });
    let tr = &run.tracer;
    let values = [
        (
            "serve.transport.ping_ms",
            tr.median_ms("serve.transport.ping"),
            "ms",
        ),
        (
            "serve.transport.shard_query_ms",
            tr.median_ms("serve.transport.shard_query"),
            "ms",
        ),
        ("serve.transport.reply_bytes", reply_bytes as f64, "B"),
        (
            "serve.transport.reply_decode_ms",
            tr.median_ms("serve.transport.reply_decode"),
            "ms",
        ),
    ];
    put_all(run, &values);
    Ok(())
}

/// The durable write and recovery paths alone:
/// `DurableIndex::add_document_vector` (journal append + fsync) on a
/// scratch durable index, and `open_durable` replaying a copy of one
/// served shard.
pub fn journal_layers(run: &mut Run, shard_dir: &Path, index: &LsiIndex) -> Result<(), String> {
    let scratch = run.dir.join("journal-probe");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("journal scratch: {e}"))?;
    let mut durable = DurableIndex::create(&scratch.join("append.lsix"), index.basis_clone())
        .map_err(|e| format!("durable create: {e}"))?;
    for j in 0..run.scale.probes.min(index.n_docs()) {
        let coords = index.doc_vector(j).to_vec();
        let req = run.tracer.request();
        let (appended, _) = run.tracer.time(req, None, "core.journal.append", || {
            durable.add_document_vector(&j.to_string(), &coords)
        });
        appended.map_err(|e| format!("journal append: {e}"))?;
    }
    let source = shard_dir.join("shard-001.lsix");
    let copy = scratch.join("replay.lsix");
    std::fs::copy(&source, &copy).map_err(|e| format!("copy {}: {e}", source.display()))?;
    std::fs::copy(journal_path(&source), journal_path(&copy))
        .map_err(|e| format!("copy the shard journal: {e}"))?;
    let mut replayed = 0usize;
    for _ in 0..REPLAYS {
        let req = run.tracer.request();
        let (opened, _) = run.tracer.time(req, None, "core.journal.replay", || {
            DurableIndex::open_durable(&copy)
        });
        let (_, report) = opened.map_err(|e| format!("journal replay: {e}"))?;
        replayed = report.frames_replayed;
    }
    let expected = index.n_docs() / SHARDS;
    run.check(replayed >= expected, || {
        format!("replayed {replayed} journal frames, expected at least {expected}")
    });
    let values = [
        (
            "core.journal.append_ms",
            run.tracer.median_ms("core.journal.append"),
            "ms",
        ),
        (
            "core.journal.replay_ms",
            run.tracer.median_ms("core.journal.replay"),
            "ms",
        ),
    ];
    put_all(run, &values);
    Ok(())
}
