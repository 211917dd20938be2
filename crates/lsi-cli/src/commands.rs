//! The CLI commands, implemented as library functions (the binary is a
//! thin dispatcher; tests call these directly).

use std::path::Path;

use lsi_core::{
    BuildStatus, Journal, LsiConfig, LsiIndex, MutationRecord, SvdBackend, TruncationCause,
};
use lsi_ir::text::Tokenizer;
use lsi_ir::{Dictionary, TermDocumentMatrix, Weighting};

use crate::container::Container;
use crate::corpus_io::load_corpus;
use crate::CliError;

/// Parses a weighting name (`count`, `binary`, `log-tf`, `tf-idf`,
/// `log-entropy`).
pub fn parse_weighting(name: &str) -> Result<Weighting, CliError> {
    Weighting::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = Weighting::ALL.iter().map(|w| w.name()).collect();
            CliError::usage(format!(
                "unknown weighting {name:?}; expected one of {}",
                names.join(", ")
            ))
        })
}

/// `lsi index`: tokenizes the corpus, builds a rank-`rank` LSI index, and
/// writes the container. Returns a one-line summary.
pub fn cmd_index(
    input: &Path,
    output: &Path,
    rank: usize,
    weighting: Weighting,
) -> Result<String, CliError> {
    let docs = load_corpus(input)?;
    let tokenizer = Tokenizer::default();
    let mut dictionary = Dictionary::new();
    let td = TermDocumentMatrix::from_text(&docs, &tokenizer, &mut dictionary)
        .map_err(|e| CliError::other(format!("failed to build term-document matrix: {e}")))?;

    let max_rank = td.n_terms().min(td.n_docs());
    if max_rank == 0 {
        return Err(CliError::other("corpus has no indexable terms"));
    }
    // Out-of-range ranks in either direction are clamped, symmetrically.
    let rank = rank.clamp(1, max_rank);
    let index = LsiIndex::build(
        &td,
        LsiConfig {
            rank,
            weighting,
            backend: SvdBackend::default(),
        },
    )?;

    let mut summary = format!(
        "indexed {} documents, {} terms, rank {} ({}) -> {}",
        td.n_docs(),
        td.n_terms(),
        rank,
        weighting.name(),
        output.display()
    );
    if let BuildStatus::Degraded { achieved_rank } = index.build_status() {
        summary.push_str(&format!(
            "\nwarning: degraded build — corpus rank {achieved_rank} < requested {rank}; \
             trailing dimensions are zero"
        ));
    }
    if let Some(report) = index.solve_report() {
        if report.fell_back() {
            summary.push_str(&format!(
                "\nsolver fell back:\n{}",
                report.summary().trim_end()
            ));
        }
    }

    let container = Container {
        dictionary,
        doc_ids: docs.iter().map(|d| d.id.clone()).collect(),
        index,
    };
    container.save(output)?;
    Ok(summary)
}

/// `lsi add`: folds new documents into an existing container (the classic
/// LSI updating operation) and returns a summary. The spectral basis is
/// not recomputed — see [`lsi_core::LsiIndex::add_document`] for the
/// trade-off; rebuild with `lsi index` when the corpus drifts.
///
/// Fold-in terms must be weighted like the build-time matrix. Count,
/// binary and log-tf are locally computable; tf-idf and log-entropy need
/// corpus-global statistics the container does not carry, so folding into
/// such an index is rejected rather than silently mis-scaled.
///
/// With a `journal`, each fold-in is appended (and fsynced) as a
/// [`MutationRecord::AddDocument`] frame *before* it is applied in memory,
/// so a crash between this call and the container save loses nothing —
/// `lsi recover` replays the journal tail over the last saved container.
pub fn cmd_add(
    container: &mut Container,
    input: &Path,
    mut journal: Option<&mut Journal>,
) -> Result<String, CliError> {
    let weighting = container.index.config().weighting;
    match weighting {
        Weighting::Count | Weighting::Binary | Weighting::LogTf => {}
        Weighting::TfIdf | Weighting::LogEntropy => {
            return Err(CliError::other(format!(
                "cannot fold into a {}-weighted index: that weighting needs \
                 corpus-global statistics; rebuild with `lsi index` instead",
                weighting.name()
            )));
        }
    }

    let docs = load_corpus(input)?;
    let tokenizer = Tokenizer::default();
    let mut added = 0usize;
    let mut skipped = 0usize;
    for doc in &docs {
        // Accumulate counts over known vocabulary only (new terms cannot
        // enter a fixed spectral basis). BTreeMap keeps the terms in id
        // order: fold-in sums floats per term, and hasher order would make
        // the spectral coordinates differ run to run.
        let mut counts = std::collections::BTreeMap::new();
        for tok in tokenizer.tokenize(&doc.body) {
            if let Some(t) = container.dictionary.id(&tok) {
                *counts.entry(t).or_insert(0.0) += 1.0;
            }
        }
        if counts.is_empty() {
            skipped += 1;
            continue;
        }
        let terms: Vec<(usize, f64)> = counts
            .into_iter()
            .map(|(t, tf): (usize, f64)| {
                let w = match weighting {
                    Weighting::Binary => 1.0,
                    Weighting::LogTf => 1.0 + tf.ln(),
                    _ => tf, // Count
                };
                (t, w)
            })
            .collect();
        if let Some(j) = journal.as_deref_mut() {
            // Write-ahead: the frame is durable before the in-memory apply,
            // so an acknowledged fold-in can always be replayed.
            j.append(&MutationRecord::AddDocument {
                seq: container.index.n_docs() as u64,
                doc_id: doc.id.clone(),
                terms: terms.clone(),
            })?;
        }
        container.index.add_document(&terms);
        container.doc_ids.push(doc.id.clone());
        added += 1;
    }
    Ok(format!(
        "folded in {added} documents ({skipped} skipped: no known terms); \
         total {} documents",
        container.index.n_docs()
    ))
}

/// What `lsi recover` did, as a typed summary (rendered by its `Display`).
#[derive(Debug, Clone)]
pub struct RecoverSummary {
    /// Documents in the loaded container snapshot.
    pub snapshot_docs: usize,
    /// Intact frames found in the sidecar journal.
    pub frames_read: usize,
    /// Frames replayed on top of the snapshot.
    pub frames_replayed: usize,
    /// Frames already contained in the snapshot (or checkpoint markers).
    pub frames_skipped: usize,
    /// Intact frames dropped because replay could not continue past them.
    pub frames_dropped: usize,
    /// Bytes discarded past the last intact frame.
    pub truncated_bytes: u64,
    /// Why the journal tail was discarded, if it was.
    pub truncation: Option<TruncationCause>,
    /// Quarantined-section repair performed during recovery, when the
    /// tolerant open found damaged degradable sections in a v3 snapshot
    /// (`None` for intact snapshots and for container recovery, whose
    /// reader is strict).
    pub rebuild: Option<lsi_core::RebuildReport>,
    /// Document count after recovery and compaction.
    pub total_docs: usize,
}

impl std::fmt::Display for RecoverSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "snapshot loaded: {} documents; journal: {} intact frame(s)",
            self.snapshot_docs, self.frames_read
        )?;
        writeln!(
            f,
            "replayed {} frame(s), skipped {} already-checkpointed, dropped {}",
            self.frames_replayed, self.frames_skipped, self.frames_dropped
        )?;
        match self.truncation {
            Some(cause) => writeln!(
                f,
                "truncated {} trailing byte(s): {cause}",
                self.truncated_bytes
            )?,
            None => writeln!(f, "journal tail clean")?,
        }
        if let Some(rebuild) = self.rebuild {
            writeln!(f, "quarantined sections repaired: {rebuild}")?;
        }
        write!(
            f,
            "compacted: {} documents checkpointed, journal rotated",
            self.total_docs
        )
    }
}

/// `lsi recover`: reconstructs a container from its last saved state plus
/// the sidecar journal (`<index>.lsic.lsij`), then compacts — saves the
/// recovered container atomically and rotates the journal. Torn or corrupt
/// journal tails are truncated, never fatal; only an unreadable container
/// (or a journal file that is not a journal at all) errors, with the
/// storage exit code.
pub fn cmd_recover(path: &Path) -> Result<RecoverSummary, CliError> {
    let mut container = Container::load(path)?;
    let (mut journal, recovery) = Journal::open(&lsi_core::journal_path(path))?;

    let mut summary = RecoverSummary {
        snapshot_docs: container.index.n_docs(),
        frames_read: recovery.records.len(),
        frames_replayed: 0,
        frames_skipped: 0,
        frames_dropped: 0,
        truncated_bytes: recovery.truncated_bytes,
        truncation: recovery.truncation,
        rebuild: None,
        total_docs: 0,
    };
    for (i, record) in recovery.records.iter().enumerate() {
        let n = container.index.n_docs() as u64;
        let applied = match record {
            MutationRecord::Checkpoint { seq } if *seq <= n => {
                summary.frames_skipped += 1;
                true
            }
            MutationRecord::FoldIn { seq, terms }
            | MutationRecord::AddDocument { seq, terms, .. } => {
                if *seq < n {
                    summary.frames_skipped += 1;
                    true
                } else if *seq == n && container.index.try_add_document(terms).is_ok() {
                    // Applied: restore the caller-side id too (fold-ins
                    // without one get the same synthetic id `lsi query`
                    // would print).
                    let id = match record {
                        MutationRecord::AddDocument { doc_id, .. } => doc_id.clone(),
                        _ => format!("doc#{seq}"),
                    };
                    container.doc_ids.push(id);
                    summary.frames_replayed += 1;
                    true
                } else {
                    false
                }
            }
            MutationRecord::AddVector {
                seq,
                doc_id,
                coords,
            } => {
                if *seq < n {
                    summary.frames_skipped += 1;
                    true
                } else if *seq == n && container.index.add_document_vector(coords).is_ok() {
                    container.doc_ids.push(if doc_id.is_empty() {
                        format!("doc#{seq}")
                    } else {
                        doc_id.clone()
                    });
                    summary.frames_replayed += 1;
                    true
                } else {
                    false
                }
            }
            MutationRecord::Retire { seq, doc } => {
                // Retirement zeroes the representation in place; the id
                // stays allocated, so `doc_ids` keeps its entry.
                if *seq <= n && container.index.retire_document(*doc as usize).is_ok() {
                    summary.frames_replayed += 1;
                    true
                } else {
                    false
                }
            }
            MutationRecord::Checkpoint { .. } => false,
        };
        if !applied {
            // Sequence gap or unappliable record: replay cannot safely
            // continue past it.
            summary.frames_dropped = recovery.records.len() - i;
            summary
                .truncation
                .get_or_insert(TruncationCause::SequenceGap);
            break;
        }
    }

    container.save(path)?;
    journal.rotate(container.index.n_docs() as u64)?;
    summary.total_docs = container.index.n_docs();
    Ok(summary)
}

/// One shard's outcome under `lsi recover --all`: either a recovery
/// summary or the storage damage that prevented recovery.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Snapshot file name (`shard-NNN.lsix`).
    pub shard: String,
    /// Recovery summary, or the storage error for a damaged shard.
    pub outcome: Result<RecoverSummary, String>,
}

/// What `lsi recover --all` did: one [`ShardRecovery`] row per shard
/// snapshot found under the directory, in file-name order.
#[derive(Debug)]
pub struct RecoverAllSummary {
    /// Per-shard outcomes, sorted by snapshot file name.
    pub shards: Vec<ShardRecovery>,
}

impl RecoverAllSummary {
    /// True when at least one shard could not be recovered (storage
    /// damage beyond a truncatable journal tail). The CLI turns this
    /// into the storage exit code after printing the table.
    pub fn any_damaged(&self) -> bool {
        self.shards.iter().any(|s| s.outcome.is_err())
    }
}

impl std::fmt::Display for RecoverAllSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "recovered {} shard(s):", self.shards.len())?;
        for row in &self.shards {
            match &row.outcome {
                Ok(s) => {
                    let tail = match s.truncation {
                        Some(cause) => format!("truncated {} B ({cause})", s.truncated_bytes),
                        None => "tail clean".to_owned(),
                    };
                    let repaired = match s.rebuild {
                        Some(r) => format!("  repaired: {r}"),
                        None => String::new(),
                    };
                    writeln!(
                        f,
                        "  {}  snapshot {:>4} docs  replayed {:>3}  skipped {:>3}  \
                         dropped {:>3}  {tail}  total {} docs{repaired}",
                        row.shard,
                        s.snapshot_docs,
                        s.frames_replayed,
                        s.frames_skipped,
                        s.frames_dropped,
                        s.total_docs
                    )?;
                }
                Err(e) => writeln!(f, "  {}  DAMAGED: {e}", row.shard)?,
            }
        }
        Ok(())
    }
}

/// `lsi recover --all`: bulk recovery for a sharded serving directory.
/// Every `*.lsix` shard snapshot under `dir` is reopened through its
/// write-ahead journal (torn tails truncated, stale rotation tmp files
/// swept) and compacted with a checkpoint. Degradable sections the
/// tolerant open quarantined (e.g. a damaged `doc-vectors` block) are
/// rebuilt from the surviving factorization and the journal before the
/// checkpoint, so the rewritten snapshot verifies clean. Damaged shards —
/// an unreadable snapshot or a journal that is not a journal — do not
/// abort the sweep:
/// the remaining shards are still recovered and the damage is reported
/// per shard, so the caller can turn "any damage" into the storage exit
/// code after printing every row.
pub fn cmd_recover_all(dir: &Path) -> Result<RecoverAllSummary, CliError> {
    let mut snapshots: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::io(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lsix"))
        .collect();
    if snapshots.is_empty() {
        return Err(CliError::other(format!(
            "no .lsix shard snapshots under {}",
            dir.display()
        )));
    }
    snapshots.sort();

    let mut shards = Vec::with_capacity(snapshots.len());
    for path in snapshots {
        let shard = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let outcome = match lsi_core::DurableIndex::open_durable_with_records(&path) {
            Ok((mut durable, report, records)) => {
                // Quarantined sections are repaired from the surviving
                // factorization plus the journal before compacting (a
                // checkpoint refuses to persist a quarantined index);
                // intact shards just checkpoint so the journal rotates and
                // the next open starts from a clean tail.
                let compacted = if report.quarantined.is_empty() {
                    durable.checkpoint().map(|()| None)
                } else {
                    durable.rebuild_quarantined(&records).map(Some)
                };
                match compacted {
                    Ok(rebuild) => Ok(RecoverSummary {
                        snapshot_docs: report.snapshot_docs,
                        frames_read: report.frames_read,
                        frames_replayed: report.frames_replayed,
                        frames_skipped: report.frames_skipped,
                        frames_dropped: report.frames_dropped,
                        truncated_bytes: report.truncated_bytes,
                        truncation: report.truncation,
                        rebuild,
                        total_docs: durable.index().n_docs(),
                    }),
                    Err(e) => Err(e.to_string()),
                }
            }
            Err(e) => Err(e.to_string()),
        };
        shards.push(ShardRecovery { shard, outcome });
    }
    Ok(RecoverAllSummary { shards })
}

/// Read-only state of a sidecar write-ahead journal, as reported by
/// `lsi inspect`. Decoded without opening the journal for repair, so
/// inspecting never truncates a torn tail.
#[derive(Debug)]
pub struct JournalStatus {
    /// Intact frames in the journal.
    pub frames: usize,
    /// Bytes past the last intact frame (a torn tail; recovery truncates
    /// these, inspection only counts them).
    pub torn_bytes: u64,
    /// Sequence number of the last checkpoint marker, if any.
    pub last_checkpoint: Option<u64>,
}

/// What `lsi inspect` found: the snapshot's section framing plus the
/// sidecar journal's state, with no repair side effects.
#[derive(Debug)]
pub struct InspectSummary {
    /// The file inspected, as given on the command line.
    pub file: String,
    /// Container framing: where the snapshot bytes live in the file.
    pub framing: String,
    /// Section framing report for the (embedded) snapshot.
    pub report: lsi_core::SnapshotReport,
    /// Sidecar journal state, if a journal file exists.
    pub journal: Option<JournalStatus>,
}

impl InspectSummary {
    /// True when the section directory or any section failed its
    /// integrity checks. The CLI turns this into the storage exit code
    /// after printing the full table.
    pub fn any_damaged(&self) -> bool {
        self.report.damaged()
    }
}

impl std::fmt::Display for InspectSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}: {}", self.file, self.framing)?;
        writeln!(
            f,
            "format version {}, {} snapshot byte(s)",
            self.report.version, self.report.file_len
        )?;
        if self.report.directory_ok {
            writeln!(
                f,
                "  tag  {:<28} {:>10} {:>10}  crc",
                "section", "offset", "bytes"
            )?;
            for s in &self.report.sections {
                writeln!(
                    f,
                    "  {:>3}  {:<28} {:>10} {:>10}  {}",
                    s.tag,
                    s.name,
                    s.offset,
                    s.len,
                    if s.ok { "ok" } else { "DAMAGED" }
                )?;
            }
        } else {
            writeln!(
                f,
                "section directory: DAMAGED (sections cannot be enumerated)"
            )?;
        }
        match &self.journal {
            None => writeln!(f, "journal: none"),
            Some(j) => {
                let tail = if j.torn_bytes == 0 {
                    "tail clean".to_owned()
                } else {
                    format!("{} torn tail byte(s)", j.torn_bytes)
                };
                let checkpoint = match j.last_checkpoint {
                    Some(seq) => format!("last checkpoint seq {seq}"),
                    None => "no checkpoint marker".to_owned(),
                };
                writeln!(f, "journal: {} frame(s), {tail}, {checkpoint}", j.frames)
            }
        }
    }
}

/// Decodes a journal sidecar without mutating it: unlike
/// [`Journal::open`], a torn tail is counted, not truncated on disk.
fn read_journal_status(path: &Path) -> Result<Option<JournalStatus>, CliError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(CliError::io(format!(
                "cannot read journal {}: {e}",
                path.display()
            )))
        }
    };
    let header = lsi_core::journal::fresh_journal_bytes(None);
    if bytes.len() < header.len() || bytes[..header.len()] != header[..] {
        return Err(CliError::storage(format!(
            "{} exists but is not a journal (bad header)",
            path.display()
        )));
    }
    let (records, consumed, _) = lsi_core::journal::decode_frames(&bytes[header.len()..]);
    let last_checkpoint = records.iter().rev().find_map(|r| match r {
        MutationRecord::Checkpoint { seq } => Some(*seq),
        _ => None,
    });
    Ok(Some(JournalStatus {
        frames: records.len(),
        torn_bytes: (bytes.len() - header.len() - consumed) as u64,
        last_checkpoint,
    }))
}

/// `lsi inspect`: prints the snapshot's section directory (name, offset,
/// length, CRC status), format version, and the sidecar journal's frame
/// count and last checkpoint — entirely read-only. Works on both bare
/// `.lsix` snapshots and `.lsic` containers (the embedded snapshot is
/// located by walking the container header, not by a strict parse, so a
/// damaged section is reported instead of aborting the read).
pub fn cmd_inspect(path: &Path) -> Result<InspectSummary, CliError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CliError::io(format!("cannot read {}: {e}", path.display())))?;
    let (framing, span) = if bytes.starts_with(b"LSIC") {
        let span = crate::container::embedded_index_span(&bytes)?;
        (
            format!(
                "lsic container, embedded snapshot at bytes {}..{}",
                span.start, span.end
            ),
            span,
        )
    } else {
        ("lsix snapshot".to_owned(), 0..bytes.len())
    };
    let report = lsi_core::inspect_snapshot(&bytes[span])
        .map_err(|e| CliError::storage(format!("cannot interpret {}: {e}", path.display())))?;
    let journal = read_journal_status(&lsi_core::journal_path(path))?;
    Ok(InspectSummary {
        file: path.display().to_string(),
        framing,
        report,
        journal,
    })
}

/// `lsi query`: tokenizes the query with the same pipeline, folds it into
/// LSI space, returns `(doc id, score)` pairs best-first.
pub fn cmd_query(
    container: &Container,
    query_text: &str,
    top: usize,
) -> Result<Vec<(String, f64)>, CliError> {
    let tokenizer = Tokenizer::default();
    let terms: Vec<(usize, f64)> = tokenizer
        .tokenize(query_text)
        .into_iter()
        .filter_map(|tok| container.dictionary.id(&tok))
        .map(|t| (t, 1.0))
        .collect();
    if terms.is_empty() {
        return Err(CliError::other(format!(
            "no query term appears in the index vocabulary: {query_text:?}"
        )));
    }
    let hits = container.index.query(&terms, top);
    Ok(hits
        .hits()
        .iter()
        .map(|h| {
            // Documents folded in after the container was assembled have no
            // external id; synthesize one rather than indexing out of range.
            let id = container
                .doc_ids
                .get(h.doc)
                .cloned()
                .unwrap_or_else(|| format!("doc#{}", h.doc));
            (id, h.score)
        })
        .collect())
}

/// `lsi similar-terms`: nearest terms to `term` in LSI space.
pub fn cmd_similar_terms(
    container: &Container,
    term: &str,
    top: usize,
) -> Result<Vec<(String, f64)>, CliError> {
    let t = container
        .dictionary
        .id(&term.to_lowercase())
        .ok_or_else(|| CliError::other(format!("term {term:?} is not in the index vocabulary")))?;
    let hits = container.index.similar_terms(t, top);
    Ok(hits
        .hits()
        .iter()
        .map(|h| {
            (
                container
                    .dictionary
                    .term(h.doc)
                    .unwrap_or("<unknown>")
                    .to_owned(),
                h.score,
            )
        })
        .collect())
}

/// `lsi topics`: for each retained singular direction, the top-weighted
/// terms — a human-readable view of what the latent dimensions encode.
pub fn cmd_topics(container: &Container, terms_per_topic: usize) -> Vec<(usize, f64, Vec<String>)> {
    let index: &LsiIndex = &container.index;
    let k = index.rank();
    let n = index.n_terms();
    let mut out = Vec::with_capacity(k);
    for dim in 0..k {
        let mut weighted: Vec<(usize, f64)> = (0..n)
            .map(|t| (t, index.factors().u[(t, dim)].abs()))
            .collect();
        // lsi-lint: allow(E1-panic-policy, "invariant: term weights come from verified finite factors")
        weighted.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
        let top_terms: Vec<String> = weighted
            .iter()
            .take(terms_per_topic)
            .map(|&(t, _)| {
                container
                    .dictionary
                    .term(t)
                    .unwrap_or("<unknown>")
                    .to_owned()
            })
            .collect();
        out.push((dim, index.singular_values()[dim], top_terms));
    }
    out
}

/// Options for [`cmd_serve_bench`] — one struct so the flag surface can
/// grow without churning the signature.
#[derive(Debug, Clone)]
pub struct ServeBenchOptions {
    /// Total queries in the load profile.
    pub queries: usize,
    /// Worker threads in the engine pool.
    pub workers: usize,
    /// Seed for the query generator (the profile is seed-deterministic).
    pub seed: u64,
    /// Hard per-query deadline in milliseconds.
    pub deadline_ms: u64,
    /// Optional soft deadline in milliseconds (degrade instead of
    /// continuing in LSI space past it). Note: a container carries no
    /// term-document matrix, so the bench engine has no term-space
    /// fallback and soft deadlines only matter for degraded indexes.
    pub soft_deadline_ms: Option<u64>,
    /// Exercise the durability layer: serve through a [`DurableIndex`] in
    /// a seed-keyed scratch directory, mix journaled fold-ins into the
    /// load profile, and verify checkpoint + reopen equals the live engine
    /// after the run.
    ///
    /// [`DurableIndex`]: lsi_core::DurableIndex
    pub durable: bool,
    /// Shard count. `1` serves through a single [`QueryEngine`]; more than
    /// one serves through the scatter-gather [`Cluster`] coordinator
    /// (document-partitioned shards, order-fixed top-k merge), with
    /// `--durable` giving every shard its own snapshot + journal and
    /// verifying a bit-identical reopen after the run.
    ///
    /// [`QueryEngine`]: lsi_serve::QueryEngine
    /// [`Cluster`]: lsi_serve::Cluster
    pub shards: usize,
    /// Run every shard as a separate `lsi shard-serve` daemon process
    /// behind the coordinator — Unix-domain-socket RPC, heartbeat
    /// supervision ([`ShardSupervisor`]). Implies the durable layout:
    /// the shards are laid out on disk in a seed-keyed scratch directory
    /// and the run ends with a bit-identical in-process reopen.
    ///
    /// [`ShardSupervisor`]: lsi_serve::ShardSupervisor
    pub process: bool,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            queries: 1_000,
            workers: 4,
            seed: 20260706,
            deadline_ms: 1_000,
            soft_deadline_ms: None,
            durable: false,
            shards: 1,
            process: false,
        }
    }
}

/// `lsi serve-bench`: drives the concurrent query engine with a
/// seed-deterministic load profile — mostly well-formed vocabulary
/// queries, plus fixed fractions of malformed (out-of-range term,
/// non-finite weight) and deliberately slow queries — and renders the
/// engine's statistics table. Fails with a serve-category error if the
/// engine's bookkeeping does not balance after the run.
pub fn cmd_serve_bench(container: Container, opts: &ServeBenchOptions) -> Result<String, CliError> {
    use lsi_serve::{EngineConfig, Query, QueryEngine};
    use rand::Rng;
    use std::time::Duration;

    if opts.shards == 0 {
        return Err(CliError::usage("--shards must be at least 1"));
    }
    if opts.shards > 1 || opts.process {
        return serve_bench_cluster(container, opts);
    }
    let n_terms = container.index.n_terms();
    if n_terms == 0 {
        return Err(CliError::other("index has an empty vocabulary"));
    }
    // Slow queries are keyed on a tag the generator below assigns.
    const TAG_SLOW: u64 = 1;
    let config = EngineConfig {
        workers: opts.workers,
        // Room for the whole profile: the bench measures the engine's
        // outcome mix, not the submitter's ability to outrun it.
        queue_capacity: opts.queries.max(64),
        deadline: Some(Duration::from_millis(opts.deadline_ms)),
        soft_deadline: opts.soft_deadline_ms.map(Duration::from_millis),
        fault_hook: Some(std::sync::Arc::new(|tag| {
            if tag == TAG_SLOW {
                std::thread::sleep(Duration::from_millis(2));
            }
        })),
        ..EngineConfig::default()
    };
    // Durable mode serves through the write-ahead journal in a seed-keyed
    // scratch directory (deterministic path, no ambient entropy).
    let scratch = opts
        .durable
        .then(|| std::env::temp_dir().join(format!("lsi-serve-bench-durable-{}", opts.seed)));
    let engine = match &scratch {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::io(format!("cannot create {}: {e}", dir.display())))?;
            let durable = lsi_core::DurableIndex::create(&dir.join("index.lsix"), container.index)?;
            QueryEngine::with_durable(durable, config)
        }
        None => QueryEngine::new(container.index, config),
    };

    let mut rng = lsi_linalg::rng::seeded(opts.seed);
    let mut tickets = Vec::with_capacity(opts.queries);
    let mut journaled = 0usize;
    for _ in 0..opts.queries {
        let roll = rng.gen_range(0usize..100);
        let mut terms: Vec<(usize, f64)> = (0..rng.gen_range(1usize..=4))
            .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
            .collect();
        let mut tag = 0;
        match roll {
            // 5%: out-of-range term id.
            0..=4 => terms[0].0 = n_terms + 1,
            // 3%: non-finite weight.
            5..=7 => terms[0].1 = f64::NAN,
            // 2%: deliberately slow.
            8..=9 => tag = TAG_SLOW,
            // 4% in durable mode: a journaled fold-in through the mutator,
            // interleaved with the query load it contends with.
            10..=13 if opts.durable => {
                engine
                    .add_document(&terms)
                    .map_err(|e| CliError::serve(format!("durable fold-in failed: {e}")))?;
                journaled += 1;
                continue;
            }
            _ => {}
        }
        let query = Query {
            terms,
            top_k: rng.gen_range(1usize..=10),
            tag,
        };
        // Shedding cannot happen at this capacity; treat it as fatal.
        tickets.push(engine.submit(query)?);
    }
    for ticket in tickets {
        // Per-query outcomes (including typed errors) are the bench's
        // data, not failures; they land in the stats table.
        let _ = ticket.wait();
    }

    let stats = engine.stats();
    if !stats.consistent() {
        return Err(CliError::serve(format!(
            "engine bookkeeping does not balance after the run:\n{}",
            stats.table()
        )));
    }

    let mut durable_lines = String::new();
    if let Some(dir) = &scratch {
        // Compact, tear the engine down, and prove recovery: reopening the
        // snapshot + journal must reproduce the live document count.
        engine
            .checkpoint()
            .map_err(|e| CliError::serve(format!("checkpoint failed: {e}")))?;
        let live_docs = engine.n_docs();
        engine.shutdown();
        let (recovered, report) = lsi_core::DurableIndex::open_durable(&dir.join("index.lsix"))?;
        if recovered.index().n_docs() != live_docs {
            return Err(CliError::serve(format!(
                "recovery mismatch: live engine had {live_docs} docs, reopened index has {} ({report})",
                recovered.index().n_docs()
            )));
        }
        durable_lines = format!(
            "\ndurable: {journaled} fold-in(s) journaled; checkpoint + reopen verified \
             ({live_docs} docs; {report})"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(format!(
        "serve-bench: {} queries, {} workers, {} linalg thread(s), deadline {} ms, seed {}\n{}{}",
        opts.queries,
        opts.workers,
        lsi_linalg::parallel::threads(),
        opts.deadline_ms,
        opts.seed,
        stats.table().trim_end(),
        durable_lines
    ))
}

/// The sharded path of `lsi serve-bench --shards N`: serves the same
/// seed-deterministic profile through the scatter-gather [`Cluster`]
/// coordinator — documents partitioned round-robin across `N` shards,
/// each with its own worker pool — and renders the cluster statistics
/// table with its per-shard breakdown. In durable mode every shard gets
/// its own snapshot + journal in a seed-keyed scratch directory, the
/// profile mixes in journaled fold-ins and a mid-run rebalance, and the
/// run ends by reopening the whole cluster from disk and verifying the
/// visible document fingerprint is bit-identical.
///
/// [`Cluster`]: lsi_serve::Cluster
fn serve_bench_cluster(container: Container, opts: &ServeBenchOptions) -> Result<String, CliError> {
    use lsi_serve::cluster::{Cluster, ClusterConfig};
    use lsi_serve::{
        DaemonCommand, EngineConfig, FaultHook, Query, ShardSupervisor, SupervisorConfig,
    };
    use rand::Rng;
    use std::sync::Arc;
    use std::time::Duration;

    let n_terms = container.index.n_terms();
    if n_terms == 0 {
        return Err(CliError::other("index has an empty vocabulary"));
    }
    const TAG_SLOW: u64 = 1;
    let config = ClusterConfig {
        shards: opts.shards,
        engine: EngineConfig {
            workers: opts.workers,
            queue_capacity: opts.queries.max(64),
            deadline: None, // the coordinator's hard deadline governs
            soft_deadline: None,
            fault_hook: None,
            ..EngineConfig::default()
        },
        soft_deadline: opts.soft_deadline_ms.map(Duration::from_millis),
        hard_deadline: Duration::from_millis(opts.deadline_ms),
        fault_hooks: Some(Arc::new(|_shard| {
            Some(Arc::new(|tag: u64| {
                if tag == TAG_SLOW {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }) as FaultHook)
        })),
        ..ClusterConfig::default()
    };
    // --process implies the durable layout: daemons can only serve shards
    // that exist on disk (snapshot + journal each).
    let durable = opts.durable || opts.process;
    let scratch = durable
        .then(|| std::env::temp_dir().join(format!("lsi-serve-bench-cluster-{}", opts.seed)));
    let mut supervisor: Option<ShardSupervisor> = None;
    let cluster = match &scratch {
        Some(dir) if opts.process => {
            // Lay the shards out on disk exactly as the in-process durable
            // path would, release them, then hand them to out-of-process
            // daemons spawned from this very binary (`lsi shard-serve`).
            let _ = std::fs::remove_dir_all(dir);
            Cluster::create(&container.index, dir, config.clone())
                .map_err(|e| CliError::serve(format!("cannot create cluster: {e}")))?
                .shutdown();
            let program = std::env::current_exe()
                .map_err(|e| CliError::io(format!("cannot locate the lsi binary: {e}")))?;
            let command = DaemonCommand::new(program, vec!["shard-serve".to_owned()]);
            let sup_config = SupervisorConfig {
                workers: opts.workers,
                ..SupervisorConfig::default()
            };
            let (cluster, sup) = ShardSupervisor::launch(dir, config.clone(), command, sup_config)
                .map_err(|e| CliError::serve(format!("cannot launch shard daemons: {e}")))?;
            supervisor = Some(sup);
            cluster
        }
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Arc::new(
                Cluster::create(&container.index, dir, config.clone())
                    .map_err(|e| CliError::serve(format!("cannot create cluster: {e}")))?,
            )
        }
        None => Arc::new(
            Cluster::build(&container.index, config.clone())
                .map_err(|e| CliError::serve(format!("cannot build cluster: {e}")))?,
        ),
    };

    // Same profile mix as the single-engine bench; fold-ins (durable mode)
    // are pulled out of the stream and applied through the coordinator's
    // journaled mutation path while the query load runs.
    let mut rng = lsi_linalg::rng::seeded(opts.seed);
    let mut queries = Vec::with_capacity(opts.queries);
    let mut fold_ins = Vec::new();
    for _ in 0..opts.queries {
        let roll = rng.gen_range(0usize..100);
        let mut terms: Vec<(usize, f64)> = (0..rng.gen_range(1usize..=4))
            .map(|_| (rng.gen_range(0..n_terms), rng.gen_range(0.5..2.0)))
            .collect();
        let mut tag = 0;
        match roll {
            0..=4 => terms[0].0 = n_terms + 1,
            5..=7 => terms[0].1 = f64::NAN,
            8..=9 => tag = TAG_SLOW,
            10..=13 if durable => {
                fold_ins.push(terms);
                continue;
            }
            _ => {}
        }
        queries.push(Query {
            terms,
            top_k: rng.gen_range(1usize..=10),
            tag,
        });
    }

    // Drive the scatter-gather path from several submitter threads so the
    // per-shard pools actually contend; outcomes land in the coordinator's
    // counters, which is the bench's data.
    let submitters = opts.workers.clamp(2, 8);
    let chunk = queries.len().div_ceil(submitters);
    let queries = Arc::new(queries);
    let handles: Vec<_> = (0..submitters)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let queries = Arc::clone(&queries);
            // lsi-lint: allow(P1-raw-threads, "bench load generators: submitters race wall-clock queries, not deterministic kernel work")
            std::thread::spawn(move || {
                let lo = (t * chunk).min(queries.len());
                let hi = (lo + chunk).min(queries.len());
                for q in &queries[lo..hi] {
                    let _ = cluster.query(q.clone());
                }
            })
        })
        .collect();
    let journaled = fold_ins.len();
    let mut moved = 0usize;
    for terms in &fold_ins {
        cluster
            .add_document(terms)
            .map_err(|e| CliError::serve(format!("journaled fold-in failed: {e}")))?;
    }
    if durable && opts.shards >= 2 {
        // A mid-run rebalance: move one document between the first two
        // shards through the crash-consistent two-journal protocol.
        let docs = cluster
            .shard_docs(0)
            .map_err(|e| CliError::serve(e.to_string()))?;
        if let Some(&gid) = docs.first() {
            moved = cluster
                .rebalance(0, 1, &[gid])
                .map_err(|e| CliError::serve(format!("mid-run rebalance failed: {e}")))?;
        }
    }
    for handle in handles {
        handle
            .join()
            .map_err(|_| CliError::serve("a submitter thread panicked"))?;
    }

    let stats = cluster.stats();
    if !stats.consistent() {
        return Err(CliError::serve(format!(
            "cluster bookkeeping does not balance after the run:\n{}",
            stats.table()
        )));
    }

    let mut durable_lines = String::new();
    if let Some(dir) = &scratch {
        // Compact every shard, tear the cluster down, and prove recovery:
        // reopening the whole cluster from its shard snapshots + journals
        // must reproduce the visible document fingerprint bit for bit.
        for shard in 0..cluster.n_shards() {
            cluster
                .compact_shard(shard)
                .map_err(|e| CliError::serve(format!("shard {shard} compaction failed: {e}")))?;
        }
        let fingerprint = cluster.fingerprint();
        let live_docs = cluster.n_docs();
        if let Some(sup) = supervisor.take() {
            // Stop the daemons first — they own the journals, and a clean
            // Shutdown RPC checkpoints nothing, so the reopen below reads
            // exactly what their crash discipline guarantees on disk.
            sup.shutdown();
        }
        match Arc::try_unwrap(cluster) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => return Err(CliError::serve("cluster handles leaked past join")),
        }
        let (reopened, _reports) = Cluster::open(dir, config)
            .map_err(|e| CliError::serve(format!("cluster reopen failed: {e}")))?;
        if reopened.fingerprint() != fingerprint {
            return Err(CliError::serve(
                "recovery mismatch: reopened cluster fingerprint differs from the live cluster",
            ));
        }
        reopened.shutdown();
        let mode = if opts.process {
            " served by shard-serve daemons"
        } else {
            ""
        };
        durable_lines = format!(
            "\ndurable: {journaled} fold-in(s) journaled, {moved} document(s) rebalanced; \
             cluster reopen verified bit-identical ({live_docs} docs across {} shards{mode})",
            opts.shards
        );
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(format!(
        "serve-bench: {} queries, {} shards, {} workers/shard, {} linalg thread(s), \
         deadline {} ms, seed {}\n{}{}",
        queries.len(),
        opts.shards,
        opts.workers,
        lsi_linalg::parallel::threads(),
        opts.deadline_ms,
        opts.seed,
        stats.table().trim_end(),
        durable_lines
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lsi_cmd_{}_{name}", std::process::id()))
    }

    fn write_sample_corpus(path: &Path) {
        fs::write(
            path,
            "d0\tthe car engine roared down the highway\n\
             d1\tan automobile engine needs maintenance\n\
             d2\tthe automobile market and highway sales\n\
             d3\ta car needs a good engine and brakes\n\
             d4\tthe galaxy contains billions of stars\n\
             d5\ta starship crossed the galaxy to the stars\n",
        )
        .unwrap();
    }

    #[test]
    fn index_then_query_end_to_end() {
        let input = temp("corpus.txt");
        let output = temp("corpus.lsic");
        write_sample_corpus(&input);

        let summary = cmd_index(&input, &output, 2, Weighting::Count).unwrap();
        assert!(summary.contains("6 documents"));

        let container = Container::load(&output).unwrap();
        let hits = cmd_query(&container, "automobile", 6).unwrap();
        assert!(!hits.is_empty());
        // Synonymy bridge: a "car"-only document scores high.
        let car_doc_score = hits
            .iter()
            .find(|(id, _)| id == "d0")
            .map(|&(_, s)| s)
            .expect("d0 retrieved");
        assert!(car_doc_score > 0.8, "d0 score {car_doc_score}");

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn similar_terms_cross_surface_forms() {
        let input = temp("corpus2.txt");
        let output = temp("corpus2.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();
        let container = Container::load(&output).unwrap();

        let sims = cmd_similar_terms(&container, "automobile", 5).unwrap();
        assert!(
            sims.iter().any(|(t, s)| t == "car" && *s > 0.5),
            "car not among similar terms: {sims:?}"
        );
        assert!(cmd_similar_terms(&container, "zeppelin", 5).is_err());

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn topics_show_vocabulary() {
        let input = temp("corpus3.txt");
        let output = temp("corpus3.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();
        let container = Container::load(&output).unwrap();

        let topics = cmd_topics(&container, 4);
        assert_eq!(topics.len(), 2);
        let all_terms: Vec<String> = topics.iter().flat_map(|(_, _, ts)| ts.clone()).collect();
        // The two dominant directions split vehicle vs space vocabulary.
        assert!(all_terms.iter().any(|t| t == "engine" || t == "car"));
        assert!(all_terms.iter().any(|t| t == "galaxy" || t == "stars"));

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn add_folds_documents_into_saved_container() {
        let input = temp("corpus_add.txt");
        let output = temp("corpus_add.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();

        // Fold in two new documents, one off-vocabulary.
        let more = temp("more.txt");
        fs::write(
            &more,
            "d6\tthe car engine and the automobile engine\nd7\tzzz qqq www\n",
        )
        .unwrap();
        let mut container = Container::load(&output).unwrap();
        let before = container.index.n_docs();
        let summary = cmd_add(&mut container, &more, None).unwrap();
        assert!(summary.contains("folded in 1"), "{summary}");
        assert!(summary.contains("1 skipped"), "{summary}");
        assert_eq!(container.index.n_docs(), before + 1);
        assert_eq!(container.doc_ids.len(), before + 1);

        // Save, reload, and confirm the folded document is searchable.
        container.save(&output).unwrap();
        let reloaded = Container::load(&output).unwrap();
        let hits = cmd_query(&reloaded, "automobile engine", 10).unwrap();
        assert!(
            hits.iter().any(|(id, s)| id == "d6" && *s > 0.8),
            "folded doc not retrieved: {hits:?}"
        );

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
        fs::remove_file(&more).ok();
    }

    #[test]
    fn add_rejects_globally_weighted_indexes() {
        let input = temp("corpus_tfidf.txt");
        let output = temp("corpus_tfidf.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::TfIdf).unwrap();
        let mut container = Container::load(&output).unwrap();
        let err = cmd_add(&mut container, &input, None).unwrap_err();
        assert!(err.message.contains("tf-idf"), "{err}");
        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn add_applies_log_tf_weighting() {
        let input = temp("corpus_logtf.txt");
        let output = temp("corpus_logtf.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::LogTf).unwrap();
        let mut container = Container::load(&output).unwrap();
        let summary = cmd_add(&mut container, &input, None).unwrap();
        assert!(summary.contains("folded in 6"), "{summary}");
        // Folded copies of existing documents land on top of the originals.
        let n = container.index.n_docs();
        assert!((container.index.doc_cosine(0, n - 6) - 1.0).abs() < 1e-6);
        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn query_with_oov_terms_errors() {
        let input = temp("corpus4.txt");
        let output = temp("corpus4.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();
        let container = Container::load(&output).unwrap();
        assert!(cmd_query(&container, "quux flibbet", 3).is_err());
        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn rank_clamped_to_corpus() {
        let input = temp("corpus5.txt");
        let output = temp("corpus5.lsic");
        write_sample_corpus(&input);
        // Ask for an absurd rank; it gets clamped, not rejected.
        let summary = cmd_index(&input, &output, 500, Weighting::TfIdf).unwrap();
        assert!(summary.contains("rank 6"), "{summary}");
        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn parse_weighting_names() {
        assert_eq!(parse_weighting("tf-idf").unwrap(), Weighting::TfIdf);
        assert_eq!(parse_weighting("count").unwrap(), Weighting::Count);
        assert!(parse_weighting("nonsense").is_err());
    }

    #[test]
    fn serve_bench_runs_profile_and_balances() {
        let input = temp("corpus_bench.txt");
        let output = temp("corpus_bench.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();
        let container = Container::load(&output).unwrap();

        let opts = ServeBenchOptions {
            queries: 200,
            workers: 2,
            seed: 42,
            deadline_ms: 5_000,
            soft_deadline_ms: None,
            durable: false,
            shards: 1,
            process: false,
        };
        let report = cmd_serve_bench(container, &opts).unwrap();
        assert!(report.contains("200 queries"), "{report}");
        assert!(report.contains("submitted"), "{report}");
        // The report states the linalg thread configuration so bench runs
        // are self-describing.
        assert!(report.contains("linalg thread(s)"), "{report}");
        // The profile injects malformed queries; they must show up typed.
        assert!(report.contains("bad query"), "{report}");

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn serve_bench_durable_mode_journals_and_verifies_recovery() {
        let input = temp("corpus_bench_durable.txt");
        let output = temp("corpus_bench_durable.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();
        let container = Container::load(&output).unwrap();

        let opts = ServeBenchOptions {
            queries: 150,
            workers: 2,
            seed: 4242,
            deadline_ms: 5_000,
            soft_deadline_ms: None,
            durable: true,
            shards: 1,
            process: false,
        };
        let report = cmd_serve_bench(container, &opts).unwrap();
        assert!(report.contains("durable:"), "{report}");
        assert!(report.contains("checkpoint + reopen verified"), "{report}");
        // The 4% mutation slice of 150 queries lands a handful of fold-ins.
        assert!(!report.contains("0 fold-in(s)"), "{report}");

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn recover_replays_a_crashed_add_and_is_idempotent() {
        let input = temp("corpus_recover.txt");
        let output = temp("corpus_recover.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();

        let more = temp("more_recover.txt");
        fs::write(&more, "d6\tthe car engine and the automobile engine\n").unwrap();

        // Journaled add that "crashes" before the container is saved: the
        // in-memory container is simply dropped.
        let jpath = lsi_core::journal_path(&output);
        {
            let mut container = Container::load(&output).unwrap();
            let mut journal = lsi_core::Journal::create(&jpath).unwrap();
            cmd_add(&mut container, &more, Some(&mut journal)).unwrap();
            // No container.save, no journal.rotate: crash window.
        }

        let before = Container::load(&output).unwrap().index.n_docs();
        let summary = cmd_recover(&output).unwrap();
        assert_eq!(summary.snapshot_docs, before);
        assert_eq!(summary.frames_replayed, 1, "{summary}");
        assert_eq!(summary.frames_dropped, 0, "{summary}");
        assert_eq!(summary.total_docs, before + 1);

        // The replayed document is searchable under its journaled id.
        let recovered = Container::load(&output).unwrap();
        let hits = cmd_query(&recovered, "automobile engine", 10).unwrap();
        assert!(
            hits.iter().any(|(id, s)| id == "d6" && *s > 0.8),
            "replayed doc not retrieved: {hits:?}"
        );

        // Recovery is idempotent: a second pass replays nothing.
        let summary2 = cmd_recover(&output).unwrap();
        assert_eq!(summary2.frames_replayed, 0, "{summary2}");
        assert_eq!(summary2.total_docs, before + 1);

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
        fs::remove_file(&more).ok();
        fs::remove_file(&jpath).ok();
    }

    #[test]
    fn serve_bench_cluster_mode_shards_and_verifies_reopen() {
        let input = temp("corpus_bench_cluster.txt");
        let output = temp("corpus_bench_cluster.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();
        let container = Container::load(&output).unwrap();

        let opts = ServeBenchOptions {
            queries: 150,
            workers: 2,
            seed: 777,
            deadline_ms: 5_000,
            soft_deadline_ms: None,
            durable: true,
            shards: 2,
            process: false,
        };
        let report = cmd_serve_bench(container, &opts).unwrap();
        assert!(report.contains("2 shards"), "{report}");
        // The per-shard breakdown rows render in the stats table.
        assert!(report.contains("shard"), "{report}");
        assert!(report.contains("breaker"), "{report}");
        assert!(
            report.contains("cluster reopen verified bit-identical"),
            "{report}"
        );
        assert!(report.contains("rebalanced"), "{report}");

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn recover_all_sweeps_every_shard_and_reports_damage() {
        use lsi_repro_test_corpus::sample_shard_dir;
        let dir = sample_shard_dir("recover_all");

        // Healthy sweep: every shard row renders, nothing damaged.
        let summary = cmd_recover_all(&dir).unwrap();
        assert_eq!(summary.shards.len(), 2, "{summary}");
        assert!(!summary.any_damaged(), "{summary}");
        let rendered = summary.to_string();
        assert!(rendered.contains("shard-000.lsix"), "{rendered}");
        assert!(rendered.contains("shard-001.lsix"), "{rendered}");

        // Torn journal tail: still recoverable (truncated, not damage).
        let j0 = lsi_core::journal_path(&dir.join("shard-000.lsix"));
        let mut bytes = fs::read(&j0).unwrap();
        bytes.extend_from_slice(&[0xAB; 9]);
        fs::write(&j0, bytes).unwrap();
        let summary = cmd_recover_all(&dir).unwrap();
        assert!(!summary.any_damaged(), "{summary}");
        assert!(summary.to_string().contains("truncated 9 B"), "{}", summary);

        // A snapshot that is not a snapshot is per-shard damage: the other
        // shard still recovers and the sweep reports both.
        fs::write(dir.join("shard-001.lsix"), b"not a snapshot").unwrap();
        let summary = cmd_recover_all(&dir).unwrap();
        assert!(summary.any_damaged(), "{summary}");
        let rendered = summary.to_string();
        assert!(rendered.contains("DAMAGED"), "{rendered}");
        assert!(rendered.contains("shard-000.lsix"), "{rendered}");

        // No snapshots at all is an invocation-level error, not damage.
        let empty = temp("recover_all_empty");
        fs::create_dir_all(&empty).unwrap();
        assert!(cmd_recover_all(&empty).is_err());

        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn recover_all_repairs_quarantined_sections() {
        use lsi_repro_test_corpus::sample_shard_dir;
        let dir = sample_shard_dir("recover_quarantine");
        let snapshot = dir.join("shard-001.lsix");

        // Flip a byte inside the doc-vectors payload: degradable damage
        // the tolerant open quarantines rather than rejects.
        let report = cmd_inspect(&snapshot).unwrap().report;
        let section = report
            .sections
            .iter()
            .find(|s| s.name == "doc-vectors")
            .unwrap();
        let mut bytes = fs::read(&snapshot).unwrap();
        bytes[(section.offset + 8 + section.len / 2) as usize] ^= 0x01;
        fs::write(&snapshot, bytes).unwrap();
        assert!(cmd_inspect(&snapshot).unwrap().any_damaged());

        // The sweep rebuilds the quarantined rows from the factorization
        // and the journal; the rewritten snapshot verifies clean.
        let summary = cmd_recover_all(&dir).unwrap();
        assert!(!summary.any_damaged(), "{summary}");
        let rendered = summary.to_string();
        assert!(rendered.contains("repaired"), "{rendered}");
        assert!(rendered.contains("3 row(s) rebuilt"), "{rendered}");
        assert!(!cmd_inspect(&snapshot).unwrap().any_damaged());

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_reports_sections_and_journal_without_repair() {
        use lsi_repro_test_corpus::sample_shard_dir;
        let dir = sample_shard_dir("inspect");
        let snapshot = dir.join("shard-000.lsix");

        // Clean snapshot: every v3 section row renders, nothing damaged,
        // and the sidecar journal's unreplayed frame is counted.
        let summary = cmd_inspect(&snapshot).unwrap();
        assert!(!summary.any_damaged(), "{summary}");
        assert_eq!(summary.report.version, 3, "{summary}");
        let rendered = summary.to_string();
        for name in ["meta", "singular-values", "term-factors", "doc-vectors"] {
            assert!(rendered.contains(name), "missing {name} row:\n{rendered}");
        }
        let journal = summary.journal.as_ref().expect("sidecar journal exists");
        assert_eq!(journal.frames, 1, "one unreplayed add: {rendered}");
        assert_eq!(journal.last_checkpoint, None, "{rendered}");
        assert_eq!(journal.torn_bytes, 0, "{rendered}");

        // A flipped payload byte marks exactly that section damaged, and
        // inspection leaves the file (and a torn journal tail) untouched.
        let mut bytes = fs::read(&snapshot).unwrap();
        let section = summary
            .report
            .sections
            .iter()
            .find(|s| s.name == "doc-vectors")
            .unwrap();
        bytes[(section.offset + 8 + section.len / 2) as usize] ^= 0xFF;
        fs::write(&snapshot, &bytes).unwrap();
        let jpath = lsi_core::journal_path(&snapshot);
        let mut jbytes = fs::read(&jpath).unwrap();
        jbytes.extend_from_slice(&[0xAB; 7]);
        fs::write(&jpath, &jbytes).unwrap();

        let summary = cmd_inspect(&snapshot).unwrap();
        assert!(summary.any_damaged(), "{summary}");
        let rendered = summary.to_string();
        assert!(rendered.contains("doc-vectors"), "{rendered}");
        assert!(rendered.contains("DAMAGED"), "{rendered}");
        assert_eq!(summary.journal.as_ref().unwrap().torn_bytes, 7);
        assert_eq!(
            fs::read(&snapshot).unwrap(),
            bytes,
            "inspect mutated the snapshot"
        );
        assert_eq!(
            fs::read(&jpath).unwrap(),
            jbytes,
            "inspect truncated the journal"
        );

        // Not-an-index files error rather than report.
        fs::write(&snapshot, b"junk").unwrap();
        assert!(cmd_inspect(&snapshot).is_err());

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_walks_lsic_containers() {
        let input = temp("corpus_inspect.txt");
        let output = temp("corpus_inspect.lsic");
        write_sample_corpus(&input);
        cmd_index(&input, &output, 2, Weighting::Count).unwrap();

        let summary = cmd_inspect(&output).unwrap();
        assert!(!summary.any_damaged(), "{summary}");
        assert!(summary.framing.contains("lsic container"), "{summary}");
        assert_eq!(summary.report.version, 3, "{summary}");
        assert!(summary.journal.is_none(), "{summary}");
        // The embedded span excludes the container header and CRC trailer,
        // so the v3 layout check (blocks tile the file exactly) passes.
        assert!(summary.to_string().contains("foldin-meta"), "{summary}");

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    /// Builds a tiny two-shard durable directory for the recover-all test.
    mod lsi_repro_test_corpus {
        use std::path::PathBuf;

        pub fn sample_shard_dir(tag: &str) -> PathBuf {
            let dir =
                std::env::temp_dir().join(format!("lsi_cmd_shards_{}_{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            for shard in 0..2usize {
                let td = lsi_ir::TermDocumentMatrix::from_triplets(
                    4,
                    3,
                    &[
                        (0, 0, 2.0),
                        (1, 0, 1.0),
                        (1, 1, 3.0),
                        (2, 1, 1.0),
                        (3, 2, 2.0),
                        (0, 2, 1.0 + shard as f64),
                    ],
                )
                .unwrap();
                let index =
                    lsi_core::LsiIndex::build(&td, lsi_core::LsiConfig::with_rank(2)).unwrap();
                let path = dir.join(format!("shard-{shard:03}.lsix"));
                let mut durable = lsi_core::DurableIndex::create(&path, index).unwrap();
                // Leave an unreplayed journaled mutation behind so the
                // sweep has something to replay.
                durable.add_document(&[(0, 1.0), (2, 0.5)]).unwrap();
            }
            dir
        }
    }
}
