//! Integration: persistence paths under injected I/O faults.
//!
//! The contract under test: every durable write path — journal append,
//! checkpoint compaction, atomic snapshot rewrite, cluster rebalance —
//! routed through the `io_faults` injector surfaces a
//! *typed* [`StorageError`]-shaped error when the device fills up, tears a
//! write, or hiccups, and leaves **exact pre-state** on disk: the bytes of
//! every already-durable file are unchanged, so a retry (or a reopen)
//! starts from the state the caller last acknowledged. Transient faults
//! are ridden out by the bounded retry policy without the caller ever
//! seeing them.
//!
//! An armed fault meters only the writes of the thread that armed it, so
//! these tests run side by side under a parallel test runner without
//! seeing each other's faults.

use std::path::PathBuf;

use lsi_repro::core::storage::StorageError;
use lsi_repro::core::{
    io_faults, write_index, write_index_atomic, DurableIndex, LsiConfig, LsiIndex,
};
use lsi_repro::ir::TermDocumentMatrix;
use lsi_repro::linalg::faults::WriteFault;
use lsi_repro::serve::{Cluster, ClusterConfig, ClusterError, EngineConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsi_iofaults_{tag}_{}", std::process::id()));
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

fn index_bytes(index: &LsiIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    write_index(&mut buf, index).expect("serialize");
    buf
}

/// Disk state of a durable index: (snapshot bytes, journal bytes).
fn disk_state(snapshot: &PathBuf) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(snapshot).expect("snapshot readable"),
        std::fs::read(lsi_repro::core::journal_path(snapshot)).expect("journal readable"),
    )
}

#[test]
fn journal_append_enospc_is_typed_and_rolls_back() {
    let dir = temp_dir("append_enospc");
    let snapshot = dir.join("index.lsix");
    let mut d = DurableIndex::create(&snapshot, sample_index()).expect("create");
    d.add_document(&[(0, 1.0), (2, 0.5)]).expect("clean add");
    let docs_before = d.index().n_docs();
    let pre = disk_state(&snapshot);

    {
        // The device fills up four bytes into the next frame.
        let _guard = io_faults::arm(WriteFault::Enospc { after: 4 });
        let err = d.add_document(&[(1, 2.0)]).expect_err("device is full");
        assert!(
            err.to_string().contains("ENOSPC"),
            "typed full-device error, got: {err}"
        );
        let (_, fired) = io_faults::armed_state().expect("fault armed");
        assert!(fired >= 1, "the injected fault never fired");
    }

    // Exact pre-state: nothing applied in memory, nothing on disk.
    assert_eq!(d.index().n_docs(), docs_before);
    assert_eq!(disk_state(&snapshot), pre, "failed append must roll back");

    // The same mutation succeeds once the device recovers, and a reopen
    // replays exactly the acknowledged frames.
    d.add_document(&[(1, 2.0)]).expect("device recovered");
    let live = index_bytes(d.index());
    drop(d);
    let (reopened, report) = DurableIndex::open_durable(&snapshot).expect("reopen");
    assert_eq!(report.frames_replayed, 2);
    assert_eq!(index_bytes(reopened.index()), live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_append_short_write_is_typed_and_rolls_back() {
    let dir = temp_dir("append_short");
    let snapshot = dir.join("index.lsix");
    let mut d = DurableIndex::create(&snapshot, sample_index()).expect("create");
    let docs_before = d.index().n_docs();
    let pre = disk_state(&snapshot);

    {
        // The device accepts three bytes of the frame, then nothing.
        let _guard = io_faults::arm(WriteFault::ShortWrite { after: 3 });
        let err = d.add_document(&[(0, 1.0)]).expect_err("short write");
        assert!(
            err.to_string().contains("whole buffer"),
            "typed short-write error, got: {err}"
        );
    }

    assert_eq!(d.index().n_docs(), docs_before);
    assert_eq!(
        disk_state(&snapshot),
        pre,
        "a partial frame must not survive a failed append"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_append_transient_fault_is_ridden_out_by_retry() {
    let dir = temp_dir("append_transient");
    let snapshot = dir.join("index.lsix");
    let mut d = DurableIndex::create(&snapshot, sample_index()).expect("create");

    let fired = {
        // Two retryable hiccups at the frame boundary, then clean writes:
        // the bounded retry policy (three attempts) must absorb both
        // without the caller seeing an error.
        let _guard = io_faults::arm(WriteFault::Transient {
            after: 0,
            failures: 2,
        });
        d.add_document(&[(3, 1.5)])
            .expect("transient faults are retried");
        io_faults::armed_state().expect("fault armed").1
    };
    assert_eq!(fired, 2, "both hiccups should have fired and been retried");

    let live = index_bytes(d.index());
    drop(d);
    let (reopened, report) = DurableIndex::open_durable(&snapshot).expect("reopen");
    assert_eq!(report.frames_replayed, 1);
    assert_eq!(index_bytes(reopened.index()), live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_rewrite_enospc_never_destroys_the_destination() {
    let dir = temp_dir("atomic_enospc");
    let path = dir.join("index.lsix");
    let index = sample_index();
    write_index_atomic(&path, &index).expect("initial write");
    let pre = std::fs::read(&path).expect("destination readable");

    let replacement = {
        let td = TermDocumentMatrix::from_triplets(
            6,
            5,
            &[(0, 0, 5.0), (1, 1, 4.0), (2, 2, 3.0), (3, 3, 2.0)],
        )
        .expect("valid triplets");
        LsiIndex::build(&td, LsiConfig::with_rank(2)).expect("build replacement")
    };

    {
        let _guard = io_faults::arm(WriteFault::Enospc { after: 16 });
        let err = write_index_atomic(&path, &replacement).expect_err("device is full");
        assert!(matches!(err, StorageError::Io(ref e)
            if e.kind() == std::io::ErrorKind::StorageFull));
    }

    // The destination still holds the old index, byte for byte, and the
    // failed attempt's temporary sibling was cleaned up.
    assert_eq!(std::fs::read(&path).expect("still readable"), pre);
    assert!(
        !dir.join("index.lsix.tmp").exists(),
        "failed rewrite left its .tmp behind"
    );

    // The rewrite succeeds once the device recovers.
    write_index_atomic(&path, &replacement).expect("device recovered");
    let reread = lsi_repro::core::read_index(&mut std::io::Cursor::new(
        std::fs::read(&path).expect("readable"),
    ))
    .expect("replacement parses");
    assert_eq!(index_bytes(&reread), index_bytes(&replacement));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_enospc_preserves_snapshot_and_journal() {
    let dir = temp_dir("checkpoint_enospc");
    let snapshot = dir.join("index.lsix");
    let mut d = DurableIndex::create(&snapshot, sample_index()).expect("create");
    d.add_document(&[(0, 1.0), (2, 0.5)]).expect("add 1");
    d.add_document(&[(1, 2.0)]).expect("add 2");
    let live = index_bytes(d.index());
    let pre = disk_state(&snapshot);

    {
        // The compaction's snapshot rewrite hits a full device: the old
        // snapshot and the un-rotated journal must both survive intact.
        let _guard = io_faults::arm(WriteFault::Enospc { after: 64 });
        let err = d.checkpoint().expect_err("device is full");
        assert!(matches!(err, StorageError::Io(ref e)
            if e.kind() == std::io::ErrorKind::StorageFull));
    }

    assert_eq!(
        disk_state(&snapshot),
        pre,
        "failed checkpoint must leave exact pre-state"
    );
    assert_eq!(index_bytes(d.index()), live, "in-memory state untouched");

    // Recovery from the preserved state reproduces the live index, and a
    // retried checkpoint completes.
    d.checkpoint().expect("device recovered");
    drop(d);
    let (reopened, report) = DurableIndex::open_durable(&snapshot).expect("reopen");
    assert_eq!(report.frames_replayed, 0, "checkpoint consumed the tail");
    assert_eq!(index_bytes(reopened.index()), live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_auto_compaction_parks_the_error_and_retries() {
    let dir = temp_dir("auto_compact");
    let snapshot = dir.join("index.lsix");
    let mut d = DurableIndex::create(&snapshot, sample_index()).expect("create");
    d.set_auto_compact(Some(1));

    {
        // Generous boundary: the (small) journal frame fits under it, the
        // (much larger) snapshot rewrite of the auto-compaction does not.
        let _guard = io_faults::arm(WriteFault::Enospc { after: 200 });
        d.add_document(&[(0, 1.0)])
            .expect("the mutation itself was journaled and applied");
        assert!(
            d.pending_compaction_error().is_some(),
            "compaction failure must be parked, not dropped"
        );
    }

    // The next mutation retries the parked compaction; with the device
    // recovered it succeeds and the journal is bounded again.
    d.add_document(&[(1, 1.0)]).expect("add after recovery");
    assert!(d.pending_compaction_error().is_none());
    assert!(d.frames_since_checkpoint() <= 1);

    let live = index_bytes(d.index());
    drop(d);
    let (reopened, _) = DurableIndex::open_durable(&snapshot).expect("reopen");
    assert_eq!(index_bytes(reopened.index()), live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_rebalance_enospc_is_typed_and_moves_nothing() {
    let dir = temp_dir("rebalance_enospc");
    let config = ClusterConfig {
        shards: 2,
        engine: EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::create(&sample_index(), &dir, config).expect("create cluster");
    let before = cluster.fingerprint();
    let docs = cluster.shard_docs(0).expect("shard 0 docs");
    assert!(!docs.is_empty());

    {
        // The destination-shard journal append (the move's first durable
        // step) hits a full device: the move must fail typed with the
        // document still owned by the source shard only.
        let _guard = io_faults::arm(WriteFault::Enospc { after: 4 });
        let err = cluster
            .rebalance(0, 1, &docs[..1])
            .expect_err("device is full");
        assert!(
            matches!(err, ClusterError::Storage(_) | ClusterError::Query(_)),
            "typed error, got: {err}"
        );
    }

    assert_eq!(
        cluster.fingerprint(),
        before,
        "failed rebalance must not move or duplicate documents"
    );

    // With the device recovered the same move completes, and a reopened
    // cluster agrees with the live one exactly.
    let moved = cluster
        .rebalance(0, 1, &docs[..1])
        .expect("device recovered");
    assert_eq!(moved, 1);
    let live = cluster.fingerprint();
    cluster.shutdown();
    let (reopened, reports) = Cluster::open_tolerant(
        &dir,
        ClusterConfig {
            shards: 2,
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .expect("reopen");
    assert!(reports.iter().all(|r| r.is_ok()));
    assert_eq!(reopened.fingerprint(), live);
    reopened.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn armed_fault_leaves_other_threads_unmetered() {
    let dir = temp_dir("other_thread");
    let reference = dir.join("reference.lsix");
    let path = dir.join("index.lsix");
    let index = sample_index();
    write_index_atomic(&reference, &index).expect("reference write");

    // A fault that fails any write on this thread at its first byte.
    let _guard = io_faults::arm(WriteFault::Enospc { after: 0 });
    std::thread::scope(|scope| {
        scope
            .spawn(|| write_index_atomic(&path, &index).expect("unarmed thread writes"))
            .join()
            .expect("writer thread");
    });
    assert_eq!(
        std::fs::read(&path).expect("written file readable"),
        std::fs::read(&reference).expect("reference readable"),
        "the other thread's write must land byte-exact"
    );
    assert_eq!(
        io_faults::armed_state(),
        Some((0, 0)),
        "another thread's write was metered against this thread's fault"
    );
    std::fs::remove_dir_all(&dir).ok();
}
