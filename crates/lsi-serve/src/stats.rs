//! Engine-level serving statistics: admission, outcomes, latency.
//!
//! Every query submitted to a [`QueryEngine`](crate::QueryEngine) ends in
//! exactly one terminal state, and the counters here are written at the
//! moment that state is decided, so at quiescence (all tickets resolved)
//! the books balance:
//!
//! ```text
//! submitted = shed + admitted
//! admitted  = completed_full + completed_degraded
//!           + timed_out + bad_query + internal     (once drained)
//! ```
//!
//! [`StatsSnapshot::consistent`] checks exactly that identity; the chaos
//! suite asserts it after every storm.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper edges of the latency histogram buckets, in microseconds; the
/// final bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Terminal state of one admitted query, as recorded in [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Full-fidelity LSI-space answer.
    CompletedFull,
    /// Answered, but through the degraded path (term-space fallback or a
    /// degraded index).
    CompletedDegraded,
    /// The hard deadline expired before an answer was produced.
    TimedOut,
    /// The query itself was malformed; rejected before scoring.
    BadQuery,
    /// A panic or unexpected error inside the worker; the submitter got
    /// `QueryError::Internal`.
    Internal,
}

/// Lock-free counter block shared by the engine and its workers.
#[derive(Debug, Default)]
pub struct ServeStats {
    submitted: AtomicU64,
    shed: AtomicU64,
    admitted: AtomicU64,
    completed_full: AtomicU64,
    completed_degraded: AtomicU64,
    timed_out: AtomicU64,
    bad_query: AtomicU64,
    internal: AtomicU64,
    worker_respawns: AtomicU64,
    docs_added: AtomicU64,
    latency: [AtomicU64; 6],
}

impl ServeStats {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_doc_added(&self) {
        self.docs_added.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one terminal outcome plus its end-to-end latency
    /// (submission to resolution).
    pub(crate) fn record_outcome(&self, outcome: Outcome, latency: Duration) {
        let counter = match outcome {
            Outcome::CompletedFull => &self.completed_full,
            Outcome::CompletedDegraded => &self.completed_degraded,
            Outcome::TimedOut => &self.timed_out,
            Outcome::BadQuery => &self.bad_query,
            Outcome::Internal => &self.internal,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&edge| us <= edge)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed_full: self.completed_full.load(Ordering::Relaxed),
            completed_degraded: self.completed_degraded.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            bad_query: self.bad_query.load(Ordering::Relaxed),
            internal: self.internal.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            docs_added: self.docs_added.load(Ordering::Relaxed),
            latency: std::array::from_fn(|i| self.latency[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable copy of [`ServeStats`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries offered to the engine (admitted or shed).
    pub submitted: u64,
    /// Queries rejected at admission because the queue was full.
    pub shed: u64,
    /// Queries accepted into the submission queue.
    pub admitted: u64,
    /// Full-fidelity LSI answers.
    pub completed_full: u64,
    /// Degraded-mode answers (term-space fallback or degraded index).
    pub completed_degraded: u64,
    /// Hard-deadline expiries.
    pub timed_out: u64,
    /// Malformed queries rejected with a typed error.
    pub bad_query: u64,
    /// Worker panics / unexpected failures surfaced as internal errors.
    pub internal: u64,
    /// Times a worker was respawned after a panic escaped a job.
    pub worker_respawns: u64,
    /// Documents folded in through the engine.
    pub docs_added: u64,
    /// Latency histogram; bucket `i` counts resolutions with latency
    /// `≤ LATENCY_BUCKETS_US[i]` µs (last bucket: everything slower).
    pub latency: [u64; 6],
}

impl StatsSnapshot {
    /// Number of admitted queries that reached a terminal state.
    pub fn resolved(&self) -> u64 {
        self.completed_full
            + self.completed_degraded
            + self.timed_out
            + self.bad_query
            + self.internal
    }

    /// The accounting identity at quiescence: every submission was either
    /// shed at admission or resolved to exactly one terminal state. While
    /// queries are still in flight, `resolved()` lags `admitted` and this
    /// returns `false`.
    pub fn consistent(&self) -> bool {
        self.submitted == self.shed + self.admitted && self.admitted == self.resolved()
    }

    /// A fixed-width human-readable table of every counter.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("serve stats\n");
        out.push_str(&format!("  submitted          {:>10}\n", self.submitted));
        out.push_str(&format!("  shed (overload)    {:>10}\n", self.shed));
        out.push_str(&format!("  admitted           {:>10}\n", self.admitted));
        out.push_str(&format!(
            "  completed          {:>10}  ({} full, {} degraded)\n",
            self.completed_full + self.completed_degraded,
            self.completed_full,
            self.completed_degraded
        ));
        out.push_str(&format!("  timed out          {:>10}\n", self.timed_out));
        out.push_str(&format!("  bad query          {:>10}\n", self.bad_query));
        out.push_str(&format!("  internal errors    {:>10}\n", self.internal));
        out.push_str(&format!(
            "  worker respawns    {:>10}\n",
            self.worker_respawns
        ));
        out.push_str(&format!("  docs folded in     {:>10}\n", self.docs_added));
        out.push_str("  latency            ");
        let labels = ["≤100µs", "≤1ms", "≤10ms", "≤100ms", "≤1s", ">1s"];
        for (label, count) in labels.iter().zip(self.latency.iter()) {
            out.push_str(&format!("{label}:{count}  "));
        }
        out.push('\n');
        out
    }
}

/// One shard's row in a [`ClusterStatsSnapshot`]: coordinator-side health
/// counters plus the shard engine's own [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatsRow {
    /// Shard index (stable for the cluster's lifetime).
    pub shard: usize,
    /// Documents currently visible through the shard's id map.
    pub docs: usize,
    /// Tombstoned id-map slots (documents moved away or retired).
    pub tombstones: usize,
    /// Queries the coordinator scattered to this shard.
    pub queries: u64,
    /// Scattered queries this shard failed to answer (submit rejection,
    /// worker error, or hard-deadline expiry).
    pub failures: u64,
    /// Current consecutive-failure count feeding the circuit breaker.
    pub consecutive_failures: u64,
    /// Soft-deadline expiries observed by the coordinator (each one
    /// triggers a hedged retry to the shard's pool).
    pub deadline_hits: u64,
    /// Hedged retries actually submitted.
    pub hedges: u64,
    /// True once the circuit breaker ejected the shard from the scatter
    /// set (cleared by [`Cluster::revive`](crate::cluster::Cluster::revive)).
    pub ejected: bool,
    /// The shard engine's own counters (includes `shed` — queries dropped
    /// at the shard's admission queue).
    pub engine: StatsSnapshot,
}

/// A point-in-time copy of a cluster coordinator's counters, one
/// [`ShardStatsRow`] per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatsSnapshot {
    /// Queries offered to the coordinator.
    pub queries: u64,
    /// Responses with every shard answering at full fidelity.
    pub complete: u64,
    /// Responses honestly marked [`Degraded`](crate::cluster::ClusterResponse::Degraded).
    pub degraded: u64,
    /// Queries refused because fewer shards answered than the configured
    /// quorum fraction requires.
    pub quorum_lost: u64,
    /// Malformed queries rejected before the scatter.
    pub bad_query: u64,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStatsRow>,
}

impl ClusterStatsSnapshot {
    /// The coordinator's accounting identity: every query offered resolved
    /// to exactly one of the four terminal states. Unlike the engine-level
    /// identity this holds at every instant — the coordinator's `query`
    /// call is synchronous.
    pub fn consistent(&self) -> bool {
        self.queries == self.complete + self.degraded + self.quorum_lost + self.bad_query
    }

    /// A fixed-width table: the cluster summary line followed by one row
    /// per shard.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("cluster stats\n");
        out.push_str(&format!(
            "  queries {:>8}  ({} complete, {} degraded, {} quorum-lost, {} bad)\n",
            self.queries, self.complete, self.degraded, self.quorum_lost, self.bad_query
        ));
        out.push_str(
            "  shard    docs    tomb  queries     fail     cons   dl-hit    hedge     shed  breaker\n",
        );
        for row in &self.shards {
            out.push_str(&format!(
                "  {:>5} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {}\n",
                row.shard,
                row.docs,
                row.tombstones,
                row.queries,
                row.failures,
                row.consecutive_failures,
                row.deadline_hits,
                row.hedges,
                row.engine.shed,
                if row.ejected { "ejected" } else { "closed" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_table_renders_summary_and_shard_rows() {
        let shard_row = |shard: usize, ejected: bool| ShardStatsRow {
            shard,
            docs: 10 + shard,
            tombstones: shard,
            queries: 42,
            failures: 3,
            consecutive_failures: 1,
            deadline_hits: 2,
            hedges: 2,
            ejected,
            engine: ServeStats::new().snapshot(),
        };
        let snap = ClusterStatsSnapshot {
            queries: 7,
            complete: 4,
            degraded: 2,
            quorum_lost: 1,
            bad_query: 0,
            shards: vec![shard_row(0, false), shard_row(1, true)],
        };
        assert!(snap.consistent());
        let t = snap.table();
        assert!(t.contains("cluster stats"), "{t}");
        assert!(t.contains("2 degraded"), "{t}");
        assert!(t.contains("ejected"), "{t}");
        assert!(t.contains("closed"), "{t}");

        let broken = ClusterStatsSnapshot {
            complete: 3,
            ..snap
        };
        assert!(!broken.consistent());
    }

    #[test]
    fn outcomes_and_latency_land_in_the_right_buckets() {
        let stats = ServeStats::new();
        stats.record_submitted();
        stats.record_admitted();
        stats.record_outcome(Outcome::CompletedFull, Duration::from_micros(50));
        stats.record_submitted();
        stats.record_admitted();
        stats.record_outcome(Outcome::TimedOut, Duration::from_secs(2));
        stats.record_submitted();
        stats.record_shed();

        let s = stats.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.shed, 1);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.completed_full, 1);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.latency[0], 1); // 50µs → first bucket
        assert_eq!(s.latency[5], 1); // 2s → unbounded bucket
        assert!(s.consistent());
    }

    #[test]
    fn consistency_fails_while_in_flight() {
        let stats = ServeStats::new();
        stats.record_submitted();
        stats.record_admitted();
        // Admitted but not yet resolved.
        assert!(!stats.snapshot().consistent());
        stats.record_outcome(Outcome::BadQuery, Duration::ZERO);
        assert!(stats.snapshot().consistent());
    }

    #[test]
    fn table_renders_every_counter() {
        let stats = ServeStats::new();
        stats.record_submitted();
        stats.record_admitted();
        stats.record_outcome(Outcome::CompletedDegraded, Duration::from_millis(5));
        let t = stats.snapshot().table();
        assert!(t.contains("submitted"), "{t}");
        assert!(t.contains("degraded"), "{t}");
        assert!(t.contains("≤10ms:1"), "{t}");
    }
}
