//! Property tests for the query surfaces: partition-invariance of the
//! scatter-gather answer, order-invariance of the top-k merge, and bitwise
//! agreement of every surface with the reference scorer in
//! `support/oracle.rs`.
//!
//! The coordinator's contract is that sharding is invisible: for any way
//! of cutting the corpus into shards, the merged top-k is bitwise the
//! answer a single unsharded engine would give, and the merge itself
//! cannot depend on which shard replied first (replies land in
//! shard-indexed slots, so the reduction order is fixed by construction —
//! these properties pin that down against regressions). The eager, lazy
//! streaming and sharded surfaces all answer like the oracle, including on
//! an index built to trip tie and zero handling.

#[path = "support/oracle.rs"]
mod oracle;

use std::io::Cursor;

use proptest::prelude::*;

use lsi_repro::core::{write_index, LazySnapshot, LsiConfig, LsiIndex};
use lsi_repro::corpus::{SeparableConfig, SeparableModel};
use lsi_repro::ir::{RankedList, SearchHit, TermDocumentMatrix};
use lsi_repro::linalg::rng::seeded;
use lsi_repro::serve::cluster::{merge_top_k, Cluster, ClusterConfig, ClusterResponse};
use lsi_repro::serve::{EngineConfig, Query};

fn bits(hits: &RankedList) -> Vec<(usize, u64)> {
    hits.hits()
        .iter()
        .map(|h| (h.doc, h.score.to_bits()))
        .collect()
}

/// A small reference index shared by every case (building an SVD per
/// proptest case would dominate the runtime without adding coverage —
/// the variation that matters is the partitioning and the query).
fn reference() -> LsiIndex {
    let model = SeparableModel::build(SeparableConfig {
        universe_size: 48,
        num_topics: 3,
        primary_terms_per_topic: 16,
        epsilon: 0.1,
        min_doc_len: 10,
        max_doc_len: 20,
    })
    .expect("valid config");
    let mut rng = seeded(417);
    let corpus = model.model().sample_corpus(18, &mut rng);
    let td = TermDocumentMatrix::from_generated(&corpus).expect("fits universe");
    LsiIndex::build(&td, LsiConfig::with_rank(3)).expect("feasible rank")
}

fn cluster_with(index: &LsiIndex, shards: usize, assignment: Vec<usize>) -> Cluster {
    Cluster::build(
        index,
        ClusterConfig {
            shards,
            assignment: Some(assignment),
            ..ClusterConfig::default()
        },
    )
    .expect("valid partitioning")
}

/// Strategy: an arbitrary shard count and an arbitrary assignment of
/// `docs` documents to those shards (shards may end up empty).
fn partition_strategy(docs: usize) -> impl Strategy<Value = (usize, Vec<usize>)> {
    (1usize..=5)
        .prop_flat_map(move |shards| (Just(shards), proptest::collection::vec(0..shards, docs)))
}

/// The probe [`oracle::adversarial`] aims its extra rows at.
const PROBE: &[(usize, f64)] = &[(0, 1.0), (7, 0.5), (23, 1.5)];

/// Rows in `oracle::adversarial(&reference(), PROBE)`.
const ADVERSARIAL_DOCS: usize = 30;

/// The `top_k` values each adversarial query is asked at: none, one, a
/// cut inside the first tie of the full ranking, every row, unbounded.
fn edge_ks(index: &LsiIndex, terms: &[(usize, f64)]) -> [usize; 5] {
    let full = oracle::query(index, terms, usize::MAX);
    let in_tie = full.windows(2).position(|w| w[0].1 == w[1].1);
    [
        0,
        1,
        in_tie.map_or(2, |p| p + 1),
        index.n_docs(),
        usize::MAX,
    ]
}

fn complete_bits(cluster: &Cluster, terms: &[(usize, f64)], top_k: usize) -> Vec<(usize, u64)> {
    match cluster.query(Query::new(terms.to_vec(), top_k)) {
        Ok(ClusterResponse::Complete(hits)) => bits(&hits),
        other => panic!("healthy cluster did not answer Complete: {other:?}"),
    }
}

/// Every query surface answers the adversarial index bitwise like the
/// oracle: eager `try_query` and `try_query_vector`, `query_streaming`
/// over the index's v3 bytes, and in-process clusters at 1, 2 and 4
/// shards, at every edge `top_k`.
#[test]
fn every_surface_answers_adversarial_cases_like_the_oracle() {
    let index = oracle::adversarial(&reference(), PROBE);
    assert_eq!(index.n_docs(), ADVERSARIAL_DOCS);
    // The probe really meets clamped, exactly-zero and tied scores.
    let full = oracle::query(&index, PROBE, usize::MAX);
    for edge in [1.0f64, -1.0, 0.0] {
        assert!(
            full.iter().any(|h| h.1 == edge.to_bits()),
            "no {edge} score"
        );
    }
    assert!(full.windows(2).any(|w| w[0].1 == w[1].1));

    let mut bytes = Vec::new();
    write_index(&mut bytes, &index).expect("v3 bytes");
    let mut lazy = LazySnapshot::open(Cursor::new(bytes)).expect("lazy open");
    let clusters: Vec<Cluster> = [1, 2, 4]
        .iter()
        .map(|&shards| {
            cluster_with(
                &index,
                shards,
                (0..ADVERSARIAL_DOCS).map(|d| d % shards).collect(),
            )
        })
        .collect();
    // The probe, an all-zero query, a self-cancelling one, and a sweep.
    let mut queries = vec![PROBE.to_vec(), vec![(3, 0.0)], vec![(5, 1.5), (5, -1.5)]];
    queries.extend((0..12).map(|t| vec![(4 * t, 1.0), (4 * t + 1, -0.5)]));
    for terms in &queries {
        let q = index.try_fold_in(terms).expect("in-range query");
        for k in edge_ks(&index, terms) {
            let want = oracle::query(&index, terms, k);
            let at = format!("{terms:?} top {k}");
            assert_eq!(
                bits(&index.try_query(terms, k, None).unwrap()),
                want,
                "try_query {at}"
            );
            assert_eq!(
                bits(&index.try_query_vector(&q, k, None).unwrap()),
                want,
                "try_query_vector {at}"
            );
            assert_eq!(
                bits(&lazy.query_streaming(terms, k).unwrap()),
                want,
                "query_streaming {at}"
            );
            for (cluster, shards) in clusters.iter().zip([1, 2, 4]) {
                assert_eq!(
                    complete_bits(cluster, terms, k),
                    want,
                    "{shards} shards, {at}"
                );
            }
        }
    }

    // e₀ meets the signed-zero row at exactly −0.0.
    let mut e0 = vec![0.0; index.rank()];
    e0[0] = 1.0;
    let want = oracle::top_k(&index, &e0, usize::MAX);
    assert!(want.iter().any(|h| h.1 == (-0.0f64).to_bits()));
    assert_eq!(
        bits(&index.try_query_vector(&e0, usize::MAX, None).unwrap()),
        want
    );
    for cluster in clusters {
        cluster.shutdown();
    }
}

fn query_strategy() -> impl Strategy<Value = (Vec<(usize, f64)>, usize)> {
    (
        proptest::collection::vec((0usize..48, 0.25f64..3.0), 1..5),
        1usize..=20,
    )
}

/// Strategy: a slot vector of shard replies with arbitrary scores, holes
/// (shards that never answered), and cross-shard duplicate documents.
fn slots_strategy() -> impl Strategy<Value = Vec<Option<Vec<SearchHit>>>> {
    let hit = (0usize..12, -2.0f64..2.0).prop_map(|(doc, score)| SearchHit { doc, score });
    let slot = (0usize..10, proptest::collection::vec(hit, 0..8))
        .prop_map(|(alive, hits)| (alive < 8).then_some(hits));
    proptest::collection::vec(slot, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every partitioning of the corpus — however many shards, however
    /// unbalanced, even with empty shards — the N-shard answer is bitwise
    /// the 1-shard answer, which is bitwise the unsharded index's answer.
    #[test]
    fn any_partitioning_answers_bitwise_like_one_shard(
        (shards, assignment) in partition_strategy(18),
        (terms, top_k) in query_strategy(),
    ) {
        let index = reference();
        let want = oracle::query(&index, &terms, top_k);
        prop_assert_eq!(bits(&index.try_query(&terms, top_k, None).expect("eager query")), want.clone());

        let single = cluster_with(&index, 1, vec![0; 18]);
        let many = cluster_with(&index, shards, assignment);
        for cluster in [&single, &many] {
            match cluster.query(Query::new(terms.clone(), top_k)).expect("cluster query") {
                ClusterResponse::Complete(hits) => prop_assert_eq!(bits(&hits), want.clone()),
                other => prop_assert!(false, "healthy cluster degraded: {:?}", other),
            }
        }
        single.shutdown();
        many.shutdown();
    }

    /// Concurrency is invisible too: for any partitioning, any number of
    /// workers per shard, and whatever arrival order a concurrent burst
    /// produces, every merged answer is bitwise the unsharded sequential
    /// answer.
    #[test]
    fn concurrent_shard_bursts_answer_bitwise_like_sequential(
        (shards, assignment) in partition_strategy(18),
        workers in 1usize..=3,
        (terms, top_k) in query_strategy(),
    ) {
        let index = reference();
        let want = oracle::query(&index, &terms, top_k);
        let cluster = Cluster::build(
            &index,
            ClusterConfig {
                shards,
                assignment: Some(assignment),
                // With one worker a concurrent burst queues up at each
                // shard; with more, shard workers answer it in parallel.
                engine: EngineConfig { workers, ..EngineConfig::default() },
                ..ClusterConfig::default()
            },
        )
        .expect("valid partitioning");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        match cluster
                            .query(Query::new(terms.clone(), top_k))
                            .expect("cluster query")
                        {
                            ClusterResponse::Complete(hits) => assert_eq!(bits(&hits), want),
                            other => panic!("healthy cluster degraded: {other:?}"),
                        }
                    }
                });
            }
        });
        cluster.shutdown();
    }

    /// For any partitioning of the adversarial index, any query and any
    /// edge `top_k`, the merged answer is bitwise the oracle's: exact ties
    /// land on random sides of random shard boundaries.
    #[test]
    fn adversarial_partitionings_answer_like_the_oracle(
        (shards, assignment) in partition_strategy(ADVERSARIAL_DOCS),
        (terms, _) in query_strategy(),
        pick in 0usize..5,
    ) {
        let index = oracle::adversarial(&reference(), PROBE);
        let top_k = edge_ks(&index, &terms)[pick];
        let cluster = cluster_with(&index, shards, assignment);
        prop_assert_eq!(complete_bits(&cluster, &terms, top_k), oracle::query(&index, &terms, top_k));
        cluster.shutdown();
    }

    /// The merge is a pure order-fixed reduction: permuting which slot
    /// holds which reply never changes the multiset of merged (doc, score)
    /// bits, duplicates collapse to a single best-scored entry, and the
    /// result respects `top_k` and the global ranking order.
    #[test]
    fn merge_is_invariant_to_reply_arrangement(
        slots in slots_strategy(),
        top_k in 1usize..=10,
        rotation in 0usize..6,
    ) {
        let merged = merge_top_k(&slots, top_k);

        // Rotating the slots (a reply-arrival permutation) yields the
        // same bits.
        let mut rotated = slots.clone();
        rotated.rotate_left(rotation % slots.len().max(1));
        prop_assert_eq!(bits(&merge_top_k(&rotated, top_k)), bits(&merged));

        // Duplicating a shard's reply into a fresh slot adds nothing new:
        // cross-shard duplicates collapse.
        let mut doubled = slots.clone();
        doubled.extend(slots.iter().cloned());
        prop_assert_eq!(bits(&merge_top_k(&doubled, top_k)), bits(&merged));

        // Shape invariants: bounded by top_k, no duplicate documents,
        // scores sorted descending with document id as the tiebreak.
        prop_assert!(merged.len() <= top_k);
        let docs: Vec<usize> = merged.hits().iter().map(|h| h.doc).collect();
        let mut dedup = docs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), docs.len(), "duplicate docs in merge");
        for w in merged.hits().windows(2) {
            prop_assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc)
            );
        }

        // Every merged hit is the best-scored copy of that document
        // anywhere in the replies.
        for hit in merged.hits() {
            let best = slots
                .iter()
                .flatten()
                .flatten()
                .filter(|h| h.doc == hit.doc)
                .map(|h| h.score)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(hit.score.to_bits(), best.to_bits());
        }
    }
}
