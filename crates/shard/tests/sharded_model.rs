//! Differential model tests: a [`ShardedBackend`] over the paper
//! structure, at several shard counts and both partition kinds, must
//! agree **byte-for-byte** with the single-backend naive oracle on
//! mixed-op batches that deliberately span shard boundaries.

use dyncon_api::{BatchDynamic, Connectivity, ExportEdges, Op};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_metrics::Registry;
use dyncon_primitives::SplitMix64;
use dyncon_shard::{ShardConfig, ShardMapKind, ShardedBackend};
use dyncon_spanning::NaiveDynamicGraph;

fn sharded(
    n: usize,
    shards: usize,
    kind: ShardMapKind,
) -> ShardedBackend<BatchDynamicConnectivity> {
    let config = ShardConfig::new()
        .shards(shards)
        .kind(kind)
        .shard_worker_threads(2);
    ShardedBackend::start(n, &config, Registry::new()).expect("start sharded backend")
}

/// A mixed-op batch stream biased toward boundary-crossing edges: under
/// a range partition of 24 vertices into `shards` shards, endpoints are
/// drawn uniformly, so roughly `1 - 1/shards` of edges cross.
fn mixed_batches(n: u32, seed: u64, batches: usize, per_batch: usize) -> Vec<Vec<Op>> {
    let rng = SplitMix64::new(seed);
    let mut at = 0u64;
    let mut next = || {
        at += 1;
        rng.at(at)
    };
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let u = (next() % n as u64) as u32;
                    let mut v = (next() % n as u64) as u32;
                    if u == v {
                        v = (v + 1) % n;
                    }
                    match next() % 10 {
                        0..=4 => Op::Insert(u, v),
                        5..=6 => Op::Delete(u, v),
                        _ => Op::Query(u, v),
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn agrees_with_naive_oracle_across_shard_counts_and_kinds() {
    let n = 24usize;
    for kind in [ShardMapKind::Range, ShardMapKind::Hash] {
        for shards in [1usize, 2, 3, 5] {
            let mut sut = sharded(n, shards, kind);
            let mut oracle = NaiveDynamicGraph::new(n);
            for (i, batch) in mixed_batches(n as u32, 0xC0FFEE, 12, 40).iter().enumerate() {
                let got = sut.apply(batch).expect("sharded apply");
                let want = oracle.apply(batch).expect("oracle apply");
                assert_eq!(
                    got, want,
                    "batch {i} diverged at {kind:?} x {shards} shards"
                );
                assert_eq!(
                    sut.export_edges(),
                    oracle.export_edges(),
                    "edge set diverged at batch {i}, {kind:?} x {shards} shards"
                );
                assert_eq!(
                    sut.num_components(),
                    oracle.num_components(),
                    "component count diverged at batch {i}, {kind:?} x {shards}"
                );
            }
            sut.check().expect("sharded invariants");
            sut.shutdown().expect("clean shutdown");
        }
    }
}

#[test]
fn component_size_spans_shards() {
    // Path 0-1-2-3-4-5 under a 3-shard range partition of 6 vertices:
    // every component is glued out of per-shard pieces.
    let mut sut = sharded(6, 3, ShardMapKind::Range);
    let mut oracle = NaiveDynamicGraph::new(6);
    let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5)];
    assert_eq!(sut.batch_insert(&edges).unwrap(), 5);
    // The oracle's inherent batch methods shadow the trait's; qualify.
    BatchDynamic::batch_insert(&mut oracle, &edges).unwrap();
    for v in 0..6u32 {
        assert_eq!(
            sut.component_size(v),
            Connectivity::component_size(&oracle, v),
            "vertex {v}"
        );
    }
    // Cut the middle; sizes split 3 + 3.
    assert_eq!(sut.batch_delete(&[(2, 3)]).unwrap(), 1);
    BatchDynamic::batch_delete(&mut oracle, &[(2, 3)]).unwrap();
    for v in 0..6u32 {
        assert_eq!(
            sut.component_size(v),
            Connectivity::component_size(&oracle, v),
            "vertex {v}"
        );
    }
    assert_eq!(sut.num_components(), 2);
    sut.shutdown().expect("clean shutdown");
}

#[test]
fn byte_identical_results_across_shard_and_thread_counts() {
    // The determinism claim at the backend layer: the full BatchResult
    // stream must be byte-identical for every (shards, threads) pair.
    let n = 20usize;
    let batches = mixed_batches(n as u32, 0xDECADE, 8, 32);
    let mut reference = None;
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 2, 4] {
            let config = ShardConfig::new()
                .shards(shards)
                .kind(ShardMapKind::Hash)
                .shard_worker_threads(threads);
            let mut sut: ShardedBackend<BatchDynamicConnectivity> =
                ShardedBackend::start(n, &config, Registry::new()).unwrap();
            let results: Vec<_> = batches
                .iter()
                .map(|b| sut.apply(b).expect("apply"))
                .collect();
            match &reference {
                None => reference = Some(results),
                Some(want) => assert_eq!(
                    &results, want,
                    "results diverged at {shards} shards x {threads} threads"
                ),
            }
            sut.shutdown().expect("clean shutdown");
        }
    }
}

#[test]
fn rejects_out_of_range_vertices_without_partial_application() {
    let mut sut = sharded(8, 2, ShardMapKind::Range);
    let err = sut
        .apply(&[Op::Insert(0, 1), Op::Insert(3, 99)])
        .unwrap_err();
    assert!(matches!(
        err,
        dyncon_shard::DynConError::VertexOutOfRange {
            vertex: 99,
            num_vertices: 8
        }
    ));
    // Validation is up-front: the in-range insert must not have landed.
    assert_eq!(sut.export_edges(), Vec::new());
    assert_eq!(sut.num_components(), 8);
    sut.shutdown().expect("clean shutdown");
}

#[test]
fn query_runs_observe_exactly_the_preceding_mutations() {
    // Mixed kinds inside one mutation segment, queries between runs —
    // the same run-boundary semantics as the default `apply`.
    let mut sut = sharded(10, 2, ShardMapKind::Range);
    let result = sut
        .apply(&[
            Op::Insert(0, 9), // cross under a 2-way range split of 10
            Op::Insert(0, 1), // intra shard 0
            Op::Query(1, 9),  // true: 1-0-9
            Op::Delete(0, 9),
            Op::Query(1, 9), // false again
            Op::Query(0, 1), // still true
        ])
        .unwrap();
    assert_eq!(result.inserted, 2);
    assert_eq!(result.deleted, 1);
    assert_eq!(result.answers, vec![true, false, true]);
    sut.shutdown().expect("clean shutdown");
}

/// Per-source invalidation of the boundary contraction: rounds that change
/// only shard 0, only shard 1, only the cross store, or nothing at all
/// (duplicate inserts and absent deletes), each followed by cross queries,
/// `num_components` and `component_size` on every vertex — all against the
/// oracle. A round that changes nothing must not rebuild the boundary.
/// Then cross deletes that take a vertex's last cross edge away, so it
/// stops being a boundary endpoint.
#[test]
fn per_source_invalidation_matches_the_oracle() {
    let n = 32u32;
    for shards in [2usize, 4] {
        let mut sut = sharded(n as usize, shards, ShardMapKind::Hash);
        let mut oracle = NaiveDynamicGraph::new(n as usize);
        let map = sut.shard_map().clone();
        let pairs = |keep: &dyn Fn(u32, u32) -> bool| -> Vec<(u32, u32)> {
            (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|&(u, v)| keep(u, v))
                .collect()
        };
        let within = |s: usize| pairs(&|u, v| map.shard_of(u) == s && map.shard_of(v) == s);
        let sources = [within(0), within(1), pairs(&|u, v| map.is_cross(u, v))];
        let cross_probes = pairs(&|u, v| map.is_cross(u, v));
        let rng = SplitMix64::new(0x5A1E ^ shards as u64);
        let mut at = 0u64;
        let mut next = |bound: usize| {
            at += 1;
            (rng.at(at) % bound as u64) as usize
        };
        for step in 0..64 {
            let kind = step % 4;
            let batch: Vec<Op> = if kind < 3 {
                // Mostly inserts early on, so components grow across
                // shards before deletes start splitting them.
                let pool = &sources[kind];
                (0..6)
                    .map(|_| {
                        let (u, v) = pool[next(pool.len())];
                        if next(10) < 7 {
                            Op::Insert(u, v)
                        } else {
                            Op::Delete(u, v)
                        }
                    })
                    .collect()
            } else {
                // Nothing changes: re-insert present edges, delete absent ones.
                let present = oracle.export_edges();
                let mut ops: Vec<Op> = present
                    .iter()
                    .take(4)
                    .map(|&(u, v)| Op::Insert(v, u))
                    .collect();
                ops.extend(
                    cross_probes
                        .iter()
                        .filter(|&&(u, v)| !oracle.has_edge(u, v))
                        .take(4)
                        .map(|&(u, v)| Op::Delete(u, v)),
                );
                ops
            };
            let got = sut.apply(&batch).expect("sharded apply");
            let want = oracle.apply(&batch).expect("oracle apply");
            assert_eq!(got, want, "step {step} ({shards} shards): mutation counts");
            if kind == 3 {
                assert_eq!(
                    (got.inserted, got.deleted),
                    (0, 0),
                    "step {step}: a no-op round"
                );
            }
            let rebuilds_before = sut.metrics().boundary_rebuilds.get();
            let queries: Vec<Op> = (0..24)
                .map(|_| {
                    let (u, v) = cross_probes[next(cross_probes.len())];
                    Op::Query(u, v)
                })
                .collect();
            assert_eq!(
                sut.apply(&queries).expect("sharded queries"),
                oracle.apply(&queries).expect("oracle queries"),
                "step {step} ({shards} shards): cross queries"
            );
            assert_eq!(
                sut.num_components(),
                oracle.num_components(),
                "step {step} ({shards} shards): num_components"
            );
            for v in 0..n {
                assert_eq!(
                    sut.component_size(v),
                    Connectivity::component_size(&oracle, v),
                    "step {step} ({shards} shards): component_size({v})"
                );
            }
            if kind == 3 {
                assert_eq!(
                    sut.metrics().boundary_rebuilds.get(),
                    rebuilds_before,
                    "step {step}: a round that changed nothing rebuilt the boundary"
                );
            }
        }
        // An endpoint losing its last cross edge: strip the vertex with
        // the most cross edges down to one, then to none, then give it
        // one back and take it away again within later rounds.
        let cross_at = |oracle: &NaiveDynamicGraph, a: u32| -> Vec<(u32, u32)> {
            oracle
                .export_edges()
                .into_iter()
                .filter(|&(u, v)| map.is_cross(u, v) && (u == a || v == a))
                .collect()
        };
        let a = (0..n)
            .max_by_key(|&a| cross_at(&oracle, a).len())
            .expect("n > 0");
        let held = cross_at(&oracle, a);
        assert!(!held.is_empty(), "{shards} shards: no cross edges left");
        let partner = cross_probes
            .iter()
            .find(|&&(u, v)| (u == a || v == a) && !oracle.has_edge(u, v))
            .copied()
            .expect("a cross pair to re-add");
        let rounds: Vec<Vec<Op>> = vec![
            held[1..].iter().map(|&(u, v)| Op::Delete(u, v)).collect(),
            vec![Op::Delete(held[0].1, held[0].0)],
            vec![Op::Insert(partner.0, partner.1)],
            vec![Op::Delete(partner.1, partner.0)],
        ];
        for (i, batch) in rounds.iter().enumerate() {
            let got = sut.apply(batch).expect("sharded apply");
            assert_eq!(
                got,
                oracle.apply(batch).expect("oracle apply"),
                "last-edge round {i} ({shards} shards): mutation counts"
            );
            let queries: Vec<Op> = cross_probes.iter().map(|&(u, v)| Op::Query(u, v)).collect();
            assert_eq!(
                sut.apply(&queries).expect("sharded queries"),
                oracle.apply(&queries).expect("oracle queries"),
                "last-edge round {i} ({shards} shards): cross queries"
            );
            assert_eq!(sut.num_components(), oracle.num_components());
            for v in 0..n {
                assert_eq!(
                    sut.component_size(v),
                    Connectivity::component_size(&oracle, v),
                    "last-edge round {i} ({shards} shards): component_size({v})"
                );
            }
        }
        assert!(cross_at(&oracle, a).is_empty());
        sut.shutdown().expect("clean shutdown");
    }
}
