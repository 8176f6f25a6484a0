//! Cross-backend differential validation through the unified
//! `dyncon-api` contract: every fully dynamic backend — the parallel
//! batch-dynamic structure (both deletion algorithms), the sequential HDT
//! baseline, the static-recompute baseline and the naive oracle — is
//! driven through **identical mixed-operation batches** as a
//! `Box<dyn BatchDynamic>` trait object, and every `BatchResult`
//! (insert/delete counts *and* query answers, byte for byte) must match
//! the oracle's. No per-backend adapter glue: one loop drives the panel.
//!
//! The structured churn workloads of the seed suite are kept, now
//! expressed as mixed batches; a proptest generator adds arbitrary random
//! mixed-op batches on top.

use dyncon_api::{BatchDynamic, Builder, DeletionAlgorithm, Op};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_graphgen::{cycle, erdos_renyi, grid2d, path, rmat, star, UpdateStream};
use dyncon_hdt::HdtConnectivity;
use dyncon_primitives::SplitMix64;
use dyncon_spanning::{IncrementalConnectivity, NaiveDynamicGraph, StaticRecompute};
use proptest::prelude::*;

/// The fully dynamic backend panel. Index 0 is the trusted reference
/// (the naive oracle); everything else must agree with it byte for byte.
fn panel(n: usize) -> Vec<Box<dyn BatchDynamic>> {
    let b = Builder::new(n);
    vec![
        Box::new(b.build::<NaiveDynamicGraph>().unwrap()),
        Box::new(
            b.clone()
                .algorithm(DeletionAlgorithm::Simple)
                .build::<BatchDynamicConnectivity>()
                .unwrap(),
        ),
        Box::new(
            b.clone()
                .algorithm(DeletionAlgorithm::Interleaved)
                .build::<BatchDynamicConnectivity>()
                .unwrap(),
        ),
        Box::new(b.build::<HdtConnectivity>().unwrap()),
        Box::new(b.build::<StaticRecompute>().unwrap()),
    ]
}

/// Drive the whole panel through identical mixed-op batches: identical
/// `BatchResult`s per batch, identical final component structure, and
/// every backend's own invariant checker must pass.
fn agree_on_batches(n: usize, batches: &[Vec<Op>], tag: &str) {
    let mut panel = panel(n);
    for (bi, ops) in batches.iter().enumerate() {
        let reference = panel[0]
            .apply(ops)
            .unwrap_or_else(|e| panic!("{tag}: oracle rejected batch {bi}: {e}"));
        for g in panel.iter_mut().skip(1) {
            let name = g.backend_name();
            let got = g
                .apply(ops)
                .unwrap_or_else(|e| panic!("{tag}: {name} rejected batch {bi}: {e}"));
            assert_eq!(got, reference, "{tag}: {name} diverged on batch {bi}");
        }
    }
    let comps = panel[0].num_components();
    for g in &panel {
        let name = g.backend_name();
        assert_eq!(g.num_components(), comps, "{tag}: {name} component count");
        g.check()
            .unwrap_or_else(|e| panic!("{tag}: {name} invariants: {e}"));
    }
}

/// Build a structured graph in chunks with queries *interleaved inside*
/// every mutation batch, then churn it back down the same way.
fn churn_batches(n: usize, edges: &[(u32, u32)], batch: usize, seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64::new(seed);
    let rand_query = |rng: &mut SplitMix64, ops: &mut Vec<Op>| {
        ops.push(Op::Query(
            rng.next_below(n as u64) as u32,
            rng.next_below(n as u64) as u32,
        ));
    };
    let mut batches = Vec::new();
    for chunk in edges.chunks(batch) {
        let mut ops = Vec::with_capacity(2 * chunk.len());
        for (i, &(u, v)) in chunk.iter().enumerate() {
            ops.push(Op::Insert(u, v));
            if i % 3 == 0 {
                rand_query(&mut rng, &mut ops);
            }
        }
        for _ in 0..8 {
            rand_query(&mut rng, &mut ops);
        }
        batches.push(ops);
    }
    let mut order: Vec<(u32, u32)> = edges.to_vec();
    for i in (1..order.len()).rev() {
        let j = rng.next_below((i + 1) as u64) as usize;
        order.swap(i, j);
    }
    for chunk in order.chunks(batch) {
        let mut ops = Vec::with_capacity(2 * chunk.len());
        for (i, &(u, v)) in chunk.iter().enumerate() {
            ops.push(Op::Delete(u, v));
            if i % 3 == 1 {
                rand_query(&mut rng, &mut ops);
            }
        }
        for _ in 0..8 {
            rand_query(&mut rng, &mut ops);
        }
        batches.push(ops);
    }
    batches
}

#[test]
fn path_graph_churn() {
    let n = 128;
    agree_on_batches(n, &churn_batches(n, &path(n), 17, 1), "path");
}

#[test]
fn cycle_graph_churn() {
    let n = 96;
    agree_on_batches(n, &churn_batches(n, &cycle(n), 13, 2), "cycle");
}

#[test]
fn star_graph_churn() {
    let n = 128;
    agree_on_batches(n, &churn_batches(n, &star(n), 19, 3), "star");
}

#[test]
fn grid_graph_churn() {
    let n = 8 * 16;
    agree_on_batches(n, &churn_batches(n, &grid2d(8, 16), 23, 4), "grid");
}

#[test]
fn er_graph_churn() {
    let n = 120;
    let edges = erdos_renyi(n, 3 * n, 5);
    agree_on_batches(n, &churn_batches(n, &edges, 31, 6), "er");
}

#[test]
fn rmat_graph_churn() {
    let n = 128;
    let edges = rmat(n, 2 * n, 7);
    agree_on_batches(n, &churn_batches(n, &edges, 29, 8), "rmat");
}

#[test]
fn sliding_window_agreement() {
    let n = 100;
    let stream = UpdateStream::sliding_window(n, 14, 24, 4, 12, 9);
    agree_on_batches(n, &dyncon_bench::stream_ops(&stream), "sliding-window");
}

#[test]
fn dense_graph_full_teardown() {
    let n = 24;
    let edges = dyncon_graphgen::complete(n);
    agree_on_batches(n, &churn_batches(n, &edges, 37, 10), "clique");
}

#[test]
fn insert_only_panel_includes_union_find() {
    // The insert-only union-find baseline joins the panel for streams
    // without deletions. Its `inserted` counts are op-counts (a DSU
    // tracks no edge set), so only query answers are compared for it.
    let n = 64;
    let b = Builder::new(n);
    let mut oracle: Box<dyn BatchDynamic> = Box::new(b.build::<NaiveDynamicGraph>().unwrap());
    let mut others: Vec<Box<dyn BatchDynamic>> = vec![
        Box::new(b.build::<BatchDynamicConnectivity>().unwrap()),
        Box::new(b.build::<HdtConnectivity>().unwrap()),
        Box::new(b.build::<StaticRecompute>().unwrap()),
    ];
    let mut uf: Box<dyn BatchDynamic> = Box::new(b.build::<IncrementalConnectivity>().unwrap());

    let mut rng = SplitMix64::new(77);
    for round in 0..12 {
        let mut ops = Vec::new();
        for _ in 0..10 {
            let (u, v) = (
                rng.next_below(n as u64) as u32,
                rng.next_below(n as u64) as u32,
            );
            ops.push(Op::Insert(u, v));
            ops.push(Op::Query(u, rng.next_below(n as u64) as u32));
        }
        let reference = oracle.apply(&ops).unwrap();
        for g in &mut others {
            let got = g.apply(&ops).unwrap();
            assert_eq!(got, reference, "{}: round {round}", g.backend_name());
        }
        let got = uf.apply(&ops).unwrap();
        assert_eq!(
            got.answers, reference.answers,
            "union-find answers, round {round}"
        );
    }
    assert_eq!(uf.num_components(), oracle.num_components());
    for v in [0u32, 17, 63] {
        assert_eq!(
            uf.component_size(v),
            oracle.component_size(v),
            "size of {v}"
        );
    }
}

// ---------------------------------------------------------------------
// Cross-thread-count determinism: the tentpole contract of the parallel
// hot paths. Identical mixed-op batches through `apply()` must produce
// **byte-identical** `BatchResult`s at 1, 2 and 4 threads — and, beyond
// the letter of the contract, the whole observable structure must match:
// component count, size distribution, the certifying spanning forest and
// every statistics counter. Any unordered concurrent write or racy
// tie-break anywhere in the batch pipeline shows up here.
// ---------------------------------------------------------------------

/// Everything observable about a structure after a script.
type Observation = (
    Vec<dyncon_api::BatchResult>,
    usize,
    Vec<u64>,
    Vec<(u32, u32)>,
    dyncon_core::Stats,
);

/// Run `batches` through a fresh structure under a pool pinned to
/// `threads` workers.
fn observe_at_threads(
    threads: usize,
    algo: DeletionAlgorithm,
    n: usize,
    batches: &[Vec<Op>],
) -> Observation {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut g = Builder::new(n)
            .algorithm(algo)
            .build::<BatchDynamicConnectivity>()
            .unwrap();
        let results: Vec<dyncon_api::BatchResult> = batches
            .iter()
            .map(|ops| g.apply(ops).expect("valid batch"))
            .collect();
        g.check_invariants().expect("invariants");
        let mut forest = g.spanning_forest_edges();
        forest.sort_unstable();
        let comps = BatchDynamicConnectivity::num_components(&g);
        (
            results,
            comps,
            g.component_size_distribution(),
            forest,
            g.stats(),
        )
    })
}

fn assert_thread_invariant(algo: DeletionAlgorithm, n: usize, batches: &[Vec<Op>], tag: &str) {
    let reference = observe_at_threads(1, algo, n, batches);
    for threads in [2usize, 4] {
        let got = observe_at_threads(threads, algo, n, batches);
        assert_eq!(
            got.0, reference.0,
            "{tag}/{algo:?}: BatchResults diverged at {threads} threads"
        );
        assert_eq!(
            got.1, reference.1,
            "{tag}/{algo:?}: component count diverged at {threads} threads"
        );
        assert_eq!(
            got.2, reference.2,
            "{tag}/{algo:?}: size distribution diverged at {threads} threads"
        );
        assert_eq!(
            got.3, reference.3,
            "{tag}/{algo:?}: spanning forest diverged at {threads} threads"
        );
        assert_eq!(
            got.4, reference.4,
            "{tag}/{algo:?}: statistics diverged at {threads} threads"
        );
    }
}

#[test]
fn cross_thread_determinism_large_batches() {
    // Batches well above the sequential threshold (1024), so every
    // parallel path — semisort scatter, pack, spanning forest hooking,
    // replacement search fan-out — actually runs multi-threaded.
    let n = 4096;
    let edges = erdos_renyi(n, 3 * n, 21);
    let mut batches: Vec<Vec<Op>> = Vec::new();
    // One giant insert batch, then chunked deletions with queries mixed in.
    batches.push(edges.iter().map(|&(u, v)| Op::Insert(u, v)).collect());
    let queries = UpdateStream::random_queries(n, 64, 22);
    for chunk in edges.chunks(2048).take(3) {
        let mut ops: Vec<Op> = chunk.iter().map(|&(u, v)| Op::Delete(u, v)).collect();
        ops.extend(queries.iter().map(|&(u, v)| Op::Query(u, v)));
        batches.push(ops);
    }
    for algo in [DeletionAlgorithm::Simple, DeletionAlgorithm::Interleaved] {
        assert_thread_invariant(algo, n, &batches, "large-batch");
    }
}

#[test]
fn cross_thread_determinism_structured_churn() {
    let n = 512;
    let edges = grid2d(16, 32);
    let batches = churn_batches(n, &edges, 256, 23);
    for algo in [DeletionAlgorithm::Simple, DeletionAlgorithm::Interleaved] {
        assert_thread_invariant(algo, n, &batches, "grid-churn");
    }
}

const N: u32 = 12;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N, 0..N).prop_map(|(u, v)| Op::Insert(u, v)),
        (0..N, 0..N).prop_map(|(u, v)| Op::Delete(u, v)),
        (0..N, 0..N).prop_map(|(u, v)| Op::Query(u, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property test of the unified API: arbitrary
    /// random mixed-op batches (inserts, deletes — present or absent —
    /// and queries interleaved freely, self-loops and duplicates
    /// included) produce byte-identical `BatchResult`s across the whole
    /// trait-object panel.
    #[test]
    fn differential_random_mixed_batches(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..16),
            1..24,
        )
    ) {
        let mut panel = panel(N as usize);
        for (bi, ops) in batches.iter().enumerate() {
            let reference = panel[0].apply(ops).unwrap();
            for g in panel.iter_mut().skip(1) {
                let got = g.apply(ops).unwrap();
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{} diverged on batch {}",
                    g.backend_name(),
                    bi
                );
            }
        }
        let comps = panel[0].num_components();
        for g in &panel {
            prop_assert_eq!(g.num_components(), comps, "{}", g.backend_name());
            for v in 0..N {
                prop_assert_eq!(
                    g.component_size(v),
                    panel[0].component_size(v),
                    "{} size of {}",
                    g.backend_name(),
                    v
                );
            }
            g.check().map_err(TestCaseError::fail)?;
        }
    }

    /// The determinism contract at property-test scale: arbitrary mixed
    /// batches observe the same results, forest and statistics at 1, 2
    /// and 4 threads.
    #[test]
    fn cross_thread_determinism_random_batches(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..16),
            1..12,
        )
    ) {
        for algo in [DeletionAlgorithm::Simple, DeletionAlgorithm::Interleaved] {
            let reference = observe_at_threads(1, algo, N as usize, &batches);
            for threads in [2usize, 4] {
                let got = observe_at_threads(threads, algo, N as usize, &batches);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{:?} diverged at {} threads",
                    algo,
                    threads
                );
            }
        }
    }
}

proptest! {
    // Fewer cases than the in-process panel: every case spins up real
    // server threads (10 writers plus their rayon pools across the
    // three shard counts).
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharding layer joins the differential property test:
    /// arbitrary random mixed-op batches through a
    /// [`ShardedBackend`](dyncon_shard::ShardedBackend) — whose
    /// per-shard servers run real writer threads and whose cross-shard
    /// queries go through the contracted boundary graph — must produce
    /// `BatchResult`s byte-identical to the naive oracle at every
    /// tested shard count, plus matching component aggregates and edge
    /// sets.
    #[test]
    fn sharded_differential_random_mixed_batches(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..16),
            1..12,
        )
    ) {
        use dyncon_api::{Connectivity, ExportEdges};
        use dyncon_shard::{ShardConfig, ShardMapKind, ShardedBackend};
        let mut oracle = Builder::new(N as usize).build::<NaiveDynamicGraph>().unwrap();
        let mut sharded: Vec<ShardedBackend<BatchDynamicConnectivity>> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let config = ShardConfig::new()
                    .shards(shards)
                    .kind(ShardMapKind::Hash)
                    .shard_worker_threads(2);
                ShardedBackend::start(N as usize, &config, dyncon_metrics::Registry::new())
                    .unwrap()
            })
            .collect();
        for (bi, ops) in batches.iter().enumerate() {
            let reference = oracle.apply(ops).unwrap();
            for (si, g) in sharded.iter_mut().enumerate() {
                let got = g.apply(ops).unwrap();
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{} shards diverged on batch {}",
                    [1usize, 2, 4][si],
                    bi
                );
            }
        }
        for g in sharded {
            prop_assert_eq!(g.num_components(), oracle.num_components());
            prop_assert_eq!(g.export_edges(), oracle.export_edges());
            g.check().map_err(TestCaseError::fail)?;
            g.shutdown().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
    }
}

/// The read side without a `component_ids` override: it answers through
/// the trait's query-based default.
struct QueryOnly<'a>(&'a NaiveDynamicGraph);

impl dyncon_api::Connectivity for QueryOnly<'_> {
    fn backend_name(&self) -> &'static str {
        "trait-default"
    }
    fn num_vertices(&self) -> usize {
        dyncon_api::Connectivity::num_vertices(self.0)
    }
    fn connected(&self, u: u32, v: u32) -> bool {
        self.0.connected(u, v)
    }
    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        self.0.batch_connected(pairs)
    }
    fn num_components(&self) -> usize {
        self.0.num_components()
    }
    fn component_size(&self, v: u32) -> u64 {
        dyncon_api::Connectivity::component_size(self.0, v)
    }
}

/// `component_groups` as it was before `component_ids` existed: one
/// `batch_connected` call per distinct component, first vertex in input
/// order as the label. The byte-for-byte reference for the rewrite.
fn query_grouping(g: &dyn dyncon_api::Connectivity, vertices: &[u32]) -> Vec<u32> {
    let mut rep = vec![0u32; vertices.len()];
    let mut pending: Vec<usize> = (0..vertices.len()).collect();
    while let Some((&lead, rest)) = pending.split_first() {
        let r = vertices[lead];
        rep[lead] = r;
        let pairs: Vec<(u32, u32)> = rest.iter().map(|&i| (r, vertices[i])).collect();
        let mut next = Vec::new();
        for (&i, same) in rest.iter().zip(g.batch_connected(&pairs)) {
            if same {
                rep[i] = r;
            } else {
                next.push(i);
            }
        }
        pending = next;
    }
    rep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `component_ids` on every backend that has one — the core (both
    /// deletion algorithms), HDT, the oracle, static recompute, a
    /// `ReadView` of the oracle's edge set and the trait default — over
    /// random mixed-op histories: after every batch, two probed vertices
    /// get equal ids iff the oracle says they are connected, ids are
    /// stable between two calls with no mutation in between, and
    /// `component_groups` is byte-identical to the old query grouping.
    #[test]
    fn component_ids_agree_with_the_oracle_on_every_backend(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..16),
            1..12,
        ),
        probe in prop::collection::vec(0..N, 0..(2 * N as usize)),
    ) {
        use dyncon_api::{component_groups, Connectivity, ExportEdges, ReadView};
        let mut panel = panel(N as usize);
        let mut oracle = Builder::new(N as usize).build::<NaiveDynamicGraph>().unwrap();
        let mut reversed = probe.clone();
        reversed.reverse();
        for ops in &batches {
            oracle.apply(ops).unwrap();
            for g in panel.iter_mut() {
                g.apply(ops).unwrap();
            }
            let view = ReadView::build(N as usize, 0, oracle.export_edges());
            let default = QueryOnly(&oracle);
            let mut readers: Vec<&dyn Connectivity> =
                panel.iter().map(|g| g.as_ref() as &dyn Connectivity).collect();
            readers.push(&view);
            readers.push(&default);
            let want_groups = query_grouping(&oracle, &probe);
            for g in readers {
                let name = g.backend_name();
                let ids = g.component_ids(&probe);
                prop_assert_eq!(ids.len(), probe.len());
                for (i, &u) in probe.iter().enumerate() {
                    for (j, &v) in probe.iter().enumerate() {
                        prop_assert_eq!(
                            ids[i] == ids[j],
                            oracle.connected(u, v),
                            "{}: ids of {} and {}",
                            name,
                            u,
                            v
                        );
                    }
                }
                let mut again = g.component_ids(&reversed);
                again.reverse();
                prop_assert_eq!(&again, &ids, "{}: ids moved between calls", name);
                prop_assert_eq!(
                    &component_groups(g, &probe),
                    &want_groups,
                    "{}: component_groups",
                    name
                );
            }
        }
    }
}
