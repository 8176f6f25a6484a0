//! # dyncon-core
//!
//! **Parallel batch-dynamic graph connectivity** — a faithful implementation
//! of Acar, Anderson, Blelloch and Dhulipala, *Parallel Batch-Dynamic Graph
//! Connectivity*, SPAA 2019 (arXiv:1903.08794).
//!
//! [`BatchDynamicConnectivity`] maintains an undirected graph over a fixed
//! vertex set under batches of edge insertions, edge deletions and
//! connectivity queries:
//!
//! * [`BatchDynamicConnectivity::batch_connected`] — Algorithm 1,
//!   `O(k lg(1 + n/k))` expected work and `O(lg n)` depth w.h.p. (Thm 3);
//! * [`BatchDynamicConnectivity::batch_insert`] — Algorithm 2, same bounds
//!   (Thm 4);
//! * [`BatchDynamicConnectivity::batch_delete`] — Algorithm 3, driving one
//!   of the two replacement searches per level:
//!   [`DeletionAlgorithm::Simple`] (Algorithm 4: work-efficient w.r.t. HDT,
//!   `O(lg⁴ n)` depth, Thms 5–6) or [`DeletionAlgorithm::Interleaved`]
//!   (Algorithm 5: `O(lg³ n)` depth and the improved
//!   `O(lg n · lg(1 + n/Δ))` amortized work bound, Thms 7–9).
//!
//! Construction goes through the workspace-wide [`Builder`]
//! (`dyncon-api`), which also selects the deletion algorithm, toggles
//! statistics and drives the E9 ablation; the structure implements the
//! [`dyncon_api::Connectivity`] and [`dyncon_api::BatchDynamic`] traits,
//! whose mixed-op [`dyncon_api::BatchDynamic::apply`] entry point
//! validates vertex ids and returns typed errors (see [`mod@api`]).
//!
//! ## Structure (§2.2, §3)
//!
//! Edges carry levels `1..=L`, `L = ⌈lg n⌉` (level *indices* `0..L` in
//! code). `G_i` is the subgraph of edges with level ≤ `i`; a spanning
//! forest `F_i` of every `G_i` is maintained as a batch-parallel Euler tour
//! forest (`dyncon-ett`), with `F_1 ⊆ F_2 ⊆ … ⊆ F_L`. Two invariants are
//! maintained (and checked by [`BatchDynamicConnectivity::check_invariants`]):
//!
//! 1. components of `G_i` have at most `2^i` vertices;
//! 2. `F_L` is a minimum spanning forest with respect to edge levels.
//!
//! Non-tree edges live in per-(vertex, level) adjacency arrays
//! (Appendix 8) mirrored into the forests' augmented counts (Appendix 9).

pub mod adjacency;
pub mod api;
pub mod delete;
pub mod edges;
pub mod export;
pub mod insert;
pub mod search_interleaved;
pub mod search_simple;
pub mod stats;
pub mod validate;

use adjacency::AdjacencyStore;
pub use dyncon_api::{Builder, DeletionAlgorithm};
use dyncon_ett::EulerTourForest;
use edges::EdgeIndex;
pub use stats::Stats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-level RNG seed for the level-`li` Euler tour forest of a graph
/// over `n` vertices. The golden-ratio constant is perturbed by the whole
/// `(level, n)` pair so every forest (across levels *and* across
/// structures of different sizes) draws distinct treap priorities.
#[inline]
pub(crate) fn level_seed(li: usize, n: usize) -> u64 {
    0x9e37_79b9 ^ (((li as u64) << 32) | n as u64)
}

/// The paper's batch-dynamic connectivity structure.
///
/// ```
/// use dyncon_core::BatchDynamicConnectivity;
///
/// let mut g = BatchDynamicConnectivity::new(6);
/// g.batch_insert(&[(0, 1), (1, 2), (2, 0), (4, 5)]);
/// assert_eq!(g.batch_connected(&[(0, 2), (0, 4)]), vec![true, false]);
///
/// // Deleting a cycle edge keeps the component connected: the structure
/// // finds the replacement edge on its own.
/// g.batch_delete(&[(1, 2)]);
/// assert!(g.connected(1, 2));
/// assert_eq!(g.num_components(), 3); // {0,1,2}, {4,5}, {3}
/// ```
///
/// The inherent methods are the unchecked fast path (out-of-range vertex
/// ids panic); the [`dyncon_api::BatchDynamic`] trait impl layers
/// validated, mixed-op batches with typed errors on top.
pub struct BatchDynamicConnectivity {
    n: usize,
    num_levels: usize,
    /// `levels[li]` is the forest `F_{li+1}` of `G_{li+1}`.
    pub(crate) levels: Vec<EulerTourForest>,
    pub(crate) adj: AdjacencyStore,
    pub(crate) edges: EdgeIndex,
    pub(crate) algo: DeletionAlgorithm,
    pub(crate) stats: Stats,
    /// Query counter, separate from [`Stats`] so `batch_connected` can
    /// take `&self` (queries never need exclusive access).
    pub(crate) queries: AtomicU64,
    pub(crate) stats_enabled: bool,
    /// When true, Algorithm 4 scans all non-tree edges at once instead of
    /// doubling (the E9 ablation knob; never an asymptotic win). Set via
    /// [`Builder::scan_all`].
    pub(crate) scan_all_ablation: bool,
}

impl BatchDynamicConnectivity {
    /// Empty graph over `n` vertices with the default configuration (the
    /// improved deletion algorithm, statistics on). Panics on unusable
    /// `n`; use [`BatchDynamicConnectivity::builder`] for a fallible,
    /// fully configurable construction.
    pub fn new(n: usize) -> Self {
        Self::builder(n)
            .build()
            .expect("vertex count out of the supported range")
    }

    /// A [`Builder`] over `n` vertices: the configuration surface for
    /// this structure (deletion algorithm, stats, ablation knobs).
    ///
    /// ```
    /// use dyncon_core::{BatchDynamicConnectivity, DeletionAlgorithm};
    ///
    /// let g: BatchDynamicConnectivity = BatchDynamicConnectivity::builder(16)
    ///     .algorithm(DeletionAlgorithm::Simple)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(g.num_vertices(), 16);
    /// ```
    pub fn builder(n: usize) -> Builder {
        Builder::new(n)
    }

    /// Construct from a validated [`Builder`] (the
    /// [`dyncon_api::BuildFrom`] entry point).
    pub(crate) fn from_builder(b: &Builder) -> Self {
        let n = b.num_vertices;
        let num_levels = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
        let levels = (0..num_levels)
            .map(|li| EulerTourForest::new(n, level_seed(li, n)))
            .collect();
        Self {
            n,
            num_levels,
            levels,
            adj: AdjacencyStore::new(n),
            edges: EdgeIndex::new(),
            algo: b.algorithm,
            stats: Stats::default(),
            queries: AtomicU64::new(0),
            stats_enabled: b.stats_enabled,
            scan_all_ablation: b.scan_all_ablation,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of levels `L = max(1, ⌈lg n⌉)`.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Index of the top level (`L - 1`; level `L` in paper terms).
    pub(crate) fn top(&self) -> usize {
        self.num_levels - 1
    }

    /// Number of edges currently in the graph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of connected components (isolated vertices count).
    pub fn num_components(&self) -> usize {
        self.n - self.levels[self.top()].num_edges()
    }

    /// Size of the component containing `v`.
    pub fn component_size(&self, v: u32) -> u64 {
        self.levels[self.top()].component_size(v)
    }

    /// True if the edge `{u,v}` is currently in the graph.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        u != v && self.edges.contains(u, v)
    }

    /// The deletion algorithm this instance runs.
    pub fn algorithm(&self) -> DeletionAlgorithm {
        self.algo
    }

    /// Snapshot of the operation statistics. All zeros when statistics
    /// were disabled via [`Builder::stats`].
    pub fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        s.queries = self.queries.load(Ordering::Relaxed);
        s
    }

    /// Reset operation statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.queries.store(0, Ordering::Relaxed);
    }

    /// Record statistics, if enabled. Mutation-path counters funnel
    /// through here so disabling stats removes the bookkeeping.
    #[inline]
    pub(crate) fn stat(&mut self, f: impl FnOnce(&mut Stats)) {
        if self.stats_enabled {
            f(&mut self.stats);
        }
    }

    /// Algorithm 1: answer a batch of connectivity queries against `F_L`.
    /// Takes `&self` — concurrent query batches never contend on the
    /// structure itself (the query counter is a relaxed atomic).
    pub fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        if self.stats_enabled {
            self.queries
                .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        }
        let top = self.top();
        self.levels[top].batch_connected(pairs)
    }

    /// `BatchFindRep` (§2.1) against `F_L`: one opaque component id per
    /// vertex, equal iff connected, in `O(k lg(1+n/k))` expected work.
    /// Ids stay stable until the next mutation (they are skiplist
    /// representatives, or tagged vertex ids for isolated vertices).
    pub fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        self.levels[self.top()].batch_find_rep(vertices)
    }

    /// Single connectivity query.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.levels[self.top()].connected(u, v)
    }

    /// Convenience single-edge insert; returns false if it was a duplicate
    /// or a self-loop.
    pub fn insert(&mut self, u: u32, v: u32) -> bool {
        self.batch_insert(&[(u, v)]) == 1
    }

    /// Convenience single-edge delete; returns false if absent.
    pub fn delete(&mut self, u: u32, v: u32) -> bool {
        self.batch_delete(&[(u, v)]) == 1
    }

    /// Normalize a user batch: order endpoints, drop self loops, dedup.
    /// Fully parallel (map + pack + parallel sort); the sorted result also
    /// fixes the edge order every downstream tie-break is resolved in.
    pub(crate) fn normalize(batch: &[(u32, u32)]) -> Vec<(u32, u32)> {
        use dyncon_primitives::{pack_by, par_map_collect, sort_dedup};
        let oriented: Vec<(u32, u32)> = par_map_collect(batch, |&(u, v)| (u.min(v), u.max(v)));
        let mut es = pack_by(&oriented, |&(u, v)| u != v);
        sort_dedup(&mut es);
        es
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the seed-precedence fix: the original
    /// expression `0x9e37_79b9 ^ (li as u64) << 32 | n as u64` parsed as
    /// `(0x9e37_79b9 ^ (li << 32)) | n` — OR-ing `n` into the constant —
    /// rather than the intended XOR of the whole `(li, n)` pair. The
    /// parenthesized form must keep seeds distinct per level and mix `n`
    /// reversibly (XOR, not OR).
    #[test]
    fn level_seeds_are_distinct_per_level() {
        for n in [2usize, 3, 7, 1024, 1 << 20] {
            let levels = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
            let mut seeds: Vec<u64> = (0..levels).map(|li| level_seed(li, n)).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), levels, "duplicate per-level seed for n={n}");
        }
    }

    #[test]
    fn level_seeds_mix_n_by_xor_not_or() {
        // XOR keeps different n distinguishable at every level; the old
        // OR-parse collapsed any n whose bits were covered by the
        // constant's low word.
        let (a, b) = (level_seed(0, 0x1000_0b99), level_seed(0, 0x1000_0b9b));
        assert_ne!(a, b, "distinct n must give distinct seeds");
        assert_eq!(level_seed(3, 100) ^ level_seed(0, 100), 3u64 << 32);
    }

    #[test]
    fn builder_configures_the_structure() {
        let g: BatchDynamicConnectivity = BatchDynamicConnectivity::builder(10)
            .algorithm(DeletionAlgorithm::Simple)
            .stats(false)
            .build()
            .unwrap();
        assert_eq!(g.algorithm(), DeletionAlgorithm::Simple);
        assert_eq!(g.num_vertices(), 10);
        // Stats disabled: querying leaves the counter at zero.
        g.batch_connected(&[(0, 1)]);
        assert_eq!(g.stats().queries, 0);
    }

    #[test]
    fn queries_take_shared_reference() {
        let mut g = BatchDynamicConnectivity::new(8);
        g.batch_insert(&[(0, 1)]);
        let shared = &g;
        let (a, b) = (
            shared.batch_connected(&[(0, 1)]),
            shared.batch_connected(&[(0, 2)]),
        );
        assert_eq!((a, b), (vec![true], vec![false]));
        assert_eq!(g.stats().queries, 2);
    }
}
