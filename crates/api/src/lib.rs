//! # dyncon-api
//!
//! The workspace-wide dynamic-connectivity contract. The paper's interface
//! is three batch operations — `BatchConnected`, `BatchInsert`,
//! `BatchDelete` (Acar, Anderson, Blelloch, Dhulipala, SPAA 2019) — and
//! this crate pins that interface down once, for every backend in the
//! workspace:
//!
//! * [`Connectivity`] — the read side: `connected`, `batch_connected`
//!   (both `&self`), `num_components`, `component_size`, and
//!   `component_ids` (stable opaque labels, the paper's `BatchFindRep`);
//! * [`BatchDynamic`] — the write side plus [`BatchDynamic::apply`], which
//!   takes a **mixed-operation batch** ([`Op::Insert`] / [`Op::Delete`] /
//!   [`Op::Query`] interleaved in one slice) so streaming workloads no
//!   longer need caller-managed phase splitting;
//! * [`Builder`] — one construction path for every backend (vertex count,
//!   [`DeletionAlgorithm`], stats on/off, ablation knobs) via
//!   [`BuildFrom`];
//! * [`DynConError`] — typed errors at the API boundary instead of deep
//!   panics: out-of-range vertices are rejected with
//!   [`DynConError::VertexOutOfRange`] before any state is touched;
//!   durable-storage failures surface as [`DynConError::Storage`] /
//!   [`DynConError::Corrupt`];
//! * [`encode_ops`] / [`decode_ops`] — the compact canonical binary
//!   encoding of mixed-op batches ([`Op::ENCODED_LEN`] bytes per op) that
//!   the `dyncon-durable` write-ahead log frames and checksums;
//! * [`ExportEdges`] — the canonical bulk-export surface (normalized,
//!   sorted edge list) durable snapshots are built on;
//! * [`VersionedRead`] / [`ReadView`] — the MVCC read surface: every
//!   sealed commit round gets a [`Version`] (the WAL round id in a
//!   durable stack) and a serving layer hands out immutable snapshot
//!   views **as of** a version, from a bounded retention window, with
//!   [`DynConError::UnknownVersion`] outside it.
//!
//! Backends implementing the contract: `dyncon-core`'s
//! `BatchDynamicConnectivity` (the paper's structure), `dyncon-hdt`'s
//! `HdtConnectivity` (sequential baseline), `dyncon-spanning`'s
//! `IncrementalConnectivity` (insert-only union-find),
//! `StaticRecompute` (recompute-from-scratch baseline) and
//! `NaiveDynamicGraph` (the trusted test oracle). Cross-backend
//! differential tests drive them all through identical mixed-op batches as
//! `Box<dyn BatchDynamic>` trait objects.
//!
//! ## Validation contract
//!
//! * [`BatchDynamic::apply`] validates **every** operation in the batch
//!   (including queries) against `num_vertices()` *before* mutating
//!   anything: on [`DynConError::VertexOutOfRange`] the structure is
//!   untouched.
//! * [`BatchDynamic::batch_insert`] / [`BatchDynamic::batch_delete`]
//!   validate their own edge lists the same way.
//! * The `&self` query methods of [`Connectivity`] are the unchecked fast
//!   path: passing an out-of-range vertex may panic. Route untrusted
//!   input through [`BatchDynamic::apply`] with [`Op::Query`].
//! * A run of operations that a backend cannot support at all (deletions
//!   on an insert-only structure) fails with
//!   [`DynConError::Unsupported`]; runs *before* the offending one have
//!   already been applied by then, and the error message says so.

mod builder;
mod error;
mod op;
mod view;

pub use builder::{BuildFrom, Builder, DeletionAlgorithm, MAX_VERTICES};
pub use error::DynConError;
pub use op::{decode_ops, encode_ops, BatchResult, Op, OpKind};
pub use view::{empty_window_error, ReadView, Relabel, Version, VersionedRead, EMPTY_WINDOW};

use std::collections::HashMap;

/// The read side of a connectivity structure: queries only, all `&self`,
/// so concurrent readers never need exclusive access.
///
/// Vertices are dense ids `0..num_vertices()`. The query methods are the
/// unchecked fast path — out-of-range vertices may panic; see the crate
/// docs for the validated alternative.
pub trait Connectivity {
    /// Short human-readable backend name (for experiment tables and
    /// differential-test diagnostics).
    fn backend_name(&self) -> &'static str;

    /// Number of vertices of the (fixed) vertex universe.
    fn num_vertices(&self) -> usize;

    /// True iff `u` and `v` are in the same connected component.
    fn connected(&self, u: u32, v: u32) -> bool;

    /// Algorithm 1: answer a batch of connectivity queries. The default
    /// loops [`Connectivity::connected`]; backends with a genuinely
    /// batch-parallel query path override it.
    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        pairs.iter().map(|&(u, v)| self.connected(u, v)).collect()
    }

    /// Number of connected components (isolated vertices count).
    fn num_components(&self) -> usize;

    /// Number of vertices in `v`'s component (≥ 1).
    fn component_size(&self, v: u32) -> u64;

    /// One opaque **component id** per input vertex: two ids are equal
    /// iff their vertices are connected. Ids are also stable: while the
    /// edge set does not change, a vertex keeps its id from call to call
    /// (a batch of duplicate inserts and absent deletes changes nothing),
    /// so a caller may cache ids, and compare ids from different calls,
    /// until the next effective mutation. Nothing else about an id is
    /// promised: a backend may hand out internal representatives that a
    /// later mutation reuses for another component.
    ///
    /// The default labels by queries: one
    /// [`Connectivity::batch_connected`] call per distinct component
    /// among `vertices` (batching every still-unlabelled vertex), then
    /// one more per component to find its smallest vertex, which is the
    /// id — `O((k + n) × components)` query pairs for `k` inputs.
    /// Backends with a representative lookup override it with `k`
    /// lookups (the paper's `BatchFindRep`).
    fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        let mut ids = vec![0u64; vertices.len()];
        let mut pending: Vec<usize> = (0..vertices.len()).collect();
        while let Some((&lead, rest)) = pending.split_first() {
            let r = vertices[lead];
            let pairs: Vec<(u32, u32)> = rest.iter().map(|&i| (r, vertices[i])).collect();
            let mut group = vec![lead];
            let mut next = Vec::with_capacity(rest.len());
            for (&i, same) in rest.iter().zip(self.batch_connected(&pairs)) {
                if same {
                    group.push(i);
                } else {
                    next.push(i);
                }
            }
            // The stable id is the component's smallest vertex: the first
            // vertex below the group's minimum that `r` reaches, if any.
            let min = group.iter().map(|&i| vertices[i]).min().unwrap_or(r);
            let below: Vec<(u32, u32)> = (0..min).map(|w| (r, w)).collect();
            let id = self
                .batch_connected(&below)
                .iter()
                .position(|&hit| hit)
                .map_or(min, |w| w as u32);
            for i in group {
                ids[i] = u64::from(id);
            }
            pending = next;
        }
        ids
    }
}

/// The write side: batch mutations plus the mixed-operation entry point.
///
/// All mutation methods validate vertex ids and return typed
/// [`DynConError`]s — this trait is the safe API boundary of every
/// backend.
pub trait BatchDynamic: Connectivity {
    /// Insert a batch of edges. Self-loops, duplicates within the batch
    /// and edges already present are ignored. Returns the number of edges
    /// actually added to the graph (backends that do not track the edge
    /// set, such as an insert-only union-find, count accepted operations
    /// instead and say so in their docs).
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError>;

    /// Delete a batch of edges. Self-loops, duplicates and absent edges
    /// are ignored. Returns the number of edges actually removed.
    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError>;

    /// Apply a **mixed-operation batch**: inserts, deletes and queries
    /// interleaved in one slice, applied in order. Maximal runs of
    /// same-kind operations execute as one batch call each, so a
    /// sliding-window round (`expire ∪ ingest ∪ analytics`) is a single
    /// `apply`.
    ///
    /// Every operation is validated up front: on
    /// [`DynConError::VertexOutOfRange`] nothing has been applied.
    /// Query answers land in [`BatchResult::answers`] in operation order.
    fn apply(&mut self, ops: &[Op]) -> Result<BatchResult, DynConError> {
        let n = self.num_vertices();
        for op in ops {
            let (u, v) = op.endpoints();
            validate_vertex(n, u)?;
            validate_vertex(n, v)?;
        }
        let mut result = BatchResult::default();
        let mut run: Vec<(u32, u32)> = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            let kind = ops[i].kind();
            run.clear();
            while i < ops.len() && ops[i].kind() == kind {
                run.push(ops[i].endpoints());
                i += 1;
            }
            match kind {
                OpKind::Insert => result.inserted += self.batch_insert(&run)?,
                OpKind::Delete => result.deleted += self.batch_delete(&run)?,
                OpKind::Query => result.answers.extend(self.batch_connected(&run)),
            }
        }
        Ok(result)
    }

    /// Whether this backend can perform operations of `kind` at all —
    /// a *static* capability probe (it must not depend on current state).
    /// The default claims full support; insert-only backends override it
    /// so serving layers can reject unsupportable requests at admission
    /// instead of failing a whole commit round mid-`apply`.
    fn supports(&self, kind: OpKind) -> bool {
        let _ = kind;
        true
    }

    /// Run the backend's internal consistency checker, if it has one.
    /// Debugging/testing hook; the default is a no-op.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The canonical bulk-export surface a durable snapshot is built on.
///
/// A connectivity structure is fully determined by its vertex universe
/// and edge set, so `(num_vertices, export_edges())` is a complete,
/// backend-independent snapshot: rebuilding any backend from it (via
/// [`BuildFrom`] + [`BatchDynamic::batch_insert`]) yields an equivalent
/// graph. The contract makes the bytes canonical too: edges come back
/// **normalized** (`u < v`) and **sorted**, so two structures holding the
/// same edge set export identical vectors regardless of insertion
/// history — which is what lets snapshot files be compared and
/// checksummed byte-for-byte.
pub trait ExportEdges: Connectivity {
    /// Every current edge, normalized `(min, max)` and sorted ascending.
    fn export_edges(&self) -> Vec<(u32, u32)>;
}

/// Group a vertex list into the connected components of `g`, using only
/// the read-side surface — the label-export helper for callers that want
/// vertex representatives rather than opaque ids.
///
/// Returns, for each input position, the **representative vertex** of
/// that vertex's component: the first vertex *in input order* that
/// belongs to it. The output is therefore a pure function of the graph's
/// partition and the input order — callers that pass a canonically
/// sorted list get canonical labels, which is what the workspace
/// determinism contract needs. Duplicate input vertices simply share a
/// representative.
///
/// Costs one [`Connectivity::component_ids`] call plus a hash map pass:
/// `k` representative lookups on a backend that overrides
/// `component_ids` (the core, HDT, [`ReadView`]), the default's query
/// grouping otherwise.
pub fn component_groups<C: Connectivity + ?Sized>(g: &C, vertices: &[u32]) -> Vec<u32> {
    let ids = g.component_ids(vertices);
    let mut first: HashMap<u64, u32> = HashMap::with_capacity(vertices.len());
    vertices
        .iter()
        .zip(ids)
        .map(|(&v, id)| *first.entry(id).or_insert(v))
        .collect()
}

/// Min-label union-find: `labels[v]` is the **smallest vertex** of `v`'s
/// component in the graph of `edges` over `num_vertices` vertices. The
/// larger root always points at the smaller, so a root is its component's
/// minimum; path halving keeps it near-linear. The result is a pure
/// function of the partition — edge order does not matter.
///
/// Cost: `O(n + m α(n))`. [`ReadView::build`] labels a snapshot with it,
/// and a shard coordinator contracts its boundary with it.
pub fn min_labels(num_vertices: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut labels = Vec::new();
    min_labels_into(&mut labels, num_vertices, edges);
    labels
}

/// [`min_labels`] into `labels`, reusing its allocation (a
/// [`ReadView::advance`] that recycles an evicted view's buffers).
pub(crate) fn min_labels_into(labels: &mut Vec<u32>, num_vertices: usize, edges: &[(u32, u32)]) {
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let grand = parent[parent[v as usize] as usize];
            parent[v as usize] = grand;
            v = grand;
        }
        v
    }
    let parent = labels;
    parent.clear();
    parent.extend(0..num_vertices as u32);
    for &(u, v) in edges {
        debug_assert!((u as usize) < num_vertices && (v as usize) < num_vertices);
        let (ru, rv) = (find(parent, u), find(parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    // Ascending order flattens every path: a root is smaller than its
    // members, so `parent[root]` is final before any member asks.
    for v in 0..num_vertices as u32 {
        let root = find(parent, v);
        parent[v as usize] = root;
    }
}

/// Reject an out-of-range vertex id with a typed error.
#[inline]
pub fn validate_vertex(num_vertices: usize, v: u32) -> Result<(), DynConError> {
    if (v as usize) < num_vertices {
        Ok(())
    } else {
        Err(DynConError::VertexOutOfRange {
            vertex: v,
            num_vertices,
        })
    }
}

/// Validate every endpoint of an edge/query list (helper for backend
/// `batch_insert`/`batch_delete` implementations).
pub fn validate_pairs(num_vertices: usize, pairs: &[(u32, u32)]) -> Result<(), DynConError> {
    for &(u, v) in pairs {
        validate_vertex(num_vertices, u)?;
        validate_vertex(num_vertices, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-crate backend so trait defaults are testable without a
    /// dependency cycle: adjacency-matrix graph with DFS connectivity.
    struct Dense {
        n: usize,
        adj: Vec<bool>,
    }

    impl Dense {
        fn new(n: usize) -> Self {
            Self {
                n,
                adj: vec![false; n * n],
            }
        }
        fn idx(&self, u: u32, v: u32) -> usize {
            u as usize * self.n + v as usize
        }
        fn reach(&self, u: u32) -> Vec<bool> {
            let mut seen = vec![false; self.n];
            let mut stack = vec![u];
            seen[u as usize] = true;
            while let Some(x) = stack.pop() {
                for y in 0..self.n as u32 {
                    if self.adj[self.idx(x, y)] && !seen[y as usize] {
                        seen[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
            seen
        }
    }

    impl Connectivity for Dense {
        fn backend_name(&self) -> &'static str {
            "dense-test"
        }
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn connected(&self, u: u32, v: u32) -> bool {
            self.reach(u)[v as usize]
        }
        fn num_components(&self) -> usize {
            let mut comps = 0;
            let mut seen = vec![false; self.n];
            for v in 0..self.n as u32 {
                if !seen[v as usize] {
                    comps += 1;
                    for (i, r) in self.reach(v).iter().enumerate() {
                        seen[i] |= r;
                    }
                }
            }
            comps
        }
        fn component_size(&self, v: u32) -> u64 {
            self.reach(v).iter().filter(|&&r| r).count() as u64
        }
    }

    impl BatchDynamic for Dense {
        fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
            validate_pairs(self.n, edges)?;
            let mut added = 0;
            for &(u, v) in edges {
                if u != v && !self.adj[self.idx(u, v)] {
                    let (a, b) = (self.idx(u, v), self.idx(v, u));
                    self.adj[a] = true;
                    self.adj[b] = true;
                    added += 1;
                }
            }
            Ok(added)
        }
        fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
            validate_pairs(self.n, edges)?;
            let mut removed = 0;
            for &(u, v) in edges {
                if u != v && self.adj[self.idx(u, v)] {
                    let (a, b) = (self.idx(u, v), self.idx(v, u));
                    self.adj[a] = false;
                    self.adj[b] = false;
                    removed += 1;
                }
            }
            Ok(removed)
        }
    }

    #[test]
    fn apply_splits_runs_and_orders_answers() {
        let mut g = Dense::new(6);
        let res = g
            .apply(&[
                Op::Query(0, 1),
                Op::Insert(0, 1),
                Op::Insert(1, 2),
                Op::Query(0, 2),
                Op::Delete(0, 1),
                Op::Query(0, 2),
                Op::Query(1, 2),
            ])
            .unwrap();
        assert_eq!(res.inserted, 2);
        assert_eq!(res.deleted, 1);
        assert_eq!(res.answers, vec![false, true, false, true]);
    }

    #[test]
    fn apply_validates_before_mutating() {
        let mut g = Dense::new(4);
        let err = g.apply(&[Op::Insert(0, 1), Op::Query(9, 0)]).unwrap_err();
        assert_eq!(
            err,
            DynConError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4
            }
        );
        // The valid insert before the bad query must NOT have run.
        assert_eq!(g.num_components(), 4);
    }

    #[test]
    fn trait_object_dispatch() {
        let mut g: Box<dyn BatchDynamic> = Box::new(Dense::new(5));
        g.apply(&[Op::Insert(0, 1), Op::Insert(3, 4)]).unwrap();
        assert_eq!(g.num_components(), 3);
        assert_eq!(g.component_size(4), 2);
        assert_eq!(g.batch_connected(&[(0, 1), (0, 3)]), vec![true, false]);
        assert!(g.check().is_ok());
        // The default capability probe claims everything.
        for kind in [OpKind::Insert, OpKind::Delete, OpKind::Query] {
            assert!(g.supports(kind));
        }
    }

    #[test]
    fn empty_batch_is_identity() {
        let mut g = Dense::new(3);
        let res = g.apply(&[]).unwrap();
        assert_eq!(res, BatchResult::default());
    }

    #[test]
    fn component_groups_labels_by_first_in_input_order() {
        let mut g = Dense::new(8);
        g.batch_insert(&[(0, 1), (1, 2), (4, 5)]).unwrap();
        // Components: {0,1,2}, {3}, {4,5}, {6}, {7}.
        assert_eq!(
            component_groups(&g, &[2, 5, 0, 3, 4, 1]),
            vec![2, 5, 2, 3, 5, 2],
            "representative = first vertex of the component in INPUT order"
        );
        // Sorted input gives canonical (min-vertex) representatives, and
        // duplicates share their component's label.
        assert_eq!(
            component_groups(&g, &[0, 1, 2, 2, 4, 5, 7]),
            vec![0, 0, 0, 0, 4, 4, 7]
        );
        assert!(component_groups(&g, &[]).is_empty());
    }

    #[test]
    fn default_component_ids_are_canonical_and_stable() {
        let mut g = Dense::new(8);
        g.batch_insert(&[(3, 1), (1, 6), (4, 5)]).unwrap();
        // Components: {0}, {1,3,6}, {2}, {4,5}, {7}. The default id is the
        // component's smallest vertex, whatever the input order.
        assert_eq!(g.component_ids(&[6, 5, 3, 0]), vec![1, 4, 1, 0]);
        assert_eq!(g.component_ids(&[6]), vec![1], "stable across calls");
        assert_eq!(g.component_ids(&[7, 7, 2]), vec![7, 7, 2]);
        assert!(g.component_ids(&[]).is_empty());
    }

    #[test]
    fn min_labels_name_each_component_by_its_smallest_vertex() {
        // Edge order must not matter.
        let edges = [(5, 2), (2, 4), (0, 3), (6, 3)];
        let mut reversed = edges;
        reversed.reverse();
        let want = vec![0, 1, 2, 0, 2, 2, 0, 7];
        assert_eq!(min_labels(8, &edges), want);
        assert_eq!(min_labels(8, &reversed), want);
        assert_eq!(min_labels(3, &[]), vec![0, 1, 2]);
    }

    #[test]
    fn validate_pairs_reports_first_offender() {
        assert!(validate_pairs(8, &[(0, 7), (3, 3)]).is_ok());
        let err = validate_pairs(8, &[(0, 7), (8, 1)]).unwrap_err();
        assert!(err.to_string().contains("vertex 8"));
    }
}
