//! The slow, obviously-correct dynamic connectivity oracle used as ground
//! truth by every test suite in the workspace.

use crate::unionfind::UnionFind;
use dyncon_api::{
    validate_pairs, BatchDynamic, BuildFrom, Builder, Connectivity, DynConError, ExportEdges,
};
use dyncon_primitives::FxHashSet;
use std::sync::Mutex;

/// Fully dynamic graph with recompute-on-demand connectivity. All
/// operations are sequential and straightforward — this type exists to be
/// *trusted*, not fast. Queries take `&self` (the DSU cache sits behind a
/// mutex), so it satisfies the workspace [`Connectivity`] contract and
/// serves as the reference backend of the differential test suite.
pub struct NaiveDynamicGraph {
    n: usize,
    edges: FxHashSet<(u32, u32)>,
    cache: Mutex<Option<UnionFind>>,
}

impl NaiveDynamicGraph {
    /// Empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: FxHashSet::default(),
            cache: Mutex::new(None),
        }
    }

    fn norm(u: u32, v: u32) -> (u32, u32) {
        (u.min(v), u.max(v))
    }

    fn invalidate(&mut self) {
        *self.cache.get_mut().unwrap() = None;
    }

    /// Insert one edge; returns false if it was already present or a loop.
    pub fn insert(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let fresh = self.edges.insert(Self::norm(u, v));
        if fresh {
            self.invalidate();
        }
        fresh
    }

    /// Delete one edge; returns false if absent.
    pub fn delete(&mut self, u: u32, v: u32) -> bool {
        let removed = self.edges.remove(&Self::norm(u, v));
        if removed {
            self.invalidate();
        }
        removed
    }

    /// Insert a batch (duplicates skipped).
    pub fn batch_insert(&mut self, batch: &[(u32, u32)]) {
        for &(u, v) in batch {
            self.insert(u, v);
        }
    }

    /// Delete a batch (absences skipped).
    pub fn batch_delete(&mut self, batch: &[(u32, u32)]) {
        for &(u, v) in batch {
            self.delete(u, v);
        }
    }

    /// Membership test.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edges.contains(&Self::norm(u, v))
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges, sorted (for driving other structures deterministically).
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self.edges.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Run `f` on the (lazily rebuilt) DSU cache.
    fn with_dsu<R>(&self, f: impl FnOnce(&mut UnionFind) -> R) -> R {
        let mut cache = self.cache.lock().unwrap();
        let dsu = cache.get_or_insert_with(|| {
            let mut uf = UnionFind::new(self.n);
            for &(u, v) in &self.edges {
                uf.union(u, v);
            }
            uf
        });
        f(dsu)
    }

    /// Connectivity query.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.with_dsu(|dsu| dsu.same(u, v))
    }

    /// Batch connectivity queries.
    pub fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        self.with_dsu(|dsu| pairs.iter().map(|&(u, v)| dsu.same(u, v)).collect())
    }

    /// Number of connected components (isolated vertices included).
    pub fn num_components(&self) -> usize {
        self.with_dsu(|dsu| dsu.num_components())
    }

    /// Size of the component containing `v`.
    pub fn component_size(&self, v: u32) -> u32 {
        self.with_dsu(|dsu| dsu.size_of(v))
    }
}

impl Connectivity for NaiveDynamicGraph {
    fn backend_name(&self) -> &'static str {
        "naive-oracle"
    }

    fn num_vertices(&self) -> usize {
        self.n
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        NaiveDynamicGraph::connected(self, u, v)
    }

    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        NaiveDynamicGraph::batch_connected(self, pairs)
    }

    fn num_components(&self) -> usize {
        NaiveDynamicGraph::num_components(self)
    }

    fn component_size(&self, v: u32) -> u64 {
        NaiveDynamicGraph::component_size(self, v) as u64
    }

    fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        // DSU roots: stable until a mutation drops the cache.
        self.with_dsu(|dsu| vertices.iter().map(|&v| u64::from(dsu.find(v))).collect())
    }
}

impl BatchDynamic for NaiveDynamicGraph {
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.n, edges)?;
        Ok(edges.iter().filter(|&&(u, v)| self.insert(u, v)).count())
    }

    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.n, edges)?;
        Ok(edges.iter().filter(|&&(u, v)| self.delete(u, v)).count())
    }
}

impl ExportEdges for NaiveDynamicGraph {
    fn export_edges(&self) -> Vec<(u32, u32)> {
        // `edge_list` already stores normalized pairs and returns them
        // sorted — exactly the canonical form the trait requires.
        self.edge_list()
    }
}

impl BuildFrom for NaiveDynamicGraph {
    fn build_from(builder: &Builder) -> Result<Self, DynConError> {
        // Re-validate (callers can reach this without `Builder::build`).
        builder.validate()?;
        Ok(NaiveDynamicGraph::new(builder.num_vertices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_api::Op;

    #[test]
    fn oracle_basics() {
        let mut g = NaiveDynamicGraph::new(5);
        assert!(g.insert(0, 1));
        assert!(!g.insert(1, 0), "normalized duplicate");
        assert!(!g.insert(2, 2), "self loop rejected");
        assert!(g.connected(0, 1));
        assert!(!g.connected(0, 2));
        assert_eq!(g.num_components(), 4);
        assert!(g.delete(0, 1));
        assert!(!g.delete(0, 1));
        assert!(!g.connected(0, 1));
        assert_eq!(g.num_components(), 5);
    }

    #[test]
    fn component_sizes() {
        let mut g = NaiveDynamicGraph::new(6);
        g.batch_insert(&[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(g.component_size(2), 3);
        assert_eq!(g.component_size(3), 2);
        assert_eq!(g.component_size(5), 1);
    }

    #[test]
    fn edge_list_is_sorted_and_normalized() {
        let mut g = NaiveDynamicGraph::new(5);
        g.batch_insert(&[(3, 1), (0, 4), (2, 0)]);
        assert_eq!(g.edge_list(), vec![(0, 2), (0, 4), (1, 3)]);
    }

    #[test]
    fn queries_through_shared_reference() {
        let mut g = NaiveDynamicGraph::new(4);
        g.batch_insert(&[(0, 1)]);
        let shared = &g;
        assert!(shared.connected(0, 1));
        assert_eq!(shared.batch_connected(&[(0, 1), (2, 3)]), vec![true, false]);
    }

    #[test]
    fn trait_mixed_batch() {
        let mut g: NaiveDynamicGraph = Builder::new(5).build().unwrap();
        let res = g
            .apply(&[
                Op::Insert(0, 1),
                Op::Insert(0, 1),
                Op::Query(0, 1),
                Op::Delete(0, 1),
                Op::Query(0, 1),
            ])
            .unwrap();
        assert_eq!((res.inserted, res.deleted), (1, 1));
        assert_eq!(res.answers, vec![true, false]);
        let err = g.apply(&[Op::Insert(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            DynConError::VertexOutOfRange { vertex: 5, .. }
        ));
    }
}
