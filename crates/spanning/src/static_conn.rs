//! Parallel spanning forest / connectivity labelling, and the
//! recompute-from-scratch baseline.

use crate::unionfind::ConcurrentUnionFind;
use dyncon_api::{validate_pairs, BatchDynamic, BuildFrom, Builder, Connectivity, DynConError};
use dyncon_primitives::{par_expand2, par_for, par_map_collect, sort_dedup, FxHashMap, FxHashSet};
use std::sync::Mutex;

/// Choose a spanning forest of `edges` over vertices `0..n`: `chosen[i]` is
/// true for a subset of edges forming a forest that spans every component
/// of the input graph. **Deterministic**: tie-breaking prefers the smallest
/// edge index (then smaller root id), so the mask is a pure function of the
/// input — byte-identical across thread counts (see [`crate::boruvka`]).
pub fn spanning_forest(n: usize, edges: &[(u32, u32)]) -> Vec<bool> {
    crate::boruvka::deterministic_forest_dense(n, edges).0
}

/// Connected-component labels of the graph `(0..n, edges)`: `label[u] ==
/// label[v]` iff connected. Labels are root ids (not necessarily dense).
pub fn connectivity_labels(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let uf = ConcurrentUnionFind::new(n);
    par_for(edges.len(), |i| {
        let (u, v) = edges[i];
        if u != v {
            uf.union(u, v);
        }
    });
    let ids: Vec<u32> = (0..n as u32).collect();
    par_map_collect(&ids, |&v| uf.find(v))
}

/// Result of [`spanning_forest_sparse`].
pub struct RelabeledForest {
    /// Mask over the input edges: a spanning forest.
    pub chosen: Vec<bool>,
    /// Component label (an arbitrary member id) for every id that appeared
    /// as an endpoint.
    pub labels: FxHashMap<u64, u64>,
}

/// Spanning forest over sparse `u64` vertex ids (the connectivity core runs
/// this over ETT component representatives, treating each current
/// component as a contracted vertex — Algorithm 2 line 5).
///
/// Deterministic like [`spanning_forest`]: the batch algorithms route all
/// tree-edge tie-breaking through this call, so its scheduling independence
/// is what makes the whole connectivity structure byte-identical across
/// thread counts.
pub fn spanning_forest_sparse(edges: &[(u64, u64)]) -> RelabeledForest {
    // Compact ids.
    let mut ids: Vec<u64> = par_expand2(edges, |&(a, b)| [a, b]);
    sort_dedup(&mut ids);
    let index = |x: u64| ids.binary_search(&x).expect("endpoint indexed") as u32;
    let dense: Vec<(u32, u32)> = par_map_collect(edges, |&(a, b)| (index(a), index(b)));
    let (chosen, parent) = crate::boruvka::deterministic_forest_dense(ids.len(), &dense);
    let labels: FxHashMap<u64, u64> = ids
        .iter()
        .enumerate()
        .map(|(i, &orig)| {
            (
                orig,
                ids[crate::boruvka::root_of(&parent, i as u32) as usize],
            )
        })
        .collect();
    RelabeledForest { chosen, labels }
}

/// The `O(m + n)`-per-batch baseline: keep the edge set, recompute the
/// component labelling from scratch whenever a query arrives after a
/// mutation. This is what the paper's introduction says existing
/// batch-processing systems effectively do in the worst case.
///
/// Queries take `&self` (the labelling cache sits behind a mutex), so the
/// type satisfies the workspace [`Connectivity`] contract and slots into
/// differential experiments as the static reference backend.
pub struct StaticRecompute {
    n: usize,
    edges: FxHashSet<u64>,
    labels: Mutex<Option<Vec<u32>>>,
}

#[inline]
fn key(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

impl StaticRecompute {
    /// Empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: FxHashSet::default(),
            labels: Mutex::new(None),
        }
    }

    /// Number of current edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Insert a batch of edges (duplicates/self-loops ignored); returns
    /// the number of edges actually added.
    pub fn batch_insert(&mut self, batch: &[(u32, u32)]) -> usize {
        let mut added = 0;
        for &(u, v) in batch {
            if u != v && self.edges.insert(key(u, v)) {
                added += 1;
            }
        }
        if added > 0 {
            *self.labels.get_mut().unwrap() = None;
        }
        added
    }

    /// Delete a batch of edges (absent edges ignored); returns the number
    /// of edges actually removed.
    pub fn batch_delete(&mut self, batch: &[(u32, u32)]) -> usize {
        let mut removed = 0;
        for &(u, v) in batch {
            if self.edges.remove(&key(u, v)) {
                removed += 1;
            }
        }
        if removed > 0 {
            *self.labels.get_mut().unwrap() = None;
        }
        removed
    }

    /// Run `f` on the current labelling, recomputing it first if stale:
    /// the full static connectivity pass the baseline pays per batch.
    pub fn with_labels<R>(&self, f: impl FnOnce(&[u32]) -> R) -> R {
        let mut cache = self.labels.lock().unwrap();
        let labels = cache.get_or_insert_with(|| {
            let edge_list: Vec<(u32, u32)> = self
                .edges
                .iter()
                .map(|&k| ((k >> 32) as u32, k as u32))
                .collect();
            connectivity_labels(self.n, &edge_list)
        });
        f(labels)
    }

    /// Answer connectivity queries, recomputing labels if stale.
    pub fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        self.with_labels(|labels| {
            pairs
                .iter()
                .map(|&(u, v)| labels[u as usize] == labels[v as usize])
                .collect()
        })
    }
}

impl Connectivity for StaticRecompute {
    fn backend_name(&self) -> &'static str {
        "static-recompute"
    }

    fn num_vertices(&self) -> usize {
        self.n
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        self.with_labels(|labels| labels[u as usize] == labels[v as usize])
    }

    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        StaticRecompute::batch_connected(self, pairs)
    }

    fn num_components(&self) -> usize {
        self.with_labels(|labels| {
            let mut distinct: Vec<u32> = labels.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        })
    }

    fn component_size(&self, v: u32) -> u64 {
        self.with_labels(|labels| {
            let mine = labels[v as usize];
            labels.iter().filter(|&&l| l == mine).count() as u64
        })
    }

    fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        self.with_labels(|labels| {
            vertices
                .iter()
                .map(|&v| u64::from(labels[v as usize]))
                .collect()
        })
    }
}

impl BatchDynamic for StaticRecompute {
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.n, edges)?;
        Ok(StaticRecompute::batch_insert(self, edges))
    }

    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.n, edges)?;
        Ok(StaticRecompute::batch_delete(self, edges))
    }
}

impl BuildFrom for StaticRecompute {
    fn build_from(builder: &Builder) -> Result<Self, DynConError> {
        // Re-validate (callers can reach this without `Builder::build`).
        builder.validate()?;
        Ok(StaticRecompute::new(builder.num_vertices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_spans_components() {
        let n = 100;
        let edges: Vec<(u32, u32)> = (0..99)
            .map(|i| (i, i + 1))
            .chain([(0, 50), (20, 80)])
            .collect();
        let chosen = spanning_forest(n, &edges);
        let picked: usize = chosen.iter().filter(|&&c| c).count();
        assert_eq!(picked, 99, "path edges + 2 redundant edges -> n-1 chosen");
        // Chosen subset must be acyclic and span: verify via sequential UF.
        let mut uf = crate::unionfind::UnionFind::new(n);
        for (i, &(u, v)) in edges.iter().enumerate() {
            if chosen[i] {
                assert!(uf.union(u, v), "chosen edge closes a cycle");
            }
        }
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn labels_partition() {
        let labels = connectivity_labels(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        assert_ne!(labels[3], labels[0]);
    }

    #[test]
    fn sparse_forest_and_labels() {
        let edges: Vec<(u64, u64)> = vec![(1 << 40, 7), (7, 9), (9, 1 << 40), (100, 200)];
        let rf = spanning_forest_sparse(&edges);
        let picked: usize = rf.chosen.iter().filter(|&&c| c).count();
        assert_eq!(picked, 3); // triangle contributes 2, pair contributes 1
        assert_eq!(rf.labels[&(1 << 40)], rf.labels[&7]);
        assert_eq!(rf.labels[&7], rf.labels[&9]);
        assert_ne!(rf.labels[&100], rf.labels[&7]);
        assert_eq!(rf.labels[&100], rf.labels[&200]);
    }

    #[test]
    fn sparse_empty() {
        let rf = spanning_forest_sparse(&[]);
        assert!(rf.chosen.is_empty());
        assert!(rf.labels.is_empty());
    }

    #[test]
    fn recompute_baseline_tracks_mutations() {
        let mut s = StaticRecompute::new(6);
        s.batch_insert(&[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(
            s.batch_connected(&[(0, 2), (0, 3), (3, 4)]),
            vec![true, false, true]
        );
        s.batch_delete(&[(1, 2)]);
        assert_eq!(s.batch_connected(&[(0, 2)]), vec![false]);
        s.batch_insert(&[(2, 4), (4, 0)]);
        assert_eq!(s.batch_connected(&[(0, 2), (0, 3)]), vec![true, true]);
        // Duplicate & self-loop tolerance: {0-1,3-4,2-4,4-0} stays 4 edges.
        assert_eq!(s.batch_insert(&[(0, 0), (0, 1)]), 0);
        assert_eq!(s.num_edges(), 4);
    }

    #[test]
    fn recompute_trait_surface() {
        use dyncon_api::{BatchDynamic, Builder, Connectivity, Op};
        let mut s: StaticRecompute = Builder::new(6).build().unwrap();
        let res = s
            .apply(&[
                Op::Insert(0, 1),
                Op::Insert(1, 2),
                Op::Query(0, 2),
                Op::Delete(1, 2),
                Op::Query(0, 2),
            ])
            .unwrap();
        assert_eq!((res.inserted, res.deleted), (2, 1));
        assert_eq!(res.answers, vec![true, false]);
        assert_eq!(Connectivity::num_components(&s), 5);
        assert_eq!(s.component_size(1), 2);
        assert!(s.apply(&[Op::Query(0, 6)]).is_err());
    }
}
