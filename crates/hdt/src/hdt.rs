//! The HDT dynamic connectivity algorithm (§2.2 of the paper).

use crate::ett::SeqEtt;
use dyncon_primitives::FxHashMap;

fn ekey(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

struct EdgeRec {
    /// Level index (0-based; new edges start at `levels - 1`).
    level: u8,
    tree: bool,
    /// Positions in the two endpoints' adjacency arrays (min, max).
    pos: [u32; 2],
}

/// One vertex's non-tree adjacency: `(level, edge keys)` arrays.
#[derive(Default)]
struct VertexAdj {
    lists: Vec<(u8, Vec<u64>)>,
}

/// Sequential fully dynamic connectivity with `O(lg² n)` amortized
/// updates and `O(lg n)` queries (Holm–de Lichtenberg–Thorup).
pub struct HdtConnectivity {
    n: usize,
    num_levels: usize,
    forests: Vec<SeqEtt>,
    edges: FxHashMap<u64, EdgeRec>,
    adj: Vec<VertexAdj>,
    /// Total replacement-search edge examinations (work metric for E5).
    pub edges_examined: u64,
}

impl HdtConnectivity {
    /// Empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let num_levels = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
        let forests = (0..num_levels)
            .map(|li| SeqEtt::new(n, 0xfeed_beef ^ (((li as u64) << 24) ^ n as u64)))
            .collect();
        let mut adj = Vec::with_capacity(n);
        adj.resize_with(n, VertexAdj::default);
        Self {
            n,
            num_levels,
            forests,
            edges: FxHashMap::default(),
            adj,
            edges_examined: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn top(&self) -> usize {
        self.num_levels - 1
    }

    /// Connectivity query via the top forest.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.forests[self.top()].connected(u, v)
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.n - self.edges.values().filter(|r| r.tree).count()
    }

    /// Number of vertices in `v`'s component (≥ 1).
    pub fn component_size(&self, v: u32) -> u64 {
        self.forests[self.top()].component_size(v)
    }

    /// One component id per vertex: the top forest's tree
    /// representative, equal iff connected and stable until the next
    /// mutation.
    pub fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        let top = &self.forests[self.top()];
        vertices.iter().map(|&v| top.find_rep(v)).collect()
    }

    // ---- adjacency helpers -------------------------------------------

    fn adj_list(&mut self, v: u32, level: u8) -> &mut Vec<u64> {
        let va = &mut self.adj[v as usize];
        if let Some(i) = va.lists.iter().position(|(l, _)| *l == level) {
            &mut va.lists[i].1
        } else {
            va.lists.push((level, Vec::new()));
            &mut va.lists.last_mut().unwrap().1
        }
    }

    fn adj_len(&self, v: u32, level: u8) -> usize {
        self.adj[v as usize]
            .lists
            .iter()
            .find(|(l, _)| *l == level)
            .map_or(0, |(_, a)| a.len())
    }

    fn pos_index(key: u64, v: u32) -> usize {
        ((key >> 32) as u32 != v) as usize
    }

    fn adj_insert(&mut self, v: u32, level: u8, key: u64) {
        let list = self.adj_list(v, level);
        let p = list.len() as u32;
        list.push(key);
        self.edges.get_mut(&key).unwrap().pos[Self::pos_index(key, v)] = p;
    }

    fn adj_remove(&mut self, v: u32, level: u8, key: u64) {
        let p = self.edges[&key].pos[Self::pos_index(key, v)] as usize;
        let list = self.adj_list(v, level);
        debug_assert_eq!(list[p], key);
        let last = list.pop().unwrap();
        if p < list.len() {
            list[p] = last;
            self.edges.get_mut(&last).unwrap().pos[Self::pos_index(last, v)] = p as u32;
        }
    }

    fn add_nontree(&mut self, u: u32, v: u32, level: u8) {
        let key = ekey(u, v);
        self.adj_insert(u, level, key);
        self.adj_insert(v, level, key);
        let (cu, cv) = (self.adj_len(u, level), self.adj_len(v, level));
        self.forests[level as usize].set_nontree_count(u, cu as u64);
        self.forests[level as usize].set_nontree_count(v, cv as u64);
    }

    fn remove_nontree(&mut self, u: u32, v: u32, level: u8) {
        let key = ekey(u, v);
        self.adj_remove(u, level, key);
        self.adj_remove(v, level, key);
        let (cu, cv) = (self.adj_len(u, level), self.adj_len(v, level));
        self.forests[level as usize].set_nontree_count(u, cu as u64);
        self.forests[level as usize].set_nontree_count(v, cv as u64);
    }

    // ---- updates ------------------------------------------------------

    /// Insert an edge; returns false on duplicates and self-loops.
    pub fn insert(&mut self, u: u32, v: u32) -> bool {
        if u == v || self.edges.contains_key(&ekey(u, v)) {
            return false;
        }
        let top = self.top() as u8;
        let tree = !self.connected(u, v);
        self.edges.insert(
            ekey(u, v),
            EdgeRec {
                level: top,
                tree,
                pos: [u32::MAX; 2],
            },
        );
        if tree {
            self.forests[top as usize].link(u, v, true);
        } else {
            self.add_nontree(u, v, top);
        }
        true
    }

    /// Delete an edge; returns false if absent.
    pub fn delete(&mut self, u: u32, v: u32) -> bool {
        let key = ekey(u, v);
        let Some(rec) = self.edges.get(&key) else {
            return false;
        };
        let (lev, tree) = (rec.level, rec.tree);
        if !tree {
            // Adjacency removal first: it reads the record's positions.
            self.remove_nontree(u, v, lev);
            self.edges.remove(&key);
            return true;
        }
        self.edges.remove(&key);
        // Cut from every forest containing it, then search upward.
        for li in lev as usize..self.num_levels {
            self.forests[li].cut(u, v);
        }
        for li in lev as usize..self.num_levels {
            if self.search_level(li, u, v) {
                break;
            }
        }
        true
    }

    /// Replacement search at one level; true when a replacement was found
    /// (the component is reconnected at all levels ≥ `li`).
    fn search_level(&mut self, li: usize, u: u32, v: u32) -> bool {
        // Search the smaller side (≤ 2^{li} vertices by Invariant 1).
        let (su, sv) = (
            self.forests[li].component_size(u),
            self.forests[li].component_size(v),
        );
        let small = if su <= sv { u } else { v };
        // Push the small side's level-`li` tree edges down.
        while let Some((a, b)) = self.forests[li].find_level_tree_edge(small) {
            self.forests[li].set_tree_flag(a, b, false);
            self.forests[li - 1].link(a, b, true);
            self.edges.get_mut(&ekey(a, b)).unwrap().level = (li - 1) as u8;
        }
        // Scan its level-`li` non-tree edges one at a time.
        while let Some(x) = self.forests[li].find_nontree_vertex(small) {
            let key = *self
                .adj_list(x, li as u8)
                .first()
                .expect("positive count with empty list");
            let (a, b) = ((key >> 32) as u32, key as u32);
            self.edges_examined += 1;
            if self.forests[li].connected(a, b) {
                // Not a replacement: push down a level.
                self.remove_nontree(a, b, li as u8);
                self.add_nontree(a, b, (li - 1) as u8);
                self.edges.get_mut(&key).unwrap().level = (li - 1) as u8;
            } else {
                // Replacement: promote to a tree edge at level `li`.
                self.remove_nontree(a, b, li as u8);
                let rec = self.edges.get_mut(&key).unwrap();
                rec.tree = true;
                for j in li..self.num_levels {
                    self.forests[j].link(a, b, j == li);
                }
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_delete_query() {
        let mut g = HdtConnectivity::new(8);
        assert!(g.insert(0, 1));
        assert!(g.insert(1, 2));
        assert!(!g.insert(1, 2));
        assert!(!g.insert(3, 3));
        assert!(g.connected(0, 2));
        assert!(!g.connected(0, 3));
        assert!(g.delete(1, 2));
        assert!(!g.delete(1, 2));
        assert!(!g.connected(0, 2));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn replacement_via_cycle() {
        let mut g = HdtConnectivity::new(8);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.insert(u, v);
        }
        // Deleting any single cycle edge keeps everything connected.
        assert!(g.delete(1, 2));
        assert!(g.connected(1, 2));
        assert!(g.connected(0, 3));
        assert_eq!(g.num_components(), 5);
    }

    #[test]
    fn two_phase_breakage() {
        let mut g = HdtConnectivity::new(6);
        g.insert(0, 1);
        g.insert(1, 2);
        g.insert(0, 2);
        g.delete(0, 1);
        assert!(g.connected(0, 1), "replacement through (0,2),(2,1)");
        g.delete(0, 2);
        assert!(!g.connected(0, 2));
        assert!(g.connected(1, 2));
        assert!(!g.connected(0, 1));
    }
}
