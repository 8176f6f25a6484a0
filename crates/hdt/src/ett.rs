//! Sequential Euler tour trees over the treap arena.
//!
//! Tours are stored as linear treap sequences representing cycles cut at an
//! arbitrary point; links and cuts are O(1) splits/merges (amortized
//! `O(lg n)` each).

use crate::treap::{NodeId, Treap, Val, NIL};
use dyncon_primitives::FxHashMap;

/// What a treap node represents.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SeqPayload {
    /// Canonical occurrence of a vertex.
    Loop(u32),
    /// Directed traversal of a tree edge.
    Edge { from: u32, to: u32 },
}

fn ekey(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// A sequential Euler tour forest with the HDT augmentations.
pub struct SeqEtt {
    treap: Treap,
    vert_node: Vec<NodeId>,
    payload: Vec<SeqPayload>,
    /// Edge key → (fwd node `min→max`, rev node).
    edge_nodes: FxHashMap<u64, (NodeId, NodeId)>,
}

impl SeqEtt {
    /// Edgeless forest over `n` vertices (loops materialize lazily).
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            treap: Treap::new(seed),
            vert_node: vec![NIL; n],
            payload: Vec::new(),
            edge_nodes: FxHashMap::default(),
        }
    }

    fn set_payload(&mut self, id: NodeId, p: SeqPayload) {
        let i = id as usize;
        if i >= self.payload.len() {
            self.payload.resize(i + 1, SeqPayload::Loop(u32::MAX));
        }
        self.payload[i] = p;
    }

    /// Payload of a node.
    pub fn node_payload(&self, id: NodeId) -> SeqPayload {
        self.payload[id as usize]
    }

    fn ensure_vertex(&mut self, v: u32) -> NodeId {
        let cur = self.vert_node[v as usize];
        if cur != NIL {
            return cur;
        }
        let id = self.treap.alloc(Val {
            verts: 1,
            tree: 0,
            nontree: 0,
        });
        self.set_payload(id, SeqPayload::Loop(v));
        self.vert_node[v as usize] = id;
        id
    }

    /// Is the edge `{u,v}` in this forest?
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edge_nodes.contains_key(&ekey(u, v))
    }

    /// Are `u` and `v` in the same tree?
    pub fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        let (nu, nv) = (self.vert_node[u as usize], self.vert_node[v as usize]);
        if nu == NIL || nv == NIL {
            return false;
        }
        self.treap.root(nu) == self.treap.root(nv)
    }

    /// Representative of `v`'s tree: its treap root, or `(1 << 63) | v`
    /// for an isolated `v` (treap node ids stay below `1 << 63`).
    pub fn find_rep(&self, v: u32) -> u64 {
        let nv = self.vert_node[v as usize];
        if nv == NIL {
            (1 << 63) | v as u64
        } else {
            self.treap.root(nv) as u64
        }
    }

    /// Number of vertices in `v`'s tree.
    pub fn component_size(&self, v: u32) -> u64 {
        let nv = self.vert_node[v as usize];
        if nv == NIL {
            1
        } else {
            self.treap.sum(self.treap.root(nv)).verts as u64
        }
    }

    /// Aggregate of `v`'s tree.
    pub fn component_val(&self, v: u32) -> Val {
        let nv = self.vert_node[v as usize];
        if nv == NIL {
            return Val {
                verts: 1,
                tree: 0,
                nontree: 0,
            };
        }
        self.treap.sum(self.treap.root(nv))
    }

    /// Set the per-vertex non-tree count at this level.
    pub fn set_nontree_count(&mut self, v: u32, count: u64) {
        let node = self.ensure_vertex(v);
        let mut b = self.treap.base(node);
        b.nontree = count;
        self.treap.set_base(node, b);
    }

    /// Flip a tree edge's at-this-level flag.
    pub fn set_tree_flag(&mut self, u: u32, v: u32, flag: bool) {
        let &(fwd, _) = self.edge_nodes.get(&ekey(u, v)).expect("edge present");
        let mut b = self.treap.base(fwd);
        b.tree = flag as u32;
        self.treap.set_base(fwd, b);
    }

    /// Link `{u,v}` (endpoints must be in different trees).
    pub fn link(&mut self, u: u32, v: u32, tree_at_level: bool) {
        debug_assert!(!self.connected(u, v), "link would close a cycle");
        let lu = self.ensure_vertex(u);
        let lv = self.ensure_vertex(v);
        let e_uv = self.treap.alloc(Val {
            verts: 0,
            tree: if u < v { tree_at_level as u32 } else { 0 },
            nontree: 0,
        });
        let e_vu = self.treap.alloc(Val {
            verts: 0,
            tree: if u < v { 0 } else { tree_at_level as u32 },
            nontree: 0,
        });
        self.set_payload(e_uv, SeqPayload::Edge { from: u, to: v });
        self.set_payload(e_vu, SeqPayload::Edge { from: v, to: u });
        // tour(u) = A1 ++ A2 with A1 ending at loop(u);
        // tour(v) = B1 ++ B2 with B1 ending at loop(v).
        let (a1, a2) = self.treap.split_after(lu);
        let (b1, b2) = self.treap.split_after(lv);
        // New tour: A1, (u→v), B2, B1, (v→u), A2.
        let mut t = self.treap.merge(a1, e_uv);
        t = self.treap.merge(t, b2);
        t = self.treap.merge(t, b1);
        t = self.treap.merge(t, e_vu);
        let _ = self.treap.merge(t, a2);
        let key = ekey(u, v);
        let pair = if u < v { (e_uv, e_vu) } else { (e_vu, e_uv) };
        self.edge_nodes.insert(key, pair);
    }

    /// Cut the tree edge `{u,v}`.
    pub fn cut(&mut self, u: u32, v: u32) {
        let (fwd, rev) = self
            .edge_nodes
            .remove(&ekey(u, v))
            .expect("cut of absent edge");
        // Establish tour order of the two directions.
        let (first, second) = {
            let (left, right) = self.treap.split_before(fwd);
            if right != NIL && self.treap.root(rev) == self.treap.root(right) {
                // Re-join and work with fwd first.
                let _ = self.treap.merge(left, right);
                (fwd, rev)
            } else {
                let _ = self.treap.merge(left, right);
                (rev, fwd)
            }
        };
        // full = A ++ [first] ++ MID ++ [second] ++ C.
        let (a, _) = self.treap.split_before(first);
        let (first_seq, _) = self.treap.split_after(first);
        debug_assert_eq!(first_seq, first);
        let (mid, _) = self.treap.split_before(second);
        let (second_seq, c) = self.treap.split_after(second);
        debug_assert_eq!(second_seq, second);
        // Outer tour rejoins; MID becomes its own tour.
        let _ = self.treap.merge(a, c);
        self.treap.release(first);
        self.treap.release(second);
        let _ = mid;
    }

    /// A vertex in `v`'s tree with a positive non-tree count, if any.
    pub fn find_nontree_vertex(&self, v: u32) -> Option<u32> {
        let nv = self.vert_node[v as usize];
        if nv == NIL {
            return None;
        }
        let root = self.treap.root(nv);
        self.treap.find_positive(root, |val| val.nontree).map(|id| {
            match self.payload[id as usize] {
                SeqPayload::Loop(w) => w,
                p => unreachable!("non-tree count on {p:?}"),
            }
        })
    }

    /// A tree edge at this forest's level inside `v`'s tree, if any.
    pub fn find_level_tree_edge(&self, v: u32) -> Option<(u32, u32)> {
        let nv = self.vert_node[v as usize];
        if nv == NIL {
            return None;
        }
        let root = self.treap.root(nv);
        self.treap
            .find_positive(root, |val| val.tree as u64)
            .map(|id| match self.payload[id as usize] {
                SeqPayload::Edge { from, to } => (from, to),
                p => unreachable!("tree flag on {p:?}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_cut_roundtrip() {
        let mut f = SeqEtt::new(6, 1);
        assert!(!f.connected(0, 1));
        f.link(0, 1, true);
        f.link(1, 2, true);
        f.link(3, 4, false);
        assert!(f.connected(0, 2));
        assert!(!f.connected(0, 3));
        assert_eq!(f.component_size(0), 3);
        f.cut(0, 1);
        assert!(!f.connected(0, 2));
        assert!(f.connected(1, 2));
        assert_eq!(f.component_size(0), 1);
        assert_eq!(f.component_size(2), 2);
    }

    #[test]
    fn star_cuts() {
        let n = 20;
        let mut f = SeqEtt::new(n, 2);
        for v in 1..n as u32 {
            f.link(0, v, true);
        }
        assert_eq!(f.component_size(0), n as u64);
        for v in 1..n as u32 {
            f.cut(0, v);
            assert!(!f.connected(0, v));
        }
        assert_eq!(f.component_size(0), 1);
    }

    #[test]
    fn counts_and_search() {
        let mut f = SeqEtt::new(5, 3);
        f.link(0, 1, true);
        f.link(1, 2, false);
        f.set_nontree_count(2, 3);
        assert_eq!(f.component_val(0).nontree, 3);
        assert_eq!(f.find_nontree_vertex(0), Some(2));
        assert_eq!(f.find_level_tree_edge(0), Some((0, 1)));
        f.set_tree_flag(0, 1, false);
        assert_eq!(f.find_level_tree_edge(0), None);
        f.set_nontree_count(2, 0);
        assert_eq!(f.find_nontree_vertex(0), None);
    }

    #[test]
    fn random_links_and_cuts_vs_dsu() {
        use dyncon_primitives::SplitMix64;
        let n = 40usize;
        let mut rng = SplitMix64::new(7);
        let mut f = SeqEtt::new(n, 8);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..300 {
            let u = rng.next_below(n as u64) as u32;
            let v = rng.next_below(n as u64) as u32;
            if u != v && !f.connected(u, v) {
                f.link(u, v, false);
                edges.push((u, v));
            } else if !edges.is_empty() && rng.next_below(2) == 0 {
                let i = rng.next_below(edges.len() as u64) as usize;
                let (a, b) = edges.swap_remove(i);
                f.cut(a, b);
            }
            // Verify against a DSU over current edges.
            let mut uf = dyncon_spanning_stub::Dsu::new(n);
            for &(a, b) in &edges {
                uf.union(a, b);
            }
            for _ in 0..5 {
                let a = rng.next_below(n as u64) as u32;
                let b = rng.next_below(n as u64) as u32;
                assert_eq!(f.connected(a, b), uf.find(a) == uf.find(b));
            }
        }
    }

    /// Minimal DSU for the test above (avoids a dev-dependency cycle).
    mod dyncon_spanning_stub {
        pub struct Dsu {
            p: Vec<u32>,
        }
        impl Dsu {
            pub fn new(n: usize) -> Self {
                Dsu {
                    p: (0..n as u32).collect(),
                }
            }
            pub fn find(&mut self, mut x: u32) -> u32 {
                while self.p[x as usize] != x {
                    self.p[x as usize] = self.p[self.p[x as usize] as usize];
                    x = self.p[x as usize];
                }
                x
            }
            pub fn union(&mut self, a: u32, b: u32) {
                let (ra, rb) = (self.find(a), self.find(b));
                if ra != rb {
                    self.p[ra as usize] = rb;
                }
            }
        }
    }
}
