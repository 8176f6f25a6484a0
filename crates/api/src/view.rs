//! Versioned snapshot reads: [`ReadView`] and the [`VersionedRead`]
//! surface a serving layer implements.
//!
//! Every sealed commit round has a [`Version`] — in a durable stack the
//! WAL round id, so recovery and replicas agree on numbering — and a
//! [`ReadView`] is an immutable, self-contained snapshot of the graph's
//! connectivity **as of** one version. Views are built from the canonical
//! [`ExportEdges`](crate::ExportEdges) surface, so a view at version `v`
//! is byte-identical no matter which backend, thread count or shard
//! layout produced it: same edge set in, same labels out.
//!
//! A view answers every read-side question without touching the live
//! structure: [`Connectivity::connected`], `component_size`,
//! `num_components`, `component_ids`, [`crate::component_groups`] and
//! [`ExportEdges::export_edges`](crate::ExportEdges::export_edges) all
//! work on it, which is what lets a serving layer hand views to reader
//! threads that never block the writer.
//!
//! A serving layer publishes one view per round. [`ReadView::build`]
//! labels a whole exported edge list; [`ReadView::advance`] derives the
//! next version from the previous view and the round's operations, at a
//! cost set by what the round changed plus a copy of the edge array —
//! the same bytes either way.

use crate::error::DynConError;
use crate::op::{BatchResult, Op};
use crate::{Connectivity, ExportEdges};
use std::collections::HashMap;
use std::sync::Arc;

/// The id of one sealed commit round. Versions are dense and
/// monotonically increasing; in a durable stack they equal the WAL round
/// ids that recovery preserves, so two processes (or a primary and a
/// replica) that committed the same history agree on every version.
pub type Version = u64;

/// The [`DynConError::UnknownVersion`] encoding of an *empty* retention
/// window (`oldest > newest`): view publication is disabled, or nothing
/// has committed yet. See [`empty_window_error`].
pub const EMPTY_WINDOW: (Version, Version) = (1, 0);

/// Build the typed error for a version request against an empty
/// retention window, using the [`EMPTY_WINDOW`] `oldest > newest`
/// encoding that [`DynConError::UnknownVersion`]'s `Display` reports as
/// "no versions retained".
pub fn empty_window_error(requested: Version) -> DynConError {
    DynConError::UnknownVersion {
        requested,
        oldest: EMPTY_WINDOW.0,
        newest: EMPTY_WINDOW.1,
    }
}

/// The shared, immutable payload of a [`ReadView`]. Built once at
/// publication; every clone of the view is an `Arc` away.
#[derive(Debug, PartialEq, Eq)]
struct ViewInner {
    version: Version,
    /// The components as of `version`: shared with the previous view
    /// when the round neither merged nor split any.
    labelling: Arc<Labelling>,
    /// The edge set as of `version`, normalized `(min, max)` and sorted —
    /// the same canonical bytes [`crate::ExportEdges`] promises.
    edges: Vec<(u32, u32)>,
}

/// A graph's components: a pure function of its edge set.
#[derive(Debug, Default, PartialEq, Eq)]
struct Labelling {
    /// Canonical component label per vertex: the **smallest vertex id**
    /// of its component.
    labels: Vec<u32>,
    /// Component size per canonical label (every vertex appears under
    /// its label, so isolated vertices count).
    sizes: HashMap<u32, u64>,
}

impl Labelling {
    /// Label the graph of `edges` from scratch, reusing `self`'s buffers.
    fn relabel(&mut self, num_vertices: usize, edges: &[(u32, u32)]) {
        crate::min_labels_into(&mut self.labels, num_vertices, edges);
        self.sizes.clear();
        for &root in &self.labels {
            *self.sizes.entry(root).or_insert(0) += 1;
        }
    }

    /// The labelling after merging the components that `ins` joins, or
    /// `None` if it joins none. A union-find over the touched labels,
    /// where the smaller label always wins, gives each merged component
    /// its smallest vertex; the copy then points every losing root at its
    /// winner, and one pass over the vertices follows that pointer.
    /// `into` lends its buffers.
    fn merged(&self, ins: &[(u32, u32)], into: Option<Labelling>) -> Option<Labelling> {
        fn find(parent: &mut HashMap<u32, u32>, mut l: u32) -> u32 {
            while let Some(&p) = parent.get(&l) {
                match parent.get(&p) {
                    Some(&grand) => {
                        parent.insert(l, grand);
                        l = grand;
                    }
                    None => return p,
                }
            }
            l
        }
        let mut parent: HashMap<u32, u32> = HashMap::new();
        for &(u, v) in ins {
            let a = find(&mut parent, self.labels[u as usize]);
            let b = find(&mut parent, self.labels[v as usize]);
            if a != b {
                parent.insert(a.max(b), a.min(b));
            }
        }
        if parent.is_empty() {
            return None;
        }
        let mut next = into.unwrap_or_default();
        next.labels.clear();
        next.labels.extend_from_slice(&self.labels);
        next.sizes.clone_from(&self.sizes);
        let losers: Vec<u32> = parent.keys().copied().collect();
        for loser in losers {
            let winner = find(&mut parent, loser);
            let size = next.sizes.remove(&loser).expect("every label has a size");
            *next.sizes.get_mut(&winner).expect("every label has a size") += size;
            next.labels[loser as usize] = winner;
        }
        // A root's own entry now holds its final label and every winner's
        // still holds itself, so one lookup per vertex suffices.
        for v in 0..next.labels.len() {
            let old = next.labels[v];
            let new = next.labels[old as usize];
            if new != old {
                next.labels[v] = new;
            }
        }
        Some(next)
    }
}

/// An immutable connectivity snapshot **as of** one [`Version`].
///
/// Cheap to clone (the payload is shared), [`Send`] + [`Sync`], and
/// self-contained: queries run against the snapshot's own label table,
/// never against the live structure, so any number of readers can hold
/// views while the writer keeps committing rounds.
///
/// `ReadView` implements [`Connectivity`] and [`crate::ExportEdges`], so
/// everything written against the read-side traits — including
/// [`crate::component_groups`] — works on a view unchanged.
///
/// Determinism: a view holds the canonical sorted edge list and labels
/// each vertex by its component's smallest vertex — a pure function of
/// the edge set, whether [`ReadView::build`] derived it by a sequential
/// min-label union-find ([`crate::min_labels`]) or
/// [`ReadView::advance`] from the previous view — so two views of the
/// same version hold byte-identical labels and edges regardless of
/// thread count, shard count, or the backend that served them.
///
/// Cost: [`ReadView::build`] is `O(n + m α(n))`; [`ReadView::advance`]
/// copies the `m` edges (and the `n` labels only if components merged)
/// and otherwise pays for what the round changed, unless a deletion
/// split a component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadView {
    inner: Arc<ViewInner>,
}

/// How [`ReadView::advance`] labelled the next view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relabel {
    /// No component split, so components only merged through the
    /// round's inserted edges: the previous labels were shared if nothing
    /// merged, or copied with the merged components relabelled. Rounds
    /// that change nothing land here too.
    Merge,
    /// A deleted edge split a component: every vertex was relabelled by
    /// [`crate::min_labels`] over the new edge list, as
    /// [`ReadView::build`] does (without its export and sort).
    Rebuild,
}

/// The net edge change of one round against a view's edge set.
struct Delta {
    /// Edges absent before the round and present after it, sorted.
    ins: Vec<(u32, u32)>,
    /// Edges present before the round and absent after it, sorted.
    del: Vec<(u32, u32)>,
    /// Inserts that took effect, counted op by op as a backend counts
    /// them ([`BatchResult::inserted`]).
    inserted: usize,
    /// Deletes that took effect ([`BatchResult::deleted`]).
    deleted: usize,
}

impl Delta {
    /// Replay `ops` in order against the sorted `edges` with the
    /// backends' set semantics: self-loops, duplicate inserts and absent
    /// deletes change nothing. Only the touched edges are tracked, in an
    /// overlay of `(present before, present now)`.
    fn replay(edges: &[(u32, u32)], ops: &[Op]) -> Self {
        let mut overlay: HashMap<(u32, u32), (bool, bool)> = HashMap::new();
        let (mut inserted, mut deleted) = (0, 0);
        for &op in ops {
            let (u, v) = op.endpoints();
            if u == v || matches!(op, Op::Query(..)) {
                continue;
            }
            let edge = (u.min(v), u.max(v));
            let (_, now) = overlay.entry(edge).or_insert_with(|| {
                let present = edges.binary_search(&edge).is_ok();
                (present, present)
            });
            let insert = matches!(op, Op::Insert(..));
            if *now != insert {
                *now = insert;
                if insert {
                    inserted += 1;
                } else {
                    deleted += 1;
                }
            }
        }
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for (edge, (before, now)) in overlay {
            match (before, now) {
                (false, true) => ins.push(edge),
                (true, false) => del.push(edge),
                _ => {}
            }
        }
        ins.sort_unstable();
        del.sort_unstable();
        Self {
            ins,
            del,
            inserted,
            deleted,
        }
    }

    /// Write `prev` with `ins` added and `del` removed into `out`, in
    /// order: the runs between two changed edges are copied whole.
    fn apply_to(&self, prev: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
        let (mut ins, mut del) = (self.ins.as_slice(), self.del.as_slice());
        let mut rest = prev;
        loop {
            let next = match (ins.first(), del.first()) {
                (Some(i), Some(d)) => i.min(d),
                (Some(i), None) => i,
                (None, Some(d)) => d,
                (None, None) => break,
            };
            let at = rest.partition_point(|e| e < next);
            out.extend_from_slice(&rest[..at]);
            if ins.first() == Some(next) {
                out.push(*next);
                ins = &ins[1..];
                rest = &rest[at..];
            } else {
                debug_assert_eq!(rest.get(at), Some(next), "deleted edge was present");
                del = &del[1..];
                rest = &rest[at + 1..];
            }
        }
        out.extend_from_slice(rest);
    }
}

impl ReadView {
    /// Build a view of `edges` (normalized `u < v`, sorted — the
    /// [`crate::ExportEdges`] contract) over `num_vertices` vertices,
    /// tagged with `version`.
    ///
    /// Cost: one union-find pass over the edges plus one labeling pass
    /// over the vertices — `O(n + m α(n))`. A serving layer builds its
    /// first view this way and [`ReadView::advance`]s the rest.
    pub fn build(num_vertices: usize, version: Version, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(
            edges
                .windows(2)
                .all(|w| w[0] <= w[1] && w[0].0 < w[0].1 && w[1].0 < w[1].1),
            "ReadView::build expects the canonical normalized sorted edge list"
        );
        let mut labelling = Labelling::default();
        labelling.relabel(num_vertices, &edges);
        Self {
            inner: Arc::new(ViewInner {
                version,
                labelling: Arc::new(labelling),
                edges,
            }),
        }
    }

    /// The view of `version`, the round right after this view's: this
    /// view's graph with `ops` applied in order, byte-identical to
    /// [`ReadView::build`] over the new edge set. `result` is what the
    /// backend returned for `ops`, and `live` is any structure that
    /// already holds the state after the round (the backend that applied
    /// it).
    ///
    /// The round's net edge change comes from replaying `ops` against
    /// this view's edges. If every deleted edge's endpoints are still
    /// connected in `live` (one [`Connectivity::batch_connected`] call),
    /// no component split — each old edge's endpoints stay connected —
    /// so components only merged, and a small union-find over the old
    /// labels of the inserted edges' endpoints relabels them: the
    /// smaller label wins. A round that merges nothing shares this view's
    /// labels outright. Otherwise the labels are rebuilt from the new
    /// edge list. The returned [`Relabel`] says which path ran.
    ///
    /// `spare` is a view the caller no longer needs (one a retention
    /// window evicted): if the caller holds its last reference, its
    /// buffers are reused, so a steady stream of rounds allocates nothing
    /// large.
    ///
    /// Cost for a round of `k` operations changing `d` edges: `O(k lg m)`
    /// to replay, a copy of the `m` edges with `d` splices, and `O(d)`
    /// connectivity queries; plus a copy of the `n` labels and one `O(n)`
    /// relabel pass if components merged, or `O(n + m α(n))` if one
    /// split.
    pub fn advance<C: Connectivity + ?Sized>(
        &self,
        version: Version,
        ops: &[Op],
        result: &BatchResult,
        live: &C,
        spare: Option<ReadView>,
    ) -> (ReadView, Relabel) {
        let prev = &*self.inner;
        let delta = Delta::replay(&prev.edges, ops);
        debug_assert_eq!(
            (delta.inserted, delta.deleted),
            (result.inserted, result.deleted),
            "the replayed round disagrees with the backend's counts"
        );
        // The spare's labelling is free only if no newer view shares it.
        let (spare_labelling, mut edges) = match spare.map(|v| Arc::try_unwrap(v.inner)) {
            Some(Ok(old)) => (Arc::try_unwrap(old.labelling).ok(), old.edges),
            _ => (None, Vec::new()),
        };
        edges.clear();
        let len = prev.edges.len() + delta.ins.len() - delta.del.len();
        // Power-of-two capacities: the edge count drifts a few edges per
        // round, and buffers regrown to fit each time would leave freed,
        // slightly-too-small blocks behind that stay resident. The unused
        // tail of a fresh block is never touched.
        if edges.capacity() < len {
            edges.reserve_exact(len.next_power_of_two());
        }
        delta.apply_to(&prev.edges, &mut edges);
        let split = !delta.del.is_empty() && live.batch_connected(&delta.del).contains(&false);
        let (labelling, relabel) = if split {
            let mut labelling = spare_labelling.unwrap_or_default();
            labelling.relabel(prev.labelling.labels.len(), &edges);
            (Arc::new(labelling), Relabel::Rebuild)
        } else {
            let merged = prev.labelling.merged(&delta.ins, spare_labelling);
            let labelling = merged.map_or_else(|| Arc::clone(&prev.labelling), Arc::new);
            (labelling, Relabel::Merge)
        };
        let view = Self {
            inner: Arc::new(ViewInner {
                version,
                labelling,
                edges,
            }),
        };
        (view, relabel)
    }

    /// The version this view snapshots: the id of the last commit round
    /// folded into it.
    pub fn version(&self) -> Version {
        self.inner.version
    }

    /// The canonical component label of every vertex (the smallest
    /// vertex id of its component), indexed by vertex.
    pub fn component_labels(&self) -> &[u32] {
        &self.inner.labelling.labels
    }

    /// The snapshot's edge set — normalized and sorted, without the
    /// clone [`crate::ExportEdges::export_edges`] makes.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.inner.edges
    }

    /// [`crate::component_groups`] over this view: label `vertices` by
    /// the first-in-input-order representative of each component.
    pub fn component_groups(&self, vertices: &[u32]) -> Vec<u32> {
        crate::component_groups(self, vertices)
    }
}

impl Connectivity for ReadView {
    fn backend_name(&self) -> &'static str {
        "read-view"
    }

    fn num_vertices(&self) -> usize {
        self.inner.labelling.labels.len()
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        self.inner.labelling.labels[u as usize] == self.inner.labelling.labels[v as usize]
    }

    fn num_components(&self) -> usize {
        self.inner.labelling.sizes.len()
    }

    fn component_size(&self, v: u32) -> u64 {
        self.inner.labelling.sizes[&self.inner.labelling.labels[v as usize]]
    }

    /// The canonical labels themselves: each id is its component's
    /// smallest vertex, stable for the life of the view.
    fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        vertices
            .iter()
            .map(|&v| u64::from(self.inner.labelling.labels[v as usize]))
            .collect()
    }
}

impl ExportEdges for ReadView {
    fn export_edges(&self) -> Vec<(u32, u32)> {
        self.inner.edges.clone()
    }
}

/// The versioned read surface of a serving layer: hand out [`ReadView`]s
/// at committed versions without blocking the writer.
///
/// Implementors keep a **bounded retention window** of recently committed
/// versions `[oldest, newest]`; requests outside it fail with
/// [`DynConError::UnknownVersion`] carrying the window bounds, so a
/// caller can either retry at `newest` or conclude the version is gone
/// for good.
pub trait VersionedRead {
    /// The retained `[oldest, newest]` version range, or `None` when the
    /// window is empty (publication disabled, or nothing committed yet).
    fn version_window(&self) -> Option<(Version, Version)>;

    /// A view of the **newest** committed version.
    fn read_view(&self) -> Result<ReadView, DynConError>;

    /// A view of exactly `version`.
    fn read_view_at(&self, version: Version) -> Result<ReadView, DynConError>;

    /// The newest committed version, if any.
    fn newest_version(&self) -> Option<Version> {
        self.version_window().map(|(_, newest)| newest)
    }

    /// The oldest still-retained version, if any.
    fn oldest_version(&self) -> Option<Version> {
        self.version_window().map(|(oldest, _)| oldest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n: usize, version: Version, mut edges: Vec<(u32, u32)>) -> ReadView {
        for e in &mut edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        ReadView::build(n, version, edges)
    }

    #[test]
    fn labels_are_canonical_min_vertex() {
        let v = view(8, 3, vec![(1, 0), (1, 2), (5, 4)]);
        // Components: {0,1,2} → 0, {3} → 3, {4,5} → 4, {6}, {7}.
        assert_eq!(v.component_labels(), &[0, 0, 0, 3, 4, 4, 6, 7]);
        assert_eq!(v.version(), 3);
        assert_eq!(v.num_vertices(), 8);
        assert_eq!(v.num_components(), 5);
        assert!(v.connected(0, 2) && !v.connected(2, 4));
        assert_eq!(v.component_size(1), 3);
        assert_eq!(v.component_size(7), 1);
    }

    #[test]
    fn views_of_the_same_edge_set_are_byte_identical() {
        // Insertion history must not matter: only the edge set does.
        let a = view(6, 9, vec![(0, 1), (1, 2), (3, 4)]);
        let b = view(6, 9, vec![(3, 4), (2, 1), (1, 0)]);
        assert_eq!(a, b);
        assert_eq!(a.component_labels(), b.component_labels());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn view_answers_the_read_side_traits() {
        let v = view(5, 0, vec![(0, 1), (2, 3)]);
        assert_eq!(v.backend_name(), "read-view");
        assert_eq!(
            v.batch_connected(&[(0, 1), (1, 2), (4, 4)]),
            vec![true, false, true]
        );
        assert_eq!(v.export_edges(), vec![(0, 1), (2, 3)]);
        // component_groups works on views (first-in-input-order reps).
        assert_eq!(v.component_groups(&[3, 2, 0, 1, 4]), vec![3, 3, 0, 0, 4]);
    }

    #[test]
    fn empty_window_encoding_is_distinguishable() {
        let (oldest, newest) = EMPTY_WINDOW;
        assert!(oldest > newest, "empty window encodes as an empty range");
        match empty_window_error(7) {
            DynConError::UnknownVersion {
                requested,
                oldest,
                newest,
            } => {
                assert_eq!(requested, 7);
                assert!(oldest > newest);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Apply `ops` to `edges` with the set semantics every backend
    /// shares, returning the counts a backend would.
    fn apply(edges: &mut Vec<(u32, u32)>, ops: &[Op]) -> BatchResult {
        let mut result = BatchResult::default();
        for &op in ops {
            let (u, v) = op.endpoints();
            let e = (u.min(v), u.max(v));
            match op {
                Op::Insert(..) if u != v && !edges.contains(&e) => {
                    edges.push(e);
                    result.inserted += 1;
                }
                Op::Delete(..) if edges.contains(&e) => {
                    edges.retain(|&x| x != e);
                    result.deleted += 1;
                }
                _ => {}
            }
        }
        result
    }

    #[test]
    fn advance_matches_build_on_both_paths() {
        let n = 8;
        let mut edges = vec![(0, 1), (2, 3), (3, 4)];
        let mut prev = view(n, 0, edges.clone());
        let rounds: [(&[Op], Relabel); 4] = [
            // Merges {0,1} and {2,3,4} through (1,4); (5,6) is inserted
            // then deleted, (7,7) is a self-loop, (0,1) a duplicate.
            (
                &[
                    Op::Insert(4, 1),
                    Op::Insert(5, 6),
                    Op::Query(0, 5),
                    Op::Delete(6, 5),
                    Op::Insert(7, 7),
                    Op::Insert(0, 1),
                ],
                Relabel::Merge,
            ),
            // Deleting and reinserting an edge changes nothing.
            (&[Op::Delete(2, 3), Op::Insert(3, 2)], Relabel::Merge),
            // A bridge: {0,1,2,3,4} splits into {0,1} and {2,3,4}.
            (&[Op::Delete(1, 4), Op::Insert(6, 7)], Relabel::Rebuild),
            // A deletion that splits nothing: 3 and 4 stay joined via 2.
            (&[Op::Insert(2, 4), Op::Delete(3, 4)], Relabel::Merge),
        ];
        for (i, (ops, path)) in rounds.into_iter().enumerate() {
            let version = i as Version + 1;
            let result = apply(&mut edges, ops);
            let live = view(n, version, edges.clone());
            let (next, relabel) = prev.advance(version, ops, &result, &live, None);
            assert_eq!(next, live, "round {i}");
            assert_eq!(relabel, path, "round {i}");
            prev = next;
        }
    }

    #[test]
    fn advance_reuses_buffers_and_shares_unchanged_labels() {
        let v0 = view(4, 0, vec![(0, 1)]);
        let ops = [Op::Insert(2, 3)];
        let result = BatchResult {
            inserted: 1,
            ..BatchResult::default()
        };
        let live = view(4, 1, vec![(0, 1), (2, 3)]);
        let spare = view(4, 7, vec![(0, 1), (1, 2), (2, 3)]);
        let buffer = spare.component_labels().as_ptr();
        let (v1, _) = v0.advance(1, &ops, &result, &live, Some(spare));
        assert_eq!(v1, live);
        assert_eq!(v1.component_labels().as_ptr(), buffer, "labels reused");
        // A spare some reader still holds is left alone.
        let held = view(4, 7, vec![]);
        let (v1, _) = v0.advance(1, &ops, &result, &live, Some(held.clone()));
        assert_eq!(v1, live);
        assert_eq!(held, view(4, 7, vec![]));
        // A round that merges no components shares the labels.
        let (v2, _) = v1.advance(2, &[Op::Insert(3, 2)], &BatchResult::default(), &live, None);
        assert!(std::ptr::eq(v1.component_labels(), v2.component_labels()));
        assert_eq!(v2.edges(), v1.edges());
    }

    #[test]
    fn clone_shares_the_payload() {
        let v = view(4, 1, vec![(0, 1)]);
        let w = v.clone();
        assert_eq!(v, w);
        assert!(std::ptr::eq(v.component_labels(), w.component_labels()));
    }
}
