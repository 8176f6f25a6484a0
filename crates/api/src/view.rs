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

use crate::error::DynConError;
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
    /// Canonical component label per vertex: the **smallest vertex id**
    /// of its component. A pure function of the edge set.
    labels: Vec<u32>,
    /// Component size per canonical label (every vertex appears under
    /// its label, so isolated vertices count).
    sizes: HashMap<u32, u64>,
    /// The edge set as of `version`, normalized `(min, max)` and sorted —
    /// the same canonical bytes [`crate::ExportEdges`] promises.
    edges: Vec<(u32, u32)>,
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
/// Determinism: a view is built from the canonical sorted edge list, and
/// labels are derived by a sequential min-label union-find
/// ([`crate::min_labels`]) — so two views of the same version hold
/// byte-identical labels and edges regardless of thread count, shard
/// count, or the backend that served them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadView {
    inner: Arc<ViewInner>,
}

impl ReadView {
    /// Build a view of `edges` (normalized `u < v`, sorted — the
    /// [`crate::ExportEdges`] contract) over `num_vertices` vertices,
    /// tagged with `version`.
    ///
    /// Cost: one union-find pass over the edges plus one labeling pass
    /// over the vertices — `O(n + m α(n))`.
    pub fn build(num_vertices: usize, version: Version, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(
            edges
                .windows(2)
                .all(|w| w[0] <= w[1] && w[0].0 < w[0].1 && w[1].0 < w[1].1),
            "ReadView::build expects the canonical normalized sorted edge list"
        );
        let labels = crate::min_labels(num_vertices, &edges);
        let mut sizes: HashMap<u32, u64> = HashMap::new();
        for &root in &labels {
            *sizes.entry(root).or_insert(0) += 1;
        }
        Self {
            inner: Arc::new(ViewInner {
                version,
                labels,
                sizes,
                edges,
            }),
        }
    }

    /// The version this view snapshots: the id of the last commit round
    /// folded into it.
    pub fn version(&self) -> Version {
        self.inner.version
    }

    /// The canonical component label of every vertex (the smallest
    /// vertex id of its component), indexed by vertex.
    pub fn component_labels(&self) -> &[u32] {
        &self.inner.labels
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
        self.inner.labels.len()
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        self.inner.labels[u as usize] == self.inner.labels[v as usize]
    }

    fn num_components(&self) -> usize {
        self.inner.sizes.len()
    }

    fn component_size(&self, v: u32) -> u64 {
        self.inner.sizes[&self.inner.labels[v as usize]]
    }

    /// The canonical labels themselves: each id is its component's
    /// smallest vertex, stable for the life of the view.
    fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        vertices
            .iter()
            .map(|&v| u64::from(self.inner.labels[v as usize]))
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

    #[test]
    fn clone_shares_the_payload() {
        let v = view(4, 1, vec![(0, 1)]);
        let w = v.clone();
        assert_eq!(v, w);
        assert!(std::ptr::eq(v.component_labels(), w.component_labels()));
    }
}
