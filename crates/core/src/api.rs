//! The workspace-wide API contract (`dyncon-api`) implemented for the
//! paper's structure: validated batch mutations, `&self` batch queries
//! and mixed-operation batches over [`BatchDynamicConnectivity`].
//!
//! The inherent methods stay the unchecked fast path; these impls are the
//! boundary that turns out-of-range vertex ids into typed
//! [`DynConError`]s before anything deeper can panic.

use crate::BatchDynamicConnectivity;
use dyncon_api::{
    validate_pairs, BatchDynamic, BuildFrom, Builder, Connectivity, DynConError, ExportEdges,
};

impl Connectivity for BatchDynamicConnectivity {
    fn backend_name(&self) -> &'static str {
        match self.algo {
            dyncon_api::DeletionAlgorithm::Simple => "batch-dynamic/simple",
            dyncon_api::DeletionAlgorithm::Interleaved => "batch-dynamic/interleaved",
        }
    }

    fn num_vertices(&self) -> usize {
        BatchDynamicConnectivity::num_vertices(self)
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        BatchDynamicConnectivity::connected(self, u, v)
    }

    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        BatchDynamicConnectivity::batch_connected(self, pairs)
    }

    fn num_components(&self) -> usize {
        BatchDynamicConnectivity::num_components(self)
    }

    fn component_size(&self, v: u32) -> u64 {
        BatchDynamicConnectivity::component_size(self, v)
    }

    fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        BatchDynamicConnectivity::component_ids(self, vertices)
    }
}

impl BatchDynamic for BatchDynamicConnectivity {
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.n, edges)?;
        Ok(BatchDynamicConnectivity::batch_insert(self, edges))
    }

    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.n, edges)?;
        Ok(BatchDynamicConnectivity::batch_delete(self, edges))
    }

    fn check(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

impl ExportEdges for BatchDynamicConnectivity {
    fn export_edges(&self) -> Vec<(u32, u32)> {
        // `edge_list` yields live slots in index order; normalize and
        // sort so the export is canonical (insertion-history free), as
        // the trait contract requires for checksummable snapshots.
        let mut edges: Vec<(u32, u32)> = self
            .edge_list()
            .into_iter()
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges
    }
}

impl BuildFrom for BatchDynamicConnectivity {
    fn build_from(builder: &Builder) -> Result<Self, DynConError> {
        // Re-validate: `build_from` is public and `Builder`'s fields are
        // pub, so a caller can reach this without `Builder::build`.
        builder.validate()?;
        Ok(BatchDynamicConnectivity::from_builder(builder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_api::{DeletionAlgorithm, Op};

    #[test]
    fn mixed_batch_through_the_trait() {
        let mut g: BatchDynamicConnectivity = Builder::new(8).build().unwrap();
        let res = g
            .apply(&[
                Op::Insert(0, 1),
                Op::Insert(1, 2),
                Op::Query(0, 2),
                Op::Delete(0, 1),
                Op::Query(0, 2),
                Op::Insert(2, 0),
                Op::Query(0, 1),
            ])
            .unwrap();
        assert_eq!(res.inserted, 3);
        assert_eq!(res.deleted, 1);
        assert_eq!(res.answers, vec![true, false, true]);
        BatchDynamic::check(&g).unwrap();
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let mut g: BatchDynamicConnectivity = Builder::new(4).build().unwrap();
        for ops in [
            vec![Op::Insert(0, 4)],
            vec![Op::Delete(4, 0)],
            vec![Op::Query(0, 99)],
        ] {
            let err = g.apply(&ops).unwrap_err();
            assert!(
                matches!(err, DynConError::VertexOutOfRange { .. }),
                "{ops:?}"
            );
        }
        // Nothing was applied.
        assert_eq!(g.num_edges(), 0);
        let err = BatchDynamic::batch_insert(&mut g, &[(0, 1), (2, 17)]).unwrap_err();
        assert_eq!(
            err,
            DynConError::VertexOutOfRange {
                vertex: 17,
                num_vertices: 4
            }
        );
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn apply_validation_is_atomic() {
        let mut g: BatchDynamicConnectivity = Builder::new(4).build().unwrap();
        // A valid insert before an invalid query: the batch must be
        // rejected wholesale.
        let err = g.apply(&[Op::Insert(0, 1), Op::Query(0, 4)]).unwrap_err();
        assert!(matches!(
            err,
            DynConError::VertexOutOfRange { vertex: 4, .. }
        ));
        assert_eq!(g.num_edges(), 0, "validation failure must not mutate");
    }

    #[test]
    fn export_edges_is_canonical() {
        use dyncon_api::ExportEdges;
        // Two different insertion histories of the same edge set.
        let mut a: BatchDynamicConnectivity = Builder::new(8).build().unwrap();
        a.apply(&[Op::Insert(3, 1), Op::Insert(0, 5), Op::Insert(5, 4)])
            .unwrap();
        let mut b: BatchDynamicConnectivity = Builder::new(8).build().unwrap();
        b.apply(&[
            Op::Insert(4, 5),
            Op::Insert(2, 6),
            Op::Insert(5, 0),
            Op::Delete(2, 6),
            Op::Insert(1, 3),
        ])
        .unwrap();
        let (ea, eb) = (a.export_edges(), b.export_edges());
        assert_eq!(ea, eb, "same edge set must export identical bytes");
        assert_eq!(ea, vec![(0, 5), (1, 3), (4, 5)], "normalized and sorted");
    }

    #[test]
    fn direct_build_from_revalidates() {
        // Regression: reached without `Builder::build`, an invalid vertex
        // count must be a typed error, not an integer-underflow panic in
        // the level computation.
        use dyncon_api::BuildFrom;
        match BatchDynamicConnectivity::build_from(&Builder::new(0)) {
            Err(DynConError::InvalidVertexCount { requested: 0 }) => {}
            other => panic!("expected InvalidVertexCount, got {:?}", other.err()),
        }
    }

    #[test]
    fn trait_objects_cover_both_algorithms() {
        let mut backends: Vec<Box<dyn BatchDynamic>> = vec![
            Box::new(
                Builder::new(6)
                    .algorithm(DeletionAlgorithm::Simple)
                    .build::<BatchDynamicConnectivity>()
                    .unwrap(),
            ),
            Box::new(
                Builder::new(6)
                    .algorithm(DeletionAlgorithm::Interleaved)
                    .build::<BatchDynamicConnectivity>()
                    .unwrap(),
            ),
        ];
        let script = [
            Op::Insert(0, 1),
            Op::Insert(1, 2),
            Op::Insert(2, 0),
            Op::Delete(1, 2),
            Op::Query(0, 2),
        ];
        let mut answers = Vec::new();
        for g in &mut backends {
            let res = g.apply(&script).unwrap();
            answers.push(res.answers);
            assert_eq!(g.num_components(), 4);
            assert_eq!(g.component_size(1), 3);
            g.check().unwrap();
        }
        assert_eq!(answers[0], answers[1]);
    }
}
