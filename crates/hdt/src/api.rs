//! The workspace-wide API contract (`dyncon-api`) implemented for the
//! sequential HDT baseline.
//!
//! HDT is inherently one-operation-at-a-time, so the batch methods loop —
//! which is exactly the honest baseline semantics the E5 experiment
//! compares the parallel structure against.

use crate::HdtConnectivity;
use dyncon_api::{validate_pairs, BatchDynamic, BuildFrom, Builder, Connectivity, DynConError};

impl Connectivity for HdtConnectivity {
    fn backend_name(&self) -> &'static str {
        "hdt-sequential"
    }

    fn num_vertices(&self) -> usize {
        HdtConnectivity::num_vertices(self)
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        HdtConnectivity::connected(self, u, v)
    }

    fn num_components(&self) -> usize {
        HdtConnectivity::num_components(self)
    }

    fn component_size(&self, v: u32) -> u64 {
        HdtConnectivity::component_size(self, v)
    }

    fn component_ids(&self, vertices: &[u32]) -> Vec<u64> {
        HdtConnectivity::component_ids(self, vertices)
    }
}

impl BatchDynamic for HdtConnectivity {
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.num_vertices(), edges)?;
        Ok(edges.iter().filter(|&&(u, v)| self.insert(u, v)).count())
    }

    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        validate_pairs(self.num_vertices(), edges)?;
        Ok(edges.iter().filter(|&&(u, v)| self.delete(u, v)).count())
    }
}

impl BuildFrom for HdtConnectivity {
    fn build_from(builder: &Builder) -> Result<Self, DynConError> {
        // Re-validate (callers can reach this without `Builder::build`).
        // Deletion-algorithm / stats / ablation knobs are specific to the
        // parallel structure; HDT only needs the vertex count.
        builder.validate()?;
        Ok(HdtConnectivity::new(builder.num_vertices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_api::Op;

    #[test]
    fn mixed_batch_matches_singleop_semantics() {
        let mut g: HdtConnectivity = Builder::new(8).build().unwrap();
        let res = g
            .apply(&[
                Op::Insert(0, 1),
                Op::Insert(1, 0), // duplicate: not counted
                Op::Insert(1, 2),
                Op::Query(0, 2),
                Op::Delete(1, 2),
                Op::Query(0, 2),
            ])
            .unwrap();
        assert_eq!(res.inserted, 2);
        assert_eq!(res.deleted, 1);
        assert_eq!(res.answers, vec![true, false]);
        assert_eq!(g.component_size(0), 2);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g: HdtConnectivity = Builder::new(4).build().unwrap();
        let err = g.apply(&[Op::Insert(0, 4)]).unwrap_err();
        assert!(matches!(
            err,
            DynConError::VertexOutOfRange { vertex: 4, .. }
        ));
        assert_eq!(g.num_edges(), 0);
    }
}
