//! The shard coordinator's metric bundle.
//!
//! Same contract as the serving and durability bundles: **observational,
//! never inputs** — nothing here is read on a decomposition, sealing, or
//! boundary-resolution decision path, so instrumentation coexists with
//! the byte-determinism contract. The coordinator pools ONE registry
//! across the outer server, every per-shard server, and (in durable
//! mode) every per-shard WAL: registration is idempotent per name, so
//! `dyncon_server_*` counters aggregate over all shard sub-rounds plus
//! the outer rounds, and this bundle's `dyncon_shard_*` names carry the
//! coordinator-only view.

use dyncon_metrics::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Live handles to every coordinator metric.
pub struct ShardMetrics {
    /// `dyncon_shard_decompose_ns` — wall time to split one mutation
    /// segment into per-shard sub-batches plus the cross-shard batch.
    pub decompose_ns: Arc<Histogram>,
    /// `dyncon_shard_boundary_ops` — cross edges contracted into the
    /// boundary graph per rebuild (the size of the recombination work).
    pub boundary_ops: Arc<Histogram>,
    /// `dyncon_shard_cross_queries` — queries per query run that local
    /// shard state could not answer alone and the boundary graph
    /// resolved (cross-shard pairs plus locally-disconnected pairs).
    pub cross_queries: Arc<Histogram>,
    /// `dyncon_shard_boundary_rebuilds_total` — lazy boundary-graph
    /// reconstructions (one per first resolution after a mutation).
    pub boundary_rebuilds: Arc<Counter>,
    /// `dyncon_shard_subrounds_total` — per-shard commit rounds the
    /// coordinator sealed (including cross-store rounds).
    pub subrounds: Arc<Counter>,
}

impl ShardMetrics {
    /// Register (or re-attach to) the coordinator metrics in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(Self {
            decompose_ns: registry.histogram(
                "dyncon_shard_decompose_ns",
                "ns",
                "wall time splitting a mutation segment into per-shard sub-batches",
            ),
            boundary_ops: registry.histogram(
                "dyncon_shard_boundary_ops",
                "ops",
                "cross edges contracted per boundary-graph rebuild",
            ),
            cross_queries: registry.histogram(
                "dyncon_shard_cross_queries",
                "queries",
                "queries per run resolved through the boundary graph",
            ),
            boundary_rebuilds: registry.counter(
                "dyncon_shard_boundary_rebuilds_total",
                "rebuilds",
                "lazy boundary-graph reconstructions",
            ),
            subrounds: registry.counter(
                "dyncon_shard_subrounds_total",
                "rounds",
                "per-shard commit rounds sealed by the coordinator",
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_on_one_registry() {
        let registry = Registry::new();
        let a = ShardMetrics::register(&registry);
        let b = ShardMetrics::register(&registry);
        a.subrounds.inc();
        b.subrounds.inc();
        assert_eq!(a.subrounds.get(), 2, "pooling aggregates into one counter");
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("dyncon_shard_subrounds_total")
                .unwrap()
                .value
                .as_counter(),
            Some(2)
        );
        assert!(snap.get("dyncon_shard_decompose_ns").is_some());
    }
}
