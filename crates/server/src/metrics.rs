//! The serving layer's metric bundle.
//!
//! Every [`crate::ConnServer`] records into a [`ServerMetrics`] —
//! registered in the caller's [`Registry`] when
//! [`crate::ServerConfig::metrics`] is set, or into a private throwaway
//! registry otherwise (recording is a few relaxed atomics either way).
//!
//! Metrics are **observational, never inputs**: nothing here is read on
//! an admission, sealing, or commit decision path, which is what lets
//! instrumentation coexist with the byte-determinism contract.

use dyncon_metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Live handles to every serving-layer metric. One instance per server;
/// shared with the writer thread.
pub struct ServerMetrics {
    /// `dyncon_server_queue_depth` — requests admitted and not yet handed
    /// to the writer, sampled under the queue lock on every admit and
    /// round take. Its high-water mark is the `queue_depth_max` that load
    /// experiments report.
    pub queue_depth: Arc<Gauge>,
    /// `dyncon_server_backpressure_rejects_total` — non-blocking submits
    /// bounced by a full queue.
    pub backpressure_rejects: Arc<Counter>,
    /// `dyncon_server_admission_rejects_total` — requests bounced at
    /// validation (vertex out of range, statically unsupported op kind).
    pub admission_rejects: Arc<Counter>,
    /// `dyncon_server_round_size_ops` — operations per committed round:
    /// the coalescing the `lg(1 + n/k)` batch amortization feeds on.
    pub round_size_ops: Arc<Histogram>,
    /// `dyncon_server_coalesce_wait_ns` — how long the oldest request of
    /// each round waited between admission and round take.
    pub coalesce_wait_ns: Arc<Histogram>,
    /// `dyncon_server_apply_ns` — wall time of the backend's `apply` per
    /// round (the durability hook is *not* included; the WAL has its own
    /// latency histogram).
    pub apply_ns: Arc<Histogram>,
    /// `dyncon_server_rounds_committed_total`.
    pub rounds_committed: Arc<Counter>,
    /// `dyncon_server_ops_committed_total`.
    pub ops_committed: Arc<Counter>,
    /// `dyncon_server_read_view_requests_total` — versioned-read view
    /// requests (`read_view` / `read_view_at` / `read_async`), whether
    /// served or rejected with `UnknownVersion`.
    pub read_view_requests: Arc<Counter>,
    /// `dyncon_server_read_view_age_rounds` — how many rounds behind
    /// `newest` each served view was at handout (0 = the latest
    /// version). A growing tail means readers pin old versions.
    pub read_view_age_rounds: Arc<Histogram>,
    /// `dyncon_server_snapshot_retained` — versions currently held in
    /// the retention window, set at each publication (gauge; its
    /// high-water mark is the effective window size).
    pub snapshot_retained: Arc<Gauge>,
    /// `dyncon_server_snapshot_publish_ns` — wall time the writer spends
    /// deriving and retaining one round's snapshot (the per-round cost
    /// of enabling versioned reads; it is paid whether or not any reader
    /// ever asks).
    pub snapshot_publish_ns: Arc<Histogram>,
    /// `dyncon_server_snapshot_rebuilds_total` — publications that
    /// labelled the whole graph: the first view (at start or recovery)
    /// and rounds whose deletions split a component. Every other round
    /// advances the previous view by its delta; the share of rounds
    /// counted here is what publishing falls back on.
    pub snapshot_rebuilds: Arc<Counter>,
}

impl ServerMetrics {
    /// Register (or re-attach to) the serving metrics in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(Self {
            queue_depth: registry.gauge(
                "dyncon_server_queue_depth",
                "requests",
                "requests admitted and not yet handed to the writer",
            ),
            backpressure_rejects: registry.counter(
                "dyncon_server_backpressure_rejects_total",
                "requests",
                "non-blocking submissions bounced by a full queue",
            ),
            admission_rejects: registry.counter(
                "dyncon_server_admission_rejects_total",
                "requests",
                "submissions bounced at validation (vertex range, unsupported op kind)",
            ),
            round_size_ops: registry.histogram(
                "dyncon_server_round_size_ops",
                "ops",
                "operations per committed round",
            ),
            coalesce_wait_ns: registry.histogram(
                "dyncon_server_coalesce_wait_ns",
                "ns",
                "admission-to-round-take wait of each round's oldest request",
            ),
            apply_ns: registry.histogram(
                "dyncon_server_apply_ns",
                "ns",
                "backend apply wall time per round",
            ),
            rounds_committed: registry.counter(
                "dyncon_server_rounds_committed_total",
                "rounds",
                "commit rounds applied",
            ),
            ops_committed: registry.counter(
                "dyncon_server_ops_committed_total",
                "ops",
                "operations committed across all rounds",
            ),
            read_view_requests: registry.counter(
                "dyncon_server_read_view_requests_total",
                "requests",
                "versioned-read view requests (served or UnknownVersion)",
            ),
            read_view_age_rounds: registry.histogram(
                "dyncon_server_read_view_age_rounds",
                "rounds",
                "rounds behind newest of each served read view",
            ),
            snapshot_retained: registry.gauge(
                "dyncon_server_snapshot_retained",
                "versions",
                "versions currently retained in the read-view window",
            ),
            snapshot_publish_ns: registry.histogram(
                "dyncon_server_snapshot_publish_ns",
                "ns",
                "writer wall time publishing one round's read-view snapshot",
            ),
            snapshot_rebuilds: registry.counter(
                "dyncon_server_snapshot_rebuilds_total",
                "views",
                "read-view publications that relabelled the whole graph (first view, or a round that split a component)",
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
        let a = ServerMetrics::register(&registry);
        let b = ServerMetrics::register(&registry);
        a.rounds_committed.inc();
        b.rounds_committed.inc();
        assert_eq!(a.rounds_committed.get(), 2, "same underlying counter");
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("dyncon_server_rounds_committed_total")
                .unwrap()
                .value
                .as_counter(),
            Some(2)
        );
    }
}
