//! # dyncon-shard — sharded serving with boundary-graph recombination
//!
//! Scales the single-writer serving stack past one commit pipeline by
//! partitioning the vertex universe across N shards, each running its
//! own [`ConnServer`](dyncon_server::ConnServer) (optionally a
//! [`DurableServer`](dyncon_durable::DurableServer) with a private
//! WAL/snapshot directory), and recombining global reachability through
//! a **contracted boundary graph**.
//!
//! ## The model
//!
//! A deterministic [`ShardMap`] (balanced ranges or SplitMix64 hash)
//! assigns every vertex to one shard. Edges whose endpoints share a
//! shard live in that shard's backend, translated to a dense local id
//! space; edges spanning shards live in a dedicated cross-edge store.
//! The coordinator decomposes each admitted mixed-op batch into
//! per-shard sub-batches, submits and seals each as one commit round
//! (executed in parallel by the shards' own writer threads), and
//! answers queries by local lookup plus the contraction invariant:
//!
//! > `u ~ v` globally **iff** they are locally connected in one shard,
//! > or each is locally connected to a *boundary component* (a local
//! > component containing a cross-edge endpoint) whose nodes are
//! > connected in the contraction of the cross-edge set.
//!
//! The boundary graph is a second, tiny
//! [`BatchDynamic`](dyncon_api::BatchDynamic) instance —
//! built with the same [`Builder`](dyncon_api::Builder) as the shards —
//! whose vertices are per-shard boundary-component labels and whose
//! edges are the cross edges contracted through those labels. It is
//! rebuilt lazily, only after a mutation segment actually changed some
//! edge set, and global aggregates fall out of it directly:
//! `components = Σ local components − (boundary nodes − boundary
//! components)`.
//!
//! ## Determinism
//!
//! End-to-end byte-determinism holds at **every** shard count and
//! thread count: the partition is a pure function of
//! `(num_vertices, shards, kind)`, decomposition preserves op order per
//! shard, shard servers always run in deterministic mode with the
//! coordinator as sole client (one sealed round per sub-batch), and the
//! boundary graph is built in canonical (sorted cross-edge) order. With
//! deterministic mode on the outer server too
//! ([`ShardConfig::server`] with
//! [`ServerConfig::deterministic`](dyncon_server::ServerConfig::deterministic)),
//! a client
//! observes byte-identical [`BatchResult`](dyncon_api::BatchResult)s
//! regardless of `DYNCON_THREADS` or the shard count — proven against
//! the single-backend naive oracle in this repo's test suite.
//!
//! ## Durability caveat: no cross-shard atomic commit
//!
//! Per-shard WALs make each *shard* crash-consistent, and the
//! coordinator only seals sub-rounds at segment boundaries, so a crash
//! between segments recovers every shard plus the cross store to the
//! same prefix. But there is no two-phase commit: a storage failure in
//! one shard mid-segment leaves other shards' sub-rounds applied
//! (partial application at sub-batch granularity, matching
//! [`BatchDynamic::apply`](dyncon_api::BatchDynamic::apply)'s
//! documented run-granularity semantics). See `ROADMAP.md`.
//!
//! ## Metrics
//!
//! One [`Registry`](dyncon_metrics::Registry) is pooled across the
//! outer server, every shard server, every WAL, and the coordinator's
//! own [`ShardMetrics`] (`dyncon_shard_*`: decompose time, boundary
//! ops, cross-shard queries, rebuilds, sub-rounds). All observational —
//! nothing is read back on a decision path.

mod backend;
mod map;
mod metrics;
mod server;

pub use backend::{ShardShutdown, ShardedBackend, ShardedShutdown};
pub use map::{ShardMap, ShardMapKind};
pub use metrics::ShardMetrics;
pub use server::{DurableShards, ShardConfig, ShardedReport, ShardedServer};

// Re-exported so callers can match on failures without importing
// dyncon-api directly.
pub use dyncon_api::DynConError;
