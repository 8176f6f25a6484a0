//! The sharded serving frontend.
//!
//! [`ShardedServer`] wraps a [`ShardedBackend`] in an outer
//! [`ConnServer`], so clients get the familiar group-commit surface
//! (tickets, coalescing, deterministic mode, backpressure) while each
//! admitted round fans out into per-shard commit rounds underneath. One
//! metric registry is pooled across the outer server, every shard
//! server, every per-shard WAL, and the coordinator itself.

use crate::backend::{ShardShutdown, ShardedBackend};
use crate::map::ShardMapKind;
use dyncon_api::{BatchDynamic, BuildFrom, DynConError, ExportEdges};
use dyncon_durable::DurableConfig;
use dyncon_metrics::{MetricsSnapshot, Registry};
use dyncon_server::{ConnServer, RoundRecord, ServerConfig};
use dyncon_trace::{RoundTrace, TraceRecorder};
use std::ops::Deref;
use std::path::PathBuf;

/// Where (and how) the shards persist. Each shard gets its own
/// WAL/snapshot directory `shard-NNN/` under the base dir, the
/// cross-edge store gets `cross/`, and the base dir carries a topology
/// manifest so a reopen with a different partition fails loudly.
#[derive(Clone, Debug)]
pub struct DurableShards {
    pub(crate) dir: PathBuf,
    pub(crate) config: DurableConfig,
}

impl DurableShards {
    /// Persist under `dir` with the [`DurableConfig`] defaults (fsync
    /// every round, compact on join) — the same as a standalone
    /// [`DurableServer`](dyncon_durable::DurableServer).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            config: DurableConfig::default(),
        }
    }

    /// The durability knobs every shard (and the cross store) opens with.
    pub fn config(mut self, config: DurableConfig) -> Self {
        self.config = config;
        self
    }
}

/// Configuration of a [`ShardedServer`]: what sharding owns (partition
/// shape, optional per-shard durability) plus the **outer** server's
/// [`ServerConfig`], which carries every admission knob.
///
/// Two outer fields also reach the shards: `worker_threads` pins every
/// shard writer's pool, and `trace` receives the coordinator's fan-out
/// spans. The *shard* servers always run in deterministic mode (the
/// coordinator is their sole client and seals every sub-round
/// explicitly, so determinism costs nothing and keeps per-shard WALs
/// byte-replayable).
#[derive(Clone, Debug)]
pub struct ShardConfig {
    pub(crate) shards: usize,
    pub(crate) kind: ShardMapKind,
    pub(crate) server: ServerConfig,
    pub(crate) durable: Option<DurableShards>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            kind: ShardMapKind::Hash,
            server: ServerConfig::default(),
            durable: None,
        }
    }
}

impl ShardConfig {
    /// Two hash shards, throughput-mode outer admission, in-memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards (≥ 1, ≤ the vertex count).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The partition scheme ([`ShardMapKind::Hash`] by default).
    pub fn kind(mut self, kind: ShardMapKind) -> Self {
        self.kind = kind;
        self
    }

    /// The outer server's configuration, replacing the embedded one and
    /// whatever the shorthands below set before. Its durability seams
    /// (`round_hook`, `round_abort`, `first_version`) belong to the
    /// per-shard WALs ([`ShardConfig::durable`]), so
    /// [`ShardedServer::start`] rejects them.
    pub fn server(mut self, server: ServerConfig) -> Self {
        self.server = server;
        self
    }

    /// Set the outer [`ServerConfig::worker_threads`], which also pins
    /// **each** shard writer's pool. A shorthand the benchmark calls.
    pub fn shard_worker_threads(mut self, threads: usize) -> Self {
        self.server = self.server.worker_threads(threads);
        self
    }

    /// Set the outer [`ServerConfig::record_rounds`]. A shorthand the
    /// benchmark calls.
    pub fn record_rounds(mut self, yes: bool) -> Self {
        self.server = self.server.record_rounds(yes);
        self
    }

    /// Set the outer [`ServerConfig::trace`]: the coordinator adds each
    /// outer round's fan-out (decompose, one span per shard sub-round,
    /// the cross store's sub-round, boundary rebuilds, cross-shard
    /// queries); the shard writers are not instrumented themselves. A
    /// shorthand the benchmark calls.
    pub fn trace(mut self, recorder: TraceRecorder) -> Self {
        self.server = self.server.trace(recorder);
        self
    }

    /// Persist every shard (and the cross store) under
    /// [`DurableShards::new`]'s base directory, recovering on start.
    pub fn durable(mut self, durable: DurableShards) -> Self {
        self.durable = Some(durable);
        self
    }
}

/// Final report of a sharded service ([`ShardedServer::join`]).
#[derive(Debug)]
pub struct ShardedReport<B> {
    /// The outer server's per-round replay log (empty unless
    /// the outer [`ServerConfig::record_rounds`]).
    pub rounds: Vec<RoundRecord>,
    /// Outer commit rounds.
    pub rounds_committed: u64,
    /// Operations committed through the outer server.
    pub ops_committed: u64,
    /// Snapshot of the pooled registry, taken **after** every shard
    /// joined (so shutdown-compaction metrics are included).
    pub metrics: MetricsSnapshot,
    /// Per-shard backends and counters, canonical shard order.
    pub shards: Vec<ShardShutdown<B>>,
    /// The cross-edge store's backend and counters.
    pub cross: ShardShutdown<B>,
    /// The slowest outer round's stage breakdown, when a
    /// [`ServerConfig::trace`] recorder was attached (`None` otherwise).
    pub slowest_round: Option<RoundTrace>,
}

/// A sharded group-commit connectivity service: an outer [`ConnServer`]
/// admitting client traffic, a coordinator decomposing each admitted
/// round into per-shard sub-rounds, and a contracted boundary graph
/// recombining cross-shard reachability (see [`ShardedBackend`]).
///
/// The outer server is reachable through `Deref`: submission
/// ([`ConnServer::submit_with`]), sealing, [`ConnServer::inspect`] (the
/// closure sees the [`ShardedBackend`], which may in turn inspect
/// individual shards), metrics, [`ConnServer::close`] and the
/// [`VersionedRead`](dyncon_api::VersionedRead) surface are all the
/// outer [`ConnServer`]'s. [`ConnServer::metrics_snapshot`] covers the
/// pooled registry: outer server, shard servers, WALs and coordinator.
///
/// Versions here are **outer** round versions. They are process-local:
/// per-shard WALs number *sub*-rounds, so there is no durable outer
/// round id to anchor to across restarts. Each retained view is a
/// globally consistent snapshot — all shards and the boundary graph
/// pinned at the same outer version, because the coordinator exports
/// between outer rounds, when every shard has quiesced.
/// [`ConnServer::read_async`] needs the embedded
/// [`ServerConfig::retain_views`] > 0 (see [`ShardConfig::server`]).
pub struct ShardedServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    inner: ConnServer<ShardedBackend<B>>,
    registry: Registry,
    num_shards: usize,
}

impl<B> ShardedServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    /// Partition `num_vertices` per `config`, start every shard server,
    /// and put the outer admission server in front.
    ///
    /// Fails with [`DynConError::Unsupported`] when the outer config sets
    /// `round_hook`, `round_abort` or `first_version > 0`: outer rounds
    /// have no log to hook, and outer versions start at 0.
    pub fn start(num_vertices: usize, config: ShardConfig) -> Result<Self, DynConError> {
        let outer = &config.server;
        let rejected = [
            (outer.round_hook.is_some(), "ServerConfig::round_hook"),
            (outer.round_abort.is_some(), "ServerConfig::round_abort"),
            (outer.first_version > 0, "ServerConfig::first_version"),
        ];
        if let Some(&(_, operation)) = rejected.iter().find(|(set, _)| *set) {
            return Err(DynConError::Unsupported {
                backend: "sharded",
                operation,
            });
        }
        let registry = outer.metrics.clone().unwrap_or_default();
        let backend = ShardedBackend::start(num_vertices, &config, registry.clone())?;
        let num_shards = backend.shard_map().num_shards();
        // With views on, the outer writer exports the global edge set
        // between outer rounds — every shard has fully committed its
        // sub-rounds of outer round r and none has seen r+1, so the
        // per-shard states and the boundary graph are all pinned at the
        // same outer version.
        let inner = ConnServer::start_versioned(backend, config.server.metrics(registry.clone()));
        Ok(Self {
            inner,
            registry,
            num_shards,
        })
    }

    /// Number of shards serving the vertex universe.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Outer commit rounds so far. Kept inherent (not left to `Deref`):
    /// callers that implement a trait with a method of this name call
    /// `ShardedServer::rounds_committed(self)` by path, and a path call
    /// does not go through `Deref` — without this method it would
    /// resolve to the trait method and recurse.
    pub fn rounds_committed(&self) -> u64 {
        self.inner.rounds_committed()
    }

    /// Stop accepting work, drain, and shut down outer server and every
    /// shard. Fails if any shard's shutdown (e.g. durable compaction)
    /// fails.
    pub fn join(self) -> Result<ShardedReport<B>, DynConError> {
        let report = self.inner.join();
        let shutdown = report.backend.shutdown()?;
        Ok(ShardedReport {
            rounds: report.rounds,
            rounds_committed: report.rounds_committed,
            ops_committed: report.ops_committed,
            metrics: self.registry.snapshot(),
            shards: shutdown.shards,
            cross: shutdown.cross,
            slowest_round: report.slowest_round,
        })
    }
}

impl<B> Deref for ShardedServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    type Target = ConnServer<ShardedBackend<B>>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::shard_server_config;
    use dyncon_core::BatchDynamicConnectivity;
    use std::sync::Arc;

    #[test]
    fn start_rejects_outer_durability_seams_and_worker_threads_reach_every_pool() {
        let hook: dyncon_server::RoundHook = Arc::new(|_, _| Ok(()));
        for (server, operation) in [
            (
                ServerConfig::new().round_hook(hook.clone()),
                "ServerConfig::round_hook",
            ),
            (
                ServerConfig::new().round_abort(hook.clone()),
                "ServerConfig::round_abort",
            ),
            (
                ServerConfig::new().first_version(1),
                "ServerConfig::first_version",
            ),
        ] {
            let config = ShardConfig::new().server(server);
            let Err(err) = ShardedServer::<BatchDynamicConnectivity>::start(16, config) else {
                panic!("{operation} must be rejected");
            };
            let backend = "sharded";
            assert_eq!(err, DynConError::Unsupported { backend, operation });
        }
        // One outer `worker_threads` pins the outer writer's pool and,
        // through the shard server config, every shard writer's pool.
        let config = ShardConfig::new()
            .server(ServerConfig::new().deterministic(true))
            .shard_worker_threads(3);
        assert!(config.server.deterministic, "the shorthand keeps the rest");
        assert_eq!(config.server.worker_threads, Some(3));
        let shard = shard_server_config(&config, &Registry::new());
        assert_eq!(shard.worker_threads, Some(3));
        ShardedServer::<BatchDynamicConnectivity>::start(16, config)
            .unwrap()
            .join()
            .unwrap();
    }
}
