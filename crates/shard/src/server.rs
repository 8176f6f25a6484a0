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
use dyncon_export::HealthState;
use dyncon_metrics::{MetricsSnapshot, Registry};
use dyncon_server::{ConnServer, RoundRecord, ServerConfig};
use dyncon_trace::{RoundTrace, TraceRecorder};
use std::ops::Deref;
use std::path::PathBuf;
use std::time::Duration;

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

/// Configuration of a [`ShardedServer`]: the partition shape, the outer
/// server's admission knobs, and optional per-shard durability.
///
/// The *outer* server takes the deterministic/record/batching knobs;
/// the *shard* servers always run in deterministic mode (the
/// coordinator is their sole client and seals every sub-round
/// explicitly, so determinism costs nothing and keeps per-shard WALs
/// byte-replayable).
#[derive(Clone, Debug)]
pub struct ShardConfig {
    pub(crate) shards: usize,
    pub(crate) kind: ShardMapKind,
    pub(crate) deterministic: bool,
    pub(crate) record_rounds: bool,
    pub(crate) max_batch_ops: usize,
    pub(crate) max_coalesce_wait: Duration,
    pub(crate) queue_capacity: usize,
    pub(crate) shard_worker_threads: Option<usize>,
    pub(crate) retain_views: usize,
    pub(crate) reader_threads: usize,
    pub(crate) metrics: Option<Registry>,
    pub(crate) trace: Option<TraceRecorder>,
    pub(crate) health: Option<HealthState>,
    pub(crate) durable: Option<DurableShards>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            kind: ShardMapKind::Hash,
            deterministic: false,
            record_rounds: false,
            max_batch_ops: 4096,
            max_coalesce_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            shard_worker_threads: None,
            retain_views: 0,
            reader_threads: 0,
            metrics: None,
            trace: None,
            health: None,
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

    /// Deterministic mode for the **outer** server: explicit round
    /// sealing and canonical `(client, seq)` admission order. Combined
    /// with the always-deterministic shards and the canonical
    /// decomposition, results are byte-identical across thread counts
    /// and shard counts.
    pub fn deterministic(mut self, yes: bool) -> Self {
        self.deterministic = yes;
        self
    }

    /// Record the outer server's per-round replay log.
    pub fn record_rounds(mut self, yes: bool) -> Self {
        self.record_rounds = yes;
        self
    }

    /// Outer round size cap.
    pub fn batch_cap(mut self, ops: usize) -> Self {
        self.max_batch_ops = ops;
        self
    }

    /// Outer coalescing window.
    pub fn coalesce_wait(mut self, wait: Duration) -> Self {
        self.max_coalesce_wait = wait;
        self
    }

    /// Outer admission queue capacity (requests, for backpressure).
    pub fn queue_capacity(mut self, requests: usize) -> Self {
        self.queue_capacity = requests;
        self
    }

    /// Rayon pool size for **each** shard's writer (and the outer
    /// writer). `None` inherits `DYNCON_THREADS`/core count.
    pub fn shard_worker_threads(mut self, threads: usize) -> Self {
        self.shard_worker_threads = Some(threads);
        self
    }

    /// Enable MVCC versioned reads on the **outer** server: after every
    /// outer commit round the coordinator exports the global edge set
    /// (each shard quiesced at that same outer version, boundary graph
    /// included) and retains it as that outer [`dyncon_api::Version`]'s
    /// snapshot, keeping the last `versions` of them (0, the default,
    /// disables publication; see
    /// [`dyncon_server::ServerConfig::retain_views`]).
    pub fn retain_views(mut self, versions: usize) -> Self {
        self.retain_views = versions;
        self
    }

    /// Reader threads serving [`ConnServer::read_async`] off the
    /// commit path (0, the default, runs reads inline). See
    /// [`dyncon_server::ServerConfig::reader_threads`].
    pub fn reader_threads(mut self, threads: usize) -> Self {
        self.reader_threads = threads;
        self
    }

    /// Pool all metrics (outer server, shard servers, WALs,
    /// coordinator) in this registry instead of a fresh one.
    pub fn metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach a [`TraceRecorder`]: the outer writer records its own
    /// pipeline stages (coalesce wait, apply, publish, fill), and the
    /// coordinator attributes each outer round's fan-out — decompose,
    /// one sub-round span per shard, the cross store's sub-round, lazy
    /// boundary rebuilds, and cross-shard query resolution. The shard
    /// servers themselves are *not* instrumented (their writer stages
    /// are inside the coordinator's per-shard sub-round spans).
    /// Observational only; see [`dyncon_server::ServerConfig::trace`].
    pub fn trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Feed the **outer** server's liveness signals (writer heartbeat,
    /// queue depth, backpressure, SLO grading of outer rounds) into
    /// this health engine. The shard servers are not separately
    /// instrumented: a wedged shard stalls the outer writer, which is
    /// exactly what the watchdog watches. Observational only; see
    /// [`dyncon_server::ServerConfig::health`].
    pub fn health(mut self, health: HealthState) -> Self {
        self.health = Some(health);
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
    /// [`ShardConfig::record_rounds`]).
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
    /// [`ShardConfig::trace`] recorder was attached (`None` otherwise).
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
/// [`ConnServer::read_async`] needs [`ShardConfig::retain_views`] > 0.
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
    pub fn start(num_vertices: usize, config: ShardConfig) -> Result<Self, DynConError> {
        let registry = config.metrics.clone().unwrap_or_default();
        let backend = ShardedBackend::start(num_vertices, &config, registry.clone())?;
        let num_shards = backend.shard_map().num_shards();
        let mut outer = ServerConfig::new()
            .batch_cap(config.max_batch_ops)
            .coalesce_wait(config.max_coalesce_wait)
            .queue_capacity(config.queue_capacity)
            .deterministic(config.deterministic)
            .record_rounds(config.record_rounds)
            .retain_views(config.retain_views)
            .reader_threads(config.reader_threads)
            .metrics(registry.clone());
        if let Some(threads) = config.shard_worker_threads {
            outer = outer.worker_threads(threads);
        }
        if let Some(trace) = config.trace.clone() {
            outer = outer.trace(trace);
        }
        if let Some(health) = config.health.clone() {
            outer = outer.health(health);
        }
        // With views on, the outer writer exports the global edge set
        // between outer rounds — every shard has fully committed its
        // sub-rounds of outer round r and none has seen r+1, so the
        // per-shard states and the boundary graph are all pinned at the
        // same outer version.
        let inner = if config.retain_views > 0 {
            ConnServer::start_versioned(backend, outer)
        } else {
            ConnServer::start(backend, outer)
        };
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
