//! Group-commit knobs.

use dyncon_api::{DynConError, Op};
use dyncon_export::HealthState;
use dyncon_metrics::Registry;
use dyncon_trace::TraceRecorder;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A per-round callback the writer runs **after** a round's operations
/// are fixed and **before** they are applied to the backend — the
/// durability hook: a write-ahead logger appends (and fsyncs) here, so
/// group commit and group fsync coincide (one log write per round, not
/// per request). Arguments are the server-local round number and the
/// round's concatenated operations in applied order.
///
/// Returning `Err` fails the round: its tickets resolve with that error,
/// nothing is applied to the backend, and the service shuts down (a
/// round that cannot be made durable must not commit).
pub type RoundHook = Arc<dyn Fn(u64, &[Op]) -> Result<(), DynConError> + Send + Sync>;

/// Configuration of a [`crate::ConnServer`].
///
/// The defaults target throughput mode: admission-ordered rounds, commit
/// on a 4096-op batch or a 200 µs coalesce window, 1024 queued requests
/// of backpressure headroom. Deterministic mode
/// ([`ServerConfig::deterministic`]) switches to explicit round
/// boundaries and canonical request order.
#[derive(Clone)]
pub struct ServerConfig {
    /// Commit a round once the pending operations reach this many
    /// (throughput mode only; a single oversized request still commits,
    /// alone). The cap trades latency for the `lg(1 + n/k)` batch
    /// amortization — bigger rounds are cheaper per op.
    pub max_batch_ops: usize,
    /// Commit a round once the oldest pending request has waited this
    /// long, even if the batch cap is not reached (throughput mode only).
    pub max_coalesce_wait: Duration,
    /// Bound on requests admitted but not yet committed. A full queue
    /// rejects with [`dyncon_api::DynConError::Backpressure`].
    pub queue_capacity: usize,
    /// Deterministic mode: rounds end only at explicit
    /// [`crate::ConnServer::seal_round`] calls and each round is applied
    /// in canonical `(client, submission index)` order, so concurrent
    /// submission is byte-identical to serial replay.
    pub deterministic: bool,
    /// Keep a [`crate::RoundRecord`] (ops + `BatchResult`) per committed
    /// round in the [`crate::ServiceReport`] — the in-memory replay log
    /// the determinism contract is checked against. Off by default and
    /// **not** implied by deterministic mode: the log grows without bound
    /// with traffic, so long-running servers leave it off and rely on the
    /// durable write-ahead log ([`ServerConfig::round_hook`]) instead.
    pub record_rounds: bool,
    /// Pin the writer's rayon pool to this many threads for the backend's
    /// batch-parallel `apply`. `None` inherits the process default
    /// (`DYNCON_THREADS` / `RAYON_NUM_THREADS`).
    pub worker_threads: Option<usize>,
    /// Durability hook, run once per round before apply (see
    /// [`RoundHook`]). `None` means no durability: committed rounds live
    /// only in process memory.
    pub round_hook: Option<RoundHook>,
    /// Compensation hook for a round that passed [`ServerConfig::round_hook`]
    /// but whose apply then failed or panicked: called with the same
    /// `(round, ops)` so the durability layer can un-log the round —
    /// clients are told it never committed, and recovery must agree. Its
    /// result is ignored (the service is already failing); best effort.
    pub round_abort: Option<RoundHook>,
    /// Registry the server records its [`crate::ServerMetrics`] into.
    /// `None` records into a private registry (the instrumentation cost —
    /// a few relaxed atomics per event — is paid either way); pass a
    /// shared registry to observe the server live and to pool serving and
    /// durability metrics in one snapshot. Metrics are observational
    /// only: enabling them never changes admission, round boundaries, or
    /// results.
    pub metrics: Option<Registry>,
    /// Recorder the server traces its pipeline stages into: one
    /// [`dyncon_trace::Span`] per stage occurrence (coalesce wait,
    /// WAL append/fsync via the hooks, apply, snapshot publish, ticket
    /// fill, versioned reads), folded into per-round breakdowns with
    /// slow-round capture. `None` (default) records nothing — the
    /// instrumentation is an `Option` check, no clock reads. Tracing
    /// follows the same contract as metrics: **observational only**,
    /// never influencing admission, round boundaries, or results
    /// (byte-determinism with a recorder attached is proven in
    /// `tests/determinism.rs`). Share one recorder across a stack
    /// (server + durability + shards) the way a metric registry is
    /// shared, then scrape it with [`dyncon_trace::serve_telemetry`].
    pub trace: Option<TraceRecorder>,
    /// Health engine the server feeds its liveness signals into: the
    /// writer heartbeat (round taken / round committed with its wall
    /// time, driving the stall watchdog and the SLO burn windows),
    /// queue depth, backpressure rejects, WAL errors (via the durable
    /// layer) and served reads. `None` (default) records nothing — the
    /// instrumentation is an `Option` check. Same contract as metrics
    /// and tracing: **observational only**, never an input; share one
    /// [`HealthState`] across a stack, then probe it via
    /// [`dyncon_trace::serve_telemetry`] (`Some(HealthState::routes())`)
    /// or a watchdog thread.
    pub health: Option<HealthState>,
    /// Size of the versioned-read retention window: how many recently
    /// committed versions keep a published [`dyncon_api::ReadView`]
    /// available through [`dyncon_api::VersionedRead::read_view_at`]. `0`
    /// (default) disables snapshot publication entirely — the writer
    /// pays no per-round export cost and every view request fails with
    /// the empty-window [`dyncon_api::DynConError::UnknownVersion`].
    /// Takes effect only on servers started with
    /// [`crate::ConnServer::start_versioned`] (publication needs the
    /// backend's [`dyncon_api::ExportEdges`] surface).
    pub retain_views: usize,
    /// Reader threads serving [`crate::ConnServer::read_async`] view
    /// queries off the commit path. `0` (default) keeps no pool:
    /// `read_async` then executes inline on the calling thread — still
    /// against the snapshot, still never touching the writer.
    pub reader_threads: usize,
    /// The [`dyncon_api::Version`] the first round committed by this
    /// server gets: round `r` (server-local, 0-based) commits as version
    /// `first_version + r`. A durable stack sets this to the recovered
    /// WAL `next_round`, making versions equal WAL round ids across
    /// process lifetimes; the recovered state itself is published as
    /// version `first_version - 1` (recovery restores `newest`).
    pub first_version: u64,
}

impl fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerConfig")
            .field("max_batch_ops", &self.max_batch_ops)
            .field("max_coalesce_wait", &self.max_coalesce_wait)
            .field("queue_capacity", &self.queue_capacity)
            .field("deterministic", &self.deterministic)
            .field("record_rounds", &self.record_rounds)
            .field("worker_threads", &self.worker_threads)
            .field(
                "round_hook",
                &self.round_hook.as_ref().map(|_| "<round hook>"),
            )
            .field(
                "round_abort",
                &self.round_abort.as_ref().map(|_| "<round abort>"),
            )
            .field("metrics", &self.metrics)
            .field("trace", &self.trace)
            .field("health", &self.health)
            .field("retain_views", &self.retain_views)
            .field("reader_threads", &self.reader_threads)
            .field("first_version", &self.first_version)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch_ops: 4096,
            max_coalesce_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            deterministic: false,
            record_rounds: false,
            worker_threads: None,
            round_hook: None,
            round_abort: None,
            metrics: None,
            trace: None,
            health: None,
            retain_views: 0,
            reader_threads: 0,
            first_version: 0,
        }
    }
}

impl ServerConfig {
    /// The throughput-mode defaults (see the struct docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set [`ServerConfig::max_batch_ops`].
    pub fn batch_cap(mut self, ops: usize) -> Self {
        self.max_batch_ops = ops.max(1);
        self
    }

    /// Set [`ServerConfig::max_coalesce_wait`].
    pub fn coalesce_wait(mut self, wait: Duration) -> Self {
        self.max_coalesce_wait = wait;
        self
    }

    /// Set [`ServerConfig::queue_capacity`].
    pub fn queue_capacity(mut self, requests: usize) -> Self {
        self.queue_capacity = requests.max(1);
        self
    }

    /// Toggle deterministic mode. Round *recording* is a separate knob
    /// ([`ServerConfig::record_rounds`]): deterministic servers that run
    /// indefinitely must be able to leave the in-memory log off.
    pub fn deterministic(mut self, enabled: bool) -> Self {
        self.deterministic = enabled;
        self
    }

    /// Toggle the per-round in-memory replay log.
    pub fn record_rounds(mut self, enabled: bool) -> Self {
        self.record_rounds = enabled;
        self
    }

    /// Pin the writer's apply pool to `threads` workers.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads.max(1));
        self
    }

    /// Install the per-round durability hook (see [`RoundHook`]).
    pub fn round_hook(mut self, hook: RoundHook) -> Self {
        self.round_hook = Some(hook);
        self
    }

    /// Install the compensation hook for logged-but-not-applied rounds
    /// (see [`ServerConfig::round_abort`]).
    pub fn round_abort(mut self, hook: RoundHook) -> Self {
        self.round_abort = Some(hook);
        self
    }

    /// Record serving metrics into `registry` (see
    /// [`ServerConfig::metrics`]).
    pub fn metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Trace pipeline stages into `recorder` (see
    /// [`ServerConfig::trace`]).
    pub fn trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Feed liveness signals into `health` (see
    /// [`ServerConfig::health`]).
    pub fn health(mut self, health: HealthState) -> Self {
        self.health = Some(health);
        self
    }

    /// Set [`ServerConfig::retain_views`] — the versioned-read retention
    /// window (0 disables publication).
    pub fn retain_views(mut self, versions: usize) -> Self {
        self.retain_views = versions;
        self
    }

    /// Set [`ServerConfig::reader_threads`] — the off-commit-path view
    /// query pool (0 executes `read_async` inline).
    pub fn reader_threads(mut self, threads: usize) -> Self {
        self.reader_threads = threads;
        self
    }

    /// Set [`ServerConfig::first_version`] — the version of this
    /// server's first committed round (a durable stack passes the
    /// recovered WAL `next_round`).
    pub fn first_version(mut self, version: u64) -> Self {
        self.first_version = version;
        self
    }
}

/// Options of the one submission surface,
/// [`crate::ConnServer::submit_with`].
///
/// ```
/// # use dyncon_server::SubmitOptions;
/// let opts = SubmitOptions::new().as_client(7).blocking(true).min_version(41);
/// assert_eq!(opts.client, Some(7));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Submit on behalf of this stable client id; `None` (default) draws
    /// a fresh auto-assigned id. Deterministic mode needs stable ids —
    /// auto ids are assigned in arrival order, which is exactly what
    /// that mode must not depend on.
    pub client: Option<u64>,
    /// Wait for queue space instead of failing with
    /// [`dyncon_api::DynConError::Backpressure`] (and wait out a
    /// not-yet-satisfied [`SubmitOptions::min_version`] fence instead of
    /// failing with [`dyncon_api::DynConError::UnknownVersion`]).
    /// Default `false`.
    pub blocking: bool,
    /// Read-your-writes fence: admit this request only once the server
    /// has committed `min_version` (pass the [`dyncon_api::Version`] a
    /// previous ticket's [`crate::RequestResult::version`] reported).
    /// Once admitted, the request's own round commits at a strictly
    /// greater version, so its queries observe everything up to the
    /// fence. Blocking submits wait for the fence; non-blocking submits
    /// fail fast with [`dyncon_api::DynConError::UnknownVersion`]
    /// (`requested > newest`) if the writer has not caught up.
    pub min_version: Option<u64>,
}

impl SubmitOptions {
    /// The defaults: auto client id, non-blocking, no fence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set [`SubmitOptions::client`].
    pub fn as_client(mut self, client: u64) -> Self {
        self.client = Some(client);
        self
    }

    /// Set [`SubmitOptions::blocking`].
    pub fn blocking(mut self, blocking: bool) -> Self {
        self.blocking = blocking;
        self
    }

    /// Set [`SubmitOptions::min_version`].
    pub fn min_version(mut self, version: u64) -> Self {
        self.min_version = Some(version);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = ServerConfig::new()
            .batch_cap(128)
            .coalesce_wait(Duration::from_millis(1))
            .queue_capacity(7)
            .deterministic(true)
            .worker_threads(2);
        assert_eq!(c.max_batch_ops, 128);
        assert_eq!(c.max_coalesce_wait, Duration::from_millis(1));
        assert_eq!(c.queue_capacity, 7);
        assert!(c.deterministic);
        assert_eq!(c.worker_threads, Some(2));
        // Zero-valued knobs are clamped to usable minimums.
        let z = ServerConfig::new()
            .batch_cap(0)
            .queue_capacity(0)
            .worker_threads(0);
        assert_eq!(
            (z.max_batch_ops, z.queue_capacity, z.worker_threads),
            (1, 1, Some(1))
        );
    }

    #[test]
    fn versioned_read_knobs_default_off() {
        let c = ServerConfig::new();
        assert_eq!(
            (c.retain_views, c.reader_threads, c.first_version),
            (0, 0, 0)
        );
        let c = c.retain_views(8).reader_threads(4).first_version(100);
        assert_eq!(
            (c.retain_views, c.reader_threads, c.first_version),
            (8, 4, 100)
        );
    }

    #[test]
    fn submit_options_compose() {
        let o = SubmitOptions::new();
        assert_eq!(o, SubmitOptions::default());
        assert_eq!((o.client, o.blocking, o.min_version), (None, false, None));
        let o = SubmitOptions::new()
            .as_client(3)
            .blocking(true)
            .min_version(9);
        assert_eq!(
            (o.client, o.blocking, o.min_version),
            (Some(3), true, Some(9))
        );
    }

    #[test]
    fn recording_is_independent_of_mode() {
        // Regression (memory growth): deterministic mode must NOT drag
        // the unbounded in-memory round log along — a long-running
        // durable server runs deterministic with recording off.
        let d = ServerConfig::new().deterministic(true);
        assert!(d.deterministic && !d.record_rounds);
        let c = ServerConfig::new().record_rounds(true);
        assert!(c.record_rounds && !c.deterministic);
        let both = ServerConfig::new().deterministic(true).record_rounds(true);
        assert!(both.deterministic && both.record_rounds);
    }

    #[test]
    fn metrics_registry_is_optional_and_cloneable() {
        assert!(ServerConfig::new().metrics.is_none());
        let r = Registry::new();
        let c = ServerConfig::new().metrics(r.clone());
        c.metrics
            .as_ref()
            .unwrap()
            .counter("x_total", "ops", "")
            .inc();
        // The config holds a handle to the SAME registry.
        assert_eq!(
            r.snapshot().get("x_total").unwrap().value.as_counter(),
            Some(1)
        );
    }

    #[test]
    fn debug_does_not_require_hook_debug() {
        let c = ServerConfig::new().round_hook(Arc::new(|_, _| Ok(())));
        let text = format!("{c:?}");
        assert!(text.contains("round_hook") && text.contains("<round hook>"));
        assert!(format!("{:?}", ServerConfig::new()).contains("None"));
    }
}
