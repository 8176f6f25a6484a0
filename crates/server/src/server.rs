//! The group-commit frontend: bounded admission queue, single writer,
//! one `apply` per commit round.

use crate::config::{ServerConfig, SubmitOptions};
use crate::metrics::ServerMetrics;
use crate::ticket::{RequestResult, Slot, Ticket};
use crate::views::{ReadHandle, ReaderPool, ViewStore};
use dyncon_api::{
    validate_vertex, BatchDynamic, BatchResult, DynConError, ExportEdges, Op, OpKind, ReadView,
    Version, VersionedRead,
};
use dyncon_metrics::{MetricsSnapshot, Registry};
use dyncon_trace::{traced, RoundTrace, Stage};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A queued [`ConnServer::inspect`] closure, type-erased so the queue
/// state need not be generic over the backend. The writer hands it
/// `&backend as &dyn Any` plus the newest committed [`Version`] at run
/// time; the submitting side downcasts back to `&B` (always its own
/// server's backend type).
type InspectJob = Box<dyn FnOnce(&dyn std::any::Any, Option<Version>) + Send>;

/// The version of this server's `r`-th committed round is
/// `first_version + r`; the newest committed version is one before the
/// next round's — or, before any local round, the recovered
/// `first_version - 1` (`None` on a fresh, never-committed server).
fn newest_committed(first_version: u64, rounds_committed: u64) -> Option<Version> {
    if rounds_committed == 0 {
        first_version.checked_sub(1)
    } else {
        Some(first_version + rounds_committed - 1)
    }
}

/// How a versioned server exports the backend's canonical edge set:
/// type-erased so `ConnServer<B>` itself needs no `ExportEdges` bound.
type EdgeExtract<B> = Arc<dyn Fn(&B) -> Vec<(u32, u32)> + Send + Sync>;

/// The writer-side half of versioned reads: how to export the backend's
/// canonical edge set, and where to publish the resulting [`ReadView`].
struct ViewPublisher<B> {
    extract: EdgeExtract<B>,
    store: Arc<ViewStore>,
}

/// Export the backend's edges, label them, and retain the result as the
/// [`ReadView`] of `version`, recording the publish-cost metrics.
fn publish_view<B>(
    publisher: &ViewPublisher<B>,
    backend: &B,
    num_vertices: usize,
    version: Version,
    metrics: &ServerMetrics,
) {
    let started = Instant::now();
    let edges = (publisher.extract)(backend);
    let view = ReadView::build(num_vertices, version, edges);
    let retained = publisher.store.publish(view);
    metrics.snapshot_retained.set(retained as i64);
    metrics
        .snapshot_publish_ns
        .record_duration(started.elapsed());
}

/// One admitted, not-yet-committed request.
struct Request {
    /// Stable client identity — the primary canonical-order key.
    client: u64,
    /// Global admission index; within one client it is that client's
    /// program order, which is all the canonical sort depends on.
    seq: u64,
    /// When admission accepted the request — feeds the coalesce-wait
    /// histogram when its round is taken. Observational only: round
    /// boundaries never read it.
    admitted: Instant,
    ops: Vec<Op>,
    slot: Arc<Slot>,
}

/// Everything behind the queue mutex.
struct QueueState {
    /// The accumulating round (admission order).
    open: Vec<Request>,
    /// Rounds whose boundary is fixed (sealed explicitly, or the final
    /// drain at close). Committed strictly in seal order, before `open`.
    sealed: VecDeque<Vec<Request>>,
    /// Total ops in `open`.
    open_ops: usize,
    /// Requests admitted and not yet handed to the writer (`open` +
    /// everything in `sealed`) — the quantity the capacity bounds.
    queued: usize,
    /// When the oldest request in `open` was admitted (coalesce deadline).
    open_since: Option<Instant>,
    /// Admission is closed; pending work still drains.
    closed: bool,
    next_seq: u64,
    /// Pending [`ConnServer::inspect`] closures. The writer drains them
    /// with priority at each round boundary; shutdown paths drop them
    /// (their callers resolve via the hung-up result channel).
    inspects: VecDeque<InspectJob>,
}

struct Shared {
    q: Mutex<QueueState>,
    /// Writer waits here for work (and for seals / close).
    submitted: Condvar,
    /// Blocking submitters wait here for queue space.
    space: Condvar,
    /// [`SubmitOptions::min_version`] fences wait here; the writer
    /// notifies after every committed round (and every shutdown path).
    commits: Condvar,
    rounds_committed: AtomicU64,
    ops_committed: AtomicU64,
    next_auto_client: AtomicU64,
    metrics: Arc<ServerMetrics>,
}

/// The replay log entry of one commit round: exactly what the writer
/// passed to [`BatchDynamic::apply`] and what came back. A serial replay
/// of `ops` round by round on a fresh backend must reproduce `result`
/// byte for byte — that is the serving layer's determinism contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// The round number ([`RequestResult::round`] of its requests).
    pub round: u64,
    /// The round's concatenated operations, in applied order.
    pub ops: Vec<Op>,
    /// The backend's result for the round.
    pub result: BatchResult,
}

/// What [`ConnServer::join`] returns once the queue has drained.
#[derive(Debug)]
pub struct ServiceReport<B> {
    /// The backend, with every accepted request applied.
    pub backend: B,
    /// Per-round replay log (empty unless [`ServerConfig::record_rounds`]).
    pub rounds: Vec<RoundRecord>,
    /// Total commit rounds.
    pub rounds_committed: u64,
    /// Total operations committed across all rounds.
    pub ops_committed: u64,
    /// Final snapshot of the server's metric registry (the caller's
    /// registry from [`ServerConfig::metrics`] if one was passed, so
    /// durability metrics pooled there are included).
    pub metrics: MetricsSnapshot,
    /// Stage breakdown of the slowest committed round, when a
    /// [`ServerConfig::trace`] recorder was attached (`None` otherwise,
    /// and before any round committed) — post-mortem attribution
    /// without scraping the live telemetry endpoint.
    pub slowest_round: Option<RoundTrace>,
}

/// A group-commit batching frontend over any [`BatchDynamic`] backend.
///
/// Shared by reference across client threads (all submission methods take
/// `&self`); wrap it in an [`Arc`] or use scoped threads. See the crate
/// docs for the serving model and `examples/concurrent_service.rs` for an
/// end-to-end run.
pub struct ConnServer<B: BatchDynamic + Send + 'static> {
    shared: Arc<Shared>,
    config: ServerConfig,
    /// The registry the server's metrics live in — the caller's
    /// ([`ServerConfig::metrics`]) or a private one.
    registry: Registry,
    num_vertices: usize,
    backend_name: &'static str,
    /// The backend's static capabilities per [`OpKind`] (insert, delete,
    /// query), captured at start so admission can bounce unsupportable
    /// requests before they poison a whole commit round.
    supports: [bool; 3],
    /// The retained snapshot window — `Some` only on a server started
    /// with [`ConnServer::start_versioned`] and
    /// [`ServerConfig::retain_views`] > 0.
    views: Option<Arc<ViewStore>>,
    /// Reader threads draining [`ConnServer::read_async`] jobs; `None`
    /// when [`ServerConfig::reader_threads`] is 0 (reads run inline).
    readers: Option<Arc<ReaderPool>>,
    writer: Option<JoinHandle<(B, Vec<RoundRecord>)>>,
}

/// Dense index of an [`OpKind`] into the capability table.
fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Insert => 0,
        OpKind::Delete => 1,
        OpKind::Query => 2,
    }
}

/// The trait-method name an unsupported kind maps to in the typed error.
fn kind_operation(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Insert => "batch_insert",
        OpKind::Delete => "batch_delete",
        OpKind::Query => "batch_connected",
    }
}

impl<B: BatchDynamic + Send + 'static> ConnServer<B> {
    /// Take ownership of `backend` and start the writer thread. The
    /// backend is handed back by [`ConnServer::join`].
    ///
    /// A server started this way never publishes read views (no
    /// `ExportEdges` bound is required of the backend);
    /// [`ConnServer::read_view`] fails with
    /// [`DynConError::UnknownVersion`]. Use
    /// [`ConnServer::start_versioned`] for MVCC reads.
    pub fn start(backend: B, config: ServerConfig) -> Self {
        Self::start_inner(backend, config, None)
    }

    fn start_inner(backend: B, config: ServerConfig, extract: Option<EdgeExtract<B>>) -> Self {
        let num_vertices = backend.num_vertices();
        let backend_name = backend.backend_name();
        let supports =
            [OpKind::Insert, OpKind::Delete, OpKind::Query].map(|kind| backend.supports(kind));
        let registry = config.metrics.clone().unwrap_or_default();
        let metrics = ServerMetrics::register(&registry);
        let shared = Arc::new(Shared {
            q: Mutex::new(QueueState {
                open: Vec::new(),
                sealed: VecDeque::new(),
                open_ops: 0,
                queued: 0,
                open_since: None,
                closed: false,
                next_seq: 0,
                inspects: VecDeque::new(),
            }),
            submitted: Condvar::new(),
            space: Condvar::new(),
            commits: Condvar::new(),
            rounds_committed: AtomicU64::new(0),
            ops_committed: AtomicU64::new(0),
            next_auto_client: AtomicU64::new(0),
            metrics,
        });
        let publisher = extract.filter(|_| config.retain_views > 0).map(|extract| {
            let store = Arc::new(ViewStore::new(config.retain_views));
            // Publish the starting state (the recovered version
            // `first_version - 1` on a durable stack) on the caller's
            // thread, so `read_view` works before the first local round.
            // A truly fresh server (first_version 0) has no committed
            // version yet — its window stays empty until round 0 seals.
            if let Some(version) = config.first_version.checked_sub(1) {
                publish_view(
                    &ViewPublisher {
                        extract: Arc::clone(&extract),
                        store: Arc::clone(&store),
                    },
                    &backend,
                    num_vertices,
                    version,
                    &shared.metrics,
                );
            }
            ViewPublisher { extract, store }
        });
        let views = publisher.as_ref().map(|p| Arc::clone(&p.store));
        let readers = match config.reader_threads {
            0 => None,
            n => Some(Arc::new(ReaderPool::new(n))),
        };
        let writer = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("dyncon-server-writer".into())
                .spawn(move || writer_loop(backend, shared, config, publisher))
                .expect("spawn dyncon-server writer")
        };
        Self {
            shared,
            config,
            registry,
            num_vertices,
            backend_name,
            supports,
            views,
            readers,
            writer: Some(writer),
        }
    }

    /// The backend's vertex universe (requests are validated against it
    /// at admission).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The wrapped backend's name.
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Rounds committed so far.
    pub fn rounds_committed(&self) -> u64 {
        self.shared.rounds_committed.load(Ordering::Relaxed)
    }

    /// Operations committed so far.
    pub fn ops_committed(&self) -> u64 {
        self.shared.ops_committed.load(Ordering::Relaxed)
    }

    /// Freeze the server's metric registry right now (the live
    /// counterpart of [`ServiceReport::metrics`]). Includes everything
    /// else registered in a shared [`ServerConfig::metrics`] registry,
    /// e.g. the durability layer's WAL metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The one submission entry point: submit `ops` under `options`.
    /// Requests of one client keep their submission order in every
    /// canonical round.
    ///
    /// - [`SubmitOptions::client`]: stable client identity for canonical
    ///   ordering; `None` draws a fresh auto id (arrival-ordered — fine
    ///   in throughput mode, wrong for deterministic replay, which needs
    ///   [`SubmitOptions::as_client`]).
    /// - [`SubmitOptions::blocking`]: wait for queue space instead of
    ///   failing with [`DynConError::Backpressure`].
    /// - [`SubmitOptions::min_version`]: a read-your-writes fence — the
    ///   request is not admitted until version `v` has committed, so its
    ///   round (and hence its answers) observes at least `v`. Blocking
    ///   submissions wait for the fence; non-blocking ones fail with
    ///   [`DynConError::UnknownVersion`] if `v` has not committed yet.
    ///   In deterministic mode an unfenced committer (another thread
    ///   sealing rounds) must exist, or a blocking fence on a future
    ///   version deadlocks by construction.
    pub fn submit_with(&self, ops: Vec<Op>, options: SubmitOptions) -> Result<Ticket, DynConError> {
        let client = options
            .client
            .unwrap_or_else(|| self.shared.next_auto_client.fetch_add(1, Ordering::Relaxed));
        self.submit_inner(client, ops, options.blocking, options.min_version)
    }

    fn submit_inner(
        &self,
        client: u64,
        ops: Vec<Op>,
        block: bool,
        min_version: Option<u64>,
    ) -> Result<Ticket, DynConError> {
        // Validate here so a round never fails on behalf of *other*
        // clients' requests: vertex ranges and the backend's static op
        // capabilities are both admission-time rejections.
        if let Err(e) = self.validate(&ops) {
            self.shared.metrics.admission_rejects.inc();
            return Err(e);
        }
        let mut q = self.shared.q.lock().unwrap();
        // Read-your-writes fence: hold admission until `min_version` has
        // committed. Checked before capacity so a fenced request cannot
        // occupy a queue slot it is not yet allowed to use.
        if let Some(min) = min_version {
            loop {
                if q.closed {
                    return Err(DynConError::ServiceClosed);
                }
                let rounds = self.shared.rounds_committed.load(Ordering::Relaxed);
                if newest_committed(self.config.first_version, rounds) >= Some(min) {
                    break;
                }
                if !block {
                    let (oldest, newest) = self
                        .version_window()
                        .or_else(|| {
                            newest_committed(self.config.first_version, rounds).map(|n| (n, n))
                        })
                        .unwrap_or(dyncon_api::EMPTY_WINDOW);
                    return Err(DynConError::UnknownVersion {
                        requested: min,
                        oldest,
                        newest,
                    });
                }
                q = self.shared.commits.wait(q).unwrap();
            }
        }
        loop {
            if q.closed {
                return Err(DynConError::ServiceClosed);
            }
            if q.queued < self.config.queue_capacity {
                break;
            }
            if !block {
                self.shared.metrics.backpressure_rejects.inc();
                if let Some(health) = &self.config.health {
                    health.note_backpressure_reject();
                }
                return Err(DynConError::Backpressure {
                    capacity: self.config.queue_capacity,
                });
            }
            q = self.shared.space.wait(q).unwrap();
        }
        let seq = q.next_seq;
        q.next_seq += 1;
        if q.open.is_empty() {
            q.open_since = Some(Instant::now());
        }
        let slot = Arc::new(Slot::default());
        q.open_ops += ops.len();
        q.queued += 1;
        self.shared.metrics.queue_depth.set(q.queued as i64);
        if let Some(health) = &self.config.health {
            health.set_pending(q.queued as i64);
        }
        q.open.push(Request {
            client,
            seq,
            admitted: Instant::now(),
            ops,
            slot: Arc::clone(&slot),
        });
        self.shared.submitted.notify_all();
        Ok(Ticket { slot })
    }

    fn validate(&self, ops: &[Op]) -> Result<(), DynConError> {
        for op in ops {
            let (u, v) = op.endpoints();
            validate_vertex(self.num_vertices, u)?;
            validate_vertex(self.num_vertices, v)?;
            if !self.supports[kind_index(op.kind())] {
                return Err(DynConError::Unsupported {
                    backend: self.backend_name,
                    operation: kind_operation(op.kind()),
                });
            }
        }
        Ok(())
    }

    /// Run a read-only closure against the backend at a round boundary.
    ///
    /// The closure executes on the writer thread **between** commit
    /// rounds: it observes a state in which every round whose tickets
    /// have resolved is fully applied and no round is partially applied.
    /// Blocks until the closure has run and returns its result — this is
    /// the read seam a shard coordinator resolves cross-shard queries
    /// through without stopping the server.
    ///
    /// Ordering: the writer gives inspections priority over pending
    /// rounds, so an inspection submitted *after* a ticket resolved sees
    /// at least that ticket's round — but a round sealed and not yet
    /// waited on may commit before or after the closure runs. Callers
    /// that need an exact boundary wait their tickets first.
    ///
    /// Fails with [`DynConError::ServiceClosed`] if the service is
    /// closed, or shuts down before the closure could run.
    ///
    /// **Version guarantee**: the closure observes exactly one sealed
    /// version — the state as of [`RequestResult::version`] of the
    /// newest committed round, with no later round partially applied.
    /// [`ConnServer::inspect_versioned`] hands the closure that version
    /// number alongside the backend.
    pub fn inspect<R, F>(&self, f: F) -> Result<R, DynConError>
    where
        R: Send + 'static,
        F: FnOnce(&B) -> R + Send + 'static,
    {
        self.inspect_versioned(move |backend, _version| f(backend))
    }

    /// [`ConnServer::inspect`], with the closure also told **which**
    /// sealed version it is observing: the [`Version`] of the newest
    /// committed round at the instant the closure runs (`None` only on a
    /// fresh server before any round committed). This is how a caller
    /// correlates an inspection with [`ConnServer::read_view_at`] or a
    /// [`SubmitOptions::min_version`] fence.
    ///
    /// For *timing* attribution of the rounds an inspection interleaves
    /// with — which stage a slow round spent its wall time in — attach
    /// a [`ServerConfig::trace`] recorder and read
    /// [`ServiceReport::slowest_round`] (or scrape the live
    /// [`dyncon_trace::serve_telemetry`] endpoint).
    pub fn inspect_versioned<R, F>(&self, f: F) -> Result<R, DynConError>
    where
        R: Send + 'static,
        F: FnOnce(&B, Option<Version>) -> R + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        let job: InspectJob = Box::new(move |backend: &dyn std::any::Any, version| {
            let backend = backend
                .downcast_ref::<B>()
                .expect("inspect job runs against its own server's backend");
            // A hung-up receiver means the caller gave up waiting; the
            // result is simply discarded.
            let _ = tx.send(f(backend, version));
        });
        {
            let mut q = self.shared.q.lock().unwrap();
            if q.closed {
                return Err(DynConError::ServiceClosed);
            }
            q.inspects.push_back(job);
            self.shared.submitted.notify_all();
        }
        // The writer drains the inspect queue before it can observe the
        // closed-and-empty exit condition, and every shutdown path drops
        // pending jobs (closing this channel) — so this wait always ends.
        rx.recv().map_err(|_| DynConError::ServiceClosed)
    }

    /// The newest committed [`Version`], independent of view retention:
    /// `Some` once any round committed (or, on a durable stack, once
    /// recovery replayed history), `None` on a fresh server.
    pub fn newest_committed(&self) -> Option<Version> {
        let rounds = self.shared.rounds_committed.load(Ordering::Relaxed);
        newest_committed(self.config.first_version, rounds)
    }

    /// Run `f` against a clone of the **newest** retained view, off the
    /// commit path: on a reader-pool thread when
    /// [`ServerConfig::reader_threads`] > 0, inline otherwise. The view
    /// is resolved now (so the version is pinned at call time); the
    /// query work happens when the pool gets to it.
    pub fn read_async<R, F>(&self, f: F) -> ReadHandle<Result<R, DynConError>>
    where
        R: Send + 'static,
        F: FnOnce(&ReadView) -> R + Send + 'static,
    {
        match self.read_view() {
            Ok(view) => self.run_read(view, f),
            Err(e) => ReadHandle::ready(Err(e)),
        }
    }

    /// [`ConnServer::read_async`] against the view of exactly `version`.
    pub fn read_async_at<R, F>(&self, version: Version, f: F) -> ReadHandle<Result<R, DynConError>>
    where
        R: Send + 'static,
        F: FnOnce(&ReadView) -> R + Send + 'static,
    {
        match self.read_view_at(version) {
            Ok(view) => self.run_read(view, f),
            Err(e) => ReadHandle::ready(Err(e)),
        }
    }

    fn run_read<R, F>(&self, view: ReadView, f: F) -> ReadHandle<Result<R, DynConError>>
    where
        R: Send + 'static,
        F: FnOnce(&ReadView) -> R + Send + 'static,
    {
        // Read-execute spans attribute to the view's version (not a
        // commit round): the question a trace answers here is "what
        // were reads at version v doing while round r was slow".
        let trace = self.config.trace.clone();
        let health = self.config.health.clone();
        let job = move || {
            let version = view.version();
            let out = Ok(traced(trace.as_ref(), version, Stage::ReadExec, 0, || {
                f(&view)
            }));
            // The read plane's health heartbeat: fires where the read
            // actually executed (pool thread or inline).
            if let Some(h) = &health {
                h.note_read_served();
            }
            out
        };
        match &self.readers {
            Some(pool) => pool.execute(job),
            None => ReadHandle::ready(job()),
        }
    }

    /// Fix the current round boundary: every request admitted since the
    /// last seal becomes one round, canonically ordered by
    /// `(client, submission index)`. Returns how many requests the round
    /// holds (0 seals nothing). This is how deterministic mode forms
    /// rounds; in throughput mode it acts as an explicit flush.
    pub fn seal_round(&self) -> usize {
        let mut q = self.shared.q.lock().unwrap();
        let n = seal_open(&mut q);
        if n > 0 {
            self.shared.submitted.notify_all();
        }
        n
    }

    /// Stop admission: subsequent submissions fail with
    /// [`DynConError::ServiceClosed`]. Everything already admitted is
    /// sealed as a final round and will still commit. Idempotent.
    pub fn close(&self) {
        let mut q = self.shared.q.lock().unwrap();
        if q.closed {
            return;
        }
        seal_open(&mut q);
        q.closed = true;
        self.shared.submitted.notify_all();
        self.shared.space.notify_all();
        // A min_version fence parked on a version that will now never
        // commit must observe the close and fail.
        self.shared.commits.notify_all();
    }

    /// Close (if not already closed), drain every pending round, stop the
    /// writer and hand back the backend plus the round log.
    pub fn join(mut self) -> ServiceReport<B> {
        self.close();
        let (backend, rounds) = self
            .writer
            .take()
            .expect("join consumes the writer exactly once")
            .join()
            .expect("dyncon-server writer panicked");
        ServiceReport {
            backend,
            rounds,
            rounds_committed: self.shared.rounds_committed.load(Ordering::Relaxed),
            ops_committed: self.shared.ops_committed.load(Ordering::Relaxed),
            metrics: self.registry.snapshot(),
            slowest_round: self.config.trace.as_ref().and_then(|t| t.slowest_round()),
        }
    }
}

impl<B: BatchDynamic + ExportEdges + Send + 'static> ConnServer<B> {
    /// [`ConnServer::start`], with MVCC versioned reads enabled: after
    /// every committed round the writer exports the backend's canonical
    /// edge list ([`ExportEdges`]) and publishes it as the [`ReadView`]
    /// of that round's [`Version`], retained for the last
    /// [`ServerConfig::retain_views`] versions. With `retain_views` 0
    /// (the default) nothing is published: the server behaves as one
    /// from [`ConnServer::start`], so a wrapper can always start here
    /// and let the knob alone decide.
    ///
    /// Readers ([`ConnServer::read_view`], [`ConnServer::read_view_at`],
    /// [`ConnServer::read_async`]) clone retained views out from under a
    /// constant-time lock and never block the writer; the writer's only
    /// extra cost is the per-round export + label pass
    /// (`dyncon_server_snapshot_publish_ns`).
    ///
    /// When [`ServerConfig::first_version`] > 0 (a durable stack passing
    /// its recovered WAL round id), the starting state is published
    /// immediately as version `first_version - 1`, so recovered history
    /// is readable before the first new round commits.
    pub fn start_versioned(backend: B, config: ServerConfig) -> Self {
        Self::start_inner(
            backend,
            config,
            Some(Arc::new(|b: &B| b.export_edges()) as _),
        )
    }
}

impl<B: BatchDynamic + Send + 'static> VersionedRead for ConnServer<B> {
    /// The retained `[oldest, newest]` version range — `None` until the
    /// first publication, and always `None` on a server started without
    /// [`ConnServer::start_versioned`] or with
    /// [`ServerConfig::retain_views`] 0.
    fn version_window(&self) -> Option<(Version, Version)> {
        self.views.as_ref().and_then(|store| store.bounds())
    }

    /// A read-only view of the newest committed version. Never blocks
    /// the writer; the returned [`ReadView`] stays valid (and keeps
    /// answering as of its version) however far the server advances.
    fn read_view(&self) -> Result<ReadView, DynConError> {
        self.shared.metrics.read_view_requests.inc();
        let store = self
            .views
            .as_ref()
            .ok_or_else(|| dyncon_api::empty_window_error(0))?;
        let started = self.config.trace.as_ref().map(|_| Instant::now());
        let view = store.get_newest()?;
        self.shared.metrics.read_view_age_rounds.record(0);
        if let (Some(t), Some(started)) = (&self.config.trace, started) {
            t.record(view.version(), Stage::ViewResolve, started, 0);
        }
        Ok(view)
    }

    /// The view of exactly `version`, if still retained. Outside the
    /// window the error reports the retained bounds, typed:
    /// [`DynConError::UnknownVersion`].
    fn read_view_at(&self, version: Version) -> Result<ReadView, DynConError> {
        self.shared.metrics.read_view_requests.inc();
        let store = self
            .views
            .as_ref()
            .ok_or_else(|| dyncon_api::empty_window_error(version))?;
        let started = self.config.trace.as_ref().map(|_| Instant::now());
        let (view, age) = store.get_at(version)?;
        self.shared.metrics.read_view_age_rounds.record(age);
        if let (Some(t), Some(started)) = (&self.config.trace, started) {
            t.record(version, Stage::ViewResolve, started, 0);
        }
        Ok(view)
    }
}

impl<B: BatchDynamic + Send + 'static> Drop for ConnServer<B> {
    /// A dropped server still drains accepted requests (their tickets
    /// must resolve); the backend and log are discarded.
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.close();
            let _ = writer.join();
        }
    }
}

/// Move the open queue into `sealed` as one canonical round.
fn seal_open(q: &mut QueueState) -> usize {
    if q.open.is_empty() {
        return 0;
    }
    let mut round = std::mem::take(&mut q.open);
    q.open_ops = 0;
    q.open_since = None;
    // Canonical order: client id, then that client's own submission
    // order. Keys are unique (seq is globally unique), and relative order
    // within a client never depends on cross-client interleaving.
    round.sort_unstable_by_key(|r| (r.client, r.seq));
    let n = round.len();
    q.sealed.push_back(round);
    n
}

/// Take a prefix of the open queue totalling at most `cap` ops (always at
/// least one request, so an oversized request still commits — alone).
fn take_open_prefix(q: &mut QueueState, cap: usize) -> Vec<Request> {
    let mut taken = 0usize;
    let mut ops = 0usize;
    while taken < q.open.len() {
        let len = q.open[taken].ops.len();
        if taken > 0 && ops + len > cap {
            break;
        }
        ops += len;
        taken += 1;
        if ops >= cap {
            break;
        }
    }
    let rest = q.open.split_off(taken);
    let round = std::mem::replace(&mut q.open, rest);
    q.open_ops -= ops;
    // Leftover requests keep the old deadline: they have already waited a
    // full coalesce window, so the next round commits promptly.
    if q.open.is_empty() {
        q.open_since = None;
    }
    round
}

/// The single-writer commit loop. Owns the backend outright — group
/// commit *is* the concurrency control, so the structure itself needs no
/// locking — and returns it (plus the round log) at shutdown.
fn writer_loop<B: BatchDynamic + 'static>(
    mut backend: B,
    shared: Arc<Shared>,
    config: ServerConfig,
    publisher: Option<ViewPublisher<B>>,
) -> (B, Vec<RoundRecord>) {
    let num_vertices = backend.num_vertices();
    let pool = config.worker_threads.map(|t| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("build writer pool")
    });
    let mut log: Vec<RoundRecord> = Vec::new();
    loop {
        // Phase 1: pick the next round under the queue lock.
        let round: Vec<Request> = {
            let mut q = shared.q.lock().unwrap();
            loop {
                // Inspections first: they run between rounds, outside the
                // lock, against the fully-applied backend. Draining them
                // before the exit check below is what guarantees a
                // pending inspection is never stranded at shutdown.
                if !q.inspects.is_empty() {
                    let jobs: Vec<InspectJob> = q.inspects.drain(..).collect();
                    drop(q);
                    let version = newest_committed(
                        config.first_version,
                        shared.rounds_committed.load(Ordering::Relaxed),
                    );
                    for job in jobs {
                        job(&backend, version);
                    }
                    q = shared.q.lock().unwrap();
                    continue;
                }
                // Sealed rounds next, in seal order — in deterministic
                // mode they are the *only* source of rounds.
                if let Some(round) = q.sealed.pop_front() {
                    q.queued -= round.len();
                    shared.metrics.queue_depth.set(q.queued as i64);
                    if let Some(health) = &config.health {
                        health.set_pending(q.queued as i64);
                    }
                    break round;
                }
                if config.deterministic || q.open.is_empty() {
                    if q.closed {
                        // close() seals the open queue, so nothing is left.
                        debug_assert!(q.open.is_empty() && q.sealed.is_empty());
                        return (backend, log);
                    }
                    q = shared.submitted.wait(q).unwrap();
                    continue;
                }
                // Throughput mode with a non-empty open queue: commit when
                // the cap is reached, the coalesce window expired, or the
                // service is shutting down; otherwise wait the window out.
                let elapsed = q
                    .open_since
                    .expect("non-empty open queue has an admission time")
                    .elapsed();
                if q.closed
                    || q.open_ops >= config.max_batch_ops
                    || elapsed >= config.max_coalesce_wait
                {
                    let round = take_open_prefix(&mut q, config.max_batch_ops);
                    q.queued -= round.len();
                    shared.metrics.queue_depth.set(q.queued as i64);
                    if let Some(health) = &config.health {
                        health.set_pending(q.queued as i64);
                    }
                    break round;
                }
                let (guard, _timeout) = shared
                    .submitted
                    .wait_timeout(q, config.max_coalesce_wait - elapsed)
                    .unwrap();
                q = guard;
            }
        };
        shared.space.notify_all();
        // Only the writer increments the counter, so this load is the
        // number the round will commit under.
        let round_no = shared.rounds_committed.load(Ordering::Relaxed);
        let total_ops: usize = round.iter().map(|r| r.ops.len()).sum();
        // Tracing starts the round's wall clock at the instant the
        // writer took the round, and publishes the round number as the
        // attribution context for nested instrumentation (the WAL hook
        // and the shard coordinator run inside this round but only the
        // hook is told its number).
        if let Some(t) = &config.trace {
            t.set_current_round(round_no);
        }
        // Health: taking a round is progress (stall detection); its
        // commit grades the SLO against the same round-start instant.
        if let Some(h) = &config.health {
            h.note_round_start();
        }
        let round_started = (config.trace.is_some() || config.health.is_some()).then(Instant::now);
        // Coalesce wait: how long the round's oldest request sat admitted.
        if let Some(oldest) = round.iter().map(|r| r.admitted).min() {
            let waited = oldest.elapsed();
            shared.metrics.coalesce_wait_ns.record_duration(waited);
            if let Some(t) = &config.trace {
                t.record_parts(
                    round_no,
                    Stage::CoalesceWait,
                    oldest,
                    waited,
                    total_ops as u64,
                    None,
                );
            }
        }

        // Phase 2: apply the round as ONE mixed-op batch, outside the lock.
        let mut ops: Vec<Op> = Vec::with_capacity(total_ops);
        for req in &round {
            ops.extend_from_slice(&req.ops);
        }

        // Durability hook: the round's contents are fixed now, so log it
        // BEFORE apply — one append (and one fsync) per commit round,
        // which is what makes group commit and group fsync coincide. A
        // round that cannot be made durable must not commit: fail its
        // tickets with the hook's error and stop the service.
        if let Some(hook) = &config.round_hook {
            if let Err(e) = hook(round_no, &ops) {
                // Close admission BEFORE resolving the round's tickets:
                // a client that sees its ticket fail must not race a
                // still-open queue.
                fail_all_pending(&shared, &[]);
                for req in &round {
                    req.slot.fill(Err(e.clone()));
                }
                return (backend, log);
            }
        }
        // From here on, an apply failure must un-log the round: clients
        // are told it never committed, so recovery must not find it.
        let abort_logged_round = || {
            if let Some(abort) = &config.round_abort {
                // Best effort — the service is already failing, and the
                // abort hook's own error cannot make things more failed.
                let _ = abort(round_no, &ops);
            }
        };

        // A panicking backend must not strand clients on their tickets:
        // catch the unwind, resolve everything pending, then re-raise (the
        // panic resurfaces at `join`).
        let apply_started = Instant::now();
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &pool {
            Some(p) => p.install(|| backend.apply(&ops)),
            None => backend.apply(&ops),
        }));
        let applied = match applied {
            Ok(applied) => applied,
            Err(panic) => {
                abort_logged_round();
                fail_all_pending(&shared, &round);
                std::panic::resume_unwind(panic);
            }
        };
        shared
            .metrics
            .apply_ns
            .record_duration(apply_started.elapsed());
        if let Some(t) = &config.trace {
            t.record(round_no, Stage::Apply, apply_started, total_ops as u64);
        }

        // Phase 3: publish the round's view, then hand each submitter its
        // slice of the answers.
        match applied {
            Ok(result) => {
                let version = config.first_version + round_no;
                // Publish BEFORE resolving tickets: a client that saw its
                // ticket commit as `version` must find `read_view_at(version)`
                // already there.
                if let Some(publisher) = &publisher {
                    traced(config.trace.as_ref(), round_no, Stage::Publish, 0, || {
                        publish_view(publisher, &backend, num_vertices, version, &shared.metrics)
                    });
                }
                shared.rounds_committed.fetch_add(1, Ordering::Relaxed);
                shared
                    .ops_committed
                    .fetch_add(ops.len() as u64, Ordering::Relaxed);
                shared.metrics.rounds_committed.inc();
                shared.metrics.ops_committed.add(ops.len() as u64);
                shared.metrics.round_size_ops.record(ops.len() as u64);
                if let (Some(h), Some(started)) = (&config.health, round_started) {
                    h.note_round_commit(started.elapsed());
                }
                // Wake min_version fences now that the commit counter
                // advanced (the notify pairs with the fence's q-lock wait).
                {
                    let _q = shared.q.lock().unwrap();
                    shared.commits.notify_all();
                }
                // The fill span counts requests resolved, not ops — a
                // round's fill cost scales with its coalesced clients.
                traced(
                    config.trace.as_ref(),
                    round_no,
                    Stage::Fill,
                    round.len() as u64,
                    || {
                        let mut cursor = result.answers.iter().copied();
                        for req in &round {
                            let queries = req
                                .ops
                                .iter()
                                .filter(|op| op.kind() == OpKind::Query)
                                .count();
                            let answers: Vec<bool> = cursor.by_ref().take(queries).collect();
                            debug_assert_eq!(answers.len(), queries, "answer underrun");
                            req.slot.fill(Ok(RequestResult {
                                round: round_no,
                                version,
                                inserted: result.inserted,
                                deleted: result.deleted,
                                answers,
                            }));
                        }
                    },
                );
                if let (Some(t), Some(started)) = (&config.trace, round_started) {
                    t.complete_round(round_no, started.elapsed(), total_ops as u64);
                }
                if config.record_rounds {
                    log.push(RoundRecord {
                        round: round_no,
                        ops,
                        result,
                    });
                }
            }
            Err(e) => {
                // Defensive only: admission validates vertices *and* op
                // kinds against the backend's static capabilities, so a
                // round has no expected failure path left. Should a
                // backend refuse anyway, it has applied a prefix of the
                // round (`apply`'s documented partial semantics) that the
                // replay log cannot represent — un-log the round, fail
                // its tickets and stop the service rather than committing
                // divergent history; requests already queued behind it
                // resolve too.
                abort_logged_round();
                fail_all_pending(&shared, &[]);
                for req in &round {
                    req.slot.fill(Err(e.clone()));
                }
                return (backend, log);
            }
        }
    }
}

/// Shutdown-on-failure path: close admission, wake blocked submitters and
/// resolve every still-queued request with [`DynConError::ServiceClosed`]
/// so no client is left parked on a ticket.
fn fail_all_pending(shared: &Shared, round_in_flight: &[Request]) {
    for req in round_in_flight {
        req.slot.fill(Err(DynConError::ServiceClosed));
    }
    let mut q = shared.q.lock().unwrap();
    q.closed = true;
    let mut pending: Vec<Request> = q.sealed.drain(..).flatten().collect();
    pending.append(&mut q.open);
    // Dropping a pending inspection hangs up its result channel, which
    // resolves its caller with `ServiceClosed` — the backend may be
    // mid-failure, so the closures must NOT run.
    q.inspects.clear();
    q.queued = 0;
    q.open_ops = 0;
    q.open_since = None;
    drop(q);
    shared.space.notify_all();
    shared.submitted.notify_all();
    shared.commits.notify_all();
    for req in pending {
        req.slot.fill(Err(DynConError::ServiceClosed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_api::Connectivity;
    use dyncon_core::BatchDynamicConnectivity;
    use dyncon_spanning::IncrementalConnectivity;
    use std::time::Duration;

    /// Options submitting on behalf of client `id`.
    fn client(id: u64) -> SubmitOptions {
        SubmitOptions::new().as_client(id)
    }

    fn server(n: usize, config: ServerConfig) -> ConnServer<BatchDynamicConnectivity> {
        ConnServer::start(BatchDynamicConnectivity::new(n), config)
    }

    #[test]
    fn single_client_round_trip() {
        let s = server(8, ServerConfig::new());
        let t = s
            .submit_with(
                vec![Op::Insert(0, 1), Op::Query(0, 1), Op::Query(0, 2)],
                SubmitOptions::new(),
            )
            .unwrap();
        let r = t.wait().unwrap();
        assert_eq!(r.answers, vec![true, false]);
        let report = s.join();
        assert_eq!(report.rounds_committed, 1);
        assert_eq!(report.ops_committed, 3);
        assert!(report.backend.connected(0, 1));
    }

    #[test]
    fn group_commit_coalesces_requests_into_one_round() {
        // Deterministic mode gives an explicit boundary: three requests,
        // one seal, one round, one apply.
        let s = server(
            8,
            ServerConfig::new().deterministic(true).record_rounds(true),
        );
        let t1 = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        let t2 = s.submit_with(vec![Op::Insert(1, 2)], client(1)).unwrap();
        let t3 = s.submit_with(vec![Op::Query(0, 2)], client(2)).unwrap();
        assert_eq!(s.seal_round(), 3);
        // All three land in round 0; the query sees both inserts because
        // apply's run-splitting preserves op order within the round.
        assert_eq!(t1.wait().unwrap().round, 0);
        assert_eq!(t2.wait().unwrap().round, 0);
        let r3 = t3.wait().unwrap();
        assert_eq!((r3.round, r3.answers.as_slice()), (0, &[true][..]));
        let report = s.join();
        assert_eq!(report.rounds_committed, 1);
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(
            report.rounds[0].ops,
            vec![Op::Insert(0, 1), Op::Insert(1, 2), Op::Query(0, 2)]
        );
        assert_eq!(report.rounds[0].result.inserted, 2);
    }

    #[test]
    fn canonical_order_sorts_by_client_then_program_order() {
        let s = server(
            8,
            ServerConfig::new().deterministic(true).record_rounds(true),
        );
        // Submit in scrambled client order; the sealed round must come out
        // client-major, program-order within each client.
        let tb = s.submit_with(vec![Op::Insert(2, 3)], client(7)).unwrap();
        let ta1 = s.submit_with(vec![Op::Insert(0, 1)], client(1)).unwrap();
        let ta2 = s.submit_with(vec![Op::Query(0, 1)], client(1)).unwrap();
        s.seal_round();
        for t in [tb, ta1, ta2] {
            t.wait().unwrap();
        }
        let report = s.join();
        assert_eq!(
            report.rounds[0].ops,
            vec![Op::Insert(0, 1), Op::Query(0, 1), Op::Insert(2, 3)]
        );
    }

    #[test]
    fn batch_cap_splits_rounds_and_oversized_requests_commit_alone() {
        let s = server(
            16,
            ServerConfig::new()
                .batch_cap(4)
                .coalesce_wait(Duration::from_millis(40))
                .record_rounds(true),
        );
        // 6 ops in one request: exceeds the cap, must still commit.
        let big: Vec<Op> = (0..6).map(|i| Op::Insert(i, i + 1)).collect();
        let t1 = s.submit_with(big, SubmitOptions::new()).unwrap();
        assert_eq!(t1.wait().unwrap().round, 0);
        // Two 3-op requests: the second overflows the 4-op cap, so they
        // commit as separate rounds (no starvation: the leftover keeps
        // its admission deadline).
        let t2 = s
            .submit_with(vec![Op::Query(0, 6); 3], SubmitOptions::new())
            .unwrap();
        let t3 = s
            .submit_with(vec![Op::Query(0, 6); 3], SubmitOptions::new())
            .unwrap();
        let (r2, r3) = (t2.wait().unwrap(), t3.wait().unwrap());
        assert!(r3.round > r2.round, "{} vs {}", r3.round, r2.round);
        assert_eq!(r2.answers, vec![true; 3]);
        let report = s.join();
        assert_eq!(report.rounds_committed, 3);
        assert_eq!(report.ops_committed, 12);
    }

    #[test]
    fn coalesce_window_commits_partial_batches() {
        // Far-below-cap traffic must still commit within the window.
        let s = server(
            8,
            ServerConfig::new()
                .batch_cap(1 << 20)
                .coalesce_wait(Duration::from_micros(50)),
        );
        let t = s
            .submit_with(
                vec![Op::Insert(0, 1), Op::Query(0, 1)],
                SubmitOptions::new(),
            )
            .unwrap();
        assert_eq!(t.wait().unwrap().answers, vec![true]);
        s.join();
    }

    #[test]
    fn submit_validates_vertices_at_admission() {
        let s = server(4, ServerConfig::new());
        let err = s
            .submit_with(vec![Op::Insert(0, 9)], SubmitOptions::new())
            .unwrap_err();
        assert_eq!(
            err,
            DynConError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 4
            }
        );
        let report = s.join();
        assert_eq!(report.rounds_committed, 0);
    }

    #[test]
    fn unsupported_ops_are_bounced_at_admission() {
        // An insert-only backend refuses deletions *statically*, so the
        // server rejects the request before it can poison a round that
        // other clients' requests share.
        let uf = IncrementalConnectivity::new(8);
        let s = ConnServer::start(uf, ServerConfig::new().deterministic(true));
        let t1 = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        let err = s
            .submit_with(vec![Op::Insert(1, 2), Op::Delete(0, 1)], client(1))
            .unwrap_err();
        assert_eq!(
            err,
            DynConError::Unsupported {
                backend: "incremental-unionfind",
                operation: "batch_delete",
            }
        );
        // The admitted insert still commits; the rejected request never
        // entered the queue.
        s.seal_round();
        assert_eq!(t1.wait().unwrap().round, 0);
        let report = s.join();
        assert_eq!(report.ops_committed, 1);
        // Queries remain admissible on the insert-only backend.
        assert!(report.backend.connected(0, 1));
    }

    /// A backend whose `apply` panics after `panic_after` successful
    /// rounds — the writer-crash scenario.
    struct Bomb {
        inner: BatchDynamicConnectivity,
        rounds_left: usize,
    }

    impl dyncon_api::Connectivity for Bomb {
        fn backend_name(&self) -> &'static str {
            "bomb"
        }
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn connected(&self, u: u32, v: u32) -> bool {
            dyncon_api::Connectivity::connected(&self.inner, u, v)
        }
        fn num_components(&self) -> usize {
            dyncon_api::Connectivity::num_components(&self.inner)
        }
        fn component_size(&self, v: u32) -> u64 {
            dyncon_api::Connectivity::component_size(&self.inner, v)
        }
    }

    impl BatchDynamic for Bomb {
        fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
            BatchDynamic::batch_insert(&mut self.inner, edges)
        }
        fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
            BatchDynamic::batch_delete(&mut self.inner, edges)
        }
        fn apply(&mut self, ops: &[Op]) -> Result<dyncon_api::BatchResult, DynConError> {
            if self.rounds_left == 0 {
                panic!("bomb backend detonated");
            }
            self.rounds_left -= 1;
            self.inner.apply(ops)
        }
    }

    #[test]
    fn backend_panic_resolves_every_pending_ticket() {
        let bomb = Bomb {
            inner: BatchDynamicConnectivity::new(8),
            rounds_left: 1,
        };
        let s = ConnServer::start(bomb, ServerConfig::new().deterministic(true));
        let ok = s
            .submit_with(vec![Op::Insert(0, 1), Op::Query(0, 1)], client(0))
            .unwrap();
        s.seal_round();
        assert_eq!(ok.wait().unwrap().answers, vec![true]);
        // Round 1 detonates; its ticket AND a request racing the crash
        // must both resolve instead of hanging forever.
        let in_flight = s.submit_with(vec![Op::Insert(1, 2)], client(0)).unwrap();
        s.seal_round();
        // This submit races the detonation: it is either bounced at
        // admission (already closed) or admitted and then failed by the
        // crash cleanup — never left hanging.
        match s.submit_with(vec![Op::Query(0, 1)], client(1)) {
            Ok(ticket) => assert_eq!(ticket.wait().unwrap_err(), DynConError::ServiceClosed),
            Err(e) => assert_eq!(e, DynConError::ServiceClosed),
        }
        assert_eq!(in_flight.wait().unwrap_err(), DynConError::ServiceClosed);
        // Admission is closed after the crash…
        assert_eq!(
            s.submit_with(vec![Op::Query(0, 1)], client(2)).unwrap_err(),
            DynConError::ServiceClosed
        );
        // …and the writer's panic resurfaces at join.
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.join()));
        assert!(joined.is_err(), "join must surface the backend panic");
    }

    #[test]
    fn tickets_carry_round_level_mutation_counts() {
        let s = server(8, ServerConfig::new().deterministic(true));
        // Two requests coalesce into one round: every ticket of the round
        // reports the SAME round-level aggregates (2 inserted, 1 deleted),
        // while answers stay per-request.
        let t1 = s
            .submit_with(
                vec![Op::Insert(0, 1), Op::Insert(1, 2), Op::Delete(0, 1)],
                client(0),
            )
            .unwrap();
        let t2 = s.submit_with(vec![Op::Query(0, 2)], client(1)).unwrap();
        s.seal_round();
        let (r1, r2) = (t1.wait().unwrap(), t2.wait().unwrap());
        assert_eq!((r1.inserted, r1.deleted), (2, 1));
        assert_eq!((r2.inserted, r2.deleted), (2, 1));
        assert_eq!(r1.answers, Vec::<bool>::new());
        assert_eq!(r2.answers, vec![false], "0-1 was deleted in the round");
        s.join();
    }

    #[test]
    fn inspect_runs_between_rounds_and_sees_committed_state() {
        let s = server(8, ServerConfig::new().deterministic(true));
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        // The ticket resolved, so the inspection observes its round.
        let (connected, name) = s
            .inspect(|b| (b.connected(0, 1), b.backend_name()))
            .unwrap();
        assert!(connected);
        assert_eq!(name, s.backend_name());
        // Interleave: inspect, mutate, inspect again.
        let t = s.submit_with(vec![Op::Delete(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        assert!(!s.inspect(|b| b.connected(0, 1)).unwrap());
        s.join();
    }

    #[test]
    fn inspect_after_close_or_crash_fails_instead_of_hanging() {
        let s = server(8, ServerConfig::new());
        s.close();
        assert_eq!(
            s.inspect(|b| b.num_components()).unwrap_err(),
            DynConError::ServiceClosed
        );
        s.join();
        // Crash path: pending inspections are dropped, not run.
        let bomb = Bomb {
            inner: BatchDynamicConnectivity::new(8),
            rounds_left: 0,
        };
        let s = ConnServer::start(bomb, ServerConfig::new().deterministic(true));
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        assert!(t.wait().is_err());
        assert_eq!(
            s.inspect(|b| b.num_components()).unwrap_err(),
            DynConError::ServiceClosed
        );
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.join()));
        assert!(joined.is_err());
    }

    #[test]
    fn deterministic_mode_without_recording_keeps_no_round_log() {
        // Regression: the in-memory round log must be gated ONLY by
        // `record_rounds` — deterministic long-running servers would
        // otherwise grow memory without bound.
        let s = server(8, ServerConfig::new().deterministic(true));
        let t = s
            .submit_with(vec![Op::Insert(0, 1), Op::Query(0, 1)], client(0))
            .unwrap();
        s.seal_round();
        assert_eq!(t.wait().unwrap().answers, vec![true]);
        let report = s.join();
        assert_eq!(report.rounds_committed, 1, "the round still committed");
        assert!(report.rounds.is_empty(), "but nothing was recorded");
    }

    #[test]
    fn round_hook_sees_each_round_before_apply() {
        use std::sync::Mutex;
        type SeenRounds = Arc<Mutex<Vec<(u64, Vec<Op>)>>>;
        let seen: SeenRounds = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let config =
            ServerConfig::new()
                .deterministic(true)
                .round_hook(Arc::new(move |round, ops| {
                    sink.lock().unwrap().push((round, ops.to_vec()));
                    Ok(())
                }));
        let s = server(8, config);
        let t1 = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        // Group commit IS the durability barrier: once any ticket of a
        // round resolves, the hook has already run for that round.
        t1.wait().unwrap();
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[(0, vec![Op::Insert(0, 1)])]
        );
        let t2 = s
            .submit_with(vec![Op::Query(0, 1), Op::Delete(0, 1)], client(0))
            .unwrap();
        s.seal_round();
        t2.wait().unwrap();
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[
                (0, vec![Op::Insert(0, 1)]),
                (1, vec![Op::Query(0, 1), Op::Delete(0, 1)])
            ]
        );
        s.join();
    }

    #[test]
    fn failing_round_hook_fails_the_round_and_stops_the_service() {
        let storage_error = DynConError::Storage {
            path: "/dev/full".into(),
            message: "No space left on device".into(),
        };
        let e = storage_error.clone();
        let config =
            ServerConfig::new()
                .deterministic(true)
                .round_hook(Arc::new(
                    move |round, _ops| {
                        if round == 0 {
                            Ok(())
                        } else {
                            Err(e.clone())
                        }
                    },
                ));
        let s = server(8, config);
        let ok = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        assert_eq!(ok.wait().unwrap().round, 0);
        // Round 1 cannot be made durable: its ticket carries the hook's
        // typed error, nothing is applied, and admission closes.
        let failed = s
            .submit_with(vec![Op::Insert(1, 2), Op::Query(1, 2)], client(0))
            .unwrap();
        s.seal_round();
        assert_eq!(failed.wait().unwrap_err(), storage_error);
        assert_eq!(
            s.submit_with(vec![Op::Query(0, 1)], client(1)).unwrap_err(),
            DynConError::ServiceClosed
        );
        let report = s.join();
        assert_eq!(report.rounds_committed, 1, "failed round never committed");
        assert!(report.backend.connected(0, 1));
        assert!(!report.backend.connected(1, 2), "failed round not applied");
    }

    #[test]
    fn apply_panic_after_successful_hook_triggers_the_abort_hook() {
        use std::sync::Mutex;
        // A round that was logged (hook succeeded) but whose apply then
        // panicked must be un-logged: clients are told it failed, so the
        // durability layer has to be able to retract it.
        let logged: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let aborted: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let (log_sink, abort_sink) = (Arc::clone(&logged), Arc::clone(&aborted));
        let config = ServerConfig::new()
            .deterministic(true)
            .round_hook(Arc::new(move |round, _ops| {
                log_sink.lock().unwrap().push(round);
                Ok(())
            }))
            .round_abort(Arc::new(move |round, _ops| {
                abort_sink.lock().unwrap().push(round);
                Ok(())
            }));
        let bomb = Bomb {
            inner: BatchDynamicConnectivity::new(8),
            rounds_left: 1,
        };
        let s = ConnServer::start(bomb, config);
        let ok = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        ok.wait().unwrap();
        let boom = s.submit_with(vec![Op::Insert(1, 2)], client(0)).unwrap();
        s.seal_round();
        assert!(boom.wait().is_err());
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.join()));
        assert!(joined.is_err(), "the backend panic resurfaces at join");
        // Round 0 was logged and committed; round 1 was logged, its
        // apply detonated, and the abort hook retracted exactly it.
        assert_eq!(*logged.lock().unwrap(), vec![0, 1]);
        assert_eq!(*aborted.lock().unwrap(), vec![1]);
    }

    #[test]
    fn empty_request_is_a_durable_flush() {
        let s = server(4, ServerConfig::new());
        let t0 = s
            .submit_with(vec![Op::Insert(0, 1)], SubmitOptions::new())
            .unwrap();
        let t = s.submit_with(Vec::new(), SubmitOptions::new()).unwrap();
        let r = t.wait().unwrap();
        assert!(r.answers.is_empty());
        // Group commit: by the time any ticket of a round resolves, every
        // earlier round is durable.
        assert!(t0.ready() || t0.wait().is_ok());
        s.join();
    }

    #[test]
    fn drop_without_join_still_resolves_tickets() {
        let s = server(
            8,
            ServerConfig::new().coalesce_wait(Duration::from_millis(20)),
        );
        let t = s
            .submit_with(
                vec![Op::Insert(0, 1), Op::Query(0, 1)],
                SubmitOptions::new(),
            )
            .unwrap();
        drop(s);
        assert_eq!(t.wait().unwrap().answers, vec![true]);
    }

    #[test]
    fn metrics_observe_the_round_lifecycle() {
        let registry = dyncon_metrics::Registry::new();
        let s = server(
            8,
            ServerConfig::new()
                .deterministic(true)
                .queue_capacity(2)
                .metrics(registry.clone()),
        );
        let t1 = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        let t2 = s.submit_with(vec![Op::Query(0, 1)], client(1)).unwrap();
        // Queue full at 2 admitted requests: a backpressure reject.
        assert!(matches!(
            s.submit_with(vec![Op::Query(0, 1)], client(2)),
            Err(DynConError::Backpressure { .. })
        ));
        // Out-of-range vertex: an admission (validation) reject.
        assert!(s.submit_with(vec![Op::Insert(0, 99)], client(2)).is_err());
        s.seal_round();
        t1.wait().unwrap();
        t2.wait().unwrap();
        // Live snapshot: the queue drained, high-water mark was 2.
        assert_eq!(
            s.metrics_snapshot()
                .get("dyncon_server_queue_depth")
                .unwrap()
                .value
                .as_gauge(),
            Some((0, 2))
        );
        let report = s.join();
        let get = |name: &str| report.metrics.get(name).unwrap().value.clone();
        assert_eq!(
            get("dyncon_server_rounds_committed_total").as_counter(),
            Some(1)
        );
        assert_eq!(
            get("dyncon_server_ops_committed_total").as_counter(),
            Some(2)
        );
        assert_eq!(
            get("dyncon_server_backpressure_rejects_total").as_counter(),
            Some(1)
        );
        assert_eq!(
            get("dyncon_server_admission_rejects_total").as_counter(),
            Some(1)
        );
        let sizes = get("dyncon_server_round_size_ops");
        let sizes = sizes.as_histogram().unwrap();
        assert_eq!((sizes.count, sizes.sum), (1, 2));
        let apply = get("dyncon_server_apply_ns");
        assert_eq!(apply.as_histogram().unwrap().count, 1);
        let wait = get("dyncon_server_coalesce_wait_ns");
        assert_eq!(wait.as_histogram().unwrap().count, 1);
        // The caller's registry IS the report's registry.
        assert_eq!(registry.snapshot(), report.metrics);
    }

    #[test]
    fn metrics_default_to_a_private_registry() {
        // No registry passed: instrumentation still works, surfaced only
        // through the report and the live snapshot.
        let s = server(8, ServerConfig::new());
        s.submit_with(vec![Op::Insert(0, 1)], SubmitOptions::new())
            .unwrap()
            .wait()
            .unwrap();
        let report = s.join();
        assert_eq!(
            report
                .metrics
                .get("dyncon_server_rounds_committed_total")
                .unwrap()
                .value
                .as_counter(),
            Some(1)
        );
    }

    #[test]
    fn accessors() {
        let s = server(16, ServerConfig::new());
        assert_eq!(s.num_vertices(), 16);
        assert!(!s.backend_name().is_empty());
        let t = s
            .submit_with(vec![Op::Insert(0, 1)], SubmitOptions::new())
            .unwrap();
        t.wait().unwrap();
        assert_eq!(s.rounds_committed(), 1);
        assert_eq!(s.ops_committed(), 1);
        s.join();
    }

    fn versioned_server(n: usize, config: ServerConfig) -> ConnServer<BatchDynamicConnectivity> {
        ConnServer::start_versioned(BatchDynamicConnectivity::new(n), config)
    }

    #[test]
    fn versioned_server_publishes_one_view_per_round() {
        let s = versioned_server(8, ServerConfig::new().deterministic(true).retain_views(2));
        assert_eq!(s.version_window(), None, "nothing committed yet");
        assert_eq!(s.newest_committed(), None);
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        let r = t.wait().unwrap();
        assert_eq!((r.round, r.version), (0, 0));
        // The view of the committed version is already there (publish
        // happens before the ticket resolves) and answers as-of.
        let v0 = s.read_view_at(r.version).unwrap();
        assert!(v0.connected(0, 1));
        assert!(!v0.connected(0, 2));
        let t = s.submit_with(vec![Op::Insert(1, 2)], client(0)).unwrap();
        s.seal_round();
        let r1 = t.wait().unwrap();
        assert_eq!(r1.version, 1);
        // v0 is immutable: it still answers as of version 0.
        assert!(!v0.connected(0, 2));
        assert!(s.read_view().unwrap().connected(0, 2));
        assert_eq!(s.version_window(), Some((0, 1)));
        // A third round evicts version 0 from the retain=2 window.
        let t = s.submit_with(vec![Op::Delete(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        assert_eq!(s.version_window(), Some((1, 2)));
        assert_eq!(
            s.read_view_at(0).unwrap_err(),
            DynConError::UnknownVersion {
                requested: 0,
                oldest: 1,
                newest: 2
            }
        );
        s.join();
    }

    #[test]
    fn unversioned_server_has_no_views() {
        let s = server(8, ServerConfig::new());
        s.submit_with(vec![Op::Insert(0, 1)], SubmitOptions::new())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(s.version_window(), None);
        assert!(matches!(
            s.read_view().unwrap_err(),
            DynConError::UnknownVersion { .. }
        ));
        // newest_committed still advances: it is a commit fact, not a
        // retention fact.
        assert_eq!(s.newest_committed(), Some(0));
        s.join();
    }

    #[test]
    fn versioned_server_with_zero_retention_publishes_nothing() {
        // `retain_views` alone turns views on: 0 publishes nothing under
        // `start_versioned` too.
        let s = versioned_server(8, ServerConfig::new().deterministic(true).retain_views(0));
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        let empty = dyncon_api::empty_window_error(0);
        assert_eq!(s.read_view().unwrap_err(), empty);
        let snap = s.metrics_snapshot();
        let publish = snap.get("dyncon_server_snapshot_publish_ns").unwrap();
        assert_eq!(publish.value.as_histogram().unwrap().count, 0);
        s.join();
    }

    #[test]
    fn min_version_fence_gates_admission() {
        let s = versioned_server(8, ServerConfig::new().deterministic(true));
        // Non-blocking fence on a future version: typed rejection.
        let err = s
            .submit_with(
                vec![Op::Query(0, 1)],
                SubmitOptions::new().as_client(0).min_version(0),
            )
            .unwrap_err();
        assert!(
            matches!(err, DynConError::UnknownVersion { requested: 0, .. }),
            "{err:?}"
        );
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        assert_eq!(t.wait().unwrap().version, 0);
        // Version 0 committed: the same fence now admits, and the round
        // observes the fenced write (read-your-writes).
        let t = s
            .submit_with(
                vec![Op::Query(0, 1)],
                SubmitOptions::new().as_client(0).min_version(0),
            )
            .unwrap();
        s.seal_round();
        assert_eq!(t.wait().unwrap().answers, vec![true]);
        s.join();
    }

    #[test]
    fn blocking_fence_waits_for_the_commit() {
        let s = Arc::new(versioned_server(8, ServerConfig::new().deterministic(true)));
        let fenced = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                s.submit_with(
                    vec![Op::Query(0, 1)],
                    SubmitOptions::new()
                        .as_client(9)
                        .blocking(true)
                        .min_version(0),
                )
                .and_then(|t| {
                    // The fenced request is admitted into the NEXT round;
                    // seal it from here (the submitting side) so the test
                    // does not race the main thread's seals.
                    s.seal_round();
                    t.wait()
                })
            })
        };
        // Give the fence a moment to park, then commit version 0.
        std::thread::sleep(Duration::from_millis(10));
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        let r = fenced.join().unwrap().unwrap();
        assert_eq!(r.answers, vec![true], "fence admitted after version 0");
        assert!(r.version >= 1);
        Arc::try_unwrap(s).ok().expect("last owner").join();
    }

    #[test]
    fn blocking_fence_fails_on_close_instead_of_hanging() {
        let s = Arc::new(versioned_server(8, ServerConfig::new().deterministic(true)));
        let fenced = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                s.submit_with(
                    vec![Op::Query(0, 1)],
                    SubmitOptions::new().blocking(true).min_version(7),
                )
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        s.close();
        assert_eq!(
            fenced.join().unwrap().unwrap_err(),
            DynConError::ServiceClosed
        );
        Arc::try_unwrap(s).ok().expect("last owner").join();
    }

    #[test]
    fn read_async_runs_on_the_reader_pool() {
        let config = ServerConfig::new().deterministic(true).retain_views(8);
        let s = versioned_server(8, config.reader_threads(2));
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| s.read_async(|view| (view.version(), view.connected(0, 1))))
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap().unwrap(), (0, true));
        }
        // An out-of-window version resolves immediately with the error.
        let h = s.read_async_at(42, |view| view.version());
        assert!(h.wait().unwrap().is_err());
        s.join();
    }

    #[test]
    fn inspect_versioned_names_the_observed_version() {
        let s = versioned_server(8, ServerConfig::new().deterministic(true));
        assert_eq!(
            s.inspect_versioned(|_, version| version).unwrap(),
            None,
            "no round committed yet"
        );
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        let (version, connected) = s
            .inspect_versioned(|b, version| (version, b.connected(0, 1)))
            .unwrap();
        assert_eq!(version, Some(0));
        assert!(connected);
        s.join();
    }

    #[test]
    fn view_metrics_count_requests_and_retention() {
        let registry = dyncon_metrics::Registry::new();
        let s = versioned_server(
            8,
            ServerConfig::new()
                .deterministic(true)
                .retain_views(4)
                .metrics(registry.clone()),
        );
        let t = s.submit_with(vec![Op::Insert(0, 1)], client(0)).unwrap();
        s.seal_round();
        t.wait().unwrap();
        s.read_view().unwrap();
        s.read_view_at(0).unwrap();
        let _ = s.read_view_at(9); // rejected, still counted
        let snap = s.metrics_snapshot();
        let get = |name: &str| snap.get(name).unwrap().value.clone();
        assert_eq!(
            get("dyncon_server_read_view_requests_total").as_counter(),
            Some(3)
        );
        assert_eq!(
            get("dyncon_server_snapshot_retained").as_gauge(),
            Some((1, 1))
        );
        assert_eq!(
            get("dyncon_server_snapshot_publish_ns")
                .as_histogram()
                .unwrap()
                .count,
            1
        );
        assert_eq!(
            get("dyncon_server_read_view_age_rounds")
                .as_histogram()
                .unwrap()
                .count,
            2,
            "only served views record an age"
        );
        s.join();
    }
}
