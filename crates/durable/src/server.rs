//! The durable group-commit frontend: a [`ConnServer`] whose every
//! sealed round is appended (and fsynced, per policy) to the write-ahead
//! log *before* it is applied — group commit and group fsync coincide.

use crate::metrics::DurableMetrics;
use crate::recover::{recover_with, RoundMeta};
use crate::wal::{FsyncPolicy, WalWriter};
use crate::Snapshot;
use dyncon_api::{BatchDynamic, BuildFrom, Builder, DynConError, ExportEdges, Op};
use dyncon_server::{ConnServer, ServerConfig, ServiceReport};
use dyncon_trace::Stage;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Durability knobs of a [`DurableServer`].
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// When WAL appends reach stable storage (default: every round).
    pub fsync: FsyncPolicy,
    /// Snapshot + truncate the WAL when the server joins (default: on),
    /// so the next open replays a short log. Turn off to leave the full
    /// log in place — e.g. to keep replayable history, or in crash tests.
    pub compact_on_join: bool,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::EveryRound,
            compact_on_join: true,
        }
    }
}

impl DurableConfig {
    /// The defaults: fsync every round, compact at join.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the [`FsyncPolicy`].
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Toggle compaction at [`DurableServer::join`].
    pub fn compact_on_join(mut self, enabled: bool) -> Self {
        self.compact_on_join = enabled;
        self
    }
}

/// What [`DurableServer::join`] returns.
#[derive(Debug)]
pub struct DurableReport<B> {
    /// The wrapped service's report (backend, counters, optional
    /// in-memory round log).
    pub service: ServiceReport<B>,
    /// Round id the next process will continue logging at.
    pub next_round: u64,
    /// Whether the WAL was compacted into a snapshot at join.
    pub compacted: bool,
}

/// A [`ConnServer`] with an etcd-style durability spine: recover on
/// open, write-ahead log every sealed round, snapshot on close.
///
/// The round hook ties the two layers together: the server's writer
/// thread calls it once per commit round, after the round's operations
/// are fixed and before they are applied, so the WAL append + fsync
/// happen exactly once per round no matter how many client requests the
/// round coalesced. A ticket that resolves successfully therefore
/// implies its round is as durable as the fsync policy promises.
///
/// Everything else is the wrapped [`ConnServer`]'s, reached through
/// `Deref`: submission ([`ConnServer::submit_with`]), sealing,
/// [`ConnServer::inspect`], metrics, [`ConnServer::close`] and the
/// [`VersionedRead`](dyncon_api::VersionedRead) surface. What the
/// durable stack adds to them:
///
/// - **Versions are WAL round ids**, so they survive process restarts:
///   a [`SubmitOptions::min_version`](dyncon_server::SubmitOptions::min_version)
///   fence may carry a version from a previous lifetime. After `open`,
///   [`ConnServer::newest_committed`] and the version handed to
///   [`ConnServer::inspect_versioned`] are at least
///   `meta.next_round - 1` (the recovered state), even before a new
///   round commits.
/// - **Recovered state is visible**: an inspection after `open` sees
///   every replayed round, and with [`ServerConfig::retain_views`] > 0
///   the recovered state is published at `open` as the first retained
///   view. [`ConnServer::read_async`] needs `retain_views` > 0.
/// - **One registry for the stack**: [`ConnServer::metrics_snapshot`]
///   holds the serving metrics and the durability metrics (WAL appends,
///   fsyncs, recovery replay) together.
///
/// See `examples/durable_service.rs` for the end-to-end crash/recover
/// loop.
pub struct DurableServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    inner: ConnServer<B>,
    wal: Arc<Mutex<WalWriter>>,
    metrics: Arc<DurableMetrics>,
    registry: dyncon_metrics::Registry,
    dir: PathBuf,
    compact_on_join: bool,
}

impl<B> DurableServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    /// Open the durable directory `dir` and start serving.
    ///
    /// A fresh (or empty) directory is initialized to an empty graph
    /// over `num_vertices` vertices; an existing one is recovered
    /// (snapshot + WAL replay) and `num_vertices` must match the
    /// snapshot. Any `round_hook` already present in `config` is
    /// replaced by the WAL hook.
    pub fn open(
        dir: &Path,
        num_vertices: usize,
        config: ServerConfig,
        durable: DurableConfig,
    ) -> Result<(Self, RoundMeta), DynConError> {
        std::fs::create_dir_all(dir).map_err(|e| crate::wal::storage_err(dir, e))?;
        if Snapshot::load(dir)?.is_none() {
            // First open: make the vertex universe durable immediately so
            // recovery never needs out-of-band configuration.
            Builder::new(num_vertices).validate()?;
            Snapshot {
                num_vertices,
                next_round: 0,
                edges: Vec::new(),
            }
            .write_atomic(dir)?;
        }
        let (backend, meta) = recover_with::<B>(dir, |b| b)?;
        if backend.num_vertices() != num_vertices {
            return Err(DynConError::InvalidVertexCount {
                requested: num_vertices,
            });
        }
        // Pool the durability metrics in the caller's registry when one
        // was passed; otherwise create one registry for both layers, so
        // the service report always shows the whole stack.
        let registry = config.metrics.clone().unwrap_or_default();
        let config = config.metrics(registry.clone());
        let metrics = DurableMetrics::register(&registry);
        metrics.recovery_replayed_rounds.add(meta.replayed_rounds);
        metrics.recovery_replayed_ops.add(meta.replayed_ops);
        let wal = Arc::new(Mutex::new(WalWriter::open(
            dir,
            durable.fsync,
            meta.next_round,
        )?));
        let hook_wal = Arc::clone(&wal);
        let abort_wal = Arc::clone(&wal);
        let hook_metrics = Arc::clone(&metrics);
        let abort_metrics = Arc::clone(&metrics);
        let hook_trace = config.trace.clone();
        let abort_trace = config.trace.clone();
        let hook_health = config.health.clone();
        let abort_health = config.health.clone();
        let config = config
            .round_hook(Arc::new(move |server_round, ops: &[Op]| {
                let mut wal = hook_wal.lock().expect("WAL writer lock poisoned");
                let (bytes_before, fsyncs_before) = (wal.log_bytes(), wal.fsync_count());
                let sync_ns_before = wal.sync_ns();
                let started = Instant::now();
                let appended = wal.append_round(ops).map(|_| ());
                let append_took = started.elapsed();
                hook_metrics.wal_append_ns.record_duration(append_took);
                // A failed append rolls its frame back, so the byte delta
                // is zero exactly when nothing durable was added.
                hook_metrics
                    .wal_append_bytes
                    .add(wal.log_bytes().saturating_sub(bytes_before));
                hook_metrics
                    .wal_fsyncs
                    .add(wal.fsync_count() - fsyncs_before);
                if appended.is_ok() {
                    hook_metrics.wal_rounds_logged.inc();
                } else if let Some(h) = &hook_health {
                    // A failed append closes the service; readiness must
                    // flip before the load balancer retries here.
                    h.note_wal_error();
                }
                if let Some(t) = &hook_trace {
                    let ops_n = ops.len() as u64;
                    t.record_parts(
                        server_round,
                        Stage::WalAppend,
                        started,
                        append_took,
                        ops_n,
                        None,
                    );
                    // The fsync (when the policy made one due) happened
                    // inside the append; attribute its share as a nested
                    // span so the breakdown separates encode+write from
                    // the stable-storage wait.
                    let fsync_ns = wal.sync_ns().saturating_sub(sync_ns_before);
                    if fsync_ns > 0 {
                        let dur = Duration::from_nanos(fsync_ns);
                        t.record_parts(server_round, Stage::WalFsync, started, dur, ops_n, None);
                    }
                }
                appended
            }))
            // A logged round whose apply then fails is un-logged, so the
            // failure the clients see and the durable history agree.
            .round_abort(Arc::new(move |server_round, ops: &[Op]| {
                let mut wal = abort_wal.lock().expect("WAL writer lock poisoned");
                let fsyncs_before = wal.fsync_count();
                let started = Instant::now();
                let aborted = wal.abort_round().map(|_| ());
                abort_metrics
                    .wal_fsyncs
                    .add(wal.fsync_count() - fsyncs_before);
                if aborted.is_ok() {
                    abort_metrics.wal_rounds_aborted.inc();
                } else if let Some(h) = &abort_health {
                    h.note_wal_error();
                }
                if let Some(t) = &abort_trace {
                    t.record(server_round, Stage::WalAbort, started, ops.len() as u64);
                }
                aborted
            }))
            // Versions ARE WAL round ids: the first round this process
            // commits is logged as `meta.next_round`, so recovery and
            // replicas agree on version numbering across lifetimes. The
            // recovered state itself is version `next_round - 1`.
            .first_version(meta.next_round);
        // Versioned reads opt in via `retain_views`; left at 0, the
        // serving layer skips view publication entirely (no per-round
        // export cost).
        let inner = if config.retain_views > 0 {
            ConnServer::start_versioned(backend, config)
        } else {
            ConnServer::start(backend, config)
        };
        Ok((
            Self {
                inner,
                wal,
                metrics,
                registry,
                dir: dir.to_path_buf(),
                compact_on_join: durable.compact_on_join,
            },
            meta,
        ))
    }

    /// Rounds committed by this process (excludes recovered rounds).
    /// Kept inherent (not left to `Deref`): callers that implement a
    /// trait with a method of this name call
    /// `DurableServer::rounds_committed(self)` by path, and a path call
    /// does not go through `Deref` — without this method it would
    /// resolve to the trait method and recurse.
    pub fn rounds_committed(&self) -> u64 {
        self.inner.rounds_committed()
    }

    /// Round id the next sealed round will be logged as.
    pub fn next_round(&self) -> u64 {
        self.wal
            .lock()
            .expect("WAL writer lock poisoned")
            .next_round()
    }

    /// Force every logged round onto stable storage regardless of the
    /// fsync policy.
    pub fn sync(&self) -> Result<(), DynConError> {
        self.wal.lock().expect("WAL writer lock poisoned").sync()
    }

    /// Drain, stop, make the log durable, and (per
    /// [`DurableConfig::compact_on_join`]) compact it into a snapshot.
    pub fn join(self) -> Result<DurableReport<B>, DynConError> {
        let mut service = self.inner.join();
        let mut wal = self.wal.lock().expect("WAL writer lock poisoned");
        let fsyncs_before = wal.fsync_count();
        // Under lax fsync policies the final rounds may still be in
        // the page cache; an orderly shutdown always lands them.
        wal.sync()?;
        let next_round = wal.next_round();
        if self.compact_on_join {
            // Same two steps as `crate::compact`, but on the writer we
            // already hold — no recovery-scale rescan of the log it is
            // about to empty.
            let started = Instant::now();
            crate::Snapshot::capture(&service.backend, next_round).write_atomic(&self.dir)?;
            wal.reset()?;
            self.metrics
                .snapshot_write_ns
                .record_duration(started.elapsed());
        }
        self.metrics
            .wal_fsyncs
            .add(wal.fsync_count() - fsyncs_before);
        drop(wal);
        // Re-freeze: the inner join snapshotted before the final sync
        // and compaction, whose fsyncs and snapshot timing belong in the
        // report too.
        service.metrics = self.registry.snapshot();
        Ok(DurableReport {
            service,
            next_round,
            compacted: self.compact_on_join,
        })
    }
}

impl<B> Deref for DurableServer<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    type Target = ConnServer<B>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::read_wal;
    use dyncon_api::VersionedRead;
    use dyncon_core::BatchDynamicConnectivity;
    use dyncon_server::SubmitOptions;

    /// Options submitting on behalf of client `id`.
    fn client(id: u64) -> SubmitOptions {
        SubmitOptions::new().as_client(id)
    }

    fn scratch(tag: &str) -> PathBuf {
        // open() creates the directory itself.
        crate::scratch_dir(tag)
    }

    fn open_det(
        dir: &Path,
        durable: DurableConfig,
    ) -> (DurableServer<BatchDynamicConnectivity>, RoundMeta) {
        DurableServer::open(dir, 16, ServerConfig::new().deterministic(true), durable).unwrap()
    }

    #[test]
    fn rounds_are_logged_before_tickets_resolve() {
        let dir = scratch("dsrv-logged");
        let (server, meta) = open_det(&dir, DurableConfig::new().compact_on_join(false));
        assert_eq!(meta.next_round, 0);
        let t = server
            .submit_with(vec![Op::Insert(0, 1), Op::Query(0, 1)], client(0))
            .unwrap();
        server.seal_round();
        assert_eq!(t.wait().unwrap().answers, vec![true]);
        // The ticket resolved ⇒ the round is already on disk (fsync
        // policy is every_round).
        let readout = read_wal(&dir).unwrap().unwrap();
        assert_eq!(readout.records.len(), 1);
        assert_eq!(
            readout.records[0].ops,
            vec![Op::Insert(0, 1), Op::Query(0, 1)]
        );
        let report = server.join().unwrap();
        assert_eq!(report.next_round, 1);
        assert!(!report.compacted);
    }

    #[test]
    fn reopen_recovers_and_continues_round_numbering() {
        let dir = scratch("dsrv-reopen");
        {
            let (server, _) = open_det(&dir, DurableConfig::new().compact_on_join(false));
            for (i, ops) in [vec![Op::Insert(0, 1)], vec![Op::Insert(1, 2)]]
                .into_iter()
                .enumerate()
            {
                let t = server.submit_with(ops, client(0)).unwrap();
                server.seal_round();
                assert_eq!(t.wait().unwrap().round, i as u64);
            }
            server.join().unwrap();
        }
        // Second process lifetime: recovery replays the two rounds, and
        // new rounds continue at id 2.
        let (server, meta) = open_det(&dir, DurableConfig::new());
        assert_eq!((meta.replayed_rounds, meta.next_round), (2, 2));
        assert_eq!(server.next_round(), 2);
        let t = server
            .submit_with(vec![Op::Query(0, 2)], client(0))
            .unwrap();
        server.seal_round();
        assert_eq!(
            t.wait().unwrap().answers,
            vec![true],
            "recovered edges answer"
        );
        let report = server.join().unwrap();
        assert_eq!(report.next_round, 3);
        assert!(report.compacted);
        // Third lifetime: the compacted snapshot carries everything.
        let (_server, meta) = open_det(&dir, DurableConfig::new());
        assert_eq!((meta.snapshot_rounds, meta.replayed_rounds), (3, 0));
    }

    #[test]
    fn vertex_count_mismatch_is_rejected() {
        let dir = scratch("dsrv-mismatch");
        {
            let (server, _) = open_det(&dir, DurableConfig::new());
            server.join().unwrap();
        }
        match DurableServer::<BatchDynamicConnectivity>::open(
            &dir,
            64,
            ServerConfig::new(),
            DurableConfig::new(),
        ) {
            Err(err) => assert_eq!(err, DynConError::InvalidVertexCount { requested: 64 }),
            Ok(_) => panic!("mismatched vertex count must be rejected"),
        }
    }

    #[test]
    fn apply_panic_unlogs_the_round_so_recovery_matches_the_acknowledgement() {
        use dyncon_api::{
            BatchDynamic, BatchResult, BuildFrom, Builder, Connectivity, ExportEdges,
        };
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Applies committed rounds until the fuse runs out, then panics —
        // AFTER the round was appended to the WAL. Fuse is a static so
        // `BuildFrom` (which recovery also calls) can construct it.
        static FUSE: AtomicUsize = AtomicUsize::new(usize::MAX);
        struct Bomb(BatchDynamicConnectivity);
        impl Connectivity for Bomb {
            fn backend_name(&self) -> &'static str {
                "durable-bomb"
            }
            fn num_vertices(&self) -> usize {
                Connectivity::num_vertices(&self.0)
            }
            fn connected(&self, u: u32, v: u32) -> bool {
                Connectivity::connected(&self.0, u, v)
            }
            fn num_components(&self) -> usize {
                Connectivity::num_components(&self.0)
            }
            fn component_size(&self, v: u32) -> u64 {
                Connectivity::component_size(&self.0, v)
            }
        }
        impl BatchDynamic for Bomb {
            fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
                BatchDynamic::batch_insert(&mut self.0, edges)
            }
            fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
                BatchDynamic::batch_delete(&mut self.0, edges)
            }
            fn apply(&mut self, ops: &[Op]) -> Result<BatchResult, DynConError> {
                if FUSE.fetch_sub(1, Ordering::Relaxed) == 0 {
                    panic!("durable bomb detonated");
                }
                self.0.apply(ops)
            }
        }
        impl BuildFrom for Bomb {
            fn build_from(b: &Builder) -> Result<Self, DynConError> {
                Ok(Bomb(BatchDynamicConnectivity::build_from(b)?))
            }
        }
        impl ExportEdges for Bomb {
            fn export_edges(&self) -> Vec<(u32, u32)> {
                self.0.export_edges()
            }
        }

        let dir = scratch("dsrv-abort");
        FUSE.store(1, Ordering::Relaxed); // round 0 applies, round 1 detonates
        let (server, _) = DurableServer::<Bomb>::open(
            &dir,
            16,
            ServerConfig::new().deterministic(true),
            DurableConfig::new().compact_on_join(false),
        )
        .unwrap();
        let ok = server
            .submit_with(vec![Op::Insert(0, 1)], client(0))
            .unwrap();
        server.seal_round();
        ok.wait().unwrap();
        let boom = server
            .submit_with(vec![Op::Insert(1, 2)], client(0))
            .unwrap();
        server.seal_round();
        assert!(boom.wait().is_err(), "the detonated round fails its ticket");
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.join()));
        assert!(joined.is_err(), "the panic resurfaces at join");

        // The failed round was appended before apply, but the abort hook
        // retracted it: on-disk history agrees with what clients saw.
        FUSE.store(usize::MAX, Ordering::Relaxed);
        let readout = read_wal(&dir).unwrap().unwrap();
        assert_eq!(readout.records.len(), 1, "only the committed round remains");
        let (recovered, meta) = crate::recover::<Bomb>(&dir).unwrap();
        assert_eq!(meta.replayed_rounds, 1);
        assert!(recovered.connected(0, 1));
        assert!(
            !recovered.connected(1, 2),
            "the failed round is not replayed"
        );
    }

    #[test]
    fn metrics_observe_the_durability_stack() {
        let dir = scratch("dsrv-metrics");
        {
            let (server, _) = open_det(&dir, DurableConfig::new().compact_on_join(false));
            let t = server
                .submit_with(vec![Op::Insert(0, 1)], client(0))
                .unwrap();
            server.seal_round();
            t.wait().unwrap();
            let report = server.join().unwrap();
            let get = |name: &str| report.service.metrics.get(name).unwrap().value.clone();
            assert_eq!(get("dyncon_wal_rounds_logged_total").as_counter(), Some(1));
            // One frame: 28-byte header + one 9-byte encoded op.
            assert_eq!(get("dyncon_wal_append_bytes_total").as_counter(), Some(37));
            assert!(get("dyncon_wal_fsyncs_total").as_counter().unwrap() >= 2);
            assert_eq!(get("dyncon_wal_rounds_aborted_total").as_counter(), Some(0));
            assert_eq!(
                get("dyncon_recovery_replayed_rounds_total").as_counter(),
                Some(0),
                "fresh directory: nothing replayed"
            );
            // Serving-layer metrics pool into the same registry.
            assert_eq!(
                get("dyncon_server_rounds_committed_total").as_counter(),
                Some(1)
            );
            let append = get("dyncon_wal_append_ns");
            assert_eq!(append.as_histogram().unwrap().count, 1);
        }
        // Second lifetime: recovery replays the round, and the compacting
        // join records a snapshot write.
        let (server, meta) = open_det(&dir, DurableConfig::new());
        assert_eq!((meta.replayed_rounds, meta.replayed_ops), (1, 1));
        let live = server.metrics_snapshot();
        assert_eq!(
            live.get("dyncon_recovery_replayed_ops_total")
                .unwrap()
                .value
                .as_counter(),
            Some(1)
        );
        let report = server.join().unwrap();
        let snap_hist = report
            .service
            .metrics
            .get("dyncon_snapshot_write_ns")
            .unwrap()
            .value
            .as_histogram()
            .unwrap()
            .count;
        assert_eq!(snap_hist, 1, "compaction timing lands in the report");
    }

    #[test]
    fn throughput_mode_is_durable_too() {
        let dir = scratch("dsrv-throughput");
        let total: u64 = {
            let (server, _) = DurableServer::<BatchDynamicConnectivity>::open(
                &dir,
                16,
                ServerConfig::new().coalesce_wait(std::time::Duration::from_micros(50)),
                DurableConfig::new().fsync(FsyncPolicy::EveryNRounds(4)),
            )
            .unwrap();
            for i in 0..10u32 {
                let t = server
                    .submit_with(vec![Op::Insert(i % 8, 8 + i % 8)], SubmitOptions::new())
                    .unwrap();
                t.wait().unwrap();
            }
            let report = server.join().unwrap();
            report.service.ops_committed
        };
        assert_eq!(total, 10);
        let (recovered, _) = crate::recover::<BatchDynamicConnectivity>(&dir).unwrap();
        assert!(recovered.connected(0, 8));
        assert_eq!(recovered.export_edges().len(), 8);
    }

    #[test]
    fn versions_are_wal_round_ids_across_lifetimes() {
        use dyncon_api::Connectivity;
        let dir = scratch("dsrv-versions");
        {
            let (server, _) = DurableServer::<BatchDynamicConnectivity>::open(
                &dir,
                16,
                ServerConfig::new().deterministic(true).retain_views(4),
                DurableConfig::new().compact_on_join(false),
            )
            .unwrap();
            // Fresh directory: nothing committed, nothing to read yet.
            assert_eq!(server.version_window(), None);
            let t = server
                .submit_with(vec![Op::Insert(0, 1)], client(0))
                .unwrap();
            server.seal_round();
            let r = t.wait().unwrap();
            assert_eq!(r.version, 0, "first WAL round id");
            assert!(server.read_view_at(0).unwrap().connected(0, 1));
            let t = server
                .submit_with(vec![Op::Insert(1, 2)], client(0))
                .unwrap();
            server.seal_round();
            assert_eq!(t.wait().unwrap().version, 1);
            server.join().unwrap();
        }
        // Second lifetime: recovery replays WAL rounds 0..=1, so the
        // recovered state is version 1 — published at open, readable
        // before any new round commits, and `newest_committed` agrees.
        let (server, meta) = DurableServer::<BatchDynamicConnectivity>::open(
            &dir,
            16,
            ServerConfig::new().deterministic(true).retain_views(4),
            DurableConfig::new(),
        )
        .unwrap();
        assert_eq!(meta.next_round, 2);
        assert_eq!(server.newest_committed(), Some(1));
        assert_eq!(server.version_window(), Some((1, 1)));
        let recovered = server.read_view().unwrap();
        assert_eq!(recovered.version(), 1);
        assert!(recovered.connected(0, 2), "recovered edges answer");
        // New rounds continue the WAL numbering: the next commit is
        // version 2, and a fence on the recovered version admits at once.
        let t = server
            .submit_with(
                vec![Op::Query(0, 2)],
                SubmitOptions::new().as_client(0).min_version(1),
            )
            .unwrap();
        server.seal_round();
        let r = t.wait().unwrap();
        assert_eq!((r.version, r.answers.as_slice()), (2, &[true][..]));
        assert_eq!(server.version_window(), Some((1, 2)));
        server.join().unwrap();
    }
}
