//! Failure injection and boundary conditions across the public API:
//! degenerate graphs, hostile batches, boundary vertex ids, level-edge
//! cases, and the typed-error contract of the `dyncon-api` boundary.
//! Every case also runs the full invariant checker.

use dyncon_api::{BatchDynamic, Builder, DeletionAlgorithm, DynConError, Op};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_durable::{recover, scratch_dir, DurableConfig, DurableServer, FsyncPolicy, WalWriter};
use dyncon_graphgen::{complete, path};
use dyncon_server::{ConnServer, ServerConfig, SubmitOptions};
use dyncon_spanning::IncrementalConnectivity;
use std::error::Error;

const ALGOS: [DeletionAlgorithm; 2] = [DeletionAlgorithm::Simple, DeletionAlgorithm::Interleaved];

fn build(n: usize, algo: DeletionAlgorithm) -> BatchDynamicConnectivity {
    Builder::new(n).algorithm(algo).build().unwrap()
}

#[test]
fn two_vertex_graph() {
    for algo in ALGOS {
        let mut g = build(2, algo);
        assert_eq!(g.num_levels(), 1);
        assert!(g.insert(0, 1));
        assert!(g.connected(0, 1));
        assert!(g.delete(0, 1));
        assert!(!g.connected(0, 1));
        // Re-insert after delete at the minimum level count.
        assert!(g.insert(1, 0));
        assert!(g.connected(0, 1));
        g.check_invariants().unwrap();
    }
}

#[test]
fn three_vertex_triangle_churn() {
    for algo in ALGOS {
        let mut g = build(3, algo);
        for _ in 0..10 {
            g.batch_insert(&[(0, 1), (1, 2), (2, 0)]);
            g.batch_delete(&[(0, 1)]);
            assert!(g.connected(0, 1));
            g.batch_delete(&[(1, 2), (2, 0)]);
            assert!(!g.connected(0, 1));
            g.check_invariants().unwrap();
        }
    }
}

#[test]
fn batch_with_internal_duplicates_and_loops() {
    let mut g = BatchDynamicConnectivity::new(8);
    let inserted = g.batch_insert(&[(1, 2), (2, 1), (1, 2), (3, 3), (4, 5)]);
    assert_eq!(inserted, 2);
    let deleted = g.batch_delete(&[(2, 1), (1, 2), (6, 7), (5, 5)]);
    assert_eq!(deleted, 1);
    assert_eq!(g.num_edges(), 1);
    g.check_invariants().unwrap();
}

#[test]
fn insert_existing_edge_is_noop() {
    let mut g = BatchDynamicConnectivity::new(4);
    g.insert(0, 1);
    assert_eq!(g.batch_insert(&[(0, 1), (1, 0)]), 0);
    assert_eq!(g.num_edges(), 1);
    g.check_invariants().unwrap();
}

#[test]
fn boundary_vertex_ids() {
    let n = 1000usize;
    let mut g = BatchDynamicConnectivity::new(n);
    let last = (n - 1) as u32;
    g.batch_insert(&[(0, last), (last - 1, last)]);
    assert!(g.connected(0, last - 1));
    g.batch_delete(&[(0, last)]);
    assert!(!g.connected(0, last));
    g.check_invariants().unwrap();
}

// ---- The typed-error contract of the API boundary ---------------------

#[test]
fn out_of_range_vertices_are_typed_errors() {
    let mut g = BatchDynamicConnectivity::new(4);
    // Every op kind is validated, including queries.
    for ops in [
        vec![Op::Insert(0, 4)],
        vec![Op::Delete(4, 0)],
        vec![Op::Query(2, u32::MAX)],
    ] {
        let err = g.apply(&ops).unwrap_err();
        match err {
            DynConError::VertexOutOfRange { num_vertices, .. } => assert_eq!(num_vertices, 4),
            other => panic!("expected VertexOutOfRange, got {other:?}"),
        }
    }
    // Trait-level batch mutations validate too.
    assert!(BatchDynamic::batch_insert(&mut g, &[(1, 9)]).is_err());
    assert!(BatchDynamic::batch_delete(&mut g, &[(9, 1)]).is_err());
    assert_eq!(g.num_edges(), 0);
}

#[test]
fn apply_rejects_wholesale_without_mutating() {
    let mut g = BatchDynamicConnectivity::new(4);
    g.insert(0, 1);
    // Valid prefix + invalid tail: the whole batch must be rejected and
    // the structure left exactly as it was.
    let err = g
        .apply(&[Op::Insert(1, 2), Op::Delete(0, 1), Op::Query(0, 4)])
        .unwrap_err();
    assert_eq!(
        err,
        DynConError::VertexOutOfRange {
            vertex: 4,
            num_vertices: 4
        }
    );
    assert_eq!(g.num_edges(), 1);
    assert!(g.has_edge(0, 1));
    assert!(!g.has_edge(1, 2));
    g.check_invariants().unwrap();
}

#[test]
#[should_panic(expected = "out of range")]
fn inherent_fast_path_still_panics() {
    // The unchecked inherent API keeps its documented panic contract;
    // the trait boundary is where validation lives.
    let mut g = BatchDynamicConnectivity::new(4);
    g.batch_insert(&[(0, 4)]);
}

#[test]
fn builder_rejects_unusable_vertex_counts() {
    match Builder::new(0).build::<BatchDynamicConnectivity>() {
        Err(e) => assert_eq!(e, DynConError::InvalidVertexCount { requested: 0 }),
        Ok(_) => panic!("0 vertices must be rejected"),
    }
    assert!(Builder::new(usize::MAX)
        .build::<BatchDynamicConnectivity>()
        .is_err());
}

#[test]
fn insert_only_backend_refuses_deletions() {
    let mut uf: IncrementalConnectivity = Builder::new(8).build().unwrap();
    uf.apply(&[Op::Insert(0, 1)]).unwrap();
    let err = uf.apply(&[Op::Delete(0, 1)]).unwrap_err();
    assert_eq!(
        err,
        DynConError::Unsupported {
            backend: "incremental-unionfind",
            operation: "batch_delete",
        }
    );
    // The error message owns up to partial application semantics.
    assert!(err.to_string().contains("does not support"));
}

// ---- The serving layer's failure contract ------------------------------

#[test]
fn full_queue_rejects_with_backpressure() {
    // Deterministic mode never commits without a seal, so the queue fills
    // deterministically: capacity 2, third submit must bounce.
    let server = ConnServer::start(
        BatchDynamicConnectivity::new(8),
        ServerConfig::new().deterministic(true).queue_capacity(2),
    );
    let t1 = server
        .submit_with(vec![Op::Insert(0, 1)], SubmitOptions::new().as_client(0))
        .unwrap();
    let t2 = server
        .submit_with(vec![Op::Insert(1, 2)], SubmitOptions::new().as_client(1))
        .unwrap();
    let err = server
        .submit_with(vec![Op::Query(0, 2)], SubmitOptions::new().as_client(2))
        .unwrap_err();
    assert_eq!(err, DynConError::Backpressure { capacity: 2 });
    // Display names the capacity; Error impl is wired up.
    assert!(
        err.to_string().contains("2") && err.to_string().contains("full"),
        "{err}"
    );
    assert!((&err as &dyn Error).source().is_none());
    // The rejected request was never enqueued: the round holds exactly
    // the two admitted requests, and draining reopens admission.
    server.seal_round();
    assert_eq!(t1.wait().unwrap().round, 0);
    assert_eq!(t2.wait().unwrap().round, 0);
    let t3 = server
        .submit_with(vec![Op::Query(0, 2)], SubmitOptions::new().as_client(2))
        .unwrap();
    server.seal_round();
    assert_eq!(t3.wait().unwrap().answers, vec![true]);
    let report = server.join();
    assert_eq!(report.ops_committed, 3, "the bounced request never ran");
}

#[test]
fn post_shutdown_submit_rejects_with_service_closed() {
    let server = ConnServer::start(BatchDynamicConnectivity::new(8), ServerConfig::new());
    let accepted = server
        .submit_with(
            vec![Op::Insert(0, 1), Op::Query(0, 1)],
            SubmitOptions::new(),
        )
        .unwrap();
    server.close();
    // Closed means closed, for every submission flavour.
    let err = server
        .submit_with(vec![Op::Query(0, 1)], SubmitOptions::new())
        .unwrap_err();
    assert_eq!(err, DynConError::ServiceClosed);
    assert_eq!(
        server
            .submit_with(vec![Op::Query(0, 1)], SubmitOptions::new().blocking(true))
            .unwrap_err(),
        DynConError::ServiceClosed
    );
    assert!(err.to_string().contains("closed"), "{err}");
    assert!((&err as &dyn Error).source().is_none());
    // close() is idempotent, and requests accepted before it still commit.
    server.close();
    assert_eq!(accepted.wait().unwrap().answers, vec![true]);
    let report = server.join();
    assert_eq!(report.ops_committed, 2);
    assert!(report.backend.connected(0, 1));
}

#[test]
fn server_admission_validates_vertices_like_apply() {
    // The serving layer keeps the trait boundary's validation contract:
    // a bad request is rejected at submit, before anything is enqueued.
    let server = ConnServer::start(BatchDynamicConnectivity::new(4), ServerConfig::new());
    let err = server
        .submit_with(
            vec![Op::Insert(0, 1), Op::Query(9, 0)],
            SubmitOptions::new(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        DynConError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 4
        }
    );
    let report = server.join();
    assert_eq!(report.rounds_committed, 0);
    assert_eq!(report.backend.num_edges(), 0);
}

// ---- The durable layer's failure contract ------------------------------

#[test]
fn unwritable_durable_dir_is_a_storage_error() {
    // A path whose parent is a regular FILE can never become a
    // directory: every write under it fails at the I/O layer. (Chmod
    // tricks don't work here — CI containers run as root, and root
    // ignores permission bits.)
    let blocker = scratch_dir("not-a-dir");
    std::fs::create_dir_all(blocker.parent().unwrap()).unwrap();
    std::fs::write(&blocker, b"I am a file, not a directory").unwrap();
    let dir = blocker.join("sub");

    let wal_err = match WalWriter::open(&dir, FsyncPolicy::EveryRound, 0) {
        Err(e) => e,
        Ok(_) => panic!("opening a WAL under a file must fail"),
    };
    match &wal_err {
        DynConError::Storage { path, message } => {
            assert!(!path.is_empty() && !message.is_empty());
        }
        other => panic!("expected Storage, got {other:?}"),
    }
    // Display and std::error wiring, like every variant.
    assert!(wal_err.to_string().contains("storage failure"), "{wal_err}");
    assert!((&wal_err as &dyn Error).source().is_none());

    // The served path reports the same typed error at open.
    match DurableServer::<BatchDynamicConnectivity>::open(
        &dir,
        8,
        ServerConfig::new(),
        DurableConfig::new(),
    ) {
        Err(DynConError::Storage { .. }) => {}
        Err(other) => panic!("expected Storage, got {other:?}"),
        Ok(_) => panic!("open under a file must fail"),
    }
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn recovering_from_garbage_is_corrupt_not_a_panic() {
    let dir = scratch_dir("garbage-state");
    std::fs::create_dir_all(&dir).unwrap();
    // A "snapshot" of pure noise: recovery must produce a typed
    // corruption error naming the file, never panic or fabricate state.
    std::fs::write(
        dir.join(dyncon_durable::SNAPSHOT_FILE),
        [0x5A; 137].as_slice(),
    )
    .unwrap();
    match recover::<BatchDynamicConnectivity>(&dir) {
        Err(e @ DynConError::Corrupt { .. }) => {
            assert!(e.to_string().contains("corrupt durable state"), "{e}");
            assert!((&e as &dyn Error).source().is_none());
        }
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("garbage must not recover"),
    }
    // Same for a valid snapshot next to a garbage WAL.
    let dir2 = scratch_dir("garbage-wal");
    std::fs::create_dir_all(&dir2).unwrap();
    {
        let (server, _) = DurableServer::<BatchDynamicConnectivity>::open(
            &dir2,
            8,
            ServerConfig::new(),
            DurableConfig::new(),
        )
        .unwrap();
        server.join().unwrap();
    }
    std::fs::write(dir2.join(dyncon_durable::WAL_FILE), b"totally not a wal").unwrap();
    match recover::<BatchDynamicConnectivity>(&dir2) {
        Err(DynConError::Corrupt { path, .. }) => {
            assert!(path.ends_with(dyncon_durable::WAL_FILE), "{path}")
        }
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("garbage WAL must not recover"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn empty_durable_dir_needs_no_tolerance() {
    // A directory that exists but holds nothing recovers as "nothing to
    // recover" (Storage), not as corruption — the two cases must stay
    // distinguishable for operators.
    let dir = scratch_dir("empty-dir");
    std::fs::create_dir_all(&dir).unwrap();
    match recover::<BatchDynamicConnectivity>(&dir) {
        Err(DynConError::Storage { message, .. }) => {
            assert!(message.contains("no snapshot"), "{message}")
        }
        Err(other) => panic!("expected Storage, got {other:?}"),
        Ok(_) => panic!("an empty dir has nothing to recover"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Level-edge and churn cases ---------------------------------------

#[test]
fn interleaved_delete_and_reinsert_same_batch_boundary() {
    // Delete a bridge and re-insert it in the very next batch, repeatedly;
    // exercises record slot reuse and level reset to top.
    for algo in ALGOS {
        let mut g = build(32, algo);
        g.batch_insert(&path(32));
        for _ in 0..8 {
            g.batch_delete(&[(15, 16)]);
            assert!(!g.connected(0, 31));
            g.batch_insert(&[(15, 16)]);
            assert!(g.connected(0, 31));
        }
        g.check_invariants().unwrap();
    }
}

#[test]
fn delete_and_reinsert_within_one_mixed_batch() {
    // The same bridge cycle as above, but as ONE mixed-op batch: the
    // run-splitting of `apply` must preserve operation order.
    for algo in ALGOS {
        let mut g = build(32, algo);
        g.batch_insert(&path(32));
        let res = g
            .apply(&[
                Op::Query(0, 31),
                Op::Delete(15, 16),
                Op::Query(0, 31),
                Op::Insert(15, 16),
                Op::Query(0, 31),
            ])
            .unwrap();
        assert_eq!(res.answers, vec![true, false, true], "{algo:?}");
        assert_eq!((res.inserted, res.deleted), (1, 1));
        g.check_invariants().unwrap();
    }
}

#[test]
fn deep_level_descent() {
    // A clique forces edges to sink through many levels as it is chewed
    // away edge by edge — the worst case for level bookkeeping.
    for algo in ALGOS {
        let n = 16;
        let mut g = build(n, algo);
        let edges = complete(n);
        g.batch_insert(&edges);
        for e in &edges {
            g.batch_delete(&[*e]);
        }
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_components(), n);
        g.check_invariants().unwrap();
        // Levels must have been exercised below the top.
        assert!(
            g.stats().nontree_pushes > 0,
            "{algo:?} never pushed an edge"
        );
    }
}

#[test]
fn alternating_algorithms_on_same_graph_agree() {
    // Same script, both algorithms, equal observable behaviour.
    let script_ins: Vec<(u32, u32)> = complete(12);
    let mut results = Vec::new();
    for algo in ALGOS {
        let mut g = build(12, algo);
        g.batch_insert(&script_ins);
        g.batch_delete(&script_ins[0..30]);
        let mut obs = Vec::new();
        for u in 0..12u32 {
            for v in u + 1..12 {
                obs.push(g.connected(u, v));
            }
        }
        obs.push(g.num_components() == 1);
        results.push(obs);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn massive_single_batch_teardown() {
    // Delete every edge of a moderately large graph in ONE batch.
    for algo in ALGOS {
        let n = 512;
        let edges = dyncon_graphgen::erdos_renyi(n, 3 * n, 77);
        let mut g = build(n, algo);
        g.batch_insert(&edges);
        g.batch_delete(&edges);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_components(), n);
        g.check_invariants().unwrap();
    }
}

#[test]
fn queries_do_not_mutate() {
    let mut g = BatchDynamicConnectivity::new(16);
    g.batch_insert(&path(16));
    let before = g.stats();
    // Queries only need a shared reference now.
    let shared = &g;
    for _ in 0..5 {
        shared.batch_connected(&[(0, 15), (3, 9)]);
    }
    assert_eq!(g.num_edges(), 15);
    assert_eq!(g.stats().edges_inserted, before.edges_inserted);
    assert_eq!(g.stats().queries, before.queries + 10);
    g.check_invariants().unwrap();
}

#[test]
fn disabled_stats_stay_zero() {
    let mut g: BatchDynamicConnectivity = Builder::new(16).stats(false).build().unwrap();
    g.batch_insert(&path(16));
    g.batch_delete(&[(3, 4)]);
    g.batch_connected(&[(0, 15)]);
    let s = g.stats();
    assert_eq!(
        (s.edges_inserted, s.edges_deleted, s.queries, s.rounds),
        (0, 0, 0, 0)
    );
    g.check_invariants().unwrap();
}

// ---------------------------------------------------------------------------
// Telemetry exporter failure paths: the push pipeline's contract is that
// collector trouble is *invisible* to the process being observed — the
// exporter buffers (bounded), drops (counted), reconnects (backed off),
// and never returns an error or blocks anything.
// ---------------------------------------------------------------------------

#[test]
fn exporter_with_collector_down_at_startup_never_errors() {
    use dyncon_export::{ExportConfig, HealthState, TelemetryExporter};
    use std::time::Duration;
    // A port that was just bound and released: nothing listens there,
    // every connect is refused.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let registry = dyncon_metrics::Registry::new();
    let health = HealthState::default();
    let exporter = TelemetryExporter::start(
        dead_addr,
        registry.clone(),
        ExportConfig::new()
            .interval(Duration::from_millis(2))
            .max_backoff(Duration::from_millis(20))
            .health(health.clone()),
    );
    // The observed server runs a full deterministic workload while the
    // exporter fails to connect in the background.
    let server = ConnServer::start(
        BatchDynamicConnectivity::new(32),
        ServerConfig::new()
            .deterministic(true)
            .metrics(registry.clone())
            .health(health),
    );
    for round in 0..5u32 {
        server
            .submit_with(
                vec![Op::Insert(round, round + 1), Op::Query(0, round + 1)],
                SubmitOptions::new().as_client(0),
            )
            .unwrap();
        server.seal_round();
    }
    let report = server.join();
    assert_eq!(report.rounds_committed, 5, "every round committed");
    assert_eq!(exporter.frames_sent(), 0, "nothing was deliverable");
    exporter.close();
    // Undeliverable frames are dropped *visibly*, not silently.
    let dropped = registry
        .snapshot()
        .get("dyncon_export_frames_dropped_total")
        .and_then(|m| m.value.as_counter())
        .unwrap_or(0);
    assert!(dropped > 0, "close() counts the undelivered buffer dropped");
}

#[test]
fn exporter_reconnects_after_mid_run_disconnect() {
    use dyncon_export::frame::EXPORT_MAGIC;
    use dyncon_export::{ExportConfig, TelemetryExporter};
    use std::io::Read;
    use std::time::{Duration, Instant};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let registry = dyncon_metrics::Registry::new();
    let exporter = TelemetryExporter::start(
        addr,
        registry.clone(),
        ExportConfig::new()
            .interval(Duration::from_millis(2))
            .io_timeout(Duration::from_millis(100))
            .max_backoff(Duration::from_millis(20)),
    );
    let read_magic = |stream: &mut std::net::TcpStream| {
        let mut magic = [0u8; 8];
        stream.read_exact(&mut magic).unwrap();
        assert_eq!(magic, EXPORT_MAGIC, "stream re-frames from the magic");
    };
    // First connection: verify the stream magic, then hang up mid-run.
    let (mut conn1, _) = listener.accept().unwrap();
    read_magic(&mut conn1);
    drop(conn1);
    // The exporter must notice the dead socket on a failed write and
    // come back — the second accept only returns if it reconnects.
    let (mut conn2, _) = listener.accept().unwrap();
    read_magic(&mut conn2);
    let deadline = Instant::now() + Duration::from_secs(5);
    while exporter.reconnects() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(exporter.reconnects() >= 1, "reconnect was counted");
    // Frames flow again on the new connection.
    let sent_after_reconnect = exporter.frames_sent();
    let deadline = Instant::now() + Duration::from_secs(5);
    while exporter.frames_sent() <= sent_after_reconnect && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        exporter.frames_sent() > sent_after_reconnect,
        "frames keep flowing after the reconnect"
    );
    exporter.close();
}

#[test]
fn slow_collector_drops_are_bounded_and_counted_without_blocking() {
    use dyncon_export::{ExportConfig, TelemetryExporter};
    use std::time::Duration;
    // The limiting case of a slow collector: one that never completes
    // the connection at all. Every tick still frames a metrics delta,
    // so the bounded buffer (2 frames here) must evict and count.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let registry = dyncon_metrics::Registry::new();
    let ticker = registry.counter("dyncon_test_ticker", "ops", "test traffic");
    let exporter = TelemetryExporter::start(
        dead_addr,
        registry.clone(),
        ExportConfig::new()
            .interval(Duration::from_millis(1))
            .buffer_frames(2)
            .max_backoff(Duration::from_millis(10)),
    );
    // The producing side keeps recording at full speed throughout.
    for _ in 0..200 {
        ticker.inc();
        std::thread::sleep(Duration::from_millis(1));
    }
    let dropped = exporter.frames_dropped();
    assert!(
        dropped >= 10,
        "buffer of 2 under ~200 ticks must evict plenty, got {dropped}"
    );
    assert_eq!(exporter.frames_sent(), 0);
    exporter.close();
}

#[test]
fn close_flushes_everything_recorded_before_it() {
    use dyncon_export::{Collector, ExportConfig, TelemetryExporter};
    use std::time::{Duration, Instant};
    let collector = Collector::bind("127.0.0.1:0").unwrap();
    let registry = dyncon_metrics::Registry::new();
    let counter = registry.counter("dyncon_test_commits", "ops", "test counter");
    // An interval far longer than the test: nothing is pushed until
    // close(), so delivery proves the final drain+flush ordering.
    let exporter = TelemetryExporter::start(
        collector.local_addr().to_string(),
        registry.clone(),
        ExportConfig::new()
            .interval(Duration::from_secs(60))
            .source("flush-test"),
    );
    counter.add(41);
    exporter.close();
    let deadline = Instant::now() + Duration::from_secs(5);
    let observed = loop {
        let v = collector
            .merged_snapshot()
            .get("dyncon_test_commits")
            .and_then(|m| m.value.as_counter());
        if v == Some(41) || Instant::now() > deadline {
            break v;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        observed,
        Some(41),
        "the pre-close counter value arrived via the final flush"
    );
    assert_eq!(collector.checksum_failures(), 0);
    assert_eq!(collector.sources(), vec!["flush-test".to_string()]);
    collector.close();
}
