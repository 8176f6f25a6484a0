//! Determinism guarantees: identical seeds and scripts must produce
//! identical observable behaviour across runs — the property every
//! "reproducible experiments" claim in EXPERIMENTS.md rests on.

use dyncon_api::BatchDynamic;
use dyncon_core::{BatchDynamicConnectivity, Builder, DeletionAlgorithm};
use dyncon_graphgen::{erdos_renyi, rmat, zipf_client_schedules, UpdateStream};
use dyncon_server::{ConnServer, RoundRecord, ServerConfig, SubmitOptions};

fn observe(algo: DeletionAlgorithm, seed: u64) -> (Vec<bool>, usize, Vec<u64>, u64) {
    let n = 256;
    let edges = erdos_renyi(n, 3 * n, seed);
    let stream = UpdateStream::insert_then_delete(&edges, 64, 32, seed ^ 1);
    let mut g: BatchDynamicConnectivity = Builder::new(n).algorithm(algo).build().unwrap();
    for b in &stream.batches {
        match b {
            dyncon_graphgen::Batch::Insert(v) => {
                g.batch_insert(v);
            }
            dyncon_graphgen::Batch::Delete(v) => {
                g.batch_delete(v);
            }
            dyncon_graphgen::Batch::Query(v) => {
                g.batch_connected(v);
            }
        }
        // Observe midway too.
        if g.num_edges() == edges.len() / 2 {
            break;
        }
    }
    let queries = UpdateStream::random_queries(n, 128, seed ^ 2);
    let answers = g.batch_connected(&queries);
    (
        answers,
        g.num_components(),
        g.component_size_distribution(),
        g.stats().replacements,
    )
}

#[test]
fn workload_generators_are_deterministic() {
    assert_eq!(erdos_renyi(500, 1500, 9), erdos_renyi(500, 1500, 9));
    assert_eq!(rmat(512, 2000, 9), rmat(512, 2000, 9));
    let a = UpdateStream::sliding_window(128, 8, 16, 3, 4, 11);
    let b = UpdateStream::sliding_window(128, 8, 16, 3, 4, 11);
    assert_eq!(a.batches, b.batches);
}

#[test]
fn connectivity_answers_are_run_invariant() {
    // Query answers, component counts and size distributions are
    // scheduling-independent (they depend only on the graph), even though
    // internal tie-breaking (which edge becomes a tree edge) may race.
    for algo in [DeletionAlgorithm::Simple, DeletionAlgorithm::Interleaved] {
        for seed in [3u64, 17, 99] {
            let a = observe(algo, seed);
            let b = observe(algo, seed);
            assert_eq!(a.0, b.0, "query answers, seed {seed}");
            assert_eq!(a.1, b.1, "component count, seed {seed}");
            assert_eq!(a.2, b.2, "size distribution, seed {seed}");
        }
    }
}

/// The observability layer's core promise: metrics are observational,
/// never inputs. A deterministic server with a metrics registry plugged
/// in must commit rounds **byte-identical** (ops and `BatchResult`s) to
/// one without, at 1, 2 and 4 worker threads — while the registry really
/// does observe the run.
#[test]
fn metrics_leave_deterministic_rounds_byte_identical() {
    const N: usize = 256;
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 5;
    let schedules = zipf_client_schedules(N, CLIENTS, ROUNDS, 24, 0.4, 1.1, 99);
    let run = |threads: usize, registry: Option<dyncon_metrics::Registry>| -> Vec<RoundRecord> {
        let mut config = ServerConfig::new()
            .deterministic(true)
            .record_rounds(true)
            .worker_threads(threads)
            .queue_capacity(CLIENTS * ROUNDS);
        if let Some(r) = registry {
            config = config.metrics(r);
        }
        let server = ConnServer::start(BatchDynamicConnectivity::new(N), config);
        for round in 0..ROUNDS {
            for (c, sched) in schedules.iter().enumerate() {
                server
                    .submit_with(
                        sched[round].clone(),
                        SubmitOptions::new().as_client(c as u64),
                    )
                    .unwrap();
            }
            assert_eq!(server.seal_round(), CLIENTS);
        }
        server.join().rounds
    };
    let baseline = run(1, None);
    for threads in [1usize, 2, 4] {
        let registry = dyncon_metrics::Registry::new();
        let observed = run(threads, Some(registry.clone()));
        assert_eq!(observed, baseline, "{threads} worker threads");
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("dyncon_server_rounds_committed_total")
                .and_then(|m| m.value.as_counter()),
            Some(ROUNDS as u64),
            "{threads} worker threads: registry observed every round"
        );
    }
}

/// The sharding layer's determinism claim: a deterministic
/// [`ShardedServer`](dyncon_shard::ShardedServer) commits rounds
/// **byte-identical** (ops and `BatchResult`s) at every shard count ×
/// worker thread count combination — and identical to a single
/// unsharded backend applying the same canonical rounds. The partition,
/// the decomposition, the per-shard sealed sub-rounds and the boundary
/// graph must all be invisible in the results.
#[test]
fn sharded_rounds_byte_identical_across_shard_and_thread_counts() {
    use dyncon_shard::{ShardConfig, ShardMapKind, ShardedServer};
    const N: usize = 96;
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 5;
    let schedules = zipf_client_schedules(N, CLIENTS, ROUNDS, 24, 0.4, 1.1, 47);
    let run = |shards: usize, threads: usize, kind: ShardMapKind| -> Vec<RoundRecord> {
        let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
            N,
            ShardConfig::new()
                .shards(shards)
                .kind(kind)
                .deterministic(true)
                .record_rounds(true)
                .shard_worker_threads(threads)
                .queue_capacity(CLIENTS * ROUNDS),
        )
        .unwrap();
        for round in 0..ROUNDS {
            for (c, sched) in schedules.iter().enumerate() {
                server
                    .submit_with(
                        sched[round].clone(),
                        SubmitOptions::new().as_client(c as u64),
                    )
                    .unwrap();
            }
            assert_eq!(server.seal_round(), CLIENTS);
        }
        server.join().unwrap().rounds
    };
    // The unsharded reference: one backend applying the canonical
    // (client-major) round sequence.
    let mut reference_backend = BatchDynamicConnectivity::new(N);
    let reference: Vec<_> = (0..ROUNDS)
        .map(|r| {
            let ops: Vec<_> = schedules
                .iter()
                .flat_map(|client| client[r].iter().copied())
                .collect();
            let result = reference_backend.apply(&ops).unwrap();
            (r as u64, ops, result)
        })
        .collect();
    // Shard counts come from `DYNCON_SHARDS` (default 1,2,4) so the CI
    // matrix can pin a single count per job the same way it pins threads.
    for kind in [ShardMapKind::Range, ShardMapKind::Hash] {
        for shards in dyncon_bench::shard_counts() {
            for threads in [1usize, 2, 4] {
                let rounds = run(shards, threads, kind);
                let got: Vec<_> = rounds
                    .into_iter()
                    .map(|r| (r.round, r.ops, r.result))
                    .collect();
                assert_eq!(
                    got, reference,
                    "{kind:?} x {shards} shards x {threads} threads diverged"
                );
            }
        }
    }
}

/// Tracing extends the observational-only promise to the stage level: a
/// deterministic sharded server with a [`TraceRecorder`] attached — and
/// a live telemetry endpoint being scraped while rounds commit — must
/// produce rounds **byte-identical** to an untraced run at every worker
/// thread count × shard count, while the recorder really does capture
/// per-stage spans and the endpoint really serves them.
#[test]
fn tracing_and_telemetry_leave_deterministic_rounds_byte_identical() {
    use dyncon_shard::{ShardConfig, ShardedServer};
    use dyncon_trace::{serve_telemetry, TraceRecorder};
    use std::io::{Read, Write};
    const N: usize = 96;
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 5;
    let schedules = zipf_client_schedules(N, CLIENTS, ROUNDS, 24, 0.4, 1.1, 47);
    let run = |shards: usize, threads: usize, trace: Option<TraceRecorder>| -> Vec<RoundRecord> {
        let mut config = ShardConfig::new()
            .shards(shards)
            .deterministic(true)
            .record_rounds(true)
            .shard_worker_threads(threads)
            .queue_capacity(CLIENTS * ROUNDS);
        if let Some(t) = trace {
            config = config.trace(t);
        }
        let server: ShardedServer<BatchDynamicConnectivity> =
            ShardedServer::start(N, config).unwrap();
        for round in 0..ROUNDS {
            for (c, sched) in schedules.iter().enumerate() {
                server
                    .submit_with(
                        sched[round].clone(),
                        SubmitOptions::new().as_client(c as u64),
                    )
                    .unwrap();
            }
            assert_eq!(server.seal_round(), CLIENTS);
        }
        server.join().unwrap().rounds
    };
    let scrape = |addr: std::net::SocketAddr, path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    };
    for shards in dyncon_bench::shard_counts() {
        let baseline = run(shards, 1, None);
        for threads in [1usize, 2, 4] {
            let recorder = TraceRecorder::new();
            let registry = dyncon_metrics::Registry::new();
            let telemetry = serve_telemetry("127.0.0.1:0", registry, recorder.clone()).unwrap();
            let addr = telemetry.local_addr();
            // A scraper hammers the endpoint while rounds commit, so any
            // exporter-vs-recorder interference would surface here.
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let scraper_stop = std::sync::Arc::clone(&stop);
            let scraper = std::thread::spawn(move || {
                let mut scrapes = 0u32;
                while !scraper_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    scrape(addr, "/metrics");
                    scrape(addr, "/trace");
                    scrapes += 1;
                }
                scrapes
            });
            let traced = run(shards, threads, Some(recorder.clone()));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(scraper.join().unwrap() > 0, "scraper never got through");
            assert_eq!(
                traced, baseline,
                "{shards} shards x {threads} threads diverged under tracing"
            );
            assert!(
                recorder.rounds_completed() >= ROUNDS as u64,
                "recorder saw every outer round"
            );
            let slowest = recorder.slowest_round().expect("a slowest round exists");
            assert!(slowest.wall_ns > 0 && !slowest.stages.is_empty());
            let trace_body = scrape(addr, "/trace");
            assert!(
                trace_body.contains("traceEvents"),
                "endpoint serves the ring"
            );
            telemetry.close();
        }
    }
}

/// The export layer's determinism claim: a deterministic sharded server
/// with a [`TelemetryExporter`](dyncon_export::TelemetryExporter)
/// attached — pushing metric deltas, spans and health state to a live
/// [`Collector`](dyncon_export::Collector) while rounds commit — must
/// produce rounds **byte-identical** to an unexported run at every
/// worker thread count × shard count. And because the exporter may
/// never sit on the commit path, killing the collector mid-run must
/// not stall, fail or reorder a single round.
#[test]
fn export_pipeline_leaves_deterministic_rounds_byte_identical() {
    use dyncon_export::{Collector, ExportConfig, HealthState, TelemetryExporter};
    use dyncon_shard::{ShardConfig, ShardedServer};
    use dyncon_trace::TraceRecorder;
    use std::time::{Duration, Instant};
    const N: usize = 96;
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 5;
    let schedules = zipf_client_schedules(N, CLIENTS, ROUNDS, 24, 0.4, 1.1, 47);
    struct Observability {
        registry: dyncon_metrics::Registry,
        recorder: TraceRecorder,
        health: HealthState,
    }
    // `kill_collector_after`: shut the collector down after this many
    // sealed rounds, mid-run, and keep committing against a dead peer.
    let run = |shards: usize,
               threads: usize,
               obs: Option<&Observability>,
               kill_collector_after: Option<(usize, &Collector)>|
     -> Vec<RoundRecord> {
        let mut config = ShardConfig::new()
            .shards(shards)
            .deterministic(true)
            .record_rounds(true)
            .shard_worker_threads(threads)
            .queue_capacity(CLIENTS * ROUNDS);
        if let Some(obs) = obs {
            config = config
                .metrics(obs.registry.clone())
                .trace(obs.recorder.clone())
                .health(obs.health.clone());
        }
        let server: ShardedServer<BatchDynamicConnectivity> =
            ShardedServer::start(N, config).unwrap();
        for round in 0..ROUNDS {
            for (c, sched) in schedules.iter().enumerate() {
                server
                    .submit_with(
                        sched[round].clone(),
                        SubmitOptions::new().as_client(c as u64),
                    )
                    .unwrap();
            }
            assert_eq!(server.seal_round(), CLIENTS);
            if let Some((after, collector)) = kill_collector_after {
                if round + 1 == after {
                    collector.shutdown();
                }
            }
        }
        server.join().unwrap().rounds
    };
    for shards in dyncon_bench::shard_counts() {
        let baseline = run(shards, 1, None, None);
        for threads in [1usize, 2, 4] {
            let obs = Observability {
                registry: dyncon_metrics::Registry::new(),
                recorder: TraceRecorder::new(),
                health: HealthState::default(),
            };
            let collector = Collector::bind("127.0.0.1:0").unwrap();
            let exporter = TelemetryExporter::start(
                collector.local_addr().to_string(),
                obs.registry.clone(),
                ExportConfig::new()
                    .interval(Duration::from_millis(2))
                    .trace(obs.recorder.clone())
                    .health(obs.health.clone())
                    .source("determinism-test"),
            );
            let exported = run(shards, threads, Some(&obs), None);
            assert_eq!(
                exported, baseline,
                "{shards} shards x {threads} threads diverged under export"
            );
            exporter.close();
            // The collector really received frames from the run — the
            // exporter was live, not a no-op — and the merged fleet
            // view accumulated the server's own counters.
            let rounds_seen = |c: &Collector| {
                c.merged_snapshot()
                    .get("dyncon_server_rounds_committed_total")
                    .and_then(|m| m.value.as_counter())
                    .unwrap_or(0)
            };
            let deadline = Instant::now() + Duration::from_secs(5);
            while rounds_seen(&collector) < ROUNDS as u64 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(
                collector.frames_received() > 0,
                "{shards} shards x {threads} threads: collector saw no frames"
            );
            assert_eq!(collector.checksum_failures(), 0);
            assert!(
                rounds_seen(&collector) >= ROUNDS as u64,
                "merged exposition carries the server's round counter"
            );
            collector.shutdown();

            // Kill the collector two rounds in: the remaining rounds
            // must still commit, byte-identically, with the exporter
            // reconnect-looping against a dead address.
            let obs = Observability {
                registry: dyncon_metrics::Registry::new(),
                recorder: TraceRecorder::new(),
                health: HealthState::default(),
            };
            let collector = Collector::bind("127.0.0.1:0").unwrap();
            let exporter = TelemetryExporter::start(
                collector.local_addr().to_string(),
                obs.registry.clone(),
                ExportConfig::new()
                    .interval(Duration::from_millis(2))
                    .trace(obs.recorder.clone())
                    .health(obs.health.clone()),
            );
            let survived = run(shards, threads, Some(&obs), Some((2, &collector)));
            assert_eq!(
                survived, baseline,
                "{shards} shards x {threads} threads diverged after collector death"
            );
            exporter.close();
            collector.shutdown();
        }
    }
}

#[test]
fn algorithms_agree_on_observables() {
    for seed in [5u64, 21] {
        let a = observe(DeletionAlgorithm::Simple, seed);
        let b = observe(DeletionAlgorithm::Interleaved, seed);
        assert_eq!(a.0, b.0, "queries agree across algorithms");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }
}
