//! Machine-readable perf smoke: the `bench-perf` CI job's artifact writer.
//!
//! Runs the three batch operations (insert / connected / delete) plus the
//! group-commit serving layer on CI smoke sizes across the
//! `DYNCON_THREADS` matrix and writes one JSON record per `(op, threads)`
//! cell:
//!
//! ```text
//! {"op":"batch_insert","n":16384,"batch":4096,"threads":2,"median_ns":1234567}
//! ```
//!
//! The two service rows measure the `dyncon-server` frontend end to end
//! (4 closed-loop Zipf clients): `service_throughput` is the wall time of
//! the whole run, `service_latency_p50` the median submit→answer latency.
//! The four load rows measure the same frontend **open-loop** (Poisson
//! arrivals, latency from the intended arrival — no coordinated
//! omission): `load_p50_ns` / `load_p99_ns` / `load_p999_ns` are latency
//! quantiles, `queue_depth_max` is the server's queue-depth gauge
//! high-water mark from the metrics snapshot (a count, not nanoseconds —
//! the `median_ns` field carries it for schema uniformity).
//! The two tracing rows price the observability layer itself:
//! `trace_overhead_pct` re-runs the closed-loop service with a
//! `TraceRecorder` attached and reports the traced wall as a percentage
//! of the untraced one (≈100; a machine-invariant ratio, gated ≤105),
//! `slow_round_p99_ns` is the recorder's p99 round wall time.
//! The two versioned-read rows measure the MVCC plane:
//! `read_view_throughput` is the wall time of 4 reader threads answering
//! 5000 snapshot connectivity queries each against a quiesced versioned
//! server, `writer_throughput_with_readers` the closed-loop service run
//! with 16 paced snapshot readers attached (compare against
//! `service_throughput`).
//! The two durability rows measure `dyncon-durable`: `wal_append_ns` is
//! the wall time of appending 128 mixed rounds to the write-ahead log
//! (fsync off — the stable-in-CI encode+write path), `recovery_ms` the
//! full snapshot-load + deterministic-replay recovery of that log.
//!
//! Usage: `perf_json [output-path]` (default `BENCH_PR.json`). The binary
//! **validates its own output** — no records, a zero/unparseable median,
//! or a non-finite value is a hard failure — so a broken measurement
//! pipeline fails the job instead of uploading garbage. This file seeds
//! the repository's perf trajectory: one artifact per PR, comparable
//! across commits.

use dyncon_bench::{
    drive_open_loop, drive_service, latency_quantile, median_duration, thread_counts, time,
};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_durable::{recover, scratch_dir, FsyncPolicy, Snapshot, WalWriter};
use dyncon_graphgen::{erdos_renyi, poisson_arrivals, zipf_client_schedules, UpdateStream};
use dyncon_server::{ConnServer, ServerConfig, SubmitOptions};
use dyncon_shard::{ShardConfig, ShardedServer};
use dyncon_trace::TraceRecorder;
use std::time::Duration;

struct Record {
    op: &'static str,
    n: usize,
    batch: usize,
    threads: usize,
    median_ns: u128,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            r#"{{"op":"{}","n":{},"batch":{},"threads":{},"median_ns":{}}}"#,
            self.op, self.n, self.batch, self.threads, self.median_ns
        )
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR.json".to_string());

    // CI smoke sizes: large enough that every parallel path engages
    // (≫ SEQ_THRESHOLD per batch), small enough for a sub-minute job.
    let n = 1 << 14;
    let insert_batch = 1 << 12;
    let query_batch = 1 << 14;
    let delete_batch = 1 << 11;
    let reps = 3;

    let edges = erdos_renyi(n, 2 * n, 13);
    let qs = UpdateStream::random_queries(n, query_batch, 14);

    let mut records: Vec<Record> = Vec::new();
    for threads in thread_counts() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();

        let insert_run = || {
            pool.install(|| {
                let mut g = BatchDynamicConnectivity::new(n);
                time(|| {
                    for chunk in edges.chunks(insert_batch) {
                        g.batch_insert(chunk);
                    }
                })
                .0
            })
        };
        let query_run = || {
            pool.install(|| {
                let mut g = BatchDynamicConnectivity::new(n);
                g.batch_insert(&edges);
                time(|| std::hint::black_box(g.batch_connected(&qs))).0
            })
        };
        let delete_run = || {
            pool.install(|| {
                let mut g = BatchDynamicConnectivity::new(n);
                g.batch_insert(&edges);
                time(|| {
                    for chunk in edges.chunks(delete_batch) {
                        g.batch_delete(chunk);
                    }
                })
                .0
            })
        };

        type Cell<'a> = (&'static str, usize, Box<dyn FnMut() -> Duration + 'a>);
        let cells: [Cell<'_>; 3] = [
            ("batch_insert", insert_batch, Box::new(insert_run)),
            ("batch_connected", query_batch, Box::new(query_run)),
            ("batch_delete", delete_batch, Box::new(delete_run)),
        ];
        for (op, batch, mut run) in cells {
            let median = median_duration(reps, &mut run);
            records.push(Record {
                op,
                n,
                batch,
                threads,
                median_ns: median.as_nanos(),
            });
            eprintln!("{op} @ {threads} threads: median {} ns", median.as_nanos());
        }

        // The serving layer: 4 closed-loop Zipf clients through the
        // group-commit frontend, writer pinned to this thread count.
        let clients = 4;
        let service_cap = 1 << 11;
        let schedules = zipf_client_schedules(n, clients, 16, 64, 0.5, 1.1, 15);
        let mut p50s: Vec<Duration> = Vec::new();
        let service_run = || {
            let server = ConnServer::start(
                BatchDynamicConnectivity::new(n),
                ServerConfig::new()
                    .batch_cap(service_cap)
                    .coalesce_wait(Duration::from_micros(50))
                    .queue_capacity(2 * clients)
                    .worker_threads(threads),
            );
            let (wall, lats) = drive_service(&server, &schedules);
            server.join();
            p50s.push(latency_quantile(&lats, 0.5));
            wall
        };
        let wall = median_duration(reps, service_run);
        p50s.sort_unstable();
        let p50 = p50s[p50s.len() / 2];
        for (op, median) in [("service_throughput", wall), ("service_latency_p50", p50)] {
            records.push(Record {
                op,
                n,
                batch: service_cap,
                threads,
                median_ns: median.as_nanos(),
            });
            eprintln!("{op} @ {threads} threads: median {} ns", median.as_nanos());
        }

        // Tracing + export overhead: the identical closed-loop run with
        // the FULL observability stack attached — `TraceRecorder`,
        // metrics registry, and a `TelemetryExporter` pushing frames to
        // an in-process `Collector` every 10 ms. `trace_overhead_pct`
        // is the observed-stack wall as a percentage of a bare wall
        // from interleaved back-to-back runs (≈100; the acceptance
        // band is ≤105 = ≤5% overhead) — a ratio of same-machine
        // walls, so it carries no machine factor. `slow_round_p99_ns`
        // is the
        // recorder's own p99 round wall time across every traced round.
        // `export_frames_total` counts the frames the exporter actually
        // delivered (proportional to run wall, so it normalizes like a
        // timing row); `export_lag_ms` is the p50 frame
        // creation→delivery lag in whole milliseconds, floored at 1 (a
        // local collector keeps it at the floor — a climbing value
        // means the push path is backing up).
        let recorder = TraceRecorder::new();
        let export_registry = dyncon_metrics::Registry::new();
        let collector = dyncon_export::Collector::bind("127.0.0.1:0").expect("collector binds");
        let exporter = dyncon_export::TelemetryExporter::start(
            collector.local_addr().to_string(),
            export_registry.clone(),
            dyncon_export::ExportConfig::new()
                .interval(Duration::from_millis(10))
                .source("perf-json")
                .trace(recorder.clone()),
        );
        let observed_run = |observe: bool| {
            let mut config = ServerConfig::new()
                .batch_cap(service_cap)
                .coalesce_wait(Duration::from_micros(50))
                .queue_capacity(2 * clients)
                .worker_threads(threads);
            if observe {
                config = config
                    .metrics(export_registry.clone())
                    .trace(recorder.clone());
            }
            let server = ConnServer::start(BatchDynamicConnectivity::new(n), config);
            let (wall, _lats) = drive_service(&server, &schedules);
            server.join();
            wall
        };
        // Interleaved pairs + min-of-reps: back-to-back bare/observed
        // runs cancel machine drift between the two measurement
        // sections, and minima are the noise-robust estimator for a
        // ratio of small walls on a shared CI box.
        let overhead_reps = 5;
        let (mut bare_walls, mut observed_walls) = (Vec::new(), Vec::new());
        for _ in 0..overhead_reps {
            bare_walls.push(observed_run(false));
            observed_walls.push(observed_run(true));
        }
        let bare_min = bare_walls.iter().min().unwrap().as_nanos().max(1);
        let observed_min = observed_walls.iter().min().unwrap().as_nanos();
        let overhead_pct = ((observed_min as f64 * 100.0) / (bare_min as f64))
            .round()
            .max(1.0) as u128;
        let slow_p99 = recorder.round_wall_quantile(0.99).unwrap_or(1).max(1) as u128;
        exporter.close();
        let export_snapshot = export_registry.snapshot();
        let export_frames = export_snapshot
            .get("dyncon_export_frames_total")
            .and_then(|m| m.value.as_counter())
            .unwrap_or(0)
            .max(1) as u128;
        let export_lag_ms = export_snapshot
            .get("dyncon_export_lag_ns")
            .and_then(|m| m.value.as_histogram())
            .and_then(|h| h.quantile(0.5))
            .unwrap_or(0)
            .div_euclid(1_000_000)
            .max(1) as u128;
        // The final flush is applied asynchronously by the collector's
        // handler thread; give it a moment before judging the pipeline.
        let settle = std::time::Instant::now() + Duration::from_secs(2);
        while collector.frames_received() == 0 && std::time::Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(5));
        }
        if collector.frames_received() == 0 || collector.checksum_failures() > 0 {
            eprintln!(
                "perf_json: export pipeline broken ({} frames, {} checksum failures)",
                collector.frames_received(),
                collector.checksum_failures()
            );
            std::process::exit(1);
        }
        collector.close();
        for (op, median_ns) in [
            ("trace_overhead_pct", overhead_pct),
            ("slow_round_p99_ns", slow_p99),
            ("export_frames_total", export_frames),
            ("export_lag_ms", export_lag_ms),
        ] {
            records.push(Record {
                op,
                n,
                batch: service_cap,
                threads,
                median_ns,
            });
            eprintln!("{op} @ {threads} threads: {median_ns}");
        }

        // The open-loop load observatory: Poisson arrivals at a fixed
        // offered rate (mean gap 100 µs per client), latency measured
        // from the intended arrival. Latency quantiles come from the
        // middle rep (by p50) so the three quantile rows describe one
        // coherent run; queue_depth_max comes from the server's own
        // metrics snapshot.
        let load_requests = 32;
        let load_schedules = zipf_client_schedules(n, clients, load_requests, 64, 0.5, 1.1, 15);
        let load_arrivals: Vec<Vec<u64>> = (0..clients)
            .map(|c| poisson_arrivals(load_requests, 100_000, 0xE13 + c as u64))
            .collect();
        let mut load_runs: Vec<(Duration, Duration, Duration, i64)> = Vec::new();
        for _ in 0..reps {
            let server = ConnServer::start(
                BatchDynamicConnectivity::new(n),
                ServerConfig::new()
                    .batch_cap(service_cap)
                    .coalesce_wait(Duration::from_micros(50))
                    .queue_capacity(2 * clients)
                    .worker_threads(threads),
            );
            let load = drive_open_loop(&server, &load_schedules, &load_arrivals);
            let report = server.join();
            let queue_max = report
                .metrics
                .get("dyncon_server_queue_depth")
                .and_then(|m| m.value.as_gauge())
                .map(|(_, max)| max)
                .unwrap_or(0);
            load_runs.push((
                latency_quantile(&load.latencies, 0.5),
                latency_quantile(&load.latencies, 0.99),
                latency_quantile(&load.latencies, 0.999),
                queue_max,
            ));
        }
        load_runs.sort_unstable_by_key(|r| r.0);
        let (p50, p99, p999, queue_max) = load_runs[load_runs.len() / 2];
        for (op, median_ns) in [
            ("load_p50_ns", p50.as_nanos()),
            ("load_p99_ns", p99.as_nanos()),
            ("load_p999_ns", p999.as_nanos()),
            ("queue_depth_max", queue_max.max(0) as u128),
        ] {
            records.push(Record {
                op,
                n,
                batch: service_cap,
                threads,
                median_ns,
            });
            eprintln!("{op} @ {threads} threads: {median_ns}");
        }

        // The sharding layer: the same closed-loop Zipf clients through
        // a 2-shard `ShardedServer` (hash partition, so roughly half the
        // edges cross shards and the boundary graph is really exercised).
        // `shard_throughput` is the wall time of the run;
        // `shard_boundary_ops` is the total number of contracted edges
        // inserted across boundary-graph rebuilds, read from the pooled
        // registry (a count in the `median_ns` field, like
        // `queue_depth_max`).
        let shard_schedules = zipf_client_schedules(n, clients, 12, 48, 0.5, 1.1, 17);
        let mut boundary_ops: Vec<u128> = Vec::new();
        let shard_run = || {
            let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
                n,
                ShardConfig::new()
                    .shards(2)
                    .batch_cap(service_cap)
                    .coalesce_wait(Duration::from_micros(50))
                    .queue_capacity(2 * clients)
                    .shard_worker_threads(threads),
            )
            .expect("sharded server starts");
            let (wall, _lats) = drive_service(&server, &shard_schedules);
            let report = server.join().expect("sharded server joins");
            boundary_ops.push(
                report
                    .metrics
                    .get("dyncon_shard_boundary_ops")
                    .and_then(|m| m.value.as_histogram())
                    .map(|h| h.sum as u128)
                    .unwrap_or(0),
            );
            wall
        };
        let shard_wall = median_duration(reps, shard_run);
        boundary_ops.sort_unstable();
        let boundary_median = boundary_ops[boundary_ops.len() / 2];
        for (op, median_ns) in [
            ("shard_throughput", shard_wall.as_nanos()),
            ("shard_boundary_ops", boundary_median),
        ] {
            records.push(Record {
                op,
                n,
                batch: service_cap,
                threads,
                median_ns,
            });
            eprintln!("{op} @ {threads} threads: {median_ns}");
        }

        // The versioned-read plane. `read_view_throughput` is the wall
        // time of 4 reader threads answering 5000 snapshot connectivity
        // queries each against a quiesced versioned server — the pure
        // read-path cost (`read_view` Arc clone + label lookup), no
        // writer interference. `writer_throughput_with_readers` is the
        // same closed-loop run as `service_throughput` but against a
        // versioned server with 16 paced snapshot readers (one read per
        // 200 µs each) — comparable against `service_throughput` to
        // price snapshot publication plus read-plane interference.
        {
            use dyncon_api::Connectivity;
            use dyncon_server::VersionedRead;
            use std::sync::atomic::{AtomicBool, Ordering};
            let read_threads = 4usize;
            let reads_per_thread = 5000u32;
            let reader_server = ConnServer::start_versioned(
                BatchDynamicConnectivity::new(n),
                ServerConfig::new()
                    .batch_cap(service_cap)
                    .coalesce_wait(Duration::from_micros(50))
                    .queue_capacity(2 * clients)
                    .worker_threads(threads)
                    .retain_views(8),
            );
            for ops in zipf_client_schedules(n, 1, 8, 64, 0.3, 1.1, 19).remove(0) {
                reader_server
                    .submit_with(ops, SubmitOptions::new().blocking(true))
                    .expect("service is open")
                    .wait()
                    .expect("round commits");
            }
            let read_run = || {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..read_threads)
                        .map(|r| {
                            let server = &reader_server;
                            scope.spawn(move || {
                                let mut probe = r as u32;
                                for _ in 0..reads_per_thread {
                                    let view = server.read_view().expect("views retained");
                                    probe = probe.wrapping_add(1) % n as u32;
                                    std::hint::black_box(
                                        view.connected(probe, (probe + 7) % n as u32),
                                    );
                                }
                            })
                        })
                        .collect();
                    time(|| {
                        for h in handles {
                            h.join().unwrap();
                        }
                    })
                    .0
                })
            };
            let read_wall = median_duration(reps, read_run);
            reader_server.join();

            let versioned_schedules = zipf_client_schedules(n, clients, 16, 64, 0.5, 1.1, 15);
            let versioned_run = || {
                let server = ConnServer::start_versioned(
                    BatchDynamicConnectivity::new(n),
                    ServerConfig::new()
                        .batch_cap(service_cap)
                        .coalesce_wait(Duration::from_micros(50))
                        .queue_capacity(2 * clients)
                        .worker_threads(threads)
                        .retain_views(8),
                );
                let stop = AtomicBool::new(false);
                let wall = std::thread::scope(|scope| {
                    for r in 0..16usize {
                        let (server, stop) = (&server, &stop);
                        scope.spawn(move || {
                            let mut probe = r as u32;
                            while !stop.load(Ordering::Relaxed) {
                                if let Ok(view) = server.read_view() {
                                    probe = probe.wrapping_add(1) % n as u32;
                                    std::hint::black_box(
                                        view.connected(probe, (probe + 7) % n as u32),
                                    );
                                }
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        });
                    }
                    let (wall, _lats) = drive_service(&server, &versioned_schedules);
                    stop.store(true, Ordering::Relaxed);
                    wall
                });
                server.join();
                wall
            };
            let versioned_wall = median_duration(reps, versioned_run);
            for (op, median_ns) in [
                ("read_view_throughput", read_wall.as_nanos()),
                ("writer_throughput_with_readers", versioned_wall.as_nanos()),
            ] {
                records.push(Record {
                    op,
                    n,
                    batch: service_cap,
                    threads,
                    median_ns,
                });
                eprintln!("{op} @ {threads} threads: {median_ns}");
            }
        }

        // The durable layer: WAL append wall time for `wal_rounds` mixed
        // rounds (no fsync — the pure encode+write path CI can time
        // stably) and full crash recovery (snapshot load + deterministic
        // replay) of that log. Single-threaded operations, recorded per
        // matrix cell so the artifact stays uniform.
        let wal_rounds = 128usize;
        let wal_ops = 64usize;
        let round_ops = zipf_client_schedules(n, 1, wal_rounds, wal_ops, 0.3, 1.1, 16).remove(0);
        let append_run = || {
            let dir = scratch_dir("perf-wal");
            std::fs::create_dir_all(&dir).unwrap();
            let mut wal = WalWriter::open(&dir, FsyncPolicy::Never, 0).unwrap();
            let d = time(|| {
                for ops in &round_ops {
                    wal.append_round(ops).unwrap();
                }
            })
            .0;
            drop(wal);
            let _ = std::fs::remove_dir_all(&dir);
            d
        };
        let recover_dir = scratch_dir("perf-recover");
        std::fs::create_dir_all(&recover_dir).unwrap();
        Snapshot {
            num_vertices: n,
            next_round: 0,
            edges: Vec::new(),
        }
        .write_atomic(&recover_dir)
        .unwrap();
        let mut wal = WalWriter::open(&recover_dir, FsyncPolicy::Never, 0).unwrap();
        for ops in &round_ops {
            wal.append_round(ops).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let recover_run = || {
            time(|| {
                let (g, meta) = recover::<BatchDynamicConnectivity>(&recover_dir).unwrap();
                assert_eq!(meta.replayed_rounds, wal_rounds as u64);
                std::hint::black_box(g);
            })
            .0
        };
        for (op, mut run) in [
            (
                "wal_append_ns",
                Box::new(append_run) as Box<dyn FnMut() -> Duration>,
            ),
            ("recovery_ms", Box::new(recover_run)),
        ] {
            let median = median_duration(reps, &mut run);
            records.push(Record {
                op,
                n,
                batch: wal_ops,
                threads,
                median_ns: median.as_nanos(),
            });
            eprintln!("{op} @ {threads} threads: median {} ns", median.as_nanos());
        }
        let _ = std::fs::remove_dir_all(&recover_dir);
    }

    // Validation: obviously broken output must fail the job.
    if records.is_empty() {
        eprintln!("perf_json: no records produced");
        std::process::exit(1);
    }
    for r in &records {
        if r.median_ns == 0 {
            eprintln!(
                "perf_json: zero median for {} at {} threads — timer broken?",
                r.op, r.threads
            );
            std::process::exit(1);
        }
    }
    // The load quantiles must be coherent per thread count: all three
    // present and monotone p50 ≤ p99 ≤ p999 (they describe one run).
    for threads in thread_counts() {
        let q = |op: &str| {
            records
                .iter()
                .find(|r| r.op == op && r.threads == threads)
                .map(|r| r.median_ns)
                .unwrap_or_else(|| {
                    eprintln!("perf_json: missing {op} at {threads} threads");
                    std::process::exit(1);
                })
        };
        let (p50, p99, p999) = (q("load_p50_ns"), q("load_p99_ns"), q("load_p999_ns"));
        if !(p50 <= p99 && p99 <= p999) {
            eprintln!(
                "perf_json: non-monotone load quantiles at {threads} threads: \
                 p50={p50} p99={p99} p999={p999}"
            );
            std::process::exit(1);
        }
    }

    let body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    let json = format!(
        "{{\n\"schema\": \"dyncon-bench-v1\",\n\"records\": [\n{}\n]\n}}\n",
        body.join(",\n")
    );
    // Round-trip sanity: the artifact must contain every op at every
    // thread count and no NaN/inf artifacts from formatting.
    assert!(!json.to_ascii_lowercase().contains("nan") && !json.contains("inf"));
    for op in [
        "batch_insert",
        "batch_connected",
        "batch_delete",
        "service_throughput",
        "service_latency_p50",
        "trace_overhead_pct",
        "slow_round_p99_ns",
        "export_frames_total",
        "export_lag_ms",
        "load_p50_ns",
        "load_p99_ns",
        "load_p999_ns",
        "queue_depth_max",
        "shard_throughput",
        "shard_boundary_ops",
        "read_view_throughput",
        "writer_throughput_with_readers",
        "wal_append_ns",
        "recovery_ms",
    ] {
        assert_eq!(
            json.matches(&format!("\"op\":\"{op}\"")).count(),
            thread_counts().len(),
            "missing records for {op}"
        );
    }

    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("perf_json: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {} records to {out_path}", records.len());
}
