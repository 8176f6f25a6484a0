//! E14: sharded serving throughput vs shard count × thread count.
//!
//! The same closed-loop Zipf clients as E11, now through a
//! `ShardedServer`: the coordinator decomposes each admitted round into
//! per-shard sealed sub-rounds (parallel across shard writers) and
//! resolves cross-shard queries through the contracted boundary graph.
//! The matrix crosses the `DYNCON_SHARDS` shard matrix with the
//! `DYNCON_THREADS` worker matrix; 1 shard is the degenerate baseline
//! (all coordination overhead, no parallelism win), so the interesting
//! read is the 2-and-up trend against it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dyncon_bench::drive_service;
use dyncon_core::BatchDynamicConnectivity;
use dyncon_graphgen::zipf_client_schedules;
use dyncon_server::ServerConfig;
use dyncon_shard::{ShardConfig, ShardMapKind, ShardedServer};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let n = 1 << 13;
    let clients = 4usize;
    let requests_per_client = 12;
    let ops_per_request = 48;
    let schedules = zipf_client_schedules(
        n,
        clients,
        requests_per_client,
        ops_per_request,
        0.5,
        1.1,
        42,
    );
    let total_ops = (clients * requests_per_client * ops_per_request) as u64;
    let mut group = c.benchmark_group("e14_sharded");
    group.sample_size(10);
    for threads in dyncon_bench::thread_counts() {
        for shards in dyncon_bench::shard_counts() {
            group.throughput(Throughput::Elements(total_ops));
            group.bench_with_input(
                BenchmarkId::new(format!("t{threads}"), shards),
                &shards,
                |b, &shards| {
                    b.iter(|| {
                        let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
                            n,
                            ShardConfig::new()
                                .shards(shards)
                                .kind(ShardMapKind::Hash)
                                .server(
                                    ServerConfig::new()
                                        .batch_cap(4096)
                                        .coalesce_wait(Duration::from_micros(50))
                                        .queue_capacity(2 * clients)
                                        .worker_threads(threads),
                                ),
                        )
                        .expect("sharded server starts");
                        let (wall, _lats) = drive_service(&server, &schedules);
                        let report = server.join().expect("sharded server joins");
                        assert_eq!(report.ops_committed, total_ops);
                        wall
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
