//! Sharded serving demo: partition → decompose → recombine → verify.
//!
//! A `ShardedServer` partitions the vertex universe across 4 hash
//! shards, each behind its own single-writer commit pipeline, and
//! recombines cross-shard reachability through the contracted boundary
//! graph. Concurrent Zipf clients drive mixed-op traffic; every answer
//! is then re-checked against a single unsharded oracle applying the
//! exact same rounds, and the coordinator's own metrics show how much
//! recombination work the partition induced.
//!
//! ```text
//! cargo run --release --example sharded_service
//! ```

use dyncon_api::{BatchDynamic, Connectivity, ExportEdges};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_graphgen::zipf_client_schedules;
use dyncon_server::SubmitOptions;
use dyncon_shard::{ShardConfig, ShardMapKind, ShardedServer};
use dyncon_spanning::NaiveDynamicGraph;

const N: usize = 1 << 12;
const SHARDS: usize = 4;
const CLIENTS: usize = 4;
const ROUNDS: usize = 8;
const OPS_PER_REQUEST: usize = 48;

fn main() {
    let schedules = zipf_client_schedules(N, CLIENTS, ROUNDS, OPS_PER_REQUEST, 0.5, 1.1, 7);

    println!("start: {N} vertices across {SHARDS} hash shards, {CLIENTS} clients");
    let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
        N,
        ShardConfig::new()
            .shards(SHARDS)
            .kind(ShardMapKind::Hash)
            .deterministic(true)
            .record_rounds(true)
            .queue_capacity(CLIENTS * ROUNDS),
    )
    .unwrap();

    // Deterministic mode: clients submit concurrently, one sealer thread
    // commits; admitted requests are ordered by (client, seq) so the
    // round stream is reproducible.
    let done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (c, sched) in schedules.iter().enumerate() {
            let (server, done) = (&server, &done);
            scope.spawn(move || {
                for ops in sched {
                    let ticket = server
                        .submit_with(
                            ops.clone(),
                            SubmitOptions::new().as_client(c as u64).blocking(true),
                        )
                        .unwrap();
                    ticket.wait().unwrap();
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        let (server, done) = (&server, &done);
        scope.spawn(move || {
            while done.load(std::sync::atomic::Ordering::Relaxed) < CLIENTS {
                std::thread::sleep(std::time::Duration::from_micros(200));
                server.seal_round();
            }
        });
    });

    // Mid-flight global reads go through `inspect`: the closure runs on
    // the coordinator between rounds and recombines per-shard state.
    let (components, edges) = server
        .inspect(|b| (b.num_components(), b.export_edges().len()))
        .unwrap();
    println!("state: {edges} edges, {components} global components");

    let report = server.join().unwrap();
    println!(
        "served: {} rounds, {} ops; shards committed {} sub-rounds",
        report.rounds_committed,
        report.ops_committed,
        report
            .shards
            .iter()
            .map(|s| s.rounds_committed)
            .sum::<u64>(),
    );
    let metric = |name: &str| report.metrics.get(name).cloned();
    if let Some(m) = metric("dyncon_shard_boundary_rebuilds_total") {
        println!(
            "boundary graph: {} rebuilds, {} contracted edges total",
            m.value.as_counter().unwrap_or(0),
            metric("dyncon_shard_boundary_ops")
                .and_then(|m| m.value.as_histogram().map(|h| h.sum))
                .unwrap_or(0),
        );
    }

    // Verify: an unsharded oracle applying the recorded rounds must
    // produce byte-identical results — the partition, the per-shard
    // pipelines and the boundary graph are all invisible in the answers.
    let mut oracle = NaiveDynamicGraph::new(N);
    for record in &report.rounds {
        let got = oracle.apply(&record.ops).unwrap();
        assert_eq!(got, record.result, "round {} diverged", record.round);
    }
    println!(
        "verified: all {} rounds byte-identical to the unsharded oracle ✓",
        report.rounds.len()
    );

    // The per-shard backends come home at shutdown; their edge counts
    // sum to the oracle's intra-shard edges, the cross store holds the
    // rest.
    let local: usize = report
        .shards
        .iter()
        .map(|s| s.backend.export_edges().len())
        .sum();
    let cross = report.cross.backend.export_edges().len();
    assert_eq!(local + cross, oracle.export_edges().len());
    println!(
        "edge partition: {local} intra-shard + {cross} cross-shard = {} total",
        local + cross
    );
    println!("done: sharded serving is observationally identical to one backend");
}
