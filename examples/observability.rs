//! Observability demo: one metrics registry across the whole stack.
//!
//! Part 1: hand a `dyncon_metrics::Registry` to a `ConnServer`, drive
//! open-loop Poisson traffic through it, and read the serving metrics —
//! queue depth high-water, round sizes, coalesce wait and apply latency
//! histograms — live from the shared registry, then print the frozen
//! snapshot's Prometheus text exposition.
//!
//! Part 2: the determinism interaction. Metrics are observational, never
//! inputs: the same deterministic schedule with and without a registry
//! commits byte-identical rounds.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use dyncon_core::BatchDynamicConnectivity;
use dyncon_graphgen::{poisson_arrivals, zipf_client_schedules};
use dyncon_metrics::Registry;
use dyncon_server::{ConnServer, ServerConfig, SubmitOptions};
use std::time::Duration;

fn main() {
    observe_a_loaded_server();
    metrics_do_not_perturb_determinism();
}

fn observe_a_loaded_server() {
    let n = 1 << 12;
    let clients = 4usize;
    let requests = 32;
    let ops_per_request = 64;
    let schedules = zipf_client_schedules(n, clients, requests, ops_per_request, 0.5, 1.1, 7);
    println!("open-loop load: {clients} Poisson clients × {requests} req × {ops_per_request} ops");

    // One registry, handed to the server; every `ServerMetrics` event
    // lands here and can be read while the server is still running.
    let registry = Registry::new();
    let server = ConnServer::start(
        BatchDynamicConnectivity::new(n),
        ServerConfig::new()
            .batch_cap(1024)
            .coalesce_wait(Duration::from_micros(100))
            .queue_capacity(2 * clients)
            .metrics(registry.clone()),
    );

    // Submit on a fixed schedule (open loop — the offered rate does not
    // slow down when the server does); shed backpressure rejects.
    std::thread::scope(|scope| {
        for (c, sched) in schedules.iter().enumerate() {
            let server = &server;
            let arrivals = poisson_arrivals(sched.len(), 100_000, 7 + c as u64);
            scope.spawn(move || {
                let t0 = std::time::Instant::now();
                let mut tickets = Vec::new();
                for (ops, at_ns) in sched.iter().zip(arrivals) {
                    let due = Duration::from_nanos(at_ns).saturating_sub(t0.elapsed());
                    std::thread::sleep(due);
                    if let Ok(t) =
                        server.submit_with(ops.clone(), SubmitOptions::new().as_client(c as u64))
                    {
                        tickets.push(t);
                    }
                }
                for t in tickets {
                    t.wait().expect("round commits");
                }
            });
        }
    });

    // Live read, pre-join: the registry is shared, not a post-mortem.
    let live = registry.snapshot();
    let committed = live
        .get("dyncon_server_rounds_committed_total")
        .and_then(|m| m.value.as_counter())
        .unwrap_or(0);
    println!("  live snapshot while joining: {committed} rounds committed so far");

    let report = server.join();
    let snap = &report.metrics; // join froze the same registry
    let (depth, depth_max) = snap
        .get("dyncon_server_queue_depth")
        .and_then(|m| m.value.as_gauge())
        .expect("gauge registered");
    println!("  queue depth: {depth} now, {depth_max} high-water");
    for name in ["dyncon_server_round_size_ops", "dyncon_server_apply_ns"] {
        let h = snap
            .get(name)
            .and_then(|m| m.value.as_histogram())
            .expect("histogram registered");
        println!(
            "  {name}: count {}, p50 ≤ {}, p99 ≤ {}",
            h.count,
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0)
        );
    }

    println!("\n--- Prometheus text exposition (truncated) ---");
    for line in snap
        .render_prometheus()
        .lines()
        .filter(|l| !l.contains("_bucket"))
        .take(18)
    {
        println!("{line}");
    }
    println!("---\n");
}

fn metrics_do_not_perturb_determinism() {
    let n = 1 << 10;
    let clients = 4usize;
    let rounds = 6;
    let schedules = zipf_client_schedules(n, clients, rounds, 48, 0.4, 1.1, 21);
    let run = |registry: Option<Registry>| {
        let mut config = ServerConfig::new()
            .deterministic(true)
            .record_rounds(true)
            .queue_capacity(clients * rounds);
        if let Some(r) = registry {
            config = config.metrics(r);
        }
        let server = ConnServer::start(BatchDynamicConnectivity::new(n), config);
        for round in 0..rounds {
            for (c, sched) in schedules.iter().enumerate() {
                server
                    .submit_with(
                        sched[round].clone(),
                        SubmitOptions::new().as_client(c as u64),
                    )
                    .unwrap();
            }
            server.seal_round();
        }
        server.join().rounds
    };
    let without = run(None);
    let with = run(Some(Registry::new()));
    assert_eq!(without, with);
    println!(
        "determinism: {} rounds with metrics == {} rounds without — byte-identical ✓",
        with.len(),
        without.len()
    );
}
