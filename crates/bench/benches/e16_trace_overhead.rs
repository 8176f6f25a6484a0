//! E16: what tracing costs the pipeline it observes.
//!
//! The same closed-loop service run as E11, in three configurations per
//! worker thread count: no recorder attached (the `ServerConfig::trace =
//! None` no-op path), a recorder collecting every stage span, and a
//! recorder plus a live telemetry endpoint being scraped concurrently.
//! The three walls side by side are the overhead claim the
//! `trace_overhead_pct` perf row gates (≤5%): the no-op path must cost
//! nothing, and span recording must stay in the noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dyncon_bench::drive_service;
use dyncon_core::BatchDynamicConnectivity;
use dyncon_graphgen::zipf_client_schedules;
use dyncon_server::{ConnServer, ServerConfig};
use dyncon_trace::{serve_telemetry, TraceRecorder};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy)]
enum Mode {
    Untraced,
    Traced,
    TracedScraped,
}

fn scrape(addr: std::net::SocketAddr, path: &str) {
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return;
    };
    let _ = write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n"
    );
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
}

fn bench(c: &mut Criterion) {
    let n = 1 << 13;
    let clients = 4usize;
    let requests_per_client = 16;
    let ops_per_request = 64;
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
    let mut group = c.benchmark_group("e16_trace_overhead");
    group.sample_size(10);
    for threads in dyncon_bench::thread_counts() {
        for (label, mode) in [
            ("untraced", Mode::Untraced),
            ("traced", Mode::Traced),
            ("traced_scraped", Mode::TracedScraped),
        ] {
            group.throughput(Throughput::Elements(total_ops));
            group.bench_with_input(BenchmarkId::new(label, threads), &mode, |b, &mode| {
                b.iter(|| {
                    let mut config = ServerConfig::new()
                        .batch_cap(4096)
                        .coalesce_wait(Duration::from_micros(50))
                        .queue_capacity(2 * clients)
                        .worker_threads(threads);
                    let recorder = match mode {
                        Mode::Untraced => None,
                        Mode::Traced | Mode::TracedScraped => Some(TraceRecorder::new()),
                    };
                    if let Some(t) = &recorder {
                        config = config.trace(t.clone());
                    }
                    let telemetry = match (mode, &recorder) {
                        (Mode::TracedScraped, Some(t)) => Some(
                            serve_telemetry(
                                "127.0.0.1:0",
                                dyncon_metrics::Registry::new(),
                                t.clone(),
                                None,
                            )
                            .expect("endpoint binds"),
                        ),
                        _ => None,
                    };
                    let stop = Arc::new(AtomicBool::new(false));
                    let scraper = telemetry.as_ref().map(|t| {
                        let addr = t.local_addr();
                        let stop = Arc::clone(&stop);
                        std::thread::spawn(move || {
                            while !stop.load(Ordering::Relaxed) {
                                scrape(addr, "/metrics");
                                scrape(addr, "/trace");
                            }
                        })
                    });
                    let server = ConnServer::start(BatchDynamicConnectivity::new(n), config);
                    let (wall, _lats) = drive_service(&server, &schedules);
                    let report = server.join();
                    assert_eq!(report.ops_committed, total_ops);
                    stop.store(true, Ordering::Relaxed);
                    if let Some(h) = scraper {
                        h.join().unwrap();
                    }
                    wall
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
