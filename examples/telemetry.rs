//! Tracing + telemetry demo: watch a live service from the outside.
//!
//! A `ConnServer` runs closed-loop Zipf traffic with a `TraceRecorder`
//! attached and `dyncon_trace::serve_telemetry` bound on a loopback
//! port. While rounds commit, a client thread scrapes the endpoint the
//! way Prometheus (or a human with `curl`) would — `GET /metrics` for
//! the text exposition, `GET /trace` for Chrome-trace JSON you can drop
//! into `chrome://tracing` or Perfetto. After the run, the slowest
//! round's stage breakdown answers "where did that round's time go?"
//! without any external tooling.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use dyncon_core::BatchDynamicConnectivity;
use dyncon_graphgen::zipf_client_schedules;
use dyncon_metrics::Registry;
use dyncon_server::{ConnServer, ServerConfig, SubmitOptions};
use dyncon_trace::{serve_telemetry, TraceConfig, TraceRecorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One `curl`-shaped request: GET `path`, return the response body.
fn scrape(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("endpoint reachable");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("request sent");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    match response.split_once("\r\n\r\n") {
        Some((_headers, body)) => body.to_string(),
        None => response,
    }
}

fn main() {
    let n = 1 << 12;
    let clients = 4usize;
    let requests = 24;
    let schedules = zipf_client_schedules(n, clients, requests, 64, 0.5, 1.1, 33);

    // One registry + one recorder, shared by the server and the
    // endpoint. Every round over 100 µs lands in the slow-round log.
    let registry = Registry::new();
    let recorder = TraceRecorder::with_config(
        TraceConfig::new().slow_round_threshold(Duration::from_micros(100)),
    );
    let telemetry =
        serve_telemetry("127.0.0.1:0", registry.clone(), recorder.clone()).expect("endpoint binds");
    let addr = telemetry.local_addr();
    println!("telemetry endpoint listening on http://{addr}");
    println!("  (try: curl http://{addr}/metrics | head)");

    let server = ConnServer::start(
        BatchDynamicConnectivity::new(n),
        ServerConfig::new()
            .batch_cap(1024)
            .coalesce_wait(Duration::from_micros(100))
            .queue_capacity(2 * clients)
            .metrics(registry)
            .trace(recorder.clone()),
    );

    // Clients drive load while a scraper thread observes from outside —
    // the endpoint never blocks the writer.
    std::thread::scope(|scope| {
        let scraper = scope.spawn(move || {
            let mut metrics_lines = 0usize;
            let mut trace_bytes = 0usize;
            for _ in 0..10 {
                metrics_lines = scrape(addr, "/metrics").lines().count();
                trace_bytes = scrape(addr, "/trace").len();
                std::thread::sleep(Duration::from_millis(2));
            }
            (metrics_lines, trace_bytes)
        });
        for (c, sched) in schedules.iter().enumerate() {
            let server = &server;
            scope.spawn(move || {
                for ops in sched {
                    let ticket = server
                        .submit_with(
                            ops.clone(),
                            SubmitOptions::new().as_client(c as u64).blocking(true),
                        )
                        .expect("service open");
                    ticket.wait().expect("round commits");
                }
            });
        }
        let (metrics_lines, trace_bytes) = scraper.join().unwrap();
        println!("scraped mid-run: /metrics {metrics_lines} lines, /trace {trace_bytes} bytes");
    });

    let report = server.join();
    println!(
        "served {} rounds / {} ops; recorder captured {} spans across {} rounds",
        report.rounds_committed,
        report.ops_committed,
        recorder.recorded(),
        recorder.rounds_completed()
    );

    // Post-mortem attribution, no endpoint needed: the report carries
    // the slowest round's stage breakdown.
    let slowest = report.slowest_round.expect("tracing was on");
    println!("\nslowest round, stage by stage:");
    print!("{}", slowest.render_text());

    let slow = recorder.slow_round_log();
    println!(
        "slow-round log: {} round(s) over the 100 µs threshold ({} captured lifetime)",
        slow.rounds.len(),
        slow.captured
    );

    // One last scrape each, now that the run is complete.
    let trace_json = scrape(addr, "/trace");
    assert!(trace_json.contains("traceEvents"));
    println!(
        "\nfinal /trace: {} bytes of Chrome-trace JSON (chrome://tracing, Perfetto)",
        trace_json.len()
    );
    let slow_text = scrape(addr, "/slow");
    println!("final /slow:\n{slow_text}");

    telemetry.close();
    telemetry.join();
}
