//! Push-mode telemetry end to end: server → exporter → collector.
//!
//! A `ConnServer` runs closed-loop Zipf traffic with a `HealthState`
//! and a `TraceRecorder` attached. A `TelemetryExporter` drains metric
//! deltas, fresh spans and health state every few milliseconds and
//! pushes them as checksummed binary frames to an in-process
//! `Collector`, which re-accumulates and re-renders the merged fleet
//! view as Prometheus text. The health engine also backs `/healthz` +
//! `/readyz` on the scrape endpoint.
//!
//! Halfway through, the collector is killed. The contract on display:
//! the server neither stalls nor fails nor reorders a round — the
//! exporter buffers (bounded), counts its drops, and keeps
//! reconnect-looping against the dead address.
//!
//! ```text
//! cargo run --release --example export_pipeline
//! ```

use dyncon_core::BatchDynamicConnectivity;
use dyncon_export::{Collector, ExportConfig, HealthState, TelemetryExporter};
use dyncon_graphgen::zipf_client_schedules;
use dyncon_metrics::Registry;
use dyncon_server::{ConnServer, ServerConfig, SubmitOptions};
use dyncon_trace::{serve_telemetry_with_health, TraceRecorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One `curl`-shaped request: GET `path`, return (status line, body).
fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("endpoint reachable");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("request sent");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = match response.split_once("\r\n\r\n") {
        Some((_headers, body)) => body.to_string(),
        None => response,
    };
    (status, body)
}

fn main() {
    let n = 1 << 12;
    let clients = 4usize;
    let requests = 40;
    let schedules = zipf_client_schedules(n, clients, requests, 64, 0.5, 1.1, 33);

    // The observed process: registry + recorder + health engine shared
    // by the server, the exporter and the local scrape endpoint.
    let registry = Registry::new();
    let recorder = TraceRecorder::new();
    let health = HealthState::default().with_metrics(&registry);

    // The fleet side: a collector other processes would also push to.
    let collector = Collector::bind("127.0.0.1:0").expect("collector binds");
    println!("collector listening on {}", collector.local_addr());

    let exporter = TelemetryExporter::start(
        collector.local_addr().to_string(),
        registry.clone(),
        ExportConfig::new()
            .interval(Duration::from_millis(5))
            .source("example-server")
            .trace(recorder.clone())
            .health(health.clone()),
    );

    // Local pull endpoint with the health routes attached: /healthz,
    // /readyz alongside /metrics, /trace, /slow.
    let telemetry = serve_telemetry_with_health(
        "127.0.0.1:0",
        registry.clone(),
        recorder.clone(),
        Some(health.routes()),
    )
    .expect("endpoint binds");
    let addr = telemetry.local_addr();
    let (status, body) = scrape(addr, "/readyz");
    println!("readyz before traffic: {status} — {}", body.trim());

    let server = ConnServer::start(
        BatchDynamicConnectivity::new(n),
        ServerConfig::new()
            .batch_cap(1024)
            .coalesce_wait(Duration::from_micros(100))
            .queue_capacity(2 * clients)
            .metrics(registry.clone())
            .trace(recorder.clone())
            .health(health.clone()),
    );

    // Clients drive load; halfway through, the collector dies.
    let kill_at = requests / 2;
    std::thread::scope(|scope| {
        for (c, sched) in schedules.iter().enumerate() {
            let server = &server;
            let collector = &collector;
            scope.spawn(move || {
                for (i, ops) in sched.iter().enumerate() {
                    let ticket = server
                        .submit_with(
                            ops.clone(),
                            SubmitOptions::new().as_client(c as u64).blocking(true),
                        )
                        .expect("service open");
                    ticket.wait().expect("round commits");
                    if c == 0 && i == kill_at {
                        println!("killing the collector mid-run...");
                        collector.shutdown();
                    }
                }
            });
        }
    });

    let report = server.join();
    println!(
        "served {} rounds / {} ops — all committed with the collector dead since round ~{kill_at}",
        report.rounds_committed, report.ops_committed
    );

    // The collector kept everything it accumulated before it died.
    let wait_until = Instant::now() + Duration::from_secs(2);
    while collector.frames_received() == 0 && Instant::now() < wait_until {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "collector (post-mortem): {} frames from {:?}, {} spans, {} checksum failures",
        collector.frames_received(),
        collector.sources(),
        collector.spans_received(),
        collector.checksum_failures()
    );
    assert!(
        collector.frames_received() > 0,
        "frames arrived before the kill"
    );
    assert_eq!(collector.checksum_failures(), 0);
    let merged = collector.render_prometheus();
    let rounds_line = merged
        .lines()
        .find(|l| l.starts_with("dyncon_server_rounds_committed_total"))
        .unwrap_or("dyncon_server_rounds_committed_total <not yet exported>");
    println!("merged fleet exposition carries e.g.: {rounds_line}");

    // The exporter soaked up the dead collector without touching the
    // server: sent before the kill, dropped (bounded buffer) after.
    println!(
        "exporter: {} frames sent, {} dropped, {} reconnects — server never noticed",
        exporter.frames_sent(),
        exporter.frames_dropped(),
        exporter.reconnects()
    );

    // Health after the run: the writer is gone (server joined), but
    // no stall was ever declared while it was live; readiness still
    // reflects the engine's current view.
    let (status, body) = scrape(addr, "/healthz");
    println!("healthz after run: {status} — {}", body.trim());
    let (status, _body) = scrape(addr, "/readyz");
    println!("readyz after run: {status}");
    let report = health.refresh();
    println!(
        "health report: ready={} stalled={} slo_burn_1m={}‰ rounds={} reads={}",
        report.ready,
        report.writer_stalled,
        report.slo_burn_1m_permille,
        report.rounds_seen,
        report.reads_served
    );

    exporter.close();
    telemetry.close();
    telemetry.join();
}
