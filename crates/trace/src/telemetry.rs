//! The scrapeable telemetry endpoint: a std-only `TcpListener` thread
//! serving the metric registry and the trace ring over plain HTTP/1.1.

use crate::recorder::TraceRecorder;
use dyncon_metrics::Registry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection socket timeout: a scraper that stalls mid-request is
/// cut off here, freeing its handler thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on concurrent per-connection handler threads. At the cap the
/// accept loop serves inline, which backpressures accepting.
const MAX_CONCURRENT_HANDLERS: usize = 32;

/// A health probe: `(healthy, body)`. The closure must be cheap and
/// non-blocking — it runs on the telemetry serving path.
pub type HealthProbe = Arc<dyn Fn() -> (bool, String) + Send + Sync>;

/// Liveness + readiness probes for the `/healthz` and `/readyz` routes.
///
/// Defined here (rather than in the health engine that feeds it) so the
/// telemetry endpoint stays decoupled: any layer can hand in closures.
/// `dyncon-export`'s `HealthState::routes()` is the canonical producer.
#[derive(Clone)]
pub struct HealthRoutes {
    /// `/healthz`: is the process alive and serving at all?
    pub healthz: HealthProbe,
    /// `/readyz`: should a load balancer route traffic here? Flips to
    /// `false` (HTTP 503) on writer stall, WAL errors or backpressure
    /// saturation.
    pub readyz: HealthProbe,
}

impl std::fmt::Debug for HealthRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthRoutes").finish_non_exhaustive()
    }
}

/// Handle of a running [`serve_telemetry`] endpoint. Scrape it at
/// [`TelemetryServer::local_addr`]; stop it with
/// [`TelemetryServer::close`] + [`TelemetryServer::join`] (or just
/// drop it — drop closes and joins too).
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// The bound address (pass port 0 to [`serve_telemetry`] to let
    /// the OS pick a free one, then read it back here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting scrapes. Idempotent; in-flight requests finish
    /// (bounded by the per-connection timeout). [`TelemetryServer::join`]
    /// waits for the serving thread itself.
    pub fn close(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop only observes the flag between connections;
        // poke it with one so a fully idle listener wakes up too.
        let _ = TcpStream::connect(self.addr);
    }

    /// Close (if not already closed) and wait for the serving thread
    /// to exit.
    pub fn join(mut self) {
        self.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Decrements the live-handler count when the connection finishes —
/// or when a failed `spawn` drops the un-run closure holding it.
struct HandlerGuard(Arc<AtomicUsize>);

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Serve `registry`, `recorder` and the optional `health` probes over
/// HTTP on `addr` from a dedicated thread, until the returned handle is
/// closed:
///
/// - `GET /metrics` — the registry snapshot in Prometheus text
///   exposition format (what `render_prometheus()` produces).
/// - `GET /trace` — the trace ring as Chrome-trace JSON (load the
///   response body in `chrome://tracing` or Perfetto).
/// - `GET /slow` — the slow-round log as human-readable stage tables.
/// - `GET /healthz`, `GET /readyz` — the [`HealthRoutes`] probes. With
///   `None` both answer 200 (the process is trivially alive and nothing
///   is tracking readiness); with probes attached an unhealthy/unready
///   answer is an HTTP 503 whose body explains why.
/// - anything else — 404.
///
/// Observational only, like the recorder itself: scraping snapshots
/// shared-state copies and never touches admission or the writer.
/// One request per connection (`Connection: close`); each accepted
/// connection is served on a short-lived thread (capped at
/// `MAX_CONCURRENT_HANDLERS`, 32) so one stalled scraper cannot
/// head-of-line block `/metrics` for everyone else.
pub fn serve_telemetry(
    addr: impl ToSocketAddrs,
    registry: Registry,
    recorder: TraceRecorder,
    health: Option<HealthRoutes>,
) -> io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("dyncon-telemetry".into())
        .spawn(move || {
            let active = Arc::new(AtomicUsize::new(0));
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                // Serve errors are the scraper's problem (it hung up,
                // timed out, or sent garbage); the endpoint lives on.
                if active.fetch_add(1, Ordering::AcqRel) < MAX_CONCURRENT_HANDLERS {
                    let guard = HandlerGuard(Arc::clone(&active));
                    let registry = registry.clone();
                    let recorder = recorder.clone();
                    let health = health.clone();
                    // Failed spawns drop the closure, which drops the
                    // guard (count stays balanced) and the stream (the
                    // scraper sees a reset and retries).
                    let _ = std::thread::Builder::new()
                        .name("dyncon-telemetry-conn".into())
                        .spawn(move || {
                            let _guard = guard;
                            let _ = serve_one(stream, &registry, &recorder, health.as_ref());
                        });
                } else {
                    // At the cap: serve inline, backpressuring accepts
                    // rather than spawning without bound.
                    let _guard = HandlerGuard(Arc::clone(&active));
                    let _ = serve_one(stream, &registry, &recorder, health.as_ref());
                }
            }
        })
        .expect("spawn dyncon telemetry thread");
    Ok(TelemetryServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Read one request line, route it, write one response.
fn serve_one(
    mut stream: TcpStream,
    registry: &Registry,
    recorder: &TraceRecorder,
    health: Option<&HealthRoutes>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Read until the header terminator (or the buffer bound): the
    // request line is all the routing needs.
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.snapshot().render_prometheus(),
        ),
        "/trace" => (
            "200 OK",
            "application/json; charset=utf-8",
            recorder.chrome_trace_json(),
        ),
        "/slow" => (
            "200 OK",
            "text/plain; charset=utf-8",
            recorder.slow_round_log().render_text(),
        ),
        "/healthz" => probe_response(health.map(|h| &h.healthz)),
        "/readyz" => probe_response(health.map(|h| &h.readyz)),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "404: try /metrics, /trace, /slow, /healthz or /readyz\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Render one health probe as `(status, content-type, body)`. No probe
/// attached means the route is trivially healthy.
fn probe_response(probe: Option<&HealthProbe>) -> (&'static str, &'static str, String) {
    let (ok, body) = match probe {
        Some(p) => p(),
        None => (true, "ok (no health engine attached)\n".to_string()),
    };
    let status = if ok {
        "200 OK"
    } else {
        "503 Service Unavailable"
    };
    (status, "text/plain; charset=utf-8", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Stage;
    use std::time::Instant;

    /// Minimal scrape client: one GET, read to EOF, split off the body.
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header block");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn endpoint_serves_metrics_trace_and_slow() {
        let registry = Registry::new();
        registry
            .counter("demo_total", "things", "a demo counter")
            .inc();
        let recorder = TraceRecorder::new();
        recorder.record(4, Stage::Apply, Instant::now(), 8);
        recorder.complete_round(4, Duration::from_millis(20), 8);
        let server = serve_telemetry("127.0.0.1:0", registry, recorder, None)
            .expect("bind an ephemeral port");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain"));
        assert!(body.contains("# TYPE demo_total counter"));
        assert!(body.contains("demo_total 1"));

        let (head, body) = get(addr, "/trace");
        assert!(head.contains("application/json"));
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"name\":\"apply\""));

        let (head, body) = get(addr, "/slow");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("round 4"), "20ms > 10ms default threshold");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.join();
        // Closed: new connections are refused (or reset immediately).
        assert!(
            TcpStream::connect(addr).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut s| {
                        let mut b = [0u8; 1];
                        s.read(&mut b)
                    })
                    .map(|n| n == 0)
                    .unwrap_or(true)
        );
    }

    #[test]
    fn close_is_idempotent_and_drop_joins() {
        let server =
            serve_telemetry("127.0.0.1:0", Registry::new(), TraceRecorder::new(), None).unwrap();
        server.close();
        server.close();
        drop(server); // must not hang
    }

    #[test]
    fn health_routes_default_to_ok_without_probes() {
        let server =
            serve_telemetry("127.0.0.1:0", Registry::new(), TraceRecorder::new(), None).unwrap();
        let addr = server.local_addr();
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("ok"));
        let (head, _) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.join();
    }

    #[test]
    fn health_routes_reflect_probe_verdicts() {
        use std::sync::atomic::AtomicBool;
        let ready = Arc::new(AtomicBool::new(true));
        let probe_ready = Arc::clone(&ready);
        let routes = HealthRoutes {
            healthz: Arc::new(|| (true, "alive\n".to_string())),
            readyz: Arc::new(move || {
                if probe_ready.load(Ordering::SeqCst) {
                    (true, "ready\n".to_string())
                } else {
                    (false, "writer stalled\n".to_string())
                }
            }),
        };
        let server = serve_telemetry(
            "127.0.0.1:0",
            Registry::new(),
            TraceRecorder::new(),
            Some(routes),
        )
        .unwrap();
        let addr = server.local_addr();
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "alive\n");
        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ready\n");
        ready.store(false, Ordering::SeqCst);
        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(body, "writer stalled\n");
        // Liveness is independent of readiness.
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.join();
    }

    /// The head-of-line fix: a connection that never sends its request
    /// (it would hold its handler for the full 2 s IO timeout) must not
    /// delay other scrapers.
    #[test]
    fn stalled_connection_does_not_block_other_scrapers() {
        let registry = Registry::new();
        registry.counter("alive_total", "ops", "").inc();
        let server = serve_telemetry("127.0.0.1:0", registry, TraceRecorder::new(), None).unwrap();
        let addr = server.local_addr();
        // Open (and hold) connections that send nothing.
        let stalled: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let start = Instant::now();
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("alive_total 1"));
        assert!(
            start.elapsed() < IO_TIMEOUT,
            "scrape waited on a stalled peer: {:?}",
            start.elapsed()
        );
        drop(stalled);
        server.join();
    }
}
