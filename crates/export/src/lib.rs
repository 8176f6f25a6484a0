//! # dyncon-export
//!
//! Push-mode telemetry export and the health engine for the dyncon
//! serving stack — the always-on measurement plane the pull-only
//! `/metrics` endpoint cannot provide for a fleet (NAT'd shards,
//! central trend stores). Std-only and dependency-free, like every
//! crate in the workspace.
//!
//! Three pieces:
//!
//! - [`TelemetryExporter`] — a background thread that, on a
//!   configurable interval, drains **metric snapshot deltas**
//!   ([`dyncon_metrics::MetricsSnapshot::delta`]), fresh trace spans
//!   and slow-round captures into OTLP-shaped, checksummed,
//!   length-framed binary frames (the `DCEXP001` wire format in
//!   [`frame`], the same framing discipline as the durable layer's
//!   `DCWAL001` log) and pushes them over a plain `TcpStream`. A
//!   bounded drop-oldest buffer plus reconnect-with-jittered-backoff
//!   means a slow or dead collector costs dropped frames (counted in
//!   `dyncon_export_frames_dropped_total`) — never a blocked or
//!   slowed commit path.
//! - [`Collector`] — the sink: accepts frames from any number of
//!   exporters, validates every checksum, accumulates per source, and
//!   re-renders the merged fleet view as Prometheus text. Ships as a
//!   library plus the `dyncon-collector` binary.
//! - [`HealthState`] — writer-stall watchdog (last-commit heartbeat
//!   against a configurable threshold; trips `dyncon_server_writer_stalled`
//!   and flips readiness), WAL-error and backpressure-saturation
//!   signals, and 1 m / 5 m rolling-window SLO burn-rate tracking over
//!   the round-latency observations. Surfaced as metrics and as the
//!   `/healthz` + `/readyz` routes on [`dyncon_trace::serve_telemetry`]
//!   (pass `Some(`[`HealthState::routes`]`())`).
//!
//! ## Observational only, like everything before it
//!
//! The exporter and the health engine read the same snapshots and
//! cursors a scraper reads; nothing feeds back into admission, round
//! formation, or results. `tests/determinism.rs` proves rounds stay
//! byte-identical with an exporter attached and a collector receiving
//! frames mid-run — and that killing the collector mid-run never
//! stalls, fails, or reorders a commit round.
//!
//! ## Example
//!
//! ```
//! use dyncon_export::{Collector, ExportConfig, TelemetryExporter};
//! use dyncon_metrics::Registry;
//! use std::time::Duration;
//!
//! let collector = Collector::bind("127.0.0.1:0").unwrap();
//! let registry = Registry::new();
//! let requests = registry.counter("demo_requests_total", "requests", "demo");
//! let exporter = TelemetryExporter::start(
//!     collector.local_addr().to_string(),
//!     registry,
//!     ExportConfig::new()
//!         .interval(Duration::from_millis(5))
//!         .source("demo-proc"),
//! );
//! requests.add(3);
//! // … the exporter pushes deltas in the background …
//! exporter.close(); // final drain + flush
//! while collector.frames_received() == 0 {
//!     std::thread::sleep(Duration::from_millis(1));
//! }
//! let merged = collector.merged_snapshot();
//! assert_eq!(
//!     merged.get("demo_requests_total").unwrap().value.as_counter(),
//!     Some(3)
//! );
//! collector.close();
//! ```

mod collector;
mod exporter;
pub mod frame;
mod health;

pub use collector::Collector;
pub use exporter::{ExportConfig, TelemetryExporter};
pub use frame::{Frame, FramePayload, WireSlowRound, WireSpan};
pub use health::{HealthConfig, HealthReport, HealthState, HealthWatchdog};
