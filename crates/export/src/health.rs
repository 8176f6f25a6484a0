//! The health engine: writer-stall watchdog, WAL-error and
//! backpressure-saturation signals, and rolling-window SLO burn-rate
//! tracking — surfaced as metrics and as `/healthz` + `/readyz` probes.
//!
//! [`HealthState`] is a cheap clonable handle the serving layers feed
//! from their hot paths (`note_round_start`, `note_round_commit`,
//! `set_pending`, …: a few atomics and one tiny uncontended lock for
//! the per-second rings). Evaluation is pulled, not pushed:
//! [`HealthState::refresh`] recomputes readiness from the raw signals
//! and is invoked by the probes themselves, by the exporter's tick, or
//! by a dedicated [`HealthWatchdog`] thread for deployments where
//! nobody polls.
//!
//! Like metrics and tracing, health is **observational only**: nothing
//! here feeds back into admission or round formation, so attaching a
//! `HealthState` leaves deterministic rounds byte-identical.

use dyncon_metrics::{Counter, Gauge, Registry};
use dyncon_trace::HealthRoutes;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// 5-minute window plus one slot so the in-progress second never
/// evicts the oldest complete one.
const SLO_SLOTS: usize = 301;

/// How many trailing seconds of backpressure rejects count as
/// "saturated" (each of them must have seen at least one reject).
const SATURATION_SECS: u64 = 3;

/// Tuning for the health engine. All knobs have working defaults.
#[derive(Clone, Debug)]
pub struct HealthConfig {
    pub(crate) stall_threshold: Duration,
    pub(crate) round_slo: Duration,
    pub(crate) slo_target_permille: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stall_threshold: Duration::from_secs(2),
            round_slo: Duration::from_millis(10),
            slo_target_permille: 990,
        }
    }
}

impl HealthConfig {
    /// Defaults: 2 s stall threshold, 10 ms round SLO, 99.0% target.
    pub fn new() -> Self {
        Self::default()
    }

    /// How long the writer may sit on pending work without committing
    /// before readiness flips and `dyncon_server_writer_stalled` bumps.
    pub fn stall_threshold(mut self, d: Duration) -> Self {
        self.stall_threshold = d;
        self
    }

    /// The per-round wall-time objective the SLO windows grade against.
    pub fn round_slo(mut self, d: Duration) -> Self {
        self.round_slo = d;
        self
    }

    /// The SLO target in permille of rounds that must meet
    /// [`round_slo`](Self::round_slo) (990 = 99.0%). The error budget is
    /// the remainder; burn rate 1000 (permille) means consuming it
    /// exactly as fast as it accrues.
    pub fn slo_target_permille(mut self, p: u32) -> Self {
        assert!(p < 1000, "a 100% target leaves no error budget");
        self.slo_target_permille = p;
        self
    }
}

/// One second of round-latency observations.
#[derive(Clone, Copy, Default)]
struct SloSlot {
    sec: u64,
    total: u32,
    slow: u32,
}

/// One second of backpressure rejects.
#[derive(Clone, Copy, Default)]
struct RejectSlot {
    sec: u64,
    rejects: u32,
}

/// Metric handles, bound once via [`HealthState::with_metrics`].
struct HealthMetrics {
    writer_stalled: Arc<Counter>,
    ready: Arc<Gauge>,
    burn_1m: Arc<Gauge>,
    burn_5m: Arc<Gauge>,
    backpressure_saturated: Arc<Gauge>,
}

struct HealthInner {
    config: HealthConfig,
    t0: Instant,
    /// Milliseconds since `t0` of the last writer progress (round taken
    /// or committed). Starts at 0: a server that never commits but has
    /// work queued stalls `stall_threshold` after birth.
    last_progress_ms: AtomicU64,
    /// A round is currently between `note_round_start` and its commit.
    inflight: AtomicBool,
    /// Current admission queue depth (what `set_pending` last said).
    pending: AtomicI64,
    wal_errors: AtomicU64,
    reads_served: AtomicU64,
    rounds_seen: AtomicU64,
    /// Edge detector: currently considered stalled.
    stalled: AtomicBool,
    ready: AtomicBool,
    slo: Mutex<[SloSlot; SLO_SLOTS]>,
    rejects: Mutex<[RejectSlot; SATURATION_SECS as usize + 1]>,
    metrics: OnceLock<HealthMetrics>,
}

/// A point-in-time health verdict (what [`HealthState::refresh`]
/// computed last).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// Overall readiness: no stall, no WAL errors, not saturated.
    pub ready: bool,
    /// The writer currently looks stalled (pending work, no progress
    /// within the stall threshold).
    pub writer_stalled: bool,
    /// WAL append/abort errors seen (latches unreadiness — a durable
    /// server with a broken log must be drained, not routed to).
    pub wal_errors: u64,
    /// Backpressure rejects in each of the last `SATURATION_SECS` (3)
    /// seconds: admission is saturated.
    pub backpressure_saturated: bool,
    /// SLO burn rate over the last minute, in permille (1000 = burning
    /// the error budget exactly as fast as it accrues).
    pub slo_burn_1m_permille: u64,
    /// SLO burn rate over the last five minutes, in permille.
    pub slo_burn_5m_permille: u64,
    /// Rounds the engine has graded.
    pub rounds_seen: u64,
    /// Reads the reader pool has reported.
    pub reads_served: u64,
}

/// The clonable health handle. See the module docs for the model.
#[derive(Clone)]
pub struct HealthState {
    inner: Arc<HealthInner>,
}

impl Default for HealthState {
    fn default() -> Self {
        Self::new(HealthConfig::default())
    }
}

impl std::fmt::Debug for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthState")
            .field("config", &self.inner.config)
            .field("ready", &self.inner.ready.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl HealthState {
    /// A fresh, ready health engine with the given tuning.
    pub fn new(config: HealthConfig) -> Self {
        HealthState {
            inner: Arc::new(HealthInner {
                config,
                t0: Instant::now(),
                last_progress_ms: AtomicU64::new(0),
                inflight: AtomicBool::new(false),
                pending: AtomicI64::new(0),
                wal_errors: AtomicU64::new(0),
                reads_served: AtomicU64::new(0),
                rounds_seen: AtomicU64::new(0),
                stalled: AtomicBool::new(false),
                ready: AtomicBool::new(true),
                slo: Mutex::new([SloSlot::default(); SLO_SLOTS]),
                rejects: Mutex::new([RejectSlot::default(); SATURATION_SECS as usize + 1]),
                metrics: OnceLock::new(),
            }),
        }
    }

    /// Register the health metrics on `registry` so scrapes and the
    /// exporter carry them: `dyncon_server_writer_stalled` (stall
    /// onsets), `dyncon_health_ready` (0/1), burn-rate gauges in
    /// permille and a saturation gauge. Idempotent per registry names;
    /// the first binding wins.
    pub fn with_metrics(self, registry: &Registry) -> Self {
        let _ = self.inner.metrics.set(HealthMetrics {
            writer_stalled: registry.counter(
                "dyncon_server_writer_stalled",
                "stalls",
                "times the writer stall watchdog tripped",
            ),
            ready: registry.gauge(
                "dyncon_health_ready",
                "",
                "1 when /readyz would answer 200, else 0",
            ),
            burn_1m: registry.gauge(
                "dyncon_health_slo_burn_1m_permille",
                "permille",
                "round-latency SLO burn rate over the last minute (1000 = at budget)",
            ),
            burn_5m: registry.gauge(
                "dyncon_health_slo_burn_5m_permille",
                "permille",
                "round-latency SLO burn rate over the last five minutes (1000 = at budget)",
            ),
            backpressure_saturated: registry.gauge(
                "dyncon_health_backpressure_saturated",
                "",
                "1 while every recent second saw admission rejects",
            ),
        });
        self.refresh();
        self
    }

    fn now_ms(&self) -> u64 {
        self.inner.t0.elapsed().as_millis() as u64
    }

    fn now_sec(&self) -> u64 {
        self.inner.t0.elapsed().as_secs()
    }

    /// The writer took a round (work is in flight — taking it counts as
    /// progress for the stall clock).
    pub fn note_round_start(&self) {
        self.inner
            .last_progress_ms
            .store(self.now_ms(), Ordering::Relaxed);
        self.inner.inflight.store(true, Ordering::Relaxed);
    }

    /// The writer committed a round that took `wall` end to end. Feeds
    /// the stall clock and the SLO windows.
    pub fn note_round_commit(&self, wall: Duration) {
        self.inner
            .last_progress_ms
            .store(self.now_ms(), Ordering::Relaxed);
        self.inner.inflight.store(false, Ordering::Relaxed);
        self.inner.rounds_seen.fetch_add(1, Ordering::Relaxed);
        let sec = self.now_sec();
        let slow = wall > self.inner.config.round_slo;
        let mut slots = self.inner.slo.lock().unwrap();
        let slot = &mut slots[(sec % SLO_SLOTS as u64) as usize];
        if slot.sec != sec {
            *slot = SloSlot {
                sec,
                total: 0,
                slow: 0,
            };
        }
        slot.total = slot.total.saturating_add(1);
        if slow {
            slot.slow = slot.slow.saturating_add(1);
        }
    }

    /// Current admission queue depth (drives the "is there work the
    /// writer should be making progress on?" half of stall detection).
    pub fn set_pending(&self, pending: i64) {
        self.inner.pending.store(pending, Ordering::Relaxed);
    }

    /// Admission rejected a submission under backpressure.
    pub fn note_backpressure_reject(&self) {
        let sec = self.now_sec();
        let mut slots = self.inner.rejects.lock().unwrap();
        let len = slots.len() as u64;
        let slot = &mut slots[(sec % len) as usize];
        if slot.sec != sec {
            *slot = RejectSlot { sec, rejects: 0 };
        }
        slot.rejects = slot.rejects.saturating_add(1);
    }

    /// The durable layer failed a WAL append/abort. Latches
    /// unreadiness: a serving process whose log is broken should be
    /// drained, and the `DurableServer` is about to fail pending
    /// submissions anyway.
    pub fn note_wal_error(&self) {
        self.inner.wal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The reader pool served a read (liveness signal for the read
    /// plane; surfaced in the probe bodies and [`HealthReport`]).
    pub fn note_read_served(&self) {
        self.inner.reads_served.fetch_add(1, Ordering::Relaxed);
    }

    fn burn_permille(&self, window_secs: u64, now: u64) -> u64 {
        let slots = self.inner.slo.lock().unwrap();
        let (mut total, mut slow) = (0u64, 0u64);
        for slot in slots.iter() {
            if slot.sec + window_secs > now && slot.sec <= now && slot.total > 0 {
                total += slot.total as u64;
                slow += slot.slow as u64;
            }
        }
        if total == 0 {
            return 0;
        }
        let budget_permille = 1000 - self.inner.config.slo_target_permille as u64;
        // burn = (slow/total) / (budget/1000), in permille.
        (slow * 1000 * 1000) / (total * budget_permille)
    }

    fn saturated(&self, now: u64) -> bool {
        let slots = self.inner.rejects.lock().unwrap();
        (0..SATURATION_SECS)
            .all(|back| now >= back && slots.iter().any(|s| s.sec == now - back && s.rejects > 0))
    }

    /// Re-evaluate every signal and publish the verdict (readiness
    /// flag, bound metrics). Called by the probes, the exporter tick,
    /// and the [`HealthWatchdog`]; cheap enough to call per scrape.
    pub fn refresh(&self) -> HealthReport {
        let now_ms = self.now_ms();
        let now_sec = self.now_sec();
        let has_work = self.inner.inflight.load(Ordering::Relaxed)
            || self.inner.pending.load(Ordering::Relaxed) > 0;
        let idle_ms = now_ms.saturating_sub(self.inner.last_progress_ms.load(Ordering::Relaxed));
        let stalled_now =
            has_work && idle_ms > self.inner.config.stall_threshold.as_millis() as u64;
        let was_stalled = self.inner.stalled.swap(stalled_now, Ordering::Relaxed);
        let wal_errors = self.inner.wal_errors.load(Ordering::Relaxed);
        let saturated = self.saturated(now_sec);
        let ready = !stalled_now && wal_errors == 0 && !saturated;
        self.inner.ready.store(ready, Ordering::Relaxed);
        let burn_1m = self.burn_permille(60, now_sec);
        let burn_5m = self.burn_permille(300, now_sec);
        if let Some(m) = self.inner.metrics.get() {
            if stalled_now && !was_stalled {
                m.writer_stalled.inc();
            }
            m.ready.set(ready as i64);
            m.burn_1m.set(burn_1m as i64);
            m.burn_5m.set(burn_5m as i64);
            m.backpressure_saturated.set(saturated as i64);
        }
        HealthReport {
            ready,
            writer_stalled: stalled_now,
            wal_errors,
            backpressure_saturated: saturated,
            slo_burn_1m_permille: burn_1m,
            slo_burn_5m_permille: burn_5m,
            rounds_seen: self.inner.rounds_seen.load(Ordering::Relaxed),
            reads_served: self.inner.reads_served.load(Ordering::Relaxed),
        }
    }

    /// Readiness right now (refreshes first).
    pub fn is_ready(&self) -> bool {
        self.refresh().ready
    }

    /// Build the `/healthz` + `/readyz` probes to pass (as `Some`) to
    /// [`dyncon_trace::serve_telemetry`]. Liveness is
    /// unconditional (the process is serving the probe); readiness is
    /// the full verdict with a reason body on 503.
    pub fn routes(&self) -> HealthRoutes {
        let live = self.clone();
        let ready = self.clone();
        HealthRoutes {
            healthz: Arc::new(move || {
                let r = live.refresh();
                (
                    true,
                    format!(
                        "ok: {} rounds, {} reads served\n",
                        r.rounds_seen, r.reads_served
                    ),
                )
            }),
            readyz: Arc::new(move || {
                let r = ready.refresh();
                if r.ready {
                    (
                        true,
                        format!(
                            "ready: burn 1m {}‰, 5m {}‰\n",
                            r.slo_burn_1m_permille, r.slo_burn_5m_permille
                        ),
                    )
                } else {
                    let mut reasons = Vec::new();
                    if r.writer_stalled {
                        reasons.push("writer stalled".to_string());
                    }
                    if r.wal_errors > 0 {
                        reasons.push(format!("{} wal error(s)", r.wal_errors));
                    }
                    if r.backpressure_saturated {
                        reasons.push("backpressure saturated".to_string());
                    }
                    (false, format!("not ready: {}\n", reasons.join(", ")))
                }
            }),
        }
    }

    /// Spawn a thread that calls [`refresh`](Self::refresh) every
    /// `interval`, so stalls flip readiness (and bump the counter) even
    /// when nobody is scraping or probing. Stop it with
    /// [`HealthWatchdog::close`] (drop does too).
    pub fn spawn_watchdog(&self, interval: Duration) -> HealthWatchdog {
        let state = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dyncon-health-watchdog".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    state.refresh();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn dyncon health watchdog");
        HealthWatchdog {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle of a running background refresh thread
/// ([`HealthState::spawn_watchdog`]).
pub struct HealthWatchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HealthWatchdog {
    /// Stop and join the watchdog thread. Idempotent.
    pub fn close(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HealthWatchdog {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> HealthConfig {
        HealthConfig::new()
            .stall_threshold(Duration::from_millis(40))
            .round_slo(Duration::from_millis(5))
    }

    #[test]
    fn fresh_state_is_ready() {
        let h = HealthState::new(fast_config());
        let r = h.refresh();
        assert!(r.ready);
        assert!(!r.writer_stalled);
        assert_eq!(r.slo_burn_1m_permille, 0);
    }

    #[test]
    fn idle_without_work_never_stalls() {
        let h = HealthState::new(fast_config());
        std::thread::sleep(Duration::from_millis(90));
        assert!(h.is_ready(), "no pending work, no stall");
    }

    #[test]
    fn pending_work_without_progress_stalls_then_recovers() {
        let registry = Registry::new();
        let h = HealthState::new(fast_config()).with_metrics(&registry);
        h.set_pending(4);
        std::thread::sleep(Duration::from_millis(90));
        let r = h.refresh();
        assert!(r.writer_stalled && !r.ready);
        assert_eq!(
            registry
                .snapshot()
                .get("dyncon_server_writer_stalled")
                .unwrap()
                .value
                .as_counter(),
            Some(1)
        );
        // Stall onset counted once while it persists…
        std::thread::sleep(Duration::from_millis(50));
        h.refresh();
        assert_eq!(
            registry
                .snapshot()
                .get("dyncon_server_writer_stalled")
                .unwrap()
                .value
                .as_counter(),
            Some(1)
        );
        // …and a commit recovers readiness.
        h.note_round_commit(Duration::from_millis(1));
        h.set_pending(0);
        assert!(h.is_ready());
        assert_eq!(
            registry
                .snapshot()
                .get("dyncon_health_ready")
                .unwrap()
                .value
                .as_gauge()
                .map(|(v, _)| v),
            Some(1)
        );
    }

    #[test]
    fn wal_errors_latch_unready() {
        let h = HealthState::new(fast_config());
        assert!(h.is_ready());
        h.note_wal_error();
        let r = h.refresh();
        assert!(!r.ready);
        assert_eq!(r.wal_errors, 1);
        // Commits do not clear it.
        h.note_round_commit(Duration::from_millis(1));
        assert!(!h.is_ready());
    }

    #[test]
    fn slo_burn_rate_reflects_slow_rounds() {
        // target 990‰ → 1% budget. All rounds slow → burn = 100x budget
        // = 100_000‰.
        let h = HealthState::new(fast_config().slo_target_permille(990));
        for _ in 0..10 {
            h.note_round_commit(Duration::from_millis(50));
        }
        let r = h.refresh();
        assert_eq!(r.slo_burn_1m_permille, 100_000);
        assert_eq!(r.slo_burn_5m_permille, 100_000);
        assert_eq!(r.rounds_seen, 10);
        // Fast rounds dilute the burn.
        for _ in 0..90 {
            h.note_round_commit(Duration::from_micros(10));
        }
        let r = h.refresh();
        assert_eq!(r.slo_burn_1m_permille, 10_000, "10% slow / 1% budget");
    }

    #[test]
    fn probes_render_verdicts() {
        let h = HealthState::new(fast_config());
        let routes = h.routes();
        let (ok, body) = (routes.healthz)();
        assert!(ok && body.starts_with("ok"));
        let (ok, body) = (routes.readyz)();
        assert!(ok && body.starts_with("ready"), "{body}");
        h.note_wal_error();
        let (ok, body) = (routes.readyz)();
        assert!(!ok && body.contains("wal error"), "{body}");
        let (ok, _) = (routes.healthz)();
        assert!(ok, "liveness survives unreadiness");
    }

    #[test]
    fn watchdog_trips_the_stall_counter_unattended() {
        let registry = Registry::new();
        let h = HealthState::new(fast_config()).with_metrics(&registry);
        let mut watchdog = h.spawn_watchdog(Duration::from_millis(10));
        h.set_pending(1);
        std::thread::sleep(Duration::from_millis(120));
        watchdog.close();
        assert_eq!(
            registry
                .snapshot()
                .get("dyncon_server_writer_stalled")
                .unwrap()
                .value
                .as_counter(),
            Some(1),
            "the watchdog noticed without any probe traffic"
        );
    }
}
