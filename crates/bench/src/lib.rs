//! # dyncon-bench
//!
//! Shared measurement harness for the experiment suite (EXPERIMENTS.md).
//! Every experiment, the paper's E1–E10 and the serving E11–E15, is one
//! table printed by the `experiments` binary
//! (`cargo run --release -p dyncon-bench --bin experiments`). The serving
//! stacks are timed by the repository benchmark (`perfbench/`).

use dyncon_api::{BatchDynamic, DynConError, Op};
use dyncon_graphgen::{Batch, UpdateStream};
use dyncon_server::{ConnServer, SubmitOptions, Ticket};
use std::time::{Duration, Instant};

/// The thread matrix for the scaling experiments (E7, E14 and E15):
/// parsed from `DYNCON_THREADS` as a comma-separated list of positive
/// integers (e.g. `DYNCON_THREADS=1,2,4`), defaulting to `[1, 2]`.
///
/// A single-integer `DYNCON_THREADS` also pins the vendored rayon pool's
/// *default* thread count, so `cargo test` runs under the same bound —
/// that is what the CI thread matrix exercises.
pub fn thread_counts() -> Vec<usize> {
    parse_counts(std::env::var("DYNCON_THREADS").ok().as_deref(), &[1, 2])
}

/// The shard-count matrix for the sharding experiment (E14) and the
/// sharded tests: parsed from `DYNCON_SHARDS` the same way
/// [`thread_counts`] parses `DYNCON_THREADS`, defaulting to `[1, 2, 4]`.
pub fn shard_counts() -> Vec<usize> {
    parse_counts(std::env::var("DYNCON_SHARDS").ok().as_deref(), &[1, 2, 4])
}

/// The positive integers of a comma-separated list, or `default` when
/// there are none.
fn parse_counts(raw: Option<&str>, default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = raw
        .unwrap_or("")
        .split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0))
        .collect();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

/// Wall-clock a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// Median of the durations `run` reports over `reps` runs.
pub fn median_duration(reps: usize, mut run: impl FnMut() -> Duration) -> Duration {
    let mut ds: Vec<Duration> = (0..reps.max(1)).map(|_| run()).collect();
    ds.sort_unstable();
    ds[ds.len() / 2]
}

/// Replay a stream into **any** backend through the workspace-wide
/// [`BatchDynamic`] trait; returns total time. One replay routine serves
/// the parallel structure, the sequential HDT baseline (whose trait impl
/// loops one op at a time, as the sequential algorithm requires), the
/// static-recompute baseline and every future backend — the per-backend
/// replay glue this harness used to carry is gone.
pub fn replay(g: &mut dyn BatchDynamic, stream: &UpdateStream) -> Duration {
    let t = Instant::now();
    for b in &stream.batches {
        match b {
            Batch::Insert(v) => {
                g.batch_insert(v).expect("replay: insert batch rejected");
            }
            Batch::Delete(v) => {
                g.batch_delete(v).expect("replay: delete batch rejected");
            }
            Batch::Query(v) => {
                std::hint::black_box(g.batch_connected(v));
            }
        }
    }
    t.elapsed()
}

/// Flatten an [`UpdateStream`] into per-batch mixed-op slices for
/// [`BatchDynamic::apply`] (one `Vec<Op>` per source batch).
pub fn stream_ops(stream: &UpdateStream) -> Vec<Vec<Op>> {
    stream
        .batches
        .iter()
        .map(|b| match b {
            Batch::Insert(v) => v.iter().map(|&(u, w)| Op::Insert(u, w)).collect(),
            Batch::Delete(v) => v.iter().map(|&(u, w)| Op::Delete(u, w)).collect(),
            Batch::Query(v) => v.iter().map(|&(u, w)| Op::Query(u, w)).collect(),
        })
        .collect()
}

/// Replay a stream through [`BatchDynamic::apply`] (the mixed-op entry
/// point); returns total time.
pub fn replay_ops(g: &mut dyn BatchDynamic, batches: &[Vec<Op>]) -> Duration {
    let t = Instant::now();
    for ops in batches {
        std::hint::black_box(g.apply(ops).expect("replay: batch rejected"));
    }
    t.elapsed()
}

/// Drive per-client schedules (`schedules[client][request]`, as produced
/// by [`dyncon_graphgen::zipf_client_schedules`]) through a group-commit
/// server with one OS thread per client. Every client submits with
/// backpressure blocking and waits each ticket before its next request —
/// a closed-loop load generator. Returns total wall time plus every
/// request's submit→answer latency (client-major order).
pub fn drive_service<B: BatchDynamic + Send + 'static>(
    server: &ConnServer<B>,
    schedules: &[Vec<Vec<Op>>],
) -> (Duration, Vec<Duration>) {
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, sched)| {
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(sched.len());
                    for ops in sched {
                        let t = Instant::now();
                        let ticket = server
                            .submit_with(
                                ops.clone(),
                                SubmitOptions::new().as_client(c as u64).blocking(true),
                            )
                            .expect("service open for the whole run");
                        std::hint::black_box(ticket.wait().expect("round commits"));
                        lats.push(t.elapsed());
                    }
                    lats
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
    });
    (t0.elapsed(), latencies)
}

/// What [`drive_open_loop`] measured: wall time, every accepted request's
/// intended-arrival→answer latency (client-major order), and how many
/// requests the server shed with backpressure.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Total wall time from the first intended arrival to the last answer.
    pub wall: Duration,
    /// One latency per *accepted* request, measured from the request's
    /// **intended** arrival time (not the instant the submit call ran), so
    /// a stalled server inflates the latencies of everything queued behind
    /// it — the open-loop answer to coordinated omission.
    pub latencies: Vec<Duration>,
    /// Requests rejected with [`DynConError::Backpressure`]. An open-loop
    /// generator sheds these (no retry, no latency sample) so the offered
    /// rate stays independent of server speed.
    pub rejected: u64,
    /// Requests accepted (`latencies.len()` as a counter, for rate math).
    pub accepted: u64,
}

/// Drive per-client schedules through a group-commit server **open-loop**:
/// client `c`'s request `i` is submitted at
/// `t0 + Duration::from_nanos(arrivals[c][i])` regardless of whether
/// earlier answers have come back. Compare [`drive_service`], the
/// closed-loop driver, where each client waits for its previous answer and
/// a slow server silently throttles the offered load.
///
/// Each client runs a submitter thread (sleeps until the intended arrival,
/// then a non-blocking [`ConnServer::submit_with`] as that client; a
/// [`DynConError::Backpressure`] reject is counted and dropped) paired
/// with a collector thread that waits tickets in submission order and
/// records `intended_arrival.elapsed()` — latency from the *schedule*, not
/// the submit call, so queueing delay is charged to the server.
///
/// `arrivals[c]` (nanosecond offsets, as produced by
/// [`dyncon_graphgen::poisson_arrivals`]) must be at least as long as
/// `schedules[c]`; extra arrival slots are ignored.
pub fn drive_open_loop<B: BatchDynamic + Send + 'static>(
    server: &ConnServer<B>,
    schedules: &[Vec<Vec<Op>>],
    arrivals: &[Vec<u64>],
) -> LoadReport {
    assert_eq!(
        schedules.len(),
        arrivals.len(),
        "one arrival schedule per client"
    );
    let t0 = Instant::now();
    let mut report = LoadReport::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .zip(arrivals)
            .enumerate()
            .map(|(c, (sched, times))| {
                assert!(
                    times.len() >= sched.len(),
                    "client {c}: {} requests but only {} arrival times",
                    sched.len(),
                    times.len()
                );
                let (tx, rx) = std::sync::mpsc::channel::<(Instant, Ticket)>();
                let submitter = scope.spawn(move || {
                    let mut rejected = 0u64;
                    for (ops, &at_ns) in sched.iter().zip(times) {
                        let due = t0 + Duration::from_nanos(at_ns);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let options = SubmitOptions::new().as_client(c as u64);
                        match server.submit_with(ops.clone(), options) {
                            Ok(ticket) => tx.send((due, ticket)).expect("collector alive"),
                            Err(DynConError::Backpressure { .. }) => rejected += 1,
                            Err(e) => panic!("service open for the whole run: {e}"),
                        }
                    }
                    rejected
                });
                let collector = scope.spawn(move || {
                    let mut lats = Vec::new();
                    while let Ok((due, ticket)) = rx.recv() {
                        std::hint::black_box(ticket.wait().expect("round commits"));
                        // Saturates at zero if the answer somehow beat the
                        // intended arrival (sub-timer-resolution rounds).
                        lats.push(due.elapsed());
                    }
                    lats
                });
                (submitter, collector)
            })
            .collect();
        for (submitter, collector) in handles {
            report.rejected += submitter.join().expect("submitter thread");
            report
                .latencies
                .extend(collector.join().expect("collector thread"));
        }
    });
    report.wall = t0.elapsed();
    report.accepted = report.latencies.len() as u64;
    report
}

/// The `q`-quantile (0.0..=1.0) of a latency sample, by sorting a copy.
pub fn latency_quantile(latencies: &[Duration], q: f64) -> Duration {
    if latencies.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Pretty-print a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format a duration as microseconds with 2 decimals.
pub fn us(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// Format nanoseconds-per-item.
pub fn ns_per(d: Duration, items: usize) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e9 / items.max(1) as f64)
}

/// `lg(1 + n/k)` — the per-item factor every batch bound predicts.
pub fn lg_factor(n: usize, k: usize) -> f64 {
    (1.0 + n as f64 / k.max(1) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::{drive_open_loop, latency_quantile, parse_counts};
    use dyncon_api::Op;
    use dyncon_core::BatchDynamicConnectivity;
    use dyncon_server::{ConnServer, ServerConfig};
    use std::time::Duration;

    #[test]
    fn open_loop_driver_answers_every_scheduled_request() {
        let clients = 3usize;
        let requests = 5usize;
        let schedules: Vec<Vec<Vec<Op>>> = (0..clients)
            .map(|c| {
                (0..requests)
                    .map(|i| vec![Op::Insert(c as u32, (clients + i) as u32), Op::Query(0, 1)])
                    .collect()
            })
            .collect();
        // 50 µs mean gap: fast enough to finish instantly, slow enough
        // that the queue never fills (capacity 2 per client).
        let arrivals: Vec<Vec<u64>> = (0..clients)
            .map(|c| dyncon_graphgen::poisson_arrivals(requests, 50_000, c as u64))
            .collect();
        let server = ConnServer::start(
            BatchDynamicConnectivity::new(64),
            ServerConfig::new().queue_capacity(2 * clients),
        );
        let load = drive_open_loop(&server, &schedules, &arrivals);
        let report = server.join();
        assert_eq!(load.accepted + load.rejected, (clients * requests) as u64);
        assert_eq!(load.latencies.len() as u64, load.accepted);
        assert_eq!(report.ops_committed, 2 * load.accepted);
        assert!(load.wall >= Duration::ZERO);
        // The queue-depth gauge saw at least one admitted request.
        let max = report
            .metrics
            .get("dyncon_server_queue_depth")
            .and_then(|m| m.value.as_gauge())
            .map(|(_, max)| max)
            .unwrap_or(0);
        assert!(load.accepted == 0 || max >= 1);
    }

    #[test]
    fn quantiles() {
        assert_eq!(latency_quantile(&[], 0.5), Duration::ZERO);
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(latency_quantile(&ms, 0.0), Duration::from_millis(1));
        assert_eq!(latency_quantile(&ms, 1.0), Duration::from_millis(100));
        // idx = round(99 · 0.5) = 50 → the 51st sample.
        assert_eq!(latency_quantile(&ms, 0.5), Duration::from_millis(51));
    }

    #[test]
    fn count_parsing() {
        let (threads, shards) = (&[1, 2][..], &[1, 2, 4][..]);
        for (raw, default, want) in [
            (None, threads, threads),
            (Some(""), threads, threads),
            (Some("4"), threads, &[4]),
            (Some("1,2,4"), threads, &[1, 2, 4]),
            (Some(" 1 , 8 "), threads, &[1, 8]),
            (Some("0,junk"), threads, threads),
            (None, shards, shards),
            (Some("2,8"), shards, &[2, 8]),
            (Some("0"), shards, shards),
        ] {
            assert_eq!(parse_counts(raw, default), want, "input {raw:?}");
        }
    }
}
