//! # dyncon-bench
//!
//! Shared measurement harness for the experiment suite (EXPERIMENTS.md).
//! Every experiment exists twice: as a Criterion bench target under
//! `benches/` and as a table printed by the `experiments` binary
//! (`cargo run --release -p dyncon-bench --bin experiments`).

use dyncon_api::{BatchDynamic, DynConError, Op};
use dyncon_graphgen::{Batch, UpdateStream};
use dyncon_server::{ConnServer, SubmitOptions, Ticket};
use std::time::{Duration, Instant};

/// The thread matrix for the scaling experiments (E7 and the perf-artifact
/// pipeline): parsed from `DYNCON_THREADS` as a comma-separated list of
/// positive integers (e.g. `DYNCON_THREADS=1,2,4`), defaulting to `[1, 2]`.
///
/// A single-integer `DYNCON_THREADS` also pins the vendored rayon pool's
/// *default* thread count, so `cargo test` runs under the same bound —
/// that is what the CI thread matrix exercises.
pub fn thread_counts() -> Vec<usize> {
    parse_thread_counts(std::env::var("DYNCON_THREADS").ok().as_deref())
}

fn parse_thread_counts(raw: Option<&str>) -> Vec<usize> {
    let parsed: Vec<usize> = raw
        .unwrap_or("")
        .split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0))
        .collect();
    if parsed.is_empty() {
        vec![1, 2]
    } else {
        parsed
    }
}

/// The shard-count matrix for the sharding experiments (E14 and the
/// perf-artifact pipeline): parsed from `DYNCON_SHARDS` the same way
/// [`thread_counts`] parses `DYNCON_THREADS`, defaulting to `[1, 2, 4]`.
pub fn shard_counts() -> Vec<usize> {
    parse_shard_counts(std::env::var("DYNCON_SHARDS").ok().as_deref())
}

fn parse_shard_counts(raw: Option<&str>) -> Vec<usize> {
    let parsed: Vec<usize> = raw
        .unwrap_or("")
        .split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0))
        .collect();
    if parsed.is_empty() {
        vec![1, 2, 4]
    } else {
        parsed
    }
}

/// One row of a `BENCH_PR*.json` perf artifact (the `perf_json` binary's
/// output): a measurement keyed by `(op, n, batch, threads)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRecord {
    /// Which measurement the row is (`batch_insert`, `service_throughput`, …).
    pub op: String,
    /// Vertex universe size of the run.
    pub n: u64,
    /// Batch size / round cap of the run.
    pub batch: u64,
    /// Worker thread count of the run.
    pub threads: u64,
    /// The measured value (nanoseconds for timings; some rows carry
    /// counts in this field for schema uniformity).
    pub median_ns: u128,
}

impl BenchRecord {
    /// The identity of a row across artifacts (everything but the value).
    pub fn key(&self) -> (String, u64, u64, u64) {
        (self.op.clone(), self.n, self.batch, self.threads)
    }
}

/// Parse a `BENCH_PR*.json` artifact. This is not a general JSON parser:
/// it reads exactly the flat shape `perf_json` writes (a `schema` header
/// and one object per record with numeric fields), and rejects anything
/// else with a line-numbered message — so a malformed artifact fails a
/// CI diff loudly instead of comparing against garbage.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    if !text.contains("\"schema\": \"dyncon-bench-v1\"") {
        return Err("missing or unknown schema header (want dyncon-bench-v1)".into());
    }
    let mut records = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"op\"") {
            continue;
        }
        let field = |name: &str| -> Result<&str, String> {
            let tag = format!("\"{name}\":");
            let at = line
                .find(&tag)
                .ok_or_else(|| format!("line {}: missing field {name}", ln + 1))?;
            let rest = &line[at + tag.len()..];
            Ok(rest
                .split([',', '}'])
                .next()
                .unwrap_or("")
                .trim()
                .trim_matches('"'))
        };
        let num = |name: &str| -> Result<u128, String> {
            field(name)?
                .parse::<u128>()
                .map_err(|e| format!("line {}: bad {name}: {e}", ln + 1))
        };
        records.push(BenchRecord {
            op: field("op")?.to_string(),
            n: num("n")? as u64,
            batch: num("batch")? as u64,
            threads: num("threads")? as u64,
            median_ns: num("median_ns")?,
        });
    }
    if records.is_empty() {
        return Err("no records found".into());
    }
    Ok(records)
}

/// Outcome of [`diff_bench_records`]: row-by-row comparison of two perf
/// artifacts.
#[derive(Clone, Debug, Default)]
pub struct BenchDiff {
    /// Rows present in the baseline but absent from the candidate —
    /// always a failure (a silently dropped measurement).
    pub missing: Vec<BenchRecord>,
    /// Rows only the candidate has (new measurements; informational).
    pub added: Vec<BenchRecord>,
    /// Matched rows whose candidate value left the tolerance band:
    /// `(baseline, candidate, ratio)` with `ratio = candidate / baseline`.
    pub deviations: Vec<(BenchRecord, BenchRecord, f64)>,
    /// Matched rows inside the band.
    pub matched: usize,
}

/// Compare two artifacts row by row. Rows pair up by
/// [`BenchRecord::key`]; a matched row deviates when the value ratio
/// falls outside `[1/(1+tolerance), 1+tolerance]` (so `tolerance = 0.5`
/// flags changes beyond ±50% in either direction). Timing noise on
/// shared CI runners is real; callers decide whether deviations warn or
/// fail.
pub fn diff_bench_records(
    baseline: &[BenchRecord],
    candidate: &[BenchRecord],
    tolerance: f64,
) -> BenchDiff {
    let mut diff = BenchDiff::default();
    let mut unseen: Vec<&BenchRecord> = candidate.iter().collect();
    for base in baseline {
        match unseen.iter().position(|c| c.key() == base.key()) {
            None => diff.missing.push(base.clone()),
            Some(at) => {
                let cand = unseen.swap_remove(at);
                let ratio = cand.median_ns as f64 / (base.median_ns as f64).max(1.0);
                let band = 1.0 + tolerance.max(0.0);
                if ratio > band || ratio < 1.0 / band {
                    diff.deviations.push((base.clone(), cand.clone(), ratio));
                } else {
                    diff.matched += 1;
                }
            }
        }
    }
    diff.added = unseen.into_iter().cloned().collect();
    diff
}

/// Ops whose `median_ns` field carries a count or a ratio rather than a
/// wall time. Counts are machine-speed invariant, so normalization
/// would *introduce* the machine factor it is meant to remove — these
/// rows always compare raw.
pub const COUNT_OPS: &[&str] = &[
    "queue_depth_max",
    "shard_boundary_ops",
    "trace_overhead_pct",
    "export_lag_ms",
];

/// [`diff_bench_records`] with the machine factor divided out: both
/// sides are expressed relative to their own **calibration row** — the
/// `calibrate` op at `threads == 1` — so a uniformly 2× slower CI
/// runner shows every ratio ≈ 1.0 instead of 2.0, and the tolerance
/// band can be tightened into a gate. Each matched timing row deviates
/// when `(candidate/baseline) / (calib_cand/calib_base)` leaves
/// `[1/(1+tolerance), 1+tolerance]`; rows in [`COUNT_OPS`] still
/// compare raw. Errors when either side lacks the calibration row.
pub fn diff_bench_records_normalized(
    baseline: &[BenchRecord],
    candidate: &[BenchRecord],
    tolerance: f64,
    calibrate: &str,
) -> Result<BenchDiff, String> {
    let calib = |records: &[BenchRecord], side: &str| -> Result<f64, String> {
        records
            .iter()
            .find(|r| r.op == calibrate && r.threads == 1)
            .map(|r| (r.median_ns as f64).max(1.0))
            .ok_or_else(|| format!("{side} has no calibration row {calibrate} at threads=1"))
    };
    let calib_ratio = calib(candidate, "candidate")? / calib(baseline, "baseline")?;
    let mut diff = BenchDiff::default();
    let mut unseen: Vec<&BenchRecord> = candidate.iter().collect();
    for base in baseline {
        match unseen.iter().position(|c| c.key() == base.key()) {
            None => diff.missing.push(base.clone()),
            Some(at) => {
                let cand = unseen.swap_remove(at);
                let raw = cand.median_ns as f64 / (base.median_ns as f64).max(1.0);
                let ratio = if COUNT_OPS.contains(&base.op.as_str()) {
                    raw
                } else {
                    raw / calib_ratio
                };
                let band = 1.0 + tolerance.max(0.0);
                if ratio > band || ratio < 1.0 / band {
                    diff.deviations.push((base.clone(), cand.clone(), ratio));
                } else {
                    diff.matched += 1;
                }
            }
        }
    }
    diff.added = unseen.into_iter().cloned().collect();
    Ok(diff)
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
    use super::{drive_open_loop, latency_quantile, parse_thread_counts};
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
    fn thread_count_parsing() {
        assert_eq!(parse_thread_counts(None), vec![1, 2]);
        assert_eq!(parse_thread_counts(Some("")), vec![1, 2]);
        assert_eq!(parse_thread_counts(Some("4")), vec![4]);
        assert_eq!(parse_thread_counts(Some("1,2,4")), vec![1, 2, 4]);
        assert_eq!(parse_thread_counts(Some(" 1 , 8 ")), vec![1, 8]);
        assert_eq!(parse_thread_counts(Some("0,junk")), vec![1, 2]);
    }

    #[test]
    fn shard_count_parsing() {
        use super::parse_shard_counts;
        assert_eq!(parse_shard_counts(None), vec![1, 2, 4]);
        assert_eq!(parse_shard_counts(Some("2,8")), vec![2, 8]);
        assert_eq!(parse_shard_counts(Some("0")), vec![1, 2, 4]);
    }

    fn artifact(rows: &[(&str, u64, u128)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(op, threads, ns)| {
                format!(
                    r#"  {{"op":"{op}","n":16384,"batch":4096,"threads":{threads},"median_ns":{ns}}}"#
                )
            })
            .collect();
        format!(
            "{{\n\"schema\": \"dyncon-bench-v1\",\n\"records\": [\n{}\n]\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        use super::parse_bench_json;
        let text = artifact(&[("batch_insert", 1, 1000), ("batch_insert", 2, 600)]);
        let records = parse_bench_json(&text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].op, "batch_insert");
        assert_eq!(
            (records[0].n, records[0].batch, records[0].threads),
            (16384, 4096, 1)
        );
        assert_eq!(records[1].median_ns, 600);

        assert!(parse_bench_json("{}").is_err(), "schema header required");
        assert!(
            parse_bench_json("{\"schema\": \"dyncon-bench-v1\",\n\"records\": []}").is_err(),
            "empty artifact rejected"
        );
        let bad = artifact(&[("x", 1, 5)]).replace(":5}", ":oops}");
        let err = parse_bench_json(&bad).unwrap_err();
        assert!(err.contains("median_ns"), "{err}");
    }

    #[test]
    fn bench_diff_classifies_rows() {
        use super::{diff_bench_records, parse_bench_json};
        let base = parse_bench_json(&artifact(&[
            ("batch_insert", 1, 1000),
            ("batch_insert", 2, 600),
            ("recovery_ms", 1, 5000),
        ]))
        .unwrap();
        let cand = parse_bench_json(&artifact(&[
            ("batch_insert", 1, 1100),     // within ±50%
            ("batch_insert", 2, 2000),     // 3.3x — deviation
            ("shard_throughput", 1, 9000), // new row
        ]))
        .unwrap();
        let diff = diff_bench_records(&base, &cand, 0.5);
        assert_eq!(diff.matched, 1);
        assert_eq!(diff.missing.len(), 1, "recovery_ms vanished");
        assert_eq!(diff.missing[0].op, "recovery_ms");
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.added[0].op, "shard_throughput");
        assert_eq!(diff.deviations.len(), 1);
        let (b, c, ratio) = &diff.deviations[0];
        assert_eq!((b.threads, c.median_ns), (2, 2000));
        assert!((ratio - 2000.0 / 600.0).abs() < 1e-9);
        // Speedups beyond the band are deviations too (a 10x "win" is
        // usually a broken measurement, not a miracle).
        let fast = diff_bench_records(
            &base[..1],
            &parse_bench_json(&artifact(&[("batch_insert", 1, 50)])).unwrap(),
            0.5,
        );
        assert_eq!(fast.deviations.len(), 1);
    }

    #[test]
    fn normalized_diff_divides_out_the_machine_factor() {
        use super::{diff_bench_records, diff_bench_records_normalized, parse_bench_json};
        let base = parse_bench_json(&artifact(&[
            ("service_throughput", 1, 1_000_000),
            ("batch_insert", 1, 400_000),
            ("recovery_ms", 1, 5_000_000),
            ("queue_depth_max", 1, 6),
        ]))
        .unwrap();
        // A uniformly 2x slower runner: every timing doubled, counts
        // unchanged. The raw diff at ±20% flags every timing row; the
        // normalized diff sees every ratio as exactly 1.0.
        let cand = parse_bench_json(&artifact(&[
            ("service_throughput", 1, 2_000_000),
            ("batch_insert", 1, 800_000),
            ("recovery_ms", 1, 10_000_000),
            ("queue_depth_max", 1, 6),
        ]))
        .unwrap();
        let raw = diff_bench_records(&base, &cand, 0.2);
        assert_eq!(raw.deviations.len(), 3);
        let norm = diff_bench_records_normalized(&base, &cand, 0.2, "service_throughput").unwrap();
        assert_eq!(norm.deviations.len(), 0);
        assert_eq!(norm.matched, 4);

        // A genuine regression survives normalization: recovery got 3x
        // slower while the calibration row only doubled.
        let regressed = parse_bench_json(&artifact(&[
            ("service_throughput", 1, 2_000_000),
            ("batch_insert", 1, 800_000),
            ("recovery_ms", 1, 30_000_000),
            ("queue_depth_max", 1, 6),
        ]))
        .unwrap();
        let norm =
            diff_bench_records_normalized(&base, &regressed, 0.2, "service_throughput").unwrap();
        assert_eq!(norm.deviations.len(), 1);
        let (b, _, ratio) = &norm.deviations[0];
        assert_eq!(b.op, "recovery_ms");
        assert!((ratio - 3.0).abs() < 1e-9, "normalized ratio {ratio}");

        // Count rows stay raw: a doubled queue depth deviates even
        // though the machine factor would excuse a doubled timing.
        let counts = parse_bench_json(&artifact(&[
            ("service_throughput", 1, 2_000_000),
            ("queue_depth_max", 1, 12),
        ]))
        .unwrap();
        let norm = diff_bench_records_normalized(&base[..1], &counts, 0.2, "service_throughput")
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(norm.matched, 1, "calibration row matches itself");
        let counts_diff =
            diff_bench_records_normalized(&base[3..], &counts[1..], 0.2, "service_throughput");
        assert!(counts_diff.is_err(), "missing calibration row is an error");
        let both = [base[0].clone(), base[3].clone()];
        let norm =
            diff_bench_records_normalized(&both, &counts, 0.2, "service_throughput").unwrap();
        assert_eq!(norm.deviations.len(), 1);
        assert_eq!(norm.deviations[0].0.op, "queue_depth_max");

        // Missing rows are still always reported.
        let norm =
            diff_bench_records_normalized(&base, &cand[..2], 0.2, "service_throughput").unwrap();
        assert_eq!(norm.missing.len(), 2);
    }
}
