//! Load generators: a closed loop of blocking clients and a Poisson open
//! loop that issues view reads beside writes. Both take the submit path
//! as a closure, so one generator drives `ConnServer`, `DurableServer`
//! and `ShardedServer` alike.

use crate::measure::Sample;
use crate::spans::SpanLog;
use dyncon_api::{DynConError, Op, Version};
use dyncon_server::{ReadHandle, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a closed loop measured.
#[derive(Clone, Debug, Default)]
pub struct ClosedLoop {
    /// First submit to last answer.
    pub wall: Duration,
    /// Every answered request, latency from submit to answer.
    pub samples: Vec<Sample>,
    /// Time spent inside the submit call of every request.
    pub submit_times: Vec<Duration>,
    /// Requests that were rejected or whose round failed.
    pub failed: u64,
}

impl ClosedLoop {
    /// Operations in answered requests.
    pub fn ops(&self) -> u64 {
        self.samples.iter().map(|s| s.ops).sum()
    }
}

/// Drive `schedules[client]` through `submit` with one blocking client
/// thread per schedule: each client sends its next request only after
/// the previous one was answered.
pub fn closed_loop<F>(schedules: &[&[Vec<Op>]], spans: &SpanLog, submit: F) -> ClosedLoop
where
    F: Fn(u64, Vec<Op>) -> Result<Ticket, DynConError> + Sync,
{
    let t0 = Instant::now();
    let mut report = ClosedLoop::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, schedule)| {
                let submit = &submit;
                scope.spawn(move || {
                    let mut out = ClosedLoop::default();
                    for ops in schedule.iter() {
                        let len = ops.len() as u64;
                        let started = Instant::now();
                        let ticket = submit(c as u64, ops.clone());
                        out.submit_times.push(started.elapsed());
                        spans.record("submit", c as u64 + 1, started);
                        match ticket.and_then(Ticket::wait) {
                            Ok(_) => out.samples.push(Sample {
                                done: t0.elapsed(),
                                latency: started.elapsed(),
                                ops: len,
                            }),
                            Err(_) => out.failed += 1,
                        }
                        spans.record("request", c as u64 + 1, started);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            let out = h.join().expect("closed-loop client thread");
            report.samples.extend(out.samples);
            report.submit_times.extend(out.submit_times);
            report.failed += out.failed;
        }
    });
    report.wall = t0.elapsed();
    report
}

/// One open-loop request.
#[derive(Clone, Debug)]
pub enum Request {
    /// A write request submitted to the commit path.
    Write(Vec<Op>),
    /// A view read of these pairs, run off the commit path.
    Read(Vec<(u32, u32)>),
}

/// The answer of one view read: the version it read and its answers.
pub type ReadAnswer = (Version, Vec<bool>);

/// What a view read returns to the generator: its answer plus the
/// instant it finished, so read latency is not charged for the writes
/// the collector waits on before it.
pub type ReadOutcome = (ReadAnswer, Instant);

/// What an open loop measured.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// First due time to last answer.
    pub wall: Duration,
    /// Every answered write, latency from its due time.
    pub writes: Vec<Sample>,
    /// Due→answer latency of every answered read.
    pub read_latencies: Vec<Duration>,
    /// How late the generator submitted each request: the submit instant
    /// minus its due time.
    pub lateness: Vec<Duration>,
    /// Time spent inside the submit call of every write.
    pub submit_times: Vec<Duration>,
    /// `(request index, answer)` of every answered read.
    pub reads: Vec<(usize, ReadAnswer)>,
    /// Operations in answered writes plus pairs in answered reads.
    pub ops: u64,
    /// Requests rejected with backpressure.
    pub rejected: u64,
    /// Requests that failed any other way.
    pub errors: u64,
}

enum Pending {
    Write(Instant, u64, Ticket),
    Read(
        Instant,
        usize,
        u64,
        ReadHandle<Result<ReadOutcome, DynConError>>,
    ),
}

/// Fire `requests[i]` at `start + arrivals_ns[i]` whatever the server is
/// doing: one submitter thread sleeps to each due time and submits
/// without blocking (a backpressure reject is counted and dropped), and
/// one collector thread waits the answers in submission order. Latency
/// runs from the due time, so a stall is charged to every request queued
/// behind it.
pub fn open_loop<W, R>(
    requests: &[Request],
    arrivals_ns: &[u64],
    spans: &SpanLog,
    write: W,
    read: R,
) -> OpenLoop
where
    W: Fn(Vec<Op>) -> Result<Ticket, DynConError> + Sync,
    R: Fn(Vec<(u32, u32)>) -> ReadHandle<Result<ReadOutcome, DynConError>> + Sync,
{
    assert_eq!(requests.len(), arrivals_ns.len(), "one arrival per request");
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut report = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let tx = tx;
            let mut out = OpenLoop::default();
            for (i, (request, &at_ns)) in requests.iter().zip(arrivals_ns).enumerate() {
                let due = t0 + Duration::from_nanos(at_ns);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let submitted = Instant::now();
                out.lateness.push(submitted.saturating_duration_since(due));
                let pending = match request {
                    Request::Write(ops) => {
                        let outcome = write(ops.clone());
                        out.submit_times.push(submitted.elapsed());
                        spans.record("submit_write", 1, submitted);
                        match outcome {
                            Ok(ticket) => Pending::Write(due, ops.len() as u64, ticket),
                            Err(DynConError::Backpressure { .. }) => {
                                out.rejected += 1;
                                continue;
                            }
                            Err(_) => {
                                out.errors += 1;
                                continue;
                            }
                        }
                    }
                    Request::Read(pairs) => {
                        let handle = read(pairs.clone());
                        spans.record("submit_read", 1, submitted);
                        Pending::Read(due, i, pairs.len() as u64, handle)
                    }
                };
                tx.send(pending).expect("collector outlives the submitter");
            }
            out
        });
        let collector = scope.spawn(|| {
            let mut out = OpenLoop::default();
            for pending in rx {
                match pending {
                    Pending::Write(due, ops, ticket) => match ticket.wait() {
                        Ok(_) => {
                            out.writes.push(Sample {
                                done: t0.elapsed(),
                                latency: due.elapsed(),
                                ops,
                            });
                            out.ops += ops;
                            spans.record("write", 2, due);
                        }
                        Err(_) => out.errors += 1,
                    },
                    Pending::Read(due, i, pairs, handle) => match handle.wait() {
                        Ok(Ok((answer, finished))) => {
                            out.read_latencies
                                .push(finished.saturating_duration_since(due));
                            out.reads.push((i, answer));
                            out.ops += pairs;
                            spans.record_until("read", 2, due, finished);
                        }
                        _ => out.errors += 1,
                    },
                }
            }
            out
        });
        let sent = submitter.join().expect("open-loop submitter thread");
        let got = collector.join().expect("open-loop collector thread");
        OpenLoop {
            wall: Duration::ZERO,
            writes: got.writes,
            read_latencies: got.read_latencies,
            lateness: sent.lateness,
            submit_times: sent.submit_times,
            reads: got.reads,
            ops: got.ops,
            rejected: sent.rejected,
            errors: sent.errors + got.errors,
        }
    });
    report.wall = t0.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_api::Connectivity;
    use dyncon_core::BatchDynamicConnectivity;
    use dyncon_server::{ConnServer, ServerConfig, SubmitOptions};

    #[test]
    fn open_loop_issues_reads_beside_writes_and_records_lateness() {
        let server = ConnServer::start_versioned(
            BatchDynamicConnectivity::new(16),
            ServerConfig::new().retain_views(4).reader_threads(1),
        );
        // One committed round first, so every read finds a view.
        server
            .submit_with(vec![Op::Insert(5, 6)], SubmitOptions::new().blocking(true))
            .and_then(Ticket::wait)
            .unwrap();
        let requests = vec![
            Request::Write(vec![Op::Insert(0, 1), Op::Insert(1, 2)]),
            Request::Read(vec![(0, 2), (0, 3)]),
            Request::Write(vec![Op::Delete(1, 2)]),
            Request::Read(vec![(0, 1)]),
        ];
        let arrivals = dyncon_graphgen::poisson_arrivals(requests.len(), 200_000, 7);
        let load = open_loop(
            &requests,
            &arrivals,
            &SpanLog::off(),
            |ops| server.submit_with(ops, SubmitOptions::new()),
            |pairs| {
                server.read_async(move |view| {
                    let answers = pairs.iter().map(|&(u, v)| view.connected(u, v)).collect();
                    ((view.version(), answers), Instant::now())
                })
            },
        );
        assert_eq!(
            load.lateness.len(),
            requests.len(),
            "one lateness per request"
        );
        assert_eq!(load.writes.len() + load.rejected as usize, 2);
        assert_eq!(load.read_latencies.len(), 2);
        assert_eq!(load.reads.len(), 2);
        assert_eq!(load.errors, 0);
        for (i, (_, answers)) in &load.reads {
            assert!(matches!(requests[*i], Request::Read(ref p) if p.len() == answers.len()));
        }
        server.join();
    }

    #[test]
    fn closed_loop_sends_every_scheduled_request() {
        let server = ConnServer::start(BatchDynamicConnectivity::new(8), ServerConfig::new());
        let a = vec![vec![Op::Insert(0, 1)], vec![Op::Query(0, 1)]];
        let b = vec![vec![Op::Insert(2, 3), Op::Insert(3, 4)]];
        let load = closed_loop(&[&a, &b], &SpanLog::off(), |c, ops| {
            server.submit_with(ops, SubmitOptions::new().as_client(c).blocking(true))
        });
        assert_eq!(load.samples.len(), 3);
        assert_eq!(load.submit_times.len(), 3);
        assert_eq!((load.ops(), load.failed), (4, 0));
        assert!(load.samples.iter().all(|s| s.done <= load.wall));
        assert_eq!(server.join().ops_committed, 4);
    }
}
