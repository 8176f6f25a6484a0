//! The serving layer's determinism contract under real concurrency:
//! N client threads submitting seeded schedules through the group-commit
//! frontend in deterministic mode must produce rounds **byte-identical**
//! to a serial replay of the same rounds — at 1, 2 and 4 worker threads —
//! and agree with the naive oracle. Plus a throughput-mode stress run:
//! no lost requests, no lost ops, invariants intact.

use dyncon_api::{BatchDynamic, BatchResult, Op, OpKind};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_graphgen::zipf_client_schedules;
use dyncon_server::{ConnServer, RoundRecord, ServerConfig, SubmitOptions};
use dyncon_spanning::NaiveDynamicGraph;
use std::sync::Barrier;

const N: usize = 256;
const CLIENTS: usize = 4;
const ROUNDS: usize = 6;
const OPS_PER_REQUEST: usize = 24;

/// schedules[client][round] — one request per client per round.
fn schedules() -> Vec<Vec<Vec<Op>>> {
    zipf_client_schedules(N, CLIENTS, ROUNDS, OPS_PER_REQUEST, 0.4, 1.1, 4242)
}

/// The canonical round contents deterministic mode promises: for each
/// round, every client's request in client-id order (each client submits
/// exactly one request per round here).
fn expected_rounds(schedules: &[Vec<Vec<Op>>]) -> Vec<Vec<Op>> {
    (0..ROUNDS)
        .map(|r| {
            schedules
                .iter()
                .flat_map(|client| client[r].iter().copied())
                .collect()
        })
        .collect()
}

/// Drive the server with truly concurrent clients: all clients submit
/// their round-r request, a barrier, the main thread seals, everyone
/// collects their ticket, a second barrier gates round r+1. Returns the
/// round log and each client's per-round answers.
fn run_concurrent(worker_threads: usize) -> (Vec<RoundRecord>, Vec<Vec<Vec<bool>>>) {
    let scheds = schedules();
    let server = ConnServer::start(
        BatchDynamicConnectivity::new(N),
        ServerConfig::new()
            .deterministic(true)
            .record_rounds(true)
            .worker_threads(worker_threads)
            .queue_capacity(CLIENTS * ROUNDS),
    );
    let submitted = Barrier::new(CLIENTS + 1);
    let committed = Barrier::new(CLIENTS + 1);
    let mut per_client_answers: Vec<Vec<Vec<bool>>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = scheds
            .iter()
            .enumerate()
            .map(|(c, sched)| {
                let (server, submitted, committed) = (&server, &submitted, &committed);
                scope.spawn(move || {
                    let mut answers = Vec::with_capacity(ROUNDS);
                    for ops in sched {
                        let ticket = server
                            .submit_with(ops.clone(), SubmitOptions::new().as_client(c as u64))
                            .unwrap();
                        submitted.wait();
                        answers.push(ticket.wait().unwrap().answers);
                        committed.wait();
                    }
                    answers
                })
            })
            .collect();
        for _ in 0..ROUNDS {
            submitted.wait();
            assert_eq!(server.seal_round(), CLIENTS);
            committed.wait();
        }
        for h in handles {
            per_client_answers.push(h.join().unwrap());
        }
    });
    let report = server.join();
    assert_eq!(report.rounds_committed, ROUNDS as u64);
    (report.rounds, per_client_answers)
}

/// Serial replay of the canonical rounds on a fresh backend.
fn serial_replay(rounds: &[Vec<Op>]) -> Vec<BatchResult> {
    let mut g = BatchDynamicConnectivity::new(N);
    rounds.iter().map(|ops| g.apply(ops).unwrap()).collect()
}

#[test]
fn deterministic_mode_matches_serial_replay_across_worker_threads() {
    let expected_ops = expected_rounds(&schedules());
    let expected_results = serial_replay(&expected_ops);
    for worker_threads in [1usize, 2, 4] {
        let (rounds, _) = run_concurrent(worker_threads);
        // Round boundaries and canonical op order are schedule-derived,
        // not interleaving-derived…
        let got_ops: Vec<Vec<Op>> = rounds.iter().map(|r| r.ops.clone()).collect();
        assert_eq!(got_ops, expected_ops, "{worker_threads} worker threads");
        // …and the committed results are byte-identical to serial replay.
        let got_results: Vec<BatchResult> = rounds.iter().map(|r| r.result.clone()).collect();
        assert_eq!(
            got_results, expected_results,
            "{worker_threads} worker threads"
        );
    }
}

#[test]
fn per_client_answers_match_replay_slices() {
    let scheds = schedules();
    let expected_ops = expected_rounds(&scheds);
    let expected_results = serial_replay(&expected_ops);
    let (_, per_client) = run_concurrent(2);
    // Reconstruct each client's slice of every round's answer vector:
    // clients are applied in id order within a round.
    for r in 0..ROUNDS {
        let mut cursor = expected_results[r].answers.iter().copied();
        for (c, client_answers) in per_client.iter().enumerate() {
            let queries = scheds[c][r]
                .iter()
                .filter(|op| op.kind() == OpKind::Query)
                .count();
            let expected: Vec<bool> = cursor.by_ref().take(queries).collect();
            assert_eq!(client_answers[r], expected, "client {c}, round {r}");
        }
        assert!(cursor.next().is_none(), "round {r} answers fully consumed");
    }
}

#[test]
fn deterministic_mode_agrees_with_naive_oracle() {
    let expected_ops = expected_rounds(&schedules());
    let (rounds, _) = run_concurrent(4);
    let mut oracle = NaiveDynamicGraph::new(N);
    for (record, ops) in rounds.iter().zip(&expected_ops) {
        let oracle_result = BatchDynamic::apply(&mut oracle, ops).unwrap();
        assert_eq!(record.result, oracle_result, "round {}", record.round);
    }
}

#[test]
fn concurrent_runs_are_mutually_byte_identical() {
    // Two runs with maximally different OS interleavings (1 vs 4 worker
    // threads, fresh client threads) — the whole point of the contract.
    let a = run_concurrent(1);
    let b = run_concurrent(4);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn throughput_mode_loses_nothing_under_contention() {
    let scheds = zipf_client_schedules(N, 8, 32, 16, 0.5, 1.2, 777);
    let total_ops: usize = scheds.iter().flatten().map(Vec::len).sum();
    let server = ConnServer::start(
        BatchDynamicConnectivity::new(N),
        ServerConfig::new()
            .batch_cap(128)
            .queue_capacity(16)
            .coalesce_wait(std::time::Duration::from_micros(50)),
    );
    std::thread::scope(|scope| {
        for sched in &scheds {
            let server = &server;
            scope.spawn(move || {
                for ops in sched {
                    // Blocking submit rides out backpressure instead of
                    // dropping requests.
                    let queries = ops.iter().filter(|o| o.kind() == OpKind::Query).count();
                    let ticket = server
                        .submit_with(ops.clone(), SubmitOptions::new().blocking(true))
                        .unwrap();
                    let result = ticket.wait().unwrap();
                    assert_eq!(result.answers.len(), queries);
                }
            });
        }
    });
    let report = server.join();
    assert_eq!(
        report.ops_committed as usize, total_ops,
        "no op lost or duplicated"
    );
    assert!(
        report.rounds_committed > 1,
        "traffic split into multiple rounds"
    );
    report
        .backend
        .check()
        .expect("backend invariants survive the stress");
}
