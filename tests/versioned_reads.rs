//! MVCC versioned reads, end to end: a [`ReadView`] at version `v` must
//! answer `connected` / `component_groups` / `export_edges`
//! **byte-identically** to a naive oracle replayed through round `v` —
//! at every worker thread count × shard count combination, for views
//! taken mid-burst, for stale views held across later commits, and for
//! views of recovered state after a restart.

use dyncon_api::{Connectivity, ExportEdges, Op, OpKind, ReadView, VersionedRead};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_durable::{scratch_dir, DurableConfig, DurableServer};
use dyncon_graphgen::zipf_client_schedules;
use dyncon_server::{ConnServer, DynConError, ServerConfig, SubmitOptions};
use dyncon_shard::{ShardConfig, ShardedServer};
use dyncon_spanning::NaiveDynamicGraph;
use proptest::prelude::*;

/// Replay canonical (client-major) rounds through the naive oracle and
/// return the expected [`ReadView`] of every version: `expected[v]` is
/// the state after rounds `0..=v`.
fn oracle_views(n: usize, rounds: &[Vec<Op>]) -> Vec<ReadView> {
    let mut oracle = NaiveDynamicGraph::new(n);
    rounds
        .iter()
        .enumerate()
        .map(|(v, ops)| {
            for op in ops {
                match op {
                    Op::Insert(u, w) => {
                        oracle.insert(*u, *w);
                    }
                    Op::Delete(u, w) => {
                        oracle.delete(*u, *w);
                    }
                    Op::Query(..) => {}
                }
            }
            ReadView::build(n, v as u64, oracle.export_edges())
        })
        .collect()
}

/// The canonical round sequence a deterministic server commits from
/// per-client schedules: client-major within each sealed round.
fn canonical_rounds(schedules: &[Vec<Vec<Op>>], rounds: usize) -> Vec<Vec<Op>> {
    (0..rounds)
        .map(|r| {
            schedules
                .iter()
                .flat_map(|sched| sched[r].iter().copied())
                .collect()
        })
        .collect()
}

/// A view must be byte-identical to the oracle's: same labels, same
/// edges, same component census, same group labeling.
fn assert_view_matches(view: &ReadView, expected: &ReadView, context: &str) {
    assert_eq!(view.version(), expected.version(), "{context}: version");
    assert_eq!(
        view.component_labels(),
        expected.component_labels(),
        "{context}: labels at v{}",
        view.version()
    );
    assert_eq!(
        view.edges(),
        expected.edges(),
        "{context}: edges at v{}",
        view.version()
    );
    assert_eq!(
        view.num_components(),
        expected.num_components(),
        "{context}"
    );
    let probe: Vec<u32> = (0..view.num_vertices() as u32).rev().collect();
    assert_eq!(
        view.component_groups(&probe),
        expected.component_groups(&probe),
        "{context}: component_groups at v{}",
        view.version()
    );
}

/// The tentpole acceptance matrix: a deterministic versioned server's
/// views match the oracle replay at worker threads {1,2,4}, with views
/// grabbed mid-burst and stale views held to the end.
#[test]
fn unsharded_views_match_oracle_replay_across_threads() {
    const N: usize = 96;
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 6;
    let schedules = zipf_client_schedules(N, CLIENTS, ROUNDS, 24, 0.4, 1.1, 47);
    let expected = oracle_views(N, &canonical_rounds(&schedules, ROUNDS));
    for threads in [1usize, 2, 4] {
        let server = ConnServer::start_versioned(
            BatchDynamicConnectivity::new(N),
            ServerConfig::new()
                .deterministic(true)
                .worker_threads(threads)
                .retain_views(ROUNDS)
                .queue_capacity(CLIENTS * ROUNDS),
        );
        let mut held: Vec<ReadView> = Vec::new();
        for round in 0..ROUNDS {
            let tickets: Vec<_> = schedules
                .iter()
                .enumerate()
                .map(|(c, sched)| {
                    server
                        .submit_with(
                            sched[round].clone(),
                            SubmitOptions::new().as_client(c as u64),
                        )
                        .unwrap()
                })
                .collect();
            server.seal_round();
            for t in tickets {
                assert_eq!(t.wait().unwrap().version, round as u64);
            }
            // Mid-burst: grab the just-committed version while later
            // rounds are still coming, and hold it to the end.
            let view = server.read_view().unwrap();
            assert_view_matches(&view, &expected[round], "mid-burst");
            held.push(view);
        }
        // Stale views held across later commits still answer as of
        // their version, and the retained window serves every version.
        for (v, view) in held.iter().enumerate() {
            assert_view_matches(view, &expected[v], "held");
            let refetched = server.read_view_at(v as u64).unwrap();
            assert_view_matches(&refetched, &expected[v], "refetched");
        }
        assert_eq!(server.version_window(), Some((0, ROUNDS as u64 - 1)));
        server.join();
    }
}

/// The same matrix through the sharding layer: per-shard states and the
/// boundary graph are pinned at one outer version, so the global view is
/// byte-identical to the unsharded oracle at every shard count × thread
/// count (shard counts from `DYNCON_SHARDS`, like the CI matrix).
#[test]
fn sharded_views_match_oracle_replay_across_shards_and_threads() {
    const N: usize = 96;
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 5;
    let schedules = zipf_client_schedules(N, CLIENTS, ROUNDS, 24, 0.4, 1.1, 53);
    let expected = oracle_views(N, &canonical_rounds(&schedules, ROUNDS));
    for shards in dyncon_bench::shard_counts() {
        for threads in [1usize, 2, 4] {
            let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
                N,
                ShardConfig::new().shards(shards).server(
                    ServerConfig::new()
                        .deterministic(true)
                        .worker_threads(threads)
                        .retain_views(ROUNDS)
                        .queue_capacity(CLIENTS * ROUNDS),
                ),
            )
            .unwrap();
            for round in 0..ROUNDS {
                let tickets: Vec<_> = schedules
                    .iter()
                    .enumerate()
                    .map(|(c, sched)| {
                        server
                            .submit_with(
                                sched[round].clone(),
                                SubmitOptions::new().as_client(c as u64),
                            )
                            .unwrap()
                    })
                    .collect();
                server.seal_round();
                for t in tickets {
                    assert_eq!(t.wait().unwrap().version, round as u64);
                }
                // The view of a committed version is available the moment
                // its tickets resolve (publish happens before ticket fill).
                let view = server.read_view_at(round as u64).unwrap();
                assert_view_matches(
                    &view,
                    &expected[round],
                    &format!("{shards} shards x {threads} threads"),
                );
            }
            server.join().unwrap();
        }
    }
}

/// Versions outside the retention window fail typed, with the retained
/// bounds in the error; an empty window is its own distinguishable case.
#[test]
fn window_eviction_and_empty_window_are_typed_errors() {
    let server = ConnServer::start_versioned(
        BatchDynamicConnectivity::new(8),
        ServerConfig::new().deterministic(true).retain_views(2),
    );
    // Empty window: nothing committed yet (oldest > newest encoding).
    match server.read_view().unwrap_err() {
        DynConError::UnknownVersion { oldest, newest, .. } => {
            assert!(oldest > newest, "empty-window encoding")
        }
        other => panic!("unexpected error {other:?}"),
    }
    for i in 0..4u32 {
        let t = server
            .submit_with(
                vec![Op::Insert(i, i + 1)],
                SubmitOptions::new().as_client(0),
            )
            .unwrap();
        server.seal_round();
        t.wait().unwrap();
    }
    assert_eq!(server.version_window(), Some((2, 3)));
    assert_eq!(
        server.read_view_at(0).unwrap_err(),
        DynConError::UnknownVersion {
            requested: 0,
            oldest: 2,
            newest: 3
        }
    );
    assert_eq!(
        server.read_view_at(11).unwrap_err(),
        DynConError::UnknownVersion {
            requested: 11,
            oldest: 2,
            newest: 3
        }
    );
    server.join();
}

/// The read-your-writes fence through the sharding layer, in throughput
/// mode: a fenced request admitted after version `v` observes the write
/// that committed as `v`.
#[test]
fn sharded_fence_reads_its_own_writes() {
    let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
        128,
        ShardConfig::new().shards(2).server(
            ServerConfig::new()
                .retain_views(4)
                .coalesce_wait(std::time::Duration::from_micros(50)),
        ),
    )
    .unwrap();
    // A cross-shard edge under hash partitioning.
    let write = server
        .submit_with(vec![Op::Insert(0, 65)], SubmitOptions::new().blocking(true))
        .unwrap()
        .wait()
        .unwrap();
    let read = server
        .submit_with(
            vec![Op::Query(0, 65)],
            SubmitOptions::new()
                .blocking(true)
                .min_version(write.version),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(read.answers, vec![true]);
    assert!(read.version > write.version);
    // The fenced version's view agrees.
    assert!(server.read_view_at(write.version).unwrap().connected(0, 65));
    server.join().unwrap();
}

/// Versions survive restarts: after recovery the durable server republishes
/// the recovered state under its WAL version, and its view matches the
/// oracle replay of the pre-restart history.
#[test]
fn recovered_views_match_pre_restart_oracle() {
    const N: usize = 64;
    const ROUNDS: usize = 4;
    let schedules = zipf_client_schedules(N, 1, ROUNDS, 16, 0.3, 1.1, 71);
    let rounds = canonical_rounds(&schedules, ROUNDS);
    let expected = oracle_views(N, &rounds);
    let dir = scratch_dir("versioned-recovery");
    {
        let (server, _) = DurableServer::<BatchDynamicConnectivity>::open(
            &dir,
            N,
            ServerConfig::new().deterministic(true).retain_views(8),
            DurableConfig::new().compact_on_join(false),
        )
        .unwrap();
        for (v, ops) in rounds.iter().enumerate() {
            let t = server
                .submit_with(ops.clone(), SubmitOptions::new().as_client(0))
                .unwrap();
            server.seal_round();
            assert_eq!(t.wait().unwrap().version, v as u64);
        }
        server.join().unwrap();
    }
    // Second lifetime: the recovered state is version ROUNDS-1, published
    // at open — same labels and edges as the oracle's view of it.
    let (server, meta) = DurableServer::<BatchDynamicConnectivity>::open(
        &dir,
        N,
        ServerConfig::new().deterministic(true).retain_views(8),
        DurableConfig::new(),
    )
    .unwrap();
    assert_eq!(meta.next_round, ROUNDS as u64);
    assert_eq!(
        server.version_window(),
        Some((ROUNDS as u64 - 1, ROUNDS as u64 - 1))
    );
    let recovered = server.read_view().unwrap();
    assert_view_matches(&recovered, &expected[ROUNDS - 1], "recovered");
    // And new commits continue the WAL numbering past the recovered view.
    let t = server
        .submit_with(vec![Op::Insert(0, 1)], SubmitOptions::new().as_client(0))
        .unwrap();
    server.seal_round();
    assert_eq!(t.wait().unwrap().version, ROUNDS as u64);
    server.join().unwrap();
}

const PROP_N: u32 = 12;

fn prop_edge() -> impl Strategy<Value = (u32, u32)> {
    // Distinct endpoints: map a collision onto the next vertex.
    (0..PROP_N, 0..PROP_N).prop_map(|(u, v)| {
        if u == v {
            (u, (v + 1) % PROP_N)
        } else {
            (u, v)
        }
    })
}

fn prop_round() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            prop_edge().prop_map(|(u, v)| Op::Insert(u, v)),
            prop_edge().prop_map(|(u, v)| Op::Delete(u, v)),
            prop_edge().prop_map(|(u, v)| Op::Query(u, v)),
        ],
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary mutation rounds, with stale reads interleaved: after
    /// every commit, the view of every retained version still matches the
    /// naive oracle replayed through exactly that round — byte-identical
    /// labels and edges, and `connected` agreeing with the oracle's
    /// answers as of that version.
    #[test]
    fn stale_views_answer_as_of_their_version(
        rounds in prop::collection::vec(prop_round(), 1..8)
    ) {
        let n = PROP_N as usize;
        let expected = oracle_views(n, &rounds);
        let server = ConnServer::start_versioned(
            BatchDynamicConnectivity::new(n),
            ServerConfig::new().deterministic(true).retain_views(16),
        );
        for (v, ops) in rounds.iter().enumerate() {
            let queries = ops.iter().filter(|o| o.kind() == OpKind::Query).count();
            let t = server.submit_with(ops.clone(), SubmitOptions::new().as_client(0)).unwrap();
            server.seal_round();
            let r = t.wait().unwrap();
            prop_assert_eq!(r.version, v as u64);
            prop_assert_eq!(r.answers.len(), queries);
            // Interleaved stale reads: every retained version, re-checked
            // after this round's mutations landed.
            for (stale, want) in expected.iter().enumerate().take(v + 1) {
                let view = server.read_view_at(stale as u64).unwrap();
                prop_assert_eq!(view.component_labels(), want.component_labels());
                prop_assert_eq!(view.edges(), want.edges());
                for op in ops {
                    let (qu, qv) = match *op {
                        Op::Insert(a, b) | Op::Delete(a, b) | Op::Query(a, b) => (a, b),
                    };
                    prop_assert_eq!(view.connected(qu, qv), want.connected(qu, qv));
                }
            }
        }
        server.join();
    }
}
