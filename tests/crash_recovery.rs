//! Crash-recovery determinism: the durable serving layer must make
//! process death invisible. A seeded concurrent workload is killed at
//! arbitrary sealed-round boundaries (offsets from
//! `dyncon_graphgen::crash_points`); recovery plus replay of the
//! remaining traffic must produce `BatchResult`s — and, for pure-WAL
//! recovery, even the opaque `component_labels()` — byte-identical to
//! the run that never crashed, at 1/2/4 worker threads. Torn and
//! bit-flipped logs recover cleanly (typed errors, never a panic), and
//! snapshot + compaction round-trips preserve the observable graph.

use dyncon_api::{BatchDynamic, BatchResult, ExportEdges, Op};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_durable::{
    read_wal, recover, scratch_dir, DurableConfig, DurableServer, DynConError, FsyncPolicy,
    WAL_FILE,
};
use dyncon_graphgen::{crash_points, zipf_client_schedules};
use dyncon_server::{ServerConfig, SubmitOptions};
use dyncon_spanning::NaiveDynamicGraph;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

const N: usize = 128;
const CLIENTS: usize = 3;
const ROUNDS: usize = 8;
const OPS_PER_REQUEST: usize = 16;

fn schedules() -> Vec<Vec<Vec<Op>>> {
    zipf_client_schedules(N, CLIENTS, ROUNDS, OPS_PER_REQUEST, 0.4, 1.1, 20_26)
}

/// The canonical op sequence of each round (client-major, the
/// deterministic mode contract).
fn canonical_rounds() -> Vec<Vec<Op>> {
    let scheds = schedules();
    (0..ROUNDS)
        .map(|r| {
            scheds
                .iter()
                .flat_map(|client| client[r].iter().copied())
                .collect()
        })
        .collect()
}

/// The uninterrupted run: every round applied in order on one backend.
fn uninterrupted() -> (BatchDynamicConnectivity, Vec<BatchResult>) {
    let mut g = BatchDynamicConnectivity::new(N);
    let results = canonical_rounds()
        .iter()
        .map(|ops| g.apply(ops).unwrap())
        .collect();
    (g, results)
}

/// Serve rounds `0..upto` of the schedules through a `DurableServer`
/// with truly concurrent clients, then shut down *without* compaction —
/// the WAL is left exactly as a crash at that sealed-round boundary
/// would leave it (modulo the torn tail some tests add by hand).
fn serve_rounds(dir: &Path, upto: usize, worker_threads: usize) {
    let scheds = schedules();
    let (server, _meta) = DurableServer::<BatchDynamicConnectivity>::open(
        dir,
        N,
        ServerConfig::new()
            .deterministic(true)
            .worker_threads(worker_threads)
            .queue_capacity(CLIENTS * ROUNDS),
        DurableConfig::new().compact_on_join(false),
    )
    .unwrap();
    let submitted = Barrier::new(CLIENTS + 1);
    let committed = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        for (c, sched) in scheds.iter().enumerate() {
            let (server, submitted, committed) = (&server, &submitted, &committed);
            scope.spawn(move || {
                for ops in &sched[..upto] {
                    let ticket = server
                        .submit_with(ops.clone(), SubmitOptions::new().as_client(c as u64))
                        .unwrap();
                    submitted.wait();
                    ticket.wait().unwrap();
                    committed.wait();
                }
            });
        }
        for _ in 0..upto {
            submitted.wait();
            assert_eq!(server.seal_round(), CLIENTS);
            committed.wait();
        }
    });
    let report = server.join().unwrap();
    assert_eq!(report.service.rounds_committed, upto as u64);
    assert_eq!(report.next_round, upto as u64);
    assert!(!report.compacted);
}

fn cleanup(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn kill_at_round_k_recovery_is_byte_identical_across_worker_threads() {
    let rounds = canonical_rounds();
    let (reference, expected) = uninterrupted();
    let expected_labels = reference.component_labels();
    for worker_threads in [1usize, 2, 4] {
        for &k in &crash_points(ROUNDS, 2, 7 + worker_threads as u64) {
            let dir = scratch_dir(&format!("kill-w{worker_threads}-k{k}"));
            serve_rounds(&dir, k, worker_threads);

            // The dead process's log holds exactly the sealed rounds.
            let (mut recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
            assert_eq!(meta.replayed_rounds, k as u64, "w={worker_threads} k={k}");
            assert!(!meta.dropped_tail);

            // Replaying the remaining traffic yields byte-identical
            // results…
            let tail_results: Vec<BatchResult> = rounds[k..]
                .iter()
                .map(|ops| recovered.apply(ops).unwrap())
                .collect();
            assert_eq!(tail_results, expected[k..], "w={worker_threads} k={k}");
            // …and the final structure is indistinguishable from the
            // uninterrupted one, down to the opaque internal labels.
            assert_eq!(
                recovered.component_labels(),
                expected_labels,
                "w={worker_threads} k={k}"
            );
            assert_eq!(recovered.export_edges(), reference.export_edges());
            recovered.check().unwrap();
            cleanup(&dir);
        }
    }
}

/// Sharded kill-at-round-k: a durable [`ShardedServer`] writes one WAL
/// per shard (plus the cross store's). Killing it at a sealed-round
/// boundary and reopening the same base directory must recover *every*
/// shard and the lazily rebuilt boundary graph to the same prefix, so
/// replaying the remaining rounds yields `BatchResult`s — and a final
/// edge set and component count — byte-identical to the uninterrupted
/// run, at 1, 2 and 4 worker threads per shard.
#[test]
fn sharded_kill_at_round_k_recovers_every_shard_and_the_boundary() {
    use dyncon_api::Connectivity;
    use dyncon_shard::{DurableShards, ShardConfig, ShardMapKind, ShardedServer};
    const SHARDS: usize = 3;
    let rounds = canonical_rounds();
    let (reference, expected) = uninterrupted();

    // Serve `rounds[from..upto]` through a durable sharded service on
    // `dir`, then stop without compaction — every shard's WAL is left
    // exactly as a kill at that sealed-round boundary would leave it.
    let serve = |dir: &Path, from: usize, upto: usize, threads: usize| -> Vec<BatchResult> {
        let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
            N,
            ShardConfig::new()
                .shards(SHARDS)
                .kind(ShardMapKind::Hash)
                .server(
                    ServerConfig::new()
                        .deterministic(true)
                        .worker_threads(threads)
                        .queue_capacity(ROUNDS),
                )
                .durable(
                    DurableShards::new(dir).config(DurableConfig::new().compact_on_join(false)),
                ),
        )
        .unwrap();
        let mut results = Vec::new();
        for ops in &rounds[from..upto] {
            let ticket = server
                .submit_with(ops.clone(), SubmitOptions::new().as_client(0))
                .unwrap();
            assert_eq!(server.seal_round(), 1);
            let r = ticket.wait().unwrap();
            results.push(BatchResult {
                inserted: r.inserted,
                deleted: r.deleted,
                answers: r.answers,
            });
        }
        let report = server.join().unwrap();
        for shard in &report.shards {
            // Shard WALs number *sub-rounds* (one per mutation segment
            // that touched the shard), which resume where they left off.
            assert!(shard.next_round.is_some(), "shard ran durable");
        }
        results
    };

    for worker_threads in [1usize, 2, 4] {
        for &k in &crash_points(ROUNDS, 2, 31 + worker_threads as u64) {
            let dir = scratch_dir(&format!("shard-kill-w{worker_threads}-k{k}"));
            let head = serve(&dir, 0, k, worker_threads);
            assert_eq!(head, expected[..k], "w={worker_threads} k={k}: head");

            // Reopen: every shard (and the cross store) recovers from
            // its own WAL; the tail replays byte-identically.
            let tail = serve(&dir, k, ROUNDS, worker_threads);
            assert_eq!(tail, expected[k..], "w={worker_threads} k={k}: tail");

            // The recovered ensemble's final structure matches the
            // never-crashed single backend: same edge set (per-shard
            // exports recombined), same global component count (through
            // the rebuilt boundary graph).
            let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
                N,
                ShardConfig::new()
                    .shards(SHARDS)
                    .kind(ShardMapKind::Hash)
                    .durable(DurableShards::new(&dir)),
            )
            .unwrap();
            let (edges, comps) = server
                .inspect(|b| (b.export_edges(), b.num_components()))
                .unwrap();
            assert_eq!(edges, reference.export_edges(), "w={worker_threads} k={k}");
            assert_eq!(
                comps,
                BatchDynamicConnectivity::num_components(&reference),
                "w={worker_threads} k={k}"
            );
            server.join().unwrap();
            cleanup(&dir);
        }
    }
}

/// The shard topology is durable state: reopening a base directory with
/// a different partition must fail with a typed `Corrupt` error instead
/// of scattering recovered edges across the wrong shards.
#[test]
fn sharded_reopen_with_different_topology_is_rejected() {
    use dyncon_shard::{DurableShards, ShardConfig, ShardMapKind, ShardedServer};
    let dir = scratch_dir("shard-topology");
    let open = |shards: usize, kind: ShardMapKind| {
        ShardedServer::<BatchDynamicConnectivity>::start(
            N,
            ShardConfig::new()
                .shards(shards)
                .kind(kind)
                .durable(DurableShards::new(&dir)),
        )
    };
    open(2, ShardMapKind::Hash).unwrap().join().unwrap();
    // Same topology reopens fine…
    open(2, ShardMapKind::Hash).unwrap().join().unwrap();
    // …different shard count or kind does not.
    for (shards, kind) in [(3, ShardMapKind::Hash), (2, ShardMapKind::Range)] {
        match open(shards, kind) {
            Err(DynConError::Corrupt { path, detail, .. }) => {
                assert!(path.ends_with("shard.manifest"), "{path}");
                assert!(detail.contains("topology"), "{detail}");
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("topology mismatch must not open"),
        }
    }
    cleanup(&dir);
}

#[test]
fn recovery_agrees_with_the_naive_oracle() {
    let rounds = canonical_rounds();
    let (_, expected) = uninterrupted();
    for &k in &crash_points(ROUNDS, 3, 99) {
        let dir = scratch_dir(&format!("oracle-k{k}"));
        serve_rounds(&dir, k, 2);
        // Recover the slow-but-trusted backend from the same directory:
        // recovery is backend-generic, and the oracle's answers for the
        // remaining traffic must match the fast structure's.
        let (mut oracle, meta) = recover::<NaiveDynamicGraph>(&dir).unwrap();
        assert_eq!(meta.replayed_rounds, k as u64);
        for (r, ops) in rounds[k..].iter().enumerate() {
            let got = oracle.apply(ops).unwrap();
            assert_eq!(got, expected[k + r], "oracle diverged at round {}", k + r);
        }
        cleanup(&dir);
    }
}

#[test]
fn truncated_tail_loses_exactly_the_torn_round() {
    let rounds = canonical_rounds();
    let (_, expected) = uninterrupted();
    let k = 5;
    let dir = scratch_dir("torn-tail");
    serve_rounds(&dir, k, 2);
    // Tear the final append: chop a few bytes off the log.
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 9]).unwrap();

    let (mut recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
    assert!(meta.dropped_tail, "the torn record must be reported");
    assert_eq!(
        meta.replayed_rounds,
        (k - 1) as u64,
        "only the tail is lost"
    );
    // The recovered structure is the k-1 state: replaying from round
    // k-1 onwards reproduces the uninterrupted results.
    let tail_results: Vec<BatchResult> = rounds[k - 1..]
        .iter()
        .map(|ops| recovered.apply(ops).unwrap())
        .collect();
    assert_eq!(tail_results, expected[k - 1..]);
    cleanup(&dir);
}

#[test]
fn garbage_after_the_last_record_is_dropped() {
    let k = 3;
    let dir = scratch_dir("garbage-tail");
    serve_rounds(&dir, k, 1);
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0xAB; 13]); // a torn header
    std::fs::write(&wal_path, &bytes).unwrap();
    let (recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
    assert!(meta.dropped_tail);
    assert_eq!(meta.replayed_rounds, k as u64, "no valid round lost");
    recovered.check().unwrap();
    cleanup(&dir);
}

#[test]
fn bit_flipped_checksum_mid_log_is_a_typed_error_not_a_panic() {
    let dir = scratch_dir("bitflip");
    serve_rounds(&dir, 4, 2);
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    // Flip one bit early in the file body (inside the first record),
    // leaving plenty of valid-looking data after it: committed history
    // is damaged, and recovery must say so instead of guessing.
    bytes[40] ^= 0x04;
    std::fs::write(&wal_path, &bytes).unwrap();
    match recover::<BatchDynamicConnectivity>(&dir) {
        Err(DynConError::Corrupt { path, detail, .. }) => {
            assert!(path.ends_with(WAL_FILE), "{path}");
            assert!(!detail.is_empty());
        }
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("mid-log corruption must not recover silently"),
    }
    cleanup(&dir);
}

#[test]
fn snapshot_compaction_round_trip_preserves_the_observable_graph() {
    let rounds = canonical_rounds();
    let (reference, expected) = uninterrupted();
    let k = 6;
    let dir = scratch_dir("compaction");
    {
        // This lifetime compacts at join: snapshot written, WAL emptied.
        let scheds = schedules();
        let (server, _) = DurableServer::<BatchDynamicConnectivity>::open(
            &dir,
            N,
            ServerConfig::new().deterministic(true).queue_capacity(64),
            DurableConfig::new().fsync(FsyncPolicy::EveryNRounds(2)),
        )
        .unwrap();
        for r in 0..k {
            for (c, sched) in scheds.iter().enumerate() {
                server
                    .submit_with(sched[r].clone(), SubmitOptions::new().as_client(c as u64))
                    .unwrap();
            }
            server.seal_round();
        }
        let report = server.join().unwrap();
        assert!(report.compacted);
        assert_eq!(report.next_round, k as u64);
    }
    let readout = read_wal(&dir).unwrap().unwrap();
    assert!(readout.records.is_empty(), "compaction emptied the log");

    // Recovery now costs the graph, not the history: zero replayed
    // rounds, round numbering preserved.
    let (mut recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
    assert_eq!((meta.snapshot_rounds, meta.replayed_rounds), (k as u64, 0));
    assert_eq!(meta.next_round, k as u64);

    // A snapshot rebuild has different internal history (one bulk
    // insert), so compare semantics: edge set, query answers and the
    // component partition — plus the BatchResults of all remaining
    // traffic, which are semantic and must still match byte for byte.
    let mut reference_at_k = BatchDynamicConnectivity::new(N);
    for ops in &rounds[..k] {
        reference_at_k.apply(ops).unwrap();
    }
    assert_eq!(recovered.export_edges(), reference_at_k.export_edges());
    assert_eq!(
        partition(&recovered.component_labels()),
        partition(&reference_at_k.component_labels())
    );
    let tail_results: Vec<BatchResult> = rounds[k..]
        .iter()
        .map(|ops| recovered.apply(ops).unwrap())
        .collect();
    assert_eq!(tail_results, expected[k..]);
    assert_eq!(recovered.export_edges(), reference.export_edges());
    cleanup(&dir);
}

/// Canonicalize an opaque labelling into first-occurrence indices so two
/// labellings compare as partitions.
fn partition(labels: &[u64]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}
