//! End-to-end durability demo: serve → crash → recover → verify → compact.
//!
//! Lifetime 1 serves concurrent Zipf traffic through a `DurableServer`
//! and "crashes" (shuts down without compaction), leaving only the
//! write-ahead log behind. Lifetime 2 recovers from the log, proves the
//! rebuilt structure answers exactly like the replay oracle, serves more
//! traffic continuing the global round numbering, and compacts at join.
//! Lifetime 3 shows recovery now loads the snapshot and replays nothing.
//!
//! ```text
//! cargo run --release --example durable_service
//! ```

use dyncon_api::{BatchDynamic, ExportEdges, Op, OpKind};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_durable::{read_wal, recover, scratch_dir, DurableConfig, DurableServer, FsyncPolicy};
use dyncon_graphgen::zipf_client_schedules;
use dyncon_server::{ServerConfig, SubmitOptions};
use std::time::Instant;

const N: usize = 1 << 12;
const CLIENTS: usize = 4;
const ROUNDS_PER_LIFETIME: usize = 6;
const OPS_PER_REQUEST: usize = 48;

fn serve(dir: &std::path::Path, schedules: &[Vec<Vec<Op>>], compact_on_join: bool) -> (u64, u64) {
    let (server, meta) = DurableServer::<BatchDynamicConnectivity>::open(
        dir,
        N,
        ServerConfig::new()
            .deterministic(true)
            .queue_capacity(CLIENTS * ROUNDS_PER_LIFETIME),
        DurableConfig::new()
            .fsync(FsyncPolicy::EveryRound)
            .compact_on_join(compact_on_join),
    )
    .unwrap();
    println!(
        "  opened: snapshot covers {} rounds, replayed {} from the WAL, next round id {}",
        meta.snapshot_rounds, meta.replayed_rounds, meta.next_round
    );
    let done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (c, sched) in schedules.iter().enumerate() {
            let (server, done) = (&server, &done);
            scope.spawn(move || {
                for ops in sched {
                    let queries = ops.iter().filter(|o| o.kind() == OpKind::Query).count();
                    let ticket = server
                        .submit_with(
                            ops.clone(),
                            SubmitOptions::new().as_client(c as u64).blocking(true),
                        )
                        .unwrap();
                    // A resolved ticket implies the round is fsynced:
                    // group commit and group fsync coincide.
                    assert_eq!(ticket.wait().unwrap().answers.len(), queries);
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        // One writer-side sealer: deterministic mode commits only at
        // explicit seals, so keep sealing bursts until every client has
        // drained its schedule.
        let (server, done) = (&server, &done);
        scope.spawn(move || {
            while done.load(std::sync::atomic::Ordering::Relaxed) < CLIENTS {
                std::thread::sleep(std::time::Duration::from_micros(200));
                server.seal_round();
            }
        });
    });
    let report = server.join().unwrap();
    (report.service.rounds_committed, report.next_round)
}

fn main() {
    let dir = scratch_dir("durable-example");
    let schedules = |seed: u64| {
        zipf_client_schedules(
            N,
            CLIENTS,
            ROUNDS_PER_LIFETIME,
            OPS_PER_REQUEST,
            0.5,
            1.1,
            seed,
        )
    };

    println!("lifetime 1: serve {CLIENTS} clients, then crash (no compaction)");
    let (committed, next_round) = serve(&dir, &schedules(1), false);
    println!("  committed {committed} rounds; process dies, WAL survives");

    // --- crash ---

    println!("recovery: rebuild from the WAL and verify against a replay oracle");
    let t0 = Instant::now();
    let (recovered, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
    println!(
        "  replayed {} rounds in {:.2} ms ({} edges, {} components)",
        meta.replayed_rounds,
        t0.elapsed().as_secs_f64() * 1e3,
        recovered.export_edges().len(),
        recovered.num_components()
    );
    assert_eq!(meta.next_round, next_round);
    // The WAL itself is the oracle: re-apply every logged round on a
    // fresh structure and compare the full labelling byte for byte.
    let readout = read_wal(&dir).unwrap().expect("the WAL survived the crash");
    let mut oracle = BatchDynamicConnectivity::new(N);
    for record in &readout.records {
        oracle.apply(&record.ops).unwrap();
    }
    assert_eq!(recovered.component_labels(), oracle.component_labels());
    assert_eq!(recovered.export_edges(), oracle.export_edges());
    println!("  recovered structure is byte-identical to the uninterrupted replay ✓");

    println!("lifetime 2: serve more traffic on the recovered state, compact at join");
    let (committed2, next_round2) = serve(&dir, &schedules(2), true);
    println!("  committed {committed2} more rounds; global round numbering reached {next_round2}");

    println!("lifetime 3: after compaction, recovery is snapshot-only");
    let (server, meta) = DurableServer::<BatchDynamicConnectivity>::open(
        &dir,
        N,
        ServerConfig::new(),
        DurableConfig::new(),
    )
    .unwrap();
    assert_eq!(meta.replayed_rounds, 0, "the snapshot carries everything");
    assert_eq!(meta.snapshot_rounds, next_round2);
    println!(
        "  snapshot covers all {} rounds, WAL replay empty ✓",
        meta.snapshot_rounds
    );
    server.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
    println!("done: crash → recover → verify → compact all hold");
}
