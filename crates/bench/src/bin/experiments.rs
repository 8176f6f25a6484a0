//! Regenerate every experiment table of EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run --release -p dyncon-bench --bin experiments [--quick] [e1 e4 ...]
//! ```
//! With no experiment arguments, all of E1–E15 run. `--quick` shrinks
//! problem sizes by 4× for a fast smoke pass.

use dyncon_bench::{
    drive_open_loop, drive_service, latency_quantile, lg_factor, median_duration, ns_per,
    print_table, replay, time, us,
};
use dyncon_core::{BatchDynamicConnectivity, Builder, DeletionAlgorithm};
use dyncon_durable::{recover, scratch_dir, FsyncPolicy, Snapshot, WalWriter};
use dyncon_ett::EulerTourForest;
use dyncon_graphgen::{
    cycle, erdos_renyi, grid2d, path, poisson_arrivals, random_tree, rmat, zipf_client_schedules,
    UpdateStream,
};
use dyncon_hdt::HdtConnectivity;
use dyncon_server::{ConnServer, ServerConfig};
use dyncon_spanning::StaticRecompute;

struct Cfg {
    scale: usize, // divide default sizes by this
}

fn build_forest(n: usize, seed: u64) -> BatchDynamicConnectivity {
    let mut g = BatchDynamicConnectivity::new(n);
    g.batch_insert(&random_tree(n, seed));
    g
}

/// E1 — Theorem 3: batch connectivity queries.
fn e1(cfg: &Cfg) {
    let n = (1 << 18) / cfg.scale;
    let g = build_forest(n, 1);
    let mut rows = Vec::new();
    for kexp in [4usize, 6, 8, 10, 12, 14, 16] {
        let k = 1 << kexp;
        let qs = UpdateStream::random_queries(n, k, 7 + kexp as u64);
        let d = median_duration(3, || time(|| g.batch_connected(&qs)).0);
        rows.push(vec![
            format!("2^{kexp}"),
            ns_per(d, k),
            format!("{:.2}", lg_factor(n, k)),
            format!("{:.1}", d.as_secs_f64() * 1e9 / k as f64 / lg_factor(n, k)),
        ]);
    }
    print_table(
        &format!("E1 (Thm 3) — batch queries, n = {n}, random spanning tree"),
        &["k", "ns/query", "lg(1+n/k)", "ns per lg-factor"],
        &rows,
    );
}

/// E2 — Theorem 4: batch insertion.
fn e2(cfg: &Cfg) {
    let n = (1 << 17) / cfg.scale;
    let edges = erdos_renyi(n, n, 2);
    let mut rows = Vec::new();
    for kexp in [6usize, 8, 10, 12, 14, 16] {
        let k = 1 << kexp;
        let d = median_duration(3, || {
            let mut g = BatchDynamicConnectivity::new(n);
            time(|| {
                for chunk in edges.chunks(k) {
                    g.batch_insert(chunk);
                }
            })
            .0
        });
        rows.push(vec![
            format!("2^{kexp}"),
            ns_per(d, edges.len()),
            format!("{:.2}", lg_factor(n, k)),
        ]);
    }
    print_table(
        &format!(
            "E2 (Thm 4) — batch insertion of m = {} edges, n = {n}",
            edges.len()
        ),
        &["batch k", "ns/edge", "lg(1+n/k)"],
        &rows,
    );
}

/// E3 — Theorems 5 vs 7: round/phase structure of the two searches.
fn e3(cfg: &Cfg) {
    let n = (1 << 12) / cfg.scale;
    let workloads: Vec<(&str, Vec<(u32, u32)>)> = vec![
        ("path", path(n)),
        ("grid", grid2d(n / 64, 64)),
        ("ER m=2n", erdos_renyi(n, 2 * n, 3)),
    ];
    let mut rows = Vec::new();
    for (name, edges) in &workloads {
        for algo in [DeletionAlgorithm::Simple, DeletionAlgorithm::Interleaved] {
            let mut g: BatchDynamicConnectivity = Builder::new(n).algorithm(algo).build().unwrap();
            g.batch_insert(edges);
            g.reset_stats();
            let stream = UpdateStream::insert_then_delete(&[], 1, 256, 4);
            drop(stream);
            let (d, _) = time(|| {
                for chunk in edges.chunks(256) {
                    g.batch_delete(chunk);
                }
            });
            let s = g.stats();
            rows.push(vec![
                name.to_string(),
                format!("{algo:?}"),
                s.levels_searched.to_string(),
                s.rounds.to_string(),
                s.phases.to_string(),
                s.max_phases_in_level.to_string(),
                us(d),
            ]);
        }
    }
    print_table(
        &format!("E3 (Thm 5 vs 7) — deletion round/phase structure, n = {n}, k = 256"),
        &[
            "workload",
            "algorithm",
            "levels",
            "rounds",
            "phases",
            "max phases/level",
            "total µs",
        ],
        &rows,
    );
}

/// E4 — Theorem 9 (headline): amortized deletion cost vs Δ.
fn e4(cfg: &Cfg) {
    let n = (1 << 14) / cfg.scale;
    let m = 2 * n;
    let edges = erdos_renyi(n, m, 5);
    let mut rows = Vec::new();
    for delta in [1usize, 4, 16, 64, 256, 1024, 4096] {
        let mut cols = vec![format!("{delta}")];
        for algo in [DeletionAlgorithm::Interleaved, DeletionAlgorithm::Simple] {
            let mut pushes = 0u64;
            let d = median_duration(3, || {
                let mut g: BatchDynamicConnectivity =
                    Builder::new(n).algorithm(algo).build().unwrap();
                g.batch_insert(&edges);
                g.reset_stats();
                let stream = UpdateStream::insert_then_delete(&edges, m, delta, 6)
                    .batches
                    .into_iter()
                    .filter(|b| matches!(b, dyncon_graphgen::Batch::Delete(_)))
                    .collect::<Vec<_>>();
                let (d, _) = time(|| {
                    for b in &stream {
                        if let dyncon_graphgen::Batch::Delete(v) = b {
                            g.batch_delete(v);
                        }
                    }
                });
                pushes = g.stats().total_pushes();
                d
            });
            cols.push(ns_per(d, m));
            if algo == DeletionAlgorithm::Interleaved {
                cols.push(pushes.to_string());
            }
        }
        cols.push(format!("{:.2}", lg_factor(n, delta)));
        rows.push(cols);
    }
    print_table(
        &format!("E4 (Thm 9) — deletion cost vs Δ, n = {n}, {m} deletions total"),
        &[
            "Δ",
            "Interleaved ns/edge",
            "pushes",
            "Simple ns/edge",
            "lg(1+n/Δ)",
        ],
        &rows,
    );
}

/// E5 — work-efficiency vs sequential HDT (Thm 6 / Thm 9).
fn e5(cfg: &Cfg) {
    let n = (1 << 13) / cfg.scale;
    let m = 2 * n;
    let edges = erdos_renyi(n, m, 8);
    let mut rows = Vec::new();
    // Sequential HDT: one op at a time, batch size irrelevant.
    let hdt_time = {
        let stream = UpdateStream::insert_then_delete(&edges, m, 1, 9);
        let mut h = HdtConnectivity::new(n);
        replay(&mut h, &stream)
    };
    for kexp in [0usize, 4, 8, 12] {
        let k = 1 << kexp;
        let stream = UpdateStream::insert_then_delete(&edges, k.max(64), k, 9);
        let mut g = BatchDynamicConnectivity::new(n);
        let d = replay(&mut g, &stream);
        rows.push(vec![
            format!("2^{kexp}"),
            ns_per(d, 2 * m),
            ns_per(hdt_time, 2 * m),
            format!("{:.2}×", hdt_time.as_secs_f64() / d.as_secs_f64()),
        ]);
    }
    print_table(
        &format!("E5 — batch-dynamic (Interleaved) vs sequential HDT, n = {n}, m = {m} (insert+delete all)"),
        &["batch k", "batch ns/op", "HDT ns/op", "speedup vs HDT"],
        &rows,
    );
}

/// E6 — vs the O(m+n) static-recompute baseline. The baseline pays a full
/// relabel per (batch + query) round, so it needs a graph large enough for
/// that to cost something: m = 16n.
fn e6(cfg: &Cfg) {
    let n = (1 << 16) / cfg.scale;
    let m = 16 * n;
    let base = erdos_renyi(n, m, 10);
    let mut rows = Vec::new();
    for kexp in [4usize, 8, 12] {
        let k = 1 << kexp;
        // Churn workload: delete k, insert k fresh, query 64, repeated.
        let base_set: std::collections::HashSet<(u32, u32)> = base.iter().copied().collect();
        let fresh = erdos_renyi(n, m + 8 * k, 11);
        let fresh: Vec<(u32, u32)> = fresh
            .into_iter()
            .filter(|e| !base_set.contains(e))
            .take(4 * k)
            .collect();
        let queries = UpdateStream::random_queries(n, 64, 12);

        let mut g = BatchDynamicConnectivity::new(n);
        g.batch_insert(&base);
        let (d_dyn, _) = time(|| {
            for round in 0..4 {
                g.batch_delete(&base[round * k..(round + 1) * k]);
                g.batch_insert(&fresh[round * k..(round + 1) * k]);
                g.batch_connected(&queries);
            }
        });

        let mut s = StaticRecompute::new(n);
        s.batch_insert(&base);
        let (d_static, _) = time(|| {
            for round in 0..4 {
                s.batch_delete(&base[round * k..(round + 1) * k]);
                s.batch_insert(&fresh[round * k..(round + 1) * k]);
                s.batch_connected(&queries);
            }
        });
        rows.push(vec![
            format!("2^{kexp}"),
            us(d_dyn / 4),
            us(d_static / 4),
            format!("{:.2}×", d_static.as_secs_f64() / d_dyn.as_secs_f64()),
        ]);
    }
    print_table(
        &format!("E6 — per-batch latency vs static recompute, n = {n}, m = {m} (delete k + insert k + 64 queries)"),
        &["k", "dynamic µs/batch", "static µs/batch", "dynamic advantage"],
        &rows,
    );
}

/// E7 — self-relative parallel speedup across the `DYNCON_THREADS` matrix
/// (comma-separated list, default `1,2`; speedups are relative to the
/// first entry).
fn e7(cfg: &Cfg) {
    let n = (1 << 16) / cfg.scale;
    let edges = erdos_renyi(n, 2 * n, 13);
    let run = |threads: usize| -> (
        std::time::Duration,
        std::time::Duration,
        std::time::Duration,
    ) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut g = BatchDynamicConnectivity::new(n);
            let (ti, _) = time(|| {
                for chunk in edges.chunks(1 << 14) {
                    g.batch_insert(chunk);
                }
            });
            let qs = UpdateStream::random_queries(n, 1 << 15, 14);
            let (tq, _) = time(|| {
                g.batch_connected(&qs);
            });
            let (td, _) = time(|| {
                for chunk in edges.chunks(1 << 13) {
                    g.batch_delete(chunk);
                }
            });
            (ti, tq, td)
        })
    };
    let counts = dyncon_bench::thread_counts();
    let results: Vec<(usize, _)> = counts.iter().map(|&t| (t, run(t))).collect();
    let (_, (i1, q1, d1)) = results[0];
    let mut rows = Vec::new();
    for &(t, (ti, tq, td)) in &results {
        rows.push(vec![
            t.to_string(),
            us(ti),
            format!("{:.2}×", i1.as_secs_f64() / ti.as_secs_f64()),
            us(tq),
            format!("{:.2}×", q1.as_secs_f64() / tq.as_secs_f64()),
            us(td),
            format!("{:.2}×", d1.as_secs_f64() / td.as_secs_f64()),
        ]);
    }
    print_table(
        &format!(
            "E7 — thread scaling, n = {n}, m = {}, insert k=2^14 / query k=2^15 / delete k=2^13 (speedup vs {} thread{})",
            edges.len(),
            counts[0],
            if counts[0] == 1 { "" } else { "s" }
        ),
        &[
            "threads",
            "insert µs",
            "speedup",
            "query µs",
            "speedup",
            "delete µs",
            "speedup",
        ],
        &rows,
    );
}

/// E8 — Theorem 2 substrate: raw batch-parallel ETT operations.
fn e8(cfg: &Cfg) {
    let n = (1 << 17) / cfg.scale;
    let tree = random_tree(n, 15);
    let mut rows = Vec::new();
    for kexp in [4usize, 8, 12, 16] {
        let k = (1usize << kexp).min(n / 2);
        let mut f = EulerTourForest::new(n, 16);
        let flags = vec![true; tree.len()];
        f.batch_link(&tree, &flags);
        // Cut k random tree edges, then relink them.
        let mut victims: Vec<(u32, u32)> = tree
            .iter()
            .copied()
            .step_by(tree.len() / k)
            .take(k)
            .collect();
        victims.dedup();
        let (d_cut, _) = time(|| f.batch_cut(&victims));
        let vflags = vec![true; victims.len()];
        let (d_link, _) = time(|| f.batch_link(&victims, &vflags));
        let qs = UpdateStream::random_queries(n, k, 17);
        let (d_conn, _) = time(|| f.batch_connected(&qs));
        rows.push(vec![
            format!("2^{kexp}"),
            ns_per(d_link, victims.len()),
            ns_per(d_cut, victims.len()),
            ns_per(d_conn, k),
            format!("{:.2}", lg_factor(n, k)),
        ]);
    }
    print_table(
        &format!("E8 (Thm 2) — batch-parallel ETT primitives, n = {n}"),
        &[
            "k",
            "link ns/op",
            "cut ns/op",
            "connected ns/op",
            "lg(1+n/k)",
        ],
        &rows,
    );
}

/// E9 — ablation: doubling search vs scan-all (§3.3).
fn e9(cfg: &Cfg) {
    let n = (1 << 11) / cfg.scale.min(2);
    // Cycle plus many chords: deleting one cycle edge finds a replacement
    // among the first few candidates; scanning everything is wasteful.
    let mut edges = cycle(n);
    for i in 0..(n as u32 - 2) {
        edges.push((i, i + 2));
    }
    let mut rows = Vec::new();
    for scan_all in [false, true] {
        let mut g: BatchDynamicConnectivity = Builder::new(n)
            .algorithm(DeletionAlgorithm::Simple)
            .scan_all(scan_all)
            .build()
            .unwrap();
        g.batch_insert(&edges);
        g.reset_stats();
        let victims: Vec<(u32, u32)> = (0..n as u32 - 1).step_by(8).map(|i| (i, i + 1)).collect();
        let (d, _) = time(|| {
            for &e in &victims {
                g.batch_delete(&[e]);
            }
        });
        let s = g.stats();
        rows.push(vec![
            if scan_all {
                "scan-all".into()
            } else {
                "doubling".into()
            },
            s.edges_examined.to_string(),
            s.nontree_pushes.to_string(),
            s.replacements.to_string(),
            us(d),
        ]);
    }
    print_table(
        &format!("E9 — doubling ablation, cycle+chords, n = {n}, single-edge deletions"),
        &[
            "search",
            "edges examined",
            "pushes",
            "replacements",
            "total µs",
        ],
        &rows,
    );
}

/// E10 — end-to-end sliding-window ingestion on an R-MAT stream.
fn e10(cfg: &Cfg) {
    let n = (1 << 14) / cfg.scale;
    let mut rows = Vec::new();
    for (name, batch) in [("k=256", 256usize), ("k=1024", 1024), ("k=4096", 4096)] {
        let stream = UpdateStream::sliding_window(n, 24, batch, 8, 512, 18);
        let ops = stream.total_ops();
        let mut g = BatchDynamicConnectivity::new(n);
        let d = replay(&mut g, &stream);
        let (_, delta) = stream.deletion_delta();
        rows.push(vec![
            name.into(),
            ops.to_string(),
            format!("{:.0}", delta),
            format!("{:.0}", ops as f64 / d.as_secs_f64() / 1000.0),
            us(d),
        ]);
    }
    print_table(
        &format!("E10 — sliding-window R-MAT-style ingestion, n = {n}, window = 8 batches"),
        &["batch", "total ops", "Δ", "kops/s", "total µs"],
        &rows,
    );
    // R-MAT specifically exercises skewed degrees; verify it ingests too.
    let edges = rmat(n, 2 * n, 19);
    let mut g = BatchDynamicConnectivity::new(n);
    let (d, _) = time(|| {
        for chunk in edges.chunks(1024) {
            g.batch_insert(chunk);
        }
        for chunk in edges.chunks(1024) {
            g.batch_delete(chunk);
        }
    });
    println!(
        "\nR-MAT churn: {} edges inserted+deleted in {} µs ({} components at end)",
        edges.len(),
        us(d),
        g.num_components()
    );
}

/// E11 — the serving layer: group-commit throughput/latency vs client
/// count × batch cap (closed-loop Zipf clients, read ratio 0.5).
fn e11(cfg: &Cfg) {
    let n = (1 << 14) / cfg.scale;
    let requests = 24 / cfg.scale.clamp(1, 4);
    let ops_per_request = 64;
    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        for cap in [256usize, 1024, 4096] {
            let schedules =
                zipf_client_schedules(n, clients, requests, ops_per_request, 0.5, 1.1, 42);
            let total_ops = clients * requests * ops_per_request;
            let server = ConnServer::start(
                BatchDynamicConnectivity::new(n),
                ServerConfig::new()
                    .batch_cap(cap)
                    .coalesce_wait(std::time::Duration::from_micros(50))
                    .queue_capacity(2 * clients),
            );
            let (wall, lats) = drive_service(&server, &schedules);
            let report = server.join();
            rows.push(vec![
                clients.to_string(),
                cap.to_string(),
                report.rounds_committed.to_string(),
                format!(
                    "{:.0}",
                    report.ops_committed as f64 / report.rounds_committed.max(1) as f64
                ),
                format!("{:.0}", total_ops as f64 / wall.as_secs_f64() / 1000.0),
                us(latency_quantile(&lats, 0.5)),
                us(latency_quantile(&lats, 0.99)),
            ]);
        }
    }
    print_table(
        &format!(
            "E11 — group-commit service, n = {n}, {requests} req/client × {ops_per_request} ops, Zipf s=1.1, 50% reads"
        ),
        &[
            "clients",
            "batch cap",
            "rounds",
            "ops/round",
            "kops/s",
            "p50 µs",
            "p99 µs",
        ],
        &rows,
    );
}

/// E12 — durability: WAL append cost per fsync policy and recovery time
/// vs log length (the curve that motivates compaction).
fn e12(cfg: &Cfg) {
    let n = (1 << 13) / cfg.scale;
    let ops_per_round = 128;
    let mut rows = Vec::new();
    let mut lens = vec![16usize, 64, 256 / cfg.scale.max(1)];
    lens.sort_unstable();
    lens.dedup(); // --quick shrinks 256 onto 64; don't run it twice
    for log_rounds in lens {
        let rounds = zipf_client_schedules(n, 1, log_rounds, ops_per_round, 0.3, 1.1, 12).remove(0);
        let total_ops = log_rounds * ops_per_round;
        for (policy_name, policy) in [
            ("never", FsyncPolicy::Never),
            ("every_8", FsyncPolicy::EveryNRounds(8)),
            ("every_round", FsyncPolicy::EveryRound),
        ] {
            let dir = scratch_dir("e12");
            std::fs::create_dir_all(&dir).unwrap();
            Snapshot {
                num_vertices: n,
                next_round: 0,
                edges: Vec::new(),
            }
            .write_atomic(&dir)
            .unwrap();
            let mut wal = WalWriter::open(&dir, policy, 0).unwrap();
            let (append, _) = time(|| {
                for ops in &rounds {
                    wal.append_round(ops).unwrap();
                }
            });
            wal.sync().unwrap();
            drop(wal);
            let (rec, _) = time(|| {
                let (g, meta) = recover::<BatchDynamicConnectivity>(&dir).unwrap();
                assert_eq!(meta.replayed_rounds, log_rounds as u64);
                std::hint::black_box(g);
            });
            let _ = std::fs::remove_dir_all(&dir);
            rows.push(vec![
                log_rounds.to_string(),
                policy_name.to_string(),
                ns_per(append, total_ops),
                format!("{:.2}", append.as_secs_f64() * 1e3),
                format!("{:.2}", rec.as_secs_f64() * 1e3),
            ]);
        }
    }
    print_table(
        &format!("E12 — durability, n = {n}, {ops_per_round} ops/round (30% reads, Zipf s=1.1)"),
        &[
            "log rounds",
            "fsync",
            "append ns/op",
            "append ms",
            "recovery ms",
        ],
        &rows,
    );
}

/// E13 — latency under open-loop load: Poisson arrivals at a swept
/// offered rate through the group-commit frontend. Unlike E11's
/// closed-loop clients (whose offered rate collapses to whatever the
/// server sustains), the open-loop driver keeps submitting on schedule,
/// measures latency from the *intended* arrival (no coordinated
/// omission), sheds backpressure rejects, and reads the server's own
/// queue-depth gauge from the metrics snapshot.
fn e13(cfg: &Cfg) {
    let n = (1 << 14) / cfg.scale;
    let clients = 4usize;
    let requests = (64 / cfg.scale.clamp(1, 4)).max(8);
    let ops_per_request = 64;
    let mut rows = Vec::new();
    for mean_gap_us in [400u64, 100, 25] {
        let schedules = zipf_client_schedules(n, clients, requests, ops_per_request, 0.5, 1.1, 42);
        let arrivals: Vec<Vec<u64>> = (0..clients)
            .map(|c| poisson_arrivals(requests, mean_gap_us * 1_000, 0xE13 + c as u64))
            .collect();
        let server = ConnServer::start(
            BatchDynamicConnectivity::new(n),
            ServerConfig::new()
                .batch_cap(4096)
                .coalesce_wait(std::time::Duration::from_micros(50))
                .queue_capacity(2 * clients),
        );
        let load = drive_open_loop(&server, &schedules, &arrivals);
        let report = server.join();
        let queue_max = report
            .metrics
            .get("dyncon_server_queue_depth")
            .and_then(|m| m.value.as_gauge())
            .map(|(_, max)| max)
            .unwrap_or(0);
        let offered_kops =
            clients as f64 * ops_per_request as f64 / (mean_gap_us as f64 * 1e-6) / 1000.0;
        let achieved_kops = report.ops_committed as f64 / load.wall.as_secs_f64() / 1000.0;
        rows.push(vec![
            mean_gap_us.to_string(),
            format!("{offered_kops:.0}"),
            format!("{achieved_kops:.0}"),
            us(latency_quantile(&load.latencies, 0.5)),
            us(latency_quantile(&load.latencies, 0.99)),
            us(latency_quantile(&load.latencies, 0.999)),
            queue_max.to_string(),
            load.rejected.to_string(),
        ]);
    }
    print_table(
        &format!(
            "E13 — open-loop latency under load, n = {n}, {clients} clients × {requests} req × {ops_per_request} ops, Poisson arrivals"
        ),
        &[
            "mean gap µs",
            "offered kops/s",
            "achieved kops/s",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "queue max",
            "rejected",
        ],
        &rows,
    );
}

/// E14 — sharded serving: closed-loop throughput vs shard count ×
/// worker thread count, plus the coordinator's own counters (sub-rounds
/// sealed, boundary rebuilds, contracted edges) from the pooled
/// registry. 1 shard is the degenerate baseline: all of the
/// coordination overhead, none of the parallelism.
fn e14(cfg: &Cfg) {
    use dyncon_shard::{ShardConfig, ShardMapKind, ShardedServer};
    let n = (1 << 13) / cfg.scale;
    let clients = 4usize;
    let requests = (16 / cfg.scale.clamp(1, 4)).max(4);
    let ops_per_request = 48;
    let mut rows = Vec::new();
    for threads in dyncon_bench::thread_counts() {
        for shards in dyncon_bench::shard_counts() {
            let schedules =
                zipf_client_schedules(n, clients, requests, ops_per_request, 0.5, 1.1, 42);
            let total_ops = clients * requests * ops_per_request;
            let server: ShardedServer<BatchDynamicConnectivity> = ShardedServer::start(
                n,
                ShardConfig::new()
                    .shards(shards)
                    .kind(ShardMapKind::Hash)
                    .server(
                        ServerConfig::new()
                            .batch_cap(4096)
                            .coalesce_wait(std::time::Duration::from_micros(50))
                            .queue_capacity(2 * clients)
                            .worker_threads(threads),
                    ),
            )
            .expect("sharded server starts");
            let (wall, lats) = drive_service(&server, &schedules);
            let report = server.join().expect("sharded server joins");
            let counter = |name: &str| {
                report
                    .metrics
                    .get(name)
                    .and_then(|m| m.value.as_counter())
                    .unwrap_or(0)
            };
            let boundary_edges = report
                .metrics
                .get("dyncon_shard_boundary_ops")
                .and_then(|m| m.value.as_histogram())
                .map(|h| h.sum)
                .unwrap_or(0);
            rows.push(vec![
                threads.to_string(),
                shards.to_string(),
                report.rounds_committed.to_string(),
                counter("dyncon_shard_subrounds_total").to_string(),
                counter("dyncon_shard_boundary_rebuilds_total").to_string(),
                boundary_edges.to_string(),
                format!("{:.0}", total_ops as f64 / wall.as_secs_f64() / 1000.0),
                us(latency_quantile(&lats, 0.5)),
            ]);
        }
    }
    print_table(
        &format!(
            "E14 — sharded service, n = {n}, {clients} clients × {requests} req × {ops_per_request} ops, Zipf s=1.1, hash partition"
        ),
        &[
            "threads",
            "shards",
            "rounds",
            "sub-rounds",
            "rebuilds",
            "boundary edges",
            "kops/s",
            "p50 µs",
        ],
        &rows,
    );
}

/// E15 — versioned reads: writer throughput with 0 / 4 / 16 concurrent
/// snapshot readers. Readers poll `read_view()` and answer connectivity
/// queries against the returned snapshot, paced at one read per 200 µs
/// each (hot-spinning would measure CPU steal, not interference). The
/// acceptance claim: the 16-reader cell stays within the bench_diff
/// tolerance band (2×) of the 0-reader baseline, because readers share
/// an `Arc` of the published label snapshot and never touch the
/// admission queue.
fn e15(cfg: &Cfg) {
    use dyncon_api::Connectivity;
    use dyncon_server::VersionedRead;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let n = (1 << 13) / cfg.scale;
    let clients = 4usize;
    let requests = (16 / cfg.scale.clamp(1, 4)).max(4);
    let ops_per_request = 64;
    let mut rows = Vec::new();
    for threads in dyncon_bench::thread_counts() {
        let mut baseline: Option<f64> = None;
        for readers in [0usize, 4, 16] {
            let schedules =
                zipf_client_schedules(n, clients, requests, ops_per_request, 0.5, 1.1, 42);
            let total_ops = clients * requests * ops_per_request;
            let server = ConnServer::start_versioned(
                BatchDynamicConnectivity::new(n),
                ServerConfig::new()
                    .batch_cap(4096)
                    .coalesce_wait(std::time::Duration::from_micros(50))
                    .queue_capacity(2 * clients)
                    .worker_threads(threads)
                    .retain_views(8),
            );
            let stop = AtomicBool::new(false);
            let reads = AtomicU64::new(0);
            let wall = std::thread::scope(|scope| {
                for r in 0..readers {
                    let (server, stop, reads) = (&server, &stop, &reads);
                    scope.spawn(move || {
                        let mut probe = r as u32;
                        while !stop.load(Ordering::Relaxed) {
                            if let Ok(view) = server.read_view() {
                                probe = probe.wrapping_add(1) % n as u32;
                                std::hint::black_box(view.connected(probe, (probe + 7) % n as u32));
                                reads.fetch_add(1, Ordering::Relaxed);
                            }
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                    });
                }
                let (wall, _lats) = drive_service(&server, &schedules);
                stop.store(true, Ordering::Relaxed);
                wall
            });
            let report = server.join();
            let kops = total_ops as f64 / wall.as_secs_f64() / 1000.0;
            let ratio = baseline.map(|b| kops / b).unwrap_or(1.0);
            if readers == 0 {
                baseline = Some(kops);
            }
            let retained = report
                .metrics
                .get("dyncon_server_snapshot_retained")
                .and_then(|m| m.value.as_gauge())
                .map(|(v, _)| v)
                .unwrap_or(0);
            rows.push(vec![
                threads.to_string(),
                readers.to_string(),
                report.rounds_committed.to_string(),
                format!("{:.0}", kops),
                format!("{:.2}x", ratio),
                reads.load(Ordering::Relaxed).to_string(),
                retained.to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "E15 — versioned reads, n = {n}, {clients} clients × {requests} req × {ops_per_request} ops, readers paced at 200 µs"
        ),
        &[
            "threads",
            "readers",
            "rounds",
            "writer kops/s",
            "vs 0 readers",
            "snapshot reads",
            "views retained",
        ],
        &rows,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = Cfg {
        scale: if quick { 4 } else { 1 },
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let all = wanted.is_empty();
    let run = |name: &str| all || wanted.contains(&name);

    println!("# dyncon experiment tables (quick = {quick})");
    if run("e1") {
        e1(&cfg);
    }
    if run("e2") {
        e2(&cfg);
    }
    if run("e3") {
        e3(&cfg);
    }
    if run("e4") {
        e4(&cfg);
    }
    if run("e5") {
        e5(&cfg);
    }
    if run("e6") {
        e6(&cfg);
    }
    if run("e7") {
        e7(&cfg);
    }
    if run("e8") {
        e8(&cfg);
    }
    if run("e9") {
        e9(&cfg);
    }
    if run("e10") {
        e10(&cfg);
    }
    if run("e11") {
        e11(&cfg);
    }
    if run("e12") {
        e12(&cfg);
    }
    if run("e13") {
        e13(&cfg);
    }
    if run("e14") {
        e14(&cfg);
    }
    if run("e15") {
        e15(&cfg);
    }
}
