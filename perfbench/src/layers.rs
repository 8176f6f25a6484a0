//! Per-layer measurements, all taken from outside the crates: timed calls
//! into each layer's public functions, and reads of the `Stats`,
//! `Registry` and `TraceRecorder` the layers already keep.

use crate::measure::{median, tail_quantile};
use crate::metrics::Outcome;
use crate::spans::SpanLog;
use dyncon_core::Stats;
use dyncon_ett::EulerTourForest;
use dyncon_graphgen::UpdateStream;
use dyncon_metrics::MetricsSnapshot;
use dyncon_primitives::{semisort_pairs, SplitMix64};
use dyncon_server::RoundRecord;
use dyncon_trace::{Span, Stage, TraceRecorder};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Edges per `batch_link` / `batch_cut` call of the ETT probe.
const ETT_BATCH: usize = 4096;

/// Pairs in the semisort probe.
const SEMISORT_PAIRS: usize = 1 << 16;

/// Items in the rayon dispatch probe: enough that the vendored pool
/// splits them across two threads (it runs fewer than 1024 per thread
/// inline), and no work per item, so the time is the fork-join cost.
const DISPATCH_ITEMS: usize = 2048;

/// Time the standalone layer probes on the workload's base graph: rayon
/// dispatch, the spanning forest, an Euler tour forest holding that
/// spanning forest (link, query, cut), and the semisort. Runs inside the
/// caller's thread pool.
pub fn probe_layers(out: &mut Outcome, n: usize, edges: &[(u32, u32)], seed: u64, spans: &SpanLog) {
    let dispatch: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            (0..DISPATCH_ITEMS).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("rayon.dispatch_us", median(&dispatch));

    let mut forest = Vec::new();
    let forest_ns: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let (chosen, _) = spans.time("deterministic_forest_dense", 0, || {
                dyncon_spanning::deterministic_forest_dense(n, edges)
            });
            let ns = t.elapsed().as_secs_f64() * 1e9 / edges.len().max(1) as f64;
            forest = edges
                .iter()
                .zip(&chosen)
                .filter(|(_, &c)| c)
                .map(|(&e, _)| e)
                .collect();
            ns
        })
        .collect();
    out.set("spanning.forest_ns_per_edge", median(&forest_ns));

    let mut ett = EulerTourForest::new(n, seed);
    let t = Instant::now();
    for chunk in forest.chunks(ETT_BATCH) {
        spans.time("ett.batch_link", 0, || {
            ett.batch_link(chunk, &vec![true; chunk.len()])
        });
    }
    let link = t.elapsed();
    let pairs = UpdateStream::random_queries(n, 16384, seed ^ 0xE77);
    let t = Instant::now();
    std::hint::black_box(spans.time("ett.batch_connected", 0, || ett.batch_connected(&pairs)));
    let connected = t.elapsed();
    let t = Instant::now();
    for chunk in forest.chunks(ETT_BATCH) {
        spans.time("ett.batch_cut", 0, || ett.batch_cut(chunk));
    }
    let cut = t.elapsed();
    let per = |d: Duration, k: usize, unit: f64| d.as_secs_f64() * unit / k.max(1) as f64;
    out.set("ett.link_us_per_edge", per(link, forest.len(), 1e6));
    out.set("ett.cut_us_per_edge", per(cut, forest.len(), 1e6));
    out.set(
        "ett.connected_ns_per_pair",
        per(connected, pairs.len(), 1e9),
    );

    let mut rng = SplitMix64::new(seed ^ 0x5E);
    let input: Vec<(u32, u32)> = (0..SEMISORT_PAIRS as u32)
        .map(|i| (rng.next_below(1 << 14) as u32, i))
        .collect();
    let semisort_ns: Vec<f64> = (0..5)
        .map(|_| {
            let mut pairs = input.clone();
            let t = Instant::now();
            std::hint::black_box(spans.time("semisort_pairs", 0, || semisort_pairs(&mut pairs)));
            t.elapsed().as_secs_f64() * 1e9 / SEMISORT_PAIRS as f64
        })
        .collect();
    out.set("primitives.semisort_ns_per_pair", median(&semisort_ns));
}

/// The deletion-search counters that changed between two `Stats`
/// snapshots. `max_phases_in_level` is a high-water mark, so it is taken
/// from `after` as is.
pub fn set_core_counts(out: &mut Outcome, before: &Stats, after: &Stats) {
    let d = |f: fn(&Stats) -> u64| (f(after) - f(before)) as f64;
    out.set("core.levels_searched", d(|s| s.levels_searched));
    out.set("core.search_rounds", d(|s| s.rounds));
    out.set("core.search_phases", d(|s| s.phases));
    out.set("core.max_phases_in_level", after.max_phases_in_level as f64);
    out.set("core.edges_examined", d(|s| s.edges_examined));
    out.set("core.replacements", d(|s| s.replacements));
    out.set("core.tree_pushes", d(|s| s.tree_pushes));
    out.set("core.nontree_pushes", d(|s| s.nontree_pushes));
    let examined = d(|s| s.edges_examined);
    out.set(
        "core.replacement_yield",
        if examined > 0.0 {
            d(|s| s.replacements) / examined
        } else {
            0.0
        },
    );
}

/// Field-wise sum of several structures' counters (a sharded service's
/// shards plus its cross-edge store).
pub fn sum_stats<'a>(all: impl IntoIterator<Item = &'a Stats>) -> Stats {
    let mut sum = Stats::default();
    for s in all {
        sum.levels_searched += s.levels_searched;
        sum.rounds += s.rounds;
        sum.phases += s.phases;
        sum.max_phases_in_level = sum.max_phases_in_level.max(s.max_phases_in_level);
        sum.edges_examined += s.edges_examined;
        sum.replacements += s.replacements;
        sum.tree_pushes += s.tree_pushes;
        sum.nontree_pushes += s.nontree_pushes;
    }
    sum
}

/// Per-layer metrics of a server the workload does not run: all 0.
pub fn set_unreached(out: &mut Outcome, prefixes: &[&str]) {
    for &(name, _) in crate::metrics::PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            out.set(name, 0.0);
        }
    }
}

fn counter(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta
        .get(name)
        .and_then(|m| m.value.as_counter())
        .unwrap_or(0) as f64
}

fn histogram_sum(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta
        .get(name)
        .and_then(|m| m.value.as_histogram())
        .map_or(0.0, |h| h.sum as f64)
}

/// The serving, durability and sharding counters read from a server's
/// registry; `delta` covers the measured phase.
pub fn set_registry_metrics(out: &mut Outcome, delta: &MetricsSnapshot) {
    out.set(
        "server.queue_depth_max",
        delta
            .get("dyncon_server_queue_depth")
            .and_then(|m| m.value.as_gauge())
            .map_or(0, |(_, max)| max) as f64,
    );
    out.set(
        "server.backpressure_rejects",
        counter(delta, "dyncon_server_backpressure_rejects_total"),
    );
    out.set(
        "server.read_view_age_rounds_p50",
        delta
            .get("dyncon_server_read_view_age_rounds")
            .and_then(|m| m.value.as_histogram())
            .and_then(|h| h.quantile(0.5))
            .unwrap_or(0) as f64,
    );
    let ops = counter(delta, "dyncon_server_ops_committed_total");
    out.set(
        "durable.wal_bytes_per_op",
        if ops > 0.0 {
            counter(delta, "dyncon_wal_append_bytes_total") / ops
        } else {
            0.0
        },
    );
    let rebuilds = counter(delta, "dyncon_shard_boundary_rebuilds_total");
    out.set("shard.boundary_rebuilds", rebuilds);
    let boundary_ops = histogram_sum(delta, "dyncon_shard_boundary_ops");
    out.set(
        "shard.boundary_ops_per_rebuild",
        if rebuilds > 0.0 {
            boundary_ops / rebuilds
        } else {
            0.0
        },
    );
    out.set(
        "shard.cross_queries",
        histogram_sum(delta, "dyncon_shard_cross_queries"),
    );
}

/// Round count, size and segment metrics from the measured rounds of a
/// round log.
pub fn set_round_shape(out: &mut Outcome, rounds: &[RoundRecord]) {
    out.set("server.rounds", rounds.len() as f64);
    if rounds.is_empty() {
        out.set("server.round_ops_p50", 0.0);
        out.set("server.segments_per_round", 0.0);
        return;
    }
    let sizes: Vec<f64> = rounds.iter().map(|r| r.ops.len() as f64).collect();
    let segments: usize = rounds
        .iter()
        .map(|r| {
            r.ops
                .windows(2)
                .filter(|w| w[0].kind() != w[1].kind())
                .count()
                + usize::from(!r.ops.is_empty())
        })
        .sum();
    out.set("server.round_ops_p50", median(&sizes));
    out.set(
        "server.segments_per_round",
        segments as f64 / rounds.len() as f64,
    );
}

/// A recorder that keeps every span and every round's breakdown of a
/// run: the ring and the slow-round log are sized past what a run
/// records, and every round counts as slow.
pub fn full_recorder() -> TraceRecorder {
    TraceRecorder::with_config(
        dyncon_trace::TraceConfig::new()
            .capacity(1 << 18)
            .slow_round_threshold(Duration::ZERO)
            .slow_log_capacity(1 << 17),
    )
}

/// The stages whose share of round life a traced run reports.
const FRACS: [(Stage, &str); 11] = [
    (Stage::CoalesceWait, "trace.coalesce_wait_frac"),
    (Stage::WalAppend, "trace.wal_append_frac"),
    (Stage::WalFsync, "trace.wal_fsync_frac"),
    (Stage::Apply, "trace.apply_frac"),
    (Stage::Publish, "trace.publish_frac"),
    (Stage::Fill, "trace.fill_frac"),
    (Stage::Decompose, "trace.decompose_frac"),
    (Stage::ShardRound, "trace.shard_round_frac"),
    (Stage::CrossRound, "trace.cross_round_frac"),
    (Stage::BoundaryRebuild, "trace.boundary_rebuild_frac"),
    (Stage::CrossQuery, "trace.cross_query_frac"),
];

/// Summed duration of `stage`'s spans.
fn total_ns(spans: &[Span], stage: Stage) -> u64 {
    spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.dur_ns)
        .sum()
}

/// Length of the union of the intervals of spans of `stages`.
fn covered_ns(spans: &[Span], stages: &[Stage]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| stages.contains(&s.stage))
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    covered + open.map_or(0, |(s, e)| e - s)
}

/// A stage's self time within one round: its spans minus the time spans
/// nested inside them cover. The coordinator stages run inside `apply`,
/// the boundary rebuild inside `cross_query`, the fsync inside
/// `wal_append`. Parallel sub-rounds count once per stage (the union of
/// their intervals).
fn self_ns(spans: &[Span], stage: Stage) -> u64 {
    let total = total_ns(spans, stage);
    match stage {
        Stage::Apply => total.saturating_sub(covered_ns(
            spans,
            &[
                Stage::Decompose,
                Stage::ShardRound,
                Stage::CrossRound,
                Stage::CrossQuery,
            ],
        )),
        Stage::WalAppend => total.saturating_sub(total_ns(spans, Stage::WalFsync)),
        Stage::CrossQuery => total.saturating_sub(total_ns(spans, Stage::BoundaryRebuild)),
        Stage::ShardRound | Stage::CrossRound => covered_ns(spans, &[stage]),
        _ => total,
    }
}

/// Stage metrics of the rounds numbered `first_round` and later (the
/// measured phase, `wall` long), from the recorder's spans and round
/// breakdowns.
///
/// `trace.<stage>_frac` is the stage's self time over the rounds' total
/// life, where a round's life runs from its oldest request's admission
/// (the coalesce wait) to its last ticket fill. The shard and
/// cross-store sub-rounds overlap each other, so their two shares can
/// sum past the time they cover together.
pub fn set_trace_metrics(
    out: &mut Outcome,
    recorder: &TraceRecorder,
    first_round: u64,
    wall: Duration,
) -> Result<(), String> {
    if recorder.recorded() > recorder.capacity() as u64 {
        return Err(format!(
            "the trace ring kept {} of {} spans",
            recorder.capacity(),
            recorder.recorded()
        ));
    }
    let mut by_round: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    let mut reads = Vec::new();
    for span in recorder.spans() {
        match span.stage {
            // Reader spans carry a version, not a round.
            Stage::ReadExec => reads.push(span.dur_ns as f64 / 1e3),
            Stage::ViewResolve => {}
            _ if span.round >= first_round => by_round.entry(span.round).or_default().push(span),
            _ => {}
        }
    }
    let life: u64 = recorder
        .slow_round_log()
        .rounds
        .iter()
        .filter(|r| r.round >= first_round)
        .map(|r| {
            r.wall_ns
                + by_round
                    .get(&r.round)
                    .map_or(0, |s| total_ns(s, Stage::CoalesceWait))
        })
        .sum();
    for (stage, metric) in FRACS {
        let stage_ns: u64 = by_round.values().map(|s| self_ns(s, stage)).sum();
        out.set(
            metric,
            if life > 0 {
                stage_ns as f64 / life as f64
            } else {
                0.0
            },
        );
    }
    let per_round = |stage: Stage, unit_ns: f64| -> Vec<f64> {
        by_round
            .values()
            .map(|s| total_ns(s, stage))
            .filter(|&ns| ns > 0)
            .map(|ns| ns as f64 / unit_ns)
            .collect()
    };
    let p50 = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    let apply = per_round(Stage::Apply, 1e3);
    out.set("server.apply_us_p50", p50(&apply));
    out.set(
        "server.apply_us_p90",
        if apply.is_empty() {
            0.0
        } else {
            tail_quantile(&apply, 0.9)?
        },
    );
    let busy = |stage: Stage| {
        let ns: u64 = by_round.values().map(|s| total_ns(s, stage)).sum();
        ns as f64 / wall.as_nanos().max(1) as f64
    };
    out.set("server.apply_busy_frac", busy(Stage::Apply));
    out.set("server.publish_frac", busy(Stage::Publish));
    out.set(
        "server.coalesce_wait_us_p50",
        p50(&per_round(Stage::CoalesceWait, 1e3)),
    );
    out.set(
        "server.publish_ms_p50",
        p50(&per_round(Stage::Publish, 1e6)),
    );
    out.set(
        "durable.wal_append_us_p50",
        p50(&per_round(Stage::WalAppend, 1e3)),
    );
    out.set(
        "shard.decompose_us_p50",
        p50(&per_round(Stage::Decompose, 1e3)),
    );
    out.set("trace.read_exec_us_p50", p50(&reads));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            round: 0,
            stage,
            start_ns,
            dur_ns,
            ops: 0,
            shard: None,
        }
    }

    #[test]
    fn self_time_subtracts_what_nested_spans_cover() {
        let spans = [
            span(Stage::Apply, 0, 100),
            span(Stage::Decompose, 0, 10),
            // Two shard sub-rounds and the cross store, overlapping.
            span(Stage::ShardRound, 10, 30),
            span(Stage::ShardRound, 12, 38),
            span(Stage::CrossRound, 14, 20),
            span(Stage::CrossQuery, 60, 30),
            span(Stage::BoundaryRebuild, 65, 20),
        ];
        assert_eq!(covered_ns(&spans, &[Stage::ShardRound]), 40);
        assert_eq!(self_ns(&spans, Stage::ShardRound), 40);
        assert_eq!(self_ns(&spans, Stage::CrossRound), 20);
        assert_eq!(self_ns(&spans, Stage::CrossQuery), 10);
        // Apply covers 0..100; nested spans cover 0..50 and 60..90.
        assert_eq!(self_ns(&spans, Stage::Apply), 20);
        let wal = [span(Stage::WalAppend, 0, 50), span(Stage::WalFsync, 10, 35)];
        assert_eq!(self_ns(&wal, Stage::WalAppend), 15);
        assert_eq!(self_ns(&wal, Stage::Fill), 0);
    }
}
