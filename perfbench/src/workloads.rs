//! The four workloads. Each derives its inputs from the seed, runs an
//! amount of work sized from `--seconds`, checks its outputs, and fills
//! an [`Outcome`] with the end-to-end metrics (untraced) or the
//! per-layer metrics (traced).

use crate::layers;
use crate::load::{self, ClosedLoop, OpenLoop, ReadAnswer, ReadOutcome, Request};
use crate::measure::{median, millis, peak_rss_mib, tail_quantile, window_medians, Sample};
use crate::metrics::Outcome;
use crate::spans::SpanLog;
use crate::verify::{self, FinalState};
use dyncon_api::{BatchDynamic, BatchResult, Connectivity, DynConError, ExportEdges, Op};
use dyncon_core::{BatchDynamicConnectivity, Stats};
use dyncon_durable::{recover, DurableConfig, DurableServer, FsyncPolicy};
use dyncon_graphgen::{erdos_renyi, poisson_arrivals, zipf_client_schedules, UpdateStream};
use dyncon_metrics::MetricsSnapshot;
use dyncon_primitives::{hash64, SplitMix64};
use dyncon_server::{ConnServer, ReadHandle, RoundRecord, ServerConfig, SubmitOptions, Ticket};
use dyncon_shard::{ShardConfig, ShardMapKind, ShardedServer};
use dyncon_spanning::NaiveDynamicGraph;
use dyncon_trace::TraceRecorder;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Threads of every rayon pool and server writer: the core count of the
/// machine the benchmark was calibrated on.
pub const THREADS: usize = 2;

/// A traced run's untraced reference phase runs this fraction (1/n) of
/// the work, for `trace.overhead_pct`.
const REFERENCE_SHARE: usize = 4;

/// Zipf exponent of the serving workloads' request endpoints.
const ZIPF_SKEW: f64 = 1.1;

/// A step of the open-loop ladder passes when no request failed, the
/// write latency at [`LADDER_Q`] is within this limit (about three times
/// the median write latency at the workload's own rate), and the
/// generator's lateness within [`LADDER_LATE`] — a step the generator
/// could not offer on time says nothing about the server.
const LADDER_LIMIT: Duration = Duration::from_millis(10);

/// See [`LADDER_LIMIT`]. On the 2-core calibration machine the generator
/// wakes about 2 ms late at p95 even at the lowest rate, so the limit
/// sits above that while staying far below the latency limit.
const LADDER_LATE: Duration = Duration::from_millis(5);

/// The percentile the ladder judges: the highest with ten samples beyond
/// it among a step's writes.
const LADDER_Q: f64 = 0.95;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's structure used as a library, large batches.
    CoreBulk,
    /// `ConnServer`, closed loop, small Zipf requests.
    ServeZipf,
    /// `DurableServer` with read views, open loop, reads beside writes.
    ServeDurableViews,
    /// `ShardedServer`, two hash shards, closed loop.
    ServeSharded,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::CoreBulk,
        Workload::ServeZipf,
        Workload::ServeDurableViews,
        Workload::ServeSharded,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoreBulk => "core_bulk",
            Workload::ServeZipf => "serve_zipf",
            Workload::ServeDurableViews => "serve_durable_views",
            Workload::ServeSharded => "serve_sharded",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports: the highest one with at
    /// least ten samples beyond it at the benchmark's `run_seconds` — except
    /// serve_durable_views. About 16% of its writes wait for a round in
    /// progress, so its p95 lands on either side of that edge from run to
    /// run (a 31% spread across seeds when the benchmark was calibrated,
    /// against 5% for its p90).
    pub fn tail_q(self) -> f64 {
        match self {
            Workload::CoreBulk => 0.75,
            Workload::ServeZipf => 0.99,
            Workload::ServeDurableViews => 0.90,
            Workload::ServeSharded => 0.95,
        }
    }
}

/// Work per second of `--seconds`, measured when the benchmark was added,
/// on the 2-core machine it was calibrated on. A phase runs a fixed
/// amount of work sized from these, so every commit measures the same
/// requests and the same number of samples, and the benchmark's own
/// round log (which the checks need) does not grow with throughput.
const BULK_ROUNDS_PER_S: f64 = 2.9;
/// See [`BULK_ROUNDS_PER_S`]: serve_zipf requests per client.
const ZIPF_REQUESTS_PER_S: f64 = 1450.0;
/// See [`BULK_ROUNDS_PER_S`]: serve_durable_views offered requests.
const OPEN_REQUESTS_PER_S: f64 = 100.0;
/// See [`BULK_ROUNDS_PER_S`]: serve_sharded requests per client.
const SHARD_REQUESTS_PER_S: f64 = 11.7;

/// The serving workloads' base graph: the same for every seed. Their cost
/// depends strongly on the graph around the few hot Zipf vertices (when
/// the benchmark was calibrated, serve_sharded's throughput spread 17%
/// across seeded graphs against 5% on one graph), which would hide a 15%
/// change. The seed drives their traffic.
const BASE_GRAPH_SEED: u64 = 0x5eed;

/// Input sizes. [`Sizes::full`] is what the benchmark runs; the smoke
/// test runs [`Sizes::tiny`].
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Vertices of the base graph.
    pub n: usize,
    /// Edges of the base graph (Erdős–Rényi).
    pub m: usize,
    /// core_bulk: edges deleted and re-inserted per round.
    pub bulk_batch: usize,
    /// core_bulk: query pairs per round.
    pub bulk_queries: usize,
    /// core_bulk: rounds per phase.
    pub bulk_rounds: usize,
    /// core_bulk: rounds of the thread-scaling probe.
    pub speedup_rounds: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Operations per closed-loop request.
    pub request_ops: usize,
    /// serve_zipf: requests per client per phase.
    pub zipf_requests: usize,
    /// serve_durable_views: vertices.
    pub views_n: usize,
    /// serve_durable_views: edges.
    pub views_m: usize,
    /// serve_durable_views: offered requests per second (half writes).
    pub open_rate: f64,
    /// serve_durable_views: requests per phase.
    pub open_requests: usize,
    /// serve_durable_views: operations per write, pairs per read.
    pub open_request_ops: usize,
    /// serve_durable_views: the ladder's offered rates.
    pub ladder: Vec<f64>,
    /// serve_durable_views: each ladder step offers its rate for this
    /// long, and at least `ladder_requests` requests.
    pub ladder_step: Duration,
    /// serve_durable_views: fewest requests per ladder step.
    pub ladder_requests: usize,
    /// Inserts per preload request of the served graphs.
    pub preload_batch: usize,
    /// serve_sharded: vertices.
    pub shard_n: usize,
    /// serve_sharded: edges.
    pub shard_m: usize,
    /// serve_sharded: requests per client per phase.
    pub shard_requests: usize,
    /// Every this-many rounds of a server log, the oracle checks the
    /// whole round (the rest: mutation counts only).
    pub oracle_every: usize,
}

impl Sizes {
    /// The benchmark's sizes: phases that took about `seconds` on the
    /// calibration machine when the benchmark was added.
    pub fn full(seconds: f64) -> Self {
        let work = |per_s: f64| (seconds * per_s).ceil().max(1.0) as usize;
        Self {
            setups: 5,
            n: 1 << 16,
            m: 1 << 17,
            bulk_batch: 4096,
            bulk_queries: 16384,
            bulk_rounds: work(BULK_ROUNDS_PER_S),
            speedup_rounds: 4,
            clients: 2,
            request_ops: 64,
            zipf_requests: work(ZIPF_REQUESTS_PER_S),
            // A quarter of the library graph: on 65536 vertices the
            // per-round view publish (about 9 ms) ran at one of two speeds
            // from run to run, a 19% spread of the median write latency
            // across seeds; here it is about 2 ms and steady.
            views_n: 1 << 14,
            views_m: 1 << 15,
            open_rate: OPEN_REQUESTS_PER_S,
            open_requests: work(OPEN_REQUESTS_PER_S),
            open_request_ops: 32,
            ladder: vec![250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0],
            ladder_step: Duration::from_secs(1),
            ladder_requests: 400,
            preload_batch: 4096,
            shard_n: 4096,
            shard_m: 8192,
            shard_requests: work(SHARD_REQUESTS_PER_S),
            oracle_every: 1024,
        }
    }

    /// Sizes small enough for a unit test, with every code path still
    /// taken and every percentile still supported.
    pub fn tiny() -> Self {
        Self {
            setups: 2,
            n: 256,
            m: 512,
            bulk_batch: 32,
            bulk_queries: 64,
            bulk_rounds: 40,
            speedup_rounds: 2,
            clients: 2,
            request_ops: 8,
            zipf_requests: 600,
            views_n: 256,
            views_m: 512,
            open_rate: 5000.0,
            open_requests: 2400,
            open_request_ops: 4,
            ladder: vec![2000.0, 4000.0],
            ladder_step: Duration::from_millis(100),
            ladder_requests: 400,
            preload_batch: 128,
            shard_n: 128,
            shard_m: 256,
            shard_requests: 120,
            oracle_every: 4,
        }
    }
}

/// Run `workload` once. Untraced runs fill the end-to-end metrics;
/// traced runs fill the per-layer metrics and the Chrome trace.
pub fn run(workload: Workload, sizes: &Sizes, seed: u64, traced: bool) -> Result<Outcome, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| match workload {
        Workload::CoreBulk => core_bulk(sizes, seed, traced),
        Workload::ServeZipf => serve_zipf(sizes, seed, traced),
        Workload::ServeDurableViews => serve_durable_views(sizes, seed, traced),
        Workload::ServeSharded => serve_sharded(sizes, seed, traced),
    })
}

/// An independent seed for input stream `stream` of run `seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    hash64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hash64(stream))
}

/// Time `setup`.
fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(Duration, T), String> {
    let t = Instant::now();
    let value = setup()?;
    Ok((t.elapsed(), value))
}

/// `setup_s`: the median of the measured set-up's time `first` and
/// `k - 1` more set-ups, each torn down at once by `again`, which returns
/// its set-up time. They run after the measured phase, so memory they
/// leave behind in the allocator never shows in its peak.
fn setup_median(
    first: Duration,
    k: usize,
    mut again: impl FnMut(usize) -> Result<Duration, String>,
) -> Result<f64, String> {
    let mut times = vec![first.as_secs_f64()];
    for i in 1..k {
        times.push(again(i)?.as_secs_f64());
    }
    Ok(median(&times))
}

fn core_with(n: usize, edges: &[(u32, u32)]) -> BatchDynamicConnectivity {
    let mut g = BatchDynamicConnectivity::new(n);
    g.batch_insert(edges);
    g
}

/// The state `g` holds, after checking that `g` answers connectivity
/// consistently with its own edge set.
fn self_consistent_state<C: Connectivity + ExportEdges + ?Sized>(
    g: &C,
) -> Result<FinalState, String> {
    let state = FinalState::of_edges(g.num_vertices(), g.export_edges());
    verify::check_final(g, &state)?;
    Ok(state)
}

fn oracle_with(n: usize, edges: &[(u32, u32)]) -> NaiveDynamicGraph {
    let mut oracle = NaiveDynamicGraph::new(n);
    oracle.batch_insert(edges);
    oracle
}

/// `ops_per_s` and `latency_p50_ms` as medians over the phase's windows,
/// `latency_tail_ms` over the whole phase (a window holds too few
/// samples for the tail).
fn set_phase_metrics(
    out: &mut Outcome,
    samples: &[Sample],
    wall: Duration,
    tail_q: f64,
) -> Result<(), String> {
    let (rate, p50) = window_medians(samples, wall)?;
    out.set("ops_per_s", rate);
    out.set("latency_p50_ms", p50);
    let latencies: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    out.set(
        "latency_tail_ms",
        tail_quantile(&millis(&latencies), tail_q)?,
    );
    Ok(())
}

fn micros_p50(ds: &[Duration]) -> f64 {
    if ds.is_empty() {
        0.0
    } else {
        median(&millis(ds)) * 1e3
    }
}

// ---------------------------------------------------------------------
// core_bulk
// ---------------------------------------------------------------------

/// One core_bulk round's inputs.
struct BulkRound {
    deletions: Vec<(u32, u32)>,
    queries: Vec<(u32, u32)>,
}

/// Round `round`'s inputs: `bulk_batch` distinct base edges to delete and
/// re-insert, and `bulk_queries` uniform query pairs.
fn bulk_round(base: &[(u32, u32)], s: &Sizes, seed: u64, round: u64) -> BulkRound {
    let mut rng = SplitMix64::new(sub_seed(seed, 1000 + round));
    let mut idx: Vec<u32> = (0..base.len() as u32).collect();
    let k = s.bulk_batch.min(base.len());
    for i in 0..k {
        let j = i + rng.next_below((idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    let deletions = idx[..k].iter().map(|&i| base[i as usize]).collect();
    let queries = UpdateStream::random_queries(s.n, s.bulk_queries, sub_seed(seed, 2000 + round));
    BulkRound { deletions, queries }
}

fn bulk_ops(deletions: &[(u32, u32)], queries: &[(u32, u32)]) -> Vec<Op> {
    let del = deletions.iter().map(|&(u, v)| Op::Delete(u, v));
    let query = queries.iter().map(|&(u, v)| Op::Query(u, v));
    let ins = deletions.iter().map(|&(u, v)| Op::Insert(u, v));
    del.chain(query).chain(ins).collect()
}

#[derive(Default)]
struct BulkPhase {
    delete: Duration,
    query: Duration,
    insert: Duration,
    /// One sample per round, finishing at the phase's busy time so far.
    rounds: Vec<Sample>,
    deleted: usize,
    queried: usize,
    inserted: usize,
    results: Vec<BatchResult>,
}

impl BulkPhase {
    fn ops(&self) -> f64 {
        (self.deleted + self.queried + self.inserted) as f64
    }

    fn busy(&self) -> f64 {
        (self.delete + self.query + self.insert).as_secs_f64()
    }
}

/// Rounds `rounds` of core_bulk on `g`.
fn bulk_phase(
    g: &mut BatchDynamicConnectivity,
    base: &[(u32, u32)],
    s: &Sizes,
    seed: u64,
    rounds: std::ops::Range<u64>,
    spans: &SpanLog,
) -> BulkPhase {
    let mut p = BulkPhase::default();
    for round in rounds {
        let BulkRound { deletions, queries } = bulk_round(base, s, seed, round);
        let t = Instant::now();
        let deleted = spans.time("batch_delete", 0, || g.batch_delete(&deletions));
        let t_del = t.elapsed();
        let answers = spans.time("batch_connected", 0, || g.batch_connected(&queries));
        let t_query = t.elapsed() - t_del;
        let inserted = spans.time("batch_insert", 0, || g.batch_insert(&deletions));
        let t_all = t.elapsed();
        p.delete += t_del;
        p.query += t_query;
        p.insert += t_all - t_del - t_query;
        p.rounds.push(Sample {
            done: p.delete + p.query + p.insert,
            latency: t_all,
            ops: (2 * deletions.len() + queries.len()) as u64,
        });
        p.deleted += deletions.len();
        p.queried += queries.len();
        p.inserted += deletions.len();
        p.results.push(BatchResult {
            inserted,
            deleted,
            answers,
        });
    }
    p
}

/// Every round's answers and counts against the oracle, then the final
/// state.
fn check_bulk(
    g: &BatchDynamicConnectivity,
    base: &[(u32, u32)],
    s: &Sizes,
    seed: u64,
    results: &[BatchResult],
) -> Result<(), String> {
    let mut oracle = oracle_with(s.n, base);
    for (round, want) in results.iter().enumerate() {
        let BulkRound { deletions, queries } = bulk_round(base, s, seed, round as u64);
        let got = oracle
            .apply(&bulk_ops(&deletions, &queries))
            .map_err(|e| e.to_string())?;
        if &got != want {
            return Err(format!("core_bulk round {round}: the oracle disagrees"));
        }
    }
    if self_consistent_state(g)? != FinalState::of(&oracle) {
        return Err("core_bulk: the final state differs from the oracle's".into());
    }
    Ok(())
}

fn core_bulk(s: &Sizes, seed: u64, traced: bool) -> Result<Outcome, String> {
    let base = erdos_renyi(s.n, s.m, sub_seed(seed, 1));
    let mut out = Outcome::default();
    let (first_setup, mut g) = timed(|| Ok(core_with(s.n, &base)))?;
    let spans = if traced {
        SpanLog::on()
    } else {
        SpanLog::off()
    };
    let rounds = s.bulk_rounds as u64;
    let before = g.stats();
    let main = bulk_phase(&mut g, &base, s, seed, 0..rounds, &spans);
    let after = g.stats();
    let mut results = main.results.clone();
    out.attempted = 3 * main.results.len() as u64;
    if !traced {
        let busy = Duration::from_secs_f64(main.busy());
        set_phase_metrics(&mut out, &main.rounds, busy, Workload::CoreBulk.tail_q())?;
        out.set("peak_rss_mb", peak_rss_mib()?);
        let setup_s = setup_median(first_setup, s.setups, |_| {
            let (took, g) = timed(|| Ok(core_with(s.n, &base)))?;
            drop(g);
            Ok(took)
        })?;
        out.set("setup_s", setup_s);
    } else {
        layers::set_unreached(
            &mut out,
            &[
                "server.", "client.", "durable.", "shard.", "trace.", "loadgen.",
            ],
        );
        let per = |d: Duration, k: usize, unit: f64| d.as_secs_f64() * unit / k.max(1) as f64;
        out.set(
            "core.delete_us_per_edge",
            per(main.delete, main.deleted, 1e6),
        );
        out.set(
            "core.insert_us_per_edge",
            per(main.insert, main.inserted, 1e6),
        );
        out.set("core.query_ns_per_pair", per(main.query, main.queried, 1e9));
        // The phase's rounds are fixed by the seed, so these counts
        // repeat exactly.
        layers::set_core_counts(&mut out, &before, &after);
        // Tracing overhead: a share of the rounds again, untraced, on the
        // same structure, continuing the round sequence.
        let reference = bulk_phase(
            &mut g,
            &base,
            s,
            seed,
            rounds..rounds + rounds / REFERENCE_SHARE as u64,
            &SpanLog::off(),
        );
        let rate = |p: &BulkPhase| p.ops() / p.busy();
        out.set("trace.overhead_pct", 100.0 * rate(&reference) / rate(&main));
        results.extend(reference.results);
        // Thread scaling: the first rounds on fresh structures at one and
        // at two threads, which must also agree exactly.
        let mut scaled = Vec::new();
        for threads in [1, THREADS] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map_err(|e| e.to_string())?;
            scaled.push(pool.install(|| {
                let mut h = core_with(s.n, &base);
                let phase = bulk_phase(
                    &mut h,
                    &base,
                    s,
                    seed,
                    0..s.speedup_rounds as u64,
                    &SpanLog::off(),
                );
                (phase, h.stats())
            }));
        }
        let (one, two) = (&scaled[0], &scaled[1]);
        if one.0.results != two.0.results || one.1 != two.1 {
            out.mismatch = Some("core_bulk: one and two threads disagree".into());
        }
        out.set("core.par_speedup", one.0.busy() / two.0.busy());
        layers::probe_layers(&mut out, s.n, &base, seed, &spans);
        out.chrome_trace = Some(spans.chrome_json(None));
    }
    if let Err(e) = check_bulk(&g, &base, s, seed, &results) {
        out.mismatch.get_or_insert(e);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The serving stacks, behind one adapter
// ---------------------------------------------------------------------

/// What the benchmark needs from a serving stack.
trait Served: Sync {
    fn submit(&self, client: u64, ops: Vec<Op>, blocking: bool) -> Result<Ticket, DynConError>;
    fn snapshot(&self) -> MetricsSnapshot;
    fn rounds_committed(&self) -> u64;
    /// The served state, read between rounds and checked for
    /// consistency with its own edge set.
    fn state(&self) -> Result<FinalState, String>;
    /// Drain and stop: the round log and the core structures' counters.
    fn finish(self) -> Result<(Vec<RoundRecord>, Stats), String>;
}

impl Served for ConnServer<BatchDynamicConnectivity> {
    fn submit(&self, client: u64, ops: Vec<Op>, blocking: bool) -> Result<Ticket, DynConError> {
        self.submit_with(
            ops,
            SubmitOptions::new().as_client(client).blocking(blocking),
        )
    }
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }
    fn rounds_committed(&self) -> u64 {
        ConnServer::rounds_committed(self)
    }
    fn state(&self) -> Result<FinalState, String> {
        self.inspect(self_consistent_state)
            .map_err(|e| e.to_string())?
    }
    fn finish(self) -> Result<(Vec<RoundRecord>, Stats), String> {
        let report = self.join();
        Ok((report.rounds, report.backend.stats()))
    }
}

impl Served for DurableServer<BatchDynamicConnectivity> {
    fn submit(&self, client: u64, ops: Vec<Op>, blocking: bool) -> Result<Ticket, DynConError> {
        self.submit_with(
            ops,
            SubmitOptions::new().as_client(client).blocking(blocking),
        )
    }
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }
    fn rounds_committed(&self) -> u64 {
        DurableServer::rounds_committed(self)
    }
    fn state(&self) -> Result<FinalState, String> {
        self.inspect(self_consistent_state)
            .map_err(|e| e.to_string())?
    }
    fn finish(self) -> Result<(Vec<RoundRecord>, Stats), String> {
        let report = self.join().map_err(|e| e.to_string())?;
        Ok((report.service.rounds, report.service.backend.stats()))
    }
}

impl Served for ShardedServer<BatchDynamicConnectivity> {
    fn submit(&self, client: u64, ops: Vec<Op>, blocking: bool) -> Result<Ticket, DynConError> {
        self.submit_with(
            ops,
            SubmitOptions::new().as_client(client).blocking(blocking),
        )
    }
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }
    fn rounds_committed(&self) -> u64 {
        ShardedServer::rounds_committed(self)
    }
    fn state(&self) -> Result<FinalState, String> {
        self.inspect(self_consistent_state)
            .map_err(|e| e.to_string())?
    }
    fn finish(self) -> Result<(Vec<RoundRecord>, Stats), String> {
        let report = self.join().map_err(|e| e.to_string())?;
        let stats: Vec<Stats> = report
            .shards
            .iter()
            .chain(std::iter::once(&report.cross))
            .map(|s| s.backend.stats())
            .collect();
        Ok((report.rounds, layers::sum_stats(&stats)))
    }
}

/// Load `edges` through the server in `batch`-insert requests.
fn preload<S: Served>(server: &S, edges: &[(u32, u32)], batch: usize) -> Result<(), String> {
    for chunk in edges.chunks(batch.max(1)) {
        let ops = chunk.iter().map(|&(u, v)| Op::Insert(u, v)).collect();
        server
            .submit(0, ops, true)
            .and_then(Ticket::wait)
            .map_err(|e| format!("preload: {e}"))?;
    }
    Ok(())
}

/// What a server's measured phase leaves for the metrics and the checks.
struct Phase {
    /// Registry change over the phase (gauges keep their high-water mark).
    delta: MetricsSnapshot,
    /// The first round the phase committed (earlier ones preloaded).
    first_round: u64,
    /// The server's whole round log.
    rounds: Vec<RoundRecord>,
    /// The served state after the phase.
    state: FinalState,
    /// The core structures' counters over the server's life.
    stats: Stats,
    /// `VmHWM` when the phase ended, before any check ran.
    peak_rss_mb: f64,
}

impl Phase {
    fn measured_rounds(&self) -> Vec<RoundRecord> {
        self.rounds
            .iter()
            .filter(|r| r.round >= self.first_round)
            .cloned()
            .collect()
    }
}

/// Run `load` against `server` as the measured phase, then stop the
/// server and collect what the metrics and the checks need.
fn measured<S: Served, L>(server: S, load: impl FnOnce(&S) -> L) -> Result<(L, Phase), String> {
    let before = server.snapshot();
    let first_round = server.rounds_committed();
    let result = load(&server);
    let after = server.snapshot();
    let peak_rss_mb = peak_rss_mib()?;
    let state = server.state()?;
    let (rounds, stats) = server.finish()?;
    Ok((
        result,
        Phase {
            delta: after.delta(&before),
            first_round,
            rounds,
            state,
            stats,
            peak_rss_mb,
        },
    ))
}

/// Replay the whole log through a fresh core built from `initial`, check
/// a sample of rounds and the final state against the oracle, and let
/// `after_round` check reads taken at each round's state.
fn check_log(
    n: usize,
    initial: &[(u32, u32)],
    phase: &Phase,
    oracle_every: usize,
    after_round: impl FnMut(u64, &BatchDynamicConnectivity) -> Result<(), String>,
) -> Result<(), String> {
    let mut core = core_with(n, initial);
    verify::replay_rounds(&mut core, &phase.rounds, after_round)?;
    let mut oracle = oracle_with(n, initial);
    verify::oracle_rounds(&mut oracle, &phase.rounds, oracle_every)?;
    let want = FinalState::of(&oracle);
    if phase.state != want {
        return Err("the served final state differs from the oracle's".into());
    }
    if self_consistent_state(&core)? != want {
        return Err("the replayed final state differs from the oracle's".into());
    }
    Ok(())
}

fn closed_rate(load: &ClosedLoop) -> f64 {
    load.ops() as f64 / load.wall.as_secs_f64()
}

/// The per-layer metrics every traced serving run reports.
fn set_served_layers(
    out: &mut Outcome,
    phase: &Phase,
    recorder: &TraceRecorder,
    wall: Duration,
    submit_times: &[Duration],
) -> Result<(), String> {
    layers::set_registry_metrics(out, &phase.delta);
    layers::set_round_shape(out, &phase.measured_rounds());
    layers::set_trace_metrics(out, recorder, phase.first_round, wall)?;
    // Preloads only insert, and inserts move none of these counters, so
    // the life totals are the measured phase's.
    layers::set_core_counts(out, &Stats::default(), &phase.stats);
    out.set("client.submit_us_p50", micros_p50(submit_times));
    // Bench-side call timings and thread scaling are library-only.
    for name in [
        "core.delete_us_per_edge",
        "core.insert_us_per_edge",
        "core.query_ns_per_pair",
        "core.par_speedup",
    ] {
        out.set(name, 0.0);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// serve_zipf and serve_sharded: closed loops
// ---------------------------------------------------------------------

fn serve_zipf(s: &Sizes, seed: u64, traced: bool) -> Result<Outcome, String> {
    let w = Workload::ServeZipf;
    let base = erdos_renyi(s.n, s.m, BASE_GRAPH_SEED);
    let schedules = zipf_client_schedules(
        s.n,
        s.clients,
        s.zipf_requests,
        s.request_ops,
        0.5,
        ZIPF_SKEW,
        sub_seed(seed, 2),
    );
    let start =
        |recorder: Option<&TraceRecorder>| -> Result<ConnServer<BatchDynamicConnectivity>, String> {
            let mut config = ServerConfig::new()
                .worker_threads(THREADS)
                .record_rounds(true);
            if let Some(r) = recorder {
                config = config.trace(r.clone());
            }
            Ok(ConnServer::start(core_with(s.n, &base), config))
        };
    let (out, phases) = closed_workload(
        w,
        s,
        seed,
        s.n,
        &base,
        &schedules,
        traced,
        start,
        |out, _| {
            layers::set_unreached(out, &["durable.", "shard.", "loadgen.", "client.read"]);
            Ok(())
        },
    )?;
    check_closed(out, w, s.n, &base, &phases, s.oracle_every)
}

fn serve_sharded(s: &Sizes, seed: u64, traced: bool) -> Result<Outcome, String> {
    let w = Workload::ServeSharded;
    let base = erdos_renyi(s.shard_n, s.shard_m, BASE_GRAPH_SEED);
    let schedules = zipf_client_schedules(
        s.shard_n,
        s.clients,
        s.shard_requests,
        s.request_ops,
        0.5,
        ZIPF_SKEW,
        sub_seed(seed, 2),
    );
    let start = |recorder: Option<&TraceRecorder>| -> Result<ShardedServer<BatchDynamicConnectivity>, String> {
        let mut config = ShardConfig::new()
            .shards(2)
            .kind(ShardMapKind::Hash)
            .shard_worker_threads(THREADS)
            .record_rounds(true);
        if let Some(r) = recorder {
            config = config.trace(r.clone());
        }
        let server = ShardedServer::start(s.shard_n, config).map_err(|e| e.to_string())?;
        preload(&server, &base, s.preload_batch)?;
        Ok(server)
    };
    let (out, phases) = closed_workload(
        w,
        s,
        seed,
        s.shard_n,
        &base,
        &schedules,
        traced,
        start,
        |out, (reference, phase)| {
            layers::set_unreached(out, &["durable.", "loadgen.", "client.read"]);
            let subrounds = phase
                .delta
                .get("dyncon_shard_subrounds_total")
                .and_then(|m| m.value.as_counter())
                .unwrap_or(0) as f64;
            let rounds = phase.measured_rounds().len().max(1) as f64;
            out.set("shard.subrounds_per_round", subrounds / rounds);
            // The reference phase's requests again, through one unsharded
            // server: the cost of sharding as a ratio of walls (the ROADMAP
            // asks for at most 2).
            let unsharded = ConnServer::start(
                BatchDynamicConnectivity::new(s.shard_n),
                ServerConfig::new().worker_threads(THREADS),
            );
            preload(&unsharded, &base, s.preload_batch)?;
            let plain =
                load::closed_loop(&reference_part(&schedules), &SpanLog::off(), |c, ops| {
                    Served::submit(&unsharded, c, ops, true)
                });
            unsharded.join();
            out.set(
                "shard.cost_ratio",
                reference.wall.as_secs_f64() / plain.wall.as_secs_f64(),
            );
            Ok(())
        },
    )?;
    // Sharded servers preload through their own rounds: replay from empty.
    check_closed(out, w, s.shard_n, &[], &phases, s.oracle_every)
}

/// The reference phase's share of each client's schedule.
fn reference_part(schedules: &[Vec<Vec<Op>>]) -> Vec<&[Vec<Op>]> {
    schedules
        .iter()
        .map(|s| &s[..s.len() / REFERENCE_SHARE])
        .collect()
}

/// A closed-loop serving workload. Untraced: the clients' whole
/// schedules, then the extra set-ups. Traced: an untraced reference phase
/// of the start of each schedule (for the tracing overhead), then the
/// whole schedules traced on a fresh server; `extra` adds the workload's
/// own per-layer metrics from `(reference load, traced phase)`.
#[allow(clippy::too_many_arguments)]
fn closed_workload<S: Served>(
    w: Workload,
    s: &Sizes,
    seed: u64,
    n: usize,
    base: &[(u32, u32)],
    schedules: &[Vec<Vec<Op>>],
    traced: bool,
    start: impl Fn(Option<&TraceRecorder>) -> Result<S, String>,
    extra: impl FnOnce(&mut Outcome, (&ClosedLoop, &Phase)) -> Result<(), String>,
) -> Result<(Outcome, Vec<Phase>), String> {
    let whole: Vec<&[Vec<Op>]> = schedules.iter().map(Vec::as_slice).collect();
    let mut out = Outcome::default();
    let (first_setup, server) = timed(|| start(None))?;
    let first = if traced {
        reference_part(schedules)
    } else {
        whole.clone()
    };
    let (load, phase) = measured(server, |server| {
        load::closed_loop(&first, &SpanLog::off(), |c, ops| {
            server.submit(c, ops, true)
        })
    })?;
    out.attempted = load.samples.len() as u64 + load.failed;
    out.failed = load.failed;
    if !traced {
        set_phase_metrics(&mut out, &load.samples, load.wall, w.tail_q())?;
        out.set("peak_rss_mb", phase.peak_rss_mb);
        let setup_s = setup_median(first_setup, s.setups, |_| {
            let (took, server) = timed(|| start(None))?;
            server.finish()?;
            Ok(took)
        })?;
        out.set("setup_s", setup_s);
        return Ok((out, vec![phase]));
    }
    let recorder = layers::full_recorder();
    let spans = SpanLog::on();
    let (traced_load, traced_phase) = measured(start(Some(&recorder))?, |server| {
        load::closed_loop(&whole, &spans, |c, ops| server.submit(c, ops, true))
    })?;
    out.attempted = traced_load.samples.len() as u64 + traced_load.failed;
    out.failed = traced_load.failed;
    set_served_layers(
        &mut out,
        &traced_phase,
        &recorder,
        traced_load.wall,
        &traced_load.submit_times,
    )?;
    out.set(
        "trace.overhead_pct",
        100.0 * closed_rate(&load) / closed_rate(&traced_load),
    );
    extra(&mut out, (&load, &traced_phase))?;
    layers::probe_layers(&mut out, n, base, seed, &spans);
    out.chrome_trace = Some(spans.chrome_json(Some(&recorder.chrome_trace_json())));
    Ok((out, vec![phase, traced_phase]))
}

fn check_closed(
    mut out: Outcome,
    w: Workload,
    n: usize,
    initial: &[(u32, u32)],
    phases: &[Phase],
    oracle_every: usize,
) -> Result<Outcome, String> {
    for phase in phases {
        if let Err(e) = check_log(n, initial, phase, oracle_every, |_, _| Ok(())) {
            out.mismatch.get_or_insert(format!("{}: {e}", w.name()));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// serve_durable_views: an open loop
// ---------------------------------------------------------------------

/// A durable directory inside the benchmark's checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload, seed: u64, k: usize) -> Result<Self, String> {
        let dir = PathBuf::from("target/perfbench-work").join(format!(
            "{}-{seed}-{}-{k}",
            workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `count` Poisson arrivals at `rate` per second, alternately a write
/// (Zipf mutations) and a view read (uniform pairs), so a step's write
/// and read sample counts are fixed.
fn open_requests(s: &Sizes, rate: f64, count: usize, seed: u64) -> (Vec<Request>, Vec<u64>) {
    let writes = zipf_client_schedules(
        s.views_n,
        1,
        count,
        s.open_request_ops,
        0.0,
        ZIPF_SKEW,
        sub_seed(seed, 1),
    )
    .remove(0);
    let requests = writes
        .into_iter()
        .enumerate()
        .map(|(i, ops)| {
            if i % 2 == 0 {
                Request::Write(ops)
            } else {
                let pairs_seed = sub_seed(seed, (1 << 32) | i as u64);
                Request::Read(UpdateStream::random_queries(
                    s.views_n,
                    s.open_request_ops,
                    pairs_seed,
                ))
            }
        })
        .collect();
    // Poisson gaps, rescaled so the schedule spans exactly count / rate
    // seconds: every run offers the same rate.
    let arrivals = poisson_arrivals(count, (1e9 / rate) as u64, sub_seed(seed, 3));
    let scale = count as f64 * 1e9 / rate / *arrivals.last().unwrap_or(&1).max(&1) as f64;
    let arrivals = arrivals
        .iter()
        .map(|&at| (at as f64 * scale) as u64)
        .collect();
    (requests, arrivals)
}

fn open_phase(
    server: &DurableServer<BatchDynamicConnectivity>,
    requests: &[Request],
    arrivals: &[u64],
    spans: &SpanLog,
) -> OpenLoop {
    load::open_loop(
        requests,
        arrivals,
        spans,
        |ops| server.submit_with(ops, SubmitOptions::new().as_client(0)),
        |pairs| -> ReadHandle<Result<ReadOutcome, DynConError>> {
            server.read_async(move |view| {
                let answers = view.batch_connected(&pairs);
                ((view.version(), answers), Instant::now())
            })
        },
    )
}

/// A check for [`verify::replay_rounds`]: every view read must match the
/// replayed state at the version it read (versions are round numbers on
/// a fresh durable directory).
fn check_reads<'a>(
    requests: &'a [Request],
    reads: &'a [(usize, ReadAnswer)],
) -> impl FnMut(u64, &BatchDynamicConnectivity) -> Result<(), String> + 'a {
    let mut by_version: Vec<&(usize, ReadAnswer)> = reads.iter().collect();
    by_version.sort_by_key(|(i, (version, _))| (*version, *i));
    let mut next = 0;
    move |round, core| {
        while let Some(&&(i, (version, ref answers))) = by_version.get(next) {
            if version != round {
                break;
            }
            let Request::Read(pairs) = &requests[i] else {
                return Err(format!("request {i} was answered as a read"));
            };
            if &core.batch_connected(pairs) != answers {
                return Err(format!(
                    "view read {i} at version {round} differs from the replay"
                ));
            }
            next += 1;
        }
        Ok(())
    }
}

fn serve_durable_views(s: &Sizes, seed: u64, traced: bool) -> Result<Outcome, String> {
    let w = Workload::ServeDurableViews;
    let base = erdos_renyi(s.views_n, s.views_m, BASE_GRAPH_SEED);
    let count = s.open_requests;
    let (requests, arrivals) = open_requests(s, s.open_rate, count, sub_seed(seed, 2));
    let open = |dir: &Path,
                recorder: Option<&TraceRecorder>|
     -> Result<DurableServer<BatchDynamicConnectivity>, String> {
        let mut config = ServerConfig::new()
            .worker_threads(THREADS)
            .record_rounds(true)
            .retain_views(8)
            .reader_threads(1);
        if let Some(r) = recorder {
            config = config.trace(r.clone());
        }
        // Every round fsyncs: the durable default, stated.
        let durable = DurableConfig::new()
            .fsync(FsyncPolicy::EveryRound)
            .compact_on_join(false);
        let (server, _) =
            DurableServer::open(dir, s.views_n, config, durable).map_err(|e| e.to_string())?;
        preload(&server, &base, s.preload_batch)?;
        Ok(server)
    };
    // The measured server's directory, and a traced run's second one.
    let dirs = [WorkDir::new(w, seed, 0)?, WorkDir::new(w, seed, 1)?];
    let mut out = Outcome::default();
    let (first_setup, server) = timed(|| open(&dirs[0].0, None))?;
    // Traced runs take their reference from the start of the
    // schedule, then climb the ladder on the same server.
    let first = if traced {
        count / REFERENCE_SHARE
    } else {
        count
    };
    let ((load, ladder), phase) = measured(server, |server| {
        let load = open_phase(
            server,
            &requests[..first],
            &arrivals[..first],
            &SpanLog::off(),
        );
        (load, traced.then(|| ladder(server, s, seed)))
    })?;
    out.attempted = first as u64;
    out.failed = load.rejected + load.errors;
    let mut checks = vec![(phase, load)];
    if !traced {
        let (phase, load) = &checks[0];
        let setup_s = setup_median(first_setup, s.setups, |k| {
            let dir = WorkDir::new(w, seed, 1 + k)?;
            let (took, server) = timed(|| open(&dir.0, None))?;
            server.finish()?;
            Ok(took)
        })?;
        out.set("setup_s", setup_s);
        // The offered rate sets the throughput of an open loop; it drops
        // only when the server falls behind.
        out.set("ops_per_s", load.ops as f64 / load.wall.as_secs_f64());
        let (_, p50) = window_medians(&load.writes, load.wall)?;
        out.set("latency_p50_ms", p50);
        let latencies: Vec<Duration> = load.writes.iter().map(|s| s.latency).collect();
        out.set(
            "latency_tail_ms",
            tail_quantile(&millis(&latencies), w.tail_q())?,
        );
        out.set("peak_rss_mb", phase.peak_rss_mb);
    } else {
        let (passed, sustained) = ladder.expect("traced runs climb the ladder")?;
        out.set("loadgen.ladder_steps_passed", passed as f64);
        out.set("loadgen.sustained_rate_rps", sustained);
        let recorder = layers::full_recorder();
        let spans = SpanLog::on();
        let (traced_load, phase) = measured(open(&dirs[1].0, Some(&recorder))?, |server| {
            open_phase(server, &requests, &arrivals, &spans)
        })?;
        out.attempted = count as u64;
        out.failed = traced_load.rejected + traced_load.errors;
        layers::set_unreached(&mut out, &["shard."]);
        set_served_layers(
            &mut out,
            &phase,
            &recorder,
            traced_load.wall,
            &traced_load.submit_times,
        )?;
        let write_p50 = |l: &OpenLoop| {
            median(
                &l.writes
                    .iter()
                    .map(|s| s.latency.as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        out.set(
            "trace.overhead_pct",
            100.0 * write_p50(&traced_load) / write_p50(&checks[0].1),
        );
        out.set(
            "client.read_latency_p95_ms",
            tail_quantile(&millis(&traced_load.read_latencies), 0.95)?,
        );
        let late_us: Vec<f64> = millis(&traced_load.lateness)
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        out.set("loadgen.late_us_p95", tail_quantile(&late_us, 0.95)?);
        layers::probe_layers(&mut out, s.views_n, &base, seed, &spans);
        let (took, replayed_ops) =
            spans.time("recover", 0, || recover_checked(&dirs[1].0, &phase.state))?;
        out.set("durable.recovery_s", took.as_secs_f64());
        out.set("durable.replayed_ops", replayed_ops as f64);
        out.chrome_trace = Some(spans.chrome_json(Some(&recorder.chrome_trace_json())));
        checks.push((phase, traced_load));
    }
    let mut result = recover_checked(&dirs[0].0, &checks[0].0.state).map(drop);
    for (phase, load) in &checks {
        result = result.and_then(|()| {
            check_log(
                s.views_n,
                &[],
                phase,
                s.oracle_every,
                check_reads(&requests, &load.reads),
            )
        });
    }
    if let Err(e) = result {
        out.mismatch.get_or_insert(format!("{}: {e}", w.name()));
    }
    Ok(out)
}

/// Recover the durable directory `dir` and require the recovered state to
/// be the one the server was joined in. Returns the recovery time and the
/// operations it replayed.
fn recover_checked(dir: &Path, joined: &FinalState) -> Result<(Duration, u64), String> {
    let t = Instant::now();
    let (recovered, meta) = recover::<BatchDynamicConnectivity>(dir).map_err(|e| e.to_string())?;
    let took = t.elapsed();
    if &self_consistent_state(&recovered)? != joined {
        return Err("serve_durable_views: the recovered state differs from the joined one".into());
    }
    Ok((took, meta.replayed_ops))
}

/// Climb the ladder of offered rates on `server`: each step offers its
/// rate for `ladder_step` (at least `ladder_requests` requests) and is
/// judged by [`LADDER_LIMIT`]. Returns how many steps passed before the
/// first failure and the highest rate among them.
fn ladder(
    server: &DurableServer<BatchDynamicConnectivity>,
    s: &Sizes,
    seed: u64,
) -> Result<(usize, f64), String> {
    let mut passed = 0;
    let mut sustained = 0.0;
    for (i, &rate) in s.ladder.iter().enumerate() {
        let count = s
            .ladder_requests
            .max((rate * s.ladder_step.as_secs_f64()) as usize);
        let (requests, arrivals) = open_requests(s, rate, count, sub_seed(seed, 100 + i as u64));
        let step = open_phase(server, &requests, &arrivals, &SpanLog::off());
        let latencies: Vec<Duration> = step.writes.iter().map(|s| s.latency).collect();
        let write = tail_quantile(&millis(&latencies), LADDER_Q)?;
        let late = tail_quantile(&millis(&step.lateness), LADDER_Q)?;
        let ok = step.rejected + step.errors == 0
            && write <= LADDER_LIMIT.as_secs_f64() * 1e3
            && late <= LADDER_LATE.as_secs_f64() * 1e3;
        eprintln!(
            "ladder step {i}: {rate} req/s offered, write p95 {write:.2} ms, late p95 {late:.3} ms, {} failed: {}",
            step.rejected + step.errors,
            if ok { "pass" } else { "fail" }
        );
        if !ok {
            break;
        }
        passed += 1;
        sustained = rate;
    }
    Ok((passed, sustained))
}
