//! The shard coordinator as a composable backend.
//!
//! [`ShardedBackend`] implements the workspace's own trait surface
//! ([`Connectivity`] + [`BatchDynamic`] + [`ExportEdges`]) over N
//! per-shard servers plus a cross-edge store, so the whole sharded
//! ensemble drops into anything that takes a backend — differential test
//! panels, snapshots, and (the intended use) an outer
//! [`ConnServer`](dyncon_server::ConnServer), which is exactly what
//! [`crate::ShardedServer`] wraps it in.

use crate::map::ShardMap;
use crate::metrics::ShardMetrics;
use crate::server::ShardConfig;
use dyncon_api::{
    component_groups, validate_vertex, BatchDynamic, BatchResult, BuildFrom, Builder, Connectivity,
    DynConError, ExportEdges, Op, OpKind,
};
use dyncon_durable::{storage_err, write_file_atomic, DurableServer};
use dyncon_metrics::Registry;
use dyncon_server::{ConnServer, ServerConfig, SubmitOptions};
use dyncon_trace::{Stage, TraceRecorder};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The client id the coordinator submits every sub-batch under. The
/// coordinator is each shard server's *only* client, so canonical order
/// within a shard round is simply the coordinator's submission order.
const COORDINATOR: u64 = 0;

/// One shard's serving stack: an in-memory [`ConnServer`] or a
/// [`DurableServer`] with its own WAL/snapshot directory. Both run in
/// deterministic mode with the coordinator as sole client — a shard
/// round *is* one coordinator sub-batch, sealed explicitly.
enum ShardHandle<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    Mem(Box<ConnServer<B>>),
    Durable(Box<DurableServer<B>>),
}

impl<B> ShardHandle<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    /// The shard's serving surface (a durable shard's through `Deref`).
    fn conn(&self) -> &ConnServer<B> {
        match self {
            ShardHandle::Mem(s) => s,
            ShardHandle::Durable(s) => s,
        }
    }

    fn join(self) -> Result<ShardShutdown<B>, DynConError> {
        let (service, next_round) = match self {
            ShardHandle::Mem(s) => (s.join(), None),
            ShardHandle::Durable(s) => {
                let report = s.join()?;
                (report.service, Some(report.next_round))
            }
        };
        Ok(ShardShutdown {
            backend: service.backend,
            rounds_committed: service.rounds_committed,
            ops_committed: service.ops_committed,
            next_round,
        })
    }
}

/// What one shard hands back at [`ShardedBackend::shutdown`].
#[derive(Debug)]
pub struct ShardShutdown<B> {
    /// The shard's backend over its **local** id space (translate via
    /// [`ShardMap::globals`]).
    pub backend: B,
    /// Sub-rounds this shard committed during this process lifetime.
    pub rounds_committed: u64,
    /// Operations this shard committed.
    pub ops_committed: u64,
    /// Durable shards: the round id the next open continues logging at.
    /// `None` for in-memory shards.
    pub next_round: Option<u64>,
}

/// The lazily rebuilt contraction of cross-shard connectivity.
///
/// Vertices ("boundary nodes") are the per-shard local components that
/// contain at least one cross-edge endpoint, identified by their
/// **representative**: the smallest local id among the component's
/// cross-edge endpoints. Node ids are assigned shard-major over the
/// ascending representative lists, and each cross edge contracts to the
/// edge between its endpoints' nodes — all canonical, so the rebuilt
/// graph is a pure function of the shard states and the cross-edge set.
struct BoundaryCache<B> {
    /// False whenever a mutation segment changed any edge set since the
    /// last rebuild.
    fresh: bool,
    /// Per shard: ascending local-id representatives of its boundary
    /// components.
    reps: Vec<Vec<u32>>,
    /// Node id of `reps[s][0]` (shard-major prefix sums).
    offsets: Vec<usize>,
    /// Total boundary nodes.
    nodes: usize,
    /// The contracted graph over `nodes` vertices (`None` when there are
    /// no cross edges at all).
    graph: Option<B>,
}

impl<B> BoundaryCache<B> {
    fn stale(shards: usize) -> Self {
        Self {
            fresh: false,
            reps: vec![Vec::new(); shards],
            offsets: vec![0; shards],
            nodes: 0,
            graph: None,
        }
    }
}

/// A sharded connectivity backend: the vertex universe is partitioned by
/// a deterministic [`ShardMap`], intra-shard edges live in per-shard
/// backends behind their own single-writer servers, cross-shard edges
/// live in a dedicated store, and global reachability is recombined
/// through the contracted boundary graph:
///
/// `u ~ v` globally iff they are locally connected in one shard, **or**
/// each is locally connected to some boundary component whose nodes are
/// connected in the contraction of the cross-edge set.
///
/// Mutations decompose into at most one sealed commit round per shard
/// per mutation segment (runs of non-query ops), executed in parallel by
/// the shards' own writer threads; queries resolve locally first and
/// fall back to the boundary graph. Determinism is end-to-end: canonical
/// shard iteration order, per-shard sealed rounds in deterministic mode,
/// and canonical boundary construction order make every
/// [`BatchResult`] byte-identical across thread and shard counts.
///
/// ### Caveat: no cross-shard atomic commit
///
/// A mutation segment that fails mid-way (e.g. one durable shard's WAL
/// hits a storage error) leaves the sub-rounds already committed by
/// *other* shards applied — the documented partial-application semantics
/// of [`BatchDynamic::apply`], per sub-batch instead of per run.
/// Two-phase commit across shard WALs is future work.
pub struct ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    map: ShardMap,
    shards: Vec<ShardHandle<B>>,
    /// The cross-edge store: a B over the full **global** universe that
    /// holds exactly the edges whose endpoints live on different shards.
    /// Running it as a server (durable in durable mode) gives cross
    /// edges the same round/recovery semantics as shard edges.
    cross: ShardHandle<B>,
    boundary: Mutex<BoundaryCache<B>>,
    metrics: Arc<ShardMetrics>,
    /// The outer server's recorder (shared, not the shards'): the
    /// coordinator runs inside the outer writer's apply, so spans are
    /// attributed to [`TraceRecorder::current_round`], which that writer
    /// sets before each round.
    trace: Option<TraceRecorder>,
    supports: [bool; 3],
}

/// File name of the topology manifest inside a sharded base directory.
const MANIFEST_FILE: &str = "shard.manifest";

/// The durable topology manifest: shard assignment is part of durable
/// state, so reopening a base directory with a different vertex count,
/// shard count, or map kind must fail loudly instead of scattering the
/// recovered edges across a different partition.
fn check_manifest(base: &Path, map: &ShardMap) -> Result<(), DynConError> {
    let path = base.join(MANIFEST_FILE);
    let expect = format!(
        "dyncon-shard-v1\nnum_vertices={}\nshards={}\nkind={:?}\n",
        map.num_vertices(),
        map.num_shards(),
        map.kind()
    );
    match std::fs::read_to_string(&path) {
        Ok(found) if found == expect => Ok(()),
        Ok(found) => Err(DynConError::Corrupt {
            path: path.display().to_string(),
            offset: 0,
            detail: format!(
                "shard topology mismatch: directory was created as {:?}, reopened as {:?}",
                found.lines().skip(1).collect::<Vec<_>>(),
                expect.lines().skip(1).collect::<Vec<_>>()
            ),
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::create_dir_all(base).map_err(|e| storage_err(base, e))?;
            // Durably, like a snapshot: a manifest lost to a crash right
            // after the first open would let a reopen accept any topology.
            write_file_atomic(base, MANIFEST_FILE, expect.as_bytes())
        }
        Err(e) => Err(storage_err(&path, e)),
    }
}

/// The configuration every shard server (and the cross store) starts
/// with: the outer config's `worker_threads`, the pooled registry, and
/// otherwise the defaults. Always deterministic: a shard round is one
/// coordinator sub-batch, sealed explicitly — required for
/// byte-identical per-shard WAL replay, and free (sole client, no
/// reordering).
pub(crate) fn shard_server_config(config: &ShardConfig, registry: &Registry) -> ServerConfig {
    ServerConfig {
        deterministic: true,
        queue_capacity: 2,
        worker_threads: config.server.worker_threads,
        metrics: Some(registry.clone()),
        ..ServerConfig::default()
    }
}

impl<B> ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    /// Partition `num_vertices` per `config` and start every shard
    /// server (plus the cross-edge store), pooling all their metrics in
    /// `registry`. With [`ShardConfig::durable`] set, each shard opens
    /// (and recovers) its own WAL/snapshot directory under the base dir.
    pub fn start(
        num_vertices: usize,
        config: &ShardConfig,
        registry: Registry,
    ) -> Result<Self, DynConError> {
        let map = ShardMap::new(num_vertices, config.shards, config.kind)?;
        // Probe B's static capabilities once, so admission layers above
        // can filter without a live instance.
        let probe: B = Builder::new(1).build()?;
        let supports =
            [OpKind::Insert, OpKind::Delete, OpKind::Query].map(|kind| probe.supports(kind));
        drop(probe);
        let metrics = ShardMetrics::register(&registry);
        let server_config = || shard_server_config(config, &registry);
        let mut shards = Vec::with_capacity(map.num_shards());
        let cross = match &config.durable {
            None => {
                for s in 0..map.num_shards() {
                    // A hash partition can leave a shard without vertices;
                    // its backend still needs a non-empty universe (one
                    // dummy vertex no operation ever routes to).
                    let b: B = Builder::new(map.shard_size(s).max(1)).build()?;
                    shards.push(ShardHandle::Mem(Box::new(ConnServer::start(
                        b,
                        server_config(),
                    ))));
                }
                let b: B = Builder::new(num_vertices).build()?;
                ShardHandle::Mem(Box::new(ConnServer::start(b, server_config())))
            }
            Some(d) => {
                check_manifest(&d.dir, &map)?;
                for s in 0..map.num_shards() {
                    let dir = d.dir.join(format!("shard-{s:03}"));
                    let (srv, _meta) = DurableServer::open(
                        &dir,
                        map.shard_size(s).max(1),
                        server_config(),
                        d.config.clone(),
                    )?;
                    shards.push(ShardHandle::Durable(Box::new(srv)));
                }
                let (srv, _meta) = DurableServer::open(
                    &d.dir.join("cross"),
                    num_vertices,
                    server_config(),
                    d.config.clone(),
                )?;
                ShardHandle::Durable(Box::new(srv))
            }
        };
        let boundary = Mutex::new(BoundaryCache::stale(map.num_shards()));
        Ok(Self {
            map,
            shards,
            cross,
            boundary,
            metrics,
            trace: config.server.trace.clone(),
            supports,
        })
    }

    /// The partition in force.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The coordinator's metric handles (pooled in the registry passed
    /// to [`ShardedBackend::start`]).
    pub fn metrics(&self) -> &ShardMetrics {
        &self.metrics
    }

    /// Stop every shard server (and the cross store), returning their
    /// backends and counters in canonical shard order.
    pub fn shutdown(self) -> Result<ShardedShutdown<B>, DynConError> {
        let mut shards = Vec::with_capacity(self.shards.len());
        for handle in self.shards {
            shards.push(handle.join()?);
        }
        let cross = self.cross.join()?;
        Ok(ShardedShutdown { shards, cross })
    }

    /// Translate a mutation op's endpoints to a shard's local id space.
    fn to_local(&self, op: Op) -> Op {
        let (u, v) = op.endpoints();
        let (lu, lv) = (self.map.local_of(u), self.map.local_of(v));
        match op {
            Op::Insert(..) => Op::Insert(lu, lv),
            Op::Delete(..) => Op::Delete(lu, lv),
            Op::Query(..) => Op::Query(lu, lv),
        }
    }

    /// Execute one mutation segment (a run of non-query ops): decompose
    /// into per-shard sub-batches plus the cross-shard batch, submit and
    /// seal each as one commit round in canonical shard order, run them
    /// in parallel on the shards' writer threads, then wait every ticket
    /// (canonical order again) and sum the round counts.
    fn run_mutation_segment(&self, segment: &[Op]) -> Result<(usize, usize), DynConError> {
        // Spans attribute to the outer round in flight: the segment runs
        // inside the outer writer's apply, which set `current_round`.
        let round = self.trace.as_ref().map(|t| t.current_round());
        let started = Instant::now();
        let mut per_shard: Vec<Vec<Op>> = vec![Vec::new(); self.map.num_shards()];
        let mut cross_ops: Vec<Op> = Vec::new();
        for &op in segment {
            let (u, v) = op.endpoints();
            if self.map.is_cross(u, v) {
                cross_ops.push(op);
            } else {
                per_shard[self.map.shard_of(u)].push(self.to_local(op));
            }
        }
        self.metrics.decompose_ns.record_duration(started.elapsed());
        if let (Some(t), Some(round)) = (&self.trace, round) {
            t.record(round, Stage::Decompose, started, segment.len() as u64);
        }
        // (ticket, shard id or None for the cross store, submit instant,
        // sub-batch size) — the instant is only taken when tracing.
        let mut tickets = Vec::new();
        for (s, ops) in per_shard.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let ops_n = ops.len() as u64;
            let submitted = self.trace.as_ref().map(|_| Instant::now());
            let shard = self.shards[s].conn();
            let ticket = shard.submit_with(ops, SubmitOptions::new().as_client(COORDINATOR))?;
            shard.seal_round();
            self.metrics.subrounds.inc();
            tickets.push((ticket, Some(s as u32), submitted, ops_n));
        }
        if !cross_ops.is_empty() {
            let ops_n = cross_ops.len() as u64;
            let submitted = self.trace.as_ref().map(|_| Instant::now());
            let cross = self.cross.conn();
            let ticket =
                cross.submit_with(cross_ops, SubmitOptions::new().as_client(COORDINATOR))?;
            cross.seal_round();
            self.metrics.subrounds.inc();
            tickets.push((ticket, None, submitted, ops_n));
        }
        let (mut inserted, mut deleted) = (0usize, 0usize);
        for (ticket, shard, submitted, ops_n) in tickets {
            // The coordinator's sub-batch is the only request of its
            // shard round, so the round-level counts are its own.
            let result = ticket.wait()?;
            // Sub-round latency as the coordinator observes it: submit
            // through commit acknowledgement, waited in canonical order
            // (a span can include time spent queued behind an earlier
            // shard's wait).
            if let (Some(t), Some(round), Some(submitted)) = (&self.trace, round, submitted) {
                match shard {
                    Some(s) => t.record_shard(round, Stage::ShardRound, submitted, ops_n, s),
                    None => t.record(round, Stage::CrossRound, submitted, ops_n),
                }
            }
            inserted += result.inserted;
            deleted += result.deleted;
        }
        if inserted + deleted > 0 {
            // Some edge set changed, so the contraction may be stale.
            // Zero counts mean every insert was a duplicate and every
            // delete was absent — edge sets unchanged, partition
            // unchanged, cache still valid.
            self.boundary.lock().unwrap().fresh = false;
        }
        Ok((inserted, deleted))
    }

    /// Rebuild the boundary contraction if any mutation staled it.
    fn ensure_boundary(&self, cache: &mut BoundaryCache<B>) -> Result<(), DynConError> {
        if cache.fresh {
            return Ok(());
        }
        let rebuild_started = self.trace.as_ref().map(|_| Instant::now());
        let cross_edges = self.cross.conn().inspect(|b| b.export_edges())?;
        // Distinct cross-edge endpoints per shard, ascending local ids —
        // the canonical input order `component_groups` labels against.
        let mut endpoints: Vec<Vec<u32>> = vec![Vec::new(); self.map.num_shards()];
        for &(u, v) in &cross_edges {
            endpoints[self.map.shard_of(u)].push(self.map.local_of(u));
            endpoints[self.map.shard_of(v)].push(self.map.local_of(v));
        }
        let mut reps: Vec<Vec<u32>> = Vec::with_capacity(endpoints.len());
        let mut labelled: Vec<Vec<(u32, u32)>> = Vec::with_capacity(endpoints.len());
        for (s, mut eps) in endpoints.into_iter().enumerate() {
            eps.sort_unstable();
            eps.dedup();
            if eps.is_empty() {
                reps.push(Vec::new());
                labelled.push(Vec::new());
                continue;
            }
            let input = eps.clone();
            let labels = self.shards[s]
                .conn()
                .inspect(move |b| component_groups(b, &input))?;
            // Sorted input ⇒ each label is its component's minimum
            // endpoint, so the distinct labels are already the ascending
            // representative list.
            let mut r = labels.clone();
            r.sort_unstable();
            r.dedup();
            labelled.push(eps.into_iter().zip(labels).collect());
            reps.push(r);
        }
        let mut offsets = Vec::with_capacity(reps.len());
        let mut nodes = 0usize;
        for r in &reps {
            offsets.push(nodes);
            nodes += r.len();
        }
        let graph = if nodes == 0 {
            None
        } else {
            // Endpoint → node, per shard (every cross-edge endpoint has
            // a node by construction).
            let node_of: Vec<HashMap<u32, u32>> = labelled
                .iter()
                .enumerate()
                .map(|(s, pairs)| {
                    pairs
                        .iter()
                        .map(|&(endpoint, label)| {
                            let pos = reps[s]
                                .binary_search(&label)
                                .expect("every label is a representative");
                            (endpoint, (offsets[s] + pos) as u32)
                        })
                        .collect()
                })
                .collect();
            let mut g: B = Builder::new(nodes).build()?;
            // Contract in the cross store's canonical (sorted) edge
            // order; node pairs are normalized explicitly because the
            // shard-major node numbering need not follow global order.
            let contracted: Vec<(u32, u32)> = cross_edges
                .iter()
                .map(|&(u, v)| {
                    let nu = node_of[self.map.shard_of(u)][&self.map.local_of(u)];
                    let nv = node_of[self.map.shard_of(v)][&self.map.local_of(v)];
                    (nu.min(nv), nu.max(nv))
                })
                .collect();
            g.batch_insert(&contracted)?;
            self.metrics.boundary_ops.record(contracted.len() as u64);
            Some(g)
        };
        self.metrics.boundary_rebuilds.inc();
        if let (Some(t), Some(started)) = (&self.trace, rebuild_started) {
            t.record(
                t.current_round(),
                Stage::BoundaryRebuild,
                started,
                cross_edges.len() as u64,
            );
        }
        *cache = BoundaryCache {
            fresh: true,
            reps,
            offsets,
            nodes,
            graph,
        };
        Ok(())
    }

    /// Map each of `locals` (ascending local ids in shard `s`) to its
    /// boundary node, if its local component holds one.
    fn nodes_of(
        &self,
        cache: &BoundaryCache<B>,
        s: usize,
        locals: &[u32],
    ) -> Result<Vec<Option<u32>>, DynConError> {
        if cache.reps[s].is_empty() {
            return Ok(vec![None; locals.len()]);
        }
        // Representatives first: any queried vertex locally connected to
        // a boundary component gets that component's representative as
        // its label (reps are pairwise disconnected, and each precedes
        // every queried vertex in input order).
        let mut input = cache.reps[s].clone();
        let reps_len = input.len();
        input.extend_from_slice(locals);
        let labels = self.shards[s]
            .conn()
            .inspect(move |b| component_groups(b, &input))?;
        Ok(labels[reps_len..]
            .iter()
            .map(|label| {
                cache.reps[s]
                    .binary_search(label)
                    .ok()
                    .map(|pos| (cache.offsets[s] + pos) as u32)
            })
            .collect())
    }

    /// Answer a query run: same-shard pairs locally first, everything
    /// still unresolved through the boundary graph.
    fn try_batch_connected(&self, pairs: &[(u32, u32)]) -> Result<Vec<bool>, DynConError> {
        let mut answers = vec![false; pairs.len()];
        let mut local: Vec<Vec<(usize, (u32, u32))>> = vec![Vec::new(); self.map.num_shards()];
        let mut unresolved: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if self.map.is_cross(u, v) {
                unresolved.push(i);
            } else {
                local[self.map.shard_of(u)].push((i, (self.map.local_of(u), self.map.local_of(v))));
            }
        }
        for (s, items) in local.iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let queries: Vec<(u32, u32)> = items.iter().map(|&(_, p)| p).collect();
            let local_answers = self.shards[s]
                .conn()
                .inspect(move |b| b.batch_connected(&queries))?;
            for (&(i, _), hit) in items.iter().zip(local_answers) {
                if hit {
                    answers[i] = true;
                } else {
                    // Locally disconnected pairs can still meet through
                    // other shards — boundary resolution decides.
                    unresolved.push(i);
                }
            }
        }
        if unresolved.is_empty() {
            return Ok(answers);
        }
        unresolved.sort_unstable();
        self.metrics.cross_queries.record(unresolved.len() as u64);
        let round = self.trace.as_ref().map_or(0, |t| t.current_round());
        dyncon_trace::traced(
            self.trace.as_ref(),
            round,
            Stage::CrossQuery,
            unresolved.len() as u64,
            || -> Result<(), DynConError> {
                let mut cache = self.boundary.lock().unwrap();
                self.ensure_boundary(&mut cache)?;
                if cache.nodes == 0 {
                    // No cross edges anywhere: nothing unresolved can
                    // connect.
                    return Ok(());
                }
                // Resolve each distinct queried endpoint to its boundary
                // node.
                let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.map.num_shards()];
                for &i in &unresolved {
                    for u in [pairs[i].0, pairs[i].1] {
                        per_shard[self.map.shard_of(u)].push(self.map.local_of(u));
                    }
                }
                let mut node_of: HashMap<u32, u32> = HashMap::new();
                for (s, mut locals) in per_shard.into_iter().enumerate() {
                    if locals.is_empty() {
                        continue;
                    }
                    locals.sort_unstable();
                    locals.dedup();
                    for (&local_id, node) in locals.iter().zip(self.nodes_of(&cache, s, &locals)?) {
                        if let Some(node) = node {
                            node_of.insert(self.map.globals(s)[local_id as usize], node);
                        }
                    }
                }
                let graph = cache.graph.as_ref().expect("nodes > 0 implies a graph");
                let mut boundary_pairs: Vec<(u32, u32)> = Vec::new();
                let mut boundary_slots: Vec<usize> = Vec::new();
                for &i in &unresolved {
                    let (u, v) = pairs[i];
                    // An endpoint with no boundary node lives in a
                    // component confined to its shard — and it was not
                    // locally connected.
                    if let (Some(&nu), Some(&nv)) = (node_of.get(&u), node_of.get(&v)) {
                        boundary_pairs.push((nu, nv));
                        boundary_slots.push(i);
                    }
                }
                for (&i, hit) in boundary_slots
                    .iter()
                    .zip(graph.batch_connected(&boundary_pairs))
                {
                    answers[i] = hit;
                }
                Ok(())
            },
        )?;
        Ok(answers)
    }
}

/// Everything [`ShardedBackend::shutdown`] hands back.
#[derive(Debug)]
pub struct ShardedShutdown<B> {
    /// Per-shard outcomes, canonical shard order.
    pub shards: Vec<ShardShutdown<B>>,
    /// The cross-edge store's outcome.
    pub cross: ShardShutdown<B>,
}

impl<B> Connectivity for ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn num_vertices(&self) -> usize {
        self.map.num_vertices()
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        self.batch_connected(&[(u, v)])[0]
    }

    fn batch_connected(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        // The `&self` query surface is the unchecked fast path; a shard
        // service failing mid-query is a panic, like any other internal
        // invariant violation on this path.
        self.try_batch_connected(pairs)
            .expect("sharded batch_connected: shard service failed")
    }

    fn num_components(&self) -> usize {
        // Each cross-edge merge collapses boundary nodes into boundary
        // components: Σ local components − (nodes − contracted comps).
        let mut total = 0usize;
        for (s, shard) in self.shards.iter().enumerate() {
            if self.map.shard_size(s) > 0 {
                total += shard
                    .conn()
                    .inspect(|b| b.num_components())
                    .expect("sharded num_components: shard service failed");
            }
        }
        let mut cache = self.boundary.lock().unwrap();
        self.ensure_boundary(&mut cache)
            .expect("sharded num_components: boundary rebuild failed");
        match &cache.graph {
            None => total,
            Some(g) => total - (cache.nodes - g.num_components()),
        }
    }

    fn component_size(&self, v: u32) -> u64 {
        let s = self.map.shard_of(v);
        let local = self.map.local_of(v);
        let local_size = || {
            self.shards[s]
                .conn()
                .inspect(move |b| b.component_size(local))
                .expect("sharded component_size: shard service failed")
        };
        let mut cache = self.boundary.lock().unwrap();
        self.ensure_boundary(&mut cache)
            .expect("sharded component_size: boundary rebuild failed");
        let node = match self
            .nodes_of(&cache, s, &[local])
            .expect("sharded component_size: shard service failed")[0]
        {
            None => return local_size(),
            Some(node) => node,
        };
        // v's global component is the disjoint union of the local
        // components of every boundary node reachable from v's node.
        let graph = cache.graph.as_ref().expect("a node implies a graph");
        let probes: Vec<(u32, u32)> = (0..cache.nodes as u32).map(|m| (node, m)).collect();
        let reachable = graph.batch_connected(&probes);
        let mut total = 0u64;
        for (s2, shard) in self.shards.iter().enumerate() {
            let members: Vec<u32> = cache.reps[s2]
                .iter()
                .enumerate()
                .filter(|&(pos, _)| reachable[cache.offsets[s2] + pos])
                .map(|(_, &rep)| rep)
                .collect();
            if members.is_empty() {
                continue;
            }
            total += shard
                .conn()
                .inspect(move |b| members.iter().map(|&r| b.component_size(r)).sum::<u64>())
                .expect("sharded component_size: shard service failed");
        }
        total
    }
}

impl<B> BatchDynamic for ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    fn batch_insert(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        let ops: Vec<Op> = edges.iter().map(|&(u, v)| Op::Insert(u, v)).collect();
        self.apply(&ops).map(|r| r.inserted)
    }

    fn batch_delete(&mut self, edges: &[(u32, u32)]) -> Result<usize, DynConError> {
        let ops: Vec<Op> = edges.iter().map(|&(u, v)| Op::Delete(u, v)).collect();
        self.apply(&ops).map(|r| r.deleted)
    }

    fn apply(&mut self, ops: &[Op]) -> Result<BatchResult, DynConError> {
        let n = self.map.num_vertices();
        for op in ops {
            let (u, v) = op.endpoints();
            validate_vertex(n, u)?;
            validate_vertex(n, v)?;
        }
        // Same run boundaries as the default `apply`, but mutation runs
        // of different kinds share one decomposition segment: each shard
        // applies its sub-batch as a mixed-op batch, splitting runs
        // itself, so the order of effects is identical — and queries
        // still observe exactly the prefix before their run.
        let mut result = BatchResult::default();
        let mut i = 0;
        while i < ops.len() {
            if ops[i].kind() == OpKind::Query {
                let mut run: Vec<(u32, u32)> = Vec::new();
                while i < ops.len() && ops[i].kind() == OpKind::Query {
                    run.push(ops[i].endpoints());
                    i += 1;
                }
                result.answers.extend(self.try_batch_connected(&run)?);
            } else {
                let start = i;
                while i < ops.len() && ops[i].kind() != OpKind::Query {
                    i += 1;
                }
                let (inserted, deleted) = self.run_mutation_segment(&ops[start..i])?;
                result.inserted += inserted;
                result.deleted += deleted;
            }
        }
        Ok(result)
    }

    fn supports(&self, kind: OpKind) -> bool {
        self.supports[match kind {
            OpKind::Insert => 0,
            OpKind::Delete => 1,
            OpKind::Query => 2,
        }]
    }

    fn check(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            shard
                .conn()
                .inspect(|b| b.check())
                .map_err(|e| format!("shard {s}: {e}"))?
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        self.cross
            .conn()
            .inspect(|b| b.check())
            .map_err(|e| format!("cross store: {e}"))?
            .map_err(|e| format!("cross store: {e}"))?;
        Ok(())
    }
}

impl<B> ExportEdges for ShardedBackend<B>
where
    B: BatchDynamic + BuildFrom + ExportEdges + Send + 'static,
{
    fn export_edges(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let local = shard
                .conn()
                .inspect(|b| b.export_edges())
                .expect("sharded export: shard service failed");
            let globals = self.map.globals(s);
            // Local ids ascend with global ids, so locally-normalized
            // pairs stay normalized after translation.
            edges.extend(
                local
                    .iter()
                    .map(|&(a, b)| (globals[a as usize], globals[b as usize])),
            );
        }
        edges.extend(
            self.cross
                .conn()
                .inspect(|b| b.export_edges())
                .expect("sharded export: cross store failed"),
        );
        edges.sort_unstable();
        edges
    }
}
