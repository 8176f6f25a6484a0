//! # dyncon-server
//!
//! A **group-commit serving frontend** for any [`dyncon_api::BatchDynamic`]
//! backend: many concurrent client threads submit small requests of mixed
//! [`dyncon_api::Op`]s, and a single writer thread coalesces them into one
//! large batch per **commit round** — exactly the batch shape the paper's
//! structure (Acar–Anderson–Blelloch–Dhulipala, SPAA 2019) gets its
//! parallelism from. The whole point of batch-dynamic connectivity is that
//! a batch of `k` operations costs `O(k · lg(1 + n/k))` rather than
//! `k · O(lg n)`; the frontend is what *creates* those batches from
//! traffic that arrives one request at a time.
//!
//! ## Model
//!
//! * [`ConnServer::submit_with`] enqueues a request (an ordered `Vec<Op>`)
//!   under [`SubmitOptions`] and returns a [`Ticket`]. The request's
//!   operations are validated against the vertex universe up front, so a
//!   round can never fail with [`DynConError::VertexOutOfRange`] on
//!   another client's behalf.
//! * The admission queue is **bounded** ([`ServerConfig::queue_capacity`]):
//!   a full queue rejects with [`DynConError::Backpressure`]
//!   ([`SubmitOptions::blocking`] submissions wait for space instead).
//! * The writer commits a round when the pending ops reach
//!   [`ServerConfig::max_batch_ops`], or the oldest pending request has
//!   waited [`ServerConfig::max_coalesce_wait`], or the server is closing.
//!   Each round is **one** [`dyncon_api::BatchDynamic::apply`] call.
//! * [`Ticket::wait`] blocks (condvar, no async runtime) until the round
//!   containing the request commits, then yields the request's own query
//!   answers in operation order ([`RequestResult`]).
//! * [`ConnServer::close`] stops admission ([`DynConError::ServiceClosed`]
//!   thereafter) and [`ConnServer::join`] drains every accepted request
//!   before returning the backend in a [`ServiceReport`].
//!
//! ## Deterministic mode
//!
//! [`ServerConfig::deterministic`] extends the workspace determinism
//! contract (byte-identical results at any thread count, PR 3) to **any
//! client interleaving**: rounds have *explicit* boundaries — requests
//! accumulate until [`ConnServer::seal_round`] — and each sealed round is
//! canonically ordered by `(client id, per-client submission index)`
//! before it is applied. However the OS schedules the submitting threads,
//! the committed rounds (op order **and** [`dyncon_api::BatchResult`]s,
//! recorded in [`RoundRecord`]s when [`ServerConfig::record_rounds`] is
//! on) are byte-identical to a serial replay of the same rounds.
//! `tests/service_stress.rs` holds this against the naive oracle at
//! 1/2/4 worker threads.
//!
//! ## Durability hook
//!
//! [`ServerConfig::round_hook`] runs once per round, after the round's
//! operations are fixed and before they are applied — the seam the
//! `dyncon-durable` crate plugs its write-ahead log into, so a single
//! append-and-fsync covers every request of the round (group fsync). A
//! hook failure fails the round's tickets with the hook's typed error
//! and stops the service: a round that cannot be made durable never
//! commits.
//!
//! ## Versioned reads (MVCC)
//!
//! A server started with [`ConnServer::start_versioned`] assigns every
//! sealed commit round a [`Version`] (`= `[`ServerConfig::first_version`]
//! `+ round`; the durable stack passes its recovered WAL round id as
//! `first_version`, so versions are stable across process lifetimes) and
//! publishes an immutable [`ReadView`] of the post-round state —
//! retained for the last [`ServerConfig::retain_views`] versions (0, the
//! default, publishes nothing). Each view after the first is the
//! previous one advanced by the round's ops
//! ([`ReadView::advance`](dyncon_api::ReadView::advance)), not a
//! re-export of the whole graph.
//! [`ConnServer::read_view`] / [`ConnServer::read_view_at`] (via the
//! [`VersionedRead`] trait) hand out views without ever blocking the
//! writer; versions outside the window fail with the typed
//! [`DynConError::UnknownVersion`]. [`ConnServer::read_async`] runs view
//! queries on a pool of [`ServerConfig::reader_threads`] reader threads,
//! off the commit path, returning a [`ReadHandle`].
//!
//! The unified [`ConnServer::submit_with`] entry point takes
//! [`SubmitOptions`] — client identity, blocking, and an optional
//! [`SubmitOptions::min_version`] read-your-writes fence that holds
//! admission until the named version has committed.
//!
//! ## Observability
//!
//! The server records a [`ServerMetrics`] bundle (queue depth with
//! high-water mark, backpressure and admission rejects, round size,
//! coalesce wait, per-round apply latency, read-view request/age/publish
//! costs and the retained-snapshot gauge) into the
//! [`ServerConfig::metrics`] registry — or a private one when none is
//! passed. Snapshots come from [`ConnServer::metrics_snapshot`] live or
//! [`ServiceReport::metrics`] at join. Metrics are observational only:
//! nothing reads them on a decision path, so enabling them leaves every
//! committed round byte-identical (held in `tests/determinism.rs`).
//!
//! Where metrics aggregate, **tracing attributes**: attach a
//! [`TraceRecorder`] via [`ServerConfig::trace`] and every pipeline
//! stage of every round (coalesce wait, WAL append/fsync through the
//! hooks, apply, snapshot publish, ticket fill, plus the reader path)
//! records a span into a bounded ring buffer, folded into per-round
//! stage breakdowns with slow-round capture. Read the slowest round's
//! breakdown from [`ServiceReport::slowest_round`], export the ring as
//! Chrome-trace JSON, or serve both live with
//! [`dyncon_trace::serve_telemetry`]. Same observational-only contract
//! as metrics, proven by the same determinism suite.

mod config;
mod metrics;
mod server;
mod ticket;
mod views;

pub use config::{RoundHook, ServerConfig, SubmitOptions};
pub use metrics::ServerMetrics;
pub use server::{ConnServer, RoundRecord, ServiceReport};
pub use ticket::{RequestResult, Ticket};
pub use views::ReadHandle;

// Re-exported so callers can match on server rejections and use the
// versioned-read vocabulary without adding a direct dyncon-api
// dependency.
pub use dyncon_api::{DynConError, ReadView, Version, VersionedRead};

// Re-exported so attaching a health engine ([`ServerConfig::health`])
// needs no direct dyncon-export dependency.
pub use dyncon_export::{HealthConfig, HealthState};

// Re-exported so attaching a recorder and reading
// [`ServiceReport::slowest_round`] need no direct dyncon-trace
// dependency.
pub use dyncon_trace::{RoundTrace, TraceRecorder};
