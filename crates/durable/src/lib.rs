//! # dyncon-durable
//!
//! Durability for the serving layer: a **write-ahead log**, **atomic
//! snapshots**, and **deterministic crash recovery** for any
//! [`dyncon_api::BatchDynamic`] backend. The paper's structures are
//! in-memory; this crate is what lets a `dyncon-server` process die and
//! come back without losing a committed round — the etcd-style
//! group-commit-WAL + periodic-snapshot + deterministic-replay pattern.
//!
//! ## The pieces
//!
//! * [`WalWriter`] / [`read_wal`] — a checksummed, length-framed binary
//!   log of sealed rounds (the compact [`dyncon_api::encode_ops`]
//!   encoding), with [`FsyncPolicy`] knobs (`every_round`,
//!   `every_n_rounds`, `never`) and torn-tail tolerance on recovery:
//!   a truncated or checksum-failing **final** record is dropped
//!   cleanly; corruption **mid-log** is [`DynConError::Corrupt`].
//! * [`Snapshot`] — the canonical export surface
//!   ([`dyncon_api::ExportEdges`]: normalized sorted edge list + vertex
//!   count) plus the next round id, written with write-to-temp + fsync +
//!   rename atomicity. [`compact`] snapshots and then truncates the WAL.
//! * [`recover`] — rebuild any `BatchDynamic + BuildFrom` backend: load
//!   the snapshot, replay the WAL tail **one `apply` per logged round**.
//!   Because replay preserves the exact batch boundaries the writer
//!   committed, the workspace determinism contract upgrades recovery to
//!   byte-equivalence: a backend recovered from an uncompacted log is
//!   indistinguishable — results *and* internal labelling — from one
//!   that never crashed (`tests/crash_recovery.rs`).
//! * [`DurableServer`] — a [`dyncon_server::ConnServer`] wired to the
//!   log through [`dyncon_server::ServerConfig::round_hook`]: each
//!   sealed round is appended and fsynced *before* it is applied, so
//!   group commit and group fsync coincide (one fsync per round, not per
//!   request) and a resolved ticket implies durability.
//! * [`DurableMetrics`] — WAL append bytes/latency, fsync counts, abort
//!   and recovery-replay counters, snapshot timings, recorded into the
//!   same `dyncon-metrics` registry as the serving metrics
//!   ([`dyncon_server::ServerConfig::metrics`]); observational only,
//!   never an input to fsync policy or replay.
//!
//! ## Crash-consistency model
//!
//! | event | guarantee |
//! |---|---|
//! | ticket resolved, `every_round` fsync | round is on stable storage and will be recovered |
//! | ticket resolved, `every_n_rounds(n)` | round survives unless the crash eats the last `< n` unsynced rounds |
//! | crash mid-append | torn tail dropped at recovery; no client saw the round commit |
//! | crash between snapshot rename and WAL truncate (in [`compact`]) | recovery skips the already-folded rounds |
//! | bit rot / manual edit mid-log | typed [`DynConError::Corrupt`], never a panic, never silent data invention |

mod metrics;
mod recover;
mod server;
mod snapshot;
mod wal;

pub use metrics::DurableMetrics;
pub use recover::{compact, recover, recover_with, RoundMeta};
pub use server::{DurableConfig, DurableReport, DurableServer};
pub use snapshot::{write_file_atomic, Snapshot, SNAPSHOT_FILE};
pub use wal::{read_wal, storage_err, FsyncPolicy, WalReadout, WalRecord, WalWriter, WAL_FILE};

// Re-exported so callers can match durable failures without a direct
// dyncon-api dependency.
pub use dyncon_api::DynConError;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory under the system temp dir (not created).
/// Test/bench helper — durable state needs real files, and the workspace
/// has no tempdir dependency. Callers may delete it; leaked ones land in
/// the OS temp cleanup.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dyncon-durable-{}-{}-{}",
        std::process::id(),
        tag,
        unique
    ))
}
