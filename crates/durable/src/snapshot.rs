//! Atomic, checksummed snapshots of a connectivity backend.
//!
//! A snapshot is the canonical export surface of any backend — the
//! vertex count plus the normalized, sorted edge list
//! ([`dyncon_api::ExportEdges`]) — together with `next_round`, the WAL
//! round id the snapshot is current as of. Rebuilding any
//! [`dyncon_api::BuildFrom`] backend from it and replaying WAL records
//! `>= next_round` reproduces the pre-crash graph.
//!
//! ## On-disk format
//!
//! ```text
//! snapshot.bin := magic "DCSNAP01" (8 bytes)
//!                 num_vertices u64 LE
//!                 next_round   u64 LE
//!                 num_edges    u64 LE
//!                 (u u32 LE, v u32 LE) * num_edges
//!                 checksum     u64 LE   -- over everything after magic
//! ```
//!
//! ## Atomicity
//!
//! [`Snapshot::write_atomic`] writes to `snapshot.bin.tmp`, fsyncs,
//! renames over `snapshot.bin`, then fsyncs the directory: readers see
//! either the old snapshot or the new one, never a torn in-between. A
//! snapshot is therefore never tail-tolerant — any validation failure in
//! one is [`DynConError::Corrupt`].

use crate::wal::storage_err;
use dyncon_api::{DynConError, ExportEdges};
use dyncon_primitives::frame::word_chain;
use dyncon_primitives::hash64;
use std::io::Write;
use std::path::Path;

/// File name of the snapshot inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAP_MAGIC: [u8; 8] = *b"DCSNAP01";

/// A complete, backend-independent image of the graph as of a WAL round
/// boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Size of the vertex universe.
    pub num_vertices: usize,
    /// First WAL round id NOT folded into this snapshot: recovery replays
    /// records `>= next_round` on top.
    pub next_round: u64,
    /// The edge set, normalized (`u < v`) and sorted — canonical bytes.
    pub edges: Vec<(u32, u32)>,
}

/// Word-chain checksum over the snapshot body, seeded by the magic.
fn body_checksum(body: &[u8]) -> u64 {
    word_chain(hash64(u64::from_le_bytes(SNAP_MAGIC)), body)
}

/// Write `bytes` to `dir/name` atomically: write a temp file, fsync it,
/// rename it over `name`, then fsync the directory. Readers see either
/// the old file or the new one, never a torn in-between, and the rename
/// survives a crash.
pub fn write_file_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), DynConError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let dst = dir.join(name);
    let mut file = std::fs::File::create(&tmp).map_err(|e| storage_err(&tmp, e))?;
    file.write_all(bytes).map_err(|e| storage_err(&tmp, e))?;
    file.sync_all().map_err(|e| storage_err(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, &dst).map_err(|e| storage_err(&dst, e))?;
    // Make the rename itself durable. Directory fsync is best-effort:
    // not every filesystem supports opening a directory for sync.
    let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
    Ok(())
}

impl Snapshot {
    /// Capture a backend through its canonical export surface.
    pub fn capture<B: ExportEdges>(backend: &B, next_round: u64) -> Self {
        Self {
            num_vertices: backend.num_vertices(),
            next_round,
            edges: backend.export_edges(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(24 + self.edges.len() * 8 + SNAP_MAGIC.len() + 8);
        body.extend_from_slice(&(self.num_vertices as u64).to_le_bytes());
        body.extend_from_slice(&self.next_round.to_le_bytes());
        body.extend_from_slice(&(self.edges.len() as u64).to_le_bytes());
        for &(u, v) in &self.edges {
            body.extend_from_slice(&u.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = body_checksum(&body);
        let mut bytes = Vec::with_capacity(SNAP_MAGIC.len() + body.len() + 8);
        bytes.extend_from_slice(&SNAP_MAGIC);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Write the snapshot into `dir` with [`write_file_atomic`].
    pub fn write_atomic(&self, dir: &Path) -> Result<(), DynConError> {
        write_file_atomic(dir, SNAPSHOT_FILE, &self.encode())
    }

    /// Load the snapshot from `dir`. `Ok(None)` if none exists; any
    /// validation failure is [`DynConError::Corrupt`] (snapshots are
    /// written atomically, so there is no torn tail to tolerate).
    pub fn load(dir: &Path) -> Result<Option<Self>, DynConError> {
        let path = dir.join(SNAPSHOT_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(storage_err(&path, e)),
        };
        let corrupt = |offset: u64, detail: &str| DynConError::Corrupt {
            path: path.display().to_string(),
            offset,
            detail: detail.to_string(),
        };
        if bytes.len() < SNAP_MAGIC.len() + 24 + 8 {
            return Err(corrupt(bytes.len() as u64, "snapshot too short"));
        }
        if bytes[..8] != SNAP_MAGIC {
            return Err(corrupt(0, "bad snapshot magic"));
        }
        let body = &bytes[8..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if body_checksum(body) != stored {
            return Err(corrupt(8, "snapshot checksum mismatch"));
        }
        let num_vertices = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")) as usize;
        let next_round = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
        let num_edges = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes")) as usize;
        if body.len() != 24 + num_edges * 8 {
            return Err(corrupt(16, "edge count disagrees with body length"));
        }
        let edges = body[24..]
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                    u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
                )
            })
            .collect();
        Ok(Some(Self {
            num_vertices,
            next_round,
            edges,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = crate::scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Snapshot {
        Snapshot {
            num_vertices: 100,
            next_round: 42,
            edges: vec![(0, 1), (0, 99), (5, 7)],
        }
    }

    #[test]
    fn write_load_round_trips() {
        let dir = scratch("snap-roundtrip");
        assert_eq!(Snapshot::load(&dir).unwrap(), None);
        let s = sample();
        s.write_atomic(&dir).unwrap();
        assert_eq!(Snapshot::load(&dir).unwrap(), Some(s.clone()));
        // Overwrite atomically with a newer snapshot.
        let s2 = Snapshot {
            next_round: 50,
            edges: vec![(1, 2)],
            ..s
        };
        s2.write_atomic(&dir).unwrap();
        assert_eq!(Snapshot::load(&dir).unwrap(), Some(s2));
        // The temp file never survives a successful write.
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
    }

    #[test]
    fn empty_graph_snapshot() {
        let dir = scratch("snap-empty");
        let s = Snapshot {
            num_vertices: 8,
            next_round: 0,
            edges: Vec::new(),
        };
        s.write_atomic(&dir).unwrap();
        assert_eq!(Snapshot::load(&dir).unwrap(), Some(s));
    }

    #[test]
    fn encoding_is_canonical() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn corruption_is_typed_never_a_panic() {
        let dir = scratch("snap-corrupt");
        sample().write_atomic(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let good = std::fs::read(&path).unwrap();

        // Bit flip in the body.
        let mut bad = good.clone();
        bad[20] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        match Snapshot::load(&dir) {
            Err(DynConError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Truncation: snapshots are atomic, so a short file is corrupt,
        // not a tolerable tail.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(
            Snapshot::load(&dir),
            Err(DynConError::Corrupt { .. })
        ));

        // Wrong magic.
        std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        match Snapshot::load(&dir) {
            Err(DynConError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, 0);
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
