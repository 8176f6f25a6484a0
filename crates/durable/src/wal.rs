//! The checksummed, length-framed binary write-ahead log.
//!
//! ## On-disk format
//!
//! ```text
//! wal.log := magic "DCWAL001" (8 bytes)
//!            record*
//! record  := a dyncon_primitives::frame frame keyed by "DCWAL001":
//!            id      = the global round id, contiguous ascending
//!            payload = encode_ops() of the round's Op batch
//! ```
//!
//! ## Recovery tolerance
//!
//! The **tail** of the log absorbs torn writes: a final record whose
//! header is cut off by end-of-file, whose (header-verified) payload
//! extent runs past end-of-file, or whose payload checksum fails at the
//! very end of the file is dropped cleanly — that is the write that was
//! in flight when the process died, and no client ever saw its round
//! commit (tickets resolve only after append *and* apply). Anything
//! wrong **before** the end of the file — a payload checksum mismatch
//! with data after it, bad magic, an undecodable payload, a round-id gap
//! — is real corruption of committed history and surfaces as
//! [`DynConError::Corrupt`]; recovery must not guess around it.
//!
//! The frame header carries its own checksum, so the *length field
//! itself* is validated before it is used for framing: a bit-flipped
//! `len` can never swallow the valid records behind it and masquerade as
//! a torn tail. A complete-but-invalid header is always `Corrupt`.

use dyncon_api::{decode_ops, encode_ops, DynConError, Op};
use dyncon_primitives::frame;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File name of the write-ahead log inside a durable directory.
pub const WAL_FILE: &str = "wal.log";

const WAL_MAGIC: [u8; 8] = *b"DCWAL001";

/// When the WAL writer calls `fsync` after an append.
///
/// The policy trades durability for append latency: `EveryRound` loses
/// nothing on a crash (every acknowledged round is on stable storage);
/// `EveryNRounds(n)` bounds the loss window to the last `n - 1` rounds;
/// `Never` leaves flushing to the OS page cache (loss window unbounded,
/// but the *format* still recovers cleanly — a torn tail is dropped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended round (the group-commit default: one
    /// fsync covers every request of the round).
    EveryRound,
    /// `fsync` after every `n`-th appended round (`n >= 1`).
    EveryNRounds(u64),
    /// Never `fsync` explicitly; the OS decides when bytes hit disk.
    Never,
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The global round id (contiguous, ascending across the log).
    pub round: u64,
    /// The round's operations, in applied order.
    pub ops: Vec<Op>,
}

/// What a full WAL scan found.
#[derive(Clone, Debug, Default)]
pub struct WalReadout {
    /// Every valid record, in log order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last valid record — where an appender
    /// must truncate to before writing (anything beyond is a torn tail).
    pub valid_len: u64,
    /// Whether a torn/corrupt tail was dropped during the scan.
    pub dropped_tail: bool,
}

/// Map an `io::Error` on `path` to the typed storage error.
pub fn storage_err(path: &Path, e: std::io::Error) -> DynConError {
    DynConError::Storage {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn corrupt_err(path: &Path, offset: u64, detail: &str) -> DynConError {
    DynConError::Corrupt {
        path: path.display().to_string(),
        offset,
        detail: detail.to_string(),
    }
}

/// Scan the WAL in `dir`. `Ok(None)` if no log file exists; torn tails
/// are dropped (see the module docs), mid-log corruption is
/// [`DynConError::Corrupt`].
pub fn read_wal(dir: &Path) -> Result<Option<WalReadout>, DynConError> {
    let path = dir.join(WAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(storage_err(&path, e)),
    };
    if bytes.len() < WAL_MAGIC.len() {
        // A torn creation: not even the magic made it out. Treat as an
        // empty log whose tail (the partial magic) is dropped.
        return Ok(Some(WalReadout {
            records: Vec::new(),
            valid_len: 0,
            dropped_tail: !bytes.is_empty(),
        }));
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(corrupt_err(&path, 0, "bad WAL magic"));
    }
    let mut out = WalReadout {
        records: Vec::new(),
        valid_len: WAL_MAGIC.len() as u64,
        dropped_tail: false,
    };
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        // A complete header that fails its checksum is corruption, final
        // record or not: the writer emits each frame as one sequential
        // write, so a torn write can only leave a strict prefix, never a
        // complete-but-damaged header.
        let header = match frame::parse_header(&WAL_MAGIC, rest) {
            Ok(Some(header)) => header,
            // Truncated header: by construction this can only be the
            // final (in-flight) record — drop it.
            Ok(None) => {
                out.dropped_tail = true;
                break;
            }
            Err(e) => return Err(corrupt_err(&path, pos as u64, &e.to_string())),
        };
        let Some(payload) = header.payload(rest) else {
            // The verified length extends past end-of-file: a torn final
            // payload — nothing can exist beyond it.
            out.dropped_tail = true;
            break;
        };
        let record_end = pos + header.frame_len();
        if !header.payload_ok(payload) {
            if record_end >= bytes.len() {
                // The final record: a torn write, drop it.
                out.dropped_tail = true;
                break;
            }
            // Valid-looking data follows — committed history is damaged.
            return Err(corrupt_err(
                &path,
                pos as u64,
                "payload checksum mismatch mid-log",
            ));
        }
        let round = header.id;
        let ops = decode_ops(payload)
            .ok_or_else(|| corrupt_err(&path, pos as u64, "undecodable op payload"))?;
        if let Some(prev) = out.records.last() {
            if round != prev.round + 1 {
                return Err(corrupt_err(
                    &path,
                    pos as u64,
                    "round sequence gap in committed history",
                ));
            }
        }
        out.records.push(WalRecord { round, ops });
        out.valid_len = record_end as u64;
        pos = record_end;
    }
    Ok(Some(out))
}

/// Append-side handle on the WAL of one durable directory.
///
/// Opening scans the existing log (so a torn tail is truncated away
/// before the first new append lands after it), positions at the end,
/// and continues the round numbering; see [`FsyncPolicy`] for when
/// appends reach stable storage.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    next_round: u64,
    unsynced_rounds: u64,
    /// Lifetime fsync count of this writer handle (observability; see
    /// [`WalWriter::fsync_count`]).
    fsyncs: u64,
    /// Lifetime nanoseconds spent inside fsync calls (observability; see
    /// [`WalWriter::sync_ns`]).
    sync_ns: u64,
    /// Byte offset just past the last fully-appended record — the
    /// rollback point when an append or sync fails mid-frame.
    end_offset: u64,
    /// Start offset of the most recent successful append (None right
    /// after open/reset/abort), for [`WalWriter::abort_round`].
    last_record_start: Option<u64>,
    /// Set when a failed append could not be rolled back: the file may
    /// hold a frame the caller was told failed, so further appends are
    /// refused rather than risking divergence between acknowledgements
    /// and the log.
    poisoned: bool,
}

impl WalWriter {
    /// Open (or create) the WAL in `dir` for appending. `base_round` is
    /// the id the next round gets when the log is empty — recovery passes
    /// the snapshot's `next_round` so numbering continues across
    /// compactions. A log whose records end at round `r` continues at
    /// `r + 1` regardless of `base_round`. Mid-log corruption is an
    /// error: a damaged log must be healed (or removed) explicitly, never
    /// silently appended to.
    pub fn open(dir: &Path, policy: FsyncPolicy, base_round: u64) -> Result<Self, DynConError> {
        let path = dir.join(WAL_FILE);
        let readout = read_wal(dir)?.unwrap_or_default();
        let next_round = match readout.records.last() {
            Some(last) => last.round + 1,
            None => base_round,
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| storage_err(&path, e))?;
        let mut writer = Self {
            file,
            path,
            policy,
            next_round,
            unsynced_rounds: 0,
            fsyncs: 0,
            sync_ns: 0,
            end_offset: WAL_MAGIC.len() as u64,
            last_record_start: None,
            poisoned: false,
        };
        if readout.valid_len < WAL_MAGIC.len() as u64 {
            // Fresh (or torn-at-creation) file: lay down the magic.
            writer.truncate_to(0)?;
            writer
                .file
                .write_all(&WAL_MAGIC)
                .map_err(|e| storage_err(&writer.path, e))?;
            writer.sync()?;
        } else {
            // Cut off any dropped tail so new records append cleanly.
            writer.truncate_to(readout.valid_len)?;
            writer.end_offset = readout.valid_len;
        }
        Ok(writer)
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), DynConError> {
        self.file
            .set_len(len)
            .map_err(|e| storage_err(&self.path, e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| storage_err(&self.path, e))?;
        Ok(())
    }

    /// The id the next appended round will get.
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// How many times this writer handle has fsynced the log (policy
    /// syncs, explicit [`WalWriter::sync`] calls, and abort/reset syncs
    /// alike). Observability only.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// Lifetime nanoseconds this writer handle has spent inside fsync
    /// calls. Observability only; successive readings around an append
    /// give that append's fsync cost (zero when the policy deferred the
    /// sync).
    pub fn sync_ns(&self) -> u64 {
        self.sync_ns
    }

    /// Bytes of valid log currently on disk (magic + every appended
    /// frame). Observability only; successive readings around an append
    /// give the append's byte cost.
    pub fn log_bytes(&self) -> u64 {
        self.end_offset
    }

    fn check_poisoned(&self) -> Result<(), DynConError> {
        if self.poisoned {
            return Err(DynConError::Storage {
                path: self.path.display().to_string(),
                message: "WAL writer poisoned by an earlier unrecoverable append failure"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// A failed append/sync must not leave the frame behind: the caller
    /// is about to report the round as never committed, so a later
    /// recovery must not find (and replay) it. Best-effort truncate back
    /// to the last good offset; if even that fails, poison the writer so
    /// no further append can land after the orphaned bytes.
    fn rollback_to_end_offset(&mut self) {
        if self.file.set_len(self.end_offset).is_err()
            || self.file.seek(SeekFrom::End(0)).is_err()
            || self.file.sync_all().is_err()
        {
            self.poisoned = true;
        }
    }

    /// Append one round and apply the fsync policy. Returns the round id
    /// assigned to it. On failure the frame is rolled back (so the round
    /// a caller reports as failed can never be recovered), and if the
    /// rollback itself fails the writer is poisoned: every later append
    /// returns [`DynConError::Storage`].
    pub fn append_round(&mut self, ops: &[Op]) -> Result<u64, DynConError> {
        self.check_poisoned()?;
        let round = self.next_round;
        let record = frame::encode(&WAL_MAGIC, round, &encode_ops(ops));
        let start = self.end_offset;
        if let Err(e) = self.file.write_all(&record) {
            self.rollback_to_end_offset();
            return Err(storage_err(&self.path, e));
        }
        self.unsynced_rounds += 1;
        let due = match self.policy {
            FsyncPolicy::EveryRound => true,
            FsyncPolicy::EveryNRounds(n) => self.unsynced_rounds >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            if let Err(e) = self.sync() {
                self.unsynced_rounds -= 1;
                self.rollback_to_end_offset();
                return Err(e);
            }
        }
        self.next_round += 1;
        self.end_offset = start + record.len() as u64;
        self.last_record_start = Some(start);
        Ok(round)
    }

    /// Remove the most recently appended round — the abort path for a
    /// round that was logged but whose apply failed, so durable state and
    /// client acknowledgements stay consistent. Returns the round id that
    /// was rolled back. Errors if there is nothing to abort (fresh open,
    /// or already aborted).
    pub fn abort_round(&mut self) -> Result<u64, DynConError> {
        self.check_poisoned()?;
        let start = self
            .last_record_start
            .take()
            .ok_or_else(|| DynConError::Storage {
                path: self.path.display().to_string(),
                message: "no appended round to abort".to_string(),
            })?;
        self.truncate_to(start)?;
        self.end_offset = start;
        self.next_round -= 1;
        self.sync()?;
        Ok(self.next_round)
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&mut self) -> Result<(), DynConError> {
        let started = Instant::now();
        self.file
            .sync_all()
            .map_err(|e| storage_err(&self.path, e))?;
        self.sync_ns += started.elapsed().as_nanos() as u64;
        self.unsynced_rounds = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Drop every record (compaction's second half, after the snapshot is
    /// durably in place): the log becomes just the magic, and numbering
    /// continues from where it was.
    pub fn reset(&mut self) -> Result<(), DynConError> {
        self.check_poisoned()?;
        self.truncate_to(WAL_MAGIC.len() as u64)?;
        self.end_offset = WAL_MAGIC.len() as u64;
        self.last_record_start = None;
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_primitives::frame::HEADER_LEN;

    fn scratch(tag: &str) -> PathBuf {
        let dir = crate::scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops(k: u32) -> Vec<Op> {
        vec![Op::Insert(k, k + 1), Op::Query(0, k + 1), Op::Delete(k, 0)]
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = scratch("wal-roundtrip");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        for k in 0..5u32 {
            assert_eq!(w.append_round(&ops(k)).unwrap(), k as u64);
        }
        // Empty rounds are legal (a round of pure flush requests).
        assert_eq!(w.append_round(&[]).unwrap(), 5);
        drop(w);
        let r = read_wal(&dir).unwrap().unwrap();
        assert_eq!(r.records.len(), 6);
        assert!(!r.dropped_tail);
        for (k, rec) in r.records[..5].iter().enumerate() {
            assert_eq!(rec.round, k as u64);
            assert_eq!(rec.ops, ops(k as u32));
        }
        assert!(r.records[5].ops.is_empty());
        // Reopening continues the numbering and keeps the records.
        let w2 = WalWriter::open(&dir, FsyncPolicy::Never, 0).unwrap();
        assert_eq!(w2.next_round(), 6);
    }

    #[test]
    fn missing_and_empty_logs() {
        let dir = scratch("wal-empty");
        assert!(read_wal(&dir).unwrap().is_none(), "no file yet");
        let w = WalWriter::open(&dir, FsyncPolicy::EveryNRounds(3), 7).unwrap();
        assert_eq!(w.next_round(), 7, "base round honoured on empty log");
        drop(w);
        let r = read_wal(&dir).unwrap().unwrap();
        assert!(r.records.is_empty() && !r.dropped_tail);
    }

    #[test]
    fn truncated_tail_is_dropped_cleanly() {
        let dir = scratch("wal-torn");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        for k in 0..3u32 {
            w.append_round(&ops(k)).unwrap();
        }
        drop(w);
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Chop off the last 7 bytes: a torn final payload.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let r = read_wal(&dir).unwrap().unwrap();
        assert_eq!(r.records.len(), 2, "torn record dropped");
        assert!(r.dropped_tail);
        // The appender truncates the torn tail and REUSES its round id.
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        assert_eq!(w.next_round(), 2);
        w.append_round(&ops(9)).unwrap();
        drop(w);
        let r = read_wal(&dir).unwrap().unwrap();
        assert_eq!(r.records.len(), 3);
        assert!(!r.dropped_tail);
        assert_eq!(r.records[2].ops, ops(9));
    }

    #[test]
    fn checksum_flip_on_final_record_is_a_dropped_tail() {
        let dir = scratch("wal-tailflip");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        w.append_round(&ops(0)).unwrap();
        w.append_round(&ops(1)).unwrap();
        drop(w);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a bit in the final payload byte
        std::fs::write(&path, &bytes).unwrap();
        let r = read_wal(&dir).unwrap().unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(r.dropped_tail);
    }

    #[test]
    fn checksum_flip_mid_log_is_typed_corruption() {
        let dir = scratch("wal-midflip");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        for k in 0..3u32 {
            w.append_round(&ops(k)).unwrap();
        }
        drop(w);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit of the FIRST record (offset: magic + header).
        bytes[WAL_MAGIC.len() + HEADER_LEN + 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match read_wal(&dir) {
            Err(DynConError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, WAL_MAGIC.len() as u64);
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // And the appender refuses to write past it.
        assert!(WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).is_err());
    }

    #[test]
    fn corrupted_length_field_cannot_swallow_committed_records() {
        // Regression: a bit flip in record 0's `len` used to make its
        // claimed extent run past EOF, silently dropping record 0 AND the
        // valid records behind it as a "torn tail". The header checksum
        // catches it as corruption instead.
        let dir = scratch("wal-lenflip");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        for k in 0..3u32 {
            w.append_round(&ops(k)).unwrap();
        }
        drop(w);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // len lives at header offset 8..12; set a high bit.
        bytes[WAL_MAGIC.len() + 9] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        match read_wal(&dir) {
            Err(DynConError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, WAL_MAGIC.len() as u64);
                assert!(detail.contains("header checksum"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn abort_round_removes_exactly_the_last_append() {
        let dir = scratch("wal-abort");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        w.append_round(&ops(0)).unwrap();
        w.append_round(&ops(1)).unwrap();
        // The logged-but-apply-failed round is rolled back: durable state
        // and the failure acknowledgement agree.
        assert_eq!(w.abort_round().unwrap(), 1);
        assert_eq!(w.next_round(), 1, "the aborted id is reusable");
        // Double-abort has nothing to remove.
        assert!(w.abort_round().is_err());
        w.append_round(&ops(7)).unwrap();
        drop(w);
        let r = read_wal(&dir).unwrap().unwrap();
        assert!(!r.dropped_tail);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0].ops, ops(0));
        assert_eq!(r.records[1].ops, ops(7));
        assert_eq!(r.records[1].round, 1);
    }

    #[test]
    fn bad_magic_is_typed_corruption() {
        let dir = scratch("wal-magic");
        std::fs::write(dir.join(WAL_FILE), b"GARBAGE!more garbage").unwrap();
        match read_wal(&dir) {
            Err(DynConError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, 0);
                assert!(detail.contains("magic"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn reset_empties_the_log_but_keeps_numbering() {
        let dir = scratch("wal-reset");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryRound, 0).unwrap();
        for k in 0..4u32 {
            w.append_round(&ops(k)).unwrap();
        }
        w.reset().unwrap();
        assert_eq!(w.next_round(), 4, "round ids survive compaction");
        w.append_round(&ops(4)).unwrap();
        drop(w);
        let r = read_wal(&dir).unwrap().unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].round, 4);
    }

    #[test]
    fn fsync_count_and_log_bytes_track_the_policy() {
        let dir = scratch("wal-observe");
        let mut w = WalWriter::open(&dir, FsyncPolicy::EveryNRounds(2), 0).unwrap();
        let after_open = (w.fsync_count(), w.log_bytes());
        assert_eq!(after_open, (1, WAL_MAGIC.len() as u64), "magic is synced");
        let before = w.log_bytes();
        w.append_round(&ops(0)).unwrap(); // unsynced (1 of 2)
        let appended = w.log_bytes() - before;
        assert_eq!(
            appended,
            (HEADER_LEN + ops(0).len() * Op::ENCODED_LEN) as u64
        );
        assert_eq!(w.fsync_count(), 1);
        w.append_round(&ops(1)).unwrap(); // policy sync (2 of 2)
        assert_eq!(w.fsync_count(), 2);
        w.sync().unwrap(); // explicit
        assert_eq!(w.fsync_count(), 3);
    }
}
