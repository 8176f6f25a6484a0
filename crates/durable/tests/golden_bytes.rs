//! Golden bytes: one WAL file and one snapshot file, pinned byte for
//! byte. Existing durable directories hold exactly these encodings, so a
//! change to a magic, a field order or a checksum seed must fail here —
//! the round-trip tests cannot see it, because they read back what the
//! same (changed) code wrote.

use dyncon_api::Op;
use dyncon_durable::{
    read_wal, scratch_dir, FsyncPolicy, Snapshot, WalWriter, SNAPSHOT_FILE, WAL_FILE,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `DCWAL001`, then one record for round 7: header (round, len, header
/// checksum, payload checksum) and the three encoded ops.
const WAL_GOLDEN: &str = concat!(
    "444357414c303031", // "DCWAL001"
    "0700000000000000", // round 7
    "1b000000",         // payload length 27
    "c956bdbf79e90e7b", // header checksum
    "4c28f34d9b919708", // payload checksum
    "000300000009000000",
    "020000000009000000",
    "010300000001000000",
);

/// `DCSNAP01`, vertex count, next round, edge count, three edges, body
/// checksum.
const SNAPSHOT_GOLDEN: &str = concat!(
    "4443534e41503031", // "DCSNAP01"
    "6400000000000000", // 100 vertices
    "2a00000000000000", // next round 42
    "0300000000000000", // 3 edges
    "0000000001000000",
    "0000000063000000",
    "0500000007000000",
    "855406047f14a8ed", // body checksum
);

#[test]
fn wal_record_bytes_are_pinned() {
    let dir = scratch_dir("golden-wal");
    std::fs::create_dir_all(&dir).unwrap();
    let ops = vec![Op::Insert(3, 9), Op::Query(0, 9), Op::Delete(3, 1)];
    let mut wal = WalWriter::open(&dir, FsyncPolicy::Never, 7).unwrap();
    assert_eq!(wal.append_round(&ops).unwrap(), 7);
    drop(wal);
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert_eq!(hex(&bytes), WAL_GOLDEN);
    // And the pinned bytes still read back as the round that wrote them.
    let readout = read_wal(&dir).unwrap().unwrap();
    assert_eq!(readout.records.len(), 1);
    assert_eq!(
        (readout.records[0].round, &readout.records[0].ops),
        (7, &ops)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_file_bytes_are_pinned() {
    let dir = scratch_dir("golden-snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = Snapshot {
        num_vertices: 100,
        next_round: 42,
        edges: vec![(0, 1), (0, 99), (5, 7)],
    };
    snapshot.write_atomic(&dir).unwrap();
    let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(hex(&bytes), SNAPSHOT_GOLDEN);
    assert_eq!(Snapshot::load(&dir).unwrap(), Some(snapshot));
    std::fs::remove_dir_all(&dir).unwrap();
}
