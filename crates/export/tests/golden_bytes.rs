//! Golden bytes: one export frame, pinned byte for byte. Collectors and
//! exporters of different builds must agree on the wire, so a change to
//! the header layout or a checksum seed must fail here — the round-trip
//! tests cannot see it, because they decode what the same (changed) code
//! encoded.

use dyncon_export::frame::{decode_frame, encode_frame, EXPORT_MAGIC};
use dyncon_export::{Frame, FramePayload, WireSpan};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Header (seq, len, header checksum, payload checksum), then the spans
/// payload: kind, source, span count and two spans.
const FRAME_GOLDEN: &str = concat!(
    "0b00000000000000", // seq 11
    "67000000",         // payload length 103
    "757fa5b86be724a4", // header checksum
    "d6ae10d71d7176d3", // payload checksum
    "02",               // kind: spans
    "0600676f6c64656e", // source "golden"
    "02000000",         // two spans
    "0400000000000000",
    "05006170706c79",
    "0a00000000000000",
    "fa00000000000000",
    "0c00000000000000",
    "00",
    "0400000000000000",
    "0b0073686172645f726f756e64",
    "1400000000000000",
    "5a00000000000000",
    "0600000000000000",
    "0102000000",
);

#[test]
fn export_frame_bytes_are_pinned() {
    assert_eq!(&EXPORT_MAGIC, b"DCEXP001");
    let frame = Frame {
        seq: 11,
        source: "golden".to_string(),
        payload: FramePayload::Spans(vec![
            WireSpan {
                round: 4,
                stage: "apply".to_string(),
                start_ns: 10,
                dur_ns: 250,
                ops: 12,
                shard: None,
            },
            WireSpan {
                round: 4,
                stage: "shard_round".to_string(),
                start_ns: 20,
                dur_ns: 90,
                ops: 6,
                shard: Some(2),
            },
        ]),
    };
    let wire = encode_frame(&frame);
    assert_eq!(hex(&wire), FRAME_GOLDEN);
    assert_eq!(decode_frame(&wire).unwrap(), Some((frame, wire.len())));
}
