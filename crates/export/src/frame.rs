//! The checksummed, length-framed binary wire format frames travel in.
//!
//! ## Wire format
//!
//! A connection is a magic preamble followed by frames in the
//! [`dyncon_primitives::frame`] format, the same framing as the durable
//! layer's `DCWAL001` log (header checksum validated *before* the length
//! is trusted, payload checksum over the body):
//!
//! ```text
//! stream := magic "DCEXP001" (8 bytes, once per connection)
//!           frame*
//! frame  := a dyncon_primitives::frame frame keyed by "DCEXP001":
//!           id = seq, the per-connection ascending frame id
//! ```
//!
//! The payload is OTLP-shaped: a resource identity (the `source`
//! string, standing in for OTLP resource attributes) followed by one
//! batch of one signal kind — a metrics *delta* (what changed since the
//! previous frame, see [`dyncon_metrics::MetricsSnapshot::delta`]),
//! trace spans, or slow-round captures:
//!
//! ```text
//! payload := kind   u8          -- 1 metrics, 2 spans, 3 slow rounds
//!            source str16       -- exporting process identity
//!            body               -- per kind, see encode_* below
//! str16   := len u16 LE, UTF-8 bytes
//! str32   := len u32 LE, UTF-8 bytes
//! ```

use dyncon_metrics::{HistogramSnapshot, MetricSnapshot, MetricValue, MetricsSnapshot, BUCKETS};
use dyncon_primitives::frame;
use dyncon_trace::Span;

/// Connection preamble: protocol + version, sent once per connection.
pub const EXPORT_MAGIC: [u8; 8] = *b"DCEXP001";

/// Sanity bound on a decoded payload length: anything larger is treated
/// as corruption, not an allocation request.
const MAX_PAYLOAD: u32 = 16 << 20;

/// A span as it travels on the wire. The stage is carried by its stable
/// snake_case name (`Stage::name`), so the collector can aggregate
/// without depending on the enum's layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSpan {
    /// Commit round (or resolved version for reader-path stages).
    pub round: u64,
    /// Stable stage name (`coalesce_wait`, `apply`, …).
    pub stage: String,
    /// Start offset from the recorder's epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Operations the stage processed.
    pub ops: u64,
    /// Shard index for per-shard stages.
    pub shard: Option<u32>,
}

impl From<&Span> for WireSpan {
    fn from(s: &Span) -> Self {
        WireSpan {
            round: s.round,
            stage: s.stage.name().to_string(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            ops: s.ops,
            shard: s.shard,
        }
    }
}

/// One slow-round capture on the wire: identity plus the rendered stage
/// table (the collector stores it for humans, it does not re-aggregate
/// stage rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSlowRound {
    /// The committed round.
    pub round: u64,
    /// Wall time of the round, nanoseconds.
    pub wall_ns: u64,
    /// Operations the round committed.
    pub ops: u64,
    /// `RoundTrace::render_text` of the capture.
    pub text: String,
}

/// What one frame carries.
#[derive(Clone, Debug, PartialEq)]
pub enum FramePayload {
    /// A metrics **delta** since the exporter's previous metrics frame
    /// (the first frame of a connection carries absolute values — a
    /// delta against the empty snapshot).
    Metrics(MetricsSnapshot),
    /// Trace spans recorded since the previous spans frame.
    Spans(Vec<WireSpan>),
    /// Slow rounds captured since the previous slow-rounds frame.
    SlowRounds(Vec<WireSlowRound>),
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Per-connection ascending frame id.
    pub seq: u64,
    /// The exporting process identity (OTLP resource stand-in).
    pub source: String,
    /// The signal batch.
    pub payload: FramePayload,
}

// ---- encoding -----------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn encode_metrics(out: &mut Vec<u8>, snap: &MetricsSnapshot) {
    put_u32(out, snap.metrics.len() as u32);
    for m in &snap.metrics {
        put_str16(out, &m.name);
        put_str16(out, &m.unit);
        put_str16(out, &m.help);
        match &m.value {
            MetricValue::Counter(v) => {
                out.push(0);
                put_u64(out, *v);
            }
            MetricValue::Gauge { value, max } => {
                out.push(1);
                put_u64(out, *value as u64);
                put_u64(out, *max as u64);
            }
            MetricValue::Histogram(h) => {
                out.push(2);
                put_u64(out, h.count);
                put_u64(out, h.sum);
                let nonzero: Vec<(usize, u64)> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(i, &c)| (i, c))
                    .collect();
                put_u16(out, nonzero.len() as u16);
                for (i, c) in nonzero {
                    out.push(i as u8);
                    put_u64(out, c);
                }
            }
        }
    }
}

fn encode_spans(out: &mut Vec<u8>, spans: &[WireSpan]) {
    put_u32(out, spans.len() as u32);
    for s in spans {
        put_u64(out, s.round);
        put_str16(out, &s.stage);
        put_u64(out, s.start_ns);
        put_u64(out, s.dur_ns);
        put_u64(out, s.ops);
        match s.shard {
            Some(idx) => {
                out.push(1);
                put_u32(out, idx);
            }
            None => out.push(0),
        }
    }
}

fn encode_slow(out: &mut Vec<u8>, rounds: &[WireSlowRound]) {
    put_u32(out, rounds.len() as u32);
    for r in rounds {
        put_u64(out, r.round);
        put_u64(out, r.wall_ns);
        put_u64(out, r.ops);
        put_str32(out, &r.text);
    }
}

/// Encode one frame into its full wire representation (header +
/// payload, without the connection magic).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match &frame.payload {
        FramePayload::Metrics(snap) => {
            payload.push(1);
            put_str16(&mut payload, &frame.source);
            encode_metrics(&mut payload, snap);
        }
        FramePayload::Spans(spans) => {
            payload.push(2);
            put_str16(&mut payload, &frame.source);
            encode_spans(&mut payload, spans);
        }
        FramePayload::SlowRounds(rounds) => {
            payload.push(3);
            put_str16(&mut payload, &frame.source);
            encode_slow(&mut payload, rounds);
        }
    }
    frame::encode(&EXPORT_MAGIC, frame.seq, &payload)
}

// ---- decoding -----------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err("payload truncated".to_string());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }

    fn str32(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }
}

fn decode_metrics(c: &mut Cursor) -> Result<MetricsSnapshot, String> {
    let count = c.u32()? as usize;
    let mut metrics = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let name = c.str16()?;
        let unit = c.str16()?;
        let help = c.str16()?;
        let value = match c.u8()? {
            0 => MetricValue::Counter(c.u64()?),
            1 => MetricValue::Gauge {
                value: c.u64()? as i64,
                max: c.u64()? as i64,
            },
            2 => {
                let count = c.u64()?;
                let sum = c.u64()?;
                let nonzero = c.u16()? as usize;
                let mut buckets = vec![0u64; BUCKETS];
                for _ in 0..nonzero {
                    let idx = c.u8()? as usize;
                    if idx >= BUCKETS {
                        return Err(format!("bucket index {idx} out of range"));
                    }
                    buckets[idx] = c.u64()?;
                }
                MetricValue::Histogram(HistogramSnapshot {
                    buckets,
                    count,
                    sum,
                })
            }
            tag => return Err(format!("unknown metric tag {tag}")),
        };
        metrics.push(MetricSnapshot {
            name,
            unit,
            help,
            value,
        });
    }
    // The wire order is the snapshot's (sorted) order, but re-sorting is
    // cheap insurance: `MetricsSnapshot::get`/`merge` require it.
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(MetricsSnapshot { metrics })
}

fn decode_spans(c: &mut Cursor) -> Result<Vec<WireSpan>, String> {
    let count = c.u32()? as usize;
    let mut spans = Vec::with_capacity(count.min(65536));
    for _ in 0..count {
        let round = c.u64()?;
        let stage = c.str16()?;
        let start_ns = c.u64()?;
        let dur_ns = c.u64()?;
        let ops = c.u64()?;
        let shard = match c.u8()? {
            0 => None,
            1 => Some(c.u32()?),
            tag => return Err(format!("unknown shard tag {tag}")),
        };
        spans.push(WireSpan {
            round,
            stage,
            start_ns,
            dur_ns,
            ops,
            shard,
        });
    }
    Ok(spans)
}

fn decode_slow(c: &mut Cursor) -> Result<Vec<WireSlowRound>, String> {
    let count = c.u32()? as usize;
    let mut rounds = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        rounds.push(WireSlowRound {
            round: c.u64()?,
            wall_ns: c.u64()?,
            ops: c.u64()?,
            text: c.str32()?,
        });
    }
    Ok(rounds)
}

/// Try to decode one frame from the front of `buf`.
///
/// - `Ok(None)` — `buf` holds a valid prefix but not a whole frame yet;
///   read more bytes and retry.
/// - `Ok(Some((frame, consumed)))` — one frame decoded; drop `consumed`
///   bytes from the front of `buf`.
/// - `Err(reason)` — the stream is corrupt at the front of `buf`
///   (checksum mismatch, bad tag, truncated payload inside a verified
///   length). Byte streams cannot be resynchronised safely: drop the
///   connection.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, String> {
    let Some(header) = frame::parse_header(&EXPORT_MAGIC, buf).map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    if header.len > MAX_PAYLOAD {
        return Err(format!("payload length {} over bound", header.len));
    }
    let Some(payload) = header.payload(buf) else {
        return Ok(None);
    };
    if !header.payload_ok(payload) {
        return Err("payload checksum mismatch".to_string());
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let kind = c.u8()?;
    let source = c.str16()?;
    let payload = match kind {
        1 => FramePayload::Metrics(decode_metrics(&mut c)?),
        2 => FramePayload::Spans(decode_spans(&mut c)?),
        3 => FramePayload::SlowRounds(decode_slow(&mut c)?),
        tag => return Err(format!("unknown frame kind {tag}")),
    };
    Ok(Some((
        Frame {
            seq: header.id,
            source,
            payload,
        },
        header.frame_len(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncon_metrics::Registry;

    fn sample_metrics() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("c_total", "ops", "a counter").add(7);
        r.gauge("g_depth", "requests", "a gauge").set(-3);
        let h = r.histogram("h_ns", "ns", "a histogram");
        h.record(0);
        h.record(5);
        h.record(1 << 40);
        r.snapshot()
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame {
                seq: 0,
                source: "proc-a".to_string(),
                payload: FramePayload::Metrics(sample_metrics()),
            },
            Frame {
                seq: 1,
                source: "proc-a".to_string(),
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
            },
            Frame {
                seq: 2,
                source: "proc-a".to_string(),
                payload: FramePayload::SlowRounds(vec![WireSlowRound {
                    round: 9,
                    wall_ns: 12_000_000,
                    ops: 64,
                    text: "round 9: slow\n".to_string(),
                }]),
            },
        ];
        // Concatenated stream decode: frames arrive back to back.
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut decoded = Vec::new();
        let mut off = 0usize;
        while let Some((frame, consumed)) = decode_frame(&wire[off..]).unwrap() {
            decoded.push(frame);
            off += consumed;
        }
        assert_eq!(off, wire.len());
        assert_eq!(decoded, frames);
    }

    #[test]
    fn histogram_sparse_encoding_preserves_buckets() {
        let r = Registry::new();
        let h = r.histogram("h_ns", "ns", "");
        for v in [0u64, 1, 1, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let snap = r.snapshot();
        let wire = encode_frame(&Frame {
            seq: 0,
            source: "p".to_string(),
            payload: FramePayload::Metrics(snap.clone()),
        });
        let (frame, _) = decode_frame(&wire).unwrap().unwrap();
        match frame.payload {
            FramePayload::Metrics(got) => assert_eq!(got, snap),
            other => panic!("wrong payload {other:?}"),
        }
    }
}
