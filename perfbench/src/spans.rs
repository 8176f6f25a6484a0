//! Bench-side spans: one per call the benchmark makes into a layer,
//! written out with the server's own trace as one Chrome-trace document.

use std::sync::Mutex;
use std::time::Instant;

struct BenchSpan {
    name: &'static str,
    lane: u64,
    start: Instant,
    end: Instant,
}

/// An in-memory span log. [`SpanLog::off`] records nothing, which is
/// what the untraced runs use.
pub struct SpanLog {
    epoch: Instant,
    spans: Option<Mutex<Vec<BenchSpan>>>,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            spans: None,
        }
    }

    /// A recording log whose timestamps count from now.
    pub fn on() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// Record a span named `name` on `lane` from `start` to now.
    pub fn record(&self, name: &'static str, lane: u64, start: Instant) {
        if self.spans.is_some() {
            self.record_until(name, lane, start, Instant::now());
        }
    }

    /// Record a span from `start` to `end`.
    pub fn record_until(&self, name: &'static str, lane: u64, start: Instant, end: Instant) {
        if let Some(spans) = &self.spans {
            spans.lock().expect("span log poisoned").push(BenchSpan {
                name,
                lane,
                start,
                end,
            });
        }
    }

    /// Run `f` as one span.
    pub fn time<R>(&self, name: &'static str, lane: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, lane, start);
        out
    }

    /// One Chrome-trace document holding the bench spans (process 1,
    /// one thread lane per load-generator thread) and the events of a
    /// server trace (`server_json`, process 0, as
    /// `TraceRecorder::chrome_trace_json` wrote them). Both timelines
    /// start when their logs were created, which the benchmark does at
    /// the same instant.
    pub fn chrome_json(&self, server_json: Option<&str>) -> String {
        let mut events: Vec<String> = Vec::new();
        if let Some(json) = server_json {
            let inner = json
                .strip_prefix("{\"traceEvents\":[")
                .and_then(|rest| rest.split_once("],\"displayTimeUnit\"").map(|(e, _)| e))
                .unwrap_or("");
            if !inner.is_empty() {
                events.push(inner.to_string());
            }
        }
        if let Some(spans) = &self.spans {
            for s in spans.lock().expect("span log poisoned").iter() {
                let ts = s.start.saturating_duration_since(self.epoch).as_nanos();
                let dur = s.end.saturating_duration_since(s.start).as_nanos();
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}}}",
                    s.name,
                    ts / 1000,
                    ts % 1000,
                    dur / 1000,
                    dur % 1000,
                    s.lane
                ));
            }
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_bench_spans_with_a_server_trace() {
        let log = SpanLog::on();
        log.time("batch_insert", 0, || ());
        let server = "{\"traceEvents\":[{\"name\":\"apply\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.000,\"pid\":0,\"tid\":0}],\"displayTimeUnit\":\"ms\"}";
        let json = log.chrome_json(Some(server));
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"apply\""));
        assert!(json.contains("\"name\":\"batch_insert\",\"cat\":\"bench\""));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        let off = SpanLog::off();
        off.time("x", 0, || ());
        assert_eq!(
            off.chrome_json(None),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
