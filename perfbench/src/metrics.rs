//! The metric vocabulary: every name a run may print, with its unit.
//! `BENCHMARK.json` declares the same lists; the smoke test holds the two
//! equal.

use std::collections::BTreeMap;

/// Metrics of an untraced run: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run: one layer each. A layer the workload does
/// not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.delete_us_per_edge", "us"),
    ("core.insert_us_per_edge", "us"),
    ("core.query_ns_per_pair", "ns"),
    ("core.levels_searched", "count"),
    ("core.search_rounds", "count"),
    ("core.search_phases", "count"),
    ("core.max_phases_in_level", "count"),
    ("core.edges_examined", "count"),
    ("core.replacements", "count"),
    ("core.tree_pushes", "count"),
    ("core.nontree_pushes", "count"),
    ("core.replacement_yield", "ratio"),
    ("core.par_speedup", "ratio"),
    ("rayon.dispatch_us", "us"),
    ("ett.link_us_per_edge", "us"),
    ("ett.cut_us_per_edge", "us"),
    ("ett.connected_ns_per_pair", "ns"),
    ("spanning.forest_ns_per_edge", "ns"),
    ("primitives.semisort_ns_per_pair", "ns"),
    ("server.rounds", "count"),
    ("server.round_ops_p50", "ops"),
    ("server.segments_per_round", "count"),
    ("server.coalesce_wait_us_p50", "us"),
    ("server.apply_us_p50", "us"),
    ("server.apply_us_p90", "us"),
    ("server.apply_busy_frac", "ratio"),
    ("server.queue_depth_max", "count"),
    ("server.publish_ms_p50", "ms"),
    ("server.publish_frac", "ratio"),
    ("server.read_view_age_rounds_p50", "rounds"),
    ("server.backpressure_rejects", "count"),
    ("client.submit_us_p50", "us"),
    ("client.read_latency_p95_ms", "ms"),
    ("durable.wal_append_us_p50", "us"),
    ("durable.wal_bytes_per_op", "bytes"),
    ("durable.replayed_ops", "count"),
    ("durable.recovery_s", "s"),
    ("shard.decompose_us_p50", "us"),
    ("shard.boundary_rebuilds", "count"),
    ("shard.boundary_ops_per_rebuild", "ops"),
    ("shard.cross_queries", "count"),
    ("shard.subrounds_per_round", "count"),
    ("shard.cost_ratio", "ratio"),
    ("trace.coalesce_wait_frac", "ratio"),
    ("trace.wal_append_frac", "ratio"),
    ("trace.wal_fsync_frac", "ratio"),
    ("trace.apply_frac", "ratio"),
    ("trace.publish_frac", "ratio"),
    ("trace.fill_frac", "ratio"),
    ("trace.decompose_frac", "ratio"),
    ("trace.shard_round_frac", "ratio"),
    ("trace.cross_round_frac", "ratio"),
    ("trace.boundary_rebuild_frac", "ratio"),
    ("trace.cross_query_frac", "ratio"),
    ("trace.read_exec_us_p50", "us"),
    ("trace.overhead_pct", "%"),
    ("loadgen.late_us_p95", "us"),
    ("loadgen.sustained_rate_rps", "req/s"),
    ("loadgen.ladder_steps_passed", "count"),
];

/// What one run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Requests (batch calls for the library workload) the run issued.
    pub attempted: u64,
    /// Requests rejected or failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The first output check that failed, if any.
    pub mismatch: Option<String>,
    /// A traced run's spans as a Chrome-trace document.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Set a metric. Panics on a name outside the vocabulary — that is a
    /// bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is not a declared metric"
        );
        self.metrics.insert(name, value);
    }

    /// The declared metrics of the run's mode, in declaration order, with
    /// their units. Every one must be present and finite, and no other
    /// metric may be set.
    pub fn declared(&self, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let list = if traced { PER_LAYER } else { END_TO_END };
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !list.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("{extra} is not a metric of this mode"));
        }
        list.iter()
            .map(|&(name, unit)| match self.metrics.get(name) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("{name} is not finite ({v})")),
                None => Err(format!("{name} was not measured")),
            })
            .collect()
    }

    /// The result line: one JSON object with the declared metrics.
    pub fn to_json(&self, correct: bool, traced: bool) -> Result<String, String> {
        let metrics: Vec<String> = self
            .declared(traced)?
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.set(name, 1.5 + i as f64);
        }
        let line = out.to_json(true, false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            out.to_json(true, true).is_err(),
            "per-layer metrics missing"
        );
        out.metrics.insert("setup_s", f64::NAN);
        assert!(out.to_json(true, false).is_err(), "NaN refused");
        out.set("rayon.dispatch_us", 1.0);
        assert!(out.declared(false).is_err(), "a metric of the other mode");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
