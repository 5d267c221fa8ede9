//! The metric sets a run prints: end-to-end (untraced runs) and per-layer
//! (traced runs). Names and units here are the ones `BENCHMARK.json` lists.

use crate::report::{metric, Metric};

/// What a user of the system sees. Times are CPU time (see [`crate::cpu`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// CPU time of the set-up before the first timed op.
    pub setup_s: f64,
    /// CPU time per completed op of the timed phase.
    pub cpu_ms_per_op: f64,
    /// Peak bytes on the memory ledger, sampled after every op.
    pub ledger_peak_mb: f64,
    /// Peak resident set of the benchmark process.
    pub rss_peak_mb: f64,
}

impl EndToEnd {
    /// The metrics in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("cpu_ms_per_op", self.cpu_ms_per_op, "ms"),
            metric("ledger_peak_mb", self.ledger_peak_mb, "MiB"),
            metric("rss_peak_mb", self.rss_peak_mb, "MiB"),
        ]
    }
}

/// Where the time and work went, one layer at a time. Times and counts are
/// per op (summed over the traced ops, divided by their number); a layer a
/// workload never reaches reads 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerLayer {
    pub generate_s: f64,
    pub ensure_s: f64,
    pub worlds_generated: f64,
    pub count_s: f64,
    pub count_calls: f64,
    pub rows_counted: f64,
    pub pair_s: f64,
    pub pair_calls: f64,
    pub label_queries: f64,
    pub mask_queries: f64,
    pub finalized_lanes: f64,
    pub relabel_ratio: f64,
    pub shards_evicted: f64,
    pub shards_regenerated: f64,
    pub peak_bytes: f64,
    pub prepare_s: f64,
    pub prepare_calls: f64,
    pub rows_s: f64,
    pub rows_requested: f64,
    pub oracle_self_s: f64,
    pub cache_hit_ratio: f64,
    pub cache_fulls: f64,
    pub driver_self_s: f64,
    pub guesses: f64,
    pub samples_used: f64,
    pub evaluate_s: f64,
    pub avpr_s: f64,
    pub solve_p50_ms: f64,
    pub solve_p95_ms: f64,
    pub overhead_p50_ms: f64,
    pub overhead_p95_ms: f64,
    pub response_bytes: f64,
    pub sessions_evicted: f64,
    pub admission_rejections: f64,
    pub dials: f64,
    pub reconnects: f64,
    pub call_p50_ms: f64,
    pub call_p95_ms: f64,
    pub generator_lag_p95_ms: f64,
    pub trace_overhead_frac: f64,
}

impl PerLayer {
    /// The metrics in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("datasets.generate_s", self.generate_s, "s"),
            metric("sampling.engine.ensure_s", self.ensure_s, "s/op"),
            metric("sampling.engine.worlds_generated", self.worlds_generated, "count/op"),
            metric("sampling.engine.count_s", self.count_s, "s/op"),
            metric("sampling.engine.count_calls", self.count_calls, "count/op"),
            metric("sampling.engine.rows_counted", self.rows_counted, "count/op"),
            metric("sampling.engine.pair_s", self.pair_s, "s/op"),
            metric("sampling.engine.pair_calls", self.pair_calls, "count/op"),
            metric("sampling.engine.label_queries", self.label_queries, "count/op"),
            metric("sampling.engine.mask_queries", self.mask_queries, "count/op"),
            metric("sampling.engine.finalized_lanes", self.finalized_lanes, "count/op"),
            metric("sampling.engine.relabel_ratio", self.relabel_ratio, "fraction"),
            metric("sampling.budget.shards_evicted", self.shards_evicted, "count/op"),
            metric("sampling.budget.shards_regenerated", self.shards_regenerated, "count/op"),
            metric("sampling.budget.peak_bytes", self.peak_bytes, "bytes"),
            metric("sampling.oracle.prepare_s", self.prepare_s, "s/op"),
            metric("sampling.oracle.prepare_calls", self.prepare_calls, "count/op"),
            metric("sampling.oracle.rows_s", self.rows_s, "s/op"),
            metric("sampling.oracle.rows_requested", self.rows_requested, "count/op"),
            metric("sampling.oracle.self_s", self.oracle_self_s, "s/op"),
            metric("sampling.oracle.cache_hit_ratio", self.cache_hit_ratio, "fraction"),
            metric("sampling.oracle.cache_fulls", self.cache_fulls, "count/op"),
            metric("core.driver.self_s", self.driver_self_s, "s/op"),
            metric("core.driver.guesses", self.guesses, "count/op"),
            metric("core.driver.samples_used", self.samples_used, "count/op"),
            metric("metrics.evaluate_s", self.evaluate_s, "s/op"),
            metric("metrics.avpr_s", self.avpr_s, "s/op"),
            metric("server.solve_p50_ms", self.solve_p50_ms, "ms"),
            metric("server.solve_p95_ms", self.solve_p95_ms, "ms"),
            metric("server.overhead_p50_ms", self.overhead_p50_ms, "ms"),
            metric("server.overhead_p95_ms", self.overhead_p95_ms, "ms"),
            metric("server.response_bytes", self.response_bytes, "bytes"),
            metric("server.sessions_evicted", self.sessions_evicted, "count"),
            metric("server.admission_rejections", self.admission_rejections, "count"),
            metric("client.dials", self.dials, "count"),
            metric("client.reconnects", self.reconnects, "count"),
            metric("client.call_p50_ms", self.call_p50_ms, "ms"),
            metric("client.call_p95_ms", self.call_p95_ms, "ms"),
            metric("bench.generator_lag_p95_ms", self.generator_lag_p95_ms, "ms"),
            metric("bench.trace_overhead_frac", self.trace_overhead_frac, "fraction"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every printed metric is declared in `BENCHMARK.json` with the same
    /// unit, in the section its mode prints, and nothing is declared twice.
    #[test]
    fn printed_metrics_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end].to_string()
        };
        for (key, metrics) in [
            ("end_to_end", EndToEnd::default().metrics()),
            ("per_layer", PerLayer::default().metrics()),
        ] {
            let declared = section(key);
            assert_eq!(declared.matches("\"name\"").count(), metrics.len(), "{key} count");
            for m in metrics {
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                assert!(declared.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
