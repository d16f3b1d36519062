//! The metric catalog: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names.

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("cpu_ns_per_req", "ns"),
    ("ack_p50_ns", "ns"),
    ("ack_p99_ns", "ns"),
    ("completed_ratio", "ratio"),
    ("on_time_ratio", "ratio"),
    ("guaranteed_on_time_ratio", "ratio"),
    ("promised_p99_ns", "ns"),
    ("write_amp", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("registry.get_ns", "ns"),
    ("decluster.replicas_ns", "ns"),
    ("admission.try_add_ns", "ns"),
    ("admission.calls_per_req", "count"),
    ("admission.refused_ratio", "ratio"),
    ("engine.seal_submit_ns", "ns"),
    ("engine.plain_submit_ns", "ns"),
    ("engine.finish_ns", "ns"),
    ("engine.self_ns_per_req", "ns"),
    ("engine.delayed_ratio", "ratio"),
    ("engine.ack_p999_ns", "ns"),
    ("flashsim.submit_ns", "ns"),
    ("flashsim.gc_relocated_per_write", "count"),
    ("flashsim.gc_erases_per_kwrite", "count"),
    ("fault.observe_ns", "ns"),
    ("fault.hedge_issued_per_kreq", "count"),
    ("fault.hedge_win_ratio", "ratio"),
    ("wal.records_per_admit", "count"),
    ("wal.fsyncs_per_admit", "count"),
    ("wal.write_bytes_per_admit", "B"),
    ("wal.compactions", "count"),
    ("cluster.route_ns", "ns"),
    ("cluster.submit_ns", "ns"),
    ("cluster.control_tick_ns", "ns"),
    ("cluster.rebalances", "count"),
    ("cluster.utilization_spread", "ratio"),
    ("metrics.sim_p99_ns", "ns"),
    ("metrics.sim_max_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
