//! Fleet-scaling benchmarks for the cluster tier: N arrays behind the
//! consistent-hash router, one submitter thread per array, every array's
//! admission controller full at S(2) = 14 per window.
//!
//! Besides the per-benchmark lines, the run writes `BENCH_cluster.json`
//! (aggregate req/s, per-array utilization spread, worst-array p99/p99.9,
//! rebalance counts, and the 4-array vs single-array admitted-throughput
//! speedup) and asserts the cluster conservation law on every run.

use criterion::{Criterion, Throughput};
use fqos_cluster::{ClusterConfig, ClusterMetrics, QosCluster};
use fqos_core::{OverloadPolicy, QosConfig};
use fqos_server::ServerConfig;
use std::hint::black_box;
use std::io::Write;

const WINDOWS: u64 = 120;
const TENANTS_PER_ARRAY: usize = 2;

/// Drive one fleet run: `arrays` identical (9,3,1) arrays at M = 2, two
/// pinned tenants per array splitting its S(2) = 14, one submitter thread
/// per array replaying `WINDOWS` full intervals. Returns the submission
/// count and the final fleet metrics.
fn run_fleet(arrays: usize) -> (u64, ClusterMetrics) {
    let qos = QosConfig::paper_9_3_1().with_accesses(2); // S(2) = 14
    let t = qos.interval_ns;
    let limit = qos.request_limit();
    let cluster = QosCluster::new(ClusterConfig::uniform(arrays, &ServerConfig::new(qos)))
        .expect("valid config");

    let base = limit / TENANTS_PER_ARRAY;
    let extra = limit % TENANTS_PER_ARRAY;
    let plan: Vec<(usize, Vec<(u64, usize)>)> = (0..arrays)
        .map(|a| {
            let tenants: Vec<(u64, usize)> = (0..TENANTS_PER_ARRAY)
                .map(|i| ((a * 10 + i + 1) as u64, base + usize::from(i < extra)))
                .collect();
            for &(tenant, reserved) in &tenants {
                cluster
                    .register_pinned(a, tenant, reserved, OverloadPolicy::Delay)
                    .expect("within S(M)");
            }
            (a, tenants)
        })
        .collect();

    let threads: Vec<_> = plan
        .into_iter()
        .map(|(a, tenants)| {
            let mut h = cluster.handle();
            std::thread::spawn(move || {
                let mut n = 0u64;
                for w in 0..WINDOWS {
                    let mut i = 0u64;
                    for &(tenant, reserved) in &tenants {
                        for _ in 0..reserved as u64 {
                            h.submit(tenant, ((a as u64) << 32) | (w * 31 + i), w * t + i);
                            n += 1;
                            i += 1;
                        }
                    }
                }
                n
            })
        })
        .collect();
    let submitted: u64 = threads.into_iter().map(|j| j.join().unwrap()).sum();
    let m = cluster.finish();
    assert!(
        m.conserved(),
        "cluster law must close: {}",
        m.render_audit()
    );
    for s in &m.arrays {
        assert_eq!(
            s.guaranteed_violations, 0,
            "bench workload must stay deterministic"
        );
    }
    (submitted, m)
}

/// The skew scenario at bench scale: everyone pinned on array 0 of 2,
/// tenant 1 overdriving 2×, one control tick per window. Exactly one
/// rebalance heals the fleet.
fn run_skew() -> ClusterMetrics {
    let qos = QosConfig::paper_9_3_1(); // S(1) = 5
    let t = qos.interval_ns;
    let cluster =
        QosCluster::new(ClusterConfig::uniform(2, &ServerConfig::new(qos))).expect("valid config");
    for &(tenant, reserved) in &[(1u64, 2usize), (2, 2), (3, 1)] {
        cluster
            .register_pinned(0, tenant, reserved, OverloadPolicy::Delay)
            .expect("within S(M)");
    }
    let mut handle = cluster.handle();
    for w in 0..WINDOWS {
        let mut i = 0u64;
        for &(tenant, rate) in &[(1u64, 4u64), (2, 2), (3, 1)] {
            for _ in 0..rate {
                handle.submit(tenant, w * 31 + i, w * t + i * 1_000);
                i += 1;
            }
        }
        cluster.control_tick();
    }
    drop(handle);
    let m = cluster.finish();
    assert!(
        m.conserved(),
        "cluster law must close: {}",
        m.render_audit()
    );
    m
}

fn bench_cluster(c: &mut Criterion) {
    let per_array = WINDOWS * 14; // S(2) requests per window, every window full

    let mut group = c.benchmark_group("cluster");
    group.sample_size(10);
    group.throughput(Throughput::Elements(per_array));
    group.bench_function("fleet/1_array", |b| {
        b.iter(|| black_box(run_fleet(1)));
    });
    group.bench_function("fleet/2_arrays", |b| {
        b.iter(|| black_box(run_fleet(2)));
    });
    group.bench_function("fleet/4_arrays", |b| {
        b.iter(|| black_box(run_fleet(4)));
    });
    group.finish();

    // Instrumented runs for the figures the timing loop cannot see.
    let (n1, m1) = run_fleet(1);
    let (n4, m4) = run_fleet(4);
    let skew = run_skew();

    // Admitted-throughput speedup: what the fleet sustains per simulated
    // interval vs one array. This is the QoS-relevant capacity figure —
    // each window the 4-array fleet admits 4 × S(2) against deadlines the
    // audit then verifies — and unlike the wall-clock medians above (CPU
    // cost of simulation, bounded by host cores) it is machine-independent.
    let per_window_1 = m1.admitted_total() as f64 / WINDOWS as f64;
    let per_window_4 = m4.admitted_total() as f64 / WINDOWS as f64;
    let speedup = per_window_4 / per_window_1;
    assert!(
        speedup >= 3.0,
        "4-array fleet must sustain >= 3x single-array admitted throughput, got {speedup:.2}x"
    );

    let mut json = String::from("{\n  \"bench\": \"cluster\",\n");
    json.push_str(&format!(
        "  \"config\": {{ \"design\": \"(9,3,1)\", \"accesses\": 2, \"limit_per_array\": 14, \"windows\": {WINDOWS}, \"tenants_per_array\": {TENANTS_PER_ARRAY}, \"requests_per_array\": {per_array} }},\n"
    ));
    json.push_str("  \"timing\": [\n");
    for (i, r) in c.results.iter().enumerate() {
        let arrays = if r.id.contains("4_arrays") {
            4
        } else if r.id.contains("2_arrays") {
            2
        } else {
            1
        };
        let req_per_s = (arrays as u64 * per_array) as f64 / (r.median_ns * 1e-9);
        let sep = if i + 1 == c.results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"id\": \"{}\", \"arrays\": {arrays}, \"median_ns\": {:.0}, \"aggregate_req_per_s\": {req_per_s:.0} }}{sep}\n",
            r.id, r.median_ns
        ));
    }
    json.push_str("  ],\n  \"fleet\": [\n");
    for (i, (n, m)) in [(n1, &m1), (n4, &m4)].into_iter().enumerate() {
        let sep = if i == 1 { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"arrays\": {}, \"submitted\": {n}, \"admitted\": {}, \"utilization_spread\": {:.4}, \"p99_ns\": {}, \"p999_ns\": {}, \"rebalances\": {}, \"deadline_violations\": {}, \"law_conserved\": {} }}{sep}\n",
            m.arrays.len(),
            m.admitted_total(),
            m.utilization_spread(),
            m.p99_latency_ns(),
            m.p999_latency_ns(),
            m.rebalances,
            m.deadline_violations(),
            m.conserved(),
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_admitted_throughput_4x1\": {speedup:.2},\n  \"admitted_per_window\": {{ \"1_array\": {per_window_1:.1}, \"4_arrays\": {per_window_4:.1} }},\n"
    ));
    json.push_str(&format!(
        "  \"rebalance_scenario\": {{ \"arrays\": 2, \"rebalances\": {}, \"admitted\": {}, \"rejected\": {}, \"deadline_violations\": {}, \"law_conserved\": {} }}\n",
        skew.rebalances,
        skew.admitted_total(),
        skew.rejected(),
        skew.deadline_violations(),
        skew.conserved(),
    ));
    json.push_str("}\n");

    let path = "BENCH_cluster.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_cluster(&mut criterion);
}
