//! End-to-end benchmarks for the concurrent serving engine: how fast the
//! full admission → seal → device-model path drains a multi-tenant
//! synthetic workload, under both assignment modes and under submitter
//! contention.
//!
//! Besides the usual per-benchmark lines, the run writes
//! `BENCH_server.json` (machine-readable: wall-clock throughput in req/s
//! plus the simulated p50/p99/p99.9 response times) for CI trend
//! tracking.

use criterion::{Criterion, Throughput};
use fqos_core::{OverloadPolicy, QosConfig};
use fqos_server::{
    AssignmentMode, FtlGeometry, GcConfig, IoOp, MetricsSnapshot, QosServer, ServerConfig,
};
use std::hint::black_box;
use std::io::Write;

const WINDOWS: u64 = 120;

/// Drive one complete serve: `submitters` threads each own a tenant slice
/// of `S(M)` and replay `WINDOWS` intervals. Returns the request count and
/// the final snapshot.
fn run_serve(mode: AssignmentMode, submitters: usize) -> (u64, MetricsSnapshot) {
    let qos = QosConfig::paper_9_3_1().with_accesses(2); // S(2) = 14
    let t = qos.interval_ns;
    let limit = qos.request_limit();
    let server =
        QosServer::new(ServerConfig::new(qos).with_assignment(mode)).expect("valid config");

    let tenants = submitters.min(limit);
    let base = limit / tenants;
    let extra = limit % tenants;
    let plan: Vec<(u64, usize)> = (0..tenants)
        .map(|i| (i as u64 + 1, base + usize::from(i < extra)))
        .collect();
    for &(tenant, reserved) in &plan {
        server
            .register(tenant, reserved, OverloadPolicy::Delay)
            .expect("within S(M)");
    }

    let threads: Vec<_> = plan
        .into_iter()
        .map(|(tenant, reserved)| {
            let mut h = server.handle();
            std::thread::spawn(move || {
                let mut n = 0u64;
                for w in 0..WINDOWS {
                    for i in 0..reserved as u64 {
                        h.submit(tenant, tenant * 10_000 + w * 31 + i, w * t + i);
                        n += 1;
                    }
                }
                n
            })
        })
        .collect();
    let submitted: u64 = threads.into_iter().map(|j| j.join().unwrap()).sum();
    let m = server.finish();
    assert_eq!(
        m.guaranteed_violations, 0,
        "bench workload must stay deterministic"
    );
    (submitted, m)
}

/// Like [`run_serve`] but with every other request a replica fan-out
/// write, against a deliberately small FTL (64 pages/device, 12.5% OP)
/// so garbage collection actually runs inside the bench and its
/// program/erase interference shows up in the latency figures.
fn run_mixed(mode: AssignmentMode, submitters: usize) -> (u64, MetricsSnapshot) {
    let qos = QosConfig::paper_9_3_1().with_accesses(2);
    let t = qos.interval_ns;
    let limit = qos.request_limit();
    let geometry = FtlGeometry {
        dies: 1,
        blocks_per_die: 8,
        pages_per_block: 8,
        overprovision: 0.125,
    };
    let server = QosServer::new(
        ServerConfig::new(qos)
            .with_assignment(mode)
            .with_gc_model(GcConfig::new(geometry)),
    )
    .expect("valid config");

    // Writes charge c× at admission, so reserve conservatively: half the
    // healthy read limit split across the submitters.
    let tenants = submitters.min(limit / 2);
    let base = (limit / 2) / tenants;
    let plan: Vec<(u64, usize)> = (0..tenants).map(|i| (i as u64 + 1, base)).collect();
    for &(tenant, reserved) in &plan {
        server
            .register(tenant, reserved, OverloadPolicy::Delay)
            .expect("within S(M)");
    }

    let threads: Vec<_> = plan
        .into_iter()
        .map(|(tenant, reserved)| {
            let mut h = server.handle();
            std::thread::spawn(move || {
                let mut n = 0u64;
                for w in 0..WINDOWS {
                    for i in 0..reserved as u64 {
                        let op = if (w + i) % 2 == 0 {
                            IoOp::Write
                        } else {
                            IoOp::Read
                        };
                        h.submit_op(tenant, tenant * 10_000 + w * 31 + i, w * t + i, op);
                        n += 1;
                    }
                }
                n
            })
        })
        .collect();
    let submitted: u64 = threads.into_iter().map(|j| j.join().unwrap()).sum();
    let m = server.finish();
    assert_eq!(m.write_lost, 0, "no device failed; every replica settles");
    (submitted, m)
}

fn bench_server(c: &mut Criterion) {
    let per_run = WINDOWS * 14; // S(2) requests per window, every window full

    let mut group = c.benchmark_group("server");
    group.sample_size(10);
    group.throughput(Throughput::Elements(per_run));
    group.bench_function("end_to_end/flow", |b| {
        b.iter(|| black_box(run_serve(AssignmentMode::OptimalFlow, 4)));
    });
    group.bench_function("end_to_end/eft", |b| {
        b.iter(|| black_box(run_serve(AssignmentMode::Eft, 4)));
    });
    group.bench_function("end_to_end/flow_1_submitter", |b| {
        b.iter(|| black_box(run_serve(AssignmentMode::OptimalFlow, 1)));
    });
    group.bench_function("end_to_end/flow_mixed_rw", |b| {
        b.iter(|| black_box(run_mixed(AssignmentMode::OptimalFlow, 4)));
    });
    group.finish();

    // One instrumented run per mode for the simulated-latency figures the
    // timing loop above cannot see.
    let (n_flow, flow) = run_serve(AssignmentMode::OptimalFlow, 4);
    let (n_eft, eft) = run_serve(AssignmentMode::Eft, 4);

    let mut json = String::from("{\n  \"bench\": \"server\",\n");
    json.push_str(&format!(
        "  \"config\": {{ \"design\": \"(9,3,1)\", \"accesses\": 2, \"limit\": 14, \"windows\": {WINDOWS}, \"requests_per_run\": {per_run} }},\n"
    ));
    json.push_str("  \"timing\": [\n");
    for (i, r) in c.results.iter().enumerate() {
        let req_per_s = per_run as f64 / (r.median_ns * 1e-9);
        let sep = if i + 1 == c.results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"id\": \"{}\", \"median_ns\": {:.0}, \"throughput_req_per_s\": {:.0} }}{sep}\n",
            r.id, r.median_ns, req_per_s
        ));
    }
    json.push_str("  ],\n  \"latency\": [\n");
    for (i, (mode, n, m)) in [("flow", n_flow, &flow), ("eft", n_eft, &eft)]
        .into_iter()
        .enumerate()
    {
        let sep = if i == 1 { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"mode\": \"{mode}\", \"requests\": {n}, \"served\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.0}, \"deadline_violations\": {} }}{sep}\n",
            m.served, m.p50_latency_ns, m.p99_latency_ns, m.p999_latency_ns, m.max_latency_ns, m.mean_latency_ns, m.deadline_violations
        ));
    }

    // One instrumented mixed read/write run against the small FTL: the
    // write-path and garbage-collection figures CI tracks for trend.
    let (n_mix, mix) = run_mixed(AssignmentMode::OptimalFlow, 4);
    let write_amp = if mix.gc_host_pages == 0 {
        1.0
    } else {
        (mix.gc_host_pages + mix.gc_pages) as f64 / mix.gc_host_pages as f64
    };
    json.push_str("  ],\n  \"writes\": {\n");
    json.push_str(&format!(
        "    \"requests\": {n_mix}, \"served\": {}, \"write_settled\": {}, \"write_lost\": {}, \"delayed\": {},\n",
        mix.served, mix.write_settled, mix.write_lost, mix.delayed
    ));
    json.push_str(&format!(
        "    \"gc_host_pages\": {}, \"gc_pages\": {}, \"gc_relocated\": {}, \"gc_erases\": {}, \"write_amplification\": {write_amp:.4},\n",
        mix.gc_host_pages, mix.gc_pages, mix.gc_relocated, mix.gc_erases
    ));
    json.push_str(&format!(
        "    \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"deadline_violations\": {}\n",
        mix.p50_latency_ns, mix.p99_latency_ns, mix.p999_latency_ns, mix.max_latency_ns, mix.deadline_violations
    ));
    json.push_str("  }\n}\n");

    let path = "BENCH_server.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_server(&mut criterion);
}
