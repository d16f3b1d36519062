//! The fqos benchmark: one command, four workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! fqos-perfbench --workload <read_burst|mixed_gc|durable_eft|fleet_skew>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--scratch <dir>]
//!                [--rustc <version>] [--git-rev <rev>] [--source-digest <hex>]
//! ```
//!
//! The run generates four traces from the seed and replays them in turn,
//! one complete serve per round, until `--seconds` have passed, after one
//! unmeasured warm-up round per trace, and reports medians over rounds.
//! Human-readable lines go to stderr; stdout carries a provenance line
//! and, last, the result object. The exit code is 0 whenever a result is
//! printed, correct or not. See README.md.

mod catalog;
mod drive;
mod host;
mod replay;
mod stats;
mod workload;

#[global_allocator]
static ALLOC: host::Counting = host::Counting;

use drive::{Round, Sim};
use stats::{mean, median, percentile, ratio};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Traces generated from one seed and replayed in turn.
const TRACES: usize = 4;

/// The seed of trace `k` of a run.
fn trace_seed(seed: u64, k: usize) -> u64 {
    workload::SplitMix::new(seed ^ (k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

/// Requests of a single-array trace replayed through a one-array cluster
/// to price the cluster tier on workloads that do not use it.
const CLUSTER_REPLAY_REQS: usize = 20_000;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    /// Windows per trace; `None` takes the workload's own length. Only
    /// the tests shorten it.
    windows: Option<u64>,
    rustc: String,
    git_rev: String,
    source_digest: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).copied();
    let need = |k: &str| get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = need("workload")?;
    let args = Args {
        workload: Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: need("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match need("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        scratch: PathBuf::from(get("scratch").unwrap_or(".bench_build/perfbench-scratch")),
        windows: None,
        rustc: get("rustc").unwrap_or("unknown").to_string(),
        git_rev: get("git-rev").unwrap_or("unknown").to_string(),
        source_digest: get("source-digest").unwrap_or("unknown").to_string(),
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Host figures of one round, reduced from its samples.
struct RoundFigures {
    setup_s: f64,
    throughput_rps: f64,
    cpu_ns_per_req: f64,
    ack_p50: u64,
    ack_p99: u64,
    ack_p999: u64,
    ack_mean: f64,
    /// Mean ack of submits that opened a new window (and so sealed and
    /// dispatched the previous one).
    seal_mean: f64,
    plain_mean: f64,
    finish_ns: f64,
    tick_mean: f64,
}

fn figures(wl: &Workload, r: &Round) -> RoundFigures {
    let mut sorted: Vec<u64> = r.acks.iter().map(|&a| u64::from(a)).collect();
    sorted.sort_unstable();
    let (mut seal, mut plain) = (Vec::new(), Vec::new());
    let mut window = u64::MAX;
    for (req, &ack) in wl.reqs.iter().zip(&r.acks) {
        let w = wl.window_of(req.arrival_ns);
        if w != window {
            window = w;
            seal.push(u64::from(ack));
        } else {
            plain.push(u64::from(ack));
        }
    }
    let (finish_ns, tick_mean) = match &r.spans {
        Some(s) => (
            (s.finish.1 - s.finish.0) as f64,
            mean(&s.tick.iter().map(|&(a, b)| b - a).collect::<Vec<_>>()),
        ),
        None => (0.0, 0.0),
    };
    let wall_s = r.wall_ns as f64 / 1e9;
    RoundFigures {
        setup_s: r.setup_ns as f64 / 1e9,
        throughput_rps: r.sim.completed() as f64 / wall_s,
        cpu_ns_per_req: r.cpu_ns as f64 / r.sim.offered as f64,
        ack_p50: percentile(&sorted, 0.5),
        ack_p99: percentile(&sorted, 0.99),
        ack_p999: percentile(&sorted, 0.999),
        ack_mean: mean(&sorted),
        seal_mean: mean(&seal),
        plain_mean: mean(&plain),
        finish_ns,
        tick_mean,
    }
}

/// Simulated end-to-end figures of one round.
struct SimFigures {
    completed_ratio: f64,
    on_time_ratio: f64,
    guaranteed_on_time_ratio: f64,
    write_amp: f64,
}

fn sim_figures(s: &Sim) -> SimFigures {
    SimFigures {
        // Refused and lost requests never complete: they count against
        // both ratios.
        completed_ratio: ratio(s.completed(), s.offered),
        on_time_ratio: ratio(s.on_time(), s.offered),
        guaranteed_on_time_ratio: 1.0 - ratio(s.guaranteed_violations, s.admitted),
        write_amp: if s.gc_host_pages == 0 {
            1.0
        } else {
            (s.gc_host_pages + s.gc_pages) as f64 / s.gc_host_pages as f64
        },
    }
}

/// The result of one run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    provenance: String,
    notes: Vec<String>,
}

/// Median over rounds of one figure.
fn med<T>(rounds: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// `min..max` of one simulated counter across rounds.
fn spread(rounds: &[Sim], f: impl Fn(&Sim) -> u64) -> String {
    let v: Vec<u64> = rounds.iter().map(f).collect();
    format!(
        "{}..{}",
        v.iter().min().copied().unwrap_or(0),
        v.iter().max().copied().unwrap_or(0)
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let kind = args.workload;
    let windows = args.windows.unwrap_or(kind.default_windows());
    // Several traces per seed, replayed in turn: one trace's quirks (where
    // a delay cascade starts, which window a p99 falls in) weigh a quarter.
    let traces: Vec<Workload> = (0..TRACES)
        .map(|k| Workload::generate(kind, trace_seed(args.seed, k), windows))
        .collect();
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("scratch dir {}: {e}", args.scratch.display()))?;
    let cfg = traces[0].server_config(None);
    let mut notes = Vec::new();
    let mut gates: Vec<(String, bool)> = Vec::new();

    // Warm-up: page in the engine and each trace; the warm-up counters are
    // the reference every measured round of that trace must repeat.
    let mut references = Vec::with_capacity(TRACES);
    // Promised latencies of every admitted request of the four traces,
    // pooled: one trace's tail would set a per-trace p99 alone.
    let mut promised = Vec::new();
    // The engine's heap is counted in the warm-up rounds only: counting
    // slows the allocator.
    let mut heap_mb = Vec::with_capacity(TRACES);
    for wl in &traces {
        let warm = drive::round(wl, None, false, true)?;
        promised.extend(drive::promised_ns(wl, &warm.outcomes));
        heap_mb.push(warm.heap_peak_bytes.unwrap_or(0) as f64 / (1024.0 * 1024.0));
        references.push(warm.sim);
    }
    promised.sort_unstable();
    let mut sims: Vec<Sim> = Vec::new();
    let mut repeats = true;
    let mut plain: Vec<RoundFigures> = Vec::new();
    let mut traced: Vec<RoundFigures> = Vec::new();
    let mut last_traced: Option<(usize, Round)> = None;
    let mut diags = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut i = 0usize;
    loop {
        // Every trace once per cycle; with tracing, untraced and traced
        // cycles alternate so drift in the host hits both alike.
        let k = i % TRACES;
        let traced_round = args.trace && (i / TRACES) % 2 == 1;
        let wl = &traces[k];
        let r = drive::round(wl, None, traced_round, false)?;
        let f = figures(wl, &r);
        if traced_round {
            traced.push(f);
        } else {
            plain.push(f);
        }
        repeats &= r.sim == references[k];
        sims.push(r.sim.clone());
        diags.push(r.diag.clone());
        if traced_round {
            last_traced = Some((k, r));
        }
        i += 1;
        let cycle = if args.trace { 2 * TRACES } else { TRACES };
        if i.is_multiple_of(cycle) && t0.elapsed() >= budget {
            break;
        }
    }

    // Correctness gates.
    gates.push((
        "conservation law closes every round".into(),
        diags.iter().all(|d| d.conserved),
    ));
    if kind.gated() {
        gates.push((
            "simulated counters repeat exactly across rounds of a trace".into(),
            repeats,
        ));
        gates.push((
            "guaranteed_violations == 0".into(),
            sims.iter().all(|s| s.guaranteed_violations == 0),
        ));
        gates.push((
            "write_lost == 0".into(),
            sims.iter().all(|s| s.write_lost == 0),
        ));
    } else {
        let first: Vec<Sim> = std::iter::once(references[0].clone())
            .chain(sims.iter().step_by(TRACES).cloned())
            .collect();
        notes.push(format!(
            "known defects on {} (reported, not gated): simulated counters {} across \
             rounds of one trace; first trace over {} rounds: served {}, hedges_issued {}, \
             hedges_won {}, gc_pages {}, deadline_violations {}, guaranteed_violations {}",
            kind.name(),
            if repeats { "repeated" } else { "DIFFERED" },
            first.len(),
            spread(&first, |s| s.served),
            spread(&first, |s| s.hedges_issued),
            spread(&first, |s| s.hedges_won),
            spread(&first, |s| s.gc_pages),
            spread(&first, |s| s.deadline_violations),
            spread(&first, |s| s.guaranteed_violations),
        ));
    }
    if kind == Kind::DurableEft {
        gates.push((
            "WAL logged every round without misordering or I/O errors".into(),
            sims.iter().all(|s| s.wal_records > 0)
                && diags
                    .iter()
                    .all(|d| d.wal_misordered == 0 && d.wal_io_errors == 0),
        ));
    }

    let sim_fig: Vec<SimFigures> = sims.iter().map(sim_figures).collect();
    let attempted: u64 = sims.iter().map(|s| s.offered).sum();
    let failed: u64 = sims.iter().map(Sim::failed).sum();
    let requests: Vec<usize> = traces.iter().map(|w| w.reqs.len()).collect();

    let mut metrics: Vec<(&'static str, f64, &'static str)> = if !args.trace {
        vec![
            ("setup_s", med(&plain, |f| f.setup_s), "s"),
            ("throughput_rps", med(&plain, |f| f.throughput_rps), "1/s"),
            ("cpu_ns_per_req", med(&plain, |f| f.cpu_ns_per_req), "ns"),
            ("ack_p50_ns", med(&plain, |f| f.ack_p50 as f64), "ns"),
            ("ack_p99_ns", med(&plain, |f| f.ack_p99 as f64), "ns"),
            (
                "completed_ratio",
                med(&sim_fig, |f| f.completed_ratio),
                "ratio",
            ),
            ("on_time_ratio", med(&sim_fig, |f| f.on_time_ratio), "ratio"),
            (
                "guaranteed_on_time_ratio",
                med(&sim_fig, |f| f.guaranteed_on_time_ratio),
                "ratio",
            ),
            ("promised_p99_ns", percentile(&promised, 0.99) as f64, "ns"),
            ("write_amp", med(&sim_fig, |f| f.write_amp), "ratio"),
            ("peak_heap_mb", median(&heap_mb), "MiB"),
        ]
    } else {
        let (k, round) = last_traced
            .as_ref()
            .expect("a traced run has traced rounds");
        let wl = &traces[*k];
        let layers = replay::replay(wl, round, &cfg);
        if kind.gated() {
            gates.push((
                "admission replay reproduces every engine decision".into(),
                layers.mismatches == 0,
            ));
        } else {
            notes.push(format!(
                "admission replay: {} of {} kernel decisions differ from the engine \
                 (the GC reserve is not replayed)",
                layers.mismatches, layers.flow_calls
            ));
        }
        let s = &round.sim;
        let n = s.offered as f64;
        let ack_mean = med(&traced, |f| f.ack_mean);
        let flow_share = if cfg.assignment == fqos_server::AssignmentMode::OptimalFlow {
            layers.try_add_ns * layers.flow_calls as f64 / n
        } else {
            0.0
        };
        let route_share = if wl.arrays > 1 { layers.route_ns } else { 0.0 };
        let (cluster_submit, cluster_tick) = if wl.arrays > 1 {
            (ack_mean, med(&traced, |f| f.tick_mean))
        } else {
            drive::cluster_replay(wl, CLUSTER_REPLAY_REQS)?
        };
        // The measured rounds keep the log in memory; one more round on a
        // file prices what the log writes to storage.
        let wal_bytes = if cfg.wal.is_some() {
            let dir = args.scratch.join("wal");
            let r = drive::round(wl, Some(&dir), false, false)?;
            let _ = std::fs::remove_dir_all(&dir);
            gates.push((
                "the file-backed WAL round conserves and logs cleanly".into(),
                r.diag.conserved
                    && r.diag.wal_misordered == 0
                    && r.diag.wal_io_errors == 0
                    && r.sim.outcome_digest == references[*k].outcome_digest,
            ));
            r.diag.io_write_bytes as f64 / (r.sim.admitted + r.sim.overflow).max(1) as f64
        } else {
            0.0
        };
        let admits = (s.admitted + s.overflow).max(1) as f64;
        let plain_tp = med(&plain, |f| f.throughput_rps);
        let traced_tp = med(&traced, |f| f.throughput_rps);
        let self_ns =
            ack_mean - layers.registry_get_ns - layers.replicas_ns - flow_share - route_share;
        notes.push(format!(
            "traced mean ack {ack_mean:.1} ns = engine self {self_ns:.1} + registry {:.1} + \
             replicas {:.1} + admission {flow_share:.1} + route {route_share:.1}",
            layers.registry_get_ns, layers.replicas_ns,
        ));
        vec![
            ("registry.get_ns", layers.registry_get_ns, "ns"),
            ("decluster.replicas_ns", layers.replicas_ns, "ns"),
            ("admission.try_add_ns", layers.try_add_ns, "ns"),
            (
                "admission.calls_per_req",
                layers.attempts as f64 / n,
                "count",
            ),
            (
                "admission.refused_ratio",
                ratio(layers.refused, layers.attempts),
                "ratio",
            ),
            ("engine.seal_submit_ns", med(&traced, |f| f.seal_mean), "ns"),
            (
                "engine.plain_submit_ns",
                med(&traced, |f| f.plain_mean),
                "ns",
            ),
            ("engine.finish_ns", med(&traced, |f| f.finish_ns), "ns"),
            ("engine.self_ns_per_req", self_ns, "ns"),
            ("engine.delayed_ratio", ratio(s.delayed, s.offered), "ratio"),
            (
                "engine.ack_p999_ns",
                med(&traced, |f| f.ack_p999 as f64),
                "ns",
            ),
            ("flashsim.submit_ns", layers.flashsim_submit_ns, "ns"),
            (
                "flashsim.gc_relocated_per_write",
                med(&sims, |s| ratio(s.gc_relocated, s.gc_host_pages)),
                "count",
            ),
            (
                "flashsim.gc_erases_per_kwrite",
                med(&sims, |s| 1000.0 * ratio(s.gc_erases, s.gc_host_pages)),
                "count",
            ),
            ("fault.observe_ns", layers.fault_observe_ns, "ns"),
            (
                "fault.hedge_issued_per_kreq",
                med(&sims, |s| 1000.0 * ratio(s.hedges_issued, s.offered)),
                "count",
            ),
            (
                "fault.hedge_win_ratio",
                med(&sims, |s| ratio(s.hedges_won, s.hedges_issued)),
                "ratio",
            ),
            (
                "wal.records_per_admit",
                s.wal_records as f64 / admits,
                "count",
            ),
            (
                "wal.fsyncs_per_admit",
                median(
                    &diags
                        .iter()
                        .map(|d| d.wal_fsyncs as f64 / admits)
                        .collect::<Vec<_>>(),
                ),
                "count",
            ),
            ("wal.write_bytes_per_admit", wal_bytes, "B"),
            ("wal.compactions", s.wal_compactions as f64, "count"),
            ("cluster.route_ns", layers.route_ns, "ns"),
            ("cluster.submit_ns", cluster_submit, "ns"),
            ("cluster.control_tick_ns", cluster_tick, "ns"),
            ("cluster.rebalances", s.rebalances as f64, "count"),
            (
                "cluster.utilization_spread",
                median(
                    &diags
                        .iter()
                        .map(|d| d.utilization_spread)
                        .collect::<Vec<_>>(),
                ),
                "ratio",
            ),
            ("metrics.sim_p99_ns", s.hist_p99_ns as f64, "ns"),
            ("metrics.sim_max_ns", s.hist_max_ns as f64, "ns"),
            ("trace.overhead_ratio", plain_tp / traced_tp - 1.0, "ratio"),
        ]
    };
    let catalog = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    gates.push((
        "every catalogued metric is reported, by a legal name".into(),
        metrics
            .iter()
            .map(|m| (m.0, m.2))
            .eq(catalog.iter().copied())
            && metrics.iter().all(|m| catalog::valid_name(m.0)),
    ));
    gates.push((
        "every metric is a finite number".into(),
        metrics.iter().all(|m| m.1.is_finite()),
    ));
    for m in &mut metrics {
        if !m.1.is_finite() {
            m.1 = -1.0;
        }
    }
    let correct = gates.iter().all(|g| g.1);
    for (gate, ok) in &gates {
        notes.push(format!(
            "gate {}: {gate}",
            if *ok { "ok" } else { "FAILED" }
        ));
    }

    let host_rounds = if args.trace {
        traced.len()
    } else {
        plain.len()
    };
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"rustc\": \"{}\", \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"traces\": {TRACES}, \
         \"windows_per_trace\": {windows}, \"requests_per_trace\": {:?}, \"rounds\": {}, \
         \"untraced_rounds\": {}, \"traced_rounds\": {}, \"percentile_samples\": {{\"ack\": \
         \"per-round percentile over one trace's requests, median of {host_rounds} rounds\", \
         \"promised\": \"one percentile over the {} admitted requests of the warm-up rounds\"}}, \
         \"submitters\": 1, \"workers_per_array\": 1, \"arrays\": {}, \"wal\": {}}}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        json_escape(&args.rustc),
        json_escape(&args.git_rev),
        json_escape(&args.source_digest),
        requests,
        sims.len(),
        plain.len(),
        traced.len(),
        promised.len(),
        traces[0].arrays,
        match &cfg.wal {
            Some(w) => format!(
                "{{\"fsync_batch\": {}, \"snapshot_interval\": {}, \"backing\": \"memory\"}}",
                w.fsync_batch, w.snapshot_interval
            ),
            None => "null".into(),
        },
    );
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        provenance,
        notes,
    })
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fqos-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("{name:>34} = {value:>16.4} {unit}");
            }
            for note in &report.notes {
                eprintln!("{note}");
            }
            println!("provenance: {}", report.provenance);
            println!("{}", result_json(&report));
        }
        Err(e) => {
            eprintln!("fqos-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_run(kind: Kind, trace: bool) -> Report {
        let _serial = host::HEAP_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let scratch = std::env::temp_dir().join(format!(
            "fqos-perfbench-test-{}-{}-{}",
            kind.name(),
            u8::from(trace),
            std::process::id()
        ));
        let args = Args {
            workload: kind,
            seed: 11,
            seconds: 0.01,
            trace,
            scratch: scratch.clone(),
            windows: Some(if kind == Kind::ReadBurst { 300 } else { 150 }),
            rustc: "test".into(),
            git_rev: "test".into(),
            source_digest: "test".into(),
        };
        let report = run(&args).expect("short run");
        let _ = std::fs::remove_dir_all(scratch);
        report
    }

    #[test]
    fn a_short_run_of_each_workload_emits_every_metric_with_its_unit() {
        for kind in Kind::ALL {
            for (trace, catalog) in [(false, catalog::END_TO_END), (true, catalog::PER_LAYER)] {
                let r = short_run(kind, trace);
                let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.0, m.2)).collect();
                assert_eq!(got, catalog.to_vec(), "{} trace={trace}", kind.name());
                assert!(r.attempted > 0);
                let line = result_json(&r);
                assert!(line.starts_with("{\"correct\": "));
                for (name, unit) in catalog {
                    assert!(
                        line.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{name}"
                    );
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
                }
                if kind.gated() {
                    assert!(r.correct, "{} trace={trace}: {:?}", kind.name(), r.notes);
                    assert_eq!(r.failed, 0);
                }
            }
        }
    }

    #[test]
    fn refused_and_lost_requests_count_as_late_and_failed() {
        let s = Sim {
            offered: 100,
            admitted: 80,
            rejected: 20,
            failed_submits: 5,
            served: 70,
            write_settled: 5,
            fault_lost: 3,
            write_lost: 2,
            deadline_violations: 4,
            guaranteed_violations: 1,
            ..Sim::default()
        };
        let f = sim_figures(&s);
        // 75 completed of 100 offered: the 20 refused and 5 lost never do.
        assert_eq!(f.completed_ratio, 0.75);
        // 4 of the 75 finished late, so 71 were on time.
        assert_eq!(f.on_time_ratio, 0.71);
        assert_eq!(f.guaranteed_on_time_ratio, 1.0 - 1.0 / 80.0);
        assert_eq!(s.failed(), 5 + 3 + 2);
        assert_eq!(f.write_amp, 1.0);
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "--workload read_burst --seed 1 --seconds 10 --trace 0"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload read_burst --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload read_burst --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload read_burst --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn delays_drain_so_latency_does_not_grow_with_run_length() {
        // Every tenant offers less than it reserves, so a backlog of
        // delayed requests drains: a trace four times longer delays no
        // larger share of its requests and promises no later finish.
        for kind in Kind::ALL {
            let n = if kind == Kind::MixedGc { 1_500 } else { 600 };
            let _serial = host::HEAP_TEST_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let figures = |windows: u64| {
                let wl = Workload::generate(kind, trace_seed(5, 0), windows);
                let r = drive::round(&wl, None, false, false).expect("round");
                let mut p = drive::promised_ns(&wl, &r.outcomes);
                p.sort_unstable();
                (
                    ratio(r.sim.delayed, r.sim.offered),
                    percentile(&p, 0.99),
                    p.last().copied().unwrap_or(0),
                )
            };
            let (short, long) = (figures(n), figures(4 * n));
            let grew = long.0 > short.0 + 0.01
                || long.1 as f64 > 1.05 * short.1 as f64
                || long.2 as f64 > 1.05 * short.2 as f64;
            assert!(
                !grew,
                "{}: (delayed share, promised p99, promised max) went from {short:?} \
                 over {n} windows to {long:?} over {}",
                kind.name(),
                4 * n
            );
        }
    }
}
