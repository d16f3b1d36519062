//! The closed loop: one submitter thread replays a workload's trace
//! through the public API, one call at a time, and times each call.
//!
//! A *round* is one complete serve: build and register (set-up), submit
//! every request of the trace, `finish()`. Rounds of one run replay the
//! same trace, so every simulated counter of a round must repeat exactly
//! on the gated workloads.

use crate::host;
use crate::workload::{Kind, Workload};
use fqos_cluster::{ClusterConfig, ClusterMetrics, QosCluster};
use fqos_flashsim::IoOp;
use fqos_server::{MetricsSnapshot, QosServer, RejectReason, SubmitOutcome};
use std::path::Path;
use std::time::Instant;

/// Simulated-time counters of one round. Deterministic per seed on the
/// gated workloads, so two rounds are compared field by field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sim {
    /// Requests offered (the trace length).
    pub offered: u64,
    /// Guaranteed admissions.
    pub admitted: u64,
    /// Statistical (best-effort) admissions.
    pub overflow: u64,
    /// Admissions pushed past their arrival window.
    pub delayed: u64,
    /// Refusals of every kind, including router-level ones.
    pub rejected: u64,
    /// Refusals that are failures rather than admission control: unknown
    /// tenant, stopping server, unavailable replicas or array.
    pub failed_submits: u64,
    /// Primary read completions.
    pub served: u64,
    /// Reads completed by a winning hedge.
    pub hedges_won: u64,
    /// Hedged dispatches issued.
    pub hedges_issued: u64,
    /// Logical writes settled on every replica.
    pub write_settled: u64,
    /// Logical writes that lost a replica copy.
    pub write_lost: u64,
    /// Admissions lost to device faults.
    pub fault_lost: u64,
    /// Admissions stranded on a fail-stopped array.
    pub evacuation_lost: u64,
    /// Completions past their interval deadline.
    pub deadline_violations: u64,
    /// Guaranteed completions past their interval deadline.
    pub guaranteed_violations: u64,
    /// Host page programs.
    pub gc_host_pages: u64,
    /// GC relocation programs.
    pub gc_pages: u64,
    /// Pages read back by GC.
    pub gc_relocated: u64,
    /// Block erases.
    pub gc_erases: u64,
    /// Windows sealed.
    pub windows_sealed: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL compactions.
    pub wal_compactions: u64,
    /// Control-loop migrations.
    pub rebalances: u64,
    /// p99 of the engine's latency histogram (power-of-two buckets).
    pub hist_p99_ns: u64,
    /// Largest simulated latency.
    pub hist_max_ns: u64,
    /// Digest of every submit outcome, in order.
    pub outcome_digest: u64,
}

impl Sim {
    /// Requests that completed service.
    pub fn completed(&self) -> u64 {
        self.served + self.hedges_won + self.write_settled
    }

    /// Completed requests that met their interval deadline.
    pub fn on_time(&self) -> u64 {
        self.completed().saturating_sub(self.deadline_violations)
    }

    /// Operations that failed: failure-class refusals plus admissions
    /// lost after being accepted.
    pub fn failed(&self) -> u64 {
        self.failed_submits + self.fault_lost + self.write_lost + self.evacuation_lost
    }
}

/// Counters that legitimately vary between rounds of one seed.
#[derive(Debug, Clone, Default)]
pub struct Diag {
    /// WAL fsync batches (force-synced seals break batches at points that
    /// depend on worker timing).
    pub wal_fsyncs: u64,
    /// WAL ordering violations (must be 0).
    pub wal_misordered: u64,
    /// WAL I/O errors (must be 0).
    pub wal_io_errors: u64,
    /// Bytes the process wrote to storage during the round.
    pub io_write_bytes: u64,
    /// `(max − min) / mean` of per-array admissions.
    pub utilization_spread: f64,
    /// The conservation law closed at `finish()`.
    pub conserved: bool,
}

/// One executed migration and the request index it took effect at.
#[derive(Debug, Clone, Copy)]
pub struct Move {
    /// First request submitted after the migration.
    pub at: usize,
    /// Migrated tenant.
    pub tenant: u64,
    /// Target array.
    pub to: usize,
    /// Reservation on the target.
    pub reserved: usize,
}

/// Spans a traced round records besides its per-call acks, kept in
/// memory: `(start, end)` in ns since the round's first submit.
#[derive(Debug, Default)]
pub struct Spans {
    /// Per control tick.
    pub tick: Vec<(u64, u64)>,
    /// The `finish()` call.
    pub finish: (u64, u64),
}

/// Everything one round measured.
pub struct Round {
    /// Build + WAL create + tenant registration.
    pub setup_ns: u64,
    /// Most heap bytes held at once from build to the return of
    /// `finish()`, over what the round's own buffers held before the
    /// build: the engine's memory. Counted rounds only.
    pub heap_peak_bytes: Option<usize>,
    /// First submit to the return of `finish()`.
    pub wall_ns: u64,
    /// Process CPU (all threads) over the same interval.
    pub cpu_ns: u64,
    /// Per request: duration of its submit call (its ack latency).
    pub acks: Vec<u32>,
    /// Per request: its outcome.
    pub outcomes: Vec<SubmitOutcome>,
    /// Per request: the array it was routed to.
    pub arrays_of: Vec<u8>,
    /// Migrations, in order.
    pub moves: Vec<Move>,
    /// Simulated counters.
    pub sim: Sim,
    /// Round-varying counters.
    pub diag: Diag,
    /// Span record (traced rounds only).
    pub spans: Option<Spans>,
}

/// Nanoseconds between two instants, saturating into `u32` for the ack
/// vector (4.29 s is far beyond any single call here).
fn ns_u32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Fold one outcome into a running FNV-1a digest.
fn digest(h: u64, o: &SubmitOutcome) -> u64 {
    let code = match *o {
        SubmitOutcome::Admitted { window } => window << 8,
        SubmitOutcome::Delayed {
            window,
            delayed_windows,
        } => (window << 8) ^ (delayed_windows << 1) ^ 1,
        SubmitOutcome::Overflow { window } => (window << 8) ^ 2,
        SubmitOutcome::Rejected(r) => 0xFF ^ ((r as u64) << 2),
    };
    (h ^ code).wrapping_mul(0x0000_0100_0000_01B3)
}

/// A refusal that is a failure of the system rather than an admission
/// decision.
fn is_failure(o: &SubmitOutcome) -> bool {
    matches!(
        o,
        SubmitOutcome::Rejected(
            RejectReason::UnknownTenant
                | RejectReason::ServerStopping
                | RejectReason::ReplicasUnavailable
                | RejectReason::ArrayUnavailable
        )
    )
}

/// `(window + 2)·T − arrival` of every admitted request: the latest
/// finish its admission promised.
pub fn promised_ns(wl: &Workload, outcomes: &[SubmitOutcome]) -> Vec<u64> {
    let t = wl.qos.interval_ns;
    outcomes
        .iter()
        .zip(&wl.reqs)
        .filter_map(|(o, r)| o.window().map(|w| (w + 2) * t - r.arrival_ns))
        .collect()
}

/// Outcome-derived simulated figures: failure count and the outcome
/// digest.
fn outcome_figures(outcomes: &[SubmitOutcome], sim: &mut Sim) {
    sim.failed_submits = outcomes.iter().filter(|o| is_failure(o)).count() as u64;
    sim.outcome_digest = outcomes.iter().fold(0xCBF2_9CE4_8422_2325, digest);
    sim.offered = outcomes.len() as u64;
}

fn server_sim(m: &MetricsSnapshot, sim: &mut Sim) {
    sim.admitted += m.admitted;
    sim.overflow += m.overflow;
    sim.delayed += m.delayed;
    sim.rejected += m.rejected;
    sim.served += m.served;
    sim.hedges_won += m.hedges_won;
    sim.hedges_issued += m.hedges_issued;
    sim.write_settled += m.write_settled;
    sim.write_lost += m.write_lost;
    sim.fault_lost += m.fault_lost;
    sim.deadline_violations += m.deadline_violations;
    sim.guaranteed_violations += m.guaranteed_violations;
    sim.gc_host_pages += m.gc_host_pages;
    sim.gc_pages += m.gc_pages;
    sim.gc_relocated += m.gc_relocated;
    sim.gc_erases += m.gc_erases;
    sim.windows_sealed += m.windows_sealed;
    sim.wal_records += m.wal_records;
    sim.wal_compactions += m.wal_compactions;
    sim.hist_p99_ns = sim.hist_p99_ns.max(m.p99_latency_ns);
    sim.hist_max_ns = sim.hist_max_ns.max(m.max_latency_ns);
}

fn server_diag(m: &MetricsSnapshot, diag: &mut Diag) {
    diag.wal_fsyncs += m.wal_fsyncs;
    diag.wal_misordered += m.wal_misordered;
    diag.wal_io_errors += m.wal_io_errors;
}

/// Submit loop shared by both front doors. `submit` makes one call;
/// `tick` runs before the first request of every window after the first.
/// Returns per-request ack durations and, when traced, the spans.
fn submit_loop(
    wl: &Workload,
    traced: bool,
    start: Instant,
    mut submit: impl FnMut(usize) -> SubmitOutcome,
    mut tick: impl FnMut(usize),
    acks: &mut Vec<u32>,
    outcomes: &mut Vec<SubmitOutcome>,
) -> Option<Spans> {
    let mut spans = traced.then(Spans::default);
    let mut window = 0u64;
    let mut prev = start;
    for (i, r) in wl.reqs.iter().enumerate() {
        let w = wl.window_of(r.arrival_ns);
        if w != window {
            window = w;
            match &mut spans {
                Some(s) => {
                    let a = Instant::now();
                    tick(i);
                    let b = Instant::now();
                    s.tick.push((ns(a - start), ns(b - start)));
                }
                None => tick(i),
            }
            prev = Instant::now();
        }
        if traced {
            // Traced: a span opened and closed around each call.
            let a = Instant::now();
            outcomes.push(submit(i));
            acks.push(ns_u32(a.elapsed()));
        } else {
            // Untraced: one clock read per call; each ack runs from the
            // previous call's return to this call's return.
            outcomes.push(submit(i));
            let now = Instant::now();
            acks.push(ns_u32(now - prev));
            prev = now;
        }
    }
    spans
}

/// One round of a single-array workload through `QosServer`.
fn server_round(
    wl: &Workload,
    wal_dir: Option<&Path>,
    traced: bool,
    count_heap: bool,
) -> Result<Round, String> {
    let cfg = wl.server_config(wal_dir);
    // The round's own buffers are allocated before counting starts, so
    // the heap peak is the engine's.
    let mut acks = Vec::with_capacity(wl.reqs.len());
    let mut outcomes = Vec::with_capacity(wl.reqs.len());
    if count_heap {
        host::heap_count_start();
    }
    let t0 = Instant::now();
    let server = QosServer::new(cfg)?;
    for t in &wl.tenants {
        server
            .register(t.id, t.reserved, wl.policy())
            .map_err(|e| format!("registering tenant {}: {e:?}", t.id))?;
    }
    let setup_ns = ns(t0.elapsed());

    let mut handle = server.handle();
    let io0 = host::io_write_bytes();
    let cpu0 = host::process_cpu_ns();
    let start = Instant::now();
    let mut spans = submit_loop(
        wl,
        traced,
        start,
        |i| {
            let r = &wl.reqs[i];
            handle.submit_op(r.tenant, r.lbn, r.arrival_ns, r.op)
        },
        |_| {},
        &mut acks,
        &mut outcomes,
    );
    drop(handle);
    let f0 = Instant::now();
    let m = server.finish();
    let end = Instant::now();
    let cpu_ns = host::process_cpu_ns() - cpu0;
    let heap_peak_bytes = count_heap.then(host::heap_count_stop);
    if let Some(s) = &mut spans {
        s.finish = (ns(f0 - start), ns(end - start));
    }

    let mut sim = Sim::default();
    server_sim(&m, &mut sim);
    outcome_figures(&outcomes, &mut sim);
    let mut diag = Diag {
        io_write_bytes: host::io_write_bytes() - io0,
        conserved: m.settled() == m.admitted_total()
            && m.hedges_won == m.hedges_cancelled
            && m.admitted_total() + m.rejected == sim.offered,
        ..Diag::default()
    };
    server_diag(&m, &mut diag);
    Ok(Round {
        setup_ns,
        heap_peak_bytes,
        wall_ns: ns(end - start),
        cpu_ns,
        arrays_of: vec![0; acks.len()],
        acks,
        outcomes,
        moves: Vec::new(),
        sim,
        diag,
        spans,
    })
}

fn cluster_figures(m: &ClusterMetrics, sim: &mut Sim, diag: &mut Diag) {
    for a in m.arrays.iter().chain(&m.past) {
        server_sim(a, sim);
        server_diag(a, diag);
    }
    sim.rejected += m.unrouted;
    sim.evacuation_lost = m.evacuation_lost;
    sim.rebalances = m.rebalances;
    diag.utilization_spread = m.utilization_spread();
    diag.conserved = m.conserved() && m.admitted_total() + m.rejected() + m.unrouted == sim.offered;
}

/// One round of a multi-array workload through `QosCluster`, with one
/// control tick per window.
fn cluster_round(
    wl: &Workload,
    wal_dir: Option<&Path>,
    traced: bool,
    count_heap: bool,
) -> Result<Round, String> {
    let array_cfg = wl.server_config(wal_dir);
    // The round's own buffers are allocated before counting starts, so
    // the heap peak is the engine's.
    let mut acks = Vec::with_capacity(wl.reqs.len());
    let mut outcomes = Vec::with_capacity(wl.reqs.len());
    if count_heap {
        host::heap_count_start();
    }
    let t0 = Instant::now();
    let cluster = QosCluster::new(ClusterConfig::uniform(wl.arrays, &array_cfg))
        .map_err(|e| e.to_string())?;
    for t in &wl.tenants {
        cluster
            .register_tenant(t.id, t.reserved, wl.policy())
            .map_err(|e| e.to_string())?;
    }
    let setup_ns = ns(t0.elapsed());

    let placement: Vec<(u64, usize)> = wl
        .tenants
        .iter()
        .map(|t| (t.id, cluster.route_of(t.id).unwrap_or(usize::MAX)))
        .collect();
    let mut moves = Vec::new();
    let mut handle = cluster.handle();
    let io0 = host::io_write_bytes();
    let cpu0 = host::process_cpu_ns();
    let start = Instant::now();
    let mut spans = submit_loop(
        wl,
        traced,
        start,
        |i| {
            let r = &wl.reqs[i];
            debug_assert_eq!(r.op, IoOp::Read, "the cluster front door is read-only");
            handle.submit(r.tenant, r.lbn, r.arrival_ns)
        },
        |i| {
            if let Some(e) = cluster.control_tick() {
                moves.push(Move {
                    at: i,
                    tenant: e.tenant,
                    to: e.to,
                    reserved: e.reserved,
                });
            }
        },
        &mut acks,
        &mut outcomes,
    );
    drop(handle);
    let f0 = Instant::now();
    let m = cluster.finish();
    let end = Instant::now();
    let cpu_ns = host::process_cpu_ns() - cpu0;
    let heap_peak_bytes = count_heap.then(host::heap_count_stop);
    if let Some(s) = &mut spans {
        s.finish = (ns(f0 - start), ns(end - start));
    }

    let mut sim = Sim::default();
    let mut diag = Diag {
        io_write_bytes: host::io_write_bytes() - io0,
        ..Diag::default()
    };
    outcome_figures(&outcomes, &mut sim);
    cluster_figures(&m, &mut sim, &mut diag);
    let mut route: std::collections::HashMap<u64, usize> = placement.iter().copied().collect();
    let mut pending = moves.iter().peekable();
    let arrays_of = wl
        .reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            while let Some(m) = pending.next_if(|m| m.at <= i) {
                route.insert(m.tenant, m.to);
            }
            route.get(&r.tenant).map_or(u8::MAX, |&a| a as u8)
        })
        .collect();
    Ok(Round {
        setup_ns,
        heap_peak_bytes,
        wall_ns: ns(end - start),
        cpu_ns,
        acks,
        outcomes,
        arrays_of,
        moves,
        sim,
        diag,
        spans,
    })
}

/// Run one round of `wl`. With `count_heap` the allocator counts the
/// engine's heap, which slows the round: only untimed rounds count.
pub fn round(
    wl: &Workload,
    wal_dir: Option<&Path>,
    traced: bool,
    count_heap: bool,
) -> Result<Round, String> {
    match wl.kind {
        Kind::FleetSkew => cluster_round(wl, wal_dir, traced, count_heap),
        _ => server_round(wl, wal_dir, traced, count_heap),
    }
}

/// Time `ClusterHandle::submit` and `control_tick` over the first `n`
/// requests of a single-array workload, replayed as reads through a
/// one-array cluster. Gives the cluster tier's per-call cost on workloads
/// whose own run does not use it. Returns `(submit_ns, tick_ns)` means.
pub fn cluster_replay(wl: &Workload, n: usize) -> Result<(f64, f64), String> {
    let cfg = wl.server_config(None);
    let cluster = QosCluster::new(ClusterConfig::uniform(1, &cfg)).map_err(|e| e.to_string())?;
    for t in &wl.tenants {
        cluster
            .register_tenant(t.id, t.reserved, wl.policy())
            .map_err(|e| e.to_string())?;
    }
    let mut handle = cluster.handle();
    let (mut submit_ns, mut tick_ns, mut ticks) = (0u64, 0u64, 0u64);
    let mut window = 0;
    let reqs = &wl.reqs[..n.min(wl.reqs.len())];
    for r in reqs {
        let w = wl.window_of(r.arrival_ns);
        if w != window {
            window = w;
            let a = Instant::now();
            std::hint::black_box(cluster.control_tick());
            tick_ns += ns(a.elapsed());
            ticks += 1;
        }
        let a = Instant::now();
        std::hint::black_box(handle.submit(r.tenant, r.lbn, r.arrival_ns));
        submit_ns += ns(a.elapsed());
    }
    drop(handle);
    let m = cluster.finish();
    if !m.conserved() {
        return Err("cluster replay broke the conservation law".into());
    }
    Ok((
        submit_ns as f64 / reqs.len().max(1) as f64,
        tick_ns as f64 / ticks.max(1) as f64,
    ))
}
