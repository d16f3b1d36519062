//! Per-layer replay: the inputs and decisions of one engine round, fed
//! again through each layer's public entry point, timed per call.
//!
//! The engine exposes no stage timers, so the benchmark measures each
//! layer from outside, on exactly the calls the round made:
//!
//! * `TenantRegistry::get` and `bucket_for_lbn` + `replicas` once per
//!   request;
//! * `DegradedWindow::try_add` for every admitted block of every window, in
//!   admission order, plus every refused attempt the outcomes imply (a
//!   request delayed `k` windows was refused by windows `w .. w+k`). The
//!   replay checks that the kernel reproduces the engine's decisions;
//! * `CalibratedSsd::submit` over each device's sealed stream, and
//!   `FaultPlane::observe` over the resulting service samples;
//! * `Router::route` once per request.
//!
//! Each timed pass runs the whole call list several times; a layer's
//! figure is the median pass time divided by its call count, so clock
//! reads never sit inside the measured calls.

use crate::drive::Round;
use crate::workload::Workload;
use fqos_cluster::Router;
use fqos_decluster::retrieval::{DegradedAdmit, DegradedWindow};
use fqos_decluster::AllocationScheme;
use fqos_flashsim::{CalibratedSsd, Device, IoOp, IoRequest};
use fqos_server::{
    AssignmentMode, FaultPlane, FaultSchedule, RejectReason, ServerConfig, SubmitOutcome,
    TenantRegistry,
};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Passes per timed replay; the median pass is reported.
const PASSES: usize = 5;

/// What the replay measured.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// ns per `TenantRegistry::get`.
    pub registry_get_ns: f64,
    /// ns per `bucket_for_lbn` + `replicas`.
    pub replicas_ns: f64,
    /// ns per `DegradedWindow::try_add`, window construction included.
    pub try_add_ns: f64,
    /// Flow-kernel calls the round's admissions imply.
    pub flow_calls: u64,
    /// Window-admission attempts (one per window tried per request).
    pub attempts: u64,
    /// Attempts refused (by the tenant's reservation or the kernel).
    pub refused: u64,
    /// Kernel decisions that differ from the engine's outcome.
    pub mismatches: u64,
    /// ns per `CalibratedSsd::submit`.
    pub flashsim_submit_ns: f64,
    /// ns per `FaultPlane::observe`.
    pub fault_observe_ns: f64,
    /// ns per `Router::route`.
    pub route_ns: f64,
}

/// Median over [`PASSES`] runs of `pass`, divided by `calls`.
fn per_call(calls: u64, mut pass: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[PASSES / 2] / calls.max(1) as f64
}

/// One step of the admission replay, in engine order.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A fresh window state (the engine builds one per window).
    Open,
    /// `try_add` of a read's replica set (by bucket).
    Read(usize),
    /// Snapshot before a write's per-replica units.
    WriteBegin,
    /// `try_add` of one replica unit of a write.
    Unit(usize),
    /// Restore the snapshot: the write did not fit.
    Rollback,
}

/// A request's event in one window: admitted there, or refused there.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Add(usize),
    Try(usize),
}

/// One sealed dispatch. `events` iterates array-major, window-minor, so
/// items come out in each array's seal order.
struct Item {
    req: IoRequest,
    array: usize,
    device: usize,
    exec_start: u64,
}

/// Reservation of `tenant` at request `i`: its plan, or the reservation a
/// migration granted it on the target array.
fn reservation(wl: &Workload, round: &Round, tenant: u64, i: usize) -> usize {
    round
        .moves
        .iter()
        .rev()
        .find(|m| m.tenant == tenant && m.at <= i)
        .map(|m| m.reserved)
        .or_else(|| {
            wl.tenants
                .iter()
                .find(|t| t.id == tenant)
                .map(|t| t.reserved)
        })
        .unwrap_or(0)
}

/// Replay `round` of `wl` (engine configuration `cfg`) through every layer.
pub fn replay(wl: &Workload, round: &Round, cfg: &ServerConfig) -> LayerTimes {
    let mut out = LayerTimes::default();
    let scheme = &wl.qos.scheme;
    let n = wl.reqs.len() as u64;
    let devices = wl.qos.devices();
    let t_ns = wl.qos.interval_ns;
    let flow_mode = cfg.assignment == AssignmentMode::OptimalFlow;

    // Registry lookups.
    let registry = TenantRegistry::new(wl.qos.request_limit() * wl.arrays, cfg.shards);
    for t in &wl.tenants {
        registry
            .register(t.id, t.reserved, wl.policy())
            .expect("the plan fits the fleet's S(M)");
    }
    out.registry_get_ns = per_call(n, || {
        for r in &wl.reqs {
            black_box(registry.get(black_box(r.tenant)));
        }
    });

    // Replica lookup.
    out.replicas_ns = per_call(n, || {
        for r in &wl.reqs {
            black_box(scheme.replicas(scheme.bucket_for_lbn(black_box(r.lbn))));
        }
    });

    // Window events in submit order, keyed by (array, window).
    let horizon = cfg.delay_horizon;
    let mut events: BTreeMap<(usize, u64), Vec<Ev>> = BTreeMap::new();
    for (i, (o, r)) in round.outcomes.iter().zip(&wl.reqs).enumerate() {
        let a = usize::from(round.arrays_of[i]);
        let w0 = wl.window_of(r.arrival_ns);
        let (tried, added) = match *o {
            SubmitOutcome::Admitted { window } => (0, Some(window)),
            SubmitOutcome::Delayed {
                window,
                delayed_windows,
            } => (delayed_windows, Some(window)),
            SubmitOutcome::Overflow { .. } => (1, None),
            SubmitOutcome::Rejected(RejectReason::HorizonExhausted) => (horizon + 1, None),
            SubmitOutcome::Rejected(_) => (1, None),
        };
        out.attempts += tried + u64::from(added.is_some());
        out.refused += tried;
        if !flow_mode {
            // EFT refusals are not kernel decisions; only the admitted
            // sets are replayed (the kernel must accept them too).
            if let Some(w) = added {
                events.entry((a, w)).or_default().push(Ev::Add(i));
            }
            continue;
        }
        if matches!(o, SubmitOutcome::Rejected(r) if *r != RejectReason::HorizonExhausted) {
            continue;
        }
        for k in 0..tried.min(horizon + 1) {
            events.entry((a, w0 + k)).or_default().push(Ev::Try(i));
        }
        if let Some(w) = added {
            events.entry((a, w)).or_default().push(Ev::Add(i));
        }
    }

    // Verification pass: decide every kernel call, check it against the
    // engine, and derive each window's device assignment.
    let healthy = vec![false; devices];
    let mut ops = Vec::new();
    let mut items = Vec::new();
    let mut next_id = 0u64;
    for (&(array, window), evs) in &events {
        ops.push(Op::Open);
        let mut flow = DegradedWindow::new(devices, wl.qos.accesses, &healthy);
        let mut used: HashMap<u64, usize> = HashMap::new();
        let mut admitted = Vec::new();
        for &ev in evs {
            let (i, add) = match ev {
                Ev::Add(i) => (i, true),
                Ev::Try(i) => (i, false),
            };
            let r = &wl.reqs[i];
            if !add
                && used.get(&r.tenant).copied().unwrap_or(0) >= reservation(wl, round, r.tenant, i)
            {
                continue; // refused by the reservation; the kernel is not asked
            }
            let bucket = scheme.bucket_for_lbn(r.lbn);
            let fits = match r.op {
                IoOp::Read => {
                    ops.push(Op::Read(bucket));
                    out.flow_calls += 1;
                    // A refused attempt must leave the state as the engine
                    // has it, even if the kernel (wrongly) accepts here.
                    let mut probe;
                    let target = if add {
                        &mut flow
                    } else {
                        probe = flow.clone();
                        &mut probe
                    };
                    target.try_add(scheme.replicas(bucket)) == DegradedAdmit::Admitted
                }
                IoOp::Write => {
                    let before = flow.clone();
                    ops.push(Op::WriteBegin);
                    let mut ok = true;
                    for &d in scheme.replicas(bucket) {
                        ops.push(Op::Unit(d));
                        out.flow_calls += 1;
                        if flow.try_add(std::slice::from_ref(&d)) != DegradedAdmit::Admitted {
                            ok = false;
                            break;
                        }
                    }
                    if !ok || !add {
                        ops.push(Op::Rollback);
                        flow = before;
                    }
                    ok
                }
            };
            if fits != add {
                out.mismatches += 1;
            }
            if add {
                *used.entry(r.tenant).or_insert(0) += 1;
                admitted.push(i);
            }
        }
        // Seal: reads go to their flow assignment, writes to every replica.
        let assignment = flow.assignments();
        let mut unit = 0;
        let exec_start = (window + 1) * t_ns;
        for &i in &admitted {
            let r = &wl.reqs[i];
            let replicas = scheme.replicas(scheme.bucket_for_lbn(r.lbn));
            let targets: Vec<usize> = match r.op {
                IoOp::Read => {
                    unit += 1;
                    vec![assignment.get(unit - 1).copied().unwrap_or(replicas[0])]
                }
                IoOp::Write => {
                    unit += replicas.len();
                    replicas.to_vec()
                }
            };
            for d in targets {
                next_id += 1;
                let req = match r.op {
                    IoOp::Read => IoRequest::read_block(next_id, r.arrival_ns, d, r.lbn),
                    IoOp::Write => IoRequest::write_block(next_id, r.arrival_ns, d, r.lbn),
                };
                items.push(Item {
                    req,
                    array,
                    device: d,
                    exec_start,
                });
            }
        }
    }

    // Flow kernel, timed over the decided call list.
    out.try_add_ns = per_call(out.flow_calls, || {
        let mut flow = DegradedWindow::new(devices, wl.qos.accesses, &healthy);
        let mut saved = flow.clone();
        for &op in &ops {
            match op {
                Op::Open => flow = DegradedWindow::new(devices, wl.qos.accesses, &healthy),
                Op::Read(b) => {
                    black_box(flow.try_add(scheme.replicas(b)));
                }
                Op::WriteBegin => saved = flow.clone(),
                Op::Unit(d) => {
                    black_box(flow.try_add(std::slice::from_ref(&d)));
                }
                Op::Rollback => flow = saved.clone(),
            }
        }
    });

    // Device model over each device's sealed stream.
    let service = cfg.qos.service_ns;
    let write_service = cfg
        .gc
        .as_ref()
        .and_then(|g| g.write_service_ns)
        .unwrap_or(service);
    let fresh_devices = || -> Vec<CalibratedSsd> {
        (0..devices * wl.arrays)
            .map(|_| {
                let ssd = CalibratedSsd::with_latencies(service, write_service);
                match &cfg.gc {
                    Some(g) => ssd
                        .with_gc(g.geometry, g.erase_ns)
                        .expect("validated geometry"),
                    None => ssd,
                }
            })
            .collect()
    };
    let mut samples: Vec<(usize, usize, u64, u64)> = Vec::with_capacity(items.len());
    {
        let mut devs = fresh_devices();
        for it in &items {
            let c = devs[it.array * devices + it.device].submit(&it.req, it.exec_start);
            samples.push((
                it.array,
                it.device,
                c.finish - c.service_start,
                it.exec_start / t_ns,
            ));
        }
    }
    out.flashsim_submit_ns = per_call(items.len() as u64, || {
        let mut devs = fresh_devices();
        for it in &items {
            black_box(devs[it.array * devices + it.device].submit(&it.req, it.exec_start));
        }
    });

    // Health scorer over the service samples.
    out.fault_observe_ns = per_call(samples.len() as u64, || {
        let planes: Vec<FaultPlane> = (0..wl.arrays)
            .map(|_| {
                FaultPlane::with_health(devices, FaultSchedule::new(), cfg.health_params())
                    .expect("empty schedule")
            })
            .collect();
        for &(a, d, service_ns, window) in &samples {
            planes[a].observe(d, service_ns, window);
        }
        black_box(&planes);
    });

    // Router lookup over a two-array ring (the fleet workload's shape).
    let mut router = Router::new(&vec![wl.qos.request_limit(); wl.arrays.max(2)], 64);
    for t in &wl.tenants {
        router.assign(t.id, t.reserved);
    }
    out.route_ns = per_call(n, || {
        for r in &wl.reqs {
            black_box(router.route(black_box(r.tenant)));
        }
    });
    out
}
