//! The four named workloads: deployment configuration and a seeded,
//! timestamped request trace for each.
//!
//! Every workload runs on the paper's `(9,3,1)` design with `M = 2`
//! (`S(2) = 14` guaranteed block reads per window, `T = 266 µs`) under the
//! Delay policy. The trace is a pure function of the workload and the
//! seed: the engine only ever sees the generated requests.

use fqos_core::{OverloadPolicy, QosConfig};
use fqos_flashsim::IoOp;
use fqos_server::{AssignmentMode, FtlGeometry, GcConfig, ServerConfig};
use fqos_traces::BurstConfig;
use std::path::Path;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-only flow admission with one tenant flash-crowding.
    ReadBurst,
    /// ~30 % replica fan-out writes over a small FTL that garbage-collects.
    MixedGc,
    /// Read-only, EFT assignment, write-ahead log on a file.
    DurableEft,
    /// Two arrays behind the cluster router with one overdriving tenant.
    FleetSkew,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 4] = [
        Kind::ReadBurst,
        Kind::MixedGc,
        Kind::DurableEft,
        Kind::FleetSkew,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadBurst => "read_burst",
            Kind::MixedGc => "mixed_gc",
            Kind::DurableEft => "durable_eft",
            Kind::FleetSkew => "fleet_skew",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the paper's guarantee and seed determinism are gated on
    /// this workload. `mixed_gc` carries two known engine defects
    /// (run-to-run drift of its simulated counters and guaranteed
    /// violations under GC), which are reported instead.
    pub fn gated(self) -> bool {
        self != Kind::MixedGc
    }

    /// Windows per trace: sized so one round takes 0.1–0.3 s of host time
    /// on a 2-core machine, which gives a 20 s run about a hundred rounds
    /// to take medians over.
    pub fn default_windows(self) -> u64 {
        match self {
            Kind::ReadBurst => 4_500,
            Kind::MixedGc => 8_000,
            Kind::DurableEft => 5_000,
            Kind::FleetSkew => 2_000,
        }
    }
}

/// One tenant and its per-window reservation.
#[derive(Debug, Clone, Copy)]
pub struct TenantPlan {
    /// Tenant id.
    pub id: u64,
    /// Reserved requests per window.
    pub reserved: usize,
}

/// One request of the trace.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Submitting tenant.
    pub tenant: u64,
    /// Logical block.
    pub lbn: u64,
    /// Simulated arrival time (non-decreasing along the trace).
    pub arrival_ns: u64,
    /// Read or replicated write.
    pub op: IoOp,
}

/// A workload instance: deployment plus trace.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The QoS deployment every array runs.
    pub qos: QosConfig,
    /// Tenants to register before the first request.
    pub tenants: Vec<TenantPlan>,
    /// The trace, in submission order.
    pub reqs: Vec<Req>,
    /// Arrays behind the submitter (1 = a bare `QosServer`).
    pub arrays: usize,
}

/// `splitmix64`: a seeded 64-bit generator with no state beyond a counter.
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Delay horizon for the read workloads: short enough that the flash
/// crowd in `read_burst` exhausts it and some requests are refused.
const DELAY_HORIZON: u64 = 16;

impl Workload {
    /// Generate `kind`'s trace from `seed`, `windows` intervals long.
    pub fn generate(kind: Kind, seed: u64, windows: u64) -> Workload {
        let qos = QosConfig::paper_9_3_1().with_accesses(2);
        let t = qos.interval_ns;
        // Per tenant: (id, reserved, offered per window, burst). Every
        // tenant offers less than it reserves, so delays a burst or a
        // crowded window causes drain again instead of piling up. A burst
        // is (offered per window, period, length): the tenant offers the
        // burst rate for `length` windows a third of the way into every
        // `period` windows, so the trace looks the same at any length.
        type Plan = (u64, usize, usize, Option<(usize, u64, u64)>);
        let (plans, pool, write_fraction, arrays): (Vec<Plan>, u64, f64, usize) = match kind {
            // 10 of the 14 reserved slots offered; tenant 1 quadruples its
            // rate for 16 windows in every 300, which outruns its
            // 16-window delay horizon.
            Kind::ReadBurst => (
                vec![
                    (1, 4, 3, Some((12, 300, 16))),
                    (2, 4, 3, None),
                    (3, 3, 2, None),
                    (4, 3, 2, None),
                ],
                36,
                0.0,
                1,
            ),
            // 4 of the 6 reserved slots offered: a write charges all three
            // replicas, so this stays under the write-adjusted capacity.
            // 150 blocks exceed the FTL's logical pages, so GC relocates
            // and erases.
            Kind::MixedGc => (vec![(1, 3, 2, None), (2, 3, 2, None)], 150, 0.3, 1),
            Kind::DurableEft => (
                vec![
                    (1, 4, 3, None),
                    (2, 4, 3, None),
                    (3, 3, 2, None),
                    (4, 3, 2, None),
                ],
                36,
                0.0,
                1,
            ),
            // 15 of 28 fleet slots; tenant 1 offers twice its reservation
            // until the control loop migrates it with a resized one. The
            // others offer their reservation: nothing delays them, so no
            // backlog forms.
            Kind::FleetSkew => (
                vec![
                    (1, 3, 6, None),
                    (2, 3, 3, None),
                    (3, 3, 3, None),
                    (4, 2, 2, None),
                    (5, 2, 2, None),
                    (6, 2, 2, None),
                ],
                36,
                0.0,
                2,
            ),
        };
        let mut per_window: Vec<Vec<Req>> = (0..windows).map(|_| Vec::new()).collect();
        for &(id, _, rate, burst) in &plans {
            let (burst_rate, period, len) = burst.unwrap_or((rate, windows, 0));
            for first in (0..windows).step_by(period as usize) {
                let cfg = BurstConfig {
                    base_blocks_per_interval: rate,
                    burst_blocks_per_interval: burst_rate,
                    burst_start_interval: period / 3,
                    burst_intervals: len,
                    total_intervals: period.min(windows - first),
                    interval_ns: t,
                    block_pool: pool,
                    write_fraction,
                    seed: seed
                        ^ id.wrapping_mul(0xA24B_AED4_963E_E407)
                        ^ first.wrapping_mul(0x9FB2_1C65_1E98_DF25),
                };
                for r in cfg.generate().records {
                    per_window[(first + r.arrival_ns / t) as usize].push(Req {
                        tenant: id,
                        lbn: r.lbn,
                        arrival_ns: r.arrival_ns,
                        op: r.op,
                    });
                }
            }
        }
        // Spread each window's arrivals over the interval in a seeded
        // random order, so simulated latencies are not all multiples of T.
        let mut rng = SplitMix::new(seed ^ 0x0DD5_EED5);
        let mut reqs = Vec::new();
        for (w, mut batch) in per_window.into_iter().enumerate() {
            for i in (1..batch.len()).rev() {
                batch.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut offsets: Vec<u64> = batch.iter().map(|_| rng.below(t)).collect();
            offsets.sort_unstable();
            for (r, off) in batch.iter_mut().zip(offsets) {
                r.arrival_ns = w as u64 * t + off;
            }
            reqs.extend(batch);
        }
        Workload {
            kind,
            qos,
            tenants: plans
                .iter()
                .map(|&(id, reserved, _, _)| TenantPlan { id, reserved })
                .collect(),
            reqs,
            arrays,
        }
    }

    /// Every tenant uses the Delay policy.
    pub fn policy(&self) -> OverloadPolicy {
        OverloadPolicy::Delay
    }

    /// The engine configuration of one array. `durable_eft` keeps its
    /// log in `wal_dir`, or in memory when it is `None` (see README.md:
    /// fsync latency on a shared disk is too unsteady to gate on).
    pub fn server_config(&self, wal_dir: Option<&Path>) -> ServerConfig {
        // One submitter and one worker per array: the load is sized for a
        // 2-core host.
        let base = ServerConfig::new(self.qos.clone())
            .with_workers(1)
            .with_delay_horizon(DELAY_HORIZON);
        match self.kind {
            Kind::ReadBurst | Kind::FleetSkew => base,
            Kind::MixedGc => base.with_gc_model(GcConfig::new(FtlGeometry {
                dies: 1,
                blocks_per_die: 16,
                pages_per_block: 8,
                overprovision: 0.125,
            })),
            // Default fsync batch (8) and snapshot interval (64 windows).
            Kind::DurableEft => {
                let eft = base.with_assignment(AssignmentMode::Eft);
                match wal_dir {
                    Some(dir) => eft.with_wal(dir),
                    None => eft.with_wal_memory(),
                }
            }
        }
    }

    /// Window of a simulated time.
    pub fn window_of(&self, ns: u64) -> u64 {
        ns / self.qos.interval_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seeded_and_ordered() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 7, 200);
            let b = Workload::generate(kind, 7, 200);
            let c = Workload::generate(kind, 8, 200);
            let key = |w: &Workload| -> Vec<(u64, u64, u64)> {
                w.reqs
                    .iter()
                    .map(|r| (r.tenant, r.lbn, r.arrival_ns))
                    .collect()
            };
            assert_eq!(key(&a), key(&b), "{}", kind.name());
            assert_ne!(key(&a), key(&c), "{}", kind.name());
            assert!(a
                .reqs
                .windows(2)
                .all(|p| p[0].arrival_ns <= p[1].arrival_ns));
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
