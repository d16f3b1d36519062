//! Incremental retrieval scheduling: admit requests one at a time and keep
//! an exact `M`-access schedule, one augmenting path per request.
//!
//! Used by the online retrieval path and the statistical admission
//! controller, which probe "would adding this request keep the interval
//! retrievable in `M` accesses?" many times per interval.
//!
//! # Algorithm
//!
//! The question is a bipartite b-matching: every admitted unit sits on one
//! of its replicas, and no device takes more than `M`. The state is each
//! device's spare capacity and, per admitted unit in admission order, its
//! replica list and its assigned device. All earlier units are matched, so
//! a new unit fits iff one augmenting path exists for it (the "integrated
//! maximum flow" idea of the paper's ref \[15\]).
//! [`IncrementalRetrieval::try_add`]:
//!
//! 1. takes the first replica, in the request's order, with spare
//!    capacity;
//! 2. otherwise finds one shortest augmenting path. A BFS levels the
//!    devices: the new unit's replicas are level 0, and a device at level
//!    `k` puts the other replicas of the units on it at level `k + 1`. It
//!    stops at the first level holding a device with spare capacity. A DFS
//!    then follows level-increasing edges: the new unit's replicas in
//!    order, at each device the units on it in admission order, at each
//!    unit its replicas in order. It moves every unit along the path one
//!    hop and hands the freed slot to the new unit.
//!
//! A refusal changes nothing. The search allocates nothing: its levels and
//! per-device unit lists live in scratch fields of the state itself. A
//! search costs `O(units · c + devices · L)` for `c` replicas per unit and
//! path length `L`.
//!
//! # Equal to Dinic
//!
//! The same question as a flow problem: append the unit to a `source →
//! units → devices → sink` network (device edges of capacity `M`) and run
//! Dinic. Only the new unit's source edge has residual capacity, so Dinic
//! pushes at most one path. Its BFS computes the levels above, and its
//! first DFS, whose adjacency order is the one above (sink edge first at
//! each device, then units in creation order; replicas in request order
//! at each unit), finds the same path. So this kernel makes Dinic's
//! decisions **and** assignments, call for call; `tests/properties.rs`
//! checks it against that Dinic formulation on random request sequences.

use fqos_designs::DeviceId;

/// Level of a device the current search has not reached, or has found to
/// be a dead end. Also the end of a per-device unit list.
const NONE: u32 = u32::MAX;

/// One device of the schedule.
#[derive(Debug, Clone, Copy)]
struct Device {
    /// Further units this device can take: `M` minus its load minus any
    /// withheld capacity.
    spare: u32,
    /// Search scratch: BFS level, or [`NONE`].
    level: u32,
    /// Search scratch: first unit on this device, in admission order.
    first: u32,
}

/// One admitted unit.
#[derive(Debug, Clone, Copy)]
struct Unit {
    /// Its replica list, `replicas[start..end]`, in request order.
    start: u32,
    end: u32,
    /// The device it is assigned to.
    device: u32,
    /// Search scratch: next unit on the same device, in admission order.
    next: u32,
}

/// Incrementally maintained retrieval schedule with a per-device access
/// budget `M`.
#[derive(Debug, Clone)]
pub struct IncrementalRetrieval {
    devices: Vec<Device>,
    units: Vec<Unit>,
    /// Replica lists of all admitted units, concatenated.
    replicas: Vec<u32>,
    accesses: usize,
}

impl IncrementalRetrieval {
    /// Create an empty scheduler over `devices` devices with a per-device
    /// budget of `accesses`.
    pub fn new(devices: usize, accesses: usize) -> Self {
        assert!(
            devices > 0 && u32::try_from(devices).is_ok(),
            "device count must be in 1..=u32::MAX"
        );
        let spare = u32::try_from(accesses).expect("access budget fits in u32");
        IncrementalRetrieval {
            devices: vec![
                Device {
                    spare,
                    level: NONE,
                    first: NONE,
                };
                devices
            ],
            // Until `grow_accesses`, at most `M` units fit on each device.
            units: Vec::with_capacity(devices.saturating_mul(accesses)),
            replicas: Vec::new(),
            accesses,
        }
    }

    /// Number of admitted requests.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True if no request has been admitted.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Current per-device access budget `M`.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Withhold up to `units` of `device`'s spare capacity from every later
    /// admission. On an empty schedule this equals admitting `units`
    /// requests pinned to `device` alone (those can never move, so the
    /// augmenting search treats them as dead ends), without the units.
    pub fn withhold(&mut self, device: DeviceId, units: usize) {
        let spare = &mut self.devices[device].spare;
        *spare -= (*spare as usize).min(units) as u32;
    }

    /// Try to admit one more request. Returns `true` (and keeps the request)
    /// if all admitted requests remain schedulable within `M` accesses;
    /// returns `false` and leaves the state untouched otherwise.
    pub fn try_add(&mut self, replicas: &[DeviceId]) -> bool {
        let device = match replicas.iter().find(|&&d| self.devices[d].spare > 0) {
            Some(&d) => {
                self.devices[d].spare -= 1;
                d
            }
            None => match self.augment(replicas) {
                Some(d) => d,
                None => return false,
            },
        };
        let start = self.replicas.len() as u32;
        self.replicas.extend(replicas.iter().map(|&d| d as u32));
        self.units.push(Unit {
            start,
            end: self.replicas.len() as u32,
            device: device as u32,
            next: NONE,
        });
        true
    }

    /// Find and apply one shortest augmenting path for a new unit with
    /// `replicas`, every one of them full. Returns the replica the new unit
    /// takes, or `None` (state unchanged) if no path exists.
    fn augment(&mut self, replicas: &[DeviceId]) -> Option<DeviceId> {
        // Per-device unit lists in admission order: prepend in reverse.
        for d in &mut self.devices {
            d.level = NONE;
            d.first = NONE;
        }
        for (u, unit) in self.units.iter_mut().enumerate().rev() {
            let d = &mut self.devices[unit.device as usize];
            unit.next = d.first;
            d.first = u as u32;
        }
        for &d in replicas {
            self.devices[d].level = 0;
        }
        let target = self.levels()?;
        let found = replicas
            .iter()
            .copied()
            .find(|&d| self.devices[d].level == 0 && self.advance(d, target));
        debug_assert!(found.is_some(), "BFS reached a free device, DFS must too");
        found
    }

    /// BFS over devices from the level-0 ones. Returns the first level that
    /// holds a device with spare capacity, or `None` if none is reachable.
    fn levels(&mut self) -> Option<u32> {
        for k in 0.. {
            let mut grew = false;
            for d in 0..self.devices.len() {
                let Device {
                    spare,
                    level,
                    first,
                } = self.devices[d];
                if level != k {
                    continue;
                }
                if spare > 0 {
                    return Some(k);
                }
                let mut u = first;
                while u != NONE {
                    let unit = self.units[u as usize];
                    for &r in &self.replicas[unit.start as usize..unit.end as usize] {
                        let next = &mut self.devices[r as usize];
                        if next.level == NONE {
                            next.level = k + 1;
                            grew = true;
                        }
                    }
                    u = unit.next;
                }
            }
            if !grew {
                return None;
            }
        }
        unreachable!("levels are bounded by the device count")
    }

    /// DFS from device `d` along level-increasing edges to a device with
    /// spare capacity at level `target`. On success every unit on the path
    /// has moved one hop and the final device's spare is spent.
    fn advance(&mut self, d: DeviceId, target: u32) -> bool {
        let Device {
            spare,
            level,
            first,
        } = self.devices[d];
        if level == target {
            if spare == 0 {
                return false;
            }
            self.devices[d].spare -= 1;
            return true;
        }
        let mut u = first;
        while u != NONE {
            let unit = self.units[u as usize];
            for i in unit.start..unit.end {
                // The unit's own device sits at `level`, never `level + 1`.
                let r = self.replicas[i as usize] as usize;
                if self.devices[r].level == level + 1 && self.advance(r, target) {
                    self.units[u as usize].device = r as u32;
                    return true;
                }
            }
            u = unit.next;
        }
        // A dead end: no later visit can succeed through it.
        self.devices[d].level = NONE;
        false
    }

    /// Raise the access budget to `accesses` (no-op if not larger).
    pub fn grow_accesses(&mut self, accesses: usize) {
        if accesses <= self.accesses {
            return;
        }
        let extra =
            u32::try_from(accesses).expect("access budget fits in u32") - self.accesses as u32;
        self.accesses = accesses;
        for d in &mut self.devices {
            d.spare += extra;
        }
    }

    /// Current device assignment of every admitted request, in admission
    /// order.
    pub fn assignments(&self) -> Vec<DeviceId> {
        self.units.iter().map(|u| u.device as DeviceId).collect()
    }

    /// Per-device load of the current schedule.
    pub fn device_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.devices.len()];
        for u in &self.units {
            loads[u.device as usize] += 1;
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity() {
        // 3 devices, 1 access: any 3 disjoint unit requests fit.
        let mut inc = IncrementalRetrieval::new(3, 1);
        assert!(inc.try_add(&[0]));
        assert!(inc.try_add(&[1]));
        assert!(inc.try_add(&[2]));
        assert!(!inc.try_add(&[0]));
        assert_eq!(inc.len(), 3);
    }

    #[test]
    fn rejection_leaves_schedule_intact() {
        let mut inc = IncrementalRetrieval::new(2, 1);
        assert!(inc.try_add(&[0, 1]));
        assert!(inc.try_add(&[0, 1]));
        assert!(!inc.try_add(&[0, 1]));
        let loads = inc.device_loads();
        assert_eq!(loads, vec![1, 1]);
    }

    #[test]
    fn augmenting_reroutes_earlier_requests() {
        // Request A can use {0,1}; request B only {0}. Greedy puts A on 0;
        // adding B must re-route A to 1 along an augmenting path.
        let mut inc = IncrementalRetrieval::new(2, 1);
        assert!(inc.try_add(&[0, 1]));
        assert!(inc.try_add(&[0]));
        let assign = inc.assignments();
        assert_eq!(assign[1], 0);
        assert_eq!(assign[0], 1);
    }

    #[test]
    fn longer_paths_move_every_unit_one_hop() {
        // A on 0 (could use 1), B on 1 (could use 2); C only fits on 0, so
        // B moves to 2 and A to 1.
        let mut inc = IncrementalRetrieval::new(3, 1);
        assert!(inc.try_add(&[0, 1]));
        assert!(inc.try_add(&[1, 2]));
        assert_eq!(inc.assignments(), vec![0, 1]);
        assert!(inc.try_add(&[0]));
        assert_eq!(inc.assignments(), vec![1, 2, 0]);
        assert!(!inc.try_add(&[0, 1, 2]));
        assert_eq!(inc.assignments(), vec![1, 2, 0]);
    }

    #[test]
    fn withheld_capacity_is_never_handed_out() {
        let mut inc = IncrementalRetrieval::new(2, 2);
        inc.withhold(0, 1);
        assert!(inc.try_add(&[0]));
        assert!(!inc.try_add(&[0]));
        inc.withhold(1, 5);
        assert!(!inc.try_add(&[1]));
        assert_eq!(inc.device_loads(), vec![1, 0]);
    }

    #[test]
    fn grow_accesses_unlocks_rejected_load() {
        let mut inc = IncrementalRetrieval::new(2, 1);
        assert!(inc.try_add(&[0]));
        assert!(inc.try_add(&[0, 1]));
        assert!(!inc.try_add(&[0]));
        inc.grow_accesses(2);
        assert!(inc.try_add(&[0]));
        assert_eq!(inc.len(), 3);
        let loads = inc.device_loads();
        assert_eq!(loads.iter().sum::<usize>(), 3);
        assert!(loads.iter().all(|&l| l <= 2));
    }

    #[test]
    fn matches_batch_scheduler() {
        use crate::retrieval::RetrievalNetwork;
        // Same request set through both paths must agree on feasibility.
        let reqs: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![3, 8, 1],
            vec![4, 8, 0],
        ];
        let refs: Vec<&[usize]> = reqs.iter().map(std::vec::Vec::as_slice).collect();
        let batch = RetrievalNetwork::new(9).feasible(&refs, 1);
        assert!(batch.is_some());
        let mut inc = IncrementalRetrieval::new(9, 1);
        for r in &reqs {
            assert!(inc.try_add(r));
        }
    }
}
