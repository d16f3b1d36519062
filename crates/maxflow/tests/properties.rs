//! Property-based cross-checks of the max-flow implementations.

use fqos_decluster::retrieval::{DegradedAdmit, DegradedWindow};
use fqos_maxflow::{dinic, edmonds_karp, FlowNetwork, IncrementalRetrieval, RetrievalNetwork};
use proptest::prelude::*;

/// Reference incremental scheduler: append each request to a `source →
/// requests → devices → sink` network and rerun Dinic. Its decisions and
/// assignments are what [`IncrementalRetrieval`] must reproduce exactly.
#[derive(Clone)]
struct DinicOracle {
    net: FlowNetwork,
    /// Edge id of `device → sink`.
    device_edges: Vec<usize>,
    /// Source-edge id per admitted request.
    request_edges: Vec<usize>,
}

impl DinicOracle {
    fn new(devices: usize, accesses: usize) -> Self {
        // Layout: 0 = source, 1 = sink, 2..2+N = devices; requests appended.
        let mut net = FlowNetwork::new(2 + devices, 0, 1);
        let device_edges = (0..devices)
            .map(|d| net.add_edge(2 + d, 1, accesses as u64))
            .collect();
        DinicOracle {
            net,
            device_edges,
            request_edges: Vec::new(),
        }
    }

    fn try_add(&mut self, replicas: &[usize]) -> bool {
        let block = self.net.add_vertex();
        let source_edge = self.net.add_edge(0, block, 1);
        for &d in replicas {
            self.net.add_edge(block, 2 + d, 1);
        }
        if dinic::max_flow(&mut self.net) == 1 {
            self.request_edges.push(source_edge);
            true
        } else {
            // A refused request stays as a vertex that can carry no flow.
            self.net.set_capacity(source_edge, 0);
            false
        }
    }

    fn grow_accesses(&mut self, accesses: usize) {
        for &e in &self.device_edges {
            let cap = (accesses as u64).max(self.net.flow(e));
            self.net.set_capacity(e, cap);
        }
    }

    fn assignments(&self) -> Vec<usize> {
        self.request_edges
            .iter()
            .map(|&src| {
                let block = self.net.edge_to(src);
                let e = *self
                    .net
                    .adjacent(block)
                    .iter()
                    .find(|&&e| e % 2 == 0 && self.net.flow(e) == 1)
                    .expect("admitted request carries flow");
                self.net.edge_to(e) - 2
            })
            .collect()
    }
}

fn loads_of(assignments: &[usize], devices: usize) -> Vec<usize> {
    let mut loads = vec![0; devices];
    for &d in assignments {
        loads[d] += 1;
    }
    loads
}

/// One step of a random admission sequence: `(kind, replicas, device)`.
/// Kinds 0–5 add `replicas` (unsorted, possibly repeating a device), 6
/// adds a unit pinned to `device`, 7 raises `M` by one, 8 checkpoints
/// both sides and 9 rolls both back to the last checkpoint.
type Step = (u8, Vec<usize>, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..10, prop::collection::vec(0usize..12, 1..5), 0usize..12),
        1..60,
    )
}

/// Build a random directed network from a proptest-generated edge list.
fn build(n: usize, edges: &[(usize, usize, u64)]) -> (FlowNetwork, FlowNetwork) {
    let a = {
        let mut g = FlowNetwork::new(n, 0, n - 1);
        for &(u, v, c) in edges {
            if u != v {
                g.add_edge(u % n, v % n, c % 32);
            }
        }
        g
    };
    (a.clone(), a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dinic_equals_edmonds_karp(
        n in 2usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12, 0u64..32), 0..40),
    ) {
        let (mut g1, mut g2) = build(n, &edges);
        let f1 = dinic::max_flow(&mut g1);
        let f2 = edmonds_karp::max_flow(&mut g2);
        prop_assert_eq!(f1, f2);
        prop_assert!(g1.check_conservation());
        prop_assert!(g2.check_conservation());
        prop_assert_eq!(g1.total_flow(), f1);
    }

    #[test]
    fn schedule_is_feasible_and_minimal(
        devices in 2usize..10,
        reqs in prop::collection::vec(prop::collection::vec(0usize..10, 1..4), 1..25),
    ) {
        let reqs: Vec<Vec<usize>> = reqs
            .into_iter()
            .map(|r| {
                let mut r: Vec<usize> = r.into_iter().map(|d| d % devices).collect();
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let refs: Vec<&[usize]> = reqs.iter().map(std::vec::Vec::as_slice).collect();
        let net = RetrievalNetwork::new(devices);
        let s = net.optimal_schedule(&refs);

        // Every assignment uses a true replica.
        for (i, r) in reqs.iter().enumerate() {
            prop_assert!(r.contains(&s.assignment[i]));
        }
        // The schedule respects its own access bound.
        let loads = s.device_loads(devices);
        prop_assert!(loads.iter().all(|&l| l <= s.accesses));
        // Minimality: one fewer access must be infeasible.
        if s.accesses > reqs.len().div_ceil(devices) {
            prop_assert!(net.feasible(&refs, s.accesses - 1).is_none());
        }
        // Never better than the information-theoretic lower bound.
        prop_assert!(s.accesses >= reqs.len().div_ceil(devices));
    }

    #[test]
    fn incremental_agrees_with_batch(
        devices in 2usize..8,
        m in 1usize..4,
        reqs in prop::collection::vec(prop::collection::vec(0usize..8, 1..4), 1..20),
    ) {
        let reqs: Vec<Vec<usize>> = reqs
            .into_iter()
            .map(|r| {
                let mut r: Vec<usize> = r.into_iter().map(|d| d % devices).collect();
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let net = RetrievalNetwork::new(devices);
        let mut inc = IncrementalRetrieval::new(devices, m);
        let mut admitted: Vec<Vec<usize>> = Vec::new();
        for r in &reqs {
            let accepted = inc.try_add(r);
            if accepted {
                admitted.push(r.clone());
            }
            // Incremental acceptance must equal batch feasibility of the
            // would-be admitted prefix.
            let mut probe = admitted.clone();
            if !accepted {
                probe.push(r.clone());
            }
            let probe_refs: Vec<&[usize]> = probe.iter().map(std::vec::Vec::as_slice).collect();
            let batch_ok = net.feasible(&probe_refs, m).is_some();
            prop_assert_eq!(accepted, batch_ok,
                "incremental and batch disagree on the would-be admitted set");
            // Every admitted request sits on one of its own replicas.
            for (r, d) in admitted.iter().zip(inc.assignments()) {
                prop_assert!(r.contains(&d), "assigned to {} outside {:?}", d, r);
            }
            // No device exceeds the access budget.
            let loads = inc.device_loads();
            prop_assert!(loads.iter().all(|&l| l <= m), "loads {:?} exceed M = {}", loads, m);
        }
    }

    #[test]
    fn incremental_equals_dinic_oracle(
        devices in 2usize..12,
        m in 1usize..4,
        steps in steps(),
    ) {
        let mut m = m;
        let mut inc = IncrementalRetrieval::new(devices, m);
        let mut oracle = DinicOracle::new(devices, m);
        let mut saved = None;
        for (kind, replicas, device) in steps {
            match kind {
                0..=6 => {
                    let replicas: Vec<usize> = if kind == 6 {
                        vec![device % devices]
                    } else {
                        replicas.iter().map(|d| d % devices).collect()
                    };
                    prop_assert_eq!(inc.try_add(&replicas), oracle.try_add(&replicas),
                        "decision on {:?}", replicas);
                }
                7 => {
                    m += 1;
                    inc.grow_accesses(m);
                    oracle.grow_accesses(m);
                }
                8 => saved = Some((inc.clone(), oracle.clone(), m)),
                _ => {
                    if let Some((i, o, sm)) = saved.clone() {
                        (inc, oracle, m) = (i, o, sm);
                    }
                }
            }
            let expected = oracle.assignments();
            prop_assert_eq!(inc.assignments(), expected.clone());
            prop_assert_eq!(inc.device_loads(), loads_of(&expected, devices));
            prop_assert_eq!(inc.len(), expected.len());
        }
    }

    #[test]
    fn degraded_window_equals_dinic_oracle(
        devices in 2usize..12,
        m in 1usize..4,
        failed_bits in any::<u16>(),
        reserve in prop::collection::vec(0u32..4, 0..12),
        steps in steps(),
    ) {
        let failed: Vec<bool> = (0..devices).map(|d| failed_bits >> d & 1 == 1).collect();
        let mut win = DegradedWindow::with_reserve(devices, m, &failed, &reserve);
        // The reference drops failed replicas from every request and
        // charges the reserve as requests pinned to each live device.
        let mut oracle = DinicOracle::new(devices, m);
        for (d, &r) in reserve.iter().enumerate().take(devices) {
            for _ in 0..r {
                if !failed[d] {
                    oracle.try_add(&[d]);
                }
            }
        }
        let pinned = oracle.request_edges.len();
        let mut saved = None;
        for (kind, replicas, device) in steps {
            match kind {
                0..=7 => {
                    let replicas: Vec<usize> = if kind >= 6 {
                        vec![device % devices]
                    } else {
                        replicas.iter().map(|d| d % devices).collect()
                    };
                    let live: Vec<usize> =
                        replicas.iter().copied().filter(|&d| !failed[d]).collect();
                    let expected = if live.is_empty() {
                        DegradedAdmit::Unavailable
                    } else if oracle.try_add(&live) {
                        DegradedAdmit::Admitted
                    } else {
                        DegradedAdmit::Infeasible
                    };
                    prop_assert_eq!(win.try_add(&replicas), expected, "decision on {:?}", replicas);
                }
                8 => saved = Some((win.clone(), oracle.clone())),
                _ => {
                    if let Some((w, o)) = saved.clone() {
                        (win, oracle) = (w, o);
                    }
                }
            }
            let expected = oracle.assignments().split_off(pinned);
            prop_assert_eq!(win.assignments(), expected.clone());
            prop_assert_eq!(win.device_loads(), loads_of(&expected, devices));
            prop_assert!(expected.iter().all(|&d| !failed[d]));
        }
    }
}
