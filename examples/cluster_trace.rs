//! A two-array fleet healing a skewed tenant placement.
//!
//! Both arrays are the paper's (9,3,1) design (S(1) = 5 block reads per
//! 0.133 ms window). All three tenants are pinned onto array 0 and tenant
//! 1 overdrives its reservation 2×, so array 0's ε-budget saturates while
//! array 1 idles. The cluster control loop notices the pressure on its
//! first tick, migrates tenant 1 to array 1 with its reservation resized
//! to observed demand, and the fleet finishes with every submission
//! admitted and the cluster conservation law closed.
//!
//! Run with: `cargo run --release --example cluster_trace`

use flash_qos::prelude::*;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn main() {
    let qos = QosConfig::paper_9_3_1(); // S(1) = 5 per array
    let interval_ns = qos.interval_ns;
    let pool = qos.scheme.num_buckets() as u64;
    let cluster =
        QosCluster::new(ClusterConfig::uniform(2, &ServerConfig::new(qos))).expect("valid config");

    // Deliberate skew: everyone starts on array 0 (5 = S(1) reserved),
    // and tenant 1 will submit 4/window against its reservation of 2.
    for &(tenant, reserved) in &[(1u64, 2usize), (2, 2), (3, 1)] {
        cluster
            .register_pinned(0, tenant, reserved, OverloadPolicy::Delay)
            .expect("within S(M) of array 0");
    }
    let demand: &[(u64, u64)] = &[(1, 4), (2, 2), (3, 1)];

    let windows = 200u64;
    let seed = 0x5EED_u64;
    let mut handle = cluster.handle();
    for w in 0..windows {
        let mut i = 0u64;
        for &(tenant, rate) in demand {
            for _ in 0..rate {
                let lbn = splitmix64(seed ^ (w << 8) ^ i) % pool;
                handle.submit(tenant, lbn, w * interval_ns + i * 1_000);
                i += 1;
            }
        }
        // One control tick per window boundary: differentiates each
        // array's pressure counters and migrates when one saturates.
        if let Some(event) = cluster.control_tick() {
            println!(
                "window {w}: tenant {} migrated array {} → {} (reservation {} → {})",
                event.tenant, event.from, event.to, 2, event.reserved,
            );
        }
    }
    drop(handle);

    let m = cluster.finish(); // prints the cluster audit line
    println!();
    for (i, s) in m.arrays.iter().enumerate() {
        println!(
            "array {i}: admitted {:>4}, delayed {:>3}, served {:>4}, {} windows sealed",
            s.admitted_total(),
            s.delayed,
            s.served,
            s.windows_sealed,
        );
    }
    println!(
        "fleet: {} admitted, {} rejected, spread {:.3}, {} rebalance(s)",
        m.admitted_total(),
        m.rejected(),
        m.utilization_spread(),
        m.rebalances,
    );
    assert!(m.conserved(), "cluster conservation law must close");
    assert_eq!(m.rebalances, 1, "the skew resolves in one migration");
    assert_eq!(
        m.admitted_total() + m.rejected(),
        windows * demand.iter().map(|&(_, r)| r).sum::<u64>(),
        "every submission is accounted admitted or rejected"
    );
}
