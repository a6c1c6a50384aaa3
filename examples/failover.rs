//! Adapting to link failures: the paper's introduction argues the flow-based
//! view makes it easy to re-plan collectives when the topology changes. This
//! example schedules a broadcast, fails the link the schedule leans on, and
//! re-solves on the degraded topology.
//!
//! Run with: `cargo run --release --example failover`

use te_ccl::prelude::*;

fn main() {
    // A 4-GPU ring: traffic can go either way around.
    let topo = te_ccl::topology::ring_topology(4, 25.0e9, 0.7e-6);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    let demand = DemandMatrix::broadcast(topo.num_nodes(), &gpus, gpus[0], 2);
    let chunk_bytes = 1.0e6;

    let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(12));
    let healthy = solver
        .solve(&demand, chunk_bytes, RequestMethod::Auto, None)
        .expect("solve on healthy ring");
    let healthy_sim = simulate(&topo, &demand, &healthy.schedule).unwrap();
    println!(
        "Healthy ring : {} sends, finish {:.3} us",
        healthy.schedule.num_sends(),
        healthy_sim.transfer_time * 1e6
    );

    // Fail the clockwise link out of the root.
    let degraded_topo = topo.without_link(gpus[0], gpus[1]);
    println!(
        "Failing link {} -> {} ({} links remain)",
        gpus[0],
        gpus[1],
        degraded_topo.num_links()
    );

    // Re-plan on the degraded topology: all traffic must now go the other way.
    let solver = TeCcl::new(
        degraded_topo.clone(),
        SolverConfig::default().with_max_epochs(16),
    );
    let degraded = solver
        .solve(&demand, chunk_bytes, RequestMethod::Auto, None)
        .expect("solve on degraded ring");
    let report = validate(&degraded_topo, &demand, &degraded.schedule, false);
    assert!(
        report.is_valid(),
        "invalid degraded schedule: {:?}",
        report.errors
    );
    let degraded_sim = simulate(&degraded_topo, &demand, &degraded.schedule).unwrap();
    println!(
        "Degraded ring: {} sends, finish {:.3} us ({:.2}x slower, but still correct)",
        degraded.schedule.num_sends(),
        degraded_sim.transfer_time * 1e6,
        degraded_sim.transfer_time / healthy_sim.transfer_time
    );

    // No send may use the failed link.
    assert!(degraded
        .schedule
        .sends
        .iter()
        .all(|s| !(s.from == gpus[0] && s.to == gpus[1])));
    println!("Re-planned schedule avoids the failed link entirely.");
}
