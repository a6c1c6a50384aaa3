//! Quickstart: schedule an ALLGATHER on a single DGX-1 box with TE-CCL and
//! compare it against the NCCL-style ring schedule.
//!
//! Run with: `cargo run --release --example quickstart`

use te_ccl::baselines::ring_all_gather;
use te_ccl::collective::chunk::format_size;
use te_ccl::prelude::*;

fn main() {
    // 1. Topology: one DGX-1 chassis (8 GPUs, 32 NVLink edges, 25 GB/s,
    //    α = 0.7 µs) — Table 2 of the paper.
    let topo = te_ccl::topology::dgx1();
    let gpus: Vec<NodeId> = topo.gpus().collect();

    // 2. Demand: ALLGATHER — every GPU sends its 1 MB block to every other GPU.
    let chunk_bytes = 1.0e6;
    let demand = DemandMatrix::all_gather(topo.num_nodes(), &gpus, 1);
    let output_buffer = (gpus.len() - 1) as f64 * chunk_bytes;

    // 3. Solve with TE-CCL. The A* formulation keeps this example snappy; use
    //    `RequestMethod::Auto` to let the library pick the formulation (it
    //    would use the general MILP here because the topology is a single
    //    chassis).
    let solver = TeCcl::new(topo.clone(), SolverConfig::early_stop());
    let outcome = solver
        .solve(&demand, chunk_bytes, RequestMethod::AStar, None)
        .expect("TE-CCL solve failed");

    // 4. Check and measure the schedule with the α–β simulator.
    let report = validate(&topo, &demand, &outcome.schedule, false);
    assert!(report.is_valid(), "invalid schedule: {:?}", report.errors);
    let sim = simulate(&topo, &demand, &outcome.schedule).expect("simulation failed");

    println!("== TE-CCL ({:?}) ==", outcome.formulation);
    println!("  sends              : {}", outcome.schedule.num_sends());
    println!("  epochs             : {}", outcome.schedule.num_epochs);
    println!(
        "  epoch duration     : {:.3} us",
        outcome.epoch_duration * 1e6
    );
    println!(
        "  solver time        : {:.3} s",
        outcome.solver_time.as_secs_f64()
    );
    println!("  transfer time      : {:.3} us", sim.transfer_time * 1e6);
    println!(
        "  algorithmic bw     : {:.2} GB/s (output buffer {})",
        sim.algorithmic_bandwidth(output_buffer) / 1e9,
        format_size(output_buffer),
    );

    // 5. Baseline: the ring ALLGATHER every collective library ships. The
    //    DGX-1 NVLink mesh contains a Hamiltonian ring through the two quads.
    let ring_order: Vec<NodeId> = [0usize, 1, 2, 3, 7, 6, 5, 4]
        .iter()
        .map(|&i| gpus[i])
        .collect();
    let ring = ring_all_gather(&topo, &ring_order, 1, chunk_bytes).expect("DGX-1 has a ring");
    let ring_sim = simulate(&topo, &demand, &ring).expect("ring simulation failed");
    println!("== Ring baseline ==");
    println!("  sends              : {}", ring.num_sends());
    println!(
        "  transfer time      : {:.3} us",
        ring_sim.transfer_time * 1e6
    );
    println!(
        "  algorithmic bw     : {:.2} GB/s",
        ring_sim.algorithmic_bandwidth(output_buffer) / 1e9
    );

    let speedup = ring_sim.transfer_time / sim.transfer_time;
    println!("TE-CCL finishes the collective {speedup:.2}x faster than the ring schedule.");
}
