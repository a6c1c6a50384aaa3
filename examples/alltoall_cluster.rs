//! ALLTOALL on a switch-connected cluster using the scalable LP formulation
//! (§4.1), with the resulting schedule exported in an MSCCL-like JSON format —
//! the path the paper uses to run TE-CCL schedules on real hardware (§6).
//!
//! Run with: `cargo run --release --example alltoall_cluster`

use te_ccl::prelude::*;

fn main() {
    // A 4-chassis "Internal 2" cluster: 8 GPUs around a switch.
    let topo = te_ccl::topology::internal2(4);
    let gpus: Vec<NodeId> = topo.gpus().collect();
    println!(
        "Topology {}: {} GPUs, {} links",
        topo.name,
        topo.num_gpus(),
        topo.num_links()
    );

    // ALLTOALL: every GPU sends a distinct 512 KB block to every other GPU —
    // the demand class that does not benefit from copy, so TE-CCL uses the LP.
    let chunk_bytes = 512.0e3;
    let demand = DemandMatrix::all_to_all(topo.num_nodes(), &gpus, 1);

    let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(24));
    let outcome = solver
        .solve(&demand, chunk_bytes, RequestMethod::Auto, None)
        .expect("LP solve failed");
    assert_eq!(
        outcome.formulation,
        te_ccl::core::solver::FormulationKind::Lp
    );

    let report = validate(&topo, &demand, &outcome.schedule, false);
    assert!(report.is_valid(), "invalid schedule: {:?}", report.errors);
    let sim = simulate(&topo, &demand, &outcome.schedule).unwrap();

    let output_buffer = (gpus.len() - 1) as f64 * chunk_bytes;
    println!("  formulation    : {:?}", outcome.formulation);
    println!(
        "  solver time    : {:.3} s",
        outcome.solver_time.as_secs_f64()
    );
    println!("  transfer time  : {:.3} us", sim.transfer_time * 1e6);
    println!(
        "  algo bandwidth : {:.2} GB/s",
        sim.algorithmic_bandwidth(output_buffer) / 1e9
    );
    println!("  bytes on wire  : {:.1} MB", sim.bytes_on_wire / 1e6);

    // Export the schedule for downstream runtimes.
    let json = outcome.schedule.to_msccl_json();
    let rendered = json.to_json_pretty();
    let path = std::env::temp_dir().join("teccl_alltoall_schedule.json");
    std::fs::write(&path, &rendered).expect("write schedule");
    println!("  MSCCL-like schedule written to {}", path.display());
    println!(
        "  (first 300 chars)\n{}",
        &rendered[..rendered.len().min(300)]
    );
}
