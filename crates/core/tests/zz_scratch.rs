use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::epochs::{epoch_duration, estimate_num_epochs};
use teccl_core::{SolverConfig, TeCcl};
use teccl_topology::{internal2, NodeId};
#[test]
fn scratch() {
    for topo in [internal2(2), internal2(3)] {
        for kind in [
            CollectiveKind::AllToAll,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
        ] {
            for buffer in [65536.0, 16.0 * 1048576.0] {
                let gpus: Vec<NodeId> = topo.gpus().collect();
                let demand = DemandMatrix::for_collective(kind, topo.num_nodes(), &gpus, 1);
                let sizing = CollectiveSizing::new(kind, gpus.len());
                let cb = sizing.transfer_bytes_for_output_buffer(buffer);
                let config = SolverConfig::default();
                let tau = epoch_duration(&topo, cb, &config);
                let first = estimate_num_epochs(&topo, &demand, cb, tau);
                let t = std::time::Instant::now();
                let out = TeCcl::new(topo.clone(), config).solve_milp(&demand, cb);
                println!(
                    "{} {:?} {} first={} solved={:?} {:?}",
                    topo.name,
                    kind,
                    buffer,
                    first,
                    out.as_ref()
                        .map(|o| o.num_epochs)
                        .map_err(|e| e.to_string()),
                    t.elapsed()
                );
            }
        }
    }
}
