//! Client-side correctness check of a `solve` reply: the schedule must be
//! valid for the demand the request implies, and re-simulating it must give
//! exactly the transfer time the reply claims.

use teccl_schedule::{simulate, validate};
use teccl_service::protocol::SolveReply;
use teccl_service::Quality;

use crate::workloads::Target;

/// Algorithmic bandwidth (the paper's schedule-quality metric, GB/s): the
/// request's output buffer over the re-simulated transfer time.
pub fn check_reply(target: &Target, reply: &SolveReply) -> Result<f64, String> {
    let request = &target.request;
    // A stale answer is a neighbouring size's entry, served under its key.
    if reply.quality != Quality::Stale {
        let expected = format!("{:016x}", request.key().hash);
        if reply.key != expected {
            return Err(format!("reply key {} != request key {expected}", reply.key));
        }
    }
    let schedule = &reply.output.schedule;
    let report = validate(&request.topology, &target.demand, schedule, false);
    if !report.is_valid() {
        return Err(format!("invalid schedule: {:?}", report.errors));
    }
    let sim = simulate(&request.topology, &target.demand, schedule).map_err(|e| e.to_string())?;
    let claimed = reply.output.metrics.transfer_time;
    if sim.transfer_time != claimed || !(claimed > 0.0 && claimed.is_finite()) {
        return Err(format!(
            "transfer time: reply says {claimed} s, simulation says {} s",
            sim.transfer_time
        ));
    }
    Ok(request.output_buffer / sim.transfer_time / 1e9)
}
