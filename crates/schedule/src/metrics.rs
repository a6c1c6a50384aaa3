//! The paper's evaluation metrics (§6 "Metrics").

use teccl_util::json::{Emit, Event, JsonError, JsonSink, Reader};

/// Metrics of one collective run, mirroring §6 and the columns of Table 8:
/// epoch duration (ED), collective finish / transfer time (CT), solver
/// time (ST) and algorithmic bandwidth (AB).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveMetrics {
    /// Name of the solver / algorithm.
    pub solver: String,
    /// Epoch duration in seconds (0 if not epoch based).
    pub epoch_duration: f64,
    /// Transfer (collective finish) time in seconds.
    pub transfer_time: f64,
    /// Wall-clock solver time in seconds.
    pub solver_time: f64,
    /// Output buffer size in bytes (data each GPU ends up holding).
    pub output_buffer_bytes: f64,
    /// Total bytes placed on the wire by the schedule.
    pub bytes_on_wire: f64,
}

impl CollectiveMetrics {
    /// Algorithmic bandwidth in bytes/second: output buffer size divided by
    /// the transfer time (TACCL's metric, reused by the paper).
    pub fn algorithmic_bandwidth(&self) -> f64 {
        self.output_buffer_bytes / self.transfer_time
    }

    /// Algorithmic bandwidth in GB/s (the unit of Table 8).
    pub fn algorithmic_bandwidth_gbps(&self) -> f64 {
        self.algorithmic_bandwidth() / 1e9
    }

    /// Reads the metrics document whose first event is `first` from `src`,
    /// to its end (see [`Reader`] for the two errors). Members come in
    /// any order and the first of duplicate keys wins; `solver` is checked
    /// before the numbers.
    pub fn decode<'a>(
        first: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<Result<CollectiveMetrics, JsonError>, JsonError> {
        let mut solver = None;
        // epoch_duration, transfer_time, solver_time, output_buffer_bytes,
        // bytes_on_wire.
        let mut nums: [Option<Option<f64>>; 5] = [None; 5];
        src.object(first, |key, value, src| {
            let slot = match key {
                "solver" if solver.is_none() => {
                    solver = Some(src.scalar(value, Event::into_str)?);
                    return Ok(());
                }
                "epoch_duration" => 0,
                "transfer_time" => 1,
                "solver_time" => 2,
                "output_buffer_bytes" => 3,
                "bytes_on_wire" => 4,
                _ => return src.skip(&value),
            };
            if nums[slot].is_some() {
                return src.skip(&value);
            }
            nums[slot] = Some(src.scalar(value, |v| v.as_f64())?);
            Ok(())
        })?;
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        let Some(solver) = solver.flatten() else {
            return Ok(Err(bad("missing solver")));
        };
        let [Some(epoch_duration), Some(transfer_time), Some(solver_time), Some(output_buffer_bytes), Some(bytes_on_wire)] =
            nums.map(Option::flatten)
        else {
            return Ok(Err(bad("missing numeric field")));
        };
        Ok(Ok(CollectiveMetrics {
            solver: solver.into_owned(),
            epoch_duration,
            transfer_time,
            solver_time,
            output_buffer_bytes,
            bytes_on_wire,
        }))
    }
}

impl Emit for CollectiveMetrics {
    fn emit<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_obj();
        sink.key("solver");
        sink.str(&self.solver);
        sink.key("epoch_duration");
        sink.num(self.epoch_duration);
        sink.key("transfer_time");
        sink.num(self.transfer_time);
        sink.key("solver_time");
        sink.num(self.solver_time);
        sink.key("output_buffer_bytes");
        sink.num(self.output_buffer_bytes);
        sink.key("bytes_on_wire");
        sink.num(self.bytes_on_wire);
        sink.end_obj();
    }
}

/// Percentage improvement of `ours` over `baseline`:
/// `100 * (ours - baseline) / baseline` — the quantity plotted in Figures 4–6
/// (bandwidth: higher is better) and Figure 5 (solver-time speedup).
pub fn percent_improvement(ours: f64, baseline: f64) -> f64 {
    100.0 * (ours - baseline) / baseline
}

/// Percentage reduction of `ours` relative to `baseline`:
/// `100 * (baseline - ours) / baseline` (used when lower is better, e.g. the
/// transfer-time delta of Table 7).
pub fn percent_reduction(ours: f64, baseline: f64) -> f64 {
    100.0 * (baseline - ours) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_util::json;

    #[test]
    fn algorithmic_bandwidth_definition() {
        let m = CollectiveMetrics {
            solver: "te-ccl".into(),
            epoch_duration: 1e-3,
            transfer_time: 0.5,
            solver_time: 2.0,
            output_buffer_bytes: 1e9,
            bytes_on_wire: 7e9,
        };
        assert!((m.algorithmic_bandwidth() - 2e9).abs() < 1.0);
        assert!((m.algorithmic_bandwidth_gbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn improvement_and_reduction() {
        assert!((percent_improvement(3.0, 2.0) - 50.0).abs() < 1e-12);
        assert!((percent_improvement(2.0, 2.0)).abs() < 1e-12);
        assert!((percent_reduction(1.0, 2.0) - 50.0).abs() < 1e-12);
        assert!(percent_improvement(1.0, 2.0) < 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let m = CollectiveMetrics {
            solver: "x".into(),
            epoch_duration: 0.0,
            transfer_time: 1.0,
            solver_time: 0.1,
            output_buffer_bytes: 10.0,
            bytes_on_wire: 20.0,
        };
        let s = json::to_value(&m).to_json();
        let back: CollectiveMetrics = json::decode_text(&s, CollectiveMetrics::decode).unwrap();
        assert_eq!(back, m);
    }
}
