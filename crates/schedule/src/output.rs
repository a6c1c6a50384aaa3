//! The serializable unit a solver hands to callers and caches: a schedule
//! plus the metrics measured for it.
//!
//! This is the value the schedule service stores (in memory and on disk) and
//! ships over the wire, so the JSON round-trip must be *exact*: deserializing
//! a serialized output yields bit-identical metrics and a send-for-send
//! identical schedule, and a validated schedule stays valid. The
//! `teccl-util` JSON writer prints floats with Rust's shortest-round-trip
//! formatting, which is what makes bit-exactness possible without a binary
//! format.

use teccl_util::json::{self, Emit, Event, JsonError, JsonSink, Reader, Value};

use crate::metrics::CollectiveMetrics;
use crate::schedule::Schedule;

/// A schedule together with its measured metrics.
#[derive(Debug, Clone)]
pub struct ScheduleOutput {
    /// The executable schedule.
    pub schedule: Schedule,
    /// The paper's metrics for this schedule (§6): transfer time, solver
    /// time, output-buffer size, bytes on wire, algorithmic bandwidth.
    pub metrics: CollectiveMetrics,
}

impl ScheduleOutput {
    /// Serializes the output to JSON: the tree form of
    /// [`ScheduleOutput::emit`].
    pub fn to_json_value(&self) -> Value {
        json::to_value(self)
    }

    /// Parses an output from a JSON string.
    pub fn from_json_str(text: &str) -> Result<ScheduleOutput, JsonError> {
        json::decode_text(text, ScheduleOutput::decode)
    }

    /// Reads the output document whose first event is `first` from `src`,
    /// to its end (see [`Reader`] for the two errors): the schedule
    /// ([`Schedule::decode`]) is checked before the metrics
    /// ([`CollectiveMetrics::decode`]).
    pub fn decode<'a>(
        first: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<Result<ScheduleOutput, JsonError>, JsonError> {
        let mut schedule = None;
        let mut metrics = None;
        src.object(first, |key, value, src| {
            match key {
                "schedule" if schedule.is_none() => schedule = Some(Schedule::decode(value, src)?),
                "metrics" if metrics.is_none() => {
                    metrics = Some(CollectiveMetrics::decode(value, src)?)
                }
                _ => src.skip(&value)?,
            }
            Ok(())
        })?;
        let missing = |msg: &str| JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        let output = schedule
            .unwrap_or_else(|| Err(missing("missing schedule")))
            .and_then(|schedule| {
                Ok(ScheduleOutput {
                    schedule,
                    metrics: metrics.unwrap_or_else(|| Err(missing("missing metrics")))?,
                })
            });
        Ok(output)
    }
}

impl ScheduleOutput {
    /// [`ScheduleOutput::emit`] with the schedule copied in as its kept
    /// text ([`Schedule::json_text`]): one raw event, no formatting after
    /// the first call. For an output that no longer changes.
    pub fn emit_rendered<S: JsonSink>(&self, sink: &mut S) {
        self.emit_with(sink, |schedule, sink| sink.raw(schedule.json_text()));
    }

    fn emit_with<S: JsonSink>(&self, sink: &mut S, schedule: impl FnOnce(&Schedule, &mut S)) {
        sink.begin_obj();
        sink.key("schedule");
        schedule(&self.schedule, sink);
        sink.key("metrics");
        self.metrics.emit(sink);
        sink.end_obj();
    }
}

impl Emit for ScheduleOutput {
    fn emit<S: JsonSink>(&self, sink: &mut S) {
        self.emit_with(sink, |schedule, sink| schedule.emit(sink));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChunkId;
    use teccl_topology::NodeId;

    fn sample() -> ScheduleOutput {
        let mut s = Schedule::new("unit", 12345.5);
        s.epoch_duration = 3.3e-6;
        s.solver_time = 0.0721;
        s.push(ChunkId::new(NodeId(0), 1), NodeId(0), NodeId(1), 0);
        s.push(ChunkId::new(NodeId(1), 0), NodeId(1), NodeId(2), 2);
        ScheduleOutput {
            schedule: s,
            metrics: CollectiveMetrics {
                solver: "unit".into(),
                epoch_duration: 3.3e-6,
                transfer_time: 1.0 / 3.0, // not exactly representable in text unless shortest-round-trip
                solver_time: 0.0721,
                output_buffer_bytes: 16.0 * 1024.0 * 1024.0,
                bytes_on_wire: 24690.0 + 0.1,
            },
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let out = sample();
        let text = out.to_json_value().to_json();
        let back = ScheduleOutput::from_json_str(&text).unwrap();
        assert_eq!(back.schedule.sends, out.schedule.sends);
        assert_eq!(back.schedule.num_epochs, out.schedule.num_epochs);
        assert_eq!(
            back.schedule.chunk_bytes.to_bits(),
            out.schedule.chunk_bytes.to_bits()
        );
        assert_eq!(back.metrics, out.metrics);
        // Bit-exact, not just PartialEq-equal.
        assert_eq!(
            back.metrics.transfer_time.to_bits(),
            out.metrics.transfer_time.to_bits()
        );
        // A second round trip is a fixed point.
        assert_eq!(back.to_json_value().to_json(), text);
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(ScheduleOutput::from_json_str("{}").is_err());
        assert!(ScheduleOutput::from_json_str(r#"{"schedule": {}}"#).is_err());
    }
}
