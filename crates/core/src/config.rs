//! Solver configuration: the knobs §5 of the paper exposes. The solver's own
//! machinery (warm node re-solves, warm A\* rounds) has no switch.

use std::time::Duration;

/// How the epoch duration is derived from the topology (§5 "Epoch durations
/// and chunk sizes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochStrategy {
    /// Option (a): epoch = time for the *slowest* link to transmit one chunk.
    /// Every link can carry at least one chunk per epoch; coarser schedules.
    SlowestLink,
    /// Option (b): epoch = time for the *fastest* link to transmit one chunk.
    /// Finer-grained schedules; slow links get the Appendix-F windowed
    /// capacity constraint. This is what the paper uses for most evaluations.
    FastestLink,
}

/// How switches are modeled (§3.1 "Modeling switches", Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchModel {
    /// Switches can copy chunks (SHArP-style in-network multicast); they still
    /// have no buffer.
    CopyCapable,
    /// Legacy switches: traditional flow conservation (what goes in must come
    /// out, no duplication), no buffer.
    NonCopy,
    /// TACCL-style hyper-edge model (Appendix C): the switch is removed and
    /// replaced with direct GPU-to-GPU edges whose simultaneous use is limited
    /// by the switch's port counts. Traffic pays a single transmission delay
    /// to cross the switch — used for apples-to-apples TACCL comparisons.
    HyperEdge,
}

/// Store-and-forward buffer handling (§3.1 buffers, Appendix B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferMode {
    /// Unlimited buffering at GPUs (the paper's default: ALLGATHER-style
    /// collectives need all the data anyway).
    Unlimited,
    /// Limited per-GPU buffer of this many chunks (Appendix B adds eviction
    /// variables).
    LimitedChunks(usize),
    /// No store-and-forward at relays: a GPU may only hold chunks it is the
    /// source of or that it itself demands; relayed chunks must be forwarded
    /// the epoch after they arrive (the "without buffers" arm of Figure 9).
    NoStoreAndForward,
}

/// Full solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Epoch-duration strategy.
    pub epoch_strategy: EpochStrategy,
    /// Multiplier applied to the computed epoch duration (the "EM" column of
    /// Table 4 — used to trade solution quality for solver memory/time on
    /// large topologies).
    pub epoch_multiplier: f64,
    /// Switch model.
    pub switch_model: SwitchModel,
    /// Buffer handling.
    pub buffer_mode: BufferMode,
    /// First epoch horizon the LP and MILP try, raised to the proven lower
    /// bound of [`crate::epochs`] when below it. `None` = start at (or one
    /// epoch above) that bound.
    pub max_epochs: Option<usize>,
    /// Relative MIP gap at which the MILP may stop early (the paper's
    /// "early stop at 30%" uses `Some(0.3)`); `None` proves optimality.
    pub early_stop_gap: Option<f64>,
    /// Wall-clock limit for a single MILP solve (the paper uses 2 hours with
    /// Gurobi; tests and benches use much smaller values).
    pub time_limit: Option<Duration>,
    /// Epochs per A* round (§4.2: chosen so chunks arrive at most one round
    /// late). `None` = derive from the topology's maximum α-delay.
    pub astar_epochs_per_round: Option<usize>,
    /// Weight γ < 1 of the A* distance reward (Appendix D).
    pub astar_gamma: f64,
    /// Maximum number of A* rounds before giving up.
    pub astar_max_rounds: usize,
    /// Per-chunk objective weights for multi-tenant priorities (§5); indexed
    /// by chunk id, missing entries default to 1.0.
    pub chunk_priorities: Option<Vec<f64>>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            epoch_strategy: EpochStrategy::FastestLink,
            epoch_multiplier: 1.0,
            switch_model: SwitchModel::CopyCapable,
            buffer_mode: BufferMode::Unlimited,
            max_epochs: None,
            early_stop_gap: None,
            time_limit: Some(Duration::from_secs(120)),
            astar_epochs_per_round: None,
            astar_gamma: 0.5,
            astar_max_rounds: 64,
            chunk_priorities: None,
        }
    }
}

impl SolverConfig {
    /// The paper's "early stop" configuration (30% optimality gap allowed).
    pub fn early_stop() -> Self {
        Self {
            early_stop_gap: Some(0.3),
            ..Default::default()
        }
    }

    /// Configuration matching the TACCL-fair comparison: hyper-edge switch
    /// model so a chunk pays a single transmission delay across a switch.
    pub fn taccl_comparable() -> Self {
        Self {
            switch_model: SwitchModel::HyperEdge,
            ..Default::default()
        }
    }

    /// Sets the maximum number of epochs.
    pub fn with_max_epochs(mut self, k: usize) -> Self {
        self.max_epochs = Some(k);
        self
    }

    /// Sets the epoch strategy.
    pub fn with_epoch_strategy(mut self, s: EpochStrategy) -> Self {
        self.epoch_strategy = s;
        self
    }

    /// Sets the buffer mode.
    pub fn with_buffer_mode(mut self, b: BufferMode) -> Self {
        self.buffer_mode = b;
        self
    }

    /// Sets the switch model.
    pub fn with_switch_model(mut self, s: SwitchModel) -> Self {
        self.switch_model = s;
        self
    }

    /// Sets the per-solve time limit.
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.time_limit = Some(d);
        self
    }

    /// Sets the epoch multiplier (EM).
    pub fn with_epoch_multiplier(mut self, em: f64) -> Self {
        assert!(em >= 1.0, "epoch multiplier must be >= 1");
        self.epoch_multiplier = em;
        self
    }

    /// The priority weight of a chunk id (1.0 unless configured).
    pub fn chunk_priority(&self, chunk: usize) -> f64 {
        self.chunk_priorities
            .as_ref()
            .and_then(|p| p.get(chunk).copied())
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let c = SolverConfig::default();
        assert_eq!(c.epoch_strategy, EpochStrategy::FastestLink);
        assert_eq!(c.switch_model, SwitchModel::CopyCapable);
        assert_eq!(c.buffer_mode, BufferMode::Unlimited);
        assert!(c.early_stop_gap.is_none());
        assert!(c.astar_gamma < 1.0);
    }

    #[test]
    fn builder_methods() {
        let c = SolverConfig::early_stop()
            .with_max_epochs(12)
            .with_epoch_strategy(EpochStrategy::SlowestLink)
            .with_buffer_mode(BufferMode::LimitedChunks(4))
            .with_switch_model(SwitchModel::NonCopy)
            .with_epoch_multiplier(2.0);
        assert_eq!(c.early_stop_gap, Some(0.3));
        assert_eq!(c.max_epochs, Some(12));
        assert_eq!(c.epoch_strategy, EpochStrategy::SlowestLink);
        assert_eq!(c.buffer_mode, BufferMode::LimitedChunks(4));
        assert_eq!(c.switch_model, SwitchModel::NonCopy);
        assert_eq!(c.epoch_multiplier, 2.0);
    }

    #[test]
    fn chunk_priorities_default_to_one() {
        let mut c = SolverConfig::default();
        assert_eq!(c.chunk_priority(3), 1.0);
        c.chunk_priorities = Some(vec![2.0, 0.5]);
        assert_eq!(c.chunk_priority(0), 2.0);
        assert_eq!(c.chunk_priority(1), 0.5);
        assert_eq!(c.chunk_priority(2), 1.0);
    }

    #[test]
    #[should_panic]
    fn epoch_multiplier_below_one_panics() {
        let _ = SolverConfig::default().with_epoch_multiplier(0.5);
    }

    #[test]
    fn taccl_comparable_uses_hyperedges() {
        assert_eq!(
            SolverConfig::taccl_comparable().switch_model,
            SwitchModel::HyperEdge
        );
    }
}
