//! Error type of the TE-CCL solver, the demand check every formulation
//! runs before it builds anything, and the budget check its build loops run.

use std::fmt;

use teccl_collective::DemandMatrix;
use teccl_lp::LpError;
use teccl_topology::Topology;
use teccl_util::SolveBudget;

/// Errors produced while formulating or solving a collective optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum TeCclError {
    /// The underlying LP/MILP solver failed.
    Lp(LpError),
    /// The optimization is infeasible with the given number of epochs `k`;
    /// increase `max_epochs` (§5 "Number of epochs": too small a bound makes
    /// the problem infeasible).
    InfeasibleWithEpochs(usize),
    /// No feasible schedule was found within the configured limits.
    NoSolution,
    /// The demand is empty — nothing to schedule.
    EmptyDemand,
    /// The demand references nodes outside the topology, or demands data at a
    /// switch.
    InvalidDemand(String),
    /// The A* solver did not satisfy all demands within its round limit.
    AStarDidNotConverge {
        rounds: usize,
        remaining_demands: usize,
    },
    /// A cooperative [`teccl_util::SolveBudget`] stopped the solve (cancel,
    /// deadline, or iteration cap) before any feasible schedule existed.
    /// When an incumbent exists the solver instead returns a normal outcome
    /// with `stats.budget_stop` set.
    Budget(teccl_util::BudgetExceeded),
}

impl fmt::Display for TeCclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeCclError::Lp(e) => write!(f, "LP solver error: {e}"),
            TeCclError::InfeasibleWithEpochs(k) => {
                write!(f, "infeasible with {k} epochs; increase max_epochs")
            }
            TeCclError::NoSolution => write!(f, "no feasible schedule found within limits"),
            TeCclError::EmptyDemand => write!(f, "the demand matrix is empty"),
            TeCclError::InvalidDemand(msg) => write!(f, "invalid demand: {msg}"),
            TeCclError::AStarDidNotConverge { rounds, remaining_demands } => write!(
                f,
                "A* did not satisfy all demands after {rounds} rounds ({remaining_demands} remaining)"
            ),
            TeCclError::Budget(cause) => write!(f, "solve budget exhausted: {cause}"),
        }
    }
}

impl std::error::Error for TeCclError {}

impl From<LpError> for TeCclError {
    fn from(e: LpError) -> Self {
        match e {
            LpError::Budget(cause) => TeCclError::Budget(cause),
            other => TeCclError::Lp(other),
        }
    }
}

/// Rejects a demand no formulation can schedule on `topology`: an empty one,
/// one over a different node count, or one with a switch as an endpoint.
pub(crate) fn check_demand(topology: &Topology, demand: &DemandMatrix) -> Result<(), TeCclError> {
    if demand.is_empty() {
        return Err(TeCclError::EmptyDemand);
    }
    if demand.num_nodes != topology.num_nodes() {
        return Err(TeCclError::InvalidDemand(format!(
            "demand is over {} nodes but the topology has {}",
            demand.num_nodes,
            topology.num_nodes()
        )));
    }
    for (s, _c, d) in demand.iter() {
        if topology.is_switch(s) || topology.is_switch(d) {
            return Err(TeCclError::InvalidDemand(format!(
                "demand endpoints must be GPUs (got {s} -> {d})"
            )));
        }
    }
    Ok(())
}

/// Fails with [`TeCclError::Budget`] once `budget` is spent. Checks, never
/// charges: iteration-cap budgets count pivots alone.
pub(crate) fn check_budget(budget: Option<&SolveBudget>) -> Result<(), TeCclError> {
    match budget.and_then(SolveBudget::exceeded) {
        Some(cause) => Err(TeCclError::Budget(cause)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: TeCclError = LpError::IterationLimit(10).into();
        assert!(e.to_string().contains("LP solver error"));
        assert!(TeCclError::InfeasibleWithEpochs(5)
            .to_string()
            .contains("5 epochs"));
        assert!(TeCclError::EmptyDemand.to_string().contains("empty"));
        assert!(TeCclError::AStarDidNotConverge {
            rounds: 3,
            remaining_demands: 2
        }
        .to_string()
        .contains("3 rounds"));
        assert!(TeCclError::InvalidDemand("x".into())
            .to_string()
            .contains("x"));
        assert!(TeCclError::NoSolution.to_string().contains("feasible"));
    }
}
