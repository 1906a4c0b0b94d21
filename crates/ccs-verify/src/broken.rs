//! An intentionally broken solver, used to prove the verification subsystem
//! actually catches bugs (`ccs-fuzz --broken` and the crate's tests).
//!
//! [`BrokenExactNonPreemptive`] **claims** [`Guarantee::Exact`] but merely
//! assigns every class round-robin to machine `class % m` — feasible on any
//! feasible instance (at most `⌈C/m⌉ ≤ c` classes land on one machine), yet
//! usually far from optimal.  Both its makespan and its "lower bound" are
//! reported confidently, so nothing short of an independent cross-check can
//! tell it apart from a real exact solver; the differential oracle catches
//! it through the bit-for-bit exact-consensus check and the guarantee audit.

use ccs_core::solver::{Guarantee, SolveReport, SolveStats, Solver};
use ccs_core::{Instance, NonPreemptiveSchedule, Result, Schedule, ScheduleKind, SolveContext};
use ccs_engine::{Engine, SolverRegistry};

/// Registry name of the broken solver.
pub const BROKEN_SOLVER_NAME: &str = "broken-exact-nonpreemptive";

/// A solver that claims exactness but schedules whole classes round-robin.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokenExactNonPreemptive;

impl Solver for BrokenExactNonPreemptive {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        BROKEN_SOLVER_NAME
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::NonPreemptive
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Exact // the lie the verifier must expose
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<NonPreemptiveSchedule>> {
        ctx.checkpoint()?;
        if !inst.is_feasible() {
            return Err(ccs_core::CcsError::infeasible(
                "more classes than class slots",
            ));
        }
        let assignment = (0..inst.num_jobs())
            .map(|job| inst.class_of(job) as u64 % inst.machines())
            .collect();
        let schedule = NonPreemptiveSchedule::new(assignment);
        let makespan = schedule.makespan(inst);
        Ok(SolveReport {
            schedule,
            makespan,
            // Reported as if proven optimal.
            lower_bound: makespan,
            stats: SolveStats::default(),
        })
    }
}

/// The default registry plus the broken solver, as an engine.
pub fn engine_with_broken_solver() -> Engine {
    let mut registry = SolverRegistry::with_defaults();
    registry
        .register(BrokenExactNonPreemptive)
        .expect("broken solver name is unique");
    Engine::with_registry(registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;

    #[test]
    fn broken_solver_is_feasible_but_suboptimal() {
        let inst = instance_from_pairs(2, 2, &[(2, 0), (1, 1), (1, 2)]).unwrap();
        let report = BrokenExactNonPreemptive.solve(&inst).unwrap();
        report.schedule.validate(&inst).unwrap();
        // Classes 0 and 2 share machine 0: makespan 3, optimum 2.
        assert_eq!(report.makespan, ccs_core::Rational::from_int(3));
    }

    #[test]
    fn broken_engine_registers_fifteen_solvers() {
        // The fourteen defaults plus the broken impostor.
        let engine = engine_with_broken_solver();
        assert_eq!(engine.registry().len(), 15);
        assert!(engine.registry().get(BROKEN_SOLVER_NAME).is_some());
    }
}
