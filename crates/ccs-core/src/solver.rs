//! The unified solving surface of the workspace.
//!
//! Every algorithm crate (`ccs-approx`, `ccs-ptas`, `ccs-exact`,
//! `ccs-baselines`) exposes each algorithm only as a unit or parameter
//! struct implementing the [`Solver`] trait defined here, and every run
//! returns a [`SolveReport`]: schedule, makespan, the best lower bound the
//! algorithm knows and its work counters.  No free function runs a whole
//! algorithm, and the crates' internal result types (which also carry the
//! accepted makespan guess of the constant-factor algorithms and the
//! schemes) stay crate-private.  The `ccs-engine` dispatch layer builds its
//! registry, portfolio policy and batch executor on this trait.

use crate::ctx::SolveContext;
use crate::error::Result;
use crate::instance::Instance;
use crate::rational::Rational;
use crate::schedule::{AnySchedule, Schedule, ScheduleKind};

/// The a-priori quality guarantee of a solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guarantee {
    /// The returned makespan equals the optimum of the solver's model.
    Exact,
    /// The returned makespan is at most `factor · opt(I)`.
    Factor(Rational),
    /// No worst-case bound (practitioner heuristics).
    Heuristic,
}

impl Guarantee {
    /// The approximation factor: `1` for exact solvers, the bound for
    /// constant-factor/PTAS solvers and `None` for heuristics.
    pub fn factor(&self) -> Option<Rational> {
        match self {
            Guarantee::Exact => Some(Rational::ONE),
            Guarantee::Factor(f) => Some(*f),
            Guarantee::Heuristic => None,
        }
    }
}

impl std::fmt::Display for Guarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Guarantee::Exact => write!(f, "exact"),
            Guarantee::Factor(r) => write!(f, "{r}-approximation"),
            Guarantee::Heuristic => write!(f, "heuristic"),
        }
    }
}

/// The asymptotic cost regime of a solver — what benchmark and portfolio
/// code needs to size instances safely, without matching on solver names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolverCost {
    /// Low-order polynomial in the instance size; safe at any bench size.
    #[default]
    Polynomial,
    /// Exponential in the accuracy parameter (the approximation schemes):
    /// polynomial for fixed accuracy but with huge constants, so bench
    /// instances must stay small.
    AccuracyExponential,
    /// Exponential in the instance size (the exact solvers, which enforce
    /// hard instance limits and error out beyond them).
    InstanceExponential,
}

impl std::fmt::Display for SolverCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverCost::Polynomial => write!(f, "polynomial"),
            SolverCost::AccuracyExponential => write!(f, "accuracy-exponential"),
            SolverCost::InstanceExponential => write!(f, "instance-exponential"),
        }
    }
}

/// Counters reported by a solver run; fields not applicable to a given
/// algorithm stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Feasibility checks performed by the (advanced) binary search
    /// (Lemma 2 bounds this by `O(C log m)` for the constant-factor
    /// algorithms).
    pub search_iterations: usize,
    /// Makespan guesses evaluated by a PTAS's geometric search.
    pub guesses_evaluated: usize,
    /// Configurations enumerated by a PTAS for the accepted guess.
    pub configurations: usize,
}

/// The uniform output of every solver in the workspace.
#[derive(Debug, Clone)]
pub struct SolveReport<S> {
    /// The computed schedule; solvers only ever return schedules that pass
    /// the validators of this crate.
    pub schedule: S,
    /// The makespan of [`SolveReport::schedule`].
    pub makespan: Rational,
    /// The best lower bound on the optimal makespan known to the solver
    /// (equals [`SolveReport::makespan`] for exact solvers).
    pub lower_bound: Rational,
    /// Algorithm-specific counters.
    pub stats: SolveStats,
}

impl<S> SolveReport<S> {
    /// Replaces the schedule while keeping makespan, bound and counters;
    /// used when converting a model-specific report into a model-erased one.
    pub fn map_schedule<T>(self, f: impl FnOnce(S) -> T) -> SolveReport<T> {
        SolveReport {
            schedule: f(self.schedule),
            makespan: self.makespan,
            lower_bound: self.lower_bound,
            stats: self.stats,
        }
    }

    /// An a-posteriori upper bound on the approximation ratio of this run:
    /// `makespan / lower_bound` (`1` when the lower bound is not positive,
    /// which only happens on zero-load instances).
    pub fn ratio_upper_bound(&self) -> Rational {
        if self.lower_bound.is_positive() {
            self.makespan / self.lower_bound
        } else {
            Rational::ONE
        }
    }
}

impl<S: Schedule> SolveReport<S> {
    /// Builds a report from a schedule, computing the makespan, and the given
    /// lower bound.
    pub fn new(inst: &Instance, schedule: S, lower_bound: Rational, stats: SolveStats) -> Self {
        let makespan = schedule.makespan(inst);
        SolveReport {
            schedule,
            makespan,
            lower_bound,
            stats,
        }
    }

    /// Re-checks the schedule against the instance (delegates to
    /// [`Schedule::validate`]).
    pub fn validate(&self, inst: &Instance) -> Result<()> {
        self.schedule.validate(inst)
    }
}

/// A scheduling algorithm: the one public entry point of every algorithm in
/// the workspace.
///
/// All solvers are stateless or immutable after construction, `Send + Sync`,
/// and therefore freely shareable across the batch executor's worker threads.
/// An implementation provides [`Solver::solve_ctx`]; [`Solver::solve`] is
/// its unbounded form.
pub trait Solver: Send + Sync {
    /// The schedule representation of the solver's placement model (no
    /// solver serves two models).
    type Schedule: Schedule + Into<AnySchedule>;

    /// Stable identifier used by the registry and the benchmark harness
    /// (e.g. `"approx-splittable-2"`).
    fn name(&self) -> &'static str;

    /// The placement model this solver produces schedules for.
    fn kind(&self) -> ScheduleKind;

    /// The solver's a-priori quality guarantee.
    fn guarantee(&self) -> Guarantee;

    /// The solver's asymptotic cost regime (defaults to
    /// [`SolverCost::Polynomial`]; schemes and exact solvers override it).
    fn cost(&self) -> SolverCost {
        SolverCost::Polynomial
    }

    /// Runs the algorithm on `inst` under an execution context (deadline,
    /// cooperative cancellation, stats sink, warm hint).
    ///
    /// Every implementation checks the context on entry, so an expired
    /// budget never starts a run; solvers with long search loops also poll
    /// it inside those loops, so runs stop at the deadline.
    fn solve_ctx(&self, inst: &Instance, ctx: &SolveContext)
        -> Result<SolveReport<Self::Schedule>>;

    /// Runs the algorithm on `inst` to completion.
    fn solve(&self, inst: &Instance) -> Result<SolveReport<Self::Schedule>> {
        self.solve_ctx(inst, &SolveContext::unbounded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::instance_from_pairs;
    use crate::schedule::NonPreemptiveSchedule;

    struct OneMachine;

    impl Solver for OneMachine {
        type Schedule = NonPreemptiveSchedule;

        fn name(&self) -> &'static str {
            "test-one-machine"
        }
        fn kind(&self) -> ScheduleKind {
            ScheduleKind::NonPreemptive
        }
        fn guarantee(&self) -> Guarantee {
            Guarantee::Heuristic
        }
        fn solve_ctx(
            &self,
            inst: &Instance,
            ctx: &SolveContext,
        ) -> Result<SolveReport<NonPreemptiveSchedule>> {
            ctx.checkpoint()?;
            let schedule = NonPreemptiveSchedule::new(vec![0; inst.num_jobs()]);
            schedule.validate(inst)?;
            Ok(SolveReport::new(
                inst,
                schedule,
                crate::bounds::lower_bound(inst, ScheduleKind::NonPreemptive),
                SolveStats::default(),
            ))
        }
    }

    #[test]
    fn trait_roundtrip() {
        let inst = instance_from_pairs(1, 2, &[(3, 0), (4, 1)]).unwrap();
        let solver = OneMachine;
        assert_eq!(solver.name(), "test-one-machine");
        assert_eq!(solver.guarantee().factor(), None);
        let report = solver.solve(&inst).unwrap();
        report.validate(&inst).unwrap();
        assert_eq!(report.makespan, Rational::from_int(7));
        assert_eq!(report.ratio_upper_bound(), Rational::ONE);
    }

    #[test]
    fn guarantee_display_and_factor() {
        assert_eq!(Guarantee::Exact.to_string(), "exact");
        assert_eq!(Guarantee::Exact.factor(), Some(Rational::ONE));
        let g = Guarantee::Factor(Rational::new(7, 3));
        assert_eq!(g.to_string(), "7/3-approximation");
        assert_eq!(g.factor(), Some(Rational::new(7, 3)));
        assert_eq!(Guarantee::Heuristic.to_string(), "heuristic");
    }

    #[test]
    fn map_schedule_keeps_numbers() {
        let report = SolveReport {
            schedule: 1u8,
            makespan: Rational::from_int(4),
            lower_bound: Rational::from_int(2),
            stats: SolveStats {
                search_iterations: 3,
                ..Default::default()
            },
        };
        let mapped = report.map_schedule(|s| s as u32 + 1);
        assert_eq!(mapped.schedule, 2);
        assert_eq!(mapped.ratio_upper_bound(), Rational::from_int(2));
        assert_eq!(mapped.stats.search_iterations, 3);
    }
}
