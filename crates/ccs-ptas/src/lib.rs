//! # ccs-ptas — polynomial time approximation schemes for CCS
//!
//! Implementation of Section 4 of "Approximation Algorithms for Scheduling
//! with Class Constraints" (Jansen, Lassota, Maack; SPAA 2020): for every
//! placement model a `(1 + O(δ))`-approximation.  The three schemes run one
//! pipeline and differ only where the paper's models do:
//!
//! 1. **Guess** the makespan `T` on the grid `lb·(1+δ)^k` between the
//!    constant-factor algorithm's lower bound and makespan, searched for the
//!    smallest accepted guess (`grid`).  When the constant-factor makespan
//!    already meets the lower bound, its schedule is optimal and no guess is
//!    evaluated.
//! 2. **Simplify** the instance so that every class is either *small* (one
//!    job of size ≤ δT) or *large* (every job > δT) and round processing
//!    times to multiples of `δ²T` (Section 4 preprocessing, `scale`).
//! 3. **Decide** whether a *well-structured* schedule with makespan
//!    `T̄ = (1+O(δ))T` exists via the configuration integer program (0)–(5)
//!    of the paper (`config_ilp`).  What a module is, and constraint (4),
//!    are the only model-specific parts: one module size per column in the
//!    splittable and preemptive cases, one multiset of rounded job sizes in
//!    the non-preemptive case.
//! 4. **Unfold** the certificate into a schedule: machines from the
//!    configuration counts, modules into open slots, and the small classes
//!    round robin within their group.  The preemptive scheme serialises the
//!    splittable schedule with an open-shop timetable; the non-preemptive one
//!    dissolves modules into jobs.
//!
//! ## Solving the configuration ILP
//!
//! The paper solves the configuration ILP through its N-fold structure
//! (Theorem 1).  The parameter-dependent factor of that algorithm,
//! `(rsΔ)^{O(r²s+s²)}`, is astronomically large, so running it literally is
//! not possible; this crate instead solves the *aggregated* configuration ILP
//! (the per-class duplication of configuration variables in the paper exists
//! only to obtain the N-fold shape and carries no information — see Lemma 9,
//! which sets all duplicates except one to zero) with an exact
//! depth-first-search solver with interval propagation (`ilp`).  That
//! search is incremental — a node re-examines only the constraints that
//! hold a tightened variable and undoes its bound changes from a trail — and
//! its tests compare it with the full-sweep search it replaced, node for
//! node.  The crate's tests also build the faithful splittable N-fold of the
//! paper and check that the certificates of accepted guesses map to feasible
//! points of it.
//!
//! The running time therefore remains exponential in `1/δ` (as any PTAS must
//! be) and practical only for coarse `δ`; the benchmark harness documents the
//! measured growth.
//!
//! Each scheme is reached only through its [`ccs_core::Solver`] impl
//! ([`SplittablePtas`], [`PreemptivePtas`], [`NonpreemptivePtas`]), which is
//! parameterised by [`PtasParams`] at construction time, so a registry can
//! hold several accuracy levels of the same scheme side by side while the
//! engine constructs bespoke instances for explicit `epsilon` requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The solver surface the three schemes share: constructors, the default
/// accuracy, and the [`ccs_core::Solver`] impl, which runs the scheme
/// module's own `run` at the solver's accuracy.
macro_rules! ptas_solver {
    ($ty:ident, $schedule:ty, $name:literal, $kind:ident) => {
        impl $ty {
            /// Creates the solver with the given accuracy parameters.
            pub fn new(params: PtasParams) -> Self {
                Self { params }
            }

            /// The accuracy parameters this solver runs with.
            pub fn params(&self) -> PtasParams {
                self.params
            }
        }

        impl Default for $ty {
            /// Defaults to `1/δ = 4`, a coarse but fast accuracy level.
            fn default() -> Self {
                Self::new(PtasParams::with_delta_inv(4).expect("1/δ = 4 is valid"))
            }
        }

        impl ccs_core::Solver for $ty {
            type Schedule = $schedule;

            fn name(&self) -> &'static str {
                $name
            }

            fn kind(&self) -> ccs_core::ScheduleKind {
                ccs_core::ScheduleKind::$kind
            }

            fn guarantee(&self) -> ccs_core::Guarantee {
                self.params.guarantee()
            }

            fn cost(&self) -> ccs_core::SolverCost {
                ccs_core::SolverCost::AccuracyExponential
            }

            fn solve_ctx(
                &self,
                inst: &ccs_core::Instance,
                ctx: &ccs_core::SolveContext,
            ) -> ccs_core::Result<ccs_core::SolveReport<$schedule>> {
                Ok(run(inst, self.params, ctx)?.into_report(inst))
            }
        }
    };
}

mod config;
mod config_ilp;
mod grid;
mod ilp;
mod nonpreemptive;
mod params;
mod preemptive;
mod result;
mod scale;
mod splittable;

pub use nonpreemptive::NonpreemptivePtas;
pub use params::PtasParams;
pub use preemptive::PreemptivePtas;
pub use splittable::SplittablePtas;

#[cfg(test)]
mod nfold_build;

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::{Rational, Solver};

    #[test]
    fn guarantee_factor_matches_params() {
        let solver = SplittablePtas::new(PtasParams::with_delta_inv(4).unwrap());
        assert_eq!(
            solver.guarantee().factor(),
            Some(Rational::from_int(3)) // 1 + 8/4
        );
        assert_eq!(solver.params().delta_inv(), 4);
        // A coarse scheme still returns a valid schedule through the trait.
        let inst = instance_from_pairs(2, 1, &[(6, 0), (4, 1), (2, 0)]).unwrap();
        let params = PtasParams::with_delta_inv(2).unwrap();
        let report = SplittablePtas::new(params).solve(&inst).unwrap();
        report.validate(&inst).unwrap();
    }

    /// When the constant-factor makespan meets the scheme's lower bound the
    /// guess grid is the single point `lb`: the constant-factor schedule is
    /// optimal and comes back untouched, with no guess evaluated.
    #[test]
    fn one_point_grids_return_the_constant_factor_schedule() {
        let params = PtasParams::with_delta_inv(2).unwrap();
        let split = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let warm = ccs_approx::SplittableTwoApprox.solve(&split).unwrap();
        let report = SplittablePtas::new(params).solve(&split).unwrap();
        assert_eq!(warm.makespan, warm.lower_bound);
        assert_eq!(report.schedule, warm.schedule);
        assert_eq!(report.makespan, warm.makespan);
        assert_eq!(report.lower_bound, warm.lower_bound);
        assert_eq!(
            (report.stats.guesses_evaluated, report.stats.configurations),
            (0, 0)
        );

        let pre = instance_from_pairs(2, 1, &[(6, 0), (3, 1), (5, 0)]).unwrap();
        let warm = ccs_approx::PreemptiveTwoApprox.solve(&pre).unwrap();
        let report = PreemptivePtas::new(params).solve(&pre).unwrap();
        assert_eq!(report.schedule, warm.schedule);
        assert_eq!(report.makespan, Rational::from_int(11)); // class 0 alone on a machine
        assert_eq!(report.lower_bound, report.makespan);
        assert_eq!(
            (report.stats.guesses_evaluated, report.stats.configurations),
            (0, 0)
        );

        let jobs = [(2, 1), (16, 0), (11, 1), (25, 0), (27, 1), (1, 1)];
        let np = instance_from_pairs(3, 1, &jobs).unwrap();
        let warm = ccs_approx::Nonpreemptive73Approx.solve(&np).unwrap();
        let report = NonpreemptivePtas::new(params).solve(&np).unwrap();
        assert_eq!(report.schedule, warm.schedule);
        assert_eq!(report.makespan, Rational::from_int(41)); // a class of load 41 alone
        assert_eq!(report.lower_bound, report.makespan);
        assert_eq!(
            (report.stats.guesses_evaluated, report.stats.configurations),
            (0, 0)
        );
    }

    #[test]
    fn default_accuracy_is_valid() {
        assert_eq!(SplittablePtas::default().params().delta_inv(), 4);
        assert_eq!(PreemptivePtas::default().params().delta_inv(), 4);
        assert_eq!(NonpreemptivePtas::default().params().delta_inv(), 4);
    }
}
