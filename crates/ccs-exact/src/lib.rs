//! # ccs-exact — exact solvers for small CCS instances
//!
//! The paper proves approximation ratios relative to `opt(I)`.  To *measure*
//! the quality of the implemented algorithms the benchmark harness and the
//! test suites need the true optimum, which this crate computes for small
//! instances:
//!
//! * [`ExactNonPreemptive`] — branch-and-bound over job assignments
//!   (exponential time, intended for `n ≲ 20`),
//! * [`ExactSplittable`] — enumeration of the machine/class structure
//!   combined with the exact fractional load-balancing formula
//!   `max_S Σ_{u∈S} P_u / |N(S)|`, plus a max-flow witness schedule,
//! * [`ExactPreemptive`] — `max(p_max, opt_splittable)`; the preemptive
//!   optimum equals this value because a fractional assignment with machine
//!   loads and job sizes at most `T` can always be turned into a preemptive
//!   timetable of length `T` (Gonzalez–Sahni style open-shop argument),
//! * [`ExactMoldable`] — branch-and-bound over shape choices and machine
//!   subsets for the moldable extension model (tighter limits, the tree is
//!   wider than the non-preemptive one),
//! * [`bounds::strong_lower_bound`] — polynomial-time lower bounds (area,
//!   `p_max`, and the class-slot counting bound) used on instances too large
//!   for the exact solvers.
//!
//! The four solvers are reached only through their [`ccs_core::Solver`]
//! impls.  All report [`ccs_core::Guarantee::Exact`] with a lower bound equal
//! to the returned makespan, so `SolveReport::ratio_upper_bound` is exactly
//! `1`; oversized instances fail with `CcsError::InvalidParameter`, which the
//! `ccs-engine` portfolio uses to fall back to the approximations.  The
//! value-only [`splittable_optimum`] / [`splittable_optimum_ctx`] and
//! [`preemptive_optimum`] remain as test oracles: they skip the witness
//! max-flow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod moldable;
pub mod nonpreemptive;
pub mod splittable;
pub mod witness;

use ccs_core::{Instance, Rational, Result};

pub use bounds::strong_lower_bound;
pub use moldable::ExactMoldable;
pub use nonpreemptive::ExactNonPreemptive;
pub use splittable::{splittable_optimum, splittable_optimum_ctx};
pub use witness::{ExactPreemptive, ExactSplittable};

/// Exact optimal makespan of the preemptive model for small instances.
///
/// Equals `max(p_max, opt_splittable)`: the preemptive optimum is at least
/// both quantities, and a splittable solution with makespan `T ≥ p_max` can be
/// serialised into a preemptive timetable of the same length (no job has more
/// total work than `T`, no machine more load than `T`, so an open-shop style
/// decomposition exists).
pub fn preemptive_optimum(inst: &Instance) -> Result<Rational> {
    let split = splittable_optimum(inst)?;
    Ok(split.max(Rational::from(inst.p_max())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Solver;

    #[test]
    fn preemptive_at_least_pmax_and_splittable() {
        let inst = instance_from_pairs(3, 1, &[(10, 0), (2, 1), (2, 2)]).unwrap();
        let pre = preemptive_optimum(&inst).unwrap();
        let split = splittable_optimum(&inst).unwrap();
        assert!(pre >= split);
        assert!(pre >= Rational::from_int(10));
        assert_eq!(pre, Rational::from_int(10));
    }

    #[test]
    fn preemptive_dominated_by_splittable_when_jobs_small() {
        // One class of load 30 on 1 machine: splittable = preemptive = 30.
        let inst = instance_from_pairs(1, 1, &[(10, 0), (10, 0), (10, 0)]).unwrap();
        assert_eq!(preemptive_optimum(&inst).unwrap(), Rational::from_int(30));
    }

    #[test]
    fn exact_solvers_report_ratio_one() {
        let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let np = ExactNonPreemptive.solve(&inst).unwrap();
        np.validate(&inst).unwrap();
        assert_eq!(np.makespan, Rational::from_int(7));
        assert_eq!(np.ratio_upper_bound(), Rational::ONE);

        let split = ExactSplittable.solve(&inst).unwrap();
        split.validate(&inst).unwrap();
        assert_eq!(split.makespan, splittable_optimum(&inst).unwrap());

        let pre = ExactPreemptive.solve(&inst).unwrap();
        pre.validate(&inst).unwrap();
        assert_eq!(pre.makespan, preemptive_optimum(&inst).unwrap());

        let moldable = ExactMoldable.solve(&inst).unwrap();
        moldable.validate(&inst).unwrap();
        assert_eq!(moldable.makespan, np.makespan); // unshaped: same model
        assert_eq!(moldable.ratio_upper_bound(), Rational::ONE);
    }

    #[test]
    fn oversized_instances_error() {
        let jobs: Vec<(u64, u32)> = (0..30).map(|i| (1, i % 3)).collect();
        let inst = instance_from_pairs(2, 3, &jobs).unwrap();
        assert!(ExactNonPreemptive.solve(&inst).is_err());
        assert!(ExactMoldable.solve(&inst).is_err());
    }
}
