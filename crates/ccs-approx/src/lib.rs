//! # ccs-approx — constant-factor approximation algorithms for CCS
//!
//! Implementation of Section 3 of "Approximation Algorithms for Scheduling
//! with Class Constraints" (Jansen, Lassota, Maack; SPAA 2020):
//!
//! * [`SplittableTwoApprox`] — Algorithm 1, a 2-approximation
//!   for the splittable case in `O(n² log n)` (Theorem 4), including the
//!   compact output encoding that keeps the running time and output length
//!   polynomial in `n` when the number of machines is exponential.
//! * [`PreemptiveTwoApprox`] — Algorithm 1 + the repacking of
//!   Algorithm 2, a 2-approximation for the preemptive case (Theorem 5).
//! * [`Nonpreemptive73Approx`] — the 7/3-approximation for
//!   the non-preemptive case based on the refined class-slot lower bound
//!   `C_u = max(C¹_u, C²_u)` and LPT as a subroutine (Theorem 6).
//!
//! Each algorithm is reached only through its [`ccs_core::Solver`] impl,
//! which returns a [`ccs_core::SolveReport`]: the lower bound there is the
//! maximum of the model's lower bound and the accepted guess `T*`.
//!
//! Shared building blocks, each exposed on its own because they are reused by
//! the PTASs and by the benchmark harness:
//!
//! * [`border_search`] — the "advanced binary search" over the borders
//!   `P_u / k` (Lemma 2),
//! * [`chunking`] — splitting classes with `P_u > T` into sub-classes of load
//!   at most `T`,
//! * [`round_robin`] — the round-robin distribution and the load bound of
//!   Lemma 3,
//! * [`lpt`] — longest-processing-time-first list scheduling onto a fixed
//!   number of groups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod border_search;
pub mod chunking;
pub mod lpt;
pub mod nonpreemptive;
pub mod preemptive;
mod result;
pub mod round_robin;
pub mod splittable;

pub use nonpreemptive::Nonpreemptive73Approx;
pub use preemptive::PreemptiveTwoApprox;
pub use splittable::SplittableTwoApprox;

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::{Instance, Schedule, Solver};

    fn sample() -> Instance {
        instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 1), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap()
    }

    #[test]
    fn all_three_respect_their_guarantees() {
        let inst = sample();
        fn check(inst: &Instance, solver: &impl Solver) {
            let report = solver.solve(inst).unwrap();
            report.validate(inst).unwrap();
            let factor = solver.guarantee().factor().unwrap();
            assert!(report.makespan <= factor * report.lower_bound);
            assert!(solver.kind() == report.schedule.kind());
        }
        check(&inst, &SplittableTwoApprox);
        check(&inst, &PreemptiveTwoApprox);
        check(&inst, &Nonpreemptive73Approx);
    }
}
