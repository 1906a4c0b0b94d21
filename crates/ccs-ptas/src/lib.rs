//! # ccs-ptas — polynomial time approximation schemes for CCS
//!
//! Implementation of Section 4 of "Approximation Algorithms for Scheduling
//! with Class Constraints" (Jansen, Lassota, Maack; SPAA 2020): for every
//! placement model a `(1 + O(δ))`-approximation obtained by
//!
//! 1. guessing the makespan `T` (geometric binary search),
//! 2. simplifying the instance so that every class is either *small* (one job
//!    of size ≤ δT) or *large* (every job > δT) and rounding processing times
//!    to multiples of `δ²T` (Section 4 preprocessing),
//! 3. deciding whether a *well-structured* schedule with makespan
//!    `T̄ = (1+O(δ))T` exists via the configuration integer program of the
//!    paper (modules / configurations / small-class groups), and
//! 4. turning the certificate back into an actual schedule (greedy slot
//!    filling plus round robin for the small classes).
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
//! depth-first-search solver with interval propagation ([`ilp`]).  The
//! faithful N-fold can still be materialised via [`nfold_build`] and is
//! cross-checked in tests: every certificate found by the aggregated solver is
//! converted into a feasible solution of the paper's N-fold.
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

/// The constructors shared by the three scheme solvers.
macro_rules! ptas_common {
    ($ty:ident) => {
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
                Self::new(PtasParams { delta_inv: 4 })
            }
        }
    };
}

pub mod config;
mod grid;
pub mod ilp;
pub mod nfold_build;
pub mod nonpreemptive;
pub mod params;
pub mod preemptive;
mod result;
pub mod scale;
pub mod splittable;

pub use nonpreemptive::NonpreemptivePtas;
pub use params::PtasParams;
pub use preemptive::PreemptivePtas;
pub use splittable::SplittablePtas;

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

    #[test]
    fn default_accuracy_is_valid() {
        assert_eq!(SplittablePtas::default().params().delta_inv(), 4);
        assert_eq!(PreemptivePtas::default().params().delta_inv(), 4);
        assert_eq!(NonpreemptivePtas::default().params().delta_inv(), 4);
    }
}
