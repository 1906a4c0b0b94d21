//! The internal result shared by the three approximation schemes.

use ccs_core::solver::{SolveReport, SolveStats};
use ccs_core::{Instance, Rational, Schedule};

/// Output of a PTAS run before it becomes a [`SolveReport`]: the report
/// drops the accepted guess, which the in-crate tests check the guarantee
/// `makespan ≤ (1 + 8δ)·T` against.
#[derive(Debug, Clone)]
pub(crate) struct PtasResult<S> {
    /// The computed schedule (feasible for the original instance).
    pub(crate) schedule: S,
    /// The accepted makespan guess `T` (the smallest guess of the geometric
    /// search for which the configuration ILP was feasible); only the
    /// guarantee tests read it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) guess: Rational,
    /// The lower bound on the optimum used to start the search.
    pub(crate) lower_bound: Rational,
    /// Number of makespan guesses evaluated.
    pub(crate) guesses_evaluated: usize,
    /// Number of configurations enumerated for the accepted guess.
    pub(crate) configurations: usize,
}

impl<S> PtasResult<S> {
    /// Best lower bound on the optimum known to the scheme.
    pub(crate) fn optimum_lower_bound(&self) -> Rational {
        self.lower_bound
    }
}

impl<S: Schedule> PtasResult<S> {
    /// The solver report: the schedule, its makespan, the optimum lower
    /// bound and the search counters.
    pub(crate) fn into_report(self, inst: &Instance) -> SolveReport<S> {
        let lower_bound = self.optimum_lower_bound();
        let stats = SolveStats {
            guesses_evaluated: self.guesses_evaluated,
            configurations: self.configurations,
            ..Default::default()
        };
        SolveReport::new(inst, self.schedule, lower_bound, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = PtasResult {
            schedule: (),
            guess: Rational::from_int(3),
            lower_bound: Rational::from_int(2),
            guesses_evaluated: 4,
            configurations: 17,
        };
        assert_eq!(r.optimum_lower_bound(), Rational::from_int(2));
        assert_eq!(r.guesses_evaluated, 4);
    }
}
