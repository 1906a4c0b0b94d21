//! The internal result of the constant-factor algorithms.

use ccs_core::solver::{SolveReport, SolveStats};
use ccs_core::{Instance, Rational, Schedule};

/// The output of an approximation algorithm before it becomes a
/// [`SolveReport`]: the schedule plus the accepted guess, which the report
/// folds into its lower bound but the in-crate tests of Lemma 3
/// (`makespan ≤ LB + T*`) need on its own.
#[derive(Debug, Clone)]
pub(crate) struct ApproxResult<S> {
    /// The computed schedule (already feasible; all algorithms in this crate
    /// only ever return schedules that pass the validators of `ccs-core`).
    pub(crate) schedule: S,
    /// The makespan guess `T*` accepted by the algorithm.  The constant-factor
    /// algorithms guarantee `T* ≤ opt(I)`.
    pub(crate) guess: Rational,
    /// The lower bound `LB` on the optimal makespan used by the algorithm.
    pub(crate) lower_bound: Rational,
    /// Number of feasibility checks performed by the (advanced) binary search;
    /// Lemma 2 bounds this by `O(C log m)`.
    pub(crate) search_iterations: usize,
}

impl<S: Schedule> ApproxResult<S> {
    /// The best provable lower bound on the optimum known to the algorithm:
    /// the maximum of the explicit lower bound and the accepted guess.
    pub(crate) fn optimum_lower_bound(&self) -> Rational {
        self.lower_bound.max(self.guess)
    }

    /// The solver report: the schedule, its makespan, the optimum lower
    /// bound and the search iterations.
    pub(crate) fn into_report(self, inst: &Instance) -> SolveReport<S> {
        let lower_bound = self.optimum_lower_bound();
        let stats = SolveStats {
            search_iterations: self.search_iterations,
            ..Default::default()
        };
        SolveReport::new(inst, self.schedule, lower_bound, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::NonPreemptiveSchedule;

    #[test]
    fn into_report_keeps_stats() {
        let inst = instance_from_pairs(2, 1, &[(3, 0), (4, 1)]).unwrap();
        let schedule = NonPreemptiveSchedule::new(vec![0, 1]);
        let r = ApproxResult {
            schedule: schedule.clone(),
            guess: Rational::from_int(3),
            lower_bound: Rational::from_int(2),
            search_iterations: 7,
        };
        assert_eq!(r.optimum_lower_bound(), Rational::from_int(3));
        let report = r.into_report(&inst);
        assert_eq!(report.schedule, schedule);
        assert_eq!(report.makespan, Rational::from_int(4));
        assert_eq!(report.lower_bound, Rational::from_int(3));
        assert_eq!(report.stats.search_iterations, 7);
    }
}
