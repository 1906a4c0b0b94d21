//! # ccs-bench — the workspace's measurement subsystem
//!
//! The bench targets and the `experiments` binary reproduce every
//! table/figure-equivalent artefact of the paper (see `DESIGN.md`, section
//! 5) *and* feed the perf-regression gate in CI.  This library provides:
//!
//! * [`harness`] — the shared timing loop, quality capture and the
//!   `--json/--check/--quick` CLI surface ([`Harness`], [`BenchOpts`]),
//! * [`report`] — the JSON artifact schema ([`BenchReport`], [`BenchCase`]),
//! * [`baseline`] — the comparator that diffs a run against the committed
//!   `BENCH_baseline.json` and flags time/quality regressions,
//! * [`soak`] — the trace-driven macro replay (`soak` bin): a
//!   `ccs_gen::trace` request stream through the whole service stack,
//!   in-process and over TCP, with latency-percentile/throughput cases,
//! * [`Family`] — the workload families every experiment sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod harness;
pub mod report;
pub mod soak;

pub use baseline::{compare, CompareConfig, Comparison, Verdict};
pub use harness::{finish_report, render_solver_list, BenchOpts, Harness};
pub use report::{BenchCase, BenchReport};

use ccs_core::{Instance, Rational, Schedule, ScheduleKind};
use ccs_gen::GenParams;

/// The standard workload families exercised by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Uniform processing times and classes.
    Uniform,
    /// Zipf-distributed class popularity.
    Zipf,
    /// Data-placement scenario (paper introduction).
    DataPlacement,
    /// Video-on-demand scenario.
    VideoOnDemand,
    /// Class-correlated processing times (a class fixes a base duration).
    Correlated,
    /// Far more machines than jobs, only a handful of classes.
    ManyMachines,
}

impl Family {
    /// All families.
    pub const ALL: [Family; 6] = [
        Family::Uniform,
        Family::Zipf,
        Family::DataPlacement,
        Family::VideoOnDemand,
        Family::Correlated,
        Family::ManyMachines,
    ];

    /// Human readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Uniform => "uniform",
            Family::Zipf => "zipf",
            Family::DataPlacement => "data-placement",
            Family::VideoOnDemand => "video-on-demand",
            Family::Correlated => "correlated",
            Family::ManyMachines => "many-machines",
        }
    }

    /// Generates an instance of this family.
    pub fn instance(
        &self,
        jobs: usize,
        machines: u64,
        classes: u32,
        slots: u64,
        seed: u64,
    ) -> Instance {
        let params = GenParams::new(jobs, machines, classes, slots);
        match self {
            Family::Uniform => ccs_gen::uniform(&params, seed),
            Family::Zipf => ccs_gen::zipf_classes(&params, seed),
            Family::DataPlacement => ccs_gen::data_placement(&params, seed),
            Family::VideoOnDemand => ccs_gen::video_on_demand(&params, seed),
            Family::Correlated => ccs_gen::correlated(&params, seed),
            Family::ManyMachines => ccs_gen::many_machines(&params, seed),
        }
    }
}

/// The measured quality of a schedule: makespan divided by the best known
/// lower bound on the optimum (an upper bound on the true approximation
/// ratio).
pub fn ratio_vs_lower_bound<S: Schedule>(inst: &Instance, schedule: &S, kind: ScheduleKind) -> f64 {
    let lb = ccs_exact::strong_lower_bound(inst, kind).max(Rational::ONE);
    (schedule.makespan(inst) / lb).to_f64()
}

/// A standard size sweep used by the running-time experiments.
pub const SIZE_SWEEP: [usize; 4] = [50, 100, 200, 400];

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::Solver;

    #[test]
    fn families_generate_feasible_instances() {
        for family in Family::ALL {
            let inst = family.instance(40, 5, 10, 3, 7);
            assert!(inst.is_feasible(), "{}", family.name());
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<_> = Family::ALL.iter().map(Family::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }

    #[test]
    fn ratio_helper_at_least_one() {
        let inst = Family::Uniform.instance(30, 4, 8, 2, 1);
        let res = ccs_approx::SplittableTwoApprox.solve(&inst).unwrap();
        let ratio = ratio_vs_lower_bound(&inst, &res.schedule, ScheduleKind::Splittable);
        assert!((1.0..=2.0001).contains(&ratio));
    }
}
