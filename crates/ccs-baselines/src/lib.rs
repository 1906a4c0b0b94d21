//! # ccs-baselines — heuristics a practitioner would try first
//!
//! The paper has no published comparator implementation, so the benchmark
//! harness compares the algorithms of `ccs-approx` / `ccs-ptas` against the
//! simple heuristics below (all non-preemptive; a non-preemptive schedule is
//! feasible for every placement model):
//!
//! * [`WholeClassRoundRobin`] — distribute whole classes round robin by
//!   non-ascending load (no splitting at all),
//! * [`WholeClassLpt`] — whole classes via LPT (least-loaded machine with a
//!   free class slot),
//! * [`GreedyFirstFit`] — job-by-job greedy: longest job first onto the
//!   least-loaded machine that still has a slot for its class.
//!
//! All three can be arbitrarily bad compared to the optimum (a single huge
//! class is never split), which is exactly the gap the paper's algorithms
//! close; the benches make this visible.
//!
//! The moldable extension model ships its practitioner heuristic here too:
//! [`MoldableList`], a shape-selecting list scheduler (longest job first;
//! per job, the shape/machine-set pair minimising the completion estimate).
//!
//! Each heuristic is reached only through its [`Solver`] impl.  None carries
//! a worst-case guarantee ([`Guarantee::Heuristic`]); their reports use the
//! generic model lower bound of `ccs-core` so quality ratios remain
//! comparable with the paper's algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod moldable;

pub use moldable::MoldableList;

use ccs_core::solver::{Guarantee, SolveReport, SolveStats, Solver};
use ccs_core::{
    bounds, CcsError, Instance, NonPreemptiveSchedule, Result, Schedule, ScheduleKind, SolveContext,
};
use std::collections::BTreeSet;

/// Distributes whole classes over the machines via round robin in
/// non-ascending load order.
#[derive(Debug, Clone, Copy, Default)]
pub struct WholeClassRoundRobin;

impl Solver for WholeClassRoundRobin {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "baseline-round-robin"
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
        check_feasible(inst)?;
        let m = inst.machines();
        let mut classes: Vec<usize> = (0..inst.num_classes()).collect();
        classes.sort_by_key(|&u| std::cmp::Reverse(inst.class_load(u)));

        let mut assignment = vec![0u64; inst.num_jobs()];
        for (pos, &class) in classes.iter().enumerate() {
            let machine = (pos as u64) % m;
            for &job in inst.jobs_of_class(class) {
                assignment[job] = machine;
            }
        }
        finish(inst, assignment)
    }
}

/// Distributes whole classes via LPT: classes in non-ascending load order,
/// each onto the least-loaded machine that still has a free class slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct WholeClassLpt;

impl Solver for WholeClassLpt {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "baseline-lpt"
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
        check_feasible(inst)?;
        let m = inst.machines().min(inst.num_classes() as u64) as usize;
        let slots = inst.class_slots() as usize;
        let mut classes: Vec<usize> = (0..inst.num_classes()).collect();
        classes.sort_by_key(|&u| std::cmp::Reverse(inst.class_load(u)));

        let mut loads = vec![0u64; m];
        let mut used_slots = vec![0usize; m];
        let mut assignment = vec![0u64; inst.num_jobs()];
        for &class in &classes {
            let machine = (0..m)
                .filter(|&i| used_slots[i] < slots)
                .min_by_key(|&i| loads[i])
                .ok_or_else(|| CcsError::internal("slot budget exhausted despite feasibility"))?;
            loads[machine] += inst.class_load(class);
            used_slots[machine] += 1;
            for &job in inst.jobs_of_class(class) {
                assignment[job] = machine as u64;
            }
        }
        finish(inst, assignment)
    }
}

/// Job-by-job greedy: jobs in non-ascending processing time order, each onto
/// the least-loaded machine that already hosts its class or still has a free
/// class slot.
///
/// The job-level greedy can paint itself into a corner on feasible instances
/// (all class slots taken by other classes before a class places its first
/// job); in that case the [`WholeClassLpt`] schedule is returned instead, so
/// the baseline is total on every feasible instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyFirstFit;

impl Solver for GreedyFirstFit {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "baseline-greedy"
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
        check_feasible(inst)?;
        match greedy_first_fit_strict(inst) {
            Some(assignment) => finish(inst, assignment),
            None => WholeClassLpt.solve_ctx(inst, ctx),
        }
    }
}

fn greedy_first_fit_strict(inst: &Instance) -> Option<Vec<u64>> {
    let m = inst.machines().min(inst.num_jobs() as u64) as usize;
    let slots = inst.class_slots() as usize;
    let mut order: Vec<usize> = (0..inst.num_jobs()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(inst.processing_time(j)));

    let mut loads = vec![0u64; m];
    let mut classes: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
    let mut assignment = vec![0u64; inst.num_jobs()];
    for &job in &order {
        let class = inst.class_of(job);
        let machine = (0..m)
            .filter(|&i| classes[i].contains(&class) || classes[i].len() < slots)
            .min_by_key(|&i| loads[i])?;
        loads[machine] += inst.processing_time(job);
        classes[machine].insert(class);
        assignment[job] = machine as u64;
    }
    Some(assignment)
}

fn check_feasible(inst: &Instance) -> Result<()> {
    if inst.is_feasible() {
        Ok(())
    } else {
        Err(CcsError::infeasible("more classes than class slots"))
    }
}

/// Validates the assignment and reports it against the generic
/// non-preemptive lower bound.
fn finish(inst: &Instance, assignment: Vec<u64>) -> Result<SolveReport<NonPreemptiveSchedule>> {
    let schedule = NonPreemptiveSchedule::new(assignment);
    schedule.validate(inst)?;
    let lower_bound = bounds::lower_bound(inst, ScheduleKind::NonPreemptive);
    Ok(SolveReport::new(
        inst,
        schedule,
        lower_bound,
        SolveStats::default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Rational;

    fn round_robin(inst: &Instance) -> Result<NonPreemptiveSchedule> {
        Ok(WholeClassRoundRobin.solve(inst)?.schedule)
    }

    fn lpt(inst: &Instance) -> Result<NonPreemptiveSchedule> {
        Ok(WholeClassLpt.solve(inst)?.schedule)
    }

    fn greedy(inst: &Instance) -> Result<NonPreemptiveSchedule> {
        Ok(GreedyFirstFit.solve(inst)?.schedule)
    }

    fn sample() -> Instance {
        instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 1), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap()
    }

    #[test]
    fn all_baselines_produce_feasible_schedules() {
        let inst = sample();
        for schedule in [
            round_robin(&inst).unwrap(),
            lpt(&inst).unwrap(),
            greedy(&inst).unwrap(),
        ] {
            schedule.validate(&inst).unwrap();
            assert!(schedule.makespan(&inst) >= inst.average_load());
        }
    }

    #[test]
    fn lpt_never_worse_than_round_robin_on_sample() {
        let inst = sample();
        let rr = round_robin(&inst).unwrap().makespan_int(&inst);
        let lpt = lpt(&inst).unwrap().makespan_int(&inst);
        assert!(lpt <= rr);
    }

    #[test]
    fn baselines_cannot_split_a_huge_class() {
        // One class dominating the load: every baseline keeps it on a single
        // machine, makespan ~ P_0 even though many machines are idle.
        let inst =
            instance_from_pairs(4, 2, &[(25, 0), (25, 0), (25, 0), (25, 0), (1, 1)]).unwrap();
        for schedule in [round_robin(&inst).unwrap(), lpt(&inst).unwrap()] {
            assert_eq!(schedule.makespan_int(&inst), 100);
        }
        // The job-level greedy is allowed to split the class across machines.
        let greedy = greedy(&inst).unwrap();
        assert!(greedy.makespan_int(&inst) <= 100);
    }

    #[test]
    fn infeasible_instances_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(round_robin(&inst).is_err());
        assert!(lpt(&inst).is_err());
        assert!(greedy(&inst).is_err());
    }

    #[test]
    fn single_class_single_machine() {
        let inst = instance_from_pairs(1, 1, &[(2, 0), (3, 0)]).unwrap();
        assert_eq!(lpt(&inst).unwrap().makespan_int(&inst), 5);
        assert_eq!(greedy(&inst).unwrap().makespan_int(&inst), 5);
        assert_eq!(
            round_robin(&inst).unwrap().makespan(&inst),
            Rational::from_int(5)
        );
    }

    #[test]
    fn baseline_solvers_produce_valid_reports() {
        let inst = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2), (4, 3)]).unwrap();
        fn check(inst: &Instance, solver: &impl Solver<Schedule = NonPreemptiveSchedule>) {
            let report = solver.solve(inst).unwrap();
            report.validate(inst).unwrap();
            assert_eq!(report.schedule.kind(), ScheduleKind::NonPreemptive);
            assert!(report.makespan >= report.lower_bound);
            assert_eq!(solver.guarantee().factor(), None);
        }
        check(&inst, &WholeClassRoundRobin);
        check(&inst, &WholeClassLpt);
        check(&inst, &GreedyFirstFit);
    }

    #[test]
    fn infeasible_instances_error_through_the_trait() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(WholeClassLpt.solve(&inst).is_err());
        assert!(MoldableList.solve(&inst).is_err());
    }

    #[test]
    fn moldable_solver_produces_valid_reports() {
        use ccs_core::instance::InstanceBuilder;
        let inst = InstanceBuilder::new(3, 2)
            .job_shaped(9, 0, &[(1, 9), (3, 4)])
            .job(5, 1)
            .job(4, 1)
            .build()
            .unwrap();
        let report = MoldableList.solve(&inst).unwrap();
        report.validate(&inst).unwrap();
        assert_eq!(report.schedule.kind(), ScheduleKind::Moldable);
        assert!(report.makespan >= report.lower_bound);
        assert_eq!(MoldableList.guarantee().factor(), None);
    }
}
