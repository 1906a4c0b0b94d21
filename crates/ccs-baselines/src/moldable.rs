//! A shape-selecting list scheduler for the moldable extension model.
//!
//! Moldable jobs offer a menu of `(machines, time)` shapes (see
//! `Instance::shape_menu`); the scheduler must pick one shape per job *and*
//! place its pieces.  [`MoldableList`] is the natural practitioner
//! heuristic: jobs in non-ascending sequential-time order, and for each job
//! the `(shape, machine set)` pair minimising the estimated completion time
//! `max-load-of-chosen-machines + time`, subject to the class-slot
//! constraint.  Ties prefer narrower shapes (fewer machines occupied).
//!
//! Like the non-preemptive baselines it carries no worst-case guarantee, but
//! it is total on every feasible instance: when the greedy corners itself
//! (all slots of the effective machine park taken by other classes before a
//! class places its first job) it falls back to a whole-class LPT assignment
//! with every job in its fastest sequential shape, which is always feasible.
//!
//! Instances may declare an astronomical machine count, so the scheduler
//! never allocates `O(m)` state: it works on an *effective* machine park of
//! `min(m, Σ_j min(max-width_j, WIDTH_CAP))` machines — extra machines can
//! never lower the makespan of a list schedule beyond what the widest useful
//! shapes occupy — and skips shapes wider than [`WIDTH_CAP`] (a sequential
//! alternative always exists, so nothing becomes unschedulable).

use ccs_core::solver::{Guarantee, SolveReport, SolveStats, Solver};
use ccs_core::{
    bounds, CcsError, Instance, MoldableSchedule, Result, Schedule, ScheduleKind, SolveContext,
};
use std::collections::BTreeSet;

/// Shapes wider than this many machines are ignored by the heuristic; the
/// mandatory sequential alternative keeps every job schedulable.
pub const WIDTH_CAP: u64 = 32;

/// The shape-selecting list scheduler; see the module docs.
///
/// Fails with [`CcsError::Infeasible`] when the instance has more classes
/// than class slots (no schedule exists in any model).
#[derive(Debug, Clone, Copy, Default)]
pub struct MoldableList;

impl Solver for MoldableList {
    type Schedule = MoldableSchedule;

    fn name(&self) -> &'static str {
        "moldable-list"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Moldable
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Heuristic
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<MoldableSchedule>> {
        ctx.checkpoint()?;
        crate::check_feasible(inst)?;
        let schedule = list_schedule(inst)?;
        let lower_bound = bounds::lower_bound(inst, ScheduleKind::Moldable);
        Ok(SolveReport::new(
            inst,
            schedule,
            lower_bound,
            SolveStats::default(),
        ))
    }
}

/// The list schedule of a feasible instance.
fn list_schedule(inst: &Instance) -> Result<MoldableSchedule> {
    let slots = inst.class_slots();
    // Effective machine park: enough machines for every class to get a slot,
    // and for the capped widest shape of every job to run simultaneously.
    let needed = (inst.num_classes() as u64).div_ceil(slots.max(1));
    let width_sum: u64 = (0..inst.num_jobs())
        .map(|job| {
            inst.shape_menu(job)
                .iter()
                .map(|&(k, _)| k)
                .max()
                .unwrap_or(1)
                .min(WIDTH_CAP)
        })
        .fold(0u64, u64::saturating_add);
    let m_eff = inst.machines().min(needed.max(width_sum)).max(1) as usize;

    let mut order: Vec<usize> = (0..inst.num_jobs()).collect();
    order.sort_by_key(|&job| std::cmp::Reverse(fastest_sequential(inst, job).1));

    let mut loads = vec![0u64; m_eff];
    let mut classes: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m_eff];
    let mut choices: Vec<Option<(usize, Vec<u64>)>> = vec![None; inst.num_jobs()];
    for &job in &order {
        let class = inst.class_of(job);
        let menu = inst.shape_menu(job);
        // Machines this job may touch, cheapest first.
        let mut eligible: Vec<usize> = (0..m_eff)
            .filter(|&i| classes[i].contains(&class) || (classes[i].len() as u64) < slots)
            .collect();
        eligible.sort_by_key(|&i| loads[i]);
        // (completion estimate, width, shape index): minimise completion,
        // break ties towards narrower shapes.
        let mut best: Option<(u64, u64, usize)> = None;
        for (idx, &(width, time)) in menu.iter().enumerate() {
            if width > WIDTH_CAP || width > eligible.len() as u64 {
                continue;
            }
            let tallest = eligible[width as usize - 1];
            let candidate = (loads[tallest].saturating_add(time), width, idx);
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
            }
        }
        let Some((_, width, shape)) = best else {
            // Cornered: no eligible machine at all. Fall back wholesale.
            return sequential_fallback(inst);
        };
        let time = menu[shape].1;
        let chosen = &eligible[..width as usize];
        for &machine in chosen {
            loads[machine] = loads[machine].saturating_add(time);
            classes[machine].insert(class);
        }
        choices[job] = Some((shape, chosen.iter().map(|&i| i as u64).collect()));
    }

    finish(
        inst,
        choices
            .into_iter()
            .map(|c| c.expect("every job was placed"))
            .collect(),
    )
}

/// `(menu index, time)` of the job's fastest sequential shape.  Every menu
/// carries one by construction (undeclared menus default to `(1, p_j)`).
fn fastest_sequential(inst: &Instance, job: usize) -> (usize, u64) {
    inst.shape_menu(job)
        .iter()
        .enumerate()
        .filter(|&(_, &(k, _))| k == 1)
        .map(|(i, &(_, t))| (i, t))
        .min_by_key(|&(_, t)| t)
        .expect("every shape menu carries a sequential alternative")
}

/// Whole-class LPT with every job in its fastest sequential shape: the
/// moldable analogue of [`crate::WholeClassLpt`], always feasible.
fn sequential_fallback(inst: &Instance) -> Result<MoldableSchedule> {
    let slots = inst.class_slots() as usize;
    let m = inst.machines().min(inst.num_classes().max(1) as u64).max(1) as usize;
    let mut class_order: Vec<usize> = (0..inst.num_classes()).collect();
    class_order.sort_by_key(|&u| std::cmp::Reverse(inst.class_load(u)));

    let mut loads = vec![0u64; m];
    let mut used_slots = vec![0usize; m];
    let mut choices = vec![(0usize, Vec::new()); inst.num_jobs()];
    for &class in &class_order {
        let machine = (0..m)
            .filter(|&i| used_slots[i] < slots)
            .min_by_key(|&i| loads[i])
            .ok_or_else(|| CcsError::internal("slot budget exhausted despite feasibility"))?;
        used_slots[machine] += 1;
        for &job in inst.jobs_of_class(class) {
            let (shape, time) = fastest_sequential(inst, job);
            loads[machine] = loads[machine].saturating_add(time);
            choices[job] = (shape, vec![machine as u64]);
        }
    }
    finish(inst, choices)
}

fn finish(inst: &Instance, choices: Vec<(usize, Vec<u64>)>) -> Result<MoldableSchedule> {
    let mut schedule = MoldableSchedule::new();
    for (shape, machines) in choices {
        schedule.push_choice(shape, machines);
    }
    schedule.validate(inst)?;
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::{instance_from_pairs, InstanceBuilder};
    use ccs_core::Rational;

    fn list_solve(inst: &Instance) -> Result<MoldableSchedule> {
        Ok(MoldableList.solve(inst)?.schedule)
    }

    #[test]
    fn wide_shapes_beat_the_sequential_schedule() {
        // One job with a menu: 3 machines in 2 time units beats 1 machine in 9.
        let inst = InstanceBuilder::new(3, 1)
            .job_shaped(9, 0, &[(1, 9), (3, 2)])
            .build()
            .unwrap();
        let s = list_solve(&inst).unwrap();
        s.validate(&inst).unwrap();
        assert_eq!(s.makespan(&inst), Rational::from(2u64));
        assert_eq!(s.choices()[0].1.len(), 3);
    }

    #[test]
    fn unshaped_instances_behave_like_a_sequential_list_schedule() {
        let inst = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 1), (4, 2)]).unwrap();
        let s = list_solve(&inst).unwrap();
        s.validate(&inst).unwrap();
        let lb = bounds::lower_bound(&inst, ScheduleKind::Moldable);
        assert!(s.makespan(&inst) >= lb);
        // Every choice is the (only) sequential default shape.
        for (shape, machines) in s.choices() {
            assert_eq!(*shape, 0);
            assert_eq!(machines.len(), 1);
        }
    }

    #[test]
    fn respects_class_slots() {
        // 2 machines, 1 slot each, 2 classes: the classes must separate even
        // though the wide shape looks attractive.
        let inst = InstanceBuilder::new(2, 1)
            .job_shaped(6, 0, &[(1, 6), (2, 4)])
            .job(5, 1)
            .build()
            .unwrap();
        let s = list_solve(&inst).unwrap();
        s.validate(&inst).unwrap();
    }

    #[test]
    fn astronomical_machine_counts_stay_cheap() {
        let inst = InstanceBuilder::new(u64::MAX, 2)
            .job_shaped(12, 0, &[(1, 12), (4, 4)])
            .job(9, 1)
            .job(3, 1)
            .build()
            .unwrap();
        let s = list_solve(&inst).unwrap();
        s.validate(&inst).unwrap();
        assert!(s.makespan(&inst) <= Rational::from(9u64));
    }

    #[test]
    fn over_cap_widths_are_skipped_not_fatal() {
        let wide = WIDTH_CAP + 10;
        let inst = InstanceBuilder::new(u64::MAX, 1)
            .job_shaped(100, 0, &[(1, 100), (wide, 1)])
            .build()
            .unwrap();
        let s = list_solve(&inst).unwrap();
        s.validate(&inst).unwrap();
        // The wide shape was skipped; the sequential one used instead.
        assert_eq!(s.makespan(&inst), Rational::from(100u64));
    }

    #[test]
    fn infeasible_instances_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(list_solve(&inst).is_err());
    }
}
