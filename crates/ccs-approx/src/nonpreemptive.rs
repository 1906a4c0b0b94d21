//! The 7/3-approximation for the non-preemptive case (Theorem 6).
//!
//! Jobs must be assigned as a whole, so a class with `P_u > T` cannot simply
//! be sliced.  Instead the algorithm computes a lower bound `C_u` on the
//! number of class slots any makespan-`T` schedule must spend on class `u`:
//!
//! * `C¹_u = ⌈P_u / T⌉` — the area argument, and
//! * `C²_u = k_u + ⌈ℓ_u / 2⌉` — a packing argument for the large jobs: the
//!   `k_u` jobs with `p_j > T/2` need distinct machines; of the jobs with
//!   `T/3 < p_j ≤ T/2` as many as possible are paired greedily (largest
//!   fitting first) on top of those, the remaining `ℓ_u` need `⌈ℓ_u/2⌉` more.
//!
//! The jobs of class `u` are then divided into `C_u = max(C¹_u, C²_u)` groups
//! with LPT and all groups are distributed round robin.  Each group load is at
//! most `(4/3)·T`, so the makespan is bounded by `Σp/m + (4/3)T ≤ (7/3)·opt`.
//! A standard integral binary search finds the smallest feasible guess `T`.

use crate::lpt::{group_loads, lpt_assign};
use crate::result::ApproxResult;
use crate::round_robin::descending_order;
use ccs_core::solver::{Guarantee, SolveReport, Solver};
use ccs_core::{
    bounds, CcsError, ClassId, Instance, JobId, NonPreemptiveSchedule, Rational, Result,
    ScheduleKind, SolveContext,
};

/// The non-preemptive 7/3-approximation of Theorem 6 (deadline /
/// cancellation polled per binary-search iteration).
#[derive(Debug, Clone, Copy, Default)]
pub struct Nonpreemptive73Approx;

impl Solver for Nonpreemptive73Approx {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "approx-nonpreemptive-7/3"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::NonPreemptive
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Factor(Rational::new(7, 3))
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<NonPreemptiveSchedule>> {
        Ok(run(inst, ctx)?.into_report(inst))
    }
}

/// Runs the 7/3-approximation, keeping the accepted guess `T` beside the
/// schedule.
fn run(inst: &Instance, ctx: &SolveContext) -> Result<ApproxResult<NonPreemptiveSchedule>> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible(format!(
            "{} classes cannot fit into {} x {} class slots",
            inst.num_classes(),
            inst.machines(),
            inst.class_slots()
        )));
    }

    let n = inst.num_jobs();
    let lb = bounds::nonpreemptive_lower_bound(inst);

    // With at least as many machines as jobs, one job per machine is optimal.
    if inst.machines() >= n as u64 {
        let assignment = (0..n as u64).collect();
        return Ok(ApproxResult {
            schedule: NonPreemptiveSchedule::new(assignment),
            guess: Rational::from(inst.p_max()),
            lower_bound: Rational::from(lb),
            search_iterations: 0,
        });
    }

    // Standard binary search over the integral makespan guess.
    let ub = bounds::sequential_upper_bound(inst);
    let mut lo = lb;
    let mut hi = ub;
    let mut iterations = 0usize;
    while lo < hi {
        ctx.checkpoint()?;
        let mid = lo + (hi - lo) / 2;
        iterations += 1;
        if guess_is_feasible(inst, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let t = lo;
    ctx.checkpoint()?;
    debug_assert!(guess_is_feasible(inst, t));

    let schedule = build_schedule(inst, t);
    Ok(ApproxResult {
        schedule,
        guess: Rational::from(t),
        lower_bound: Rational::from(lb),
        search_iterations: iterations,
    })
}

/// The class-slot lower bound `C_u = max(C¹_u, C²_u)` for a guess `t`.
pub fn class_slot_lower_bound(inst: &Instance, class: ClassId, t: u64) -> u64 {
    let area = Rational::from(inst.class_load(class)).ceil_div(Rational::from(t)) as u64;

    // Large jobs: p > t/2 (exact integer comparison 2p > t).
    // Medium jobs: t/3 < p <= t/2 (3p > t and 2p <= t).
    let mut large: Vec<u64> = Vec::new();
    let mut medium: Vec<u64> = Vec::new();
    for &job in inst.jobs_of_class(class) {
        let p = inst.processing_time(job);
        if 2 * p > t {
            large.push(p);
        } else if 3 * p > t {
            medium.push(p);
        }
    }
    let k_u = large.len() as u64;

    // Greedily place the largest fitting medium job on top of each large job,
    // processing the large jobs with the most free space first.
    large.sort_unstable();
    medium.sort_unstable(); // ascending; we take from the back
    for &big in &large {
        let free = t.saturating_sub(big);
        // Largest medium with p <= free.
        if let Some(idx) = medium.iter().rposition(|&p| p <= free) {
            medium.remove(idx);
        }
    }
    let l_u = medium.len() as u64;
    let packing = k_u + l_u.div_ceil(2);

    area.max(packing).max(1)
}

/// Returns `true` if the guess `t` passes the feasibility test of the
/// algorithm: every job fits below `t` and the total number of class groups
/// `Σ_u C_u` does not exceed the slot budget `c·m`.
pub fn guess_is_feasible(inst: &Instance, t: u64) -> bool {
    if inst.p_max() > t {
        return false;
    }
    let budget = inst.effective_class_slots() as u128 * inst.machines() as u128;
    let mut total: u128 = 0;
    for class in 0..inst.num_classes() {
        total += class_slot_lower_bound(inst, class, t) as u128;
        if total > budget {
            return false;
        }
    }
    true
}

/// Builds the schedule for a feasible guess `t`: LPT inside every class into
/// `C_u` groups, then round robin of all groups in non-ascending load order.
pub fn build_schedule(inst: &Instance, t: u64) -> NonPreemptiveSchedule {
    let m = inst.machines();

    // Build all groups: a group is a set of whole jobs of one class.
    let mut groups: Vec<Vec<JobId>> = Vec::new();
    let mut group_weights: Vec<Rational> = Vec::new();
    for class in 0..inst.num_classes() {
        let jobs = inst.jobs_of_class(class);
        let cu = class_slot_lower_bound(inst, class, t) as usize;
        let weights: Vec<u64> = jobs.iter().map(|&j| inst.processing_time(j)).collect();
        let assignment = lpt_assign(&weights, cu);
        let loads = group_loads(&weights, &assignment, cu);
        let mut class_groups: Vec<Vec<JobId>> = vec![Vec::new(); cu];
        for (pos, &job) in jobs.iter().enumerate() {
            class_groups[assignment[pos]].push(job);
        }
        for (g, jobs_in_group) in class_groups.into_iter().enumerate() {
            if !jobs_in_group.is_empty() {
                groups.push(jobs_in_group);
                group_weights.push(Rational::from(loads[g]));
            }
        }
    }

    // Round robin of the groups in non-ascending load order.
    let order = descending_order(&group_weights);
    let mut assignment = vec![0u64; inst.num_jobs()];
    for (pos, &group_idx) in order.iter().enumerate() {
        let machine = (pos as u64) % m;
        for &job in &groups[group_idx] {
            assignment[job] = machine;
        }
    }
    NonPreemptiveSchedule::new(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Schedule;

    fn approx(inst: &Instance) -> Result<ApproxResult<NonPreemptiveSchedule>> {
        run(inst, &SolveContext::unbounded())
    }

    fn check(inst: &Instance) -> ApproxResult<NonPreemptiveSchedule> {
        let res = approx(inst).unwrap();
        res.schedule.validate(inst).unwrap();
        let makespan = res.schedule.makespan(inst);
        assert!(
            makespan <= Rational::new(7, 3) * res.optimum_lower_bound(),
            "makespan {makespan} exceeds 7/3 * {}",
            res.optimum_lower_bound()
        );
        res
    }

    #[test]
    fn one_job_per_machine_when_many_machines() {
        let inst = instance_from_pairs(5, 1, &[(3, 0), (9, 1), (4, 2)]).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan_int(&inst), 9);
    }

    #[test]
    fn single_machine_takes_everything() {
        let inst = instance_from_pairs(1, 3, &[(3, 0), (9, 1), (4, 2)]).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan_int(&inst), 16);
    }

    #[test]
    fn identical_jobs_balanced() {
        let jobs: Vec<(u64, u32)> = (0..8).map(|_| (5, 0)).collect();
        let inst = instance_from_pairs(4, 1, &jobs).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan_int(&inst), 10);
    }

    #[test]
    fn class_slot_lower_bound_area() {
        // Class 0 with load 20, small jobs, T = 6: area bound ceil(20/6)=4.
        let inst = instance_from_pairs(4, 2, &[(5, 0), (5, 0), (5, 0), (5, 0)]).unwrap();
        assert_eq!(class_slot_lower_bound(&inst, 0, 6), 4);
    }

    #[test]
    fn class_slot_lower_bound_packing() {
        // T = 10, jobs 6,6,6 (all > T/2): k_u = 3; area = ceil(18/10) = 2.
        let inst = instance_from_pairs(4, 2, &[(6, 0), (6, 0), (6, 0)]).unwrap();
        assert_eq!(class_slot_lower_bound(&inst, 0, 10), 3);
    }

    #[test]
    fn class_slot_lower_bound_pairs_mediums_onto_larges() {
        // T = 12, jobs: 7 (> 6), 5 and 4 (mediums, > 4 and <= 6).
        // The medium 5 fits on top of 7 (7+5=12), 4 does not (7+4=11 <= 12 it
        // does fit!) — greedy takes the largest fitting, i.e. 5; remaining
        // medium 4 alone needs ceil(1/2)=1 more slot -> C2 = 2; area =
        // ceil(16/12) = 2.
        let inst = instance_from_pairs(4, 2, &[(7, 0), (5, 0), (4, 0)]).unwrap();
        assert_eq!(class_slot_lower_bound(&inst, 0, 12), 2);
    }

    #[test]
    fn mixed_classes_tight_slots() {
        let inst = instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 0), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap();
        check(&inst);
    }

    #[test]
    fn large_job_heavy_instance() {
        // Many jobs just above T/2 force the packing bound to matter.
        let jobs: Vec<(u64, u32)> = (0..10).map(|i| (11, (i % 2) as u32)).collect();
        let inst = instance_from_pairs(5, 2, &jobs).unwrap();
        check(&inst);
    }

    #[test]
    fn infeasible_instance_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(approx(&inst).is_err());
    }

    #[test]
    fn feasibility_is_monotone_on_examples() {
        let inst = instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 0), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap();
        let mut seen_feasible = false;
        for t in 1..=60u64 {
            let f = guess_is_feasible(&inst, t);
            if seen_feasible {
                assert!(f, "feasibility must not flip back at T = {t}");
            }
            seen_feasible |= f;
        }
        assert!(seen_feasible);
    }

    #[test]
    fn guess_bounded_by_lower_and_upper_bound() {
        let jobs: Vec<(u64, u32)> = (0..12).map(|i| (2 + i as u64, (i % 3) as u32)).collect();
        let inst = instance_from_pairs(4, 2, &jobs).unwrap();
        let res = check(&inst);
        assert!(res.guess >= Rational::from(bounds::nonpreemptive_lower_bound(&inst)));
        assert!(res.guess <= Rational::from(bounds::sequential_upper_bound(&inst)));
    }

    #[test]
    fn deterministic_output() {
        let jobs: Vec<(u64, u32)> = (0..20).map(|i| (3 + i as u64, (i % 6) as u32)).collect();
        let inst = instance_from_pairs(5, 2, &jobs).unwrap();
        let a = approx(&inst).unwrap();
        let b = approx(&inst).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }
}
