//! Exact branch-and-bound solver for the moldable extension model.
//!
//! Per job the search picks a shape from the menu *and* the machine subset
//! carrying its pieces, so the tree is wider than the non-preemptive one;
//! the hard limits are correspondingly tighter.  Machines are identical, so
//! subsets whose chosen machines have the same multiset of
//! `(load, hosted classes)` signatures lead to isomorphic subtrees and are
//! expanded only once.

use ccs_core::solver::{Guarantee, SolveReport, SolveStats, Solver, SolverCost};
use ccs_core::{
    CcsError, Instance, MoldableSchedule, Rational, Result, Schedule, ScheduleKind, SolveContext,
};
use std::collections::BTreeSet;

/// Hard limits protecting callers from accidentally running the exponential
/// solver on large instances.  The machine limit applies to the *effective*
/// machine count `min(m, Σ_j max-width_j)` — a schedule never touches more
/// machines than the sum of the widest shapes, so instances with an
/// astronomical declared `m` but narrow menus stay solvable.
const MAX_JOBS: usize = 10;
const MAX_MACHINES: u64 = 4;
/// Cap on the total number of menu entries across all jobs.
const MAX_MENU_TOTAL: usize = 64;

/// How many branch-and-bound nodes are expanded between two context
/// checkpoints; a power of two so the test is a mask.
const CTX_CHECK_MASK: u64 = 0x3FF;

/// Branch-and-bound exact solver for the moldable extension model
/// (instances up to 10 jobs / 4 effective machines).
///
/// Fails with [`CcsError::InvalidParameter`] when the size limits are
/// exceeded and with [`CcsError::Infeasible`] when `C > c·m`.  The search
/// polls the context every few hundred nodes and aborts with
/// [`CcsError::DeadlineExceeded`] / [`CcsError::Cancelled`] when its budget
/// runs out.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMoldable;

impl Solver for ExactMoldable {
    type Schedule = MoldableSchedule;

    fn name(&self) -> &'static str {
        "exact-moldable"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Moldable
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Exact
    }

    fn cost(&self) -> SolverCost {
        SolverCost::InstanceExponential
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<MoldableSchedule>> {
        let (opt, schedule) = branch_and_bound(inst, ctx)?;
        Ok(SolveReport {
            schedule,
            makespan: Rational::from(opt),
            lower_bound: Rational::from(opt),
            stats: SolveStats::default(),
        })
    }
}

/// The exact optimal moldable makespan and a witness schedule.
fn branch_and_bound(inst: &Instance, ctx: &SolveContext) -> Result<(u64, MoldableSchedule)> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible("more classes than class slots"));
    }
    let n = inst.num_jobs();
    if n == 0 {
        return Ok((0, MoldableSchedule::new()));
    }
    let menus: Vec<Vec<(u64, u64)>> = (0..n).map(|j| inst.shape_menu(j)).collect();
    // Any schedule touches at most Σ_j max-width_j machines; by symmetry it
    // can be relabelled into that prefix, so the search is restricted to it.
    let width_sum: u64 = menus
        .iter()
        .map(|menu| menu.iter().map(|&(k, _)| k).max().unwrap_or(1))
        .fold(0u64, u64::saturating_add);
    let m = inst.machines().min(width_sum).max(1);
    let menu_total: usize = menus.iter().map(Vec::len).sum();
    if n > MAX_JOBS || m > MAX_MACHINES || menu_total > MAX_MENU_TOTAL {
        return Err(CcsError::invalid_parameter(format!(
            "exact moldable solver limited to {MAX_JOBS} jobs, {MAX_MACHINES} effective \
             machines and {MAX_MENU_TOTAL} total menu entries"
        )));
    }
    let m = m as usize;

    // Jobs in non-ascending minimal-work order: large jobs first prunes
    // much earlier.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&j| {
        std::cmp::Reverse(
            menus[j]
                .iter()
                .map(|&(k, t)| k as u128 * t as u128)
                .min()
                .unwrap_or(0),
        )
    });

    // Remaining minimal work below each search depth, for the area bound.
    let mut suffix_min_work = vec![0u128; n + 1];
    for depth in (0..n).rev() {
        let job = order[depth];
        let min_work = menus[job]
            .iter()
            .map(|&(k, t)| k as u128 * t as u128)
            .min()
            .unwrap_or(0);
        suffix_min_work[depth] = suffix_min_work[depth + 1] + min_work;
    }

    // Sequential upper bound (every job in its fastest one-machine shape),
    // computed in u128 so the search provably finds a witness below it.
    let sequential_ub: u128 = (0..n)
        .map(|job| {
            menus[job]
                .iter()
                .filter(|&&(k, _)| k == 1)
                .map(|&(_, t)| t as u128)
                .min()
                .expect("every shape menu carries a sequential alternative")
        })
        .sum();

    let mut best = sequential_ub + 1;
    let mut best_choices: Option<Vec<(usize, Vec<u64>)>> = None;
    let mut loads = vec![0u128; m];
    let mut classes: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
    let mut choices: Vec<(usize, Vec<u64>)> = vec![(0, Vec::new()); n];
    let mut state = SearchState {
        inst,
        order: &order,
        menus: &menus,
        suffix_min_work: &suffix_min_work,
        loads: &mut loads,
        classes: &mut classes,
        choices: &mut choices,
        best: &mut best,
        best_choices: &mut best_choices,
        nodes: 0,
        ctx,
    };
    search(&mut state, 0)?;

    let choices = best_choices
        .expect("the initial incumbent exceeds the sequential bound, so a witness exists");
    let mut schedule = MoldableSchedule::new();
    for (shape, machines) in choices {
        schedule.push_choice(shape, machines);
    }
    schedule.validate(inst)?;
    let opt = u64::try_from(best)
        .map_err(|_| CcsError::invalid_parameter("moldable optimum overflows u64"))?;
    Ok((opt, schedule))
}

/// Mutable state of the branch-and-bound, bundled so the recursion stays
/// within clippy's argument budget.
struct SearchState<'a> {
    inst: &'a Instance,
    order: &'a [usize],
    menus: &'a [Vec<(u64, u64)>],
    suffix_min_work: &'a [u128],
    loads: &'a mut Vec<u128>,
    classes: &'a mut Vec<BTreeSet<usize>>,
    choices: &'a mut Vec<(usize, Vec<u64>)>,
    best: &'a mut u128,
    best_choices: &'a mut Option<Vec<(usize, Vec<u64>)>>,
    nodes: u64,
    ctx: &'a SolveContext,
}

/// The multiset of `(load, hosted classes)` signatures of a machine subset;
/// two subsets with equal signatures are interchangeable (the complement
/// multisets are then equal as well, so the futures are isomorphic).
type SubsetSignature = Vec<(u128, Vec<usize>)>;

fn subset_signature(s: &SearchState<'_>, mask: u32) -> SubsetSignature {
    let mut sig: SubsetSignature = (0..s.loads.len())
        .filter(|&i| mask & (1 << i) != 0)
        .map(|i| (s.loads[i], s.classes[i].iter().copied().collect()))
        .collect();
    sig.sort();
    sig
}

fn search(s: &mut SearchState<'_>, depth: usize) -> Result<()> {
    s.nodes += 1;
    if s.nodes & CTX_CHECK_MASK == 0 {
        s.ctx.checkpoint()?;
    }
    let m = s.loads.len();
    let current_max = s.loads.iter().copied().max().unwrap_or(0);
    if current_max >= *s.best {
        return Ok(());
    }
    // Area bound on the completion of the remaining jobs' minimal work.
    let area = (s.loads.iter().sum::<u128>() + s.suffix_min_work[depth]).div_ceil(m as u128);
    if area.max(current_max) >= *s.best {
        return Ok(());
    }
    if depth == s.order.len() {
        *s.best = current_max;
        *s.best_choices = Some(s.choices.clone());
        return Ok(());
    }

    let job = s.order[depth];
    let class = s.inst.class_of(job);
    let slots = s.inst.class_slots() as usize;

    // Enumerate the eligible (shape, machine subset) children, deduplicated
    // by subset signature and ordered by their completion estimate so the
    // depth-first scan reaches a strong incumbent quickly.
    let mut children: Vec<(u128, usize, u32)> = Vec::new();
    let mut seen: BTreeSet<(usize, SubsetSignature)> = BTreeSet::new();
    for (shape, &(width, time)) in s.menus[job].iter().enumerate() {
        if width > m as u64 {
            continue;
        }
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as u64 != width {
                continue;
            }
            let mut candidate = current_max;
            let mut eligible = true;
            for i in (0..m).filter(|&i| mask & (1 << i) != 0) {
                if !s.classes[i].contains(&class) && s.classes[i].len() >= slots {
                    eligible = false;
                    break;
                }
                candidate = candidate.max(s.loads[i] + time as u128);
            }
            if !eligible || candidate >= *s.best {
                continue;
            }
            if seen.insert((shape, subset_signature(s, mask))) {
                children.push((candidate, shape, mask));
            }
        }
    }
    children.sort();

    for (_, shape, mask) in children {
        let time = s.menus[job][shape].1 as u128;
        let machines: Vec<usize> = (0..m).filter(|&i| mask & (1 << i) != 0).collect();
        // Re-check against the (possibly improved) incumbent.
        let candidate = machines
            .iter()
            .map(|&i| s.loads[i] + time)
            .fold(current_max, u128::max);
        if candidate >= *s.best {
            continue;
        }
        let mut inserted = Vec::new();
        for &i in &machines {
            s.loads[i] += time;
            if s.classes[i].insert(class) {
                inserted.push(i);
            }
        }
        s.choices[job] = (shape, machines.iter().map(|&i| i as u64).collect());
        search(s, depth + 1)?;
        for &i in &machines {
            s.loads[i] -= time;
        }
        for i in inserted {
            s.classes[i].remove(&class);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactNonPreemptive;
    use ccs_core::bounds::{moldable_lower_bound, moldable_upper_bound};
    use ccs_core::instance::{instance_from_pairs, InstanceBuilder};

    fn optimum_with_schedule(inst: &Instance) -> Result<(u64, MoldableSchedule)> {
        branch_and_bound(inst, &SolveContext::unbounded())
    }

    fn optimum(inst: &Instance) -> Result<u64> {
        Ok(optimum_with_schedule(inst)?.0)
    }

    #[test]
    fn wide_shape_beats_sequential() {
        let inst = InstanceBuilder::new(3, 1)
            .job_shaped(9, 0, &[(1, 9), (3, 2)])
            .build()
            .unwrap();
        let (opt, schedule) = optimum_with_schedule(&inst).unwrap();
        assert_eq!(opt, 2);
        assert_eq!(schedule.makespan(&inst), Rational::from(2u64));
    }

    #[test]
    fn class_slots_forbid_the_wide_shape() {
        // c = 1: job 0's (2, 4) shape would occupy both machines with class 0,
        // leaving none for class 1 — the optimum stays sequential.
        let inst = InstanceBuilder::new(2, 1)
            .job_shaped(6, 0, &[(1, 6), (2, 4)])
            .job(5, 1)
            .build()
            .unwrap();
        assert_eq!(optimum(&inst).unwrap(), 6);
    }

    #[test]
    fn unshaped_instances_match_the_nonpreemptive_optimum() {
        for seed in 0..25u64 {
            let inst = tiny(seed);
            if !inst.is_feasible() {
                continue;
            }
            let np = ExactNonPreemptive.solve(&inst).unwrap().makespan;
            let moldable = optimum(&inst).unwrap();
            assert_eq!(np, Rational::from(moldable), "seed {seed}");
        }
    }

    #[test]
    fn optimum_respects_the_model_bounds() {
        let inst = InstanceBuilder::new(3, 2)
            .job_shaped(12, 0, &[(1, 12), (2, 7), (3, 5)])
            .job_shaped(8, 1, &[(1, 8), (2, 5)])
            .job(4, 1)
            .build()
            .unwrap();
        let (opt, schedule) = optimum_with_schedule(&inst).unwrap();
        schedule.validate(&inst).unwrap();
        assert_eq!(schedule.makespan(&inst), Rational::from(opt));
        assert!(opt >= moldable_lower_bound(&inst));
        assert!(opt <= moldable_upper_bound(&inst));
    }

    #[test]
    fn astronomical_machine_counts_collapse_to_the_width_sum() {
        // Declared m is huge, but the widest shapes sum to 4 machines.
        let inst = InstanceBuilder::new(u64::MAX, 2)
            .job_shaped(9, 0, &[(1, 9), (3, 3)])
            .job(5, 1)
            .build()
            .unwrap();
        let (opt, _) = optimum_with_schedule(&inst).unwrap();
        assert_eq!(opt, 5);
    }

    #[test]
    fn infeasible_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(optimum(&inst).is_err());
    }

    #[test]
    fn too_large_rejected() {
        let jobs: Vec<(u64, u32)> = (0..12).map(|i| (1, i % 3)).collect();
        let inst = instance_from_pairs(2, 3, &jobs).unwrap();
        assert!(matches!(optimum(&inst), Err(CcsError::InvalidParameter(_))));
        // 6 unshaped jobs on 6 machines: the effective machine count is 6.
        let jobs: Vec<(u64, u32)> = (0..6).map(|_| (1, 0)).collect();
        let inst = instance_from_pairs(6, 2, &jobs).unwrap();
        assert!(matches!(optimum(&inst), Err(CcsError::InvalidParameter(_))));
    }

    #[test]
    fn deadline_aborts_the_search() {
        use std::time::Duration;
        let jobs: Vec<(u64, u32)> = (0..10).map(|i| (7 + i, (i % 4) as u32)).collect();
        let inst = instance_from_pairs(4, 2, &jobs).unwrap();
        let ctx = SolveContext::unbounded().with_timeout(Duration::ZERO);
        assert!(matches!(
            branch_and_bound(&inst, &ctx),
            Err(CcsError::DeadlineExceeded)
        ));
    }

    // A tiny deterministic pseudo-random generator mirroring the one in the
    // non-preemptive tests (no circular dev-dependency on ccs-gen).
    fn tiny(seed: u64) -> Instance {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = |range: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % range
        };
        let n = 3 + next(5) as usize;
        let m = 1 + next(3);
        let c = 1 + next(2);
        let classes = 1 + next(3) as u32;
        let mut b = ccs_core::InstanceBuilder::new(m, c);
        for _ in 0..n {
            b = b.job(1 + next(9), next(classes as u64) as u32);
        }
        b.build().unwrap()
    }
}
