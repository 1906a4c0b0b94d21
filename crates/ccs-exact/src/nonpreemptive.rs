//! Exact branch-and-bound solver for the non-preemptive model.

use ccs_core::par::par_map_ctx;
use ccs_core::solver::{Guarantee, SolveReport, SolveStats, Solver, SolverCost};
use ccs_core::{
    CcsError, Instance, NonPreemptiveSchedule, Rational, Result, Schedule, ScheduleKind,
    SolveContext,
};
use std::collections::BTreeSet;

/// Hard limits protecting callers from accidentally running the exponential
/// solver on large instances.
const MAX_JOBS: usize = 22;
const MAX_MACHINES: u64 = 8;

/// How many branch-and-bound nodes are expanded between two context
/// checkpoints; a power of two so the test is a mask.
const CTX_CHECK_MASK: u64 = 0x3FF;

/// Target number of independent subtrees fanned out across workers.  The
/// frontier is grown level by level until it reaches this size, so its shape
/// is a pure function of the instance — never of the thread count.
const FRONTIER_TARGET: usize = 16;

/// Minimum number of jobs before the search fans out across threads; smaller
/// trees finish faster than workers can spawn.
const PAR_JOB_THRESHOLD: usize = 10;

/// Branch-and-bound exact solver for the non-preemptive model (instances up
/// to 22 jobs / 8 machines).
///
/// Fails with [`CcsError::InvalidParameter`] when `n` or `m` exceed the
/// built-in limits and with [`CcsError::Infeasible`] when `C > c·m`.  The
/// search polls the context every few hundred nodes and aborts with
/// [`CcsError::DeadlineExceeded`] / [`CcsError::Cancelled`] when its budget
/// runs out.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactNonPreemptive;

impl Solver for ExactNonPreemptive {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "exact-nonpreemptive"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::NonPreemptive
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
    ) -> Result<SolveReport<NonPreemptiveSchedule>> {
        let (opt, schedule) = branch_and_bound(inst, ctx)?;
        Ok(SolveReport {
            schedule,
            makespan: Rational::from(opt),
            lower_bound: Rational::from(opt),
            stats: SolveStats::default(),
        })
    }
}

/// The exact optimal non-preemptive makespan and a witness schedule.
fn branch_and_bound(inst: &Instance, ctx: &SolveContext) -> Result<(u64, NonPreemptiveSchedule)> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible("more classes than class slots"));
    }
    let m = inst.machines().min(inst.num_jobs() as u64);
    if inst.num_jobs() > MAX_JOBS || m > MAX_MACHINES {
        return Err(CcsError::invalid_parameter(format!(
            "exact solver limited to {MAX_JOBS} jobs and {MAX_MACHINES} machines"
        )));
    }
    let m = m as usize;

    // Jobs in non-ascending processing time order: large jobs first prunes
    // much earlier.
    let mut order: Vec<usize> = (0..inst.num_jobs()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(inst.processing_time(j)));

    // Initial upper bound from a greedy class-aware assignment.  If the
    // greedy heuristic gets stuck, fall back to an unreachable bound so the
    // search is guaranteed to produce a witness itself.
    let greedy = greedy_upper_bound(inst, &order, m);
    let initial_best = greedy.unwrap_or_else(|| inst.total_load() + 1);

    // Warm start: a parent solution's makespan W tightens the incumbent to
    // min(G, ⌊W⌋+1) — any leaf with value ≤ W survives the seed, so when the
    // child optimum is at most W the tightened search still finds it, and it
    // finds the *same* witness the cold search would have: every initial
    // incumbent B > OPT yields the depth-first-first OPT leaf (the path to
    // that leaf has prefix maxima and area bounds ≤ OPT < B, so no prune on
    // it ever fires before the incumbent itself reaches OPT).  When the
    // tightened search comes back empty the bound was too aggressive
    // (OPT ≥ ⌊W⌋+1) and we rerun with the greedy seed — bit-identical to
    // cold, at the price of the wasted first pass (a warm *miss*).
    let warm_bound = ctx.warm_hint().and_then(|hint| {
        let makespan = hint.makespan;
        if makespan < ccs_core::Rational::ZERO {
            return None;
        }
        let bound = u64::try_from(makespan.floor()).ok()?.saturating_add(1);
        (bound < initial_best).then_some(bound)
    });
    if ctx.warm_hint().is_some() && warm_bound.is_none() {
        ctx.record_warm(false); // the hint could not tighten the greedy seed
    }

    let seeded_best = warm_bound.unwrap_or(initial_best);
    let mut outcome = bounded_search(inst, &order, ctx, m, seeded_best)?;
    if warm_bound.is_some() {
        match outcome.1 {
            Some(_) => ctx.record_warm(true),
            None => {
                ctx.record_warm(false);
                outcome = bounded_search(inst, &order, ctx, m, initial_best)?;
            }
        }
    }
    let best_assignment = outcome.1;

    let assignment = best_assignment.unwrap_or_else(|| {
        // The greedy bound was already optimal and the search never improved
        // on it; rebuild the greedy schedule.
        greedy_assignment(inst, &order, m).expect("greedy succeeded earlier")
    });
    let schedule = NonPreemptiveSchedule::new(assignment);
    schedule.validate(inst)?;
    let opt = schedule.makespan_int(inst);
    Ok((opt, schedule))
}

/// The full search under one static initial incumbent — sequential for small
/// trees, otherwise fanned out over a fixed frontier of independent subtrees,
/// each searched with its own incumbent seeded from the same static bound.
/// Sharing the incumbent across workers would be faster on average but makes
/// the returned witness depend on timing; with local incumbents and a
/// first-strict-minimum merge in frontier order the result is bit-identical
/// to the sequential depth-first scan (an earlier shard's first leaf
/// attaining the optimum is exactly the leaf the sequential search would
/// have adopted last — later shards merely redo work the sequential run
/// pruned).
fn bounded_search(
    inst: &Instance,
    order: &[usize],
    ctx: &SolveContext,
    m: usize,
    initial_best: u64,
) -> Result<(u64, Option<Vec<u64>>)> {
    if inst.num_jobs() < PAR_JOB_THRESHOLD || m < 2 {
        return search_subtree(inst, order, ctx, FrontierNode::root(inst, m), initial_best);
    }
    let frontier = build_frontier(inst, order, m, initial_best, ctx)?;
    let shards = par_map_ctx(ctx, &frontier, |_, node| {
        search_subtree(inst, order, ctx, node.clone(), initial_best)
    })?;
    let mut best = initial_best;
    let mut best_assignment: Option<Vec<u64>> = None;
    for (value, witness) in shards {
        if value < best {
            best = value;
            best_assignment = witness;
        }
    }
    Ok((best, best_assignment))
}

/// A partial assignment of the first `depth` jobs of the branching order —
/// one root of an independent branch-and-bound subtree.
#[derive(Clone)]
struct FrontierNode {
    depth: usize,
    loads: Vec<u64>,
    classes: Vec<BTreeSet<usize>>,
    assignment: Vec<u64>,
    remaining: u64,
}

impl FrontierNode {
    fn root(inst: &Instance, m: usize) -> Self {
        FrontierNode {
            depth: 0,
            loads: vec![0; m],
            classes: vec![BTreeSet::new(); m],
            assignment: vec![0; inst.num_jobs()],
            remaining: inst.total_load(),
        }
    }
}

/// Grows the frontier level by level — replaying exactly the branching and
/// pruning rules of [`search`] against the static `best` bound — until it is
/// at least [`FRONTIER_TARGET`] nodes wide.  The nodes come out in the
/// depth-first visitation order of their subtrees, which is what makes the
/// in-order merge reproduce the sequential witness.
fn build_frontier(
    inst: &Instance,
    order: &[usize],
    m: usize,
    best: u64,
    ctx: &SolveContext,
) -> Result<Vec<FrontierNode>> {
    let mut frontier = vec![FrontierNode::root(inst, m)];
    let mut depth = 0;
    while !frontier.is_empty() && frontier.len() < FRONTIER_TARGET && depth + 1 < order.len() {
        ctx.checkpoint()?;
        let mut next = Vec::new();
        for node in &frontier {
            expand_children(inst, order, best, node, &mut next);
        }
        frontier = next;
        depth += 1;
    }
    Ok(frontier)
}

/// Emits the children of `node` in branching order, applying the same
/// node-entry and per-machine prunes as [`search`] (with the static bound).
fn expand_children(
    inst: &Instance,
    order: &[usize],
    best: u64,
    node: &FrontierNode,
    out: &mut Vec<FrontierNode>,
) {
    let m = node.loads.len();
    let current_max = node.loads.iter().copied().max().unwrap_or(0);
    if current_max >= best {
        return;
    }
    let area_bound = (node.loads.iter().sum::<u64>() + node.remaining).div_ceil(m as u64);
    if area_bound.max(current_max) >= best {
        return;
    }

    let job = order[node.depth];
    let p = inst.processing_time(job);
    let class = inst.class_of(job);
    let slots = inst.class_slots() as usize;

    let mut tried_empty = false;
    for machine in 0..m {
        if node.loads[machine] == 0 && node.classes[machine].is_empty() {
            if tried_empty {
                continue;
            }
            tried_empty = true;
        }
        let new_class = !node.classes[machine].contains(&class);
        if new_class && node.classes[machine].len() >= slots {
            continue;
        }
        if node.loads[machine] + p >= best {
            continue;
        }
        let mut child = node.clone();
        child.loads[machine] += p;
        if new_class {
            child.classes[machine].insert(class);
        }
        child.assignment[job] = machine as u64;
        child.depth += 1;
        child.remaining -= p;
        out.push(child);
    }
}

/// Runs the sequential branch-and-bound over one subtree with a local
/// incumbent seeded from `initial_best`; returns the subtree's best value and
/// its witness (`None` when nothing improved on the seed).
fn search_subtree(
    inst: &Instance,
    order: &[usize],
    ctx: &SolveContext,
    node: FrontierNode,
    initial_best: u64,
) -> Result<(u64, Option<Vec<u64>>)> {
    let FrontierNode {
        depth,
        mut loads,
        mut classes,
        mut assignment,
        remaining,
    } = node;
    let mut best = initial_best;
    let mut best_assignment = None;
    let mut state = SearchState {
        inst,
        order,
        loads: &mut loads,
        classes: &mut classes,
        assignment: &mut assignment,
        best: &mut best,
        best_assignment: &mut best_assignment,
        nodes: 0,
        ctx,
    };
    search(&mut state, depth, remaining)?;
    Ok((best, best_assignment))
}

/// Mutable state of the branch-and-bound, bundled so the recursion stays
/// within clippy's argument budget now that a node counter and a context
/// ride along.
struct SearchState<'a> {
    inst: &'a Instance,
    order: &'a [usize],
    loads: &'a mut Vec<u64>,
    classes: &'a mut Vec<BTreeSet<usize>>,
    assignment: &'a mut Vec<u64>,
    best: &'a mut u64,
    best_assignment: &'a mut Option<Vec<u64>>,
    nodes: u64,
    ctx: &'a SolveContext,
}

fn search(s: &mut SearchState<'_>, depth: usize, remaining: u64) -> Result<()> {
    s.nodes += 1;
    if s.nodes & CTX_CHECK_MASK == 0 {
        s.ctx.checkpoint()?;
    }
    let m = s.loads.len();
    let current_max = s.loads.iter().copied().max().unwrap_or(0);
    if current_max >= *s.best {
        return Ok(());
    }
    // Area-based bound on the completion of the remaining jobs.
    let area_bound = (s.loads.iter().sum::<u64>() + remaining).div_ceil(m as u64);
    if area_bound.max(current_max) >= *s.best {
        return Ok(());
    }
    if depth == s.order.len() {
        *s.best = current_max;
        *s.best_assignment = Some(s.assignment.clone());
        return Ok(());
    }

    let job = s.order[depth];
    let p = s.inst.processing_time(job);
    let class = s.inst.class_of(job);
    let slots = s.inst.class_slots() as usize;

    let mut tried_empty = false;
    for machine in 0..m {
        // Symmetry breaking: all empty machines are interchangeable.
        if s.loads[machine] == 0 && s.classes[machine].is_empty() {
            if tried_empty {
                continue;
            }
            tried_empty = true;
        }
        let new_class = !s.classes[machine].contains(&class);
        if new_class && s.classes[machine].len() >= slots {
            continue;
        }
        if s.loads[machine] + p >= *s.best {
            continue;
        }
        s.loads[machine] += p;
        if new_class {
            s.classes[machine].insert(class);
        }
        s.assignment[job] = machine as u64;
        search(s, depth + 1, remaining - p)?;
        s.loads[machine] -= p;
        if new_class {
            s.classes[machine].remove(&class);
        }
    }
    Ok(())
}

fn greedy_assignment(inst: &Instance, order: &[usize], m: usize) -> Option<Vec<u64>> {
    let slots = inst.class_slots() as usize;
    let mut loads = vec![0u64; m];
    let mut classes: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
    let mut assignment = vec![0u64; inst.num_jobs()];
    for &job in order {
        let class = inst.class_of(job);
        let candidate = (0..m)
            .filter(|&i| classes[i].contains(&class) || classes[i].len() < slots)
            .min_by_key(|&i| loads[i])?;
        loads[candidate] += inst.processing_time(job);
        classes[candidate].insert(class);
        assignment[job] = candidate as u64;
    }
    Some(assignment)
}

fn greedy_upper_bound(inst: &Instance, order: &[usize], m: usize) -> Option<u64> {
    let assignment = greedy_assignment(inst, order, m)?;
    let schedule = NonPreemptiveSchedule::new(assignment);
    schedule.validate(inst).ok()?;
    Some(schedule.makespan_int(inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;

    fn optimum(inst: &Instance) -> Result<u64> {
        Ok(branch_and_bound(inst, &SolveContext::unbounded())?.0)
    }

    #[test]
    fn trivial_single_machine() {
        let inst = instance_from_pairs(1, 3, &[(3, 0), (4, 1), (5, 2)]).unwrap();
        assert_eq!(optimum(&inst).unwrap(), 12);
    }

    #[test]
    fn perfect_partition_found() {
        // 2 machines, jobs 3,3,2,2,2 of one class: optimum 6.
        let inst = instance_from_pairs(2, 1, &[(3, 0), (3, 0), (2, 0), (2, 0), (2, 0)]).unwrap();
        assert_eq!(optimum(&inst).unwrap(), 6);
    }

    #[test]
    fn class_constraint_forces_imbalance() {
        // 2 machines, 1 slot each, class loads 10 and 2: optimum is 10,
        // whereas without class constraints it would still be 10; tighten:
        // class loads 7 (jobs 4+3) and 5 (jobs 3+2): optimum 7.
        let inst = instance_from_pairs(2, 1, &[(4, 0), (3, 0), (3, 1), (2, 1)]).unwrap();
        assert_eq!(optimum(&inst).unwrap(), 7);
    }

    #[test]
    fn class_constraint_really_matters() {
        // 2 machines with 1 slot: classes {6, 1} and {5}: without classes the
        // optimum would be 6 (6 | 1+5); with one slot per machine it is 7.
        let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        assert_eq!(optimum(&inst).unwrap(), 7);
    }

    #[test]
    fn optimum_with_schedule_is_consistent() {
        let inst =
            instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 1), (4, 2), (3, 3)]).unwrap();
        let (opt, schedule) = branch_and_bound(&inst, &SolveContext::unbounded()).unwrap();
        schedule.validate(&inst).unwrap();
        assert_eq!(schedule.makespan_int(&inst), opt);
    }

    #[test]
    fn infeasible_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(optimum(&inst).is_err());
    }

    #[test]
    fn too_large_rejected() {
        let jobs: Vec<(u64, u32)> = (0..30).map(|i| (1, i % 3)).collect();
        let inst = instance_from_pairs(2, 3, &jobs).unwrap();
        assert!(matches!(optimum(&inst), Err(CcsError::InvalidParameter(_))));
    }

    #[test]
    fn frontier_fanout_matches_the_plain_depth_first_search() {
        // Large enough (n >= PAR_JOB_THRESHOLD) that the public entry point
        // takes the parallel frontier path; replay the plain sequential DFS
        // here and demand the identical optimum AND the identical witness.
        for seed in 0..40u64 {
            let inst = ccs_gen_sized(seed, 11 + (seed % 3) as usize);
            if !inst.is_feasible() {
                continue;
            }
            let ctx = SolveContext::unbounded();
            let (opt, schedule) = branch_and_bound(&inst, &ctx).unwrap();

            let m = inst.machines().min(inst.num_jobs() as u64) as usize;
            let mut order: Vec<usize> = (0..inst.num_jobs()).collect();
            order.sort_by_key(|&j| std::cmp::Reverse(inst.processing_time(j)));
            let initial_best =
                greedy_upper_bound(&inst, &order, m).unwrap_or_else(|| inst.total_load() + 1);
            let (seq_best, seq_witness) = search_subtree(
                &inst,
                &order,
                &ctx,
                FrontierNode::root(&inst, m),
                initial_best,
            )
            .unwrap();

            let seq_assignment = seq_witness
                .unwrap_or_else(|| greedy_assignment(&inst, &order, m).expect("greedy feasible"));
            assert_eq!(opt, seq_best.min(initial_best), "seed {seed}");
            assert_eq!(
                schedule,
                NonPreemptiveSchedule::new(seq_assignment),
                "witness diverged on seed {seed}"
            );
        }
    }

    #[test]
    fn warm_hints_never_change_the_witness() {
        use ccs_core::{StatsSink, WarmHint};
        use std::sync::Arc;
        for seed in 0..40u64 {
            let inst = ccs_gen_sized(seed, 10 + (seed % 4) as usize);
            if !inst.is_feasible() {
                continue;
            }
            let (cold_opt, cold_schedule) =
                branch_and_bound(&inst, &SolveContext::unbounded()).unwrap();
            // Hints from a spread of anchors around the optimum: exact,
            // slack (a parent whose makespan exceeded the child's), and too
            // tight (forces the cold fallback).
            let hints = [
                Rational::from(cold_opt),
                Rational::from(cold_opt + 3),
                Rational::new(2 * cold_opt as i128 + 1, 2),
                Rational::from(cold_opt.saturating_sub(1)),
                Rational::ZERO,
            ];
            for hint in hints {
                let sink = Arc::new(StatsSink::new());
                let ctx = SolveContext::unbounded()
                    .with_stats(sink.clone())
                    .with_warm(WarmHint { makespan: hint });
                let (warm_opt, warm_schedule) = branch_and_bound(&inst, &ctx).unwrap();
                assert_eq!(warm_opt, cold_opt, "seed {seed} hint {hint}");
                assert_eq!(warm_schedule, cold_schedule, "seed {seed} hint {hint}");
                let snap = sink.snapshot();
                assert_eq!(
                    snap.warm_hits + snap.warm_misses,
                    1,
                    "seed {seed} hint {hint}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_tiny_instances() {
        // Cross-validate against a plain exhaustive enumeration.
        fn brute_force(inst: &Instance) -> u64 {
            let m = inst.machines().min(inst.num_jobs() as u64) as usize;
            let n = inst.num_jobs();
            let mut best = u64::MAX;
            let mut assignment = vec![0usize; n];
            loop {
                let schedule =
                    NonPreemptiveSchedule::new(assignment.iter().map(|&x| x as u64).collect());
                if schedule.validate(inst).is_ok() {
                    best = best.min(schedule.makespan_int(inst));
                }
                // Increment the mixed-radix counter.
                let mut i = 0;
                loop {
                    if i == n {
                        return best;
                    }
                    assignment[i] += 1;
                    if assignment[i] < m {
                        break;
                    }
                    assignment[i] = 0;
                    i += 1;
                }
            }
        }

        for seed in 0..15u64 {
            let inst = ccs_gen_tiny(seed);
            if !inst.is_feasible() || inst.num_jobs() > 7 {
                continue;
            }
            let bb = optimum(&inst).unwrap();
            let bf = brute_force(&inst);
            assert_eq!(bb, bf, "seed {seed}");
        }
    }

    // Like `ccs_gen_tiny` but with a caller-chosen job count, for exercising
    // the parallel frontier path.
    fn ccs_gen_sized(seed: u64, n: usize) -> Instance {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
        let mut next = |range: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % range
        };
        let m = 2 + next(3);
        let c = 1 + next(2);
        let classes = 1 + next(4) as u32;
        let mut b = ccs_core::InstanceBuilder::new(m, c);
        for _ in 0..n {
            b = b.job(1 + next(12), next(classes as u64) as u32);
        }
        b.build().unwrap()
    }

    // A tiny deterministic pseudo-random generator to avoid a circular
    // dev-dependency on ccs-gen.
    fn ccs_gen_tiny(seed: u64) -> Instance {
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
        let budget = (m * c) as u32;
        let mut b = ccs_core::InstanceBuilder::new(m, c);
        for _ in 0..n {
            b = b.job(1 + next(9), next(classes.min(budget).max(1) as u64) as u32);
        }
        b.build().unwrap()
    }
}
