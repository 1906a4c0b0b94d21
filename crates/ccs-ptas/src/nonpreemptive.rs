//! The PTAS for the non-preemptive case (Section 4.2, Theorem 14).
//!
//! Jobs cannot be split, so instead of a single fused job per class the
//! preprocessing groups small jobs into packages (Lemma 12) and rounds the
//! processing times of large-class jobs to multiples of `δ²T`.  A *module* is
//! now a multiset of rounded job sizes (the jobs of one class on one machine)
//! and a *configuration* is a multiset of module sizes, exactly as in the
//! paper.  Feasibility of a guess is decided through the aggregated
//! configuration ILP; the certificate is unfolded into machines → modules →
//! jobs (Figure 4 of the paper) and the small classes are assigned round
//! robin.

use crate::config::{enumerate_configs_ctx, Config};
use crate::ilp::{IlpOutcome, IntProgram};
use crate::params::PtasParams;
use crate::result::PtasResult;
use crate::scale::{group_classes, GroupedClass, GuessScale};
use ccs_approx::Nonpreemptive73Approx;
use ccs_core::solver::{Guarantee, SolveReport, Solver, SolverCost};
use ccs_core::{
    bounds, CcsError, Instance, NonPreemptiveSchedule, Rational, Result, Scalar, Schedule,
    ScheduleKind, SolveContext,
};
use std::collections::BTreeMap;

/// Practical limit on the number of machines (see the splittable PTAS).
pub const MAX_MACHINES: u64 = 64;

const ILP_NODE_BUDGET: usize = 2_000_000;

/// The non-preemptive PTAS (Theorem 14) at the accuracy of its
/// [`PtasParams`] (the context is polled per guess and inside the
/// configuration-ILP search).
#[derive(Debug, Clone, Copy)]
pub struct NonpreemptivePtas {
    params: PtasParams,
}

ptas_common!(NonpreemptivePtas);

impl Solver for NonpreemptivePtas {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "ptas-nonpreemptive"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::NonPreemptive
    }

    fn guarantee(&self) -> Guarantee {
        self.params.guarantee()
    }

    fn cost(&self) -> SolverCost {
        SolverCost::AccuracyExponential
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<NonPreemptiveSchedule>> {
        Ok(run(inst, self.params, ctx)?.into_report(inst))
    }
}

/// Runs the non-preemptive PTAS, keeping the accepted guess beside the
/// schedule.
fn run(
    inst: &Instance,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<PtasResult<NonPreemptiveSchedule>> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible("more classes than class slots"));
    }
    if inst.machines() > MAX_MACHINES {
        return Err(CcsError::invalid_parameter(format!(
            "non-preemptive PTAS supports at most {MAX_MACHINES} machines; use ccs-approx for larger m"
        )));
    }

    let warm = Nonpreemptive73Approx.solve_ctx(inst, ctx)?;
    let ub = warm.makespan;
    let lb = warm
        .lower_bound
        .max(Rational::from(bounds::nonpreemptive_lower_bound(inst)))
        .max(Rational::ONE);
    let delta = Rational::new(1, params.delta_inv as i128);

    let step = Rational::ONE + delta;
    let mut grid = vec![lb];
    while *grid.last().unwrap() < ub {
        let next = *grid.last().unwrap() * step;
        grid.push(next);
    }
    let cutoff = ctx
        .warm_hint()
        .map(|hint| crate::grid::warm_cutoff(&grid, hint.makespan));
    let (best, evaluated) =
        crate::grid::smallest_accepted_hinted(ctx, grid.len(), cutoff, |index| {
            decide_and_construct_ctx(inst, grid[index], params, ctx)
        })?;

    match best {
        Some((idx, (schedule, configurations))) => Ok(PtasResult {
            schedule,
            guess: grid[idx],
            lower_bound: lb,
            guesses_evaluated: evaluated,
            configurations,
        }),
        None => Ok(PtasResult {
            schedule: warm.schedule,
            guess: ub,
            lower_bound: lb,
            guesses_evaluated: evaluated,
            configurations: 0,
        }),
    }
}

/// Decides a guess and, if feasible, immediately constructs the schedule.
pub fn decide_and_construct(
    inst: &Instance,
    guess: Rational,
    params: PtasParams,
) -> Option<(NonPreemptiveSchedule, usize)> {
    decide_and_construct_ctx(inst, guess, params, &SolveContext::unbounded())
        .expect("unbounded context never interrupts the decision")
}

/// [`decide_and_construct`] under an execution context (polled inside the
/// ILP search).
pub fn decide_and_construct_ctx(
    inst: &Instance,
    guess: Rational,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<Option<(NonPreemptiveSchedule, usize)>> {
    let scale = GuessScale::new(guess, params);
    let c_eff = inst.effective_class_slots();
    let m = inst.machines();

    let grouped = group_classes(inst, scale.small_threshold);

    // Rounded sizes of large-class grouped jobs; infeasible if any job cannot
    // fit below T̄ at all.
    let mut sizes_present: Vec<u64> = Vec::new();
    let mut per_class_jobs: BTreeMap<usize, Vec<(u64, usize)>> = BTreeMap::new();
    for class in grouped.iter().filter(|c| !c.small) {
        for (ji, gj) in class.jobs.iter().enumerate() {
            let units = scale.units_ceil(gj.size).max(1);
            if units > scale.tbar_units {
                return Ok(None);
            }
            sizes_present.push(units);
            per_class_jobs
                .entry(class.class)
                .or_default()
                .push((units, ji));
        }
    }
    sizes_present.sort_unstable();
    sizes_present.dedup();

    // Modules: non-empty multisets of rounded job sizes with total <= T̄.
    let modules: Vec<Config> =
        enumerate_configs_ctx(&sizes_present, scale.tbar_units, scale.tbar_units, ctx)?
            .into_iter()
            .filter(|module| module.count > 0)
            .collect();
    let mut module_sizes: Vec<u64> = modules.iter().map(|module| module.total).collect();
    module_sizes.sort_unstable();
    module_sizes.dedup();

    // Configurations: multisets of module sizes.
    let c_star = c_eff.min(scale.tbar_units);
    let configs = enumerate_configs_ctx(&module_sizes, scale.tbar_units, c_star, ctx)?;
    let mut groups: Vec<(u64, u64)> = configs.iter().map(Config::group).collect();
    groups.sort_unstable();
    groups.dedup();

    // Small classes on the fine grid δ²T / c.
    let fine_unit = Scalar::from(scale.unit) / Scalar::from(c_eff);
    let smalls: Vec<(usize, u64, Rational)> = grouped
        .iter()
        .filter(|c| c.small)
        .map(|c| {
            let load: Rational = c.jobs.iter().map(|j| j.size).sum();
            (
                c.class,
                (Scalar::from(load) / fine_unit).ceil() as u64,
                load,
            )
        })
        .collect();

    // Build the ILP.
    let mut ilp = IntProgram::new();
    let x: Vec<usize> = configs.iter().map(|_| ilp.add_var(0, m as i64)).collect();
    let mut w: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (&class, jobs) in &per_class_jobs {
        let max_modules = jobs.len() as i64;
        let vars = modules
            .iter()
            .map(|_| ilp.add_var(0, max_modules))
            .collect();
        w.insert(class, vars);
    }
    let mut z: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(class, _, _) in &smalls {
        let vars = groups.iter().map(|_| ilp.add_var(0, 1)).collect();
        z.insert(class, vars);
    }

    // (0) configurations = machines.
    ilp.add_eq(x.iter().map(|&v| (v, 1)).collect(), m as i64);
    // (1) configurations cover the chosen modules, by module size.
    for &q in &module_sizes {
        let mut terms: Vec<(usize, i64)> = configs
            .iter()
            .zip(&x)
            .filter(|(k, _)| k.multiplicity(q) > 0)
            .map(|(k, &v)| (v, k.multiplicity(q) as i64))
            .collect();
        for vars in w.values() {
            for (mi, module) in modules.iter().enumerate() {
                if module.total == q {
                    terms.push((vars[mi], -1));
                }
            }
        }
        ilp.add_eq(terms, 0);
    }
    // (4) the modules of a class cover its jobs, per rounded size.
    for (&class, jobs) in &per_class_jobs {
        let vars = &w[&class];
        for &p in &sizes_present {
            let demand = jobs.iter().filter(|&&(units, _)| units == p).count() as i64;
            let terms: Vec<(usize, i64)> = modules
                .iter()
                .enumerate()
                .filter(|(_, module)| module.multiplicity(p) > 0)
                .map(|(mi, module)| (vars[mi], module.multiplicity(p) as i64))
                .collect();
            if terms.is_empty() {
                if demand != 0 {
                    return Ok(None);
                }
                continue;
            }
            ilp.add_eq(terms, demand);
        }
    }
    // (5) every small class is assigned to exactly one group.
    for &(class, _, _) in &smalls {
        ilp.add_eq(z[&class].iter().map(|&v| (v, 1)).collect(), 1);
    }
    // (2) + (3) slot and space constraints per group.
    for (gi, &(h, b)) in groups.iter().enumerate() {
        let members: Vec<usize> = configs
            .iter()
            .enumerate()
            .filter(|(_, k)| k.group() == (h, b))
            .map(|(i, _)| i)
            .collect();
        let mut slot_terms: Vec<(usize, i64)> =
            smalls.iter().map(|&(u, _, _)| (z[&u][gi], 1)).collect();
        for &k in &members {
            slot_terms.push((x[k], -((c_eff - b) as i64)));
        }
        ilp.add_le(slot_terms, 0);
        let capacity_fine = ((scale.tbar_units - h) * c_eff) as i64;
        let mut space_terms: Vec<(usize, i64)> = smalls
            .iter()
            .map(|&(u, s, _)| (z[&u][gi], s as i64))
            .collect();
        for &k in &members {
            space_terms.push((x[k], -capacity_fine));
        }
        ilp.add_le(space_terms, 0);
    }

    let sol = match ilp.solve_ctx(ILP_NODE_BUDGET, ctx)? {
        IlpOutcome::Feasible(sol) => sol,
        IlpOutcome::Infeasible | IlpOutcome::Unknown => return Ok(None),
    };

    // ---- Construction (Figure 4: configurations → modules → jobs). ----
    // The construction keeps its Option-based control flow (a failed lookup
    // means "guess infeasible after all", not an interruption).
    let construct = || -> Option<(NonPreemptiveSchedule, usize)> {
        struct MachineState {
            slots: Vec<u64>,
            group: (u64, u64),
        }
        let mut machines: Vec<MachineState> = Vec::new();
        for (config, &xv) in configs.iter().zip(&x) {
            for _ in 0..sol[xv] {
                machines.push(MachineState {
                    slots: config.parts.clone(),
                    group: config.group(),
                });
            }
        }

        let mut assignment = vec![0u64; inst.num_jobs()];
        // Large classes: dissolve every chosen module into concrete grouped jobs.
        for (&class, jobs) in &per_class_jobs {
            let mut pool: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for &(units, ji) in jobs {
                pool.entry(units).or_default().push(ji);
            }
            let gclass: &GroupedClass = grouped.iter().find(|c| c.class == class).unwrap();
            let vars = &w[&class];
            for (mi, module) in modules.iter().enumerate() {
                for _ in 0..sol[vars[mi]] {
                    let machine_idx = machines
                        .iter()
                        .position(|ms| ms.slots.contains(&module.total))?;
                    let slot_pos = machines[machine_idx]
                        .slots
                        .iter()
                        .position(|&s| s == module.total)
                        .unwrap();
                    machines[machine_idx].slots.remove(slot_pos);
                    for &p in &module.parts {
                        let ji = pool.get_mut(&p)?.pop()?;
                        for &orig in &gclass.jobs[ji].jobs {
                            assignment[orig] = machine_idx as u64;
                        }
                    }
                }
            }
        }
        // Small classes: round robin inside every group.
        let mut by_group: BTreeMap<(u64, u64), Vec<(usize, Rational)>> = BTreeMap::new();
        for &(class, _, load) in &smalls {
            let gi = z[&class].iter().position(|&v| sol[v] == 1).unwrap();
            by_group.entry(groups[gi]).or_default().push((class, load));
        }
        for (group, mut classes) in by_group {
            let members: Vec<usize> = machines
                .iter()
                .enumerate()
                .filter(|(_, ms)| ms.group == group)
                .map(|(i, _)| i)
                .collect();
            if members.is_empty() {
                return None;
            }
            classes.sort_by_key(|&(_, load)| std::cmp::Reverse(load));
            for (pos, (class, _)) in classes.into_iter().enumerate() {
                let machine = members[pos % members.len()];
                for &job in inst.jobs_of_class(class) {
                    assignment[job] = machine as u64;
                }
            }
        }

        let schedule = NonPreemptiveSchedule::new(assignment);
        schedule.validate(inst).ok()?;
        Some((schedule, configs.len()))
    };
    Ok(construct())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splittable::guarantee_bound;
    use ccs_core::instance::instance_from_pairs;

    fn ptas(inst: &Instance, params: PtasParams) -> Result<PtasResult<NonPreemptiveSchedule>> {
        run(inst, params, &SolveContext::unbounded())
    }

    fn check(inst: &Instance, delta_inv: u64) -> PtasResult<NonPreemptiveSchedule> {
        let params = PtasParams::with_delta_inv(delta_inv).unwrap();
        let res = ptas(inst, params).unwrap();
        res.schedule.validate(inst).unwrap();
        let mk = res.schedule.makespan(inst);
        assert!(
            mk <= guarantee_bound(res.guess, params),
            "makespan {mk} exceeds the guarantee for guess {}",
            res.guess
        );
        res
    }

    #[test]
    fn balanced_identical_jobs() {
        let jobs: Vec<(u64, u32)> = (0..8).map(|_| (5, 0)).collect();
        let inst = instance_from_pairs(4, 1, &jobs).unwrap();
        let res = check(&inst, 2);
        // Optimum is 10; the PTAS with δ = 1/2 must stay within the coarse
        // (1 + O(δ)) window of it.
        assert!(res.schedule.makespan_int(&inst) <= 35);
    }

    #[test]
    fn matches_exact_optimum_within_guarantee() {
        let cases = [
            instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap(),
            instance_from_pairs(2, 1, &[(4, 0), (3, 0), (3, 1), (2, 1)]).unwrap(),
            instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 1), (4, 2), (3, 3)]).unwrap(),
        ];
        for inst in cases {
            let res = check(&inst, 2);
            let opt = ccs_exact::ExactNonPreemptive.solve(&inst).unwrap().makespan;
            // (1 + 5δ)(1 + δ) = 3.5 · 1.5 < 5.25 for δ = 1/2.
            let factor = Rational::new(21, 4);
            assert!(
                res.schedule.makespan(&inst) <= factor * opt,
                "makespan {} vs optimum {opt}",
                res.schedule.makespan(&inst)
            );
        }
    }

    #[test]
    fn small_classes_only() {
        let jobs: Vec<(u64, u32)> = (0..6).map(|i| (1, i as u32)).collect();
        let inst = instance_from_pairs(3, 2, &jobs).unwrap();
        check(&inst, 2);
    }

    #[test]
    fn rejects_too_many_machines_and_infeasible_instances() {
        let params = PtasParams::with_delta_inv(2).unwrap();
        let big = instance_from_pairs(1000, 2, &[(5, 0)]).unwrap();
        assert!(ptas(&big, params).is_err());
        let inf = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(ptas(&inf, params).is_err());
    }
}
