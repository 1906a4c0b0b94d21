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
use crate::config_ilp::{Certificate, ConfigIlp, LargeClass, Machines};
use crate::grid::{check_input, search};
use crate::params::PtasParams;
use crate::result::PtasResult;
use crate::scale::{group_classes, GroupedClass, GuessScale};
use ccs_approx::Nonpreemptive73Approx;
use ccs_core::{
    bounds, ClassId, Instance, NonPreemptiveSchedule, Rational, Result, Schedule, SolveContext,
    Solver,
};
use std::collections::BTreeMap;

/// The non-preemptive PTAS (Theorem 14) at the accuracy of its
/// [`PtasParams`] (the context is polled per guess and inside the
/// configuration-ILP search).
#[derive(Debug, Clone, Copy)]
pub struct NonpreemptivePtas {
    params: PtasParams,
}

ptas_solver!(
    NonpreemptivePtas,
    NonPreemptiveSchedule,
    "ptas-nonpreemptive",
    NonPreemptive
);

/// Runs the non-preemptive PTAS, keeping the accepted guess beside the
/// schedule.
fn run(
    inst: &Instance,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<PtasResult<NonPreemptiveSchedule>> {
    ctx.checkpoint()?;
    check_input(inst, "non-preemptive")?;

    let warm = Nonpreemptive73Approx.solve_ctx(inst, ctx)?;
    let lb = warm
        .lower_bound
        .max(Rational::from(bounds::nonpreemptive_lower_bound(inst)))
        .max(Rational::ONE);
    search(
        ctx,
        params,
        warm,
        lb,
        |guess| decide_and_construct_ctx(inst, guess, params, ctx),
        |_, built| built,
    )
}

/// Decides a guess and, if feasible, immediately constructs the schedule
/// (a guess whose certificate does not unfold is rejected).  A module
/// column is a multiset of rounded job sizes, and constraint (4) asks the
/// modules of every large class to hold its jobs, size by size.
fn decide_and_construct_ctx(
    inst: &Instance,
    guess: Rational,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<Option<(NonPreemptiveSchedule, usize)>> {
    let scale = GuessScale::new(guess, params);
    let grouped = group_classes(inst, scale.small_threshold);

    // Rounded sizes of large-class grouped jobs; infeasible if any job cannot
    // fit below T̄ at all.
    let mut sizes_present: Vec<u64> = Vec::new();
    let mut per_class_jobs: BTreeMap<ClassId, Vec<(u64, usize)>> = BTreeMap::new();
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
    // The terms of constraint (4) for every job size, in one pass over the
    // modules: the modules holding jobs of that size, with their number.
    // Only the right-hand side differs between classes.
    let mut holding: Vec<Vec<(usize, i64)>> = vec![Vec::new(); sizes_present.len()];
    for (column, module) in modules.iter().enumerate() {
        for (p, multiplicity) in module.runs() {
            let size = sizes_present.binary_search(&p);
            holding[size.expect("modules are built from the present sizes")]
                .push((column, multiplicity as i64));
        }
    }
    let large = per_class_jobs
        .iter()
        .map(|(&class, jobs)| LargeClass {
            class,
            bounds: vec![jobs.len() as i64; modules.len()],
            demand: sizes_present
                .iter()
                .zip(&holding)
                .map(|(&p, terms)| {
                    let jobs_of_size = jobs.iter().filter(|&&(units, _)| units == p).count();
                    (terms.clone(), jobs_of_size as i64)
                })
                .collect(),
        })
        .collect();
    let ilp = ConfigIlp {
        columns: modules.iter().map(|module| module.total).collect(),
        max_modules: inst.effective_class_slots().min(scale.tbar_units),
        large,
        small: grouped
            .iter()
            .filter(|c| c.small)
            .map(|c| c.class)
            .collect(),
    };
    let Some(cert) = ilp.decide(inst, &scale, ctx)? else {
        return Ok(None);
    };
    let schedule = construct(inst, &grouped, &per_class_jobs, &modules, &cert);
    Ok(schedule.map(|schedule| (schedule, cert.configs.len())))
}

/// Unfolds a certificate (Figure 4: configurations → modules → jobs) and
/// assigns the small classes round robin; `None` when a lookup fails, which
/// means the guess is infeasible after all.
fn construct(
    inst: &Instance,
    grouped: &[GroupedClass],
    per_class_jobs: &BTreeMap<ClassId, Vec<(u64, usize)>>,
    modules: &[Config],
    cert: &Certificate,
) -> Option<NonPreemptiveSchedule> {
    let mut machines = Machines::new(cert);
    let mut assignment = vec![0u64; inst.num_jobs()];
    // Large classes: dissolve every chosen module into concrete grouped jobs.
    for ((&class, jobs), (_, module_counts)) in per_class_jobs.iter().zip(&cert.large) {
        let mut pool: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for &(units, ji) in jobs {
            pool.entry(units).or_default().push(ji);
        }
        let gclass = grouped.iter().find(|c| c.class == class).unwrap();
        for (module, &count) in modules.iter().zip(module_counts) {
            for _ in 0..count {
                let machine = machines.take(module.total)?;
                for &p in &module.parts {
                    let ji = pool.get_mut(&p)?.pop()?;
                    for &orig in &gclass.jobs[ji].jobs {
                        assignment[orig] = machine as u64;
                    }
                }
            }
        }
    }
    // Small classes: whole, round robin within their group.
    for (class, machine) in machines.place_small(inst, &cert.small)? {
        for &job in inst.jobs_of_class(class) {
            assignment[job] = machine as u64;
        }
    }
    let schedule = NonPreemptiveSchedule::new(assignment);
    schedule.validate(inst).ok()?;
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splittable::tests::guarantee_bound;
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
