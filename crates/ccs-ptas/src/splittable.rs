//! The PTAS for the splittable case (Section 4.1, Theorems 10 and 11).
//!
//! For a guess `T` the jobs of each class are fused into a single splittable
//! job of load `P_u`; classes with `P_u > δT` are *large*, the others *small*.
//! A well-structured schedule cuts every large class into *modules* — pieces
//! of size `≥ δT` that are multiples of `δ²T` — and assigns every machine a
//! *configuration* (multiset of module sizes of total at most `T̄` and
//! cardinality at most `c*`).  Small classes are assigned, whole, to machines
//! grouped by their configuration size/slot pair `(h, b)`.  Feasibility of a
//! guess is exactly the feasibility of the configuration ILP of the paper; the
//! certificate is turned back into a schedule by greedy slot filling plus
//! round robin of the small classes.

use crate::config::{enumerate_configs_ctx, Config};
use crate::ilp::{IlpOutcome, IntProgram};
use crate::params::PtasParams;
use crate::result::PtasResult;
use crate::scale::GuessScale;
use ccs_approx::SplittableTwoApprox;
use ccs_core::solver::{Guarantee, SolveReport, Solver, SolverCost};
use ccs_core::{
    CcsError, ClassId, Instance, Rational, Result, Scalar, ScheduleKind, SolveContext,
    SplittableSchedule,
};
use std::collections::BTreeMap;

/// Practical limit on the number of machines: the configuration ILP branches
/// on per-configuration counts up to `m`.  For larger machine counts use the
/// 2-approximation of `ccs-approx`, which handles exponentally many machines.
pub const MAX_MACHINES: u64 = 64;

/// Node budget for the configuration ILP search (per guess).
const ILP_NODE_BUDGET: usize = 2_000_000;

/// The certificate of a feasible guess.
#[derive(Debug, Clone)]
pub struct SplitCertificate {
    /// Enumerated configurations.
    pub configs: Vec<Config>,
    /// Chosen multiplicity of every configuration (sums to `m`).
    pub config_counts: Vec<u64>,
    /// Module sizes (units of `δ²T`).
    pub module_sizes: Vec<u64>,
    /// For every large class: number of modules of each size (indexed like
    /// `module_sizes`).
    pub large_modules: BTreeMap<ClassId, Vec<u64>>,
    /// For every small class: the group `(h, b)` it is assigned to.
    pub small_groups: BTreeMap<ClassId, (u64, u64)>,
}

/// The splittable PTAS (Theorems 10/11) at the accuracy of its
/// [`PtasParams`].
///
/// The guess binary search and the configuration-ILP nodes poll the context
/// and abort with [`CcsError::DeadlineExceeded`] / [`CcsError::Cancelled`]
/// when its budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct SplittablePtas {
    params: PtasParams,
}

ptas_common!(SplittablePtas);

impl Solver for SplittablePtas {
    type Schedule = SplittableSchedule;

    fn name(&self) -> &'static str {
        "ptas-splittable"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Splittable
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
    ) -> Result<SolveReport<SplittableSchedule>> {
        Ok(run(inst, self.params, ctx)?.into_report(inst))
    }
}

/// Runs the splittable PTAS, keeping the accepted guess beside the schedule.
fn run(
    inst: &Instance,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<PtasResult<SplittableSchedule>> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible("more classes than class slots"));
    }
    if inst.machines() > MAX_MACHINES {
        return Err(CcsError::invalid_parameter(format!(
            "splittable PTAS supports at most {MAX_MACHINES} machines; use ccs-approx for larger m"
        )));
    }

    // The 2-approximation provides the search window: its makespan is an upper
    // bound and its accepted guess / area bound a lower bound on the optimum.
    // The window is genuine on both sides — `lb` is reported as the result's
    // lower bound, so it must never be rounded up (a clamp to 1 here used to
    // claim lower bound 1 on instances whose splittable optimum is below 1,
    // e.g. one unit job on two machines; the `ccs-verify` certifier flags
    // that as a violation).  The grid stays short regardless: the
    // 2-approximation guarantees `ub / lb ≤ 4`.
    let warm = SplittableTwoApprox.solve_ctx(inst, ctx)?;
    let ub = warm.makespan;
    let lb = warm.lower_bound;
    let delta = Rational::new(1, params.delta_inv as i128);

    // Geometric guess grid lb·(1+δ)^k, binary searched for the smallest
    // feasible guess.
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
            decide_ctx(inst, grid[index], params, ctx)
        })?;

    match best {
        Some((idx, cert)) => {
            let guess = grid[idx];
            let scale = GuessScale::new(guess, params);
            let schedule = construct(inst, &scale, &cert);
            let configurations = cert.configs.len();
            Ok(PtasResult {
                schedule,
                guess,
                lower_bound: lb,
                guesses_evaluated: evaluated,
                configurations,
            })
        }
        None => {
            // Defensive fallback: the upper-bound guess should always be
            // feasible; if the solver gave up (node budget) fall back to the
            // 2-approximation so callers still obtain a feasible schedule.
            Ok(PtasResult {
                schedule: warm.schedule,
                guess: ub,
                lower_bound: lb,
                guesses_evaluated: evaluated,
                configurations: 0,
            })
        }
    }
}

/// Decides feasibility of a guess by building and solving the (aggregated)
/// configuration ILP.  Public so the benchmark harness can exercise single
/// guesses.
pub fn decide(inst: &Instance, guess: Rational, params: PtasParams) -> Option<SplitCertificate> {
    decide_ctx(inst, guess, params, &SolveContext::unbounded())
        .expect("unbounded context never interrupts the decision")
}

/// [`decide`] under an execution context (polled inside the ILP search).
pub fn decide_ctx(
    inst: &Instance,
    guess: Rational,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<Option<SplitCertificate>> {
    let scale = GuessScale::new(guess, params);
    let c_eff = inst.effective_class_slots();
    let m = inst.machines();
    let c_star = c_eff.min(scale.tbar_units / scale.delta_inv);

    let module_sizes: Vec<u64> = (scale.delta_inv..=scale.tbar_units).collect();
    let configs = enumerate_configs_ctx(&module_sizes, scale.tbar_units, c_star, ctx)?;

    // Classify classes.
    let mut large: Vec<(ClassId, u64)> = Vec::new(); // (class, demand in units)
    let mut small: Vec<(ClassId, u64)> = Vec::new(); // (class, load in units of δ²T/c)
    for class in 0..inst.num_classes() {
        let load = Rational::from(inst.class_load(class));
        if load > scale.small_threshold {
            large.push((class, scale.units_ceil(load)));
        } else {
            // Small loads are measured on the finer grid δ²T/c_eff so that the
            // space constraint (3) stays integral (the paper's scaling).
            let fine_unit = Scalar::from(scale.unit) / Scalar::from(c_eff);
            small.push((class, (Scalar::from(load) / fine_unit).ceil() as u64));
        }
    }

    // Groups (h, b) present among the configurations.
    let mut groups: Vec<(u64, u64)> = configs.iter().map(Config::group).collect();
    groups.sort_unstable();
    groups.dedup();

    // Build the ILP.
    let mut ilp = IntProgram::new();
    let x: Vec<usize> = configs.iter().map(|_| ilp.add_var(0, m as i64)).collect();
    let mut y: BTreeMap<ClassId, Vec<usize>> = BTreeMap::new();
    for &(class, demand) in &large {
        let vars = module_sizes
            .iter()
            .map(|&q| ilp.add_var(0, (demand / q.max(1)) as i64))
            .collect();
        y.insert(class, vars);
    }
    let mut z: BTreeMap<ClassId, Vec<usize>> = BTreeMap::new();
    for &(class, _) in &small {
        let vars = groups.iter().map(|_| ilp.add_var(0, 1)).collect();
        z.insert(class, vars);
    }

    // (0) number of configurations = number of machines.
    ilp.add_eq(x.iter().map(|&v| (v, 1)).collect(), m as i64);
    // (1) chosen configurations cover exactly the chosen modules.
    for (qi, &q) in module_sizes.iter().enumerate() {
        let mut terms: Vec<(usize, i64)> = configs
            .iter()
            .zip(&x)
            .filter(|(k, _)| k.multiplicity(q) > 0)
            .map(|(k, &v)| (v, k.multiplicity(q) as i64))
            .collect();
        for vars in y.values() {
            terms.push((vars[qi], -1));
        }
        ilp.add_eq(terms, 0);
    }
    // (4) modules cover the demand of every large class exactly.
    for &(class, demand) in &large {
        let vars = &y[&class];
        let terms = module_sizes
            .iter()
            .enumerate()
            .map(|(qi, &q)| (vars[qi], q as i64))
            .collect();
        ilp.add_eq(terms, demand as i64);
    }
    // (5) every small class goes to exactly one group.
    for &(class, _) in &small {
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
        // (2): Σ_u z_u,g ≤ (c - b) Σ x_K
        let mut slot_terms: Vec<(usize, i64)> =
            small.iter().map(|&(u, _)| (z[&u][gi], 1)).collect();
        for &k in &members {
            slot_terms.push((x[k], -((c_eff - b) as i64)));
        }
        ilp.add_le(slot_terms, 0);
        // (3): Σ_u s_u z_u,g ≤ (T̄ - h) Σ x_K, measured on the δ²T/c grid.
        let capacity_fine = ((scale.tbar_units - h) * c_eff) as i64;
        let mut space_terms: Vec<(usize, i64)> =
            small.iter().map(|&(u, s)| (z[&u][gi], s as i64)).collect();
        for &k in &members {
            space_terms.push((x[k], -capacity_fine));
        }
        ilp.add_le(space_terms, 0);
    }

    Ok(match ilp.solve_ctx(ILP_NODE_BUDGET, ctx)? {
        IlpOutcome::Feasible(sol) => {
            let config_counts = x.iter().map(|&v| sol[v] as u64).collect();
            let large_modules = y
                .iter()
                .map(|(&class, vars)| (class, vars.iter().map(|&v| sol[v] as u64).collect()))
                .collect();
            let small_groups = z
                .iter()
                .map(|(&class, vars)| {
                    let gi = vars
                        .iter()
                        .position(|&v| sol[v] == 1)
                        .expect("constraint (5)");
                    (class, groups[gi])
                })
                .collect();
            Some(SplitCertificate {
                configs,
                config_counts,
                module_sizes,
                large_modules,
                small_groups,
            })
        }
        IlpOutcome::Infeasible | IlpOutcome::Unknown => None,
    })
}

/// Builds the schedule from a certificate (greedy slot filling + round robin
/// of the small classes), using the *original* processing times, which can
/// only reduce machine loads compared to the rounded certificate.
pub fn construct(
    inst: &Instance,
    scale: &GuessScale,
    cert: &SplitCertificate,
) -> SplittableSchedule {
    // Materialise machines from configurations.
    struct MachineState {
        slots: Vec<u64>, // module sizes still open
        group: (u64, u64),
    }
    let mut machines: Vec<MachineState> = Vec::new();
    for (config, &count) in cert.configs.iter().zip(&cert.config_counts) {
        for _ in 0..count {
            machines.push(MachineState {
                slots: config.parts.clone(),
                group: config.group(),
            });
        }
    }

    let mut schedule = SplittableSchedule::new();

    // Large classes: fill module slots of exactly the requested sizes with the
    // original class load, walking the class's canonical job order.
    for (&class, module_counts) in &cert.large_modules {
        // Remaining original load of the class and a cursor into its canonical
        // job layout.
        let mut cursor = Rational::ZERO;
        let class_load = Rational::from(inst.class_load(class));
        // Fill the largest modules first so any shortfall of the original
        // (un-rounded) load lands in the last, smallest module.
        let mut wanted: Vec<u64> = Vec::new();
        for (qi, &count) in module_counts.iter().enumerate() {
            for _ in 0..count {
                wanted.push(cert.module_sizes[qi]);
            }
        }
        wanted.sort_unstable_by(|a, b| b.cmp(a));
        for size in wanted {
            if cursor >= class_load {
                break;
            }
            let capacity = scale.unit * Rational::from(size);
            let amount = capacity.min(class_load - cursor);
            // Find a machine with an open slot of this size.
            let machine_idx = machines
                .iter()
                .position(|ms| ms.slots.contains(&size))
                .expect("constraint (1) guarantees a matching slot");
            let slot_pos = machines[machine_idx]
                .slots
                .iter()
                .position(|&s| s == size)
                .expect("slot present");
            machines[machine_idx].slots.remove(slot_pos);
            let pieces = class_interval_pieces(inst, class, cursor, amount);
            schedule.push_explicit(machine_idx as u64, pieces);
            cursor += amount;
        }
        debug_assert!(cursor >= class_load);
    }

    // Small classes: per group, round robin in non-ascending load order over
    // the machines of that group.
    let mut by_group: BTreeMap<(u64, u64), Vec<ClassId>> = BTreeMap::new();
    for (&class, &group) in &cert.small_groups {
        by_group.entry(group).or_default().push(class);
    }
    for (group, mut classes) in by_group {
        let members: Vec<usize> = machines
            .iter()
            .enumerate()
            .filter(|(_, ms)| ms.group == group)
            .map(|(i, _)| i)
            .collect();
        debug_assert!(
            !members.is_empty(),
            "constraint (2) ensures group machines exist"
        );
        classes.sort_by_key(|&u| std::cmp::Reverse(inst.class_load(u)));
        for (pos, class) in classes.into_iter().enumerate() {
            let machine = members[pos % members.len()];
            let pieces = inst
                .jobs_of_class(class)
                .iter()
                .map(|&j| (j, Rational::from(inst.processing_time(j))))
                .collect();
            schedule.push_explicit(machine as u64, pieces);
        }
    }
    schedule
}

/// The `(job, amount)` pieces covering `[start, start + amount)` of the
/// canonical load interval of `class`.
fn class_interval_pieces(
    inst: &Instance,
    class: ClassId,
    start: Rational,
    amount: Rational,
) -> Vec<(usize, Rational)> {
    let lo = start;
    let hi = start + amount;
    let mut pieces = Vec::new();
    let mut cursor = Rational::ZERO;
    for &job in inst.jobs_of_class(class) {
        let p = Rational::from(inst.processing_time(job));
        let job_lo = cursor;
        let job_hi = cursor + p;
        let ov_lo = job_lo.max(lo);
        let ov_hi = job_hi.min(hi);
        if ov_hi > ov_lo {
            pieces.push((job, ov_hi - ov_lo));
        }
        cursor = job_hi;
        if job_lo >= hi {
            break;
        }
    }
    pieces
}

/// The guarantee check used by tests and the harness: the makespan never
/// exceeds `(1 + 8δ) · guess` (and the guess never exceeds `(1+δ)` times the
/// smallest feasible guess, which is at most `(1 + O(δ)) · opt`).
pub fn guarantee_bound(guess: Rational, params: PtasParams) -> Rational {
    guess
        * (Rational::ONE
            + Rational::new(PtasParams::ERROR_FACTOR as i128, params.delta_inv as i128))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Schedule;

    fn ptas(inst: &Instance, params: PtasParams) -> Result<PtasResult<SplittableSchedule>> {
        run(inst, params, &SolveContext::unbounded())
    }

    fn check(inst: &Instance, delta_inv: u64) -> PtasResult<SplittableSchedule> {
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
    fn warm_hints_never_change_the_result() {
        let cases = [
            instance_from_pairs(2, 1, &[(30, 0), (20, 1)]).unwrap(),
            instance_from_pairs(2, 2, &[(12, 0), (6, 1), (2, 2)]).unwrap(),
            instance_from_pairs(3, 1, &[(10, 0), (9, 1), (8, 2)]).unwrap(),
            instance_from_pairs(4, 2, &[(7, 0), (8, 0), (9, 1), (5, 2), (3, 3)]).unwrap(),
        ];
        let params = PtasParams::with_delta_inv(4).unwrap();
        for inst in &cases {
            let cold = ptas(inst, params).unwrap();
            let hints = [
                cold.guess,
                cold.lower_bound,
                cold.guess * Rational::from_int(2),
                Rational::ZERO,
            ];
            for hint in hints {
                let sink = std::sync::Arc::new(ccs_core::StatsSink::default());
                let ctx = SolveContext::unbounded()
                    .with_stats(std::sync::Arc::clone(&sink))
                    .with_warm(ccs_core::WarmHint { makespan: hint });
                let warm = run(inst, params, &ctx).unwrap();
                // Bit-identical payload; only the probe counter may differ.
                assert_eq!(warm.schedule, cold.schedule, "hint {hint}");
                assert_eq!(warm.guess, cold.guess, "hint {hint}");
                assert_eq!(warm.lower_bound, cold.lower_bound, "hint {hint}");
                assert_eq!(warm.configurations, cold.configurations, "hint {hint}");
                let snap = sink.snapshot();
                assert_eq!(snap.warm_hits + snap.warm_misses, 1, "hint {hint}");
            }
        }
    }

    #[test]
    fn single_class_two_machines() {
        let inst = instance_from_pairs(2, 1, &[(8, 0), (8, 0)]).unwrap();
        let res = check(&inst, 2);
        // Optimum is 8 (split the class across both machines).
        assert!(res.schedule.makespan(&inst) <= Rational::from_int(16));
    }

    #[test]
    fn matches_exact_optimum_within_guarantee() {
        let cases = [
            instance_from_pairs(2, 1, &[(30, 0), (20, 1)]).unwrap(),
            instance_from_pairs(2, 2, &[(12, 0), (6, 1), (2, 2)]).unwrap(),
            instance_from_pairs(3, 1, &[(10, 0), (9, 1), (8, 2)]).unwrap(),
        ];
        for inst in cases {
            let res = check(&inst, 4);
            let opt = ccs_exact::splittable_optimum(&inst).unwrap();
            let params = PtasParams::with_delta_inv(4).unwrap();
            let factor = Rational::ONE + Rational::new(2 * PtasParams::ERROR_FACTOR as i128, 4);
            assert!(
                res.schedule.makespan(&inst) <= factor * opt,
                "makespan {} vs optimum {opt}",
                res.schedule.makespan(&inst)
            );
            let _ = params;
        }
    }

    #[test]
    fn finer_delta_never_hurts_quality() {
        let inst =
            instance_from_pairs(3, 2, &[(9, 0), (7, 0), (5, 1), (4, 2), (3, 3), (8, 4)]).unwrap();
        let coarse = check(&inst, 2).schedule.makespan(&inst);
        let fine = check(&inst, 4).schedule.makespan(&inst);
        assert!(fine <= coarse * Rational::new(3, 2));
    }

    #[test]
    fn small_classes_only() {
        let jobs: Vec<(u64, u32)> = (0..6).map(|i| (1, i as u32)).collect();
        let inst = instance_from_pairs(3, 2, &jobs).unwrap();
        check(&inst, 2);
    }

    #[test]
    fn rejects_too_many_machines() {
        let inst = instance_from_pairs(1000, 2, &[(5, 0)]).unwrap();
        let params = PtasParams::with_delta_inv(2).unwrap();
        assert!(matches!(
            ptas(&inst, params),
            Err(CcsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn infeasible_instance_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        let params = PtasParams::with_delta_inv(2).unwrap();
        assert!(ptas(&inst, params).is_err());
    }

    #[test]
    fn decide_accepts_generous_guess_and_rejects_tiny_guess() {
        let inst = instance_from_pairs(2, 1, &[(30, 0), (20, 1)]).unwrap();
        let params = PtasParams::with_delta_inv(2).unwrap();
        assert!(decide(&inst, Rational::from_int(60), params).is_some());
        // At guess 3 even the inflated capacity (1+4δ)·3 cannot hold both
        // classes within the two available class slots.
        assert!(decide(&inst, Rational::from_int(3), params).is_none());
    }
}
