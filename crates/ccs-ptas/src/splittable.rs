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

use crate::config_ilp::{Certificate, ConfigIlp, LargeClass, Machines};
use crate::grid::{check_input, search};
use crate::params::PtasParams;
use crate::result::PtasResult;
use crate::scale::GuessScale;
use ccs_approx::SplittableTwoApprox;
use ccs_core::{ClassId, Instance, Rational, Result, SolveContext, Solver, SplittableSchedule};

/// The splittable PTAS (Theorems 10/11) at the accuracy of its
/// [`PtasParams`].
///
/// The guess binary search and the configuration-ILP nodes poll the context
/// and abort with [`ccs_core::CcsError::DeadlineExceeded`] /
/// [`ccs_core::CcsError::Cancelled`] when its budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct SplittablePtas {
    params: PtasParams,
}

ptas_solver!(
    SplittablePtas,
    SplittableSchedule,
    "ptas-splittable",
    Splittable
);

/// Runs the splittable PTAS, keeping the accepted guess beside the schedule.
pub(crate) fn run(
    inst: &Instance,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<PtasResult<SplittableSchedule>> {
    ctx.checkpoint()?;
    check_input(inst, "splittable")?;

    // The 2-approximation provides the search window: its makespan is an upper
    // bound and its accepted guess / area bound a lower bound on the optimum.
    // The window is genuine on both sides — `lb` is reported as the result's
    // lower bound, so it must never be rounded up (a clamp to 1 here used to
    // claim lower bound 1 on instances whose splittable optimum is below 1,
    // e.g. one unit job on two machines; the `ccs-verify` certifier flags
    // that as a violation).  The grid stays short regardless: the
    // 2-approximation guarantees `ub / lb ≤ 4`.
    let warm = SplittableTwoApprox.solve_ctx(inst, ctx)?;
    let lb = warm.lower_bound;
    search(
        ctx,
        params,
        warm,
        lb,
        |guess| decide_ctx(inst, guess, params, ctx),
        |guess, cert| {
            let schedule = construct(inst, &GuessScale::new(guess, params), &cert);
            (schedule, cert.configs.len())
        },
    )
}

/// Decides feasibility of a guess by building and solving the (aggregated)
/// configuration ILP, polling `ctx` inside the ILP search.  Every large
/// class (load above `δT`) is cut into modules, one column per module size
/// `q ∈ [1/δ, T̄]` (units of `δ²T`), whose sizes add up to its rounded load.
pub(crate) fn decide_ctx(
    inst: &Instance,
    guess: Rational,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<Option<Certificate>> {
    let scale = GuessScale::new(guess, params);
    let columns: Vec<u64> = (scale.delta_inv..=scale.tbar_units).collect();
    let mut large = Vec::new();
    let mut small = Vec::new();
    for class in 0..inst.num_classes() {
        let load = Rational::from(inst.class_load(class));
        if load > scale.small_threshold {
            let demand = scale.units_ceil(load);
            large.push(LargeClass {
                class,
                bounds: columns
                    .iter()
                    .map(|&q| (demand / q.max(1)) as i64)
                    .collect(),
                demand: vec![(
                    columns.iter().map(|&q| q as i64).enumerate().collect(),
                    demand as i64,
                )],
            });
        } else {
            small.push(class);
        }
    }
    let max_modules = inst
        .effective_class_slots()
        .min(scale.tbar_units / scale.delta_inv);
    ConfigIlp {
        columns,
        max_modules,
        large,
        small,
    }
    .decide(inst, &scale, ctx)
}

/// Builds the schedule from a certificate (greedy slot filling + round robin
/// of the small classes), using the *original* processing times, which can
/// only reduce machine loads compared to the rounded certificate.
pub(crate) fn construct(
    inst: &Instance,
    scale: &GuessScale,
    cert: &Certificate,
) -> SplittableSchedule {
    let mut machines = Machines::new(cert);
    let mut schedule = SplittableSchedule::new();

    // Large classes: fill module slots of exactly the requested sizes with the
    // original class load, walking the class's canonical job order.
    for &(class, ref module_counts) in &cert.large {
        let mut cursor = Rational::ZERO;
        let class_load = Rational::from(inst.class_load(class));
        // Fill the largest modules first so any shortfall of the original
        // (un-rounded) load lands in the last, smallest module.
        let mut wanted: Vec<u64> = Vec::new();
        for (&size, &count) in cert.columns.iter().zip(module_counts) {
            wanted.extend(std::iter::repeat_n(size, count as usize));
        }
        wanted.sort_unstable_by(|a, b| b.cmp(a));
        for size in wanted {
            if cursor >= class_load {
                break;
            }
            let capacity = scale.unit * Rational::from(size);
            let amount = capacity.min(class_load - cursor);
            let machine = machines
                .take(size)
                .expect("constraint (1) guarantees a matching slot");
            let pieces = class_interval_pieces(inst, class, cursor, amount);
            schedule.push_explicit(machine as u64, pieces);
            cursor += amount;
        }
        debug_assert!(cursor >= class_load);
    }

    // Small classes: whole, round robin within their group.
    let placed = machines
        .place_small(inst, &cert.small)
        .expect("constraint (2) ensures group machines exist");
    for (class, machine) in placed {
        let pieces = inst
            .jobs_of_class(class)
            .iter()
            .map(|&j| (j, Rational::from(inst.processing_time(j))))
            .collect();
        schedule.push_explicit(machine as u64, pieces);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::{CcsError, Schedule};

    /// The guarantee every scheme's tests check: the makespan never exceeds
    /// `(1 + 8δ) · guess` (and the guess never exceeds `(1+δ)` times the
    /// smallest feasible guess, which is at most `(1 + O(δ)) · opt`).
    pub(crate) fn guarantee_bound(guess: Rational, params: PtasParams) -> Rational {
        guess
            * (Rational::ONE
                + Rational::new(PtasParams::ERROR_FACTOR as i128, params.delta_inv() as i128))
    }

    fn ptas(inst: &Instance, params: PtasParams) -> Result<PtasResult<SplittableSchedule>> {
        run(inst, params, &SolveContext::unbounded())
    }

    fn decide(inst: &Instance, guess: Rational, params: PtasParams) -> Option<Certificate> {
        decide_ctx(inst, guess, params, &SolveContext::unbounded()).unwrap()
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
                // The hint is consumed, as a hit or a miss, whenever there is
                // a grid to search; a one-point grid evaluates nothing.
                let searched = u64::from(cold.guesses_evaluated > 0);
                let snap = sink.snapshot();
                assert_eq!(snap.warm_hits + snap.warm_misses, searched, "hint {hint}");
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
