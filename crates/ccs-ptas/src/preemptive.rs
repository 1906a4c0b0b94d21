//! The PTAS for the preemptive case (Section 4.3, Theorem 19).
//!
//! The preemptive case combines the splittable machinery with the requirement
//! that pieces of one job never run in parallel.  The implementation follows
//! the paper's pipeline — guess, simplify, decide via the configuration ILP,
//! reconstruct — with one engineering substitution documented in `DESIGN.md`:
//! instead of materialising the layer-indexed variables `a^u_{p,ℓ}` of the
//! paper's N-fold, the per-machine amounts certified by the configuration ILP
//! are serialised with the open-shop decomposition of
//! [`flownet::openshop`] (the constructive counterpart of the flow argument of
//! Lemma 16): the resulting timetable has length
//! `max(machine loads, p_max) ≤ T̄ + δT` and never runs a job in parallel with
//! itself, which is exactly the guarantee the paper's construction provides.

use crate::params::PtasParams;
use crate::result::PtasResult;
use crate::scale::GuessScale;
use crate::splittable::decide_ctx;
use ccs_approx::PreemptiveTwoApprox;
use ccs_core::solver::{Guarantee, SolveReport, Solver, SolverCost};
use ccs_core::{
    bounds, CcsError, Instance, PreemptivePiece, PreemptiveSchedule, Rational, Result, Schedule,
    ScheduleKind, SolveContext,
};

/// Practical limit on the number of machines (see the splittable PTAS).
pub const MAX_MACHINES: u64 = 64;

/// The preemptive PTAS (Theorem 19) at the accuracy of its [`PtasParams`]
/// (the context is polled per guess and inside the configuration-ILP
/// search).
#[derive(Debug, Clone, Copy)]
pub struct PreemptivePtas {
    params: PtasParams,
}

ptas_common!(PreemptivePtas);

impl Solver for PreemptivePtas {
    type Schedule = PreemptiveSchedule;

    fn name(&self) -> &'static str {
        "ptas-preemptive"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Preemptive
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
    ) -> Result<SolveReport<PreemptiveSchedule>> {
        Ok(run(inst, self.params, ctx)?.into_report(inst))
    }
}

/// Runs the preemptive PTAS, keeping the accepted guess beside the schedule.
fn run(
    inst: &Instance,
    params: PtasParams,
    ctx: &SolveContext,
) -> Result<PtasResult<PreemptiveSchedule>> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible("more classes than class slots"));
    }
    let n = inst.num_jobs();

    // One job per machine is optimal whenever enough machines exist.
    if inst.machines() >= n as u64 {
        let mut schedule = PreemptiveSchedule::with_machines(n);
        for job in 0..n {
            schedule.push_piece(
                job,
                PreemptivePiece::new(
                    job,
                    Rational::ZERO,
                    Rational::from(inst.processing_time(job)),
                ),
            );
        }
        return Ok(PtasResult {
            schedule,
            guess: Rational::from(inst.p_max()),
            lower_bound: Rational::from(inst.p_max()),
            guesses_evaluated: 0,
            configurations: 0,
        });
    }
    if inst.machines() > MAX_MACHINES {
        return Err(CcsError::invalid_parameter(format!(
            "preemptive PTAS supports at most {MAX_MACHINES} machines; use ccs-approx for larger m"
        )));
    }

    let warm = PreemptiveTwoApprox.solve_ctx(inst, ctx)?;
    let ub = warm.makespan;
    let lb = warm
        .lower_bound
        .max(bounds::preemptive_lower_bound(inst))
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
            let attempt = decide_ctx(inst, grid[index], params, ctx)?.map(|cert| {
                let scale = GuessScale::new(grid[index], params);
                let configurations = cert.configs.len();
                (construct(inst, &scale, &cert), configurations)
            });
            // A guess only counts as feasible when its reconstruction round-trips
            // through the validator, exactly as the sequential search required.
            Ok(attempt.filter(|(schedule, _)| schedule.validate(inst).is_ok()))
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

/// Serialises the splittable certificate into a preemptive schedule.
fn construct(
    inst: &Instance,
    scale: &GuessScale,
    cert: &crate::splittable::SplitCertificate,
) -> PreemptiveSchedule {
    // Reuse the splittable construction to get per-machine fractional amounts
    // (the certificate's machine count is exactly m ≤ MAX_MACHINES, so the
    // schedule is fully explicit).
    let split = crate::splittable::construct(inst, scale, cert);
    let machines: u64 = cert.config_counts.iter().sum();
    let mut amounts = vec![vec![Rational::ZERO; machines as usize]; inst.num_jobs()];
    for em in split.explicit() {
        for &(job, amount) in &em.pieces {
            amounts[job][em.machine as usize] += amount;
        }
    }
    let (pieces, _d) = flownet::open_shop_timetable(&amounts);
    let mut schedule = PreemptiveSchedule::with_machines(machines as usize);
    for (job, machine, start, len) in pieces {
        schedule.push_piece(machine, PreemptivePiece::new(job, start, len));
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splittable::guarantee_bound;
    use ccs_core::instance::instance_from_pairs;

    fn ptas(inst: &Instance, params: PtasParams) -> Result<PtasResult<PreemptiveSchedule>> {
        run(inst, params, &SolveContext::unbounded())
    }

    fn check(inst: &Instance, delta_inv: u64) -> PtasResult<PreemptiveSchedule> {
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
    fn more_machines_than_jobs_is_optimal() {
        let inst = instance_from_pairs(5, 1, &[(4, 0), (9, 1)]).unwrap();
        let res = check(&inst, 2);
        assert_eq!(res.schedule.makespan(&inst), Rational::from_int(9));
    }

    #[test]
    fn single_large_class_split_without_self_overlap() {
        let inst = instance_from_pairs(2, 1, &[(6, 0), (6, 0), (4, 0)]).unwrap();
        let res = check(&inst, 2);
        // Optimum is 8 (preemptive), the coarse PTAS stays within its window.
        assert!(res.schedule.makespan(&inst) <= Rational::from_int(8 * 4));
    }

    #[test]
    fn matches_exact_optimum_within_guarantee() {
        let cases = [
            instance_from_pairs(2, 1, &[(30, 0), (20, 1)]).unwrap(),
            instance_from_pairs(2, 2, &[(12, 0), (6, 1), (2, 2)]).unwrap(),
            instance_from_pairs(3, 1, &[(10, 0), (9, 1), (8, 2)]).unwrap(),
        ];
        for inst in cases {
            let res = check(&inst, 2);
            let opt = ccs_exact::preemptive_optimum(&inst).unwrap();
            // (1 + 5δ)(1 + δ) < 5.25 for δ = 1/2.
            let factor = Rational::new(21, 4);
            assert!(
                res.schedule.makespan(&inst) <= factor * opt,
                "makespan {} vs optimum {opt}",
                res.schedule.makespan(&inst)
            );
        }
    }

    #[test]
    fn mixed_instance_valid() {
        let inst = instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 0), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap();
        check(&inst, 2);
    }

    #[test]
    fn rejects_infeasible() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        let params = PtasParams::with_delta_inv(2).unwrap();
        assert!(ptas(&inst, params).is_err());
    }
}
