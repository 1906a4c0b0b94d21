//! Algorithm 1 + Algorithm 2 — the 2-approximation for the preemptive case
//! (Theorem 5).
//!
//! The preemptive algorithm reuses the splittable framework with two changes:
//!
//! 1. the lower bound is `LB = max(p_max, Σp/m)` so that a single job always
//!    fits below the guess, and
//! 2. after the round-robin distribution, the schedule of every machine is
//!    *repacked*: the largest sub-class stays at time 0 and everything above
//!    it is shifted to start at `T` (Algorithm 2).  Because every full chunk
//!    (load exactly `T`) is the first chunk of its machine — there are at most
//!    `Σp/T ≤ m` of them — pieces of a cut job end up either strictly below
//!    `T` or strictly at/above `T`, so no job runs in parallel with itself.

use crate::border_search::{self, BorderSearch};
use crate::chunking::{chunk_pieces, split_classes};
use crate::result::ApproxResult;
use crate::round_robin::descending_order;
use ccs_core::solver::{Guarantee, SolveReport, Solver};
use ccs_core::{
    bounds, CcsError, Instance, PreemptivePiece, PreemptiveSchedule, Rational, Result,
    ScheduleKind, SolveContext,
};

/// Algorithms 1+2 of the paper: the preemptive 2-approximation of
/// Theorem 5 (deadline / cancellation polled inside the border search).
#[derive(Debug, Clone, Copy, Default)]
pub struct PreemptiveTwoApprox;

impl Solver for PreemptiveTwoApprox {
    type Schedule = PreemptiveSchedule;

    fn name(&self) -> &'static str {
        "approx-preemptive-2"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Preemptive
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Factor(Rational::from_int(2))
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<PreemptiveSchedule>> {
        Ok(run(inst, ctx)?.into_report(inst))
    }
}

/// Runs Algorithms 1+2, keeping the accepted guess `T*` beside the schedule.
fn run(inst: &Instance, ctx: &SolveContext) -> Result<ApproxResult<PreemptiveSchedule>> {
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
    let lb = bounds::preemptive_lower_bound(inst);

    // With at least as many machines as jobs the optimum is p_max: schedule
    // every job alone (this also respects the class constraint trivially).
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
        return Ok(ApproxResult {
            schedule,
            guess: Rational::from(inst.p_max()),
            lower_bound: lb,
            search_iterations: 0,
        });
    }

    let BorderSearch {
        threshold,
        iterations,
    } = border_search::minimal_feasible_guess_ctx(inst, lb, ctx)?;
    ctx.checkpoint()?;
    let schedule = build_schedule(inst, threshold);
    Ok(ApproxResult {
        schedule,
        guess: threshold,
        lower_bound: lb,
        search_iterations: iterations,
    })
}

/// Builds the repacked round-robin schedule for a (feasible) guess `t ≥ LB`.
///
/// Requires `m ≤ n` (callers handle the other case directly) so that all
/// machines can be materialised explicitly.
pub fn build_schedule(inst: &Instance, t: Rational) -> PreemptiveSchedule {
    let m = inst.machines() as usize;
    let chunks = split_classes(inst, t);
    let weights: Vec<Rational> = chunks.iter().map(|c| c.len).collect();
    let order = descending_order(&weights);

    // Round robin: the chunk at position `pos` of the descending order goes to
    // machine `pos mod m`; remember the per-machine arrival order.
    let mut per_machine: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (pos, &chunk_idx) in order.iter().enumerate() {
        per_machine[pos % m].push(chunk_idx);
    }

    // Algorithm 2: repack only if some sub-class has load exactly `t`.
    let repack = chunks.iter().any(|c| c.len == t);

    let mut schedule = PreemptiveSchedule::with_machines(m);
    for (machine, chunk_ids) in per_machine.iter().enumerate() {
        let mut cursor = Rational::ZERO;
        for (slot, &chunk_idx) in chunk_ids.iter().enumerate() {
            let chunk = &chunks[chunk_idx];
            let start = if slot == 0 {
                Rational::ZERO
            } else if repack {
                cursor.max(t)
            } else {
                cursor
            };
            for (job, amount, offset_in_chunk) in chunk_pieces(inst, chunk) {
                schedule.push_piece(
                    machine,
                    PreemptivePiece::new(job, start + offset_in_chunk, amount),
                );
            }
            cursor = start + chunk.len;
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Schedule;

    fn approx(inst: &Instance) -> Result<ApproxResult<PreemptiveSchedule>> {
        run(inst, &SolveContext::unbounded())
    }

    fn check(inst: &Instance) -> ApproxResult<PreemptiveSchedule> {
        let res = approx(inst).unwrap();
        res.schedule.validate(inst).unwrap();
        let makespan = res.schedule.makespan(inst);
        assert!(
            makespan <= Rational::from_int(2) * res.optimum_lower_bound(),
            "makespan {makespan} exceeds 2 * {}",
            res.optimum_lower_bound()
        );
        res
    }

    #[test]
    fn more_machines_than_jobs_is_optimal() {
        let inst = instance_from_pairs(10, 1, &[(7, 0), (3, 1), (9, 2)]).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan(&inst), Rational::from_int(9));
        assert_eq!(res.search_iterations, 0);
    }

    #[test]
    fn single_machine() {
        let inst = instance_from_pairs(1, 2, &[(4, 0), (6, 1)]).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan(&inst), Rational::from_int(10));
    }

    #[test]
    fn repacking_keeps_job_pieces_sequential() {
        // One big class that must be split plus several small classes, few
        // machines: forces full chunks, cut jobs and repacking.
        let inst = instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 0), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap();
        let res = check(&inst);
        // Validation inside `check` already proves no job runs in parallel
        // with itself; additionally the makespan never exceeds 2 * guess.
        assert!(res.schedule.makespan(&inst) <= Rational::from_int(2) * res.guess);
    }

    #[test]
    fn heavily_cut_class() {
        // Single class far larger than the guess: many full chunks.
        let jobs: Vec<(u64, u32)> = (0..12).map(|_| (5, 0)).collect();
        let inst = instance_from_pairs(4, 3, &jobs).unwrap();
        check(&inst);
    }

    #[test]
    fn many_classes_tight_slots() {
        let jobs: Vec<(u64, u32)> = (0..24)
            .map(|i| (2 + (i % 4) as u64, (i % 8) as u32))
            .collect();
        let inst = instance_from_pairs(4, 2, &jobs).unwrap();
        check(&inst);
    }

    #[test]
    fn guess_at_least_pmax() {
        let inst = instance_from_pairs(2, 2, &[(100, 0), (1, 1), (1, 1), (1, 2)]).unwrap();
        let res = check(&inst);
        assert!(res.guess >= Rational::from_int(100));
    }

    #[test]
    fn infeasible_instance_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(approx(&inst).is_err());
    }

    #[test]
    fn no_full_chunk_means_no_repacking_gaps() {
        // All classes fit below the guess: the schedule is a plain stacking
        // and the makespan equals the largest machine load.
        let inst = instance_from_pairs(2, 3, &[(4, 0), (4, 1), (4, 2), (4, 3)]).unwrap();
        let res = check(&inst);
        let mk = res.schedule.makespan(&inst);
        let max_load = (0..res.schedule.num_machines())
            .map(|m| res.schedule.load_of_machine(m))
            .fold(Rational::ZERO, Rational::max);
        assert_eq!(mk, max_load);
    }

    #[test]
    fn deterministic_output() {
        let jobs: Vec<(u64, u32)> = (0..15).map(|i| (3 + i as u64, (i % 5) as u32)).collect();
        let inst = instance_from_pairs(4, 2, &jobs).unwrap();
        let a = approx(&inst).unwrap();
        let b = approx(&inst).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }
}
