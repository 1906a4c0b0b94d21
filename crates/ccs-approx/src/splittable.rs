//! Algorithm 1 — the 2-approximation for the splittable case (Theorem 4).
//!
//! The algorithm guesses the optimal makespan with the advanced binary search
//! of Lemma 2, splits every class with `P_u > T` into `⌈P_u / T⌉` sub-classes
//! of load at most `T` and distributes all sub-classes as a whole over the
//! machines via round robin in non-ascending load order.  By Lemma 3 the
//! resulting makespan is at most `Σp/m + T ≤ LB + T ≤ 2·opt(I)`.
//!
//! The construction below emits the schedule in the *compact* encoding of
//! `ccs-core` (explicit machines plus [`ClassRun`]s), so both the running time
//! and the output length stay polynomial in `n` even when the number of
//! machines is exponential — exactly the refinement described at the end of
//! the proof of Theorem 4.

use crate::border_search::{self, BorderSearch};
use crate::chunking::{chunk_pieces, class_chunk_counts, Chunk};
use crate::result::ApproxResult;
use ccs_core::solver::{Guarantee, SolveReport, Solver};
use ccs_core::{
    bounds, CcsError, ClassRun, Instance, Rational, Result, ScheduleKind, SolveContext,
    SplittableSchedule,
};

/// Algorithm 1 of the paper: the splittable 2-approximation of Theorem 4
/// (including the compact output encoding for exponential `m`).
///
/// Fails only if the instance admits no feasible schedule at all
/// (`C > c·m`); the deadline / cancellation of the context is polled inside
/// the border search.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplittableTwoApprox;

impl Solver for SplittableTwoApprox {
    type Schedule = SplittableSchedule;

    fn name(&self) -> &'static str {
        "approx-splittable-2"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Splittable
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Factor(Rational::from_int(2))
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<SplittableSchedule>> {
        Ok(run(inst, ctx)?.into_report(inst))
    }
}

/// Runs Algorithm 1, keeping the accepted guess `T*` beside the schedule.
fn run(inst: &Instance, ctx: &SolveContext) -> Result<ApproxResult<SplittableSchedule>> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible(format!(
            "{} classes cannot fit into {} x {} class slots",
            inst.num_classes(),
            inst.machines(),
            inst.class_slots()
        )));
    }
    let lb = bounds::splittable_lower_bound(inst);
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

/// Builds the round-robin schedule for a given (feasible) guess `t`.
///
/// Sub-classes are ordered non-ascending by load: all full chunks (load
/// exactly `t`) first, then the remainder chunks sorted by load.  Sub-class
/// number `g` (0-based) is placed on machine `g mod m`.  Full chunks are
/// emitted as compact [`ClassRun`]s, remainder chunks explicitly.
pub fn build_schedule(inst: &Instance, t: Rational) -> SplittableSchedule {
    let m = inst.machines();
    let counts = class_chunk_counts(inst, t);

    let mut schedule = SplittableSchedule::new();

    // Global indices of the full chunks, class by class.
    let mut next_index: u64 = 0;
    for cc in &counts {
        if cc.full_chunks == 0 {
            continue;
        }
        // Local chunk j of this class has global index next_index + j and is
        // placed on machine (next_index + j) mod m.  Split the local range
        // into maximal segments that do not wrap around machine m - 1.
        let mut j: u64 = 0;
        while j < cc.full_chunks {
            let first_machine = (next_index + j) % m;
            let seg_len = (m - first_machine).min(cc.full_chunks - j);
            schedule.push_run(ClassRun {
                first_machine,
                count: seg_len,
                class: cc.class,
                offset: t * Rational::from(j),
                chunk: t,
            });
            j += seg_len;
        }
        next_index += cc.full_chunks;
    }

    // Remainder chunks (at most one per class), sorted non-ascending by load.
    let mut remainders: Vec<Chunk> = counts
        .iter()
        .filter(|cc| cc.remainder.is_positive())
        .map(|cc| Chunk {
            class: cc.class,
            offset: t * Rational::from(cc.full_chunks),
            len: cc.remainder,
        })
        .collect();
    remainders.sort_by(|a, b| b.len.cmp(&a.len).then(a.class.cmp(&b.class)));

    for chunk in &remainders {
        let machine = next_index % m;
        let pieces = chunk_pieces(inst, chunk)
            .into_iter()
            .map(|(job, amount, _)| (job, amount))
            .collect();
        schedule.push_explicit(machine, pieces);
        next_index += 1;
    }

    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Schedule;

    fn approx(inst: &Instance) -> Result<ApproxResult<SplittableSchedule>> {
        run(inst, &SolveContext::unbounded())
    }

    fn check(inst: &Instance) -> ApproxResult<SplittableSchedule> {
        let res = approx(inst).unwrap();
        res.schedule.validate(inst).unwrap();
        let makespan = res.schedule.makespan(inst);
        // Internal guarantee: makespan <= LB + T* <= 2 * max(LB, T*) <= 2 opt.
        assert!(
            makespan <= res.lower_bound + res.guess,
            "makespan {makespan} exceeds LB + T = {}",
            res.lower_bound + res.guess
        );
        assert!(makespan <= Rational::from_int(2) * res.optimum_lower_bound());
        res
    }

    #[test]
    fn single_class_single_machine() {
        let inst = instance_from_pairs(1, 1, &[(5, 0), (7, 0)]).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan(&inst), Rational::from_int(12));
    }

    #[test]
    fn perfectly_splittable_class() {
        // One class of load 100 over 4 machines with 1 slot each: optimum 25.
        let inst = instance_from_pairs(4, 1, &[(40, 0), (60, 0)]).unwrap();
        let res = check(&inst);
        let mk = res.schedule.makespan(&inst);
        assert_eq!(mk, Rational::from_int(25));
    }

    #[test]
    fn two_classes_one_slot_each() {
        let inst = instance_from_pairs(2, 1, &[(30, 0), (20, 1)]).unwrap();
        let res = check(&inst);
        // Classes cannot be split below the slot budget: T* = 30, schedule is
        // one class per machine, makespan 30.
        assert_eq!(res.schedule.makespan(&inst), Rational::from_int(30));
    }

    #[test]
    fn many_small_classes() {
        let jobs: Vec<(u64, u32)> = (0..30).map(|i| (1 + (i % 5) as u64, i as u32)).collect();
        let inst = instance_from_pairs(5, 7, &jobs).unwrap();
        check(&inst);
    }

    #[test]
    fn fractional_threshold_schedule_valid() {
        let inst = instance_from_pairs(3, 1, &[(10, 0), (10, 0), (1, 1), (1, 2)]).unwrap();
        check(&inst);
    }

    #[test]
    fn infeasible_instance_rejected() {
        // 4 classes, 1 machine with 2 slots -> infeasible.
        let inst = instance_from_pairs(1, 2, &[(1, 0), (1, 1), (1, 2), (1, 3)]).unwrap();
        assert!(approx(&inst).is_err());
    }

    #[test]
    fn exponential_number_of_machines() {
        let m: u64 = 1_000_000_000_000;
        let jobs: Vec<(u64, u32)> = (0..40)
            .map(|i| (1_000 + 13 * i as u64, (i % 7) as u32))
            .collect();
        let inst = instance_from_pairs(m, 2, &jobs).unwrap();
        let res = check(&inst);
        // Output must stay small even though ~10^12 machines receive load.
        assert!(res.schedule.encoding_size() <= 4 * inst.num_jobs() + 2 * inst.num_classes());
        // The makespan is tiny compared to any single job: classes are spread
        // over an enormous number of machines.
        assert!(res.schedule.makespan(&inst) <= Rational::from(inst.p_max()));
    }

    #[test]
    fn guess_never_exceeds_upper_bound() {
        let inst = instance_from_pairs(3, 2, &[(9, 0), (9, 1), (9, 2), (9, 3)]).unwrap();
        let res = check(&inst);
        assert!(res.guess <= bounds::splittable_upper_bound(&inst));
    }

    #[test]
    fn build_schedule_uses_round_robin_levels() {
        // 1 class of load 12 with T = 3 over 2 machines: 4 full chunks,
        // machines get 2 chunks each -> makespan 6 = LB + T/..., <= LB + T.
        let inst = instance_from_pairs(2, 3, &[(12, 0)]).unwrap();
        let s = build_schedule(&inst, Rational::from_int(3));
        s.validate(&inst).unwrap();
        assert_eq!(s.makespan(&inst), Rational::from_int(6));
    }

    #[test]
    fn deterministic_output() {
        let jobs: Vec<(u64, u32)> = (0..20).map(|i| (3 + i as u64, (i % 4) as u32)).collect();
        let inst = instance_from_pairs(4, 2, &jobs).unwrap();
        let a = approx(&inst).unwrap();
        let b = approx(&inst).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.guess, b.guess);
    }
}
