//! The exact splittable / preemptive solvers: optima with witness schedules.
//!
//! [`crate::splittable_optimum`] only reports the optimal *value*; a
//! [`Solver`] must return an actual schedule.  This module turns
//! the optimal machine/class *structure* found by the enumeration into an
//! explicit schedule:
//!
//! 1. distribute the class loads over the machines allowed by the structure
//!    with a small exact-rational max-flow (classes → machines, machine
//!    capacity `T`); the flow saturates all class loads because `T` equals
//!    the Hall-condition optimum `max_S Σ_{u∈S} P_u / |N(S)|`,
//! 2. slice every class's load interval `[0, P_u)` (jobs in canonical order)
//!    into the per-machine amounts, yielding explicit `(job, amount)` pieces,
//! 3. for the preemptive model, feed the resulting job × machine work matrix
//!    to the open-shop timetabling of `flownet` (Gonzalez–Sahni), which
//!    serialises the pieces so no job overlaps itself.

use crate::splittable::splittable_optimum_structure;
use ccs_core::solver::{Guarantee, SolveReport, SolveStats, Solver, SolverCost};
use ccs_core::{
    CcsError, Instance, PreemptivePiece, PreemptiveSchedule, Rational, Result, Schedule,
    ScheduleKind, SolveContext, SplittableSchedule,
};
use flownet::open_shop_timetable;

/// Machine limit for the unconstrained (`c ≥ C`) witness case, where the
/// structure enumeration is skipped but explicit machines must still be
/// materialised.
const MAX_WITNESS_MACHINES: u64 = 8;

/// Class limit for the unconstrained witness case: class sets are encoded as
/// `u32` bitmasks, so more than 31 classes cannot be represented (and the
/// dense-matrix flow network would degrade anyway).
const MAX_WITNESS_CLASSES: usize = 31;

/// Structure-enumeration exact solver for the splittable model (instances
/// up to 6 classes / 4 machines).
///
/// Subject to the same size limits as [`crate::splittable_optimum`]; in the
/// unconstrained case (`c ≥ C`) the limit is `m ≤ 8` machines because the
/// witness must list every machine explicitly.  The context is polled inside
/// the structure enumeration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSplittable;

impl Solver for ExactSplittable {
    type Schedule = SplittableSchedule;

    fn name(&self) -> &'static str {
        "exact-splittable"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Splittable
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
    ) -> Result<SolveReport<SplittableSchedule>> {
        let (optimum, structure) = optimum_and_structure(inst, ctx)?;
        ctx.checkpoint()?;
        let assignment = distribute(inst, &structure, optimum)?;
        let schedule = explicit_schedule(inst, &assignment);
        schedule.validate(inst)?;
        Ok(SolveReport {
            schedule,
            makespan: optimum,
            lower_bound: optimum,
            stats: SolveStats::default(),
        })
    }
}

/// Exact solver for the preemptive model (same size limits as
/// [`ExactSplittable`]).
///
/// The optimum equals `max(p_max, opt_splittable)`; the witness distributes
/// the class loads with machine capacity `T = max(p_max, opt_splittable)`
/// and serialises the fractional assignment into a timetable of exactly that
/// length via open-shop scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactPreemptive;

impl Solver for ExactPreemptive {
    type Schedule = PreemptiveSchedule;

    fn name(&self) -> &'static str {
        "exact-preemptive"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::Preemptive
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
    ) -> Result<SolveReport<PreemptiveSchedule>> {
        let (split_opt, structure) = optimum_and_structure(inst, ctx)?;
        let optimum = split_opt.max(Rational::from(inst.p_max()));
        ctx.checkpoint()?;
        let assignment = distribute(inst, &structure, optimum)?;

        let m = structure.len();
        // Job × machine work matrix for the open-shop serialisation.
        let mut work = vec![vec![Rational::ZERO; m]; inst.num_jobs()];
        for (machine, pieces) in assignment.iter().enumerate() {
            for &(job, amount) in pieces {
                work[job][machine] += amount;
            }
        }
        let (pieces, length) = open_shop_timetable(&work);
        let mut machines: Vec<Vec<PreemptivePiece>> = vec![Vec::new(); m];
        for (job, machine, start, len) in pieces {
            machines[machine].push(PreemptivePiece::new(job, start, len));
        }
        let schedule = PreemptiveSchedule::new(machines);
        schedule.validate(inst)?;
        debug_assert_eq!(length, optimum);
        Ok(SolveReport {
            schedule,
            makespan: optimum,
            lower_bound: optimum,
            stats: SolveStats::default(),
        })
    }
}

/// The optimal splittable makespan and a witness structure, covering both the
/// enumerated case and the unconstrained `c ≥ C` shortcut.
fn optimum_and_structure(inst: &Instance, ctx: &SolveContext) -> Result<(Rational, Vec<u32>)> {
    ctx.checkpoint()?;
    if !inst.is_feasible() {
        return Err(CcsError::infeasible("more classes than class slots"));
    }
    let num_classes = inst.num_classes();
    if inst.effective_class_slots() as usize >= num_classes {
        if inst.machines() > MAX_WITNESS_MACHINES {
            return Err(CcsError::invalid_parameter(format!(
                "exact witness limited to {MAX_WITNESS_MACHINES} machines"
            )));
        }
        if num_classes > MAX_WITNESS_CLASSES {
            return Err(CcsError::invalid_parameter(format!(
                "exact witness limited to {MAX_WITNESS_CLASSES} classes"
            )));
        }
        let full = (1u32 << num_classes) - 1;
        let structure = vec![full; inst.machines() as usize];
        return Ok((inst.average_load(), structure));
    }
    splittable_optimum_structure(inst, ctx)
}

/// Distributes every class's load over the machines its structure mask
/// allows, with per-machine capacity `cap`, returning explicit
/// `(job, amount)` pieces per machine.
fn distribute(
    inst: &Instance,
    structure: &[u32],
    cap: Rational,
) -> Result<Vec<Vec<(usize, Rational)>>> {
    let num_classes = inst.num_classes();
    let m = structure.len();

    // Max-flow network: 0 = source, 1..=C classes, C+1..=C+m machines, last
    // node = sink.
    let nodes = 1 + num_classes + m + 1;
    let source = 0;
    let sink = nodes - 1;
    let class_node = |u: usize| 1 + u;
    let machine_node = |i: usize| 1 + num_classes + i;

    let mut flow = DenseFlow::new(nodes);
    for u in 0..num_classes {
        flow.set_cap(source, class_node(u), Rational::from(inst.class_load(u)));
    }
    for (i, &mask) in structure.iter().enumerate() {
        for u in 0..num_classes {
            if mask & (1 << u) != 0 {
                // The class→machine edge only needs to carry what both ends
                // allow; `cap` is a valid bound.
                flow.set_cap(class_node(u), machine_node(i), cap);
            }
        }
        flow.set_cap(machine_node(i), sink, cap);
    }
    let value = flow.max_flow(source, sink);
    if value != Rational::from(inst.total_load()) {
        return Err(CcsError::internal(
            "optimal makespan does not admit a feasible distribution",
        ));
    }

    // Per-class machine shares, then sliced along the canonical job order.
    let mut machines: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); m];
    for u in 0..num_classes {
        let shares: Vec<(usize, Rational)> = (0..m)
            .filter_map(|i| {
                let f = flow.flow_on(class_node(u), machine_node(i));
                f.is_positive().then_some((i, f))
            })
            .collect();
        // Walk the class's jobs and the machine shares in lockstep, cutting
        // the load interval [0, P_u) into job pieces.
        let mut jobs = inst
            .jobs_of_class(u)
            .iter()
            .map(|&j| (j, Rational::from(inst.processing_time(j))));
        let Some((mut job, mut job_left)) = jobs.next() else {
            continue;
        };
        for (machine, mut share) in shares {
            while share.is_positive() {
                let piece = share.min(job_left);
                if piece.is_positive() {
                    machines[machine].push((job, piece));
                }
                share -= piece;
                job_left -= piece;
                if !job_left.is_positive() {
                    match jobs.next() {
                        Some((j, p)) => {
                            job = j;
                            job_left = p;
                        }
                        None => break,
                    }
                }
            }
        }
    }
    Ok(machines)
}

fn explicit_schedule(_inst: &Instance, machines: &[Vec<(usize, Rational)>]) -> SplittableSchedule {
    SplittableSchedule::from_explicit(machines.to_vec())
}

/// A tiny dense-matrix max-flow (Edmonds–Karp) over exact rationals; the
/// witness networks have at most `1 + C + m + 1 ≤ 16` nodes, so the O(V³E)
/// worst case is irrelevant.
struct DenseFlow {
    n: usize,
    /// Residual capacities.
    residual: Vec<Vec<Rational>>,
    /// Original capacities (to read off final flows).
    original: Vec<Vec<Rational>>,
}

impl DenseFlow {
    fn new(n: usize) -> Self {
        DenseFlow {
            n,
            residual: vec![vec![Rational::ZERO; n]; n],
            original: vec![vec![Rational::ZERO; n]; n],
        }
    }

    fn set_cap(&mut self, from: usize, to: usize, cap: Rational) {
        self.residual[from][to] = cap;
        self.original[from][to] = cap;
    }

    /// Flow pushed over the directed edge `from → to`.
    fn flow_on(&self, from: usize, to: usize) -> Rational {
        (self.original[from][to] - self.residual[from][to]).max(Rational::ZERO)
    }

    fn max_flow(&mut self, source: usize, sink: usize) -> Rational {
        let mut total = Rational::ZERO;
        loop {
            // BFS for a shortest augmenting path.
            let mut parent = vec![usize::MAX; self.n];
            parent[source] = source;
            let mut queue = std::collections::VecDeque::from([source]);
            while let Some(u) = queue.pop_front() {
                for (v, p) in parent.iter_mut().enumerate() {
                    if *p == usize::MAX && self.residual[u][v].is_positive() {
                        *p = u;
                        queue.push_back(v);
                    }
                }
            }
            if parent[sink] == usize::MAX {
                return total;
            }
            // Bottleneck and augmentation.
            let mut bottleneck: Option<Rational> = None;
            let mut v = sink;
            while v != source {
                let u = parent[v];
                let r = self.residual[u][v];
                bottleneck = Some(match bottleneck {
                    Some(b) => b.min(r),
                    None => r,
                });
                v = u;
            }
            let push = bottleneck.expect("sink reached, path exists");
            let mut v = sink;
            while v != source {
                let u = parent[v];
                self.residual[u][v] -= push;
                self.residual[v][u] += push;
                v = u;
            }
            total += push;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;

    fn splittable_witness(inst: &Instance) -> Result<(Rational, SplittableSchedule)> {
        let report = ExactSplittable.solve(inst)?;
        Ok((report.makespan, report.schedule))
    }

    fn preemptive_witness(inst: &Instance) -> Result<(Rational, PreemptiveSchedule)> {
        let report = ExactPreemptive.solve(inst)?;
        Ok((report.makespan, report.schedule))
    }

    #[test]
    fn splittable_witness_achieves_the_optimum() {
        for (m, c, jobs) in [
            (2u64, 1u64, vec![(7u64, 0u32), (9, 1), (3, 0)]),
            (3, 1, vec![(5, 0), (5, 1), (5, 2), (9, 0)]),
            (3, 2, vec![(4, 0), (8, 1), (2, 2), (6, 3)]),
            (3, 1, vec![(10, 0)]),
            (2, 2, vec![(12, 0), (6, 1), (2, 2)]),
        ] {
            let inst = instance_from_pairs(m, c, &jobs).unwrap();
            let value = crate::splittable_optimum(&inst).unwrap();
            let (opt, schedule) = splittable_witness(&inst).unwrap();
            assert_eq!(opt, value);
            schedule.validate(&inst).unwrap();
            assert_eq!(schedule.makespan(&inst), opt);
        }
    }

    #[test]
    fn unconstrained_case_reaches_area_bound() {
        let inst = instance_from_pairs(2, 2, &[(4, 0), (6, 1)]).unwrap();
        let (opt, schedule) = splittable_witness(&inst).unwrap();
        assert_eq!(opt, Rational::from_int(5));
        assert_eq!(schedule.makespan(&inst), opt);
    }

    #[test]
    fn preemptive_witness_achieves_the_optimum() {
        for (m, c, jobs) in [
            (3u64, 1u64, vec![(10u64, 0u32), (2, 1), (2, 2)]),
            (1, 1, vec![(10, 0), (10, 0), (10, 0)]),
            (2, 1, vec![(7, 0), (9, 1), (3, 0)]),
            (3, 2, vec![(4, 0), (8, 1), (2, 2), (6, 3)]),
        ] {
            let inst = instance_from_pairs(m, c, &jobs).unwrap();
            let value = crate::preemptive_optimum(&inst).unwrap();
            let (opt, schedule) = preemptive_witness(&inst).unwrap();
            assert_eq!(opt, value);
            schedule.validate(&inst).unwrap();
            assert_eq!(schedule.makespan(&inst), opt);
        }
    }

    #[test]
    fn witness_rejects_oversized_unconstrained_instances() {
        let inst = instance_from_pairs(1 << 20, 2, &[(5, 0), (5, 1)]).unwrap();
        assert!(splittable_witness(&inst).is_err());
        // The value-only solver still handles it via the shortcut.
        assert!(crate::splittable_optimum(&inst).is_ok());
    }

    #[test]
    fn witness_rejects_more_classes_than_mask_bits() {
        // 40 distinct classes with c >= C: the value-only shortcut works,
        // but the u32 class masks of the witness cannot represent it.
        let jobs: Vec<(u64, u32)> = (0..40).map(|i| (1, i)).collect();
        let inst = instance_from_pairs(2, 40, &jobs).unwrap();
        assert!(crate::splittable_optimum(&inst).is_ok());
        assert!(matches!(
            splittable_witness(&inst),
            Err(CcsError::InvalidParameter(_))
        ));
        assert!(preemptive_witness(&inst).is_err());
        // 31 classes still fit the mask and produce a valid witness.
        let jobs: Vec<(u64, u32)> = (0..31).map(|i| (1, i)).collect();
        let inst = instance_from_pairs(2, 31, &jobs).unwrap();
        let (opt, schedule) = splittable_witness(&inst).unwrap();
        schedule.validate(&inst).unwrap();
        assert_eq!(opt, inst.average_load());
    }

    #[test]
    fn infeasible_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(splittable_witness(&inst).is_err());
        assert!(preemptive_witness(&inst).is_err());
    }

    #[test]
    fn dense_flow_basic() {
        let mut f = DenseFlow::new(4);
        f.set_cap(0, 1, Rational::new(3, 2));
        f.set_cap(0, 2, Rational::from_int(2));
        f.set_cap(1, 3, Rational::from_int(1));
        f.set_cap(2, 3, Rational::from_int(4));
        assert_eq!(f.max_flow(0, 3), Rational::from_int(3));
        assert_eq!(f.flow_on(1, 3), Rational::ONE);
    }
}
