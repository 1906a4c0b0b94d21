//! The 7/3-approximation for the non-preemptive case (Theorem 6).
//!
//! Jobs must be assigned as a whole, so a class with `P_u > T` cannot simply
//! be sliced.  Instead the algorithm computes a lower bound `C_u` on the
//! number of class slots any makespan-`T` schedule must spend on class `u`:
//!
//! * `C¹_u = ⌈P_u / T⌉` — the area argument, and
//! * `C²_u = k_u + ⌈ℓ_u / 2⌉` — a packing argument for the large jobs: the
//!   `k_u` jobs with `p_j > T/2` need distinct machines; of the jobs with
//!   `T/3 < p_j ≤ T/2` as many as possible are paired greedily (largest
//!   fitting first) on top of those, the remaining `ℓ_u` need `⌈ℓ_u/2⌉` more.
//!
//! The jobs of class `u` are then divided into `C_u = max(C¹_u, C²_u)` groups
//! with LPT and all groups are distributed round robin.  Each group load is at
//! most `(4/3)·T`, so the makespan is bounded by `Σp/m + (4/3)T ≤ (7/3)·opt`.
//! A standard integral binary search finds the smallest feasible guess `T`.
//!
//! Every guess is answered in integers from one sort per run: each class's
//! processing times, ascending, in one flat vector (`SortedClasses`).  For
//! integral `p` the cuts `p > T/2` and `p > T/3` are `p > ⌊T/2⌋` and
//! `p > ⌊T/3⌋`, so no `2·p` or `3·p` can overflow.  A class whose longest
//! job is at most `⌊T/3⌋` costs O(1) per guess (`C_u = C¹_u`); otherwise two
//! binary searches find its medium and large jobs and one pass counts the
//! greedy pairs.  Taken in ascending order, the large jobs have shrinking
//! free space `T − p`, so each takes the medium at index `min(last index that
//! fits, previous taken index − 1)`: a pointer that only moves down.
//! `SortedClasses` also drives the schedule build; a class with `C_u = 1`
//! is one group of its jobs in input order, with no LPT call.

use crate::lpt::{group_loads, lpt_assign};
use crate::result::ApproxResult;
use ccs_core::solver::{Guarantee, SolveReport, Solver};
use ccs_core::{
    bounds, CcsError, ClassId, Instance, NonPreemptiveSchedule, Rational, Result, ScheduleKind,
    SolveContext,
};

/// The non-preemptive 7/3-approximation of Theorem 6 (deadline /
/// cancellation polled per binary-search iteration).
#[derive(Debug, Clone, Copy, Default)]
pub struct Nonpreemptive73Approx;

impl Solver for Nonpreemptive73Approx {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "approx-nonpreemptive-7/3"
    }

    fn kind(&self) -> ScheduleKind {
        ScheduleKind::NonPreemptive
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Factor(Rational::new(7, 3))
    }

    fn solve_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<NonPreemptiveSchedule>> {
        Ok(run(inst, ctx)?.into_report(inst))
    }
}

/// Runs the 7/3-approximation, keeping the accepted guess `T` beside the
/// schedule.
fn run(inst: &Instance, ctx: &SolveContext) -> Result<ApproxResult<NonPreemptiveSchedule>> {
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
    let lb = bounds::nonpreemptive_lower_bound(inst);

    // With at least as many machines as jobs, one job per machine is optimal.
    if inst.machines() >= n as u64 {
        let assignment = (0..n as u64).collect();
        return Ok(ApproxResult {
            schedule: NonPreemptiveSchedule::new(assignment),
            guess: Rational::from(inst.p_max()),
            lower_bound: Rational::from(lb),
            search_iterations: 0,
        });
    }

    // Standard binary search over the integral makespan guess.
    let classes = SortedClasses::new(inst);
    let ub = bounds::sequential_upper_bound(inst);
    let mut lo = lb;
    let mut hi = ub;
    let mut iterations = 0usize;
    while lo < hi {
        ctx.checkpoint()?;
        let mid = lo + (hi - lo) / 2;
        iterations += 1;
        if classes.feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let t = lo;
    ctx.checkpoint()?;
    debug_assert!(classes.feasible(t));

    Ok(ApproxResult {
        schedule: classes.build_schedule(t),
        guess: Rational::from(t),
        lower_bound: Rational::from(lb),
        search_iterations: iterations,
    })
}

/// Each class's processing times sorted ascending, in one flat vector: all
/// that the feasibility test of a guess reads besides the class loads.
struct SortedClasses<'a> {
    inst: &'a Instance,
    /// The times of class `u` are `times[start[u]..start[u + 1]]`.
    times: Vec<u64>,
    start: Vec<usize>,
    p_max: u64,
    /// The slot budget `c·m` (with `c` the effective class slots).
    budget: u128,
}

impl<'a> SortedClasses<'a> {
    fn new(inst: &'a Instance) -> Self {
        let mut times = Vec::with_capacity(inst.num_jobs());
        let mut start = Vec::with_capacity(inst.num_classes() + 1);
        start.push(0);
        for class in 0..inst.num_classes() {
            let from = times.len();
            times.extend(
                inst.jobs_of_class(class)
                    .iter()
                    .map(|&job| inst.processing_time(job)),
            );
            times[from..].sort_unstable();
            start.push(times.len());
        }
        SortedClasses {
            inst,
            times,
            start,
            p_max: inst.p_max(),
            budget: inst.effective_class_slots() as u128 * inst.machines() as u128,
        }
    }

    /// The class-slot lower bound `C_u = max(C¹_u, C²_u)` for a guess `t`.
    fn slots(&self, class: ClassId, t: u64) -> u64 {
        let times = &self.times[self.start[class]..self.start[class + 1]];
        let area = self.inst.class_load(class).div_ceil(t);
        let third = t / 3;
        // Every job at most t/3: no large and no medium jobs.
        if times.last().is_some_and(|&p| p <= third) {
            return area;
        }
        // Medium jobs: t/3 < p <= t/2.  Large jobs: p > t/2.
        let medium_from = times.partition_point(|&p| p <= third);
        let large_from = medium_from + times[medium_from..].partition_point(|&p| p <= t / 2);
        let (medium, large) = times[medium_from..].split_at(large_from - medium_from);

        // Greedily place the largest fitting medium job on top of each large
        // job, the large jobs with the most free space first.  Mediums at
        // `open..` are taken or too long for every later large job.
        let mut open = medium.len();
        let mut paired = 0;
        for &big in large {
            let free = t.saturating_sub(big);
            while open > 0 && medium[open - 1] > free {
                open -= 1;
            }
            if open == 0 {
                break;
            }
            open -= 1;
            paired += 1;
        }
        let unpaired = (medium.len() - paired) as u64;
        area.max(large.len() as u64 + unpaired.div_ceil(2))
    }

    /// Returns `true` if the guess `t` passes the feasibility test of the
    /// algorithm: every job fits below `t` and the total number of class
    /// groups `Σ_u C_u` does not exceed the slot budget `c·m`.
    fn feasible(&self, t: u64) -> bool {
        if self.p_max > t {
            return false;
        }
        let mut total: u128 = 0;
        for class in 0..self.inst.num_classes() {
            total += self.slots(class, t) as u128;
            if total > self.budget {
                return false;
            }
        }
        true
    }

    /// Builds the schedule for a feasible guess `t`: LPT inside every class
    /// into `C_u` groups, then round robin of all groups in non-ascending
    /// load order (ties by group index; groups are numbered by class, then
    /// by LPT group, skipping empty ones).
    fn build_schedule(&self, t: u64) -> NonPreemptiveSchedule {
        let inst = self.inst;
        let mut group_of = vec![0usize; inst.num_jobs()];
        let mut loads: Vec<u64> = Vec::new();
        for class in 0..inst.num_classes() {
            let jobs = inst.jobs_of_class(class);
            let cu = self.slots(class, t) as usize;
            if cu == 1 {
                for &job in jobs {
                    group_of[job] = loads.len();
                }
                loads.push(inst.class_load(class));
                continue;
            }
            let weights: Vec<u64> = jobs.iter().map(|&j| inst.processing_time(j)).collect();
            let assignment = lpt_assign(&weights, cu);
            let mut index = vec![0usize; cu];
            for (g, load) in group_loads(&weights, &assignment, cu)
                .into_iter()
                .enumerate()
            {
                if load > 0 {
                    index[g] = loads.len();
                    loads.push(load);
                }
            }
            for (&job, &g) in jobs.iter().zip(&assignment) {
                group_of[job] = index[g];
            }
        }

        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.sort_unstable_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
        let mut machine_of = vec![0u64; loads.len()];
        for (pos, &group) in order.iter().enumerate() {
            machine_of[group] = pos as u64 % inst.machines();
        }
        NonPreemptiveSchedule::new(group_of.into_iter().map(|g| machine_of[g]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Schedule;

    /// The per-guess code this module replaced, kept verbatim as the oracle
    /// of the differential tests below: a fresh sort and pairing per class
    /// and guess, `2·p` / `3·p` comparisons (so its inputs stay small) and
    /// a `Rational` area bound.
    mod reference {
        use crate::lpt::{group_loads, lpt_assign};
        use crate::round_robin::descending_order;
        use ccs_core::{ClassId, Instance, JobId, NonPreemptiveSchedule, Rational};

        /// The class-slot lower bound `C_u = max(C¹_u, C²_u)` for a guess `t`.
        pub fn class_slot_lower_bound(inst: &Instance, class: ClassId, t: u64) -> u64 {
            let area = Rational::from(inst.class_load(class)).ceil_div(Rational::from(t)) as u64;

            // Large jobs: p > t/2 (exact integer comparison 2p > t).
            // Medium jobs: t/3 < p <= t/2 (3p > t and 2p <= t).
            let mut large: Vec<u64> = Vec::new();
            let mut medium: Vec<u64> = Vec::new();
            for &job in inst.jobs_of_class(class) {
                let p = inst.processing_time(job);
                if 2 * p > t {
                    large.push(p);
                } else if 3 * p > t {
                    medium.push(p);
                }
            }
            let k_u = large.len() as u64;

            // Greedily place the largest fitting medium job on top of each large job,
            // processing the large jobs with the most free space first.
            large.sort_unstable();
            medium.sort_unstable(); // ascending; we take from the back
            for &big in &large {
                let free = t.saturating_sub(big);
                // Largest medium with p <= free.
                if let Some(idx) = medium.iter().rposition(|&p| p <= free) {
                    medium.remove(idx);
                }
            }
            let l_u = medium.len() as u64;
            let packing = k_u + l_u.div_ceil(2);

            area.max(packing).max(1)
        }

        /// Returns `true` if the guess `t` passes the feasibility test of the
        /// algorithm: every job fits below `t` and the total number of class groups
        /// `Σ_u C_u` does not exceed the slot budget `c·m`.
        pub fn guess_is_feasible(inst: &Instance, t: u64) -> bool {
            if inst.p_max() > t {
                return false;
            }
            let budget = inst.effective_class_slots() as u128 * inst.machines() as u128;
            let mut total: u128 = 0;
            for class in 0..inst.num_classes() {
                total += class_slot_lower_bound(inst, class, t) as u128;
                if total > budget {
                    return false;
                }
            }
            true
        }

        /// Builds the schedule for a feasible guess `t`: LPT inside every class into
        /// `C_u` groups, then round robin of all groups in non-ascending load order.
        pub fn build_schedule(inst: &Instance, t: u64) -> NonPreemptiveSchedule {
            let m = inst.machines();

            // Build all groups: a group is a set of whole jobs of one class.
            let mut groups: Vec<Vec<JobId>> = Vec::new();
            let mut group_weights: Vec<Rational> = Vec::new();
            for class in 0..inst.num_classes() {
                let jobs = inst.jobs_of_class(class);
                let cu = class_slot_lower_bound(inst, class, t) as usize;
                let weights: Vec<u64> = jobs.iter().map(|&j| inst.processing_time(j)).collect();
                let assignment = lpt_assign(&weights, cu);
                let loads = group_loads(&weights, &assignment, cu);
                let mut class_groups: Vec<Vec<JobId>> = vec![Vec::new(); cu];
                for (pos, &job) in jobs.iter().enumerate() {
                    class_groups[assignment[pos]].push(job);
                }
                for (g, jobs_in_group) in class_groups.into_iter().enumerate() {
                    if !jobs_in_group.is_empty() {
                        groups.push(jobs_in_group);
                        group_weights.push(Rational::from(loads[g]));
                    }
                }
            }

            // Round robin of the groups in non-ascending load order.
            let order = descending_order(&group_weights);
            let mut assignment = vec![0u64; inst.num_jobs()];
            for (pos, &group_idx) in order.iter().enumerate() {
                let machine = (pos as u64) % m;
                for &job in &groups[group_idx] {
                    assignment[job] = machine;
                }
            }
            NonPreemptiveSchedule::new(assignment)
        }

        /// The binary search of the solver around the functions above:
        /// the accepted guess, the iteration count and the schedule.
        pub fn solve(inst: &Instance) -> (u64, usize, NonPreemptiveSchedule) {
            let mut lo = ccs_core::bounds::nonpreemptive_lower_bound(inst);
            let mut hi = ccs_core::bounds::sequential_upper_bound(inst);
            let mut iterations = 0;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                iterations += 1;
                if guess_is_feasible(inst, mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            (lo, iterations, build_schedule(inst, lo))
        }
    }

    fn approx(inst: &Instance) -> Result<ApproxResult<NonPreemptiveSchedule>> {
        run(inst, &SolveContext::unbounded())
    }

    fn check(inst: &Instance) -> ApproxResult<NonPreemptiveSchedule> {
        let res = approx(inst).unwrap();
        res.schedule.validate(inst).unwrap();
        let makespan = res.schedule.makespan(inst);
        assert!(
            makespan <= Rational::new(7, 3) * res.optimum_lower_bound(),
            "makespan {makespan} exceeds 7/3 * {}",
            res.optimum_lower_bound()
        );
        res
    }

    #[test]
    fn one_job_per_machine_when_many_machines() {
        let inst = instance_from_pairs(5, 1, &[(3, 0), (9, 1), (4, 2)]).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan_int(&inst), 9);
    }

    #[test]
    fn single_machine_takes_everything() {
        let inst = instance_from_pairs(1, 3, &[(3, 0), (9, 1), (4, 2)]).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan_int(&inst), 16);
    }

    #[test]
    fn identical_jobs_balanced() {
        let jobs: Vec<(u64, u32)> = (0..8).map(|_| (5, 0)).collect();
        let inst = instance_from_pairs(4, 1, &jobs).unwrap();
        let res = check(&inst);
        assert_eq!(res.schedule.makespan_int(&inst), 10);
    }

    #[test]
    fn class_slot_lower_bound_area() {
        // Class 0 with load 20, small jobs, T = 6: area bound ceil(20/6)=4.
        let inst = instance_from_pairs(4, 2, &[(5, 0), (5, 0), (5, 0), (5, 0)]).unwrap();
        assert_eq!(SortedClasses::new(&inst).slots(0, 6), 4);
    }

    #[test]
    fn class_slot_lower_bound_packing() {
        // T = 10, jobs 6,6,6 (all > T/2): k_u = 3; area = ceil(18/10) = 2.
        let inst = instance_from_pairs(4, 2, &[(6, 0), (6, 0), (6, 0)]).unwrap();
        assert_eq!(SortedClasses::new(&inst).slots(0, 10), 3);
    }

    #[test]
    fn class_slot_lower_bound_pairs_mediums_onto_larges() {
        // T = 12, jobs: 7 (> 6), 5 and 4 (mediums, > 4 and <= 6).
        // The medium 5 fits on top of 7 (7+5=12), 4 does not (7+4=11 <= 12 it
        // does fit!) — greedy takes the largest fitting, i.e. 5; remaining
        // medium 4 alone needs ceil(1/2)=1 more slot -> C2 = 2; area =
        // ceil(16/12) = 2.
        let inst = instance_from_pairs(4, 2, &[(7, 0), (5, 0), (4, 0)]).unwrap();
        assert_eq!(SortedClasses::new(&inst).slots(0, 12), 2);
    }

    #[test]
    fn mixed_classes_tight_slots() {
        let inst = instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 0), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap();
        check(&inst);
    }

    #[test]
    fn large_job_heavy_instance() {
        // Many jobs just above T/2 force the packing bound to matter.
        let jobs: Vec<(u64, u32)> = (0..10).map(|i| (11, (i % 2) as u32)).collect();
        let inst = instance_from_pairs(5, 2, &jobs).unwrap();
        check(&inst);
    }

    #[test]
    fn infeasible_instance_rejected() {
        let inst = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
        assert!(approx(&inst).is_err());
    }

    #[test]
    fn feasibility_is_monotone_on_examples() {
        let inst = instance_from_pairs(
            3,
            2,
            &[(7, 0), (8, 0), (9, 0), (5, 1), (4, 2), (3, 3), (6, 4)],
        )
        .unwrap();
        let classes = SortedClasses::new(&inst);
        let mut seen_feasible = false;
        for t in 1..=60u64 {
            let f = classes.feasible(t);
            if seen_feasible {
                assert!(f, "feasibility must not flip back at T = {t}");
            }
            seen_feasible |= f;
        }
        assert!(seen_feasible);
    }

    #[test]
    fn guess_bounded_by_lower_and_upper_bound() {
        let jobs: Vec<(u64, u32)> = (0..12).map(|i| (2 + i as u64, (i % 3) as u32)).collect();
        let inst = instance_from_pairs(4, 2, &jobs).unwrap();
        let res = check(&inst);
        assert!(res.guess >= Rational::from(bounds::nonpreemptive_lower_bound(&inst)));
        assert!(res.guess <= Rational::from(bounds::sequential_upper_bound(&inst)));
    }

    #[test]
    fn deterministic_output() {
        let jobs: Vec<(u64, u32)> = (0..20).map(|i| (3 + i as u64, (i % 6) as u32)).collect();
        let inst = instance_from_pairs(5, 2, &jobs).unwrap();
        let a = approx(&inst).unwrap();
        let b = approx(&inst).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn times_past_half_of_u64_are_cut_without_overflow() {
        // `2·p` overflows for this job: a debug build of the old code
        // panicked, a release build wrapped and misread the job's size.
        let inst =
            instance_from_pairs(2, 2, &[(9_300_000_000_000_000_000, 0), (1, 0), (5, 1)]).unwrap();
        let classes = SortedClasses::new(&inst);
        let t = 9_300_000_000_000_000_000;
        // The long job is large (it needs its own slot) and the unit job is
        // small, so the area bound ⌈(p + 1)/t⌉ = 2 decides.
        assert_eq!(classes.slots(0, t), 2);
        assert_eq!(classes.slots(1, t), 1);
        assert!(classes.feasible(t));
        assert!(!classes.feasible(t - 1));
        let res = check(&inst);
        assert_eq!(res.guess, Rational::from(t));
        assert_eq!(res.schedule.assignment(), &[0, 0, 1]);
        assert_eq!(res.schedule.makespan_int(&inst), t + 1);
    }

    /// Random small instances: 1–30 jobs with times up to 60 (so many jobs
    /// sit above `t/3` for the guesses that matter), 1–8 classes, 1–8
    /// machines and 1–3 slots.  Every other instance draws its times from
    /// three values, so that many jobs sit exactly on a cut.
    fn small_instances(count: usize) -> Vec<Instance> {
        let mut rng = ccs_gen::rng::Rng::seed_from_u64(0x7_3a99);
        (0..count)
            .map(|case| {
                let jobs = 1 + rng.below_usize(30);
                let classes = 1 + rng.below_u64(8);
                let machines = 1 + rng.below_u64(8);
                let slots = 1 + rng.below_u64(3);
                let palette = [0; 3].map(|_| 1 + rng.below_u64(60));
                let pairs: Vec<(u64, u32)> = (0..jobs)
                    .map(|_| {
                        let p = match case % 2 {
                            0 => 1 + rng.below_u64(60),
                            _ => palette[rng.below_usize(3)],
                        };
                        (p, rng.below_u64(classes) as u32)
                    })
                    .collect();
                instance_from_pairs(machines, slots, &pairs).unwrap()
            })
            .collect()
    }

    #[test]
    fn every_guess_matches_the_reference() {
        let mut feasible_guesses = 0;
        for (case, inst) in small_instances(400).iter().enumerate() {
            let classes = SortedClasses::new(inst);
            for t in 1..=inst.total_load() + 2 {
                for class in 0..inst.num_classes() {
                    assert_eq!(
                        classes.slots(class, t),
                        reference::class_slot_lower_bound(inst, class, t),
                        "case {case}, class {class}, t = {t}"
                    );
                }
                let feasible = classes.feasible(t);
                assert_eq!(
                    feasible,
                    reference::guess_is_feasible(inst, t),
                    "case {case}, t = {t}"
                );
                if feasible {
                    feasible_guesses += 1;
                    assert_eq!(
                        classes.build_schedule(t),
                        reference::build_schedule(inst, t),
                        "case {case}, t = {t}"
                    );
                }
            }
        }
        assert!(feasible_guesses > 10_000, "{feasible_guesses}");
    }

    #[test]
    fn whole_solves_match_the_reference_on_the_experiment_families() {
        type Family = fn(&ccs_gen::GenParams, u64) -> Instance;
        let families: [Family; 5] = [
            ccs_gen::uniform,
            ccs_gen::zipf_classes,
            ccs_gen::data_placement,
            ccs_gen::video_on_demand,
            ccs_gen::correlated,
        ];
        // (jobs, machines, classes, slots): many jobs per machine, few
        // (so the large/medium pairing decides), and the served 2000-job
        // shape.
        let shapes = [
            (100, 8, 20, 2),
            (100, 40, 30, 2),
            (400, 150, 60, 3),
            (700, 30, 90, 3),
            (2_000, 64, 160, 3),
        ];
        for (f, family) in families.iter().enumerate() {
            for (s, &(jobs, machines, classes, slots)) in shapes.iter().enumerate() {
                let params = ccs_gen::GenParams::new(jobs, machines, classes, slots);
                let inst = family(&params, (f * 10 + s) as u64);
                let res = approx(&inst).unwrap();
                let (guess, iterations, schedule) = reference::solve(&inst);
                assert_eq!(res.guess, Rational::from(guess), "family {f}, shape {s}");
                assert_eq!(res.search_iterations, iterations, "family {f}, shape {s}");
                assert_eq!(res.schedule, schedule, "family {f}, shape {s}");
            }
        }
    }
}
