//! Non-preemptive schedules: every job runs on exactly one machine.

use super::{Schedule, ScheduleKind};
use crate::error::{CcsError, Result};
use crate::instance::{Instance, JobId};
use crate::rational::Rational;
use std::collections::{BTreeMap, BTreeSet};

/// A non-preemptive schedule `σ : J → M`, stored as the machine id of every
/// job.
///
/// Machine ids are arbitrary values in `0..m`; they do not have to be
/// contiguous, which allows algorithms to use only the first `min(n, m)`
/// machines when `m` is huge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonPreemptiveSchedule {
    assignment: Vec<u64>,
}

impl NonPreemptiveSchedule {
    /// Creates a schedule from a per-job machine assignment.
    pub fn new(assignment: Vec<u64>) -> Self {
        NonPreemptiveSchedule { assignment }
    }

    /// The machine executing `job`.
    pub fn machine_of(&self, job: JobId) -> u64 {
        self.assignment[job]
    }

    /// The full job → machine assignment.
    pub fn assignment(&self) -> &[u64] {
        &self.assignment
    }

    /// Number of jobs covered by this schedule.
    pub fn num_jobs(&self) -> usize {
        self.assignment.len()
    }

    /// The set of machines that execute at least one job.
    pub fn used_machines(&self) -> BTreeSet<u64> {
        self.assignment.iter().copied().collect()
    }

    /// Jobs grouped by machine, each group in job-id order.
    pub fn machine_contents(&self) -> BTreeMap<u64, Vec<JobId>> {
        let mut map: BTreeMap<u64, Vec<JobId>> = BTreeMap::new();
        for (job, &machine) in self.assignment.iter().enumerate() {
            map.entry(machine).or_default().push(job);
        }
        map
    }

    /// Load (total processing time) per used machine.
    pub fn machine_loads(&self, inst: &Instance) -> BTreeMap<u64, u64> {
        let mut loads: BTreeMap<u64, u64> = BTreeMap::new();
        for (job, &machine) in self.assignment.iter().enumerate() {
            *loads.entry(machine).or_default() += inst.processing_time(job);
        }
        loads
    }

    /// The makespan as a plain integer (non-preemptive makespans are always
    /// integral).
    ///
    /// With `m ≤ n` the loads are summed into a vector of `m` entries; the
    /// map of [`NonPreemptiveSchedule::machine_loads`] is kept for `m > n`,
    /// where `m` may be far too large to allocate, and for machine ids out
    /// of range.
    pub fn makespan_int(&self, inst: &Instance) -> u64 {
        let dense = usize::try_from(inst.machines())
            .ok()
            .filter(|&m| m <= self.assignment.len())
            .and_then(|m| {
                let mut loads = vec![0u64; m];
                for (job, &machine) in self.assignment.iter().enumerate() {
                    *loads.get_mut(usize::try_from(machine).ok()?)? += inst.processing_time(job);
                }
                loads.into_iter().max()
            });
        dense.unwrap_or_else(|| {
            self.machine_loads(inst)
                .values()
                .copied()
                .max()
                .unwrap_or(0)
        })
    }
}

impl Schedule for NonPreemptiveSchedule {
    fn kind(&self) -> ScheduleKind {
        ScheduleKind::NonPreemptive
    }

    fn validate(&self, inst: &Instance) -> Result<()> {
        if self.assignment.len() != inst.num_jobs() {
            return Err(CcsError::invalid_schedule(format!(
                "schedule assigns {} jobs, instance has {}",
                self.assignment.len(),
                inst.num_jobs()
            )));
        }
        let mut machine_classes: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        for (job, &machine) in self.assignment.iter().enumerate() {
            if machine >= inst.machines() {
                return Err(CcsError::invalid_schedule(format!(
                    "job {job} assigned to machine {machine}, only {} machines exist",
                    inst.machines()
                )));
            }
            machine_classes
                .entry(machine)
                .or_default()
                .insert(inst.class_of(job));
        }
        for (machine, classes) in &machine_classes {
            if classes.len() as u64 > inst.class_slots() {
                return Err(CcsError::invalid_schedule(format!(
                    "machine {machine} hosts {} classes, only {} class slots available",
                    classes.len(),
                    inst.class_slots()
                )));
            }
        }
        Ok(())
    }

    fn makespan(&self, inst: &Instance) -> Rational {
        Rational::from(self.makespan_int(inst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::instance_from_pairs;

    fn inst() -> Instance {
        // jobs: (10,c0) (20,c1) (5,c0) (8,c2), m=3, c=2
        instance_from_pairs(3, 2, &[(10, 0), (20, 1), (5, 0), (8, 2)]).unwrap()
    }

    #[test]
    fn valid_schedule_passes() {
        let s = NonPreemptiveSchedule::new(vec![0, 1, 0, 2]);
        s.validate(&inst()).unwrap();
        assert_eq!(s.makespan_int(&inst()), 20);
        assert_eq!(s.makespan(&inst()), Rational::from_int(20));
    }

    #[test]
    fn class_slot_violation_detected() {
        // machine 0 gets classes 0, 1, 2 -> more than 2 slots.
        let s = NonPreemptiveSchedule::new(vec![0, 0, 0, 0]);
        assert!(s.validate(&inst()).is_err());
    }

    #[test]
    fn same_class_does_not_consume_extra_slots() {
        let inst = instance_from_pairs(1, 1, &[(1, 7), (2, 7), (3, 7)]).unwrap();
        let s = NonPreemptiveSchedule::new(vec![0, 0, 0]);
        s.validate(&inst).unwrap();
        assert_eq!(s.makespan_int(&inst), 6);
    }

    #[test]
    fn unknown_machine_rejected() {
        let s = NonPreemptiveSchedule::new(vec![0, 1, 0, 5]);
        assert!(s.validate(&inst()).is_err());
    }

    #[test]
    fn wrong_number_of_jobs_rejected() {
        let s = NonPreemptiveSchedule::new(vec![0, 1]);
        assert!(s.validate(&inst()).is_err());
    }

    #[test]
    fn sparse_machine_ids_allowed() {
        let big = instance_from_pairs(1_000_000_000_000, 1, &[(4, 0), (9, 1)]).unwrap();
        let s = NonPreemptiveSchedule::new(vec![0, 999_999_999_999]);
        s.validate(&big).unwrap();
        assert_eq!(s.makespan_int(&big), 9);
        assert_eq!(s.used_machines().len(), 2);
    }

    #[test]
    fn makespan_sums_dense_and_sparse_ids_alike() {
        // m ≤ n with every id in range: the vector path.
        let inst = instance_from_pairs(2, 2, &[(4, 0), (9, 1), (3, 0)]).unwrap();
        assert_eq!(
            NonPreemptiveSchedule::new(vec![0, 1, 0]).makespan_int(&inst),
            9
        );
        assert_eq!(
            NonPreemptiveSchedule::new(vec![1, 1, 0]).makespan_int(&inst),
            13
        );
        // An id out of range (an invalid schedule) is still summed.
        let stray = NonPreemptiveSchedule::new(vec![0, 7, 7]);
        assert!(stray.validate(&inst).is_err());
        assert_eq!(stray.makespan_int(&inst), 12);
        // m > n: the map, however large m is.
        let wide = instance_from_pairs(u64::MAX, 2, &[(4, 0), (9, 1), (3, 0)]).unwrap();
        let s = NonPreemptiveSchedule::new(vec![u64::MAX - 1, 5, u64::MAX - 1]);
        assert_eq!(s.makespan_int(&wide), 9);
    }

    #[test]
    fn machine_contents_and_loads() {
        let s = NonPreemptiveSchedule::new(vec![0, 1, 0, 2]);
        let contents = s.machine_contents();
        assert_eq!(contents[&0], vec![0, 2]);
        assert_eq!(contents[&1], vec![1]);
        let loads = s.machine_loads(&inst());
        assert_eq!(loads[&0], 15);
        assert_eq!(loads[&2], 8);
        assert_eq!(s.kind(), ScheduleKind::NonPreemptive);
    }
}
