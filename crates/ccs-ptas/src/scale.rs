//! Shared preprocessing: the scaled grid of a makespan guess and the grouping
//! of small jobs (Section 4 of the paper).

use crate::params::PtasParams;
use ccs_core::{ClassId, Instance, JobId, Rational, Scalar};

/// The scaled view of a makespan guess `T`.
#[derive(Debug, Clone)]
pub(crate) struct GuessScale {
    /// `1/δ`.
    pub(crate) delta_inv: u64,
    /// `δ²T` — the unit in which module sizes are measured.
    pub(crate) unit: Rational,
    /// `δT` — the threshold separating small from large.
    pub(crate) small_threshold: Rational,
    /// `T̄` in units of `δ²T`: `(1 + 4δ)/δ² = (1/δ)² + 4·(1/δ)`.
    pub(crate) tbar_units: u64,
}

impl GuessScale {
    /// Creates the scale for guess `t`.
    pub(crate) fn new(t: Rational, params: PtasParams) -> Self {
        let d = params.delta_inv();
        let unit = t / Rational::from(d * d);
        GuessScale {
            delta_inv: d,
            unit,
            small_threshold: t / Rational::from(d),
            tbar_units: d * d + 4 * d,
        }
    }

    /// `⌈x / δ²T⌉` — a quantity rounded up to grid units.
    pub(crate) fn units_ceil(&self, x: Rational) -> u64 {
        // Hot in the large-class rounding of every `decide` probe: the
        // two-tier `Scalar` path trades the gcd-normalising rational
        // division for a checked multiply + Euclidean division.
        let u = Scalar::from(x).ceil_div(Scalar::from(self.unit));
        u.max(0) as u64
    }

    /// `⌈x / (δ²T/c)⌉` — a small class's load on the finer grid `δ²T/c`,
    /// on which the space constraint (3) stays integral (the paper's
    /// scaling).
    pub(crate) fn fine_units_ceil(&self, x: Rational, class_slots: u64) -> u64 {
        let fine_unit = Scalar::from(self.unit) / Scalar::from(class_slots);
        (Scalar::from(x) / fine_unit).ceil() as u64
    }
}

/// A job of the grouped instance `I'`: one or more original jobs of the same
/// class fused together (Section 4.2 / 4.3 preprocessing).
#[derive(Debug, Clone)]
pub(crate) struct GroupedJob {
    /// The original jobs fused into this one.
    pub(crate) jobs: Vec<JobId>,
    /// Total original processing time.
    pub(crate) size: Rational,
}

/// A class of the grouped instance: either *small* (exactly one grouped job of
/// size at most `δT`) or *large* (every grouped job larger than `δT`).
#[derive(Debug, Clone)]
pub(crate) struct GroupedClass {
    /// The class.
    pub(crate) class: ClassId,
    /// Its grouped jobs.
    pub(crate) jobs: Vec<GroupedJob>,
    /// `true` if the class is small.
    pub(crate) small: bool,
}

/// Groups the jobs of every class so that each class becomes either small or
/// large (the preprocessing of Lemma 12 / Lemma 15): jobs smaller than `δT`
/// are repeatedly fused into packages of size in `[δT, 2δT)`; a leftover of
/// size `< δT` is merged into another job of the class if one exists,
/// otherwise the class is small.
pub(crate) fn group_classes(inst: &Instance, threshold: Rational) -> Vec<GroupedClass> {
    (0..inst.num_classes())
        .map(|class| group_one_class(inst, class, threshold))
        .collect()
}

fn group_one_class(inst: &Instance, class: ClassId, threshold: Rational) -> GroupedClass {
    let mut big: Vec<GroupedJob> = Vec::new();
    let mut pending_jobs: Vec<JobId> = Vec::new();
    // Integer processing times accumulate against a fractional threshold on
    // every probe of the guess grid — `Scalar` keeps the running sum and the
    // comparisons gcd-free, reducing only when a package is emitted.
    let threshold_s = Scalar::from(threshold);
    let mut pending_size = Scalar::ZERO;

    for &job in inst.jobs_of_class(class) {
        let p = Scalar::from(inst.processing_time(job));
        if p >= threshold_s {
            big.push(GroupedJob {
                jobs: vec![job],
                size: p.to_rational(),
            });
        } else {
            pending_jobs.push(job);
            pending_size += p;
            if pending_size >= threshold_s {
                big.push(GroupedJob {
                    jobs: std::mem::take(&mut pending_jobs),
                    size: pending_size.to_rational(),
                });
                pending_size = Scalar::ZERO;
            }
        }
    }

    if pending_jobs.is_empty() {
        let small = big.len() == 1 && big[0].size <= threshold;
        return GroupedClass {
            class,
            jobs: big,
            small,
        };
    }
    if let Some(last) = big.last_mut() {
        // Merge the leftover into an existing (large) grouped job.
        last.jobs.extend(pending_jobs);
        last.size += pending_size.to_rational();
        GroupedClass {
            class,
            jobs: big,
            small: false,
        }
    } else {
        // The whole class is one small job.
        GroupedClass {
            class,
            jobs: vec![GroupedJob {
                jobs: pending_jobs,
                size: pending_size.to_rational(),
            }],
            small: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;

    #[test]
    fn scale_units() {
        let params = PtasParams::with_delta_inv(2).unwrap();
        let scale = GuessScale::new(Rational::from_int(8), params);
        assert_eq!(scale.unit, Rational::from_int(2)); // δ²T = 8/4
        assert_eq!(scale.small_threshold, Rational::from_int(4)); // δT
        assert_eq!(scale.tbar_units, 12);
        assert_eq!(
            scale.unit * Rational::from(scale.tbar_units),
            Rational::from_int(24)
        ); // T̄
        assert_eq!(scale.units_ceil(Rational::from_int(5)), 3);
        assert_eq!(scale.units_ceil(Rational::from_int(4)), 2);
    }

    #[test]
    fn grouping_small_class() {
        // All jobs tiny, total below the threshold: single small class.
        let inst = instance_from_pairs(2, 2, &[(1, 0), (1, 0), (1, 0)]).unwrap();
        let grouped = group_classes(&inst, Rational::from_int(5));
        assert_eq!(grouped.len(), 1);
        assert!(grouped[0].small);
        assert_eq!(grouped[0].jobs.len(), 1);
        assert_eq!(grouped[0].jobs[0].size, Rational::from_int(3));
        assert_eq!(grouped[0].jobs[0].jobs.len(), 3);
    }

    #[test]
    fn grouping_bundles_small_jobs_into_packages() {
        // 7 jobs of size 2 with threshold 5: bundles of >= 5 form, leftovers
        // are merged, and every resulting job is > threshold/…
        let jobs: Vec<(u64, u32)> = (0..7).map(|_| (2, 0)).collect();
        let inst = instance_from_pairs(2, 2, &jobs).unwrap();
        let grouped = group_classes(&inst, Rational::from_int(5));
        let class = &grouped[0];
        assert!(!class.small);
        let total: Rational = class.jobs.iter().map(|j| j.size).sum();
        assert_eq!(total, Rational::from_int(14));
        for j in &class.jobs {
            assert!(j.size >= Rational::from_int(5));
            assert!(j.size < Rational::from_int(5) * Rational::new(3, 1));
        }
        let original: usize = class.jobs.iter().map(|j| j.jobs.len()).sum();
        assert_eq!(original, 7);
    }

    #[test]
    fn grouping_keeps_large_jobs_intact_unless_leftover_merges() {
        let inst = instance_from_pairs(2, 2, &[(9, 0), (2, 0), (8, 1)]).unwrap();
        let grouped = group_classes(&inst, Rational::from_int(5));
        // Class 0: job 9 plus a leftover 2 merged into it.
        assert_eq!(grouped[0].jobs.len(), 1);
        assert_eq!(grouped[0].jobs[0].size, Rational::from_int(11));
        assert!(!grouped[0].small);
        // Class 1: single job of size 8, large.
        assert_eq!(grouped[1].jobs.len(), 1);
        assert!(!grouped[1].small);
    }

    #[test]
    fn every_original_job_appears_exactly_once() {
        let jobs: Vec<(u64, u32)> = (0..20).map(|i| (1 + i % 7, (i % 3) as u32)).collect();
        let inst = instance_from_pairs(3, 2, &jobs).unwrap();
        let grouped = group_classes(&inst, Rational::from_int(4));
        let mut seen = vec![false; inst.num_jobs()];
        for class in &grouped {
            for gj in &class.jobs {
                for &j in &gj.jobs {
                    assert!(!seen[j]);
                    seen[j] = true;
                    assert_eq!(inst.class_of(j), class.class);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
