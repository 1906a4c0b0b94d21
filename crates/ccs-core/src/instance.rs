//! Instances of the class-constrained scheduling problem.
//!
//! An instance `I = [p_1, …, p_n, c_1, …, c_n, m, c]` consists of `n` jobs
//! with integral processing times and class labels, `m` identical machines and
//! a number `c` of class slots per machine (the jobs executed on one machine
//! may belong to at most `c` distinct classes).

pub mod canonical;

use crate::error::{CcsError, Result};
use crate::json::{self, JsonValue, JsonWriter};
use crate::rational::Rational;
use std::collections::BTreeMap;

pub use canonical::{CanonicalInstance, Fingerprint, IncrementalFingerprint};

/// Index of a job, `0..n`.
pub type JobId = usize;

/// Dense index of a class, `0..C`.
///
/// [`InstanceBuilder`] accepts arbitrary `u32` labels and remaps them to dense
/// indices in order of first appearance; the original label is kept and can be
/// recovered via [`Instance::class_label`].
pub type ClassId = usize;

/// One `(machines, time)` alternative of a moldable job: run `machines`
/// pieces of length `time` on that many distinct machines.
pub type JobShape = (u64, u64);

/// Raw serialisable form of an [`Instance`]; all derived data is rebuilt on
/// deserialisation so serialised instances can never violate the invariants.
#[derive(Debug, Clone)]
struct InstanceData {
    processing_times: Vec<u64>,
    class_labels_per_job: Vec<u32>,
    machines: u64,
    class_slots: u64,
    job_shapes: Option<Vec<Vec<JobShape>>>,
}

/// An immutable, validated instance of class-constrained scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    processing_times: Vec<u64>,
    /// Dense class index per job.
    classes: Vec<ClassId>,
    /// Original label of each dense class index.
    class_labels: Vec<u32>,
    machines: u64,
    class_slots: u64,
    /// Jobs of each class in input order (the "canonical order" used when a
    /// class is sliced into chunks by the splittable / preemptive algorithms).
    class_jobs: Vec<Vec<JobId>>,
    /// Accumulated processing time `P_u` of each class.
    class_loads: Vec<u64>,
    /// The versioned `JobShapes` extension slot (moldable model): per-job
    /// menus of `(machines, time)` alternatives.  `None` on the plain paper
    /// instances; when `Some`, the outer vector has one entry per job and an
    /// *empty* inner menu means "no declared menu" (the job defaults to the
    /// sequential shape `(1, p_j)`).  The builder normalises menus — sorted,
    /// deduplicated, and a menu equal to the default shape is dropped — so
    /// equality, JSON and fingerprints all agree on semantically identical
    /// instances.
    job_shapes: Option<Vec<Vec<JobShape>>>,
}

impl TryFrom<InstanceData> for Instance {
    type Error = CcsError;
    fn try_from(d: InstanceData) -> Result<Self> {
        let mut b = InstanceBuilder::new(d.machines, d.class_slots);
        if d.processing_times.len() != d.class_labels_per_job.len() {
            return Err(CcsError::invalid_instance(
                "processing_times and class labels have different lengths",
            ));
        }
        match d.job_shapes {
            None => {
                for (p, cl) in d.processing_times.iter().zip(&d.class_labels_per_job) {
                    b = b.job(*p, *cl);
                }
            }
            Some(shapes) => {
                if shapes.len() != d.processing_times.len() {
                    return Err(CcsError::invalid_instance(
                        "job_shapes and processing_times have different lengths",
                    ));
                }
                for ((p, cl), menu) in d
                    .processing_times
                    .iter()
                    .zip(&d.class_labels_per_job)
                    .zip(&shapes)
                {
                    b = b.job_shaped(*p, *cl, menu);
                }
            }
        }
        b.build()
    }
}

impl Instance {
    /// Serialises the instance to a compact JSON document holding only the
    /// raw input data (`processing_times`, `class_labels_per_job`, `machines`,
    /// `class_slots`); derived data is rebuilt by [`Instance::from_json`].
    pub fn to_json(&self) -> String {
        JsonWriter::line(|w| self.write_json(w)).into_string()
    }

    /// Writes the [`Instance::to_json`] document, for embedding into larger
    /// documents (e.g. `ccs-wire/1` request frames).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("class_labels_per_job").array(|w| {
                for &class in &self.classes {
                    w.u64(u64::from(self.class_labels[class]));
                }
            });
            w.key("class_slots").u64(self.class_slots);
            // The versioned extension slot: emitted only when present, so the
            // documents of plain paper instances are byte-identical to the
            // pre-extension format.
            if let Some(shapes) = &self.job_shapes {
                w.key("job_shapes").array(|w| {
                    for menu in shapes {
                        w.array(|w| {
                            for &(k, t) in menu {
                                w.array(|w| {
                                    w.u64(k).u64(t);
                                });
                            }
                        });
                    }
                });
            }
            w.key("machines").u64(self.machines);
            w.key("processing_times").array(|w| {
                for &p in &self.processing_times {
                    w.u64(p);
                }
            });
        });
    }

    /// Parses an instance from the JSON produced by [`Instance::to_json`].
    ///
    /// All invariants are re-validated through [`InstanceBuilder`], so a
    /// hand-edited document can never produce an invalid [`Instance`].
    pub fn from_json(input: &str) -> Result<Instance> {
        Instance::from_json_value(&json::parse(input)?)
    }

    /// [`Instance::from_json`] on an already-parsed [`JsonValue`] (the form
    /// embedded in `ccs-wire/1` request frames).
    pub fn from_json_value(value: &JsonValue) -> Result<Instance> {
        let obj = value
            .as_object()
            .ok_or_else(|| CcsError::invalid_instance("expected a JSON object"))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| CcsError::invalid_instance(format!("missing field '{name}'")))
        };
        let u64_array = |name: &str| -> Result<Vec<u64>> {
            field(name)?
                .as_array()
                .ok_or_else(|| {
                    CcsError::invalid_instance(format!("field '{name}' must be an array"))
                })?
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        CcsError::invalid_instance(format!(
                            "field '{name}' must contain non-negative integers"
                        ))
                    })
                })
                .collect()
        };
        let scalar = |name: &str| -> Result<u64> {
            field(name)?.as_u64().ok_or_else(|| {
                CcsError::invalid_instance(format!("field '{name}' must be a non-negative integer"))
            })
        };
        let job_shapes = match obj.get("job_shapes") {
            None => None,
            Some(value) => Some(parse_job_shapes(value)?),
        };
        let data = InstanceData {
            processing_times: u64_array("processing_times")?,
            class_labels_per_job: u64_array("class_labels_per_job")?
                .into_iter()
                .map(|c| {
                    u32::try_from(c)
                        .map_err(|_| CcsError::invalid_instance("class labels must fit in 32 bits"))
                })
                .collect::<Result<Vec<u32>>>()?,
            machines: scalar("machines")?,
            class_slots: scalar("class_slots")?,
            job_shapes,
        };
        Instance::try_from(data)
    }

    /// Number of jobs `n`.
    pub fn num_jobs(&self) -> usize {
        self.processing_times.len()
    }

    /// Number of distinct classes `C` (only classes with at least one job are
    /// counted, as in the paper).
    pub fn num_classes(&self) -> usize {
        self.class_jobs.len()
    }

    /// Number of machines `m`.
    pub fn machines(&self) -> u64 {
        self.machines
    }

    /// Number of class slots `c` per machine, exactly as given on input.
    pub fn class_slots(&self) -> u64 {
        self.class_slots
    }

    /// The effective number of class slots `min(c, C, n)`: the paper's
    /// assumption `c ≤ C ≤ n` without loss of generality.
    pub fn effective_class_slots(&self) -> u64 {
        self.class_slots
            .min(self.num_classes() as u64)
            .min(self.num_jobs() as u64)
    }

    /// Processing time `p_j` of job `j`.
    pub fn processing_time(&self, job: JobId) -> u64 {
        self.processing_times[job]
    }

    /// All processing times, indexed by job.
    pub fn processing_times(&self) -> &[u64] {
        &self.processing_times
    }

    /// Dense class index `c_j` of job `j`.
    pub fn class_of(&self, job: JobId) -> ClassId {
        self.classes[job]
    }

    /// Dense class index per job.
    pub fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    /// Original (input) label of a dense class index.
    pub fn class_label(&self, class: ClassId) -> u32 {
        self.class_labels[class]
    }

    /// Jobs of class `u`, in input order.
    pub fn jobs_of_class(&self, class: ClassId) -> &[JobId] {
        &self.class_jobs[class]
    }

    /// Accumulated processing time `P_u` of class `u`.
    pub fn class_load(&self, class: ClassId) -> u64 {
        self.class_loads[class]
    }

    /// Accumulated processing times of all classes, indexed by class.
    pub fn class_loads(&self) -> &[u64] {
        &self.class_loads
    }

    /// Total processing time `Σ_j p_j`.
    pub fn total_load(&self) -> u64 {
        self.processing_times.iter().sum()
    }

    /// Largest processing time `p_max`.
    pub fn p_max(&self) -> u64 {
        self.processing_times.iter().copied().max().unwrap_or(0)
    }

    /// Largest class load `max_u P_u`.
    pub fn max_class_load(&self) -> u64 {
        self.class_loads.iter().copied().max().unwrap_or(0)
    }

    /// Average load per machine `Σ_j p_j / m` as an exact rational.
    pub fn average_load(&self) -> Rational {
        Rational::from(self.total_load()) / Rational::from(self.machines)
    }

    /// Returns `true` if the instance admits any feasible schedule at all.
    ///
    /// In every placement model each class occupies at least one class slot on
    /// at least one machine, so a schedule exists if and only if
    /// `C ≤ c · m` (the builder already guarantees `m ≥ 1` and `c ≥ 1`).
    pub fn is_feasible(&self) -> bool {
        let slots = (self.class_slots as u128) * (self.machines as u128);
        (self.num_classes() as u128) <= slots
    }

    /// Returns `true` if any job declares a moldable shape menu (the
    /// `JobShapes` extension slot is populated).
    pub fn has_shapes(&self) -> bool {
        self.job_shapes.is_some()
    }

    /// The declared shape menu of job `j`, or `None` when the job has no
    /// declared menu (it defaults to the sequential shape `(1, p_j)` under
    /// the moldable model).  Declared menus are non-empty, sorted and
    /// deduplicated.
    pub fn declared_shapes(&self, job: JobId) -> Option<&[JobShape]> {
        match &self.job_shapes {
            Some(shapes) if !shapes[job].is_empty() => Some(&shapes[job]),
            _ => None,
        }
    }

    /// The effective shape menu of job `j` under the moldable model: the
    /// declared menu, or the default sequential shape `(1, p_j)`.
    pub fn shape_menu(&self, job: JobId) -> Vec<JobShape> {
        match self.declared_shapes(job) {
            Some(menu) => menu.to_vec(),
            None => vec![(1, self.processing_time(job))],
        }
    }

    /// The raw `JobShapes` extension slot: one (possibly empty = undeclared)
    /// menu per job, or `None` on plain instances.  For transforms that must
    /// carry the slot through job-set surgery; solvers use
    /// [`Instance::shape_menu`].
    pub fn job_shapes(&self) -> Option<&[Vec<JobShape>]> {
        self.job_shapes.as_deref()
    }

    /// An encoding-length proxy `|I| = Σ⌈log p_j⌉ + Σ⌈log c_j⌉ + n + ⌈log m⌉`
    /// as defined in the paper; used by tests that check running-time claims
    /// are polynomial in the encoding length.
    pub fn encoding_length(&self) -> u64 {
        let bits = |x: u64| 64 - x.max(1).leading_zeros() as u64;
        self.processing_times.iter().map(|&p| bits(p)).sum::<u64>()
            + self
                .classes
                .iter()
                .map(|&c| bits(c as u64 + 1))
                .sum::<u64>()
            + self.num_jobs() as u64
            + bits(self.machines)
    }
}

/// Builder for [`Instance`].
///
/// ```
/// use ccs_core::InstanceBuilder;
/// let inst = InstanceBuilder::new(3, 2)
///     .job(10, 0)
///     .job(7, 1)
///     .job(5, 0)
///     .build()
///     .unwrap();
/// assert_eq!(inst.num_jobs(), 3);
/// assert_eq!(inst.num_classes(), 2);
/// assert_eq!(inst.class_load(0), 15);
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    processing_times: Vec<u64>,
    class_labels_per_job: Vec<u32>,
    machines: u64,
    class_slots: u64,
    /// One menu per job; empty = no declared menu.
    job_shapes: Vec<Vec<JobShape>>,
}

impl InstanceBuilder {
    /// Starts building an instance with `machines` identical machines and
    /// `class_slots` class slots per machine.
    pub fn new(machines: u64, class_slots: u64) -> Self {
        InstanceBuilder {
            processing_times: Vec::new(),
            class_labels_per_job: Vec::new(),
            machines,
            class_slots,
            job_shapes: Vec::new(),
        }
    }

    /// Adds a single job with processing time `p` and (arbitrary) class label.
    #[must_use]
    pub fn job(mut self, p: u64, class_label: u32) -> Self {
        self.processing_times.push(p);
        self.class_labels_per_job.push(class_label);
        self.job_shapes.push(Vec::new());
        self
    }

    /// Adds many jobs of the same class.
    #[must_use]
    pub fn jobs(mut self, ps: &[u64], class_label: u32) -> Self {
        for &p in ps {
            self = self.job(p, class_label);
        }
        self
    }

    /// Adds a job with a declared moldable shape menu: `(machines, time)`
    /// alternatives.  An empty `shapes` slice means "no declared menu" (the
    /// job defaults to `(1, p)` under the moldable model), making it safe to
    /// pass optional menus through unconditionally.
    #[must_use]
    pub fn job_shaped(mut self, p: u64, class_label: u32, shapes: &[JobShape]) -> Self {
        self.processing_times.push(p);
        self.class_labels_per_job.push(class_label);
        self.job_shapes.push(shapes.to_vec());
        self
    }

    /// Validates and builds the instance.
    pub fn build(self) -> Result<Instance> {
        if self.processing_times.is_empty() {
            return Err(CcsError::invalid_instance("instance has no jobs"));
        }
        if self.machines == 0 {
            return Err(CcsError::invalid_instance("instance has no machines"));
        }
        if self.class_slots == 0 {
            return Err(CcsError::invalid_instance(
                "instance has zero class slots per machine",
            ));
        }
        if self.processing_times.contains(&0) {
            return Err(CcsError::invalid_instance(
                "processing times must be positive",
            ));
        }
        // Class loads and the total load are sums of processing times: keep
        // them exact rather than let them wrap.
        if self
            .processing_times
            .iter()
            .try_fold(0u64, |total, &p| total.checked_add(p))
            .is_none()
        {
            return Err(CcsError::invalid_instance(
                "total processing time does not fit in 64 bits",
            ));
        }

        // Normalise and validate declared shape menus.  Each menu is sorted
        // and deduplicated; a menu equal to the job's default shape
        // `(1, p_j)` is dropped as undeclared, and an instance with no
        // remaining declared menus stores no extension slot at all — so
        // semantically identical instances share one representation (and
        // thus one JSON document and one fingerprint).
        let mut job_shapes = self.job_shapes;
        debug_assert_eq!(job_shapes.len(), self.processing_times.len());
        let mut any_declared = false;
        for (menu, &p) in job_shapes.iter_mut().zip(&self.processing_times) {
            if menu.is_empty() {
                continue;
            }
            menu.sort_unstable();
            menu.dedup();
            for &(k, t) in menu.iter() {
                if k == 0 || t == 0 {
                    return Err(CcsError::invalid_instance(
                        "job shapes must have positive machine count and time",
                    ));
                }
                if k > self.machines {
                    return Err(CcsError::invalid_instance(format!(
                        "job shape uses {k} machines but the instance has only {}",
                        self.machines
                    )));
                }
            }
            // A sequential (single-machine) alternative is required: it
            // keeps moldable feasibility equal to the class-slot condition
            // `C ≤ c · m` shared by every other model.
            if !menu.iter().any(|&(k, _)| k == 1) {
                return Err(CcsError::invalid_instance(
                    "every job shape menu needs a sequential (1 machine) alternative",
                ));
            }
            if menu.as_slice() == [(1, p)] {
                menu.clear();
            } else {
                any_declared = true;
            }
        }
        let job_shapes = if any_declared { Some(job_shapes) } else { None };

        // Remap class labels to dense indices in order of first appearance.
        let mut label_to_dense: BTreeMap<u32, ClassId> = BTreeMap::new();
        let mut class_labels: Vec<u32> = Vec::new();
        let mut classes: Vec<ClassId> = Vec::with_capacity(self.processing_times.len());
        for &label in &self.class_labels_per_job {
            let next = class_labels.len();
            let dense = *label_to_dense.entry(label).or_insert_with(|| {
                class_labels.push(label);
                next
            });
            classes.push(dense);
        }

        let num_classes = class_labels.len();
        let mut class_jobs: Vec<Vec<JobId>> = vec![Vec::new(); num_classes];
        let mut class_loads: Vec<u64> = vec![0; num_classes];
        for (job, (&p, &u)) in self.processing_times.iter().zip(&classes).enumerate() {
            class_jobs[u].push(job);
            class_loads[u] += p;
        }

        Ok(Instance {
            processing_times: self.processing_times,
            classes,
            class_labels,
            machines: self.machines,
            class_slots: self.class_slots,
            class_jobs,
            class_loads,
            job_shapes,
        })
    }
}

/// Parses the `job_shapes` extension field: an array (one entry per job) of
/// menus, each menu an array of `[machines, time]` pairs.
fn parse_job_shapes(value: &JsonValue) -> Result<Vec<Vec<JobShape>>> {
    let shape_err = || {
        CcsError::invalid_instance("field 'job_shapes' must be an array per job of [machines, time] pairs of non-negative integers")
    };
    value
        .as_array()
        .ok_or_else(shape_err)?
        .iter()
        .map(|menu| {
            menu.as_array()
                .ok_or_else(shape_err)?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().ok_or_else(shape_err)?;
                    if pair.len() != 2 {
                        return Err(shape_err());
                    }
                    let k = pair[0].as_u64().ok_or_else(shape_err)?;
                    let t = pair[1].as_u64().ok_or_else(shape_err)?;
                    Ok((k, t))
                })
                .collect()
        })
        .collect()
}

/// Convenience constructor used extensively in tests and examples: builds an
/// instance from `(processing_time, class_label)` pairs.
pub fn instance_from_pairs(
    machines: u64,
    class_slots: u64,
    jobs: &[(u64, u32)],
) -> Result<Instance> {
    let mut b = InstanceBuilder::new(machines, class_slots);
    for &(p, u) in jobs {
        b = b.job(p, u);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        instance_from_pairs(4, 2, &[(10, 5), (20, 7), (5, 5), (8, 9), (2, 7)]).unwrap()
    }

    #[test]
    fn builder_basic() {
        let inst = sample();
        assert_eq!(inst.num_jobs(), 5);
        assert_eq!(inst.num_classes(), 3);
        assert_eq!(inst.machines(), 4);
        assert_eq!(inst.class_slots(), 2);
        assert_eq!(inst.total_load(), 45);
        assert_eq!(inst.p_max(), 20);
    }

    #[test]
    fn class_remapping_preserves_first_appearance_order() {
        let inst = sample();
        assert_eq!(inst.class_label(0), 5);
        assert_eq!(inst.class_label(1), 7);
        assert_eq!(inst.class_label(2), 9);
        assert_eq!(inst.class_of(0), 0);
        assert_eq!(inst.class_of(1), 1);
        assert_eq!(inst.class_of(3), 2);
    }

    #[test]
    fn class_loads_and_jobs() {
        let inst = sample();
        assert_eq!(inst.class_load(0), 15);
        assert_eq!(inst.class_load(1), 22);
        assert_eq!(inst.class_load(2), 8);
        assert_eq!(inst.jobs_of_class(0), &[0, 2]);
        assert_eq!(inst.jobs_of_class(1), &[1, 4]);
        assert_eq!(inst.max_class_load(), 22);
    }

    #[test]
    fn average_load_is_exact() {
        let inst = sample();
        assert_eq!(inst.average_load(), Rational::new(45, 4));
    }

    #[test]
    fn effective_class_slots_clamped() {
        let inst = instance_from_pairs(2, 10, &[(1, 0), (1, 1)]).unwrap();
        assert_eq!(inst.class_slots(), 10);
        assert_eq!(inst.effective_class_slots(), 2);
    }

    #[test]
    fn rejects_empty_instance() {
        assert!(InstanceBuilder::new(1, 1).build().is_err());
    }

    #[test]
    fn rejects_zero_machines_or_slots() {
        assert!(InstanceBuilder::new(0, 1).job(1, 0).build().is_err());
        assert!(InstanceBuilder::new(1, 0).job(1, 0).build().is_err());
    }

    #[test]
    fn rejects_zero_processing_time() {
        assert!(InstanceBuilder::new(1, 1).job(0, 0).build().is_err());
    }

    #[test]
    fn rejects_total_processing_time_past_u64() {
        let huge = InstanceBuilder::new(2, 2)
            .job(u64::MAX, 0)
            .job(1, 1)
            .build();
        assert_eq!(
            huge.unwrap_err(),
            CcsError::invalid_instance("total processing time does not fit in 64 bits")
        );
        let fits = InstanceBuilder::new(2, 2)
            .job(u64::MAX - 1, 0)
            .job(1, 1)
            .build()
            .unwrap();
        assert_eq!(fits.total_load(), u64::MAX);
    }

    #[test]
    fn jobs_helper_adds_many() {
        let inst = InstanceBuilder::new(2, 1)
            .jobs(&[1, 2, 3], 4)
            .jobs(&[5], 6)
            .build()
            .unwrap();
        assert_eq!(inst.num_jobs(), 4);
        assert_eq!(inst.num_classes(), 2);
        assert_eq!(inst.class_load(0), 6);
    }

    #[test]
    fn json_roundtrip() {
        let inst = sample();
        let json = inst.to_json();
        let back = Instance::from_json(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn json_rejects_invalid() {
        let json =
            r#"{"processing_times":[0],"class_labels_per_job":[1],"machines":1,"class_slots":1}"#;
        assert!(Instance::from_json(json).is_err());
        assert!(Instance::from_json("{}").is_err());
        assert!(Instance::from_json("not json").is_err());
        let mismatched =
            r#"{"processing_times":[1,2],"class_labels_per_job":[1],"machines":1,"class_slots":1}"#;
        assert!(Instance::from_json(mismatched).is_err());
    }

    #[test]
    fn json_roundtrip_with_huge_machine_count() {
        let inst = instance_from_pairs(u64::MAX / 2, 3, &[(1, 0)]).unwrap();
        let back = Instance::from_json(&inst.to_json()).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn encoding_length_is_positive_and_grows_with_m() {
        let small = instance_from_pairs(2, 1, &[(3, 0), (4, 1)]).unwrap();
        let large = instance_from_pairs(1 << 40, 1, &[(3, 0), (4, 1)]).unwrap();
        assert!(small.encoding_length() > 0);
        assert!(large.encoding_length() > small.encoding_length());
    }

    fn shaped() -> Instance {
        InstanceBuilder::new(4, 2)
            .job_shaped(10, 5, &[(2, 6), (1, 10), (4, 3)])
            .job(20, 7)
            .job_shaped(5, 5, &[])
            .build()
            .unwrap()
    }

    #[test]
    fn shape_menus_are_normalised() {
        let inst = shaped();
        assert!(inst.has_shapes());
        // Sorted by (machines, time); duplicates would be dropped.
        assert_eq!(
            inst.declared_shapes(0),
            Some(&[(1, 10), (2, 6), (4, 3)][..])
        );
        assert_eq!(inst.declared_shapes(1), None);
        assert_eq!(inst.declared_shapes(2), None);
        assert_eq!(inst.shape_menu(0), vec![(1, 10), (2, 6), (4, 3)]);
        assert_eq!(inst.shape_menu(1), vec![(1, 20)]);
        assert_eq!(inst.shape_menu(2), vec![(1, 5)]);
    }

    #[test]
    fn default_equivalent_menu_is_dropped() {
        // A declared menu equal to the default sequential shape is the same
        // instance as an undeclared one — one representation for both.
        let a = InstanceBuilder::new(2, 1)
            .job_shaped(7, 0, &[(1, 7)])
            .job(3, 1)
            .build()
            .unwrap();
        let b = instance_from_pairs(2, 1, &[(7, 0), (3, 1)]).unwrap();
        assert_eq!(a, b);
        assert!(!a.has_shapes());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn shape_validation_rejects_bad_menus() {
        // Zero machines / zero time.
        assert!(InstanceBuilder::new(2, 1)
            .job_shaped(5, 0, &[(0, 5), (1, 5)])
            .build()
            .is_err());
        assert!(InstanceBuilder::new(2, 1)
            .job_shaped(5, 0, &[(1, 0)])
            .build()
            .is_err());
        // Wider than the machine park.
        assert!(InstanceBuilder::new(2, 1)
            .job_shaped(5, 0, &[(3, 2), (1, 5)])
            .build()
            .is_err());
        // No sequential alternative.
        assert!(InstanceBuilder::new(4, 1)
            .job_shaped(5, 0, &[(2, 3), (4, 2)])
            .build()
            .is_err());
    }

    #[test]
    fn shaped_json_roundtrip() {
        let inst = shaped();
        let json = inst.to_json();
        assert!(json.contains("\"job_shapes\":[[[1,10],[2,6],[4,3]],[],[]]"));
        let back = Instance::from_json(&json).unwrap();
        assert_eq!(inst, back);
        // Plain instances emit no extension field at all.
        assert!(!sample().to_json().contains("job_shapes"));
        // Malformed extension payloads are rejected.
        for bad in [
            r#"{"processing_times":[1],"class_labels_per_job":[0],"machines":1,"class_slots":1,"job_shapes":[[[1]]]}"#,
            r#"{"processing_times":[1],"class_labels_per_job":[0],"machines":1,"class_slots":1,"job_shapes":[[],[]]}"#,
            r#"{"processing_times":[1],"class_labels_per_job":[0],"machines":1,"class_slots":1,"job_shapes":7}"#,
        ] {
            assert!(Instance::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn exponential_machine_count_supported() {
        let inst = instance_from_pairs(u64::MAX / 2, 3, &[(1, 0)]).unwrap();
        assert_eq!(inst.machines(), u64::MAX / 2);
        assert!(inst.average_load() < Rational::ONE);
    }
}
