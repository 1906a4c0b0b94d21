//! Canonical form and stable fingerprint of an [`Instance`].
//!
//! Two instances are *canonically equal* when one can be turned into the
//! other by permuting jobs and/or relabelling classes — symmetries no
//! scheduling model distinguishes, so canonically equal instances have the
//! same optimum in every placement model (the engine's solution cache is
//! built on exactly this fact, and `ccs-engine`'s cache tests prove it per
//! model against the exact solvers).
//!
//! The canonical form is defined as:
//!
//! 1. classes are ordered by their *signature* — the ascending multiset of
//!    their `(processing time, declared shape menu)` pairs (two classes with
//!    equal signatures are interchangeable, so any order between them yields
//!    the same form; on plain instances every menu is empty and the
//!    signature degenerates to the processing-time multiset),
//! 2. jobs are sorted by processing time, with ties broken by the class
//!    order of step 1 and then by declared shape menu,
//! 3. classes are renumbered `0..C` by first occurrence along the sorted
//!    job list; classes without jobs cannot exist in a validated
//!    [`Instance`], so the canonical form never carries empty classes,
//! 4. `m` and `c` are kept verbatim — instances differing in either are
//!    never canonically equal (even where `c ≥ C` makes them semantically
//!    equivalent; the fingerprint is a syntactic identity, not a solver).
//!
//! The [`Fingerprint`] is a 128-bit hash of the canonical form computed with
//! two independent SplitMix64 lanes over the canonical word stream.  It is
//! **stable**: pure integer arithmetic, no per-process randomness, identical
//! across platforms, runs and thread counts.  The stream starts with
//! [`FINGERPRINT_VERSION`], so any future change to the canonical form bumps
//! every fingerprint at once instead of silently aliasing old cache keys.
//! Instances carrying the `JobShapes` extension slot append a *tagged,
//! versioned* extension section after the job stream; plain instances
//! absorb nothing extra, so their fingerprints are bit-identical to the
//! pre-extension era (pinned by the golden-value test below).

use super::{ClassId, Instance, JobId, JobShape};
use crate::error::{CcsError, Result};
use std::collections::BTreeMap;

/// Version tag mixed into every [`Fingerprint`]; bump when the canonical
/// form or the hash construction changes.
pub const FINGERPRINT_VERSION: u64 = 1;

/// Tag word opening the `JobShapes` extension section of the fingerprint
/// stream; only absorbed when the slot is populated, so plain instances
/// keep their pre-extension fingerprints.
const SHAPES_EXTENSION_TAG: u64 = 0x4A6F_6253_6861_7065;

/// Version of the `JobShapes` extension section layout; bump when the
/// section's encoding changes.
pub const SHAPES_EXTENSION_VERSION: u64 = 1;

/// A stable 128-bit identity of an instance up to job-order and
/// class-relabel symmetry: canonically equal instances have equal
/// fingerprints, and distinct canonical forms collide only with the
/// 2⁻¹²⁸-ish probability of the underlying hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The canonical identity of an instance: the fingerprint of its canonical
/// form together with the correspondence back to the instance it was
/// computed from.
///
/// The correspondence is what lets a consumer translate job- and
/// class-indexed data (schedules, in the engine's cache) between the
/// original numbering and the canonical one.  The canonical instance itself
/// is never built: its word stream is hashed while the sorted jobs are
/// walked.
#[derive(Debug, Clone)]
pub struct CanonicalInstance {
    fingerprint: Fingerprint,
    /// `job_order[k]` = the original job at canonical position `k`.
    job_order: Vec<JobId>,
    /// `class_order[u]` = the original dense class behind canonical class `u`.
    class_order: Vec<ClassId>,
}

impl CanonicalInstance {
    /// The fingerprint of the canonical form.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// For each canonical job position, the original job it came from.
    pub fn job_order(&self) -> &[JobId] {
        &self.job_order
    }

    /// For each canonical class, the original dense class it came from.
    pub fn class_order(&self) -> &[ClassId] {
        &self.class_order
    }

    /// Whether the original instance already was in canonical form (the
    /// correspondence is the identity); consumers use this to skip
    /// translation work.
    pub fn is_identity(&self) -> bool {
        self.job_order.iter().enumerate().all(|(k, &j)| k == j)
            && self.class_order.iter().enumerate().all(|(u, &v)| u == v)
    }
}

impl Instance {
    /// Computes the canonical form of this instance (see the module docs for
    /// the exact definition): its fingerprint and the job/class
    /// correspondence.
    ///
    /// Runs in `O(n log n)`.
    pub fn canonical(&self) -> CanonicalInstance {
        let n = self.num_jobs();
        let num_classes = self.num_classes();

        // 1. Class signatures: the ascending (processing time, declared
        // menu) pairs of each class, as slices of one flat vector.  Plain
        // instances have empty menus everywhere, making this exactly the
        // old processing-time multiset.
        let menu_of = |job: JobId| self.declared_shapes(job).unwrap_or(&[]);
        let mut pairs: Vec<(u64, &[JobShape])> = Vec::with_capacity(n);
        let mut start = Vec::with_capacity(num_classes + 1);
        start.push(0);
        for class in 0..num_classes {
            let from = pairs.len();
            pairs.extend(
                self.jobs_of_class(class)
                    .iter()
                    .map(|&job| (self.processing_time(job), menu_of(job))),
            );
            pairs[from..].sort_unstable();
            start.push(pairs.len());
        }
        let signature = |class: ClassId| &pairs[start[class]..start[class + 1]];

        // 2. Rank classes by signature, ties by class index.  Classes with
        // equal signatures are interchangeable: whichever relative rank they
        // get, the canonical job list below comes out identical.
        let mut by_signature: Vec<ClassId> = (0..num_classes).collect();
        by_signature.sort_by(|&a, &b| signature(a).cmp(signature(b)));
        let mut rank = vec![0usize; num_classes];
        for (r, &class) in by_signature.iter().enumerate() {
            rank[class] = r;
        }

        // 3. Jobs by (processing time, class rank, declared menu, job
        // index).  Ties on the first three keys are jobs of equal length
        // and equal menu in the same class — interchangeable; the index
        // makes the order total, so an unstable sort is deterministic.
        let mut jobs: Vec<(u64, usize, JobId)> = (0..n)
            .map(|job| (self.processing_time(job), rank[self.class_of(job)], job))
            .collect();
        jobs.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then_with(|| menu_of(a.2).cmp(menu_of(b.2)))
                .then(a.2.cmp(&b.2))
        });

        // 4. Absorb the canonical word stream along the sorted job list,
        // renumbering classes by first occurrence.  The menus of a
        // validated instance are already normalised, so they enter the
        // stream as the canonical instance would hold them.
        let mut mixer = Mixer::header(self.machines(), self.class_slots(), n, num_classes);
        let mut canonical_of_class: Vec<Option<u64>> = vec![None; num_classes];
        let mut class_order: Vec<ClassId> = Vec::with_capacity(num_classes);
        let mut job_order: Vec<JobId> = Vec::with_capacity(n);
        for &(p, _, job) in &jobs {
            let class = self.class_of(job);
            let label = *canonical_of_class[class].get_or_insert_with(|| {
                class_order.push(class);
                (class_order.len() - 1) as u64
            });
            mixer.absorb(p);
            mixer.absorb(label);
            job_order.push(job);
        }
        // The JobShapes extension section: tagged and versioned, absorbed
        // only when the slot is populated, so plain instances keep their
        // pre-extension fingerprints bit for bit.
        if self.has_shapes() {
            mixer.absorb(SHAPES_EXTENSION_TAG);
            mixer.absorb(SHAPES_EXTENSION_VERSION);
            for &job in &job_order {
                let menu = menu_of(job);
                mixer.absorb(menu.len() as u64);
                for &(k, t) in menu {
                    mixer.absorb(k);
                    mixer.absorb(t);
                }
            }
        }
        CanonicalInstance {
            fingerprint: mixer.finish(),
            job_order,
            class_order,
        }
    }

    /// The [`Fingerprint`] of this instance's canonical form; equal for all
    /// job permutations and class relabellings of the same instance.
    pub fn fingerprint(&self) -> Fingerprint {
        self.canonical().fingerprint
    }
}

/// SplitMix64 finalising mix (Steele, Lea & Flood; the `splitmix64` PRNG's
/// output function) — the same stable mixer `ccs-gen::rng` builds on.
pub(super) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two independent 64-bit absorption lanes over a word stream.
struct Mixer {
    lo: u64,
    hi: u64,
}

impl Mixer {
    fn new() -> Self {
        // Distinct arbitrary seeds so the lanes never mirror each other.
        Mixer {
            lo: 0x5CC5_0C5C_0DE0_0001,
            hi: 0xA5A5_F1F0_CAFE_0002,
        }
    }

    /// A mixer that has absorbed the stream's header: the version tag,
    /// `m`, `c`, `n` and `C`.
    fn header(machines: u64, class_slots: u64, jobs: usize, classes: usize) -> Self {
        let mut mixer = Mixer::new();
        for word in [
            FINGERPRINT_VERSION,
            machines,
            class_slots,
            jobs as u64,
            classes as u64,
        ] {
            mixer.absorb(word);
        }
        mixer
    }

    fn absorb(&mut self, word: u64) {
        self.lo = splitmix64(self.lo ^ word);
        self.hi = splitmix64(self.hi.rotate_left(17) ^ word);
    }

    fn finish(self) -> Fingerprint {
        Fingerprint(((splitmix64(self.hi) as u128) << 64) | splitmix64(self.lo) as u128)
    }
}

/// Incrementally maintained canonical identity of a *mutating* instance.
///
/// A session that adds and removes a handful of jobs between solves must not
/// pay a full [`Instance`] rebuild plus an `O(n log n)` re-sort just to learn
/// the child's cache key.  This structure keeps exactly the state the
/// canonical form is a function of — the per-class **sorted** multiset of
/// processing times plus `m` and `c` — so a mutation costs `O(log C + k)`
/// amortised (a binary-search insert/remove per job), and
/// [`IncrementalFingerprint::fingerprint`] re-emits the canonical word
/// stream by a k-way merge of the per-class lists in `O(n log C)` — **no
/// job-level re-sort and no `Instance` construction**.
///
/// The hash it produces is defined to be bit-identical to
/// `Instance::fingerprint()` of the equivalent instance; the
/// `incremental_matches_from_scratch_*` tests and the `ccs-session` golden
/// tests hold it to that.
///
/// The tracker covers plain instances only: jobs with declared shape menus
/// are outside its vocabulary, and sessions holding shaped jobs fall back
/// to the from-scratch `Instance::fingerprint()` path instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalFingerprint {
    machines: u64,
    class_slots: u64,
    /// Ascending processing-time multiset of every non-empty class, keyed by
    /// the session's class label.  Empty classes are removed eagerly, so the
    /// map's length is the instance's `C`.
    classes: BTreeMap<u32, Vec<u64>>,
    jobs: usize,
}

impl IncrementalFingerprint {
    /// An empty tracker for an instance with `machines` machines and
    /// `class_slots` class slots (both may be mutated later).
    pub fn new(machines: u64, class_slots: u64) -> Self {
        IncrementalFingerprint {
            machines,
            class_slots,
            classes: BTreeMap::new(),
            jobs: 0,
        }
    }

    /// Seeds the tracker from an existing instance (label-preserving).
    pub fn from_instance(inst: &Instance) -> Self {
        let mut inc = IncrementalFingerprint::new(inst.machines(), inst.class_slots());
        for job in 0..inst.num_jobs() {
            inc.add_job(
                inst.processing_time(job),
                inst.class_label(inst.class_of(job)),
            );
        }
        inc
    }

    /// Number of jobs currently tracked.
    pub fn num_jobs(&self) -> usize {
        self.jobs
    }

    /// Number of non-empty classes currently tracked.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Current machine count.
    pub fn machines(&self) -> u64 {
        self.machines
    }

    /// Current class slots per machine.
    pub fn class_slots(&self) -> u64 {
        self.class_slots
    }

    /// Adds `delta` machines.
    pub fn add_machines(&mut self, delta: u64) {
        self.machines = self.machines.saturating_add(delta);
    }

    /// Adds one job with processing time `p` and class label `label`.
    pub fn add_job(&mut self, p: u64, label: u32) {
        let times = self.classes.entry(label).or_default();
        let at = times.partition_point(|&t| t <= p);
        times.insert(at, p);
        self.jobs += 1;
    }

    /// Removes one job with processing time `p` from class `label`.
    ///
    /// # Errors
    /// [`CcsError::InvalidParameter`] when no such job is tracked.
    pub fn remove_job(&mut self, p: u64, label: u32) -> Result<()> {
        let Some(times) = self.classes.get_mut(&label) else {
            return Err(CcsError::invalid_parameter(format!(
                "no job of class {label} to remove"
            )));
        };
        let at = times.partition_point(|&t| t < p);
        if times.get(at) != Some(&p) {
            return Err(CcsError::invalid_parameter(format!(
                "no job with processing time {p} in class {label}"
            )));
        }
        times.remove(at);
        if times.is_empty() {
            self.classes.remove(&label);
        }
        self.jobs -= 1;
        Ok(())
    }

    /// Moves every job of class `from` into class `to` (a label merge when
    /// `to` already has jobs); a no-op when `from` is empty or `from == to`.
    pub fn retype_class(&mut self, from: u32, to: u32) {
        if from == to {
            return;
        }
        let Some(moved) = self.classes.remove(&from) else {
            return;
        };
        let target = self.classes.entry(to).or_default();
        // Merge two ascending lists (the moved list is typically the
        // smaller; a splice-merge keeps this linear).
        let mut merged = Vec::with_capacity(target.len() + moved.len());
        let (mut i, mut j) = (0, 0);
        while i < target.len() && j < moved.len() {
            if target[i] <= moved[j] {
                merged.push(target[i]);
                i += 1;
            } else {
                merged.push(moved[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&target[i..]);
        merged.extend_from_slice(&moved[j..]);
        *target = merged;
    }

    /// The fingerprint of the tracked state — bit-identical to
    /// `Instance::fingerprint()` of the equivalent instance.
    ///
    /// Runs in `O(C log C · s + n log C)` where `s` bounds the signature
    /// comparisons — the job-level sort of the from-scratch path is replaced
    /// by a k-way merge of the already-sorted per-class lists.
    pub fn fingerprint(&self) -> Fingerprint {
        // 1. Rank classes by signature (the per-class sorted list *is* the
        // signature of the canonical form's step 1).
        let lists: Vec<&Vec<u64>> = self.classes.values().collect();
        let mut by_signature: Vec<usize> = (0..lists.len()).collect();
        by_signature.sort_by(|&a, &b| lists[a].cmp(lists[b]));
        let mut rank = vec![0usize; lists.len()];
        for (r, &class) in by_signature.iter().enumerate() {
            rank[class] = r;
        }

        // 2. K-way merge of the per-class lists by (processing time, rank) —
        // exactly the job order of the canonical form's step 2 — renumbering
        // classes by first occurrence (step 3) as the stream is absorbed.
        let mut mixer = Mixer::header(
            self.machines,
            self.class_slots,
            self.jobs,
            self.classes.len(),
        );

        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize, usize)>> = lists
            .iter()
            .enumerate()
            .filter(|(_, times)| !times.is_empty())
            .map(|(class, times)| std::cmp::Reverse((times[0], rank[class], class)))
            .collect();
        let mut canonical_of_class: Vec<Option<u64>> = vec![None; lists.len()];
        let mut next_label = 0u64;
        let mut cursor = vec![0usize; lists.len()];
        while let Some(std::cmp::Reverse((p, _, class))) = heap.pop() {
            let label = *canonical_of_class[class].get_or_insert_with(|| {
                let label = next_label;
                next_label += 1;
                label
            });
            mixer.absorb(p);
            mixer.absorb(label);
            cursor[class] += 1;
            if let Some(&next) = lists[class].get(cursor[class]) {
                heap.push(std::cmp::Reverse((next, rank[class], class)));
            }
        }
        mixer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{instance_from_pairs, InstanceBuilder};

    /// The oracle of the tests below: the same sort as
    /// `Instance::canonical`, then the canonical instance rebuilt through
    /// [`InstanceBuilder`] and hashed as given.
    struct Reference {
        instance: Instance,
        fingerprint: Fingerprint,
        job_order: Vec<JobId>,
        class_order: Vec<ClassId>,
    }

    fn reference(inst: &Instance) -> Reference {
        let n = inst.num_jobs();
        let num_classes = inst.num_classes();
        let menu_of = |job: JobId| inst.declared_shapes(job).unwrap_or(&[]);
        let mut signatures: Vec<Vec<(u64, &[JobShape])>> = vec![Vec::new(); num_classes];
        for job in 0..n {
            signatures[inst.class_of(job)].push((inst.processing_time(job), menu_of(job)));
        }
        for sig in &mut signatures {
            sig.sort_unstable();
        }
        let mut by_signature: Vec<ClassId> = (0..num_classes).collect();
        by_signature.sort_by(|&a, &b| signatures[a].cmp(&signatures[b]));
        let mut rank = vec![0usize; num_classes];
        for (r, &class) in by_signature.iter().enumerate() {
            rank[class] = r;
        }
        let mut job_order: Vec<JobId> = (0..n).collect();
        job_order.sort_by_key(|&j| (inst.processing_time(j), rank[inst.class_of(j)], menu_of(j)));
        let mut canonical_of_class: Vec<Option<u32>> = vec![None; num_classes];
        let mut class_order: Vec<ClassId> = Vec::with_capacity(num_classes);
        let mut builder = InstanceBuilder::new(inst.machines(), inst.class_slots());
        for &job in &job_order {
            let class = inst.class_of(job);
            let label = *canonical_of_class[class].get_or_insert_with(|| {
                class_order.push(class);
                (class_order.len() - 1) as u32
            });
            builder = builder.job_shaped(inst.processing_time(job), label, menu_of(job));
        }
        let instance = builder.build().unwrap();
        Reference {
            fingerprint: fingerprint_of(&instance),
            instance,
            job_order,
            class_order,
        }
    }

    /// Hashes an instance **as given** (the caller passes the canonical form).
    fn fingerprint_of(canonical: &Instance) -> Fingerprint {
        let mut mixer = Mixer::new();
        mixer.absorb(FINGERPRINT_VERSION);
        mixer.absorb(canonical.machines());
        mixer.absorb(canonical.class_slots());
        mixer.absorb(canonical.num_jobs() as u64);
        mixer.absorb(canonical.num_classes() as u64);
        for job in 0..canonical.num_jobs() {
            mixer.absorb(canonical.processing_time(job));
            mixer.absorb(canonical.class_of(job) as u64);
        }
        if canonical.has_shapes() {
            mixer.absorb(SHAPES_EXTENSION_TAG);
            mixer.absorb(SHAPES_EXTENSION_VERSION);
            for job in 0..canonical.num_jobs() {
                let menu = canonical.declared_shapes(job).unwrap_or(&[]);
                mixer.absorb(menu.len() as u64);
                for &(k, t) in menu {
                    mixer.absorb(k);
                    mixer.absorb(t);
                }
            }
        }
        mixer.finish()
    }

    /// Asserts that `inst.canonical()` agrees with the reference, and
    /// returns the reference's canonical instance.
    fn canonical_instance(inst: &Instance) -> Instance {
        let canon = inst.canonical();
        let expected = reference(inst);
        assert_eq!(canon.fingerprint(), expected.fingerprint, "fingerprint");
        assert_eq!(canon.job_order(), expected.job_order, "job order");
        assert_eq!(canon.class_order(), expected.class_order, "class order");
        expected.instance
    }

    /// Deterministic LCG for permutation/relabel sweeps (no `rand` in this
    /// offline workspace).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % bound.max(1)
        }
    }

    fn sample() -> Instance {
        instance_from_pairs(
            4,
            2,
            &[(10, 5), (20, 7), (5, 5), (8, 9), (2, 7), (10, 9), (5, 7)],
        )
        .unwrap()
    }

    /// Shuffles jobs (with their shape menus) and relabels classes through
    /// an LCG-driven bijection.
    fn scrambled(inst: &Instance, rng: &mut Lcg) -> Instance {
        let mut jobs: Vec<(u64, u32, &[JobShape])> = (0..inst.num_jobs())
            .map(|j| {
                (
                    inst.processing_time(j),
                    inst.class_label(inst.class_of(j)),
                    inst.declared_shapes(j).unwrap_or(&[]),
                )
            })
            .collect();
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.next(i as u64 + 1) as usize);
        }
        // Random injective relabel: offset + stride over a large odd modulus.
        let offset = rng.next(1000) as u32;
        let mut builder = InstanceBuilder::new(inst.machines(), inst.class_slots());
        for (p, label, menu) in jobs {
            let label = label.wrapping_mul(2654435761).wrapping_add(offset);
            builder = builder.job_shaped(p, label, menu);
        }
        builder.build().unwrap()
    }

    #[test]
    fn canonical_is_sorted_and_first_occurrence_numbered() {
        let inst = &canonical_instance(&sample());
        // Jobs ascend by processing time.
        let times: Vec<u64> = (0..inst.num_jobs())
            .map(|j| inst.processing_time(j))
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        // Class labels are 0..C in order of first occurrence.
        let mut seen = 0u32;
        for j in 0..inst.num_jobs() {
            let label = inst.class_label(inst.class_of(j));
            assert!(label <= seen, "label {label} before {seen} introduced");
            if label == seen {
                seen += 1;
            }
        }
        assert_eq!(seen as usize, inst.num_classes());
        // No empty classes can exist (every class carries at least one job).
        for u in 0..inst.num_classes() {
            assert!(!inst.jobs_of_class(u).is_empty());
        }
    }

    #[test]
    fn canonical_of_canonical_is_identity() {
        let canon = sample().canonical();
        let instance = canonical_instance(&sample());
        let again = instance.canonical();
        assert!(again.is_identity());
        assert_eq!(canonical_instance(&instance), instance);
        assert_eq!(again.fingerprint(), canon.fingerprint());
    }

    #[test]
    fn job_and_class_order_translate_back() {
        let inst = sample();
        let canon = inst.canonical();
        let canonical = canonical_instance(&inst);
        assert_eq!(canon.job_order().len(), inst.num_jobs());
        assert_eq!(canon.class_order().len(), inst.num_classes());
        for (k, &j) in canon.job_order().iter().enumerate() {
            assert_eq!(
                canonical.processing_time(k),
                inst.processing_time(j),
                "canonical job {k} maps to original job {j}"
            );
            assert_eq!(
                canon.class_order()[canonical.class_of(k)],
                inst.class_of(j),
                "class correspondence of canonical job {k}"
            );
        }
    }

    #[test]
    fn permutations_and_relabels_share_the_canonical_form() {
        let mut rng = Lcg(0xCA90);
        for base in [sample(), shaped_sample()] {
            let canon = base.canonical();
            let canonical = canonical_instance(&base);
            for round in 0..50 {
                let variant = scrambled(&base, &mut rng);
                assert_eq!(canonical_instance(&variant), canonical, "round {round}");
                assert_eq!(
                    variant.canonical().fingerprint(),
                    canon.fingerprint(),
                    "round {round}"
                );
            }
        }
    }

    /// Random instances built to tie: times from a short range, classes
    /// that repeat another class's times (equal signatures), and on every
    /// other instance shape menus from a small palette.
    fn tied_instances(count: usize) -> Vec<Instance> {
        let palette: [&[JobShape]; 4] = [&[], &[(1, 9), (2, 5)], &[(1, 9), (2, 6)], &[(1, 4)]];
        let mut rng = Lcg(0x7_1ED);
        (0..count)
            .map(|case| {
                let machines = 1 + rng.next(4);
                let mut builder = InstanceBuilder::new(machines, 1 + rng.next(3));
                let classes = 1 + rng.next(6) as u32;
                for _ in 0..1 + rng.next(30) {
                    let p = 1 + rng.next(6);
                    let label = rng.next(u64::from(classes)) as u32;
                    let menu = match case % 2 {
                        0 => &[][..],
                        _ => palette[rng.next(4) as usize],
                    };
                    // A menu must fit the machines; (1, p) alone is dropped.
                    let menu = if menu.iter().all(|&(k, _)| k <= machines) {
                        menu
                    } else {
                        &[][..]
                    };
                    builder = builder.job_shaped(p, label, menu);
                    // Mirror some jobs into a twin class, so that classes
                    // with equal signatures are common.
                    if label.is_multiple_of(2) {
                        builder = builder.job_shaped(p, label + 100, menu);
                    }
                }
                builder.build().unwrap()
            })
            .collect()
    }

    #[test]
    fn random_tied_instances_match_the_reference() {
        let mut shaped = 0;
        for inst in tied_instances(2_000) {
            shaped += usize::from(inst.has_shapes());
            canonical_instance(&inst);
        }
        assert!(shaped > 500, "{shaped} shaped instances");
    }

    #[test]
    fn equal_time_jobs_across_classes_still_canonicalise() {
        // The regression the signature-based tie-break exists for: equal
        // processing times in different classes must not make the canonical
        // form depend on input order.
        let a = instance_from_pairs(2, 1, &[(5, 0), (3, 0), (5, 1)]).unwrap();
        let b = instance_from_pairs(2, 1, &[(5, 1), (3, 0), (5, 0)]).unwrap();
        assert_eq!(canonical_instance(&a), canonical_instance(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Symmetric classes (identical signatures) are interchangeable.
        let c = instance_from_pairs(2, 1, &[(3, 0), (5, 0), (3, 1), (5, 1)]).unwrap();
        let d = instance_from_pairs(2, 1, &[(3, 1), (5, 1), (3, 0), (5, 0)]).unwrap();
        assert_eq!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn different_data_different_fingerprints() {
        let base = instance_from_pairs(4, 2, &[(10, 0), (20, 1), (5, 0)]).unwrap();
        let variants = [
            instance_from_pairs(4, 3, &[(10, 0), (20, 1), (5, 0)]).unwrap(), // c differs
            instance_from_pairs(5, 2, &[(10, 0), (20, 1), (5, 0)]).unwrap(), // m differs
            instance_from_pairs(4, 2, &[(10, 0), (20, 1), (6, 0)]).unwrap(), // a time differs
            instance_from_pairs(4, 2, &[(10, 0), (20, 1), (5, 1)]).unwrap(), // a class differs
            instance_from_pairs(4, 2, &[(10, 0), (20, 1)]).unwrap(),         // a job dropped
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.fingerprint(), v.fingerprint(), "variant {i}");
        }
    }

    #[test]
    fn fingerprint_is_stable_across_versions_of_this_workspace() {
        // Golden value: pins cross-platform / cross-release stability.  If
        // this assertion fails, the canonical form or the hash changed —
        // bump FINGERPRINT_VERSION and re-record.
        let inst = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2)]).unwrap();
        let fp = inst.fingerprint();
        assert_eq!(fp, inst.canonical().fingerprint());
        assert_eq!(format!("{fp}").len(), 32);
        assert_eq!(fp, Fingerprint(0x6783_9f22_be5a_bbd4_bbff_25c0_6fa3_f5c7));
    }

    fn shaped_sample() -> Instance {
        InstanceBuilder::new(3, 2)
            .job_shaped(7, 0, &[(2, 4), (1, 7)])
            .job(8, 0)
            .job_shaped(9, 1, &[(3, 3), (1, 9), (2, 5)])
            .job(5, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn shaped_instances_change_the_fingerprint() {
        let plain = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2)]).unwrap();
        let shaped = shaped_sample();
        assert_ne!(plain.fingerprint(), shaped.fingerprint());
        // A different menu is a different instance.
        let other = InstanceBuilder::new(3, 2)
            .job_shaped(7, 0, &[(2, 5), (1, 7)])
            .job(8, 0)
            .job_shaped(9, 1, &[(3, 3), (1, 9), (2, 5)])
            .job(5, 2)
            .build()
            .unwrap();
        assert_ne!(shaped.fingerprint(), other.fingerprint());
    }

    #[test]
    fn shaped_canonical_is_symmetry_invariant() {
        // Job permutation + class relabel of the shaped sample, with menus
        // declared in a different order: same canonical form.
        let scrambled = InstanceBuilder::new(3, 2)
            .job(5, 9)
            .job_shaped(9, 4, &[(1, 9), (2, 5), (3, 3)])
            .job_shaped(7, 7, &[(1, 7), (2, 4)])
            .job(8, 7)
            .build()
            .unwrap();
        let canon = shaped_sample().canonical();
        let canonical = canonical_instance(&shaped_sample());
        assert_eq!(canonical_instance(&scrambled), canonical);
        assert_eq!(scrambled.fingerprint(), shaped_sample().fingerprint());
        // Canonicalising a canonical shaped instance is the identity.
        let again = canonical.canonical();
        assert!(again.is_identity());
        assert_eq!(again.fingerprint(), canon.fingerprint());
    }

    #[test]
    fn shaped_tie_break_distinguishes_equal_time_jobs() {
        // Two same-class jobs with equal processing times but different
        // menus must canonicalise independently of input order.
        let menu_a: &[JobShape] = &[(2, 3), (1, 5)];
        let menu_b: &[JobShape] = &[(2, 4), (1, 5)];
        let x = InstanceBuilder::new(2, 1)
            .job_shaped(5, 0, menu_a)
            .job_shaped(5, 0, menu_b)
            .build()
            .unwrap();
        let y = InstanceBuilder::new(2, 1)
            .job_shaped(5, 0, menu_b)
            .job_shaped(5, 0, menu_a)
            .build()
            .unwrap();
        assert_eq!(canonical_instance(&x), canonical_instance(&y));
        assert_eq!(x.fingerprint(), y.fingerprint());
    }

    #[test]
    fn shaped_fingerprint_is_stable_across_versions_of_this_workspace() {
        // Golden value for the extended canonical stream, the shaped
        // counterpart of the PR-4 golden above.  If this fails, the
        // extension section layout changed — bump SHAPES_EXTENSION_VERSION
        // and re-record.
        let fp = shaped_sample().fingerprint();
        assert_eq!(fp, shaped_sample().canonical().fingerprint());
        assert_eq!(fp, Fingerprint(0x9fd9_04af_8243_3ffe_0623_f6fd_f7d2_c08b));
    }

    /// The instance equivalent to an [`IncrementalFingerprint`] state, built
    /// from scratch for comparison.
    fn rebuilt(inc: &IncrementalFingerprint) -> Instance {
        let mut b = InstanceBuilder::new(inc.machines(), inc.class_slots());
        for (&label, times) in &inc.classes {
            for &p in times {
                b = b.job(p, label);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn incremental_matches_from_scratch_on_simple_builds() {
        let inst = sample();
        let inc = IncrementalFingerprint::from_instance(&inst);
        assert_eq!(inc.num_jobs(), inst.num_jobs());
        assert_eq!(inc.num_classes(), inst.num_classes());
        assert_eq!(inc.fingerprint(), inst.fingerprint());
    }

    #[test]
    fn incremental_matches_from_scratch_under_random_delta_chains() {
        let mut rng = Lcg(0xD311A);
        for chain in 0..20 {
            let mut inc = IncrementalFingerprint::new(2 + rng.next(4), 1 + rng.next(3));
            // Start non-empty so removals have something to hit.
            for _ in 0..4 {
                inc.add_job(1 + rng.next(30), rng.next(5) as u32);
            }
            for step in 0..30 {
                match rng.next(5) {
                    0 | 1 => inc.add_job(1 + rng.next(30), rng.next(5) as u32),
                    2 if inc.num_jobs() > 1 => {
                        // Remove an existing job: resample from the tracked state.
                        let nth = rng.next(inc.num_jobs() as u64) as usize;
                        let (label, p) = inc
                            .classes
                            .iter()
                            .flat_map(|(&l, ts)| ts.iter().map(move |&p| (l, p)))
                            .nth(nth)
                            .unwrap();
                        inc.remove_job(p, label).unwrap();
                    }
                    3 => inc.add_machines(1 + rng.next(3)),
                    _ => inc.retype_class(rng.next(5) as u32, rng.next(5) as u32),
                }
                assert_eq!(
                    inc.fingerprint(),
                    rebuilt(&inc).fingerprint(),
                    "chain {chain} step {step}"
                );
            }
        }
    }

    #[test]
    fn incremental_removal_of_missing_jobs_is_rejected() {
        let mut inc = IncrementalFingerprint::new(2, 1);
        inc.add_job(5, 0);
        assert!(inc.remove_job(6, 0).is_err());
        assert!(inc.remove_job(5, 1).is_err());
        inc.remove_job(5, 0).unwrap();
        assert_eq!(inc.num_jobs(), 0);
        assert_eq!(inc.num_classes(), 0);
    }

    #[test]
    fn incremental_retype_merges_multisets() {
        let mut a = IncrementalFingerprint::new(3, 2);
        a.add_job(4, 0);
        a.add_job(9, 0);
        a.add_job(6, 1);
        a.retype_class(1, 0);
        let mut b = IncrementalFingerprint::new(3, 2);
        b.add_job(4, 0);
        b.add_job(6, 0);
        b.add_job(9, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.num_classes(), 1);
        // Retyping a missing class or onto itself is a no-op.
        let before = a.fingerprint();
        a.retype_class(7, 0);
        a.retype_class(0, 0);
        assert_eq!(a.fingerprint(), before);
    }

    #[test]
    fn incremental_fingerprint_is_stable_across_versions_of_this_workspace() {
        // Golden value for a fixed delta chain, the incremental counterpart
        // of `fingerprint_is_stable_across_versions_of_this_workspace`; it
        // must also equal the from-scratch fingerprint of the final state.
        let mut inc = IncrementalFingerprint::new(3, 2);
        inc.add_job(7, 0);
        inc.add_job(8, 0);
        inc.add_job(9, 1);
        inc.add_job(5, 2);
        assert_eq!(
            inc.fingerprint(),
            Fingerprint(0x6783_9f22_be5a_bbd4_bbff_25c0_6fa3_f5c7),
            "four adds must reproduce the from-scratch golden value"
        );
        inc.add_job(3, 1);
        inc.remove_job(8, 0).unwrap();
        inc.add_machines(2);
        inc.retype_class(2, 0);
        assert_eq!(inc.fingerprint(), rebuilt(&inc).fingerprint());
        assert_eq!(
            inc.fingerprint(),
            instance_from_pairs(5, 2, &[(7, 0), (5, 0), (9, 1), (3, 1)])
                .unwrap()
                .fingerprint()
        );
    }
}
