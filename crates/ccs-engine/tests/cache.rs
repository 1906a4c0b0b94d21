//! Correctness of the engine's solution cache: canonical-equivalence
//! sweeps, key separation, single-flight coalescing, batch deduplication
//! and the no-caching-of-errors rule.

use ccs_core::instance::instance_from_pairs;
use ccs_core::solver::{Guarantee, SolveReport, SolverCost};
use ccs_core::{
    AnySchedule, Instance, InstanceBuilder, Result, Schedule, ScheduleKind, SolveContext,
};
use ccs_engine::{CacheOutcome, Engine, ErasedSolver, SolveRequest, SolverRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Deterministic LCG (no `rand` in this offline workspace).
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

/// Job-permuted, class-relabelled copy of an instance (canonically equal by
/// construction).
fn scrambled(inst: &Instance, rng: &mut Lcg) -> Instance {
    let mut jobs: Vec<(u64, u32)> = (0..inst.num_jobs())
        .map(|j| (inst.processing_time(j), inst.class_label(inst.class_of(j))))
        .collect();
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.next(i as u64 + 1) as usize);
    }
    let offset = rng.next(1000) as u32;
    for (_, label) in &mut jobs {
        *label = label.wrapping_mul(2654435761).wrapping_add(offset);
    }
    instance_from_pairs(inst.machines(), inst.class_slots(), &jobs).unwrap()
}

fn sweep_instance(rng: &mut Lcg) -> Instance {
    let machines = 1 + rng.next(4);
    let slots = 1 + rng.next(2);
    let classes = 1 + rng.next(4) as u32;
    let jobs = 1 + rng.next(7) as usize;
    let mut b = InstanceBuilder::new(machines, slots);
    for _ in 0..jobs {
        b = b.job(1 + rng.next(30), rng.next(classes as u64) as u32);
    }
    b.build().unwrap()
}

/// A registry whose every solver counts its invocations.
fn counting_registry() -> (SolverRegistry, Arc<AtomicUsize>) {
    struct Counting {
        inner: Arc<dyn ErasedSolver>,
        runs: Arc<AtomicUsize>,
    }

    impl ErasedSolver for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn kind(&self) -> ScheduleKind {
            self.inner.kind()
        }
        fn guarantee(&self) -> Guarantee {
            self.inner.guarantee()
        }
        fn cost(&self) -> SolverCost {
            self.inner.cost()
        }
        fn solve_any_ctx(
            &self,
            inst: &Instance,
            ctx: &SolveContext,
        ) -> Result<SolveReport<AnySchedule>> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.inner.solve_any_ctx(inst, ctx)
        }
    }

    let runs = Arc::new(AtomicUsize::new(0));
    let mut registry = SolverRegistry::empty();
    for solver in SolverRegistry::with_defaults().iter() {
        registry
            .register(Counting {
                inner: Arc::clone(solver),
                runs: Arc::clone(&runs),
            })
            .unwrap();
    }
    (registry, runs)
}

fn cached_engine(entries: usize) -> (Engine, Arc<AtomicUsize>) {
    let (registry, runs) = counting_registry();
    (Engine::with_registry(registry).with_cache(entries), runs)
}

#[test]
fn identical_resubmission_hits_and_is_bit_identical() {
    let (engine, runs) = cached_engine(64);
    let inst = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2), (4, 3)]).unwrap();
    for kind in ccs_core::ModelSpec::all().map(|spec| spec.kind) {
        runs.store(0, Ordering::SeqCst);
        let first = engine.solve(&inst, &SolveRequest::auto(kind)).unwrap();
        let second = engine.solve(&inst, &SolveRequest::auto(kind)).unwrap();
        assert_eq!(first.cache, Some(CacheOutcome::Miss), "{kind}");
        assert_eq!(second.cache, Some(CacheOutcome::Hit), "{kind}");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "{kind}");
        // Bit-identical report, not just an equal makespan.
        assert_eq!(first.solver, second.solver, "{kind}");
        assert_eq!(first.report.makespan, second.report.makespan, "{kind}");
        assert_eq!(
            first.report.lower_bound, second.report.lower_bound,
            "{kind}"
        );
        assert_eq!(first.report.stats, second.report.stats, "{kind}");
        assert_eq!(first.report.schedule, second.report.schedule, "{kind}");
    }
}

#[test]
fn canonical_equivalence_property_sweep() {
    // Permuted jobs / relabelled classes hit the same entry, and the
    // translated schedule is valid for the *querying* instance.
    let mut rng = Lcg(0x5EED);
    for round in 0..30 {
        let (engine, runs) = cached_engine(64);
        let base = sweep_instance(&mut rng);
        let variant = scrambled(&base, &mut rng);
        let specs: Vec<_> = ccs_core::ModelSpec::all().collect();
        let kind = specs[rng.next(specs.len() as u64) as usize].kind;
        let req = SolveRequest::auto(kind).with_validate(true);
        let (Ok(first), Ok(second)) = (engine.solve(&base, &req), engine.solve(&variant, &req))
        else {
            continue; // infeasible draws are fine
        };
        assert_eq!(first.cache, Some(CacheOutcome::Miss), "round {round}");
        assert_eq!(second.cache, Some(CacheOutcome::Hit), "round {round}");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "round {round}");
        assert_eq!(
            first.report.makespan, second.report.makespan,
            "round {round} ({kind})"
        );
        // `with_validate` already re-checked the translated schedule inside
        // the engine; check again from the outside for good measure.
        second.report.validate(&variant).unwrap();
        assert_eq!(
            second.report.schedule.makespan(&variant),
            second.report.makespan
        );
    }
}

#[test]
fn canonically_equal_instances_have_equal_optima_per_model() {
    // The fact the cache is built on, proven against the exact solvers.
    let mut rng = Lcg(0x0071CA);
    for _ in 0..20 {
        let base = sweep_instance(&mut rng);
        let variant = scrambled(&base, &mut rng);
        assert_eq!(base.fingerprint(), variant.fingerprint());
        let engine = Engine::new();
        for kind in ccs_core::ModelSpec::all().map(|spec| spec.kind) {
            let a = engine.solve(&base, &SolveRequest::exact(kind));
            let b = engine.solve(&variant, &SolveRequest::exact(kind));
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.report.makespan, b.report.makespan, "{kind}")
                }
                (Err(_), Err(_)) => {} // both infeasible / both over size limits
                (a, b) => panic!("asymmetric outcomes for {kind}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn distinct_keys_never_collide() {
    let (engine, runs) = cached_engine(64);
    let jobs: &[(u64, u32)] = &[(7, 0), (8, 0), (9, 1), (5, 2)];
    let base = instance_from_pairs(3, 2, jobs).unwrap();
    let other_slots = instance_from_pairs(3, 3, jobs).unwrap();
    let other_machines = instance_from_pairs(4, 2, jobs).unwrap();
    let req = SolveRequest::auto(ScheduleKind::Splittable);

    engine.solve(&base, &req).unwrap();
    // Differing `c` (even where both are loose enough to be semantically
    // equivalent) and differing `m` are distinct cache keys.
    assert_eq!(
        engine.solve(&other_slots, &req).unwrap().cache,
        Some(CacheOutcome::Miss)
    );
    assert_eq!(
        engine.solve(&other_machines, &req).unwrap().cache,
        Some(CacheOutcome::Miss)
    );
    // A different model never shares an entry.
    assert_eq!(
        engine
            .solve(&base, &SolveRequest::auto(ScheduleKind::Preemptive))
            .unwrap()
            .cache,
        Some(CacheOutcome::Miss)
    );
    // A different resolved accuracy never shares an entry (ε = 1.2 on the
    // non-preemptive model routes to a PTAS with 1/δ = ⌈8/1.2⌉ = 7)...
    assert_eq!(
        engine
            .solve(
                &base,
                &SolveRequest::epsilon(ScheduleKind::NonPreemptive, 1.2).unwrap()
            )
            .unwrap()
            .cache,
        Some(CacheOutcome::Miss)
    );
    // ...but two ε budgets resolving to the same PTAS parameters do share
    // (⌈8/1.21⌉ = 7 as well).
    let before = runs.load(Ordering::SeqCst);
    assert_eq!(
        engine
            .solve(
                &base,
                &SolveRequest::epsilon(ScheduleKind::NonPreemptive, 1.21).unwrap()
            )
            .unwrap()
            .cache,
        Some(CacheOutcome::Hit)
    );
    assert_eq!(runs.load(Ordering::SeqCst), before);
    let stats = engine.cache_stats().unwrap();
    assert_eq!(stats.misses, 5);
    assert_eq!(stats.hits, 1);
}

#[test]
fn concurrent_submissions_coalesce_into_one_solve() {
    // N threads hammering the same instance produce one solver run and N
    // identical reports (single-flight coalescing).
    const THREADS: usize = 8;
    let (engine, runs) = cached_engine(16);
    // Heavy enough that the threads overlap: exact non-preemptive search.
    let jobs: Vec<(u64, u32)> = (0..14)
        .map(|i| (911 + 37 * i as u64, (i % 4) as u32))
        .collect();
    let inst = instance_from_pairs(4, 2, &jobs).unwrap();
    let req = SolveRequest::exact(ScheduleKind::NonPreemptive);
    let barrier = Barrier::new(THREADS);
    let solutions: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.solve(&inst, &req).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    for sol in &solutions[1..] {
        assert_eq!(sol.report.makespan, solutions[0].report.makespan);
        assert_eq!(sol.report.schedule, solutions[0].report.schedule);
        assert_eq!(sol.report.stats, solutions[0].report.stats);
    }
    assert_eq!(
        solutions
            .iter()
            .filter(|s| s.cache == Some(CacheOutcome::Miss))
            .count(),
        1,
        "exactly one leader"
    );
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, THREADS as u64 - 1);
}

#[test]
fn solve_batch_dedups_by_fingerprint() {
    let (engine, runs) = cached_engine(64);
    let a = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
    let b = instance_from_pairs(2, 2, &[(9, 3), (2, 4), (4, 3)]).unwrap();
    let mut rng = Lcg(0xBA7C4);
    // a, a-permuted, b, a, b-permuted, b: two distinct fingerprints.
    let batch = vec![
        a.clone(),
        scrambled(&a, &mut rng),
        b.clone(),
        a.clone(),
        scrambled(&b, &mut rng),
        b.clone(),
    ];
    let req = SolveRequest::auto(ScheduleKind::NonPreemptive);
    let out = engine.solve_batch(&batch, &req);
    assert_eq!(out.len(), batch.len());
    let solutions: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(
        runs.load(Ordering::SeqCst),
        2,
        "one solver run per distinct fingerprint"
    );
    // Input-ordered and equivalent to solving each entry alone (compare
    // against a fresh uncached engine).  Only the makespan is compared for
    // the permuted entries: the cache replays the leader's schedule through
    // the canonical correspondence, while a direct solve of the permuted
    // order may break ties between equally good schedules differently.
    let reference = Engine::new();
    for (i, (inst, sol)) in batch.iter().zip(&solutions).enumerate() {
        let alone = reference.solve(inst, &req).unwrap();
        assert_eq!(sol.report.makespan, alone.report.makespan, "entry {i}");
        sol.report.validate(inst).unwrap();
    }
    // Byte-identical duplicates are bit-identical to a standalone solve —
    // and hence to each other.
    for i in [0usize, 3] {
        let alone = reference.solve(&a, &req).unwrap();
        assert_eq!(
            solutions[i].report.schedule, alone.report.schedule,
            "entry {i}"
        );
        assert_eq!(solutions[i].report.stats, alone.report.stats, "entry {i}");
    }
    assert_eq!(solutions[2].report.schedule, solutions[5].report.schedule);
    assert_eq!(
        solutions[2].report.schedule,
        reference.solve(&b, &req).unwrap().report.schedule
    );
}

#[test]
fn errors_are_not_cached() {
    let (engine, runs) = cached_engine(16);
    let jobs: Vec<(u64, u32)> = (0..22)
        .map(|i| (911 + 37 * i as u64, (i % 6) as u32))
        .collect();
    let hard = instance_from_pairs(6, 2, &jobs).unwrap();
    // A deadline failure must not poison the cache...
    let strict =
        SolveRequest::exact(ScheduleKind::NonPreemptive).with_budget(Duration::from_micros(50));
    assert!(engine.solve(&hard, &strict).is_err());
    assert_eq!(engine.cache_stats().unwrap().entries, 0);
    // ...and an infeasible instance fails on every attempt instead of
    // caching its error.
    let infeasible = instance_from_pairs(1, 1, &[(1, 0), (1, 1)]).unwrap();
    let req = SolveRequest::auto(ScheduleKind::Splittable);
    runs.store(0, Ordering::SeqCst);
    assert!(engine.solve(&infeasible, &req).is_err());
    assert!(engine.solve(&infeasible, &req).is_err());
    assert_eq!(runs.load(Ordering::SeqCst), 2);
    assert_eq!(engine.cache_stats().unwrap().entries, 0);
}

#[test]
fn eviction_respects_capacity_and_keeps_the_most_recent_entry() {
    // Capacity 8 spreads as one entry per shard; streaming many distinct
    // instances through must evict, stay within capacity, and always keep
    // the most recently inserted entry of each shard (it has the highest
    // last-used tick, so LRU eviction can never pick it).
    let (engine, _) = cached_engine(8);
    let req = SolveRequest::auto(ScheduleKind::NonPreemptive);
    let mut rng = Lcg(0xE71C7);
    let mut last_solved: Option<Instance> = None;
    let mut distinct = 0u64;
    while distinct < 60 {
        let filler = sweep_instance(&mut rng);
        if engine.solve(&filler, &req).map(|s| s.cache) == Ok(Some(CacheOutcome::Miss)) {
            distinct += 1;
            last_solved = Some(filler);
        }
    }
    let stats = engine.cache_stats().unwrap();
    assert!(
        stats.entries <= 8,
        "capacity respected, got {}",
        stats.entries
    );
    assert!(
        stats.evictions >= 60 - 8,
        "streaming 60 entries through 8 slots must evict, got {}",
        stats.evictions
    );
    assert_eq!(
        engine.solve(&last_solved.unwrap(), &req).unwrap().cache,
        Some(CacheOutcome::Hit),
        "the most recently inserted entry survives"
    );
}

#[test]
fn cache_hits_are_at_least_ten_times_faster() {
    // The acceptance bar of the caching PR: a repeated solve of a
    // canonically identical instance is served ≥10× faster from cache.
    // The margin here is enormous in practice (an exact solve in the tens
    // of milliseconds vs a microsecond-scale lookup), so the factor-10
    // assertion has plenty of headroom even on loaded CI machines.
    let engine = Engine::new().with_cache(16);
    let jobs: Vec<(u64, u32)> = (0..15)
        .map(|i| (911 + 37 * i as u64, (i % 4) as u32))
        .collect();
    let inst = instance_from_pairs(4, 2, &jobs).unwrap();
    let req = SolveRequest::exact(ScheduleKind::NonPreemptive);

    let started = std::time::Instant::now();
    let miss = engine.solve(&inst, &req).unwrap();
    let miss_time = started.elapsed();
    assert_eq!(miss.cache, Some(CacheOutcome::Miss));

    let started = std::time::Instant::now();
    let hit = engine.solve(&inst, &req).unwrap();
    let hit_time = started.elapsed();
    assert_eq!(hit.cache, Some(CacheOutcome::Hit));
    assert_eq!(hit.report.schedule, miss.report.schedule);
    assert!(
        hit_time * 10 <= miss_time,
        "cache hit ({hit_time:?}) not ≥10× faster than solve ({miss_time:?})"
    );
}

#[test]
fn submit_path_consults_the_cache_too() {
    let (engine, runs) = cached_engine(16);
    let inst = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2)]).unwrap();
    let req = SolveRequest::auto(ScheduleKind::Preemptive);
    let first = engine.submit(inst.clone(), &req).wait().unwrap();
    let second = engine.submit(inst, &req).wait().unwrap();
    assert_eq!(first.cache, Some(CacheOutcome::Miss));
    assert_eq!(second.cache, Some(CacheOutcome::Hit));
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    assert_eq!(second.report.schedule, first.report.schedule);
}
