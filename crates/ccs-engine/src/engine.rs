//! The engine: one `solve` call for any model/accuracy, asynchronous
//! `submit`/handle execution on a persistent worker pool, and a batch
//! executor with deterministic result ordering built on top of it.

use crate::cache::{CacheOutcome, CacheStats, SolutionCache};
use crate::policy::{route, ResolvedAccuracy, Routed, SolveRequest};
use crate::registry::{ErasedSolver, SolverRegistry};
use crate::worker::{Job, SolveHandle, Ticket, WorkerPool};
use ccs_core::solver::{Guarantee, SolveReport};
use ccs_core::{
    AnySchedule, CcsError, Fingerprint, Instance, Result, SolveContext, StatsSink, StatsSnapshot,
    WarmHint,
};
use std::sync::{Arc, OnceLock};

/// The outcome of an engine call: which solver ran, under which guarantee,
/// and its report.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Name of the solver that produced the schedule.
    pub solver: &'static str,
    /// The guarantee that solver ran under.
    pub guarantee: Guarantee,
    /// The model-erased solve report.
    pub report: SolveReport<AnySchedule>,
    /// Whether the solution cache served this request; `None` on engines
    /// without a cache (see [`Engine::with_cache`]).
    pub cache: Option<CacheOutcome>,
    /// The parent fingerprint of the warm-start hint behind this solution:
    /// the hint the request carried on a direct run, or the hint of the run
    /// that populated the entry on a cache hit (warm lineage).  `None` for
    /// cold solves.
    pub warm_parent: Option<Fingerprint>,
}

/// Registry + routing + run bookkeeping, shared between the synchronous call
/// paths and the worker threads.
pub(crate) struct EngineCore {
    registry: SolverRegistry,
    stats: Arc<StatsSink>,
    cache: Option<Arc<SolutionCache>>,
}

impl EngineCore {
    /// Routes the request, then runs the chosen solver under `ctx` with the
    /// request's validation policy — consulting the solution cache first
    /// when the engine has one.
    pub(crate) fn execute(
        &self,
        inst: &Instance,
        req: &SolveRequest,
        ctx: &SolveContext,
    ) -> Result<Solution> {
        // The warm hint rides the context so it reaches the solver on both
        // the synchronous and the worker-pool path through this choke point.
        let warmed;
        let ctx = match req.warm {
            Some(warm) => {
                warmed = ctx.clone().with_warm(WarmHint {
                    makespan: warm.makespan,
                });
                &warmed
            }
            None => ctx,
        };
        match &self.cache {
            Some(cache) => cache.solve_through(self, inst, req, ctx),
            None => {
                let solver = self.select(inst, req)?;
                let mut solution = self.run(&solver, inst, req.validate, ctx)?;
                solution.warm_parent = req.warm.map(|warm| warm.parent);
                Ok(solution)
            }
        }
    }

    /// The single run-and-assemble path behind every engine entry point:
    /// executes the solver, optionally re-certifies the schedule, records
    /// stats, and wraps the report into a [`Solution`].
    pub(crate) fn run(
        &self,
        solver: &Arc<dyn ErasedSolver>,
        inst: &Instance,
        validate: bool,
        ctx: &SolveContext,
    ) -> Result<Solution> {
        let report = solver.solve_any_ctx(inst, ctx)?;
        if validate {
            // The validate path runs the *independent* first-principles
            // auditor (`ccs_core::audit`), not `Schedule::validate` — the
            // latter is the code solvers self-check with, so it cannot catch
            // a bug shared between a solver and its validator.  The audited
            // makespan must also match what the solver reported.
            let audit = ccs_core::audit_schedule(inst, &report.schedule)?;
            if audit.makespan != report.makespan {
                return Err(CcsError::internal(format!(
                    "solver '{}' reported makespan {}, but its schedule audits to {}",
                    solver.name(),
                    report.makespan,
                    audit.makespan
                )));
            }
        }
        ctx.record_stats(&report.stats);
        Ok(Solution {
            solver: solver.name(),
            guarantee: solver.guarantee(),
            report,
            // The cache path overwrites this with the real outcome; direct
            // runs (no cache, or explicitly named solvers) report `None`.
            cache: None,
            warm_parent: None,
        })
    }

    pub(crate) fn select(
        &self,
        inst: &Instance,
        req: &SolveRequest,
    ) -> Result<Arc<dyn ErasedSolver>> {
        Ok(self.select_resolved(inst, req)?.0)
    }

    /// [`EngineCore::select`] plus the [`ResolvedAccuracy`] the request's
    /// budget collapsed to — the accuracy component of the cache key.
    pub(crate) fn select_resolved(
        &self,
        inst: &Instance,
        req: &SolveRequest,
    ) -> Result<(Arc<dyn ErasedSolver>, ResolvedAccuracy)> {
        let resolution = route(inst, req)?;
        let solver = match resolution.routed {
            Routed::Registered(name) => self.registry.get(name).cloned().ok_or_else(|| {
                CcsError::invalid_parameter(format!("solver '{name}' is not registered"))
            })?,
            Routed::AdHoc(solver) => solver,
        };
        Ok((solver, resolution.accuracy))
    }

    pub(crate) fn stats(&self) -> Arc<StatsSink> {
        Arc::clone(&self.stats)
    }
}

/// The unified solving engine: a [`SolverRegistry`], the portfolio policy of
/// [`crate::policy`], and a persistent worker pool for asynchronous
/// request/response execution.
///
/// Cloning an engine is cheap and shares both the registry and the worker
/// pool; the pool starts lazily on the first [`Engine::submit`] /
/// [`Engine::solve_batch`] and shuts down when the last clone is dropped.
#[derive(Clone)]
pub struct Engine {
    core: Arc<EngineCore>,
    pool: Arc<OnceLock<WorkerPool>>,
    worker_count: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine over the default registry
    /// ([`SolverRegistry::with_defaults`]).
    pub fn new() -> Self {
        Engine::with_registry(SolverRegistry::with_defaults())
    }

    /// An engine over a custom registry.
    pub fn with_registry(registry: SolverRegistry) -> Self {
        Engine {
            core: Arc::new(EngineCore {
                registry,
                stats: Arc::new(StatsSink::new()),
                cache: None,
            }),
            pool: Arc::new(OnceLock::new()),
            worker_count: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Sets the worker-pool size (default: available parallelism).  Only
    /// effective before the pool has started, i.e. before the first
    /// [`Engine::submit`] / [`Engine::solve_batch`] on any clone.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.worker_count = workers.max(1);
        self
    }

    /// Attaches a solution cache holding at most `entries` results
    /// (`0` disables caching, the default).  Like [`Engine::with_workers`],
    /// call this before the engine is shared: pre-existing clones keep the
    /// previous core and would not see the cache.
    ///
    /// With a cache, every `solve`/`submit`/`solve_batch` first looks the
    /// request up by `(canonical fingerprint, model, resolved accuracy)`;
    /// see [`crate::cache`] for the exact sharing and coalescing semantics.
    pub fn with_cache(mut self, entries: usize) -> Self {
        self.core = Arc::new(EngineCore {
            registry: self.core.registry.clone(),
            stats: Arc::clone(&self.core.stats),
            cache: (entries > 0).then(|| Arc::new(SolutionCache::new(entries))),
        });
        self
    }

    /// Counters of the solution cache (`None` without [`Engine::with_cache`]).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.core.cache.as_ref().map(|cache| cache.stats())
    }

    /// The underlying registry.
    pub fn registry(&self) -> &SolverRegistry {
        &self.core.registry
    }

    /// Aggregate counters over every run this engine (and its clones)
    /// executed: solves, checkpoints, search iterations, … — plus the
    /// solution cache's hit/miss/eviction counters when one is attached
    /// (cache hits do not count as solves: no solver ran), the live
    /// worker-pool backlog ([`Engine::queue_depth`]) and the shed count an
    /// admission-control front end (such as `ccs-netd`, see [`crate::netd`])
    /// recorded on this engine's sink.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.core.stats.snapshot();
        snapshot.queue_depth = self.queue_depth() as u64;
        if let Some(cache) = &self.core.cache {
            let cache = cache.stats();
            snapshot.cache_hits = cache.hits;
            snapshot.cache_misses = cache.misses;
            snapshot.cache_evictions = cache.evictions;
        }
        snapshot
    }

    /// The solver the portfolio policy picks for `inst` under `req`
    /// (exposed for dispatch tests and introspection; [`Engine::solve`] is
    /// `select` + run).
    pub fn select(&self, inst: &Instance, req: &SolveRequest) -> Result<Arc<dyn ErasedSolver>> {
        self.core.select(inst, req)
    }

    /// Solves one instance synchronously on the calling thread, honouring
    /// the request's budget (counted from call entry) and validation policy.
    /// The solver's parallel regions fan out over helper threads
    /// ([`ccs_core::par`]); a solve through the pool does not.
    pub fn solve(&self, inst: &Instance, req: &SolveRequest) -> Result<Solution> {
        let mut ctx = SolveContext::unbounded().with_stats(self.core.stats());
        if let Some(budget) = req.budget {
            ctx = ctx.with_timeout(budget);
        }
        self.core.execute(inst, req, &ctx)
    }

    /// Solves one instance with an explicitly named registered solver.
    pub fn solve_with(&self, name: &str, inst: &Instance) -> Result<Solution> {
        let solver = self.core.registry.get(name).cloned().ok_or_else(|| {
            CcsError::invalid_parameter(format!("solver '{name}' is not registered"))
        })?;
        let ctx = SolveContext::unbounded().with_stats(self.core.stats());
        self.core.run(&solver, inst, false, &ctx)
    }

    /// Submits a request to the worker pool and returns immediately with a
    /// [`SolveHandle`] to wait on or cancel.  The job runs serially on one
    /// worker: the workers fill the cores, so its solver does not fan out.
    ///
    /// The request's budget starts counting now — a job that waits in the
    /// queue past its deadline fails with [`CcsError::DeadlineExceeded`]
    /// without ever occupying a worker for long.
    ///
    /// Accepts either an owned [`Instance`] or an `Arc<Instance>` (pass the
    /// `Arc` to share one instance across many submissions without cloning
    /// its job data).
    pub fn submit(&self, inst: impl Into<Arc<Instance>>, req: &SolveRequest) -> SolveHandle {
        self.submit_notify(inst, req, || {})
    }

    /// [`Engine::submit`] plus a completion hook: `on_complete` runs exactly
    /// once, right after the result becomes visible through the handle
    /// ([`SolveHandle::is_finished`] is `true` by then), on every path that
    /// ends the job — including cancellation at pool shutdown.  A front end
    /// hands in a channel send and blocks until woken instead of polling
    /// its handles.
    ///
    /// The hook runs on the completing thread (usually a worker) outside the
    /// worker's panic guard, so it must be short and must not panic: ignore
    /// the error of a send to a receiver that has gone away.
    pub fn submit_notify(
        &self,
        inst: impl Into<Arc<Instance>>,
        req: &SolveRequest,
        on_complete: impl FnOnce() + Send + 'static,
    ) -> SolveHandle {
        let ticket = Arc::new(Ticket::new(req.budget, Box::new(on_complete)));
        self.pool().submit(Job {
            inst: inst.into(),
            req: *req,
            core: Arc::clone(&self.core),
            ticket: Arc::clone(&ticket),
        });
        SolveHandle::new(ticket)
    }

    /// Solves many instances in parallel on the worker pool.
    ///
    /// Results are returned in input order regardless of which worker
    /// finished first, and every entry is bit-identical to what the
    /// corresponding sequential [`Engine::solve`] call produces (all solvers
    /// are deterministic).  Exception: with a request `budget`, all entries
    /// share one wall-clock window starting at the batch call — entries
    /// queued behind a full pool burn their budget waiting, exactly like
    /// requests arriving together at a loaded service.
    ///
    /// Instances are copied into `Arc`s for the workers.
    ///
    /// On a cache-enabled engine ([`Engine::with_cache`]) duplicate
    /// instances within the batch are deduplicated: the cache's
    /// single-flight coalescing runs each distinct
    /// `(fingerprint, model, resolved accuracy)` key through its solver
    /// once and fans the report out to every duplicate.  Reports stay
    /// input-ordered; byte-identical duplicates receive reports
    /// bit-identical to solving each entry alone, while permuted/relabelled
    /// duplicates receive the leader's schedule translated into their own
    /// numbering (equal makespan; tie-breaks may differ from a direct
    /// solve).
    pub fn solve_batch(&self, instances: &[Instance], req: &SolveRequest) -> Vec<Result<Solution>> {
        let handles: Vec<SolveHandle> = instances
            .iter()
            .map(|inst| self.submit(inst.clone(), req))
            .collect();
        handles.into_iter().map(SolveHandle::wait).collect()
    }

    /// Number of threads the worker pool runs (starts the pool if needed).
    pub fn workers(&self) -> usize {
        self.pool().workers()
    }

    /// Jobs submitted to the worker pool but not yet picked up by a worker
    /// (`0` when the pool has not started).  A service front end compares
    /// this against its admission budget; see [`crate::netd`].
    pub fn queue_depth(&self) -> usize {
        self.pool.get().map_or(0, WorkerPool::queue_depth)
    }

    /// The engine's shared [`StatsSink`] — service layers running outside
    /// the engine proper (e.g. the `ccs-netd` admission controller) record
    /// shed requests here so [`Engine::stats`] aggregates them.
    pub fn stats_sink(&self) -> Arc<StatsSink> {
        self.core.stats()
    }

    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.worker_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Accuracy;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::ScheduleKind;
    use std::time::Duration;

    #[test]
    fn solve_routes_and_validates() {
        let engine = Engine::new();
        let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let sol = engine
            .solve(&inst, &SolveRequest::auto(ScheduleKind::NonPreemptive))
            .unwrap();
        assert_eq!(sol.solver, "exact-nonpreemptive");
        assert_eq!(sol.guarantee, Guarantee::Exact);
        sol.report.validate(&inst).unwrap();
        assert_eq!(sol.report.makespan, ccs_core::Rational::from_int(7));
    }

    #[test]
    fn solve_with_unknown_name_errors() {
        let engine = Engine::new();
        let inst = instance_from_pairs(1, 1, &[(1, 0)]).unwrap();
        assert!(engine.solve_with("nope", &inst).is_err());
        assert!(engine.solve_with("baseline-lpt", &inst).is_ok());
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::new();
        let out = engine.solve_batch(&[], &SolveRequest::auto(ScheduleKind::Splittable));
        assert!(out.is_empty());
    }

    #[test]
    fn batch_preserves_per_instance_errors() {
        let engine = Engine::new();
        let ok = instance_from_pairs(2, 1, &[(3, 0), (4, 1)]).unwrap();
        // Infeasible: three classes, two slots in total.
        let bad = instance_from_pairs(2, 1, &[(1, 0), (1, 1), (1, 2)]).unwrap();
        let req = SolveRequest {
            accuracy: Accuracy::Auto,
            ..SolveRequest::auto(ScheduleKind::NonPreemptive)
        };
        let out = engine.solve_batch(&[ok, bad], &req);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn submit_wait_roundtrip() {
        let engine = Engine::new().with_workers(2);
        let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let handle = engine.submit(
            inst.clone(),
            &SolveRequest::auto(ScheduleKind::NonPreemptive),
        );
        let sol = handle.wait().unwrap();
        assert_eq!(sol.solver, "exact-nonpreemptive");
        // A second submission on the same (reused) pool.
        let handle = engine.submit(inst.clone(), &SolveRequest::auto(ScheduleKind::Splittable));
        handle.wait().unwrap().report.validate(&inst).unwrap();
    }

    #[test]
    fn completion_hook_fires_after_the_result_is_visible() {
        let engine = Engine::new().with_workers(1);
        let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = engine.submit_notify(
            inst,
            &SolveRequest::auto(ScheduleKind::NonPreemptive),
            move || tx.send(()).unwrap(),
        );
        rx.recv().expect("the hook fires");
        assert!(handle.is_finished());
        assert!(handle.wait().is_ok());
    }

    /// Stands in for `exact-nonpreemptive` and holds its worker until the
    /// run is cancelled.
    struct Parked;

    impl ccs_core::Solver for Parked {
        type Schedule = ccs_core::NonPreemptiveSchedule;

        fn name(&self) -> &'static str {
            "exact-nonpreemptive"
        }
        fn kind(&self) -> ScheduleKind {
            ScheduleKind::NonPreemptive
        }
        fn guarantee(&self) -> Guarantee {
            Guarantee::Exact
        }
        fn solve_ctx(
            &self,
            _: &Instance,
            ctx: &SolveContext,
        ) -> Result<SolveReport<ccs_core::NonPreemptiveSchedule>> {
            loop {
                ctx.checkpoint()?;
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn completion_hook_fires_for_jobs_cancelled_at_shutdown() {
        // One worker parked on the first job, the second queued behind it:
        // dropping the engine cancels the first and fails the second without
        // running it, and both hooks fire.
        let mut registry = SolverRegistry::with_defaults();
        registry.replace(Parked);
        let engine = Engine::with_registry(registry).with_workers(1);
        let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let req = SolveRequest::exact(ScheduleKind::NonPreemptive);
        let handles: Vec<SolveHandle> = (0..2)
            .map(|i| {
                let tx = tx.clone();
                engine.submit_notify(inst.clone(), &req, move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        drop(engine);
        let mut fired: Vec<i32> = rx.iter().collect();
        fired.sort_unstable();
        assert_eq!(fired, vec![0, 1]);
        for handle in handles {
            assert!(matches!(handle.wait(), Err(CcsError::Cancelled)));
        }
    }

    #[test]
    fn cancelled_submission_reports_cancelled() {
        // One worker, block it with a queued twin so the victim is still
        // queued when the cancel lands.
        let engine = Engine::new().with_workers(1);
        let big: Vec<(u64, u32)> = (0..22)
            .map(|i| (911 + 37 * i as u64, (i % 6) as u32))
            .collect();
        let hard = instance_from_pairs(6, 2, &big).unwrap();
        let blocker = engine.submit(
            hard.clone(),
            &SolveRequest::exact(ScheduleKind::NonPreemptive)
                .with_budget(Duration::from_millis(200)),
        );
        let victim = engine.submit(hard, &SolveRequest::exact(ScheduleKind::NonPreemptive));
        victim.cancel();
        assert!(matches!(victim.wait(), Err(CcsError::Cancelled)));
        // The blocker either finishes or hits its own deadline — the pool
        // must stay usable either way.
        let _ = blocker.wait();
        let tiny = instance_from_pairs(1, 1, &[(1, 0)]).unwrap();
        let sol = engine
            .submit(tiny, &SolveRequest::auto(ScheduleKind::NonPreemptive))
            .wait()
            .unwrap();
        assert_eq!(sol.report.makespan, ccs_core::Rational::ONE);
    }

    #[test]
    fn stats_sink_sees_engine_runs() {
        let engine = Engine::new();
        let inst = instance_from_pairs(2, 1, &[(3, 0), (4, 1)]).unwrap();
        engine
            .solve(&inst, &SolveRequest::auto(ScheduleKind::Splittable))
            .unwrap();
        let snapshot = engine.stats();
        assert_eq!(snapshot.solves, 1);
    }
}
