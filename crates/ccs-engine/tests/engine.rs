//! Integration tests for the dispatch layer: portfolio routing, the
//! cross-solver guarantee property, batch/sequential equivalence, and the
//! threads solves run on.

use ccs_core::instance::instance_from_pairs;
use ccs_core::par::{par_map_ctx, set_threads};
use ccs_core::{
    Guarantee, Instance, NonPreemptiveSchedule, Rational, Result, Schedule, ScheduleKind,
    SolveContext, SolveReport, Solver,
};
use ccs_engine::{serve, Engine, NetdConfig, Service, SolveRequest, SolverRegistry};
use ccs_gen::GenParams;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, ThreadId};

/// Every registered solver, run on small random instances, returns a
/// schedule that (a) passes the validator of its model, (b) matches the
/// solver's declared [`ScheduleKind`], and (c) respects its declared
/// guarantee against the exact optimum of its model.
#[test]
fn every_registered_solver_validates_and_respects_its_guarantee() {
    let engine = Engine::new();
    for seed in 0..25u64 {
        let inst = ccs_gen::tiny_random(seed);
        for solver in engine.registry().iter() {
            let report = match solver.solve_any(&inst) {
                Ok(report) => report,
                // Size limits (exact solvers) are allowed; nothing else is.
                Err(ccs_core::CcsError::InvalidParameter(_)) => continue,
                Err(e) => panic!("{} failed on seed {seed}: {e}", solver.name()),
            };
            report
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{} invalid on seed {seed}: {e}", solver.name()));
            assert_eq!(
                report.schedule.kind(),
                solver.kind(),
                "{} returned a schedule of the wrong model",
                solver.name()
            );
            let Some(factor) = solver.guarantee().factor() else {
                continue; // heuristics promise nothing
            };
            let opt = match exact_optimum(&inst, solver.kind()) {
                Some(opt) => opt,
                None => continue, // instance beyond the exact solver's limits
            };
            assert!(
                report.makespan <= factor * opt,
                "{} on seed {seed}: makespan {} exceeds {} × opt {}",
                solver.name(),
                report.makespan,
                factor,
                opt
            );
        }
    }
}

fn exact_optimum(inst: &ccs_core::Instance, kind: ScheduleKind) -> Option<Rational> {
    match kind {
        ScheduleKind::Splittable => ccs_exact::splittable_optimum(inst).ok(),
        ScheduleKind::Preemptive => ccs_exact::preemptive_optimum(inst).ok(),
        ScheduleKind::NonPreemptive => ccs_exact::ExactNonPreemptive
            .solve(inst)
            .ok()
            .map(|report| report.makespan),
        ScheduleKind::Moldable => ccs_exact::ExactMoldable
            .solve(inst)
            .ok()
            .map(|report| report.makespan),
    }
}

/// `solve_batch` on a 100-instance generated batch returns exactly the
/// results of sequential solving, in input order.
#[test]
fn batch_matches_sequential_on_hundred_instances() {
    let engine = Engine::new();
    let mut instances = Vec::new();
    for seed in 0..25u64 {
        let p = GenParams::new(40, 6, 10, 2);
        instances.push(ccs_gen::uniform(&p, seed));
        instances.push(ccs_gen::zipf_classes(&p, seed));
        instances.push(ccs_gen::data_placement(&p, seed));
        instances.push(ccs_gen::tiny_random(seed));
    }
    assert_eq!(instances.len(), 100);

    for model in ccs_core::ModelSpec::all().map(|spec| spec.kind) {
        let req = SolveRequest::auto(model);
        let sequential: Vec<_> = instances.iter().map(|i| engine.solve(i, &req)).collect();
        let batch = engine.solve_batch(&instances, &req);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            match (b, s) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.solver, s.solver, "instance {i}: different solver");
                    assert_eq!(
                        b.report.makespan, s.report.makespan,
                        "instance {i}: different makespan"
                    );
                    assert_eq!(b.report.lower_bound, s.report.lower_bound);
                }
                (Err(be), Err(se)) => assert_eq!(be, se, "instance {i}: different error"),
                _ => panic!("instance {i}: batch and sequential disagree on success"),
            }
        }
    }
}

/// The portfolio picks solvers that actually carry the requested guarantee
/// end to end: an `epsilon` request yields a solution whose solver guarantee
/// is at most `1 + ε`.
#[test]
fn epsilon_requests_get_a_matching_guarantee() {
    let engine = Engine::new();
    // Small instance so that the tight-ε case (which routes to a freshly
    // parameterised PTAS) stays cheap.
    let inst = ccs_core::instance::instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
    for (eps, model) in [
        (1.5f64, ScheduleKind::Splittable),
        (2.0, ScheduleKind::NonPreemptive),
        (1.2, ScheduleKind::NonPreemptive), // 1 + 1.2 < 7/3 → ad-hoc PTAS
    ] {
        let sol = engine
            .solve(&inst, &SolveRequest::epsilon(model, eps).unwrap())
            .unwrap();
        let factor = sol.guarantee.factor().expect("never a heuristic");
        let budget = Rational::ONE + Rational::new((eps * 1000.0) as i128, 1000);
        assert!(
            factor <= budget,
            "granted factor {factor} exceeds budget {budget}"
        );
        sol.report.validate(&inst).unwrap();
    }
}

/// Exact requests on tiny instances agree with the standalone exact solvers.
#[test]
fn exact_requests_match_reference_optima() {
    let engine = Engine::new();
    for seed in 0..15u64 {
        let inst = ccs_gen::tiny_random(seed);
        for model in ccs_core::ModelSpec::all().map(|spec| spec.kind) {
            let Ok(sol) = engine.solve(&inst, &SolveRequest::exact(model)) else {
                continue; // beyond the exact solvers' limits
            };
            let opt = exact_optimum(&inst, model).expect("engine solved it, reference must too");
            assert_eq!(sol.report.makespan, opt, "seed {seed}, model {model}");
        }
    }
}

/// Every solve the probe ran: its thread, and the threads its items ran on.
type Runs = Arc<Mutex<Vec<(ThreadId, Vec<ThreadId>)>>>;

/// Stands in for the exact non-preemptive solver: maps eight items through
/// `par_map_ctx`, recording the thread of each, then solves for real.
struct ThreadProbe(Runs);

impl Solver for ThreadProbe {
    type Schedule = NonPreemptiveSchedule;

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
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<NonPreemptiveSchedule>> {
        let items = par_map_ctx(ctx, &[(); 8], |_, _| Ok(thread::current().id()))?;
        self.0.lock().unwrap().push((thread::current().id(), items));
        ccs_exact::ExactNonPreemptive.solve_ctx(inst, ctx)
    }
}

/// A server thread solves serially: a pool worker, and a connection's
/// driver running a session solve inline.  A solve on the caller's own
/// thread fans out, also on a thread that has driven a connection before.
#[test]
fn served_solves_run_on_their_thread_and_direct_solves_fan_out() {
    set_threads(Some(4));
    let runs = Runs::default();
    let mut registry = SolverRegistry::with_defaults();
    registry.replace(ThreadProbe(Arc::clone(&runs)));
    let engine = Engine::with_registry(registry).with_workers(2);
    let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
    let req = SolveRequest::exact(ScheduleKind::NonPreemptive);
    let last_run = || runs.lock().unwrap().pop().expect("the probe ran");
    let here = thread::current().id();

    engine.submit(inst.clone(), &req).wait().unwrap();
    let (worker, items) = last_run();
    assert_ne!(worker, here);
    assert_eq!(items, [worker; 8], "a pool worker fanned out");

    let service = Service::new(engine.clone(), NetdConfig::default());
    let input = concat!(
        r#"{"schema":"ccs-wire/1","id":"o","op":"session","action":"open","#,
        r#""instance":{"class_labels_per_job":[0,0,1],"class_slots":1,"#,
        r#""machines":2,"processing_times":[6,1,5]}}"#,
        "\n",
        r#"{"schema":"ccs-wire/1","id":"s","op":"session","action":"solve","#,
        r#""session":"s1","model":"non-preemptive","accuracy":"exact"}"#,
        "\n",
    );
    let mut out = Vec::new();
    serve(&service, input.as_bytes(), &mut out, || {}, mpsc::channel()).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains(r#""solver":"exact-nonpreemptive""#), "{out}");
    assert_eq!(
        last_run(),
        (here, vec![here; 8]),
        "a session solve fanned out"
    );

    engine.solve(&inst, &req).unwrap();
    let (caller, items) = last_run();
    assert_eq!(caller, here);
    assert!(
        items.iter().all(|&item| item != here),
        "a direct solve ran items on the caller: {items:?}"
    );
    set_threads(None);
}
