//! Service-level integration tests: request budgets actually interrupt every
//! solver family, workers survive and stay reusable, and the `ccs-wire/1`
//! codec round-trips a deterministic sweep of payloads.

use ccs_core::{CcsError, Instance, Rational, Schedule, ScheduleKind};
use ccs_engine::wire::{self, WireRequest, WireResponse, WireSolution};
use ccs_engine::{Engine, SolveRequest};
use ccs_gen::GenParams;
use std::time::Duration;

/// A hard branch-and-bound instance: 22 near-incommensurable jobs across 6
/// classes on 6 machines defeat the greedy bound and the area bound, so the
/// search expands far more nodes than a millisecond allows.
fn hard_exact_instance() -> Instance {
    let jobs: Vec<(u64, u32)> = (0..22)
        .map(|i| (1_000_003 + 9_973 * i as u64, (i % 6) as u32))
        .collect();
    ccs_core::instance::instance_from_pairs(6, 2, &jobs).unwrap()
}

/// The acceptance-criterion scenario: a ~1ms budget against the exact solver
/// on a large instance returns `DeadlineExceeded` — no panic — and the same
/// engine (same worker pool) keeps serving afterwards.
#[test]
fn exact_solver_respects_millisecond_budget_and_worker_survives() {
    let engine = Engine::new().with_workers(2);
    let req =
        SolveRequest::exact(ScheduleKind::NonPreemptive).with_budget(Duration::from_millis(1));
    let handle = engine.submit(hard_exact_instance(), &req);
    assert!(matches!(handle.wait(), Err(CcsError::DeadlineExceeded)));

    // The worker that hit the deadline is immediately reusable.
    let tiny = ccs_core::instance::instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
    let sol = engine
        .submit(tiny, &SolveRequest::exact(ScheduleKind::NonPreemptive))
        .wait()
        .unwrap();
    assert_eq!(sol.report.makespan, Rational::from_int(7));
}

/// An already-expired budget deterministically interrupts every solver
/// family — constant-factor, PTAS, exact and baseline — through the same
/// checkpoint mechanism, on every placement model.
#[test]
fn every_solver_family_honours_an_expired_budget() {
    let engine = Engine::new();
    let inst = ccs_gen::uniform(&GenParams::new(60, 8, 12, 3), 7);
    let requests = [
        SolveRequest::auto(ScheduleKind::Splittable),
        SolveRequest::auto(ScheduleKind::Preemptive),
        SolveRequest::auto(ScheduleKind::NonPreemptive),
        SolveRequest::epsilon(ScheduleKind::Splittable, 0.5).unwrap(),
        SolveRequest::epsilon(ScheduleKind::NonPreemptive, 0.5).unwrap(),
        SolveRequest::exact(ScheduleKind::Splittable),
        SolveRequest::exact(ScheduleKind::Preemptive),
        SolveRequest::exact(ScheduleKind::NonPreemptive),
    ];
    for req in requests {
        let req = req.with_budget(Duration::ZERO);
        let result = engine.solve(&inst, &req);
        assert!(
            matches!(result, Err(CcsError::DeadlineExceeded)),
            "{req:?} ignored its expired budget"
        );
    }
    // Every registered solver directly too: each checks its context on
    // entry, so even the fast baselines never start past their deadline.
    for solver in engine.registry().iter() {
        let ctx = ccs_core::SolveContext::unbounded().with_timeout(Duration::ZERO);
        assert!(
            matches!(
                solver.solve_any_ctx(&inst, &ctx),
                Err(CcsError::DeadlineExceeded)
            ),
            "{} ignored its expired budget",
            solver.name()
        );
    }
}

/// A hard structure-enumeration instance for the splittable/preemptive
/// exact solvers: 6 classes on 4 machines with 3 slots maximises the class
/// structures to enumerate, and 40 near-incommensurable jobs make every
/// rational max-flow witness expensive (~0.6 s even in release builds).
fn hard_structure_instance() -> Instance {
    let jobs: Vec<(u64, u32)> = (0..40)
        .map(|i| (1_000_003 + 9_973 * i as u64, (i % 6) as u32))
        .collect();
    ccs_core::instance::instance_from_pairs(4, 3, &jobs).unwrap()
}

/// The splittable and preemptive exact families honour a genuine (non-zero)
/// ~1ms budget mid-enumeration — not just the expired-budget entry check —
/// and the worker that hit the deadline stays reusable.
#[test]
fn splittable_and_preemptive_exact_families_respect_millisecond_budgets() {
    let engine = Engine::new().with_workers(2);
    for kind in [ScheduleKind::Splittable, ScheduleKind::Preemptive] {
        let req = SolveRequest::exact(kind).with_budget(Duration::from_millis(1));
        let handle = engine.submit(hard_structure_instance(), &req);
        assert!(
            matches!(handle.wait(), Err(CcsError::DeadlineExceeded)),
            "{kind} exact solver ignored its 1ms budget"
        );
        // The pool keeps serving the same model afterwards.
        let tiny =
            ccs_core::instance::instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let sol = engine
            .submit(tiny.clone(), &SolveRequest::exact(kind))
            .wait()
            .unwrap();
        sol.report.validate(&tiny).unwrap();
    }
}

/// Cooperative cancellation interrupts in-flight splittable and preemptive
/// exact runs (the cancel flag is polled inside the structure enumeration
/// and the witness construction, not just at job entry).
#[test]
fn splittable_and_preemptive_submissions_cancel_mid_run() {
    let engine = Engine::new().with_workers(1);
    for kind in [ScheduleKind::Splittable, ScheduleKind::Preemptive] {
        let handle = engine.submit(hard_structure_instance(), &SolveRequest::exact(kind));
        handle.cancel();
        assert!(
            matches!(handle.wait(), Err(CcsError::Cancelled)),
            "{kind} exact solver did not cancel"
        );
    }
    // The single worker survives both cancellations.
    let tiny = ccs_core::instance::instance_from_pairs(1, 1, &[(2, 0)]).unwrap();
    let sol = engine
        .submit(tiny, &SolveRequest::auto(ScheduleKind::Splittable))
        .wait()
        .unwrap();
    assert_eq!(sol.report.makespan, Rational::from_int(2));
}

/// The splittable and preemptive PTAS solvers honour a ~1ms budget through
/// their guess search / configuration ILP (mirrors the non-preemptive case
/// below).
#[test]
fn splittable_and_preemptive_ptas_respect_millisecond_budgets() {
    let engine = Engine::new();
    let inst = ccs_gen::uniform(&GenParams::new(48, 12, 10, 2), 3);
    for kind in [ScheduleKind::Splittable, ScheduleKind::Preemptive] {
        let req = SolveRequest::epsilon(kind, 0.25)
            .unwrap()
            .with_budget(Duration::from_millis(1));
        match engine.solve(&inst, &req) {
            Err(CcsError::DeadlineExceeded) => {}
            // Permitted only if the scheme finished inside the budget; the
            // schedule must then be genuine.
            Ok(sol) => sol.report.validate(&inst).unwrap(),
            Err(other) => panic!("{kind}: unexpected error: {other}"),
        }
    }
}

/// The genuine (non-zero) budget path for the PTAS family: a tight epsilon
/// on a medium instance runs the configuration ILP long enough that a ~1ms
/// budget interrupts it mid-search.
#[test]
fn ptas_family_respects_millisecond_budget() {
    let engine = Engine::new();
    let inst = ccs_gen::uniform(&GenParams::new(48, 12, 10, 2), 3);
    let req = SolveRequest::epsilon(ScheduleKind::NonPreemptive, 0.25)
        .unwrap()
        .with_budget(Duration::from_millis(1));
    match engine.solve(&inst, &req) {
        // The expected outcome on any realistic machine.
        Err(CcsError::DeadlineExceeded) => {}
        // Permitted only if the whole PTAS somehow finished inside the
        // budget; the schedule must then be genuine.
        Ok(sol) => sol.report.validate(&inst).unwrap(),
        Err(other) => panic!("unexpected error: {other}"),
    }
}

/// Cooperative cancellation lands *inside* the parallel guess grid and
/// configuration fan-out of the PTAS family (the context is polled in every
/// worker shard, and the cancel verdict wins over any concurrent deadline),
/// and the pool stays reusable afterwards.
#[test]
fn ptas_submissions_cancel_mid_parallel_grid() {
    let engine = Engine::new().with_workers(1);
    let inst = ccs_gen::uniform(&GenParams::new(48, 12, 10, 2), 3);
    // Paper models only: the moldable extension has no epsilon-guaranteed
    // solver, so an epsilon request never reaches a PTAS grid there.
    for kind in ccs_core::ModelSpec::paper().map(|spec| spec.kind) {
        let req = SolveRequest::epsilon(kind, 0.25).unwrap();
        let handle = engine.submit(inst.clone(), &req);
        // Give the solve a moment to reach the parallel region, then pull
        // the flag; an early cancellation is still a correct Cancelled.
        std::thread::sleep(Duration::from_millis(2));
        handle.cancel();
        assert!(
            matches!(handle.wait(), Err(CcsError::Cancelled)),
            "{kind} PTAS did not cancel mid-grid"
        );
    }
    // The single worker survives all three cancellations.
    let tiny = ccs_core::instance::instance_from_pairs(1, 1, &[(2, 0)]).unwrap();
    let sol = engine
        .submit(tiny, &SolveRequest::auto(ScheduleKind::Splittable))
        .wait()
        .unwrap();
    assert_eq!(sol.report.makespan, Rational::from_int(2));
}

/// Forcing the intra-solve parallelism down to one thread must be
/// unobservable: the same solver wins, and makespan, lower bound, counters
/// and the schedule itself are bit-identical across every family that fans
/// out (PTAS guess grids, configuration enumeration, exact root branching).
#[test]
fn single_thread_override_reports_identically_to_the_parallel_default() {
    let engine = Engine::new();
    let medium = ccs_gen::uniform(&GenParams::new(36, 8, 8, 2), 5);
    // Unbudgeted epsilon solves run the configuration ILP to completion, so
    // they get a deliberately small instance (debug builds, one-CPU CI).
    let ptas_sized = ccs_gen::uniform(&GenParams::new(8, 2, 3, 2), 5);
    let small = ccs_gen::uniform(&GenParams::new(12, 3, 4, 2), 9);
    let cases = [
        (&medium, SolveRequest::auto(ScheduleKind::Splittable)),
        (&medium, SolveRequest::auto(ScheduleKind::NonPreemptive)),
        (
            &ptas_sized,
            SolveRequest::epsilon(ScheduleKind::Splittable, 1.0).unwrap(),
        ),
        (
            &ptas_sized,
            SolveRequest::epsilon(ScheduleKind::NonPreemptive, 1.0).unwrap(),
        ),
        (&small, SolveRequest::exact(ScheduleKind::Splittable)),
        (&small, SolveRequest::exact(ScheduleKind::Preemptive)),
        (&small, SolveRequest::exact(ScheduleKind::NonPreemptive)),
    ];
    for (inst, req) in cases {
        // Pool workers solve serially, so the fanned-out side solves on a
        // thread of its own, with the workers' deep-recursion stack reserve
        // (libtest threads lack it).
        let parallel = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(ccs_core::par::WORKER_STACK_BYTES)
                .spawn_scoped(scope, || engine.solve(inst, &req))
                .unwrap()
                .join()
                .unwrap()
        })
        .unwrap();
        // Through the worker pool, like production traffic.
        ccs_core::par::set_threads(Some(1));
        let serial = engine.submit(inst.clone(), &req).wait();
        ccs_core::par::set_threads(None);
        let serial = serial.unwrap();
        assert_eq!(parallel.solver, serial.solver, "{req:?}");
        assert_eq!(parallel.report.makespan, serial.report.makespan, "{req:?}");
        assert_eq!(
            parallel.report.lower_bound, serial.report.lower_bound,
            "{req:?}"
        );
        assert_eq!(parallel.report.stats, serial.report.stats, "{req:?}");
        assert_eq!(parallel.report.schedule, serial.report.schedule, "{req:?}");
    }
}

/// Dropping the last engine clone shuts down in bounded time even with an
/// unbudgeted exponential job running and another queued: the running job
/// is cancelled at its next checkpoint, the queued one without running, and
/// both handles still complete.
#[test]
fn dropping_the_engine_cancels_outstanding_work() {
    let engine = Engine::new().with_workers(1);
    let req = SolveRequest::exact(ScheduleKind::NonPreemptive);
    let running = engine.submit(hard_exact_instance(), &req);
    let queued = engine.submit(hard_exact_instance(), &req);
    let started = std::time::Instant::now();
    drop(engine);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "engine drop must not run the exponential backlog to completion"
    );
    assert!(matches!(running.wait(), Err(CcsError::Cancelled)));
    assert!(matches!(queued.wait(), Err(CcsError::Cancelled)));
}

/// `validate: true` round-trips solutions through the schedule validators
/// without changing results.
#[test]
fn validated_requests_return_identical_results() {
    let engine = Engine::new();
    let inst = ccs_gen::zipf_classes(&GenParams::new(40, 6, 8, 2), 11);
    for model in ccs_core::ModelSpec::all().map(|spec| spec.kind) {
        let plain = engine.solve(&inst, &SolveRequest::auto(model)).unwrap();
        let checked = engine
            .solve(&inst, &SolveRequest::auto(model).with_validate(true))
            .unwrap();
        assert_eq!(plain.solver, checked.solver);
        assert_eq!(plain.report.makespan, checked.report.makespan);
    }
}

// ---------------------------------------------------------------------------
// Deterministic LCG sweep over the wire codec.
// ---------------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self, range: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % range
    }
}

fn sweep_instance(rng: &mut Lcg) -> Instance {
    let machines = 1 + rng.next(6);
    let slots = 1 + rng.next(3);
    let classes = 1 + rng.next(5) as u32;
    let jobs = 1 + rng.next(10) as usize;
    let mut b = ccs_core::InstanceBuilder::new(machines, slots);
    for _ in 0..jobs {
        b = b.job(1 + rng.next(50), rng.next(classes as u64) as u32);
    }
    b.build().unwrap()
}

fn sweep_request(rng: &mut Lcg, model: ScheduleKind) -> SolveRequest {
    let mut req = match rng.next(3) {
        0 => SolveRequest::auto(model),
        1 => SolveRequest::exact(model),
        _ => SolveRequest::epsilon(model, 0.25 + rng.next(16) as f64 / 4.0).unwrap(),
    };
    if rng.next(2) == 1 {
        // Mix whole-ms and sub-ms budgets so fractional `budget_ms` wire
        // values are exercised too.
        req = match rng.next(2) {
            0 => req.with_budget(Duration::from_millis(1 + rng.next(10_000))),
            _ => req.with_budget(Duration::from_micros(1 + rng.next(10_000_000))),
        };
    }
    if rng.next(2) == 1 {
        req = req.with_validate(true);
    }
    req
}

/// 60 pseudo-random requests round-trip bit-exactly through the request
/// codec; serialisation is canonical (a second trip yields identical bytes).
#[test]
fn lcg_sweep_requests_roundtrip() {
    let mut rng = Lcg(0xCC5_CC5);
    for i in 0..60 {
        let specs: Vec<_> = ccs_core::ModelSpec::all().collect();
        let model = specs[rng.next(specs.len() as u64) as usize].kind;
        let req = WireRequest {
            id: format!("sweep-{i}"),
            tenant: (rng.next(2) == 0).then(|| format!("tenant-{}", rng.next(4))),
            instance: sweep_instance(&mut rng),
            request: sweep_request(&mut rng, model),
        };
        let line = wire::request_to_line(&req);
        let back = wire::request_from_line(&line).unwrap();
        assert_eq!(back, req, "request {i}");
        assert_eq!(wire::request_to_line(&back), line, "request {i} canonical");
    }
}

/// Real solutions from every reachable solver round-trip through the
/// response codec, and the transported schedules still validate.
#[test]
fn lcg_sweep_solutions_roundtrip() {
    let engine = Engine::new();
    let mut rng = Lcg(0xF00D);
    let mut solutions = 0;
    for i in 0..25 {
        let inst = sweep_instance(&mut rng);
        let specs: Vec<_> = ccs_core::ModelSpec::all().collect();
        let model = specs[rng.next(specs.len() as u64) as usize].kind;
        let Ok(sol) = engine.solve(&inst, &SolveRequest::auto(model)) else {
            continue; // infeasible sweep draws are fine
        };
        solutions += 1;
        let line = wire::solution_to_json(&format!("s{i}"), &sol).to_json();
        let back: WireResponse = wire::response_from_line(&line).unwrap();
        let transported = back.outcome.unwrap();
        assert_eq!(transported, WireSolution::from(&sol), "solution {i}");
        transported.schedule.validate(&inst).unwrap();
        assert_eq!(transported.schedule.makespan(&inst), sol.report.makespan);
        assert_eq!(
            wire::wire_response_to_json(&WireResponse {
                id: format!("s{i}"),
                outcome: Ok(transported),
            })
            .to_json(),
            line,
            "solution {i} canonical"
        );
    }
    assert!(solutions >= 15, "sweep produced too few solvable draws");
}

/// Every error variant survives the response codec.
#[test]
fn lcg_sweep_errors_roundtrip() {
    let mut rng = Lcg(42);
    let variants = [
        CcsError::invalid_instance("i"),
        CcsError::invalid_schedule("s"),
        CcsError::infeasible("f"),
        CcsError::internal("n"),
        CcsError::invalid_parameter("p"),
        CcsError::DeadlineExceeded,
        CcsError::Cancelled,
    ];
    for i in 0..40 {
        let error = variants[rng.next(variants.len() as u64) as usize].clone();
        let line = wire::error_response_to_json(&format!("e{i}"), &error).to_json();
        let back = wire::response_from_line(&line).unwrap();
        assert_eq!(back.id, format!("e{i}"));
        assert_eq!(back.outcome, Err(error));
    }
}
