//! Integration tests spanning the whole workspace: every algorithm produces a
//! schedule that the validators accept and that respects its proven
//! approximation guarantee on generated workloads.
use ccs::prelude::*;
use ccs_gen::GenParams;
use ccs_ptas::PtasParams;

fn families(seed: u64, jobs: usize, machines: u64, classes: u32, slots: u64) -> Vec<Instance> {
    let p = GenParams::new(jobs, machines, classes, slots);
    vec![
        ccs_gen::uniform(&p, seed),
        ccs_gen::zipf_classes(&p, seed),
        ccs_gen::data_placement(&p, seed),
        ccs_gen::video_on_demand(&p, seed),
    ]
}

#[test]
fn constant_factor_algorithms_respect_their_guarantees() {
    for seed in 0..5u64 {
        for inst in families(seed, 80, 8, 16, 3) {
            let split = ccs::approx::SplittableTwoApprox.solve(&inst).unwrap();
            split.validate(&inst).unwrap();
            assert!(split.makespan <= Rational::from_int(2) * split.lower_bound);

            let pre = ccs::approx::PreemptiveTwoApprox.solve(&inst).unwrap();
            pre.validate(&inst).unwrap();
            assert!(pre.makespan <= Rational::from_int(2) * pre.lower_bound);

            let np = ccs::approx::Nonpreemptive73Approx.solve(&inst).unwrap();
            np.validate(&inst).unwrap();
            assert!(np.makespan <= Rational::new(7, 3) * np.lower_bound);
        }
    }
}

#[test]
fn nonpreemptive_approx_vs_exact_optimum_on_tiny_instances() {
    for seed in 0..30u64 {
        let inst = ccs_gen::tiny_random(seed);
        let opt = match ccs::exact::ExactNonPreemptive.solve(&inst) {
            Ok(report) => report.makespan,
            Err(_) => continue,
        };
        let approx = ccs::approx::Nonpreemptive73Approx.solve(&inst).unwrap();
        assert!(
            Rational::from_int(3) * approx.makespan <= Rational::from_int(7) * opt,
            "seed {seed}: ratio above 7/3"
        );
    }
}

#[test]
fn ptas_beats_or_matches_constant_factor_on_small_instances() {
    let params = PtasParams::with_delta_inv(3).unwrap();
    for seed in 0..6u64 {
        let inst = ccs_gen::tiny_random(seed);
        if inst.machines() > 4 {
            continue;
        }
        let approx = ccs::approx::SplittableTwoApprox.solve(&inst).unwrap();
        let ptas = ccs::ptas::SplittablePtas::new(params).solve(&inst).unwrap();
        ptas.validate(&inst).unwrap();
        // The PTAS never does worse than the schedule it warm-starts from by
        // more than its guarantee window.
        assert!(ptas.makespan <= approx.makespan * Rational::new(11, 4));
    }
}

#[test]
fn preemptive_ptas_produces_valid_timetables() {
    let params = PtasParams::with_delta_inv(2).unwrap();
    for seed in 0..6u64 {
        let inst = ccs_gen::tiny_random(seed);
        if inst.machines() >= inst.num_jobs() as u64 {
            continue;
        }
        let res = ccs::ptas::PreemptivePtas::new(params).solve(&inst).unwrap();
        res.validate(&inst).unwrap();
    }
}

#[test]
fn baselines_are_dominated_by_paper_algorithms_on_skewed_instances() {
    // One dominant class: baselines cannot split it, the paper's splittable
    // algorithm can.
    let inst = ccs_gen::adversarial_round_robin(8, 50);
    let baseline = ccs::baselines::WholeClassLpt.solve(&inst).unwrap();
    let split = ccs::approx::SplittableTwoApprox.solve(&inst).unwrap();
    assert!(split.makespan < baseline.makespan);
}

#[test]
fn exact_solvers_agree_with_bounds() {
    for seed in 0..20u64 {
        let inst = ccs_gen::tiny_random(seed);
        if let Ok(opt) = ccs::exact::splittable_optimum(&inst) {
            assert!(opt >= ccs::exact::strong_lower_bound(&inst, ScheduleKind::Splittable));
            let pre = ccs::exact::preemptive_optimum(&inst).unwrap();
            assert!(pre >= opt);
        }
        if let Ok(report) = ccs::exact::ExactNonPreemptive.solve(&inst) {
            assert!(
                report.makespan
                    >= ccs::exact::strong_lower_bound(&inst, ScheduleKind::NonPreemptive)
            );
        }
    }
}

#[test]
fn json_roundtrip_through_the_public_api() {
    let inst = ccs_gen::uniform(&GenParams::new(20, 4, 6, 2), 9);
    let json = inst.to_json();
    let back = Instance::from_json(&json).unwrap();
    assert_eq!(inst, back);
}

#[test]
fn engine_reaches_every_algorithm_family_through_the_prelude() {
    let engine = Engine::new();
    // Fourteen solvers: three approximations, three PTASes, four exact
    // solvers, four baselines (incl. the moldable pair).
    assert_eq!(engine.registry().len(), 14);
    let inst = ccs_gen::uniform(&GenParams::new(60, 8, 12, 3), 11);
    for kind in ModelSpec::all().map(|spec| spec.kind) {
        let sol = engine.solve(&inst, &SolveRequest::auto(kind)).unwrap();
        sol.report.validate(&inst).unwrap();
        assert_eq!(sol.report.schedule.kind(), kind);
    }
    // Named access covers the baselines too.
    let sol = engine.solve_with("baseline-lpt", &inst).unwrap();
    sol.report.validate(&inst).unwrap();
}

#[test]
fn engine_batch_agrees_with_direct_algorithm_calls() {
    let engine = Engine::new();
    let instances: Vec<Instance> = (0..12u64)
        .map(|seed| ccs_gen::zipf_classes(&GenParams::new(50, 6, 10, 2), seed))
        .collect();
    let batch = engine.solve_batch(&instances, &SolveRequest::auto(ScheduleKind::Splittable));
    for (inst, sol) in instances.iter().zip(batch) {
        let sol = sol.unwrap();
        let direct = ccs::approx::SplittableTwoApprox.solve(inst).unwrap();
        assert_eq!(sol.solver, "approx-splittable-2");
        assert_eq!(sol.report.makespan, direct.makespan);
    }
}
