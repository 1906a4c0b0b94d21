//! Reproduction harness with two modes.
//!
//! **Table mode** (default, or `--exp <id>`): prints, for every experiment
//! id of `DESIGN.md` section 5, the quality/size table the paper's theorems
//! promise.  Ids: `t4 t5 t6 l2 l3 t10 t11 t14 t19 f1 f2 f3 f4 f5 all`; an
//! unknown id exits with status 2 and lists them.
//!
//! **Suite mode** (any of `--quick`, `--json <path>`, `--check <baseline>`):
//! benches every solver in the engine registry across every generator
//! family through the structured report API, writes the JSON artifact, and
//! — with `--check` — gates time/quality regressions against a committed
//! baseline (see `BENCH_baseline.json` at the repo root and DESIGN.md §5a):
//!
//! ```text
//! cargo run --release -p ccs-bench --bin experiments -- \
//!     --quick --json bench.json --check BENCH_baseline.json
//! ```

use ccs_approx::{Nonpreemptive73Approx, PreemptiveTwoApprox, SplittableTwoApprox};
use ccs_bench::{ratio_vs_lower_bound, BenchOpts, Family, Harness};
use ccs_core::solver::SolverCost;
use ccs_core::{Rational, ScheduleKind, Solver};
use ccs_engine::{Engine, SolverMeta};
use ccs_ptas::{NonpreemptivePtas, PreemptivePtas, PtasParams, SplittablePtas};
use std::process::ExitCode;

/// The `--exp` ids of table mode.
const EXPERIMENT_IDS: [&str; 15] = [
    "t4", "t5", "t6", "l2", "l3", "t10", "t11", "t14", "t19", "f1", "f2", "f3", "f4", "f5", "all",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, rest) = match BenchOpts::parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if opts.list_solvers {
        print!("{}", ccs_bench::render_solver_list(&Engine::new()));
        return ExitCode::SUCCESS;
    }
    let mut exp: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exp" => match it.next() {
                Some(id) => exp = Some(id.clone()),
                None => {
                    eprintln!("--exp requires an experiment id");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unrecognised argument '{other}'");
                eprintln!(
                    "usage: experiments [--exp <id>] [--quick] [--json <path>] [--check <baseline>] [--check-ratio <f>] [--list-solvers]"
                );
                return ExitCode::from(2);
            }
        }
    }

    match exp {
        Some(_) if opts != BenchOpts::default() => {
            // Table mode produces no report, so silently accepting the
            // suite flags would e.g. skip a requested baseline check.
            eprintln!("--exp (table mode) cannot be combined with --quick/--json/--check");
            ExitCode::from(2)
        }
        Some(id) if !EXPERIMENT_IDS.contains(&id.as_str()) => {
            eprintln!("unknown experiment id '{id}'");
            eprintln!("valid ids: {}", EXPERIMENT_IDS.join(" "));
            ExitCode::from(2)
        }
        Some(id) => {
            run_tables(&id);
            ExitCode::SUCCESS
        }
        None if opts.quick || opts.json.is_some() || opts.check.is_some() => run_suite(&opts),
        None => {
            run_tables("all");
            ExitCode::SUCCESS
        }
    }
}

/// Suite mode: every registered solver on every generator family, sized to
/// the solver's cost class (the exact solvers carry hard instance limits,
/// the PTASes are exponential in the accuracy), collected into one report.
fn run_suite(opts: &BenchOpts) -> ExitCode {
    let engine = Engine::new();
    let mut harness = Harness::with_opts("suite", opts);
    for meta in engine.registry().metadata() {
        for family in Family::ALL {
            let (jobs, machines, classes, slots) = suite_shape(&meta, family, opts.quick);
            let inst = family.instance(jobs, machines, classes, slots, 42);
            let case = format!("{}/{jobs}", family.name());
            if let Err(e) = harness.bench_registered(&engine, meta.name, &case, &inst) {
                harness.skip(meta.name, &case, &e);
            }
        }
    }
    harness.finish(opts)
}

/// Instance shape `(jobs, machines, classes, slots)` for one suite cell.
fn suite_shape(meta: &SolverMeta, family: Family, quick: bool) -> (usize, u64, u32, u64) {
    if family == Family::ManyMachines && meta.cost != SolverCost::Polynomial {
        // The family multiplies the machine count by 4, while the exact
        // solvers enforce hard limits (≤ 4 machines for the flow-based
        // ones) and the default-accuracy splittable PTAS blows past 10s
        // from 8 machines up on few-classes instances; one job (4
        // machines, still m = 4n) keeps the cell representative and fast.
        return (1, 1, 2, 2);
    }
    match meta.cost {
        SolverCost::InstanceExponential => (6, 2, 3, 2),
        SolverCost::AccuracyExponential => (if quick { 8 } else { 10 }, 3, 5, 2),
        SolverCost::Polynomial => (if quick { 80 } else { 200 }, 16, 32, 3),
    }
}

/// Table mode: the `--exp` reproduction tables.
fn run_tables(exp: &str) {
    let run = |id: &str| exp == "all" || exp == id;

    if run("t4") {
        quality_table(
            "E-T4  splittable 2-approx (Thm 4)",
            ScheduleKind::Splittable,
            |inst| {
                let r = SplittableTwoApprox.solve(inst).unwrap();
                (r.makespan, r.stats.search_iterations)
            },
        );
    }
    if run("t5") {
        quality_table(
            "E-T5  preemptive 2-approx (Thm 5)",
            ScheduleKind::Preemptive,
            |inst| {
                let r = PreemptiveTwoApprox.solve(inst).unwrap();
                (r.makespan, r.stats.search_iterations)
            },
        );
    }
    if run("t6") {
        quality_table(
            "E-T6  non-preemptive 7/3-approx (Thm 6)",
            ScheduleKind::NonPreemptive,
            |inst| {
                let r = Nonpreemptive73Approx.solve(inst).unwrap();
                (r.makespan, r.stats.search_iterations)
            },
        );
    }
    if run("l2") {
        exp_l2();
    }
    if run("l3") {
        exp_l3();
    }
    if run("t10") || run("t14") || run("t19") {
        exp_ptas(exp);
    }
    if run("t11") {
        exp_t11();
    }
    if run("f1") || run("f2") {
        exp_figures_1_2();
    }
    if run("f3") {
        exp_f3();
    }
    if run("f4") {
        exp_f4();
    }
    if run("f5") {
        exp_f5();
    }
}

/// Quality of a constant-factor algorithm over the four workload families.
fn quality_table<F>(title: &str, kind: ScheduleKind, mut algo: F)
where
    F: FnMut(&ccs_core::Instance) -> (Rational, usize),
{
    println!("\n== {title} ==");
    println!(
        "{:<16} {:>6} {:>10} {:>12} {:>10}",
        "family", "n", "makespan", "ratio_vs_LB", "iters"
    );
    for family in Family::ALL {
        for &n in &[100usize, 400] {
            let inst = family.instance(n, 16, 32, 3, 42);
            let (mk, iters) = algo(&inst);
            let lb = ccs_exact::strong_lower_bound(&inst, kind).max(Rational::ONE);
            println!(
                "{:<16} {:>6} {:>10.1} {:>12.3} {:>10}",
                family.name(),
                n,
                mk.to_f64(),
                (mk / lb).to_f64(),
                iters
            );
        }
    }
}

/// E-L2: border-search iterations grow with log m, not m.
fn exp_l2() {
    println!("\n== E-L2  advanced binary search (Lemma 2): iterations vs m ==");
    println!("{:>16} {:>12}", "machines", "iterations");
    for &m in &[16u64, 1 << 10, 1 << 20, 1 << 40] {
        let inst = Family::Uniform.instance(200, m, 32, 3, 3);
        let r = SplittableTwoApprox.solve(&inst).unwrap();
        println!("{:>16} {:>12}", m, r.stats.search_iterations);
    }
}

/// E-L3: the round-robin load bound of Lemma 3.
fn exp_l3() {
    println!("\n== E-L3  round robin load bound (Lemma 3) ==");
    println!(
        "{:>6} {:>6} {:>12} {:>12}",
        "items", "m", "max_load", "bound"
    );
    for &(items, m) in &[(50usize, 7u64), (200, 16), (1000, 32)] {
        let weights: Vec<Rational> = (0..items)
            .map(|i| Rational::from(1 + ((i * 7919) % 100) as u64))
            .collect();
        let assignment = ccs_approx::round_robin::round_robin_by_weight(&weights, m);
        let loads = ccs_approx::round_robin::machine_loads(&weights, &assignment, m);
        let bound = ccs_approx::round_robin::lemma3_bound(&weights, m);
        let max = loads.into_iter().fold(Rational::ZERO, Rational::max);
        println!(
            "{:>6} {:>6} {:>12.1} {:>12.1}",
            items,
            m,
            max.to_f64(),
            bound.to_f64()
        );
    }
}

/// E-T10 / E-T14 / E-T19: PTAS quality vs the exact optimum and the constant
/// approximations on small instances, as the accuracy increases.
fn exp_ptas(which: &str) {
    println!("\n== E-T10/T14/T19  PTAS quality vs exact optimum (small instances) ==");
    println!(
        "{:<14} {:>9} {:>8} {:>10} {:>10} {:>10}",
        "case", "delta_inv", "opt", "ptas", "2/7-3appr", "ratio"
    );
    for seed in [1u64, 2, 3] {
        let inst = ccs_gen::tiny_random(seed);
        if !inst.is_feasible() {
            continue;
        }
        for delta_inv in [2u64, 4] {
            let params = PtasParams::with_delta_inv(delta_inv).unwrap();
            if which == "all" || which == "t10" {
                if let (Ok(opt), Ok(ptas), Ok(approx)) = (
                    ccs_exact::splittable_optimum(&inst),
                    SplittablePtas::new(params).solve(&inst),
                    SplittableTwoApprox.solve(&inst),
                ) {
                    row("splittable", delta_inv, opt, ptas.makespan, approx.makespan);
                }
            }
            if which == "all" || which == "t14" {
                if let (Ok(opt), Ok(ptas), Ok(approx)) = (
                    ccs_exact::ExactNonPreemptive.solve(&inst),
                    NonpreemptivePtas::new(params).solve(&inst),
                    Nonpreemptive73Approx.solve(&inst),
                ) {
                    row(
                        "non-preemptive",
                        delta_inv,
                        opt.makespan,
                        ptas.makespan,
                        approx.makespan,
                    );
                }
            }
            if which == "all" || which == "t19" {
                if let (Ok(opt), Ok(ptas), Ok(approx)) = (
                    ccs_exact::preemptive_optimum(&inst),
                    PreemptivePtas::new(params).solve(&inst),
                    PreemptiveTwoApprox.solve(&inst),
                ) {
                    row("preemptive", delta_inv, opt, ptas.makespan, approx.makespan);
                }
            }
        }
    }

    fn row(case: &str, delta_inv: u64, opt: Rational, ptas: Rational, approx: Rational) {
        println!(
            "{:<14} {:>9} {:>8.2} {:>10.2} {:>10.2} {:>10.3}",
            case,
            delta_inv,
            opt.to_f64(),
            ptas.to_f64(),
            approx.to_f64(),
            ptas.to_f64() / opt.to_f64().max(1e-9)
        );
    }
}

/// E-T11: an exponential number of machines — compact output of the
/// splittable algorithm (Theorem 4 second part / Theorem 11).
fn exp_t11() {
    println!("\n== E-T11  exponential number of machines (compact output) ==");
    println!(
        "{:>16} {:>14} {:>14} {:>10}",
        "machines", "makespan", "ratio_vs_LB", "encoding"
    );
    for &m in &[1_000_000u64, 1_000_000_000, 1_000_000_000_000] {
        let inst = Family::Zipf.instance(100, m, 16, 2, 7);
        let r = SplittableTwoApprox.solve(&inst).unwrap();
        let ratio = ratio_vs_lower_bound(&inst, &r.schedule, ScheduleKind::Splittable);
        println!(
            "{:>16} {:>14.6} {:>14.3} {:>10}",
            m,
            r.makespan.to_f64(),
            ratio,
            r.schedule.encoding_size()
        );
    }
}

/// F-1 / F-2: the round-robin schedule of Figure 1 and its preemptive
/// repacking (Figure 2), printed as ASCII Gantt charts.
fn exp_figures_1_2() {
    println!("\n== F-1/F-2  Figures 1 and 2: round robin and repacking ==");
    // Ten classes with decreasing loads on four machines, as in the figure.
    let jobs: Vec<(u64, u32)> = (0..10).map(|i| (10 - i as u64, i as u32)).collect();
    let inst = ccs_core::instance::instance_from_pairs(4, 3, &jobs).unwrap();
    let split = SplittableTwoApprox.solve(&inst).unwrap();
    println!("splittable round robin, makespan {}", split.makespan);
    for machine in 0..4u64 {
        let load = split.schedule.load_of_machine(machine);
        let classes = split.schedule.classes_on_machine(&inst, machine);
        println!(
            "  machine {machine}: load {:<6} classes {:?}",
            load.to_f64(),
            classes
        );
    }
    let pre = PreemptiveTwoApprox.solve(&inst).unwrap();
    println!("preemptive repacking, makespan {}", pre.makespan);
    for (i, pieces) in pre.schedule.machines().iter().enumerate() {
        let mut desc: Vec<String> = pieces
            .iter()
            .map(|p| format!("j{}[{}..{})", p.job, p.start.to_f64(), p.end().to_f64()))
            .collect();
        desc.sort();
        println!("  machine {i}: {}", desc.join(" "));
    }
}

/// F-3: the class-pair swap that bounds the number of non-trivial machines
/// when m is exponential (Figure 3) — demonstrated via the compact encoding.
fn exp_f3() {
    println!("\n== F-3  exponential m: compact encoding sizes ==");
    let inst = Family::Uniform.instance(60, 1 << 40, 12, 2, 9);
    let r = SplittableTwoApprox.solve(&inst).unwrap();
    println!(
        "n = {}, m = 2^40: schedule encoded with {} explicit pieces / runs (polynomial in n)",
        inst.num_jobs(),
        r.schedule.encoding_size()
    );
}

/// F-4: dissolving a configuration into modules and jobs.
fn exp_f4() {
    println!("\n== F-4  configuration -> modules -> jobs (non-preemptive PTAS) ==");
    let inst =
        ccs_core::instance::instance_from_pairs(2, 2, &[(6, 0), (5, 0), (4, 1), (3, 1), (1, 2)])
            .unwrap();
    let params = PtasParams::with_delta_inv(2).unwrap();
    let res = NonpreemptivePtas::new(params).solve(&inst).unwrap();
    println!(
        "lower bound {}, makespan {}",
        res.lower_bound,
        res.schedule.makespan_int(&inst)
    );
    for (machine, jobs) in res.schedule.machine_contents() {
        let desc: Vec<String> = jobs
            .iter()
            .map(|&j| format!("j{j}(p={},c={})", inst.processing_time(j), inst.class_of(j)))
            .collect();
        println!("  machine {machine}: {}", desc.join(" "));
    }
}

/// F-5: the layer-assignment flow network of Lemma 16.
fn exp_f5() {
    println!("\n== F-5  layer-assignment flow network (Lemma 16) ==");
    let requests = vec![
        flownet::LayerRequest {
            units: 2,
            allowed_machines: vec![0, 1],
        },
        flownet::LayerRequest {
            units: 1,
            allowed_machines: vec![0],
        },
        flownet::LayerRequest {
            units: 2,
            allowed_machines: vec![1],
        },
    ];
    let caps = vec![3, 2];
    match flownet::layer_assignment(&requests, &caps, 3) {
        Some(assignment) => {
            println!(
                "integral assignment found ({} slots):",
                assignment.placements.len()
            );
            for (job, machine, layer) in assignment.placements {
                println!("  job {job} -> machine {machine}, layer {layer}");
            }
        }
        None => println!("no assignment (unexpected for this example)"),
    }
}
