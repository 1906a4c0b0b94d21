//! Quality / running-time trade-off of the PTASs as the accuracy parameter δ
//! shrinks, on a small instance where the exact optimum is known.  The sweep
//! drives the scheme through the unified `Solver` trait.
use ccs::prelude::*;
use ccs_ptas::{PtasParams, SplittablePtas};
use std::time::Instant;

fn main() {
    // Two class slots per machine: with one, the constant-factor schedule of
    // this instance is already optimal and the scheme evaluates no guess.
    let inst = instance_from_pairs(2, 2, &[(10, 0), (9, 1), (8, 2), (4, 0), (3, 1)]).unwrap();
    let engine = Engine::new();
    let opt = engine
        .solve(&inst, &SolveRequest::exact(ScheduleKind::Splittable))
        .unwrap()
        .report
        .makespan;
    println!("exact splittable optimum: {}", opt.to_f64());
    println!(
        "{:>9} {:>14} {:>12} {:>12} {:>12}",
        "1/δ", "guarantee", "makespan", "ratio", "seconds"
    );
    for delta_inv in [2u64, 3, 4, 5] {
        let solver = SplittablePtas::new(PtasParams::with_delta_inv(delta_inv).unwrap());
        let start = Instant::now();
        let report = solver.solve(&inst).unwrap();
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:>9} {:>14} {:>12.2} {:>12.3} {:>12.4}",
            delta_inv,
            solver.guarantee().to_string(),
            report.makespan.to_f64(),
            report.makespan.to_f64() / opt.to_f64(),
            secs
        );
    }
}
