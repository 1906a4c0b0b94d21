//! Walks through the mechanisms illustrated by the paper's five figures; the
//! same reproductions are available via `cargo run -p ccs-bench --bin
//! experiments -- --exp f1` (… f5).
use ccs::prelude::*;

fn main() {
    // Figure 1: round robin of ten classes over four machines.
    let jobs: Vec<(u64, u32)> = (0..10).map(|i| (10 - i as u64, i as u32)).collect();
    let inst = instance_from_pairs(4, 3, &jobs).unwrap();
    let split = ccs::approx::SplittableTwoApprox.solve(&inst).unwrap();
    println!("Figure 1 — round robin, makespan {}", split.makespan);
    for machine in 0..4u64 {
        println!(
            "  machine {machine}: load {:>5} classes {:?}",
            split.schedule.load_of_machine(machine).to_f64(),
            split.schedule.classes_on_machine(&inst, machine)
        );
    }

    // Figure 2: the preemptive repacking shifts everything above the largest
    // class to start at T so no job overlaps itself.
    let pre = ccs::approx::PreemptiveTwoApprox.solve(&inst).unwrap();
    println!(
        "\nFigure 2 — preemptive repacking, makespan {}",
        pre.makespan
    );

    // Figure 3: with exponentially many machines the schedule is emitted in
    // the compact run encoding, polynomial in n.
    let big = instance_from_pairs(1 << 40, 2, &jobs).unwrap();
    let compact = ccs::approx::SplittableTwoApprox.solve(&big).unwrap();
    println!(
        "\nFigure 3 — m = 2^40: encoding size {} (pieces + runs), makespan {:.6}",
        compact.schedule.encoding_size(),
        compact.makespan.to_f64()
    );

    // Figure 4: configurations dissolved into modules and jobs (non-preemptive
    // PTAS); Figure 5: the layer-assignment flow network (Lemma 16).
    println!("\nFigures 4 and 5 — see `experiments -- --exp f4` and `--exp f5`.");
}
