//! E-T14: the non-preemptive PTAS — runtime growth with the accuracy.
use ccs_bench::{BenchOpts, Family, Harness};
use ccs_core::Solver;
use ccs_ptas::{NonpreemptivePtas, PtasParams};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = BenchOpts::from_env();
    let mut harness = Harness::with_opts("ptas_nonpreemptive", &opts);
    let inst = Family::Uniform.instance(10, 3, 5, 2, 13);
    let sweep: &[u64] = if opts.quick { &[2] } else { &[2, 3] };
    for &delta_inv in sweep {
        let params = PtasParams::with_delta_inv(delta_inv).unwrap();
        let solver = NonpreemptivePtas::new(params);
        let case = format!("delta_inv/{delta_inv}");
        if let Err(e) = harness.bench_erased(&solver, &case, &inst) {
            harness.skip(solver.name(), &case, &e);
        }
    }
    harness.finish(&opts)
}
