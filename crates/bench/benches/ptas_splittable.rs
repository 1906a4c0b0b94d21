//! E-T10: the splittable PTAS — runtime growth as the accuracy 1/δ increases.
use ccs_bench::{BenchOpts, Family, Harness};
use ccs_core::Solver;
use ccs_ptas::{PtasParams, SplittablePtas};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = BenchOpts::from_env();
    let mut harness = Harness::with_opts("ptas_splittable", &opts);
    let inst = Family::Uniform.instance(12, 3, 5, 2, 11);
    let sweep: &[u64] = if opts.quick { &[2, 3] } else { &[2, 3, 4] };
    for &delta_inv in sweep {
        let params = PtasParams::with_delta_inv(delta_inv).unwrap();
        let solver = SplittablePtas::new(params);
        let case = format!("delta_inv/{delta_inv}");
        if let Err(e) = harness.bench_erased(&solver, &case, &inst) {
            harness.skip(solver.name(), &case, &e);
        }
    }
    harness.finish(&opts)
}
