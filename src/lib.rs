//! # ccs — Class-Constrained Scheduling
//!
//! Umbrella crate re-exporting the whole workspace: the problem model
//! ([`core`]), the unified dispatch layer ([`engine`]), the constant-factor
//! approximation algorithms ([`approx`]), the polynomial time approximation
//! schemes ([`ptas`]), exact solvers for small instances ([`exact`]),
//! baselines, generators, the independent verification subsystem
//! ([`verify`]: certifier, differential oracle, metamorphic invariants and
//! the shrinking minimizer behind `ccs-fuzz`) and the substrates (N-fold
//! integer programming and flow networks).
//!
//! The recommended entry point is the [`engine::Engine`]: one call for any
//! placement model and accuracy budget, with automatic algorithm selection,
//! asynchronous submission onto a persistent worker pool (deadlines and
//! cancellation included) and parallel batch execution.  A specific
//! algorithm is reached directly through its [`core::Solver`] impl (for
//! example `ccs::approx::SplittableTwoApprox.solve(&inst)`), and the
//! `ccs-serve` binary exposes the engine over newline-delimited JSON
//! (`ccs-wire/1`).
//!
//! ```
//! use ccs::prelude::*;
//!
//! let inst = instance_from_pairs(3, 2, &[(10, 0), (20, 1), (5, 0), (8, 2)]).unwrap();
//! let engine = Engine::new();
//! let sol = engine
//!     .solve(&inst, &SolveRequest::auto(ScheduleKind::Splittable))
//!     .unwrap();
//! sol.report.validate(&inst).unwrap();
//! assert!(sol.report.makespan <= Rational::from_int(2) * sol.report.lower_bound);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ccs_approx as approx;
pub use ccs_baselines as baselines;
pub use ccs_core as core;
pub use ccs_engine as engine;
pub use ccs_exact as exact;
pub use ccs_gen as gen;
pub use ccs_ptas as ptas;
pub use ccs_verify as verify;
pub use flownet;
pub use nfold;

/// Convenience re-exports for quick starts: the whole problem model plus the
/// engine's request/submit/solve surface and the wire protocol.
pub mod prelude {
    pub use ccs_core::prelude::*;
    pub use ccs_engine::{
        wire, Accuracy, CacheOutcome, CacheStats, Engine, Solution, SolveHandle, SolveRequest,
        SolverRegistry,
    };
}
