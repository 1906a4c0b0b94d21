//! # ccs-engine — the unified dispatch layer of the CCS workspace
//!
//! The four algorithm crates (`ccs-approx`, `ccs-ptas`, `ccs-exact`,
//! `ccs-baselines`) each implement the [`ccs_core::Solver`] trait; this
//! crate is the seam that turns them into one service-grade system:
//!
//! * [`SolverRegistry`] — a named, model-erased collection of every solver
//!   ([`SolverRegistry::with_defaults`] registers all twelve),
//! * [`SolveRequest`] / [`Accuracy`] — what a caller wants: a placement
//!   model, an accuracy budget (`Auto`, `Epsilon(ε)`, `Exact`) and optional
//!   service controls (wall-clock budget, result validation),
//! * the portfolio policy ([`policy`]) — routes a request to the cheapest
//!   solver that meets the budget: exact solvers on tiny instances,
//!   constant-factor approximations by default, PTASes for tight `ε`,
//! * [`Engine::submit`] — asynchronous execution on a persistent worker
//!   pool, returning a [`SolveHandle`] to wait on or cancel
//!   ([`Engine::submit_notify`] adds a completion hook);
//!   [`Engine::solve_batch`] builds on it with deterministic, input-ordered
//!   results,
//! * [`cache`] — an opt-in sharded solution cache ([`Engine::with_cache`])
//!   keyed by canonical instance fingerprint, model and resolved accuracy,
//!   with single-flight coalescing of concurrent identical requests,
//! * [`wire`] — the `ccs-wire/1` JSON protocol spoken by the `ccs-serve`
//!   binary (newline-delimited request/response frames over stdin/stdout),
//! * [`connection`] — the one per-client state machine and its blocking
//!   driver [`serve`], which both front ends run: framing, frame dispatch,
//!   admission and response ordering,
//! * [`netd`] — the `ccs-netd` TCP front end: many concurrent connections
//!   multiplexed onto the worker pool with per-connection backpressure, a
//!   global queue budget that sheds excess load with structured
//!   `overloaded` frames, per-tenant quotas, and graceful drain,
//! * [`session`] — service-side execution of `op: "session"` frames:
//!   long-lived instances mutated by deltas and re-solved inline with
//!   warm-start hints seeded from the session's own solution ledger.
//!
//! ```
//! use ccs_core::prelude::*;
//! use ccs_engine::{Engine, SolveRequest};
//! use std::time::Duration;
//!
//! let engine = Engine::new();
//! let inst = instance_from_pairs(3, 2, &[(10, 0), (20, 1), (5, 0), (8, 2)]).unwrap();
//! // Asynchronous: submit with a budget, then wait on the handle.
//! let req = SolveRequest::auto(ScheduleKind::Splittable)
//!     .with_budget(Duration::from_secs(1));
//! let handle = engine.submit(inst.clone(), &req);
//! let sol = handle.wait().unwrap();
//! sol.report.validate(&inst).unwrap();
//! assert!(sol.report.makespan >= sol.report.lower_bound);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod connection;
pub mod engine;
pub mod netd;
pub mod policy;
pub mod registry;
pub mod session;
pub mod wire;
pub mod worker;

pub use cache::{CacheOutcome, CacheStats};
pub use connection::{serve, Connection, Service, MAX_FRAME_BYTES};
pub use engine::{Engine, Solution};
pub use netd::{NetServer, NetdConfig, NetdHandle};
pub use policy::{Accuracy, ResolvedAccuracy, SolveRequest, WarmStart};
pub use registry::{erase, ErasedSolver, SolverMeta, SolverRegistry};
pub use session::{handle_session_frame, SessionEvent};
pub use worker::SolveHandle;
