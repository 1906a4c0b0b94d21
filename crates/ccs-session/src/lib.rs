//! # ccs-session — online instance sessions for the CCS workspace
//!
//! The rest of the workspace solves *immutable* instances: build an
//! [`ccs_core::Instance`], hand it to a solver, done.  Real deployments are
//! rarely one-shot — jobs arrive and depart, machines are added, classes are
//! merged — and each mutation changes the optimum only a little.  This crate
//! models that workload:
//!
//! * [`InstanceDelta`] — the vocabulary of mutations (add/remove jobs, add
//!   machines, retype a class), with a JSON codec for the `op: "session"`
//!   frames of the `ccs-wire/1` protocol,
//! * [`SessionInstance`] — a mutable instance with *stable external job
//!   ids*: every delta is validated as a whole before any of it is applied,
//!   and the canonical fingerprint is maintained **incrementally**
//!   ([`ccs_core::IncrementalFingerprint`]) so the solution cache recognises
//!   a mutated instance without recanonicalising from scratch,
//! * [`Session`] / [`SessionStore`] — per-tenant session bookkeeping for the
//!   service layer, including the last solution per placement model, which
//!   seeds the warm-start hint ([`Session::warm_for`]) of the next solve.
//!
//! Warm starts are an acceleration, never a semantic change: a solver given
//! a parent makespan returns the same result it would have produced cold
//! (see the warm-equivalence pass in `ccs-verify`).
//!
//! This crate depends only on `ccs-core`; the engine and service layers
//! build on it from above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod instance;
pub mod store;

pub use delta::{delta_from_json, write_delta, InstanceDelta, NewJob};
pub use instance::{SessionInstance, SessionJob};
pub use store::{Session, SessionStore, WarmRecord};
