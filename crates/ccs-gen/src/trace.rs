//! Deterministic request-trace synthesis for the soak harness.
//!
//! Micro-benchmarks measure solvers on one instance at a time; the soak
//! harness (`bench/src/soak.rs`, `ccs-bench-soak`) measures the *system* —
//! engine, shard cache, warm-started sessions and `ccs-netd` admission —
//! under production-shaped load.  This module synthesises the load:
//!
//! * a **pool** of distinct instances drawn once, then referenced by solve
//!   requests with [`ZipfSampler`]-skewed popularity, so a few hot
//!   instances dominate and exercise the cache hit and single-flight
//!   coalescing paths while the long tail keeps missing,
//! * **mixed solve parameters**: models rotate over [`ModelSpec::all`],
//!   a slice of requests carries an epsilon from a constant-factor-safe
//!   palette, and a slice carries a wall-clock budget,
//! * **session delta chains**: each chain opens a session on a private
//!   instance (processing times salted per chain so chain states never
//!   collide with the pool or each other in the cache), alternates
//!   delta/solve steps and closes — exercising the warm-start ledger,
//! * **bursty arrivals**: integer-nanosecond timestamps from a seeded
//!   burst process (tight gaps inside a burst, long gaps between bursts).
//!
//! Everything is a pure function of ([`TraceParams`], seed): same inputs ⇒
//! byte-identical [`Trace::to_json_string`] output.  The trace is plain
//! data — `ccs-gen` depends only on `ccs-core`, so session mutations are
//! described by [`TraceDelta`] and mapped onto `ccs_session::InstanceDelta`
//! by the replay driver.

use crate::rng::Rng;
use crate::{GenParams, ZipfSampler};
use ccs_core::json::{self, JsonValue};
use ccs_core::{Instance, ModelSpec, ScheduleKind};

/// Epsilons that keep every paper model on its constant-factor tier
/// (`1 + ε` at least `7/3`, the largest guaranteed factor), so a quick soak
/// run never routes into a PTAS.  All three format exactly in JSON.
const EPSILON_PALETTE: [f64; 3] = [1.5, 2.0, 3.0];

/// Shape of a synthesised trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Number of pool solve requests (session chain events come on top, so
    /// the trace carries `requests + chains * (2 * chain_steps + 2)`
    /// events in total).
    pub requests: usize,
    /// Number of distinct instances in the pool.
    pub pool: usize,
    /// Zipf exponent of pool popularity (larger ⇒ hotter head).
    pub zipf_s: f64,
    /// Number of session delta chains woven through the stream.
    pub chains: u32,
    /// Delta+solve step pairs per chain (each step is one delta frame
    /// followed by one session solve).
    pub chain_steps: usize,
    /// Mean inter-burst gap in nanoseconds.
    pub mean_gap_ns: u64,
    /// Arrivals per burst; inside a burst events are a fixed fraction of
    /// the mean gap apart.
    pub burst_len: u32,
    /// Wall-clock budget attached to budgeted solves, in milliseconds.
    /// Quick-tier presets keep this far above any real solve time so
    /// deadlines never fire and counter totals stay deterministic.
    pub budget_ms: u64,
    /// Every `budget_every`-th pool solve carries the budget (0 ⇒ never).
    pub budget_every: usize,
    /// Shape of the pool instances.
    pub shape: GenParams,
}

impl TraceParams {
    /// The quick smoke tier: small enough for CI, large enough that the
    /// cache, session and admission paths all see real traffic.
    pub fn quick() -> TraceParams {
        TraceParams {
            requests: 240,
            pool: 24,
            zipf_s: 1.1,
            chains: 4,
            chain_steps: 3,
            mean_gap_ns: 200_000,
            burst_len: 8,
            budget_ms: 60_000,
            budget_every: 7,
            shape: GenParams {
                jobs: 80,
                machines: 10,
                classes: 12,
                class_slots: 3,
                p_min: 1,
                p_max: 400,
            },
        }
    }

    /// A sustained-load tier for manual soak runs (minutes, not CI).
    pub fn sustained() -> TraceParams {
        TraceParams {
            requests: 20_000,
            pool: 256,
            chains: 16,
            chain_steps: 8,
            ..TraceParams::quick()
        }
    }

    /// Total number of events a trace with these parameters carries.
    pub fn total_events(&self) -> usize {
        self.requests + self.chains as usize * (2 * self.chain_steps + 2)
    }
}

/// A session mutation in trace form (plain data; the replay driver maps it
/// onto `ccs_session::InstanceDelta`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDelta {
    /// Append jobs (processing time, class label).
    AddJobs(Vec<(u64, u32)>),
    /// Remove the `k` most recently delta-added jobs that are still
    /// present.  Synthesis guarantees at least `k` such jobs exist when
    /// the delta is applied in per-chain order (base jobs are never
    /// removed).
    RemoveRecent(usize),
    /// Add machines.
    AddMachines(u64),
}

/// One trace operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Solve pool instance `pool` for `model`.
    Solve {
        /// Index into [`Trace::pool`].
        pool: usize,
        /// The placement model.
        model: ScheduleKind,
        /// `Some(ε)` for an epsilon request, `None` for `Auto`.
        epsilon: Option<f64>,
        /// `Some(ms)` to attach a wall-clock budget.
        budget_ms: Option<u64>,
    },
    /// Open session chain `chain` over its initial jobs.
    Open {
        /// Chain index (`0..params.chains`).
        chain: u32,
        /// Machine count of the chain instance.
        machines: u64,
        /// Class slots per machine.
        class_slots: u64,
        /// Initial jobs (processing time, class label).
        jobs: Vec<(u64, u32)>,
    },
    /// Apply one mutation to chain `chain`.
    Delta {
        /// Chain index.
        chain: u32,
        /// The mutation.
        delta: TraceDelta,
    },
    /// Solve chain `chain`'s current state (warm-started by the service's
    /// session ledger from the second solve on).  Chain solves carry `Auto`
    /// accuracy, and every chain instance stays inside the policy's
    /// tiny-exact envelope, so they route to the exact solvers — for
    /// non-preemptive chains that is the warm-aware branch-and-bound, which
    /// keeps the session ledger's warm hints exercised.
    ChainSolve {
        /// Chain index.
        chain: u32,
        /// The placement model (fixed per chain so the warm ledger hits).
        model: ScheduleKind,
    },
    /// Close chain `chain`.
    Close {
        /// Chain index.
        chain: u32,
    },
}

/// One timestamped trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival offset from the trace start, in nanoseconds (non-decreasing
    /// across the event list).
    pub at_ns: u64,
    /// The operation.
    pub op: TraceOp,
}

/// A synthesised request trace: the instance pool plus the timestamped
/// event stream.  Deterministic given ([`TraceParams`], seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The seed the trace was synthesised from.
    pub seed: u64,
    /// The distinct pool instances solve events index into.
    pub pool: Vec<Instance>,
    /// The event stream, ordered by `at_ns`.
    pub events: Vec<TraceEvent>,
}

/// Per-chain synthesis state: the op queue plus the delta-added job count
/// available for [`TraceDelta::RemoveRecent`].
struct ChainPlan {
    ops: std::collections::VecDeque<TraceOp>,
}

/// Base jobs of every chain instance.
const CHAIN_BASE_JOBS: usize = 8;

/// Once a chain's live population reaches this, the next delta is forced
/// to be a removal.  Additions are at most [`CHAIN_ADD_MAX`] jobs, so the
/// population never exceeds 12 — the policy's tiny-exact job threshold.
/// Chain solves must keep routing to the exact tier: that is where the
/// session ledger's warm hints are consumed (the constant-factor
/// algorithms ignore them), and the PTAS tier the only alternative
/// accuracy would buy is far too slow for unoptimised test builds.
const CHAIN_MAX_JOBS: usize = 11;

/// Largest per-delta job addition (see [`CHAIN_MAX_JOBS`]).
const CHAIN_ADD_MAX: usize = 2;

/// Cap on machines added over a chain's lifetime: chains open with 3
/// machines and may grow to 4, the policy's tiny-exact machine threshold.
const CHAIN_MAX_ADDED_MACHINES: u64 = 1;

/// Builds the per-chain op list (open, `chain_steps` delta/solve pairs,
/// close).  Chain processing times live in `[salt, salt + shape.p_max]`
/// with `salt = shape.p_max * (chain + 2)`, a range disjoint from the pool
/// (`[p_min, p_max]`) and from every other chain, so chain states never
/// collide with pool entries (or each other) in the solution cache.
fn plan_chain(params: &TraceParams, chain: u32, rng: &mut Rng) -> ChainPlan {
    let salt = params.shape.p_max * (u64::from(chain) + 2);
    let span = params.shape.p_max.max(1);
    let classes = 4u32;
    let chain_p = |rng: &mut Rng| salt + rng.below_u64(span);
    let mut ops = std::collections::VecDeque::new();
    let base: Vec<(u64, u32)> = (0..CHAIN_BASE_JOBS)
        .map(|_| (chain_p(rng), rng.below_u32(classes)))
        .collect();
    ops.push_back(TraceOp::Open {
        chain,
        // 3 machines (growable to 4) with the population capped at 12 jobs
        // keeps every chain state inside the policy's tiny-exact envelope,
        // so `Auto` chain solves route to the exact solvers — the
        // non-preemptive branch-and-bound among them is warm-aware.
        machines: 3,
        class_slots: 2,
        jobs: base,
    });
    // Fixed model per chain: every solve after the first finds a warm
    // record of its model in the session ledger.  The rotation starts at
    // the non-preemptive model so even a two-chain trace exercises the
    // warm-aware exact solver.
    let model = ModelSpec::paper()
        .nth((chain as usize + 2) % 3)
        .expect("paper trio")
        .kind;
    let mut removable = 0usize;
    let mut live = CHAIN_BASE_JOBS;
    let mut added_machines = 0u64;
    let add_jobs = |rng: &mut Rng, removable: &mut usize, live: &mut usize| {
        let jobs: Vec<(u64, u32)> = (0..1 + rng.below_usize(CHAIN_ADD_MAX) as u64)
            .map(|_| (chain_p(rng), rng.below_u32(classes)))
            .collect();
        *removable += jobs.len();
        *live += jobs.len();
        TraceDelta::AddJobs(jobs)
    };
    let remove = |rng: &mut Rng, removable: &mut usize, live: &mut usize| {
        let k = 1 + rng.below_usize(*removable - 1);
        *removable -= k;
        *live -= k;
        TraceDelta::RemoveRecent(k)
    };
    for step in 0..params.chain_steps {
        let delta = if step == 0 || removable < 2 {
            add_jobs(rng, &mut removable, &mut live)
        } else if live >= CHAIN_MAX_JOBS {
            remove(rng, &mut removable, &mut live)
        } else {
            // Removals weigh half the mix: a removal keeps the optimum at
            // or below the ledger's hint, the regime where the warm-aware
            // exact solver can actually convert hints into hits.
            match rng.below_u32(4) {
                0 | 1 => remove(rng, &mut removable, &mut live),
                2 if added_machines < CHAIN_MAX_ADDED_MACHINES => {
                    added_machines += 1;
                    TraceDelta::AddMachines(1)
                }
                _ => add_jobs(rng, &mut removable, &mut live),
            }
        };
        ops.push_back(TraceOp::Delta { chain, delta });
        ops.push_back(TraceOp::ChainSolve { chain, model });
    }
    ops.push_back(TraceOp::Close { chain });
    ChainPlan { ops }
}

/// Draws one pool solve op: Zipf-popular pool index, rotating model,
/// occasional epsilon (paper models only — the moldable model rejects
/// epsilon requests) and periodic budget.
fn pool_solve(params: &TraceParams, zipf: &ZipfSampler, rng: &mut Rng, ordinal: usize) -> TraceOp {
    let pool = zipf.draw(rng) as usize;
    let model = ModelSpec::all()
        .nth(rng.below_usize(ModelSpec::all().count()))
        .expect("registry is non-empty")
        .kind;
    let epsilon = if model != ScheduleKind::Moldable && rng.gen_bool(0.3) {
        Some(EPSILON_PALETTE[rng.below_usize(EPSILON_PALETTE.len())])
    } else {
        None
    };
    let budget_ms = match params.budget_every {
        0 => None,
        every if (ordinal + 1).is_multiple_of(every) => Some(params.budget_ms),
        _ => None,
    };
    TraceOp::Solve {
        pool,
        model,
        epsilon,
        budget_ms,
    }
}

impl Trace {
    /// Synthesises a trace.  Pure function of `(params, seed)`.
    pub fn synthesize(params: &TraceParams, seed: u64) -> Trace {
        let mut rng = Rng::seed_from_u64(seed);
        let pool_count = params.pool.max(1);
        // The pool rotates the named workload families so mixed instance
        // shapes flow through the cache shards.
        type Family = fn(&GenParams, u64) -> Instance;
        let families: [Family; 5] = [
            crate::uniform,
            crate::zipf_classes,
            crate::data_placement,
            crate::video_on_demand,
            crate::correlated,
        ];
        let pool: Vec<Instance> = (0..pool_count)
            .map(|i| {
                let family = families[i % families.len()];
                // Distinct derived seeds; the family rotation alone would
                // repeat instances every `families.len()` pool slots.
                family(
                    &params.shape,
                    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )
            })
            .collect();

        let mut chains: Vec<ChainPlan> = (0..params.chains)
            .map(|chain| plan_chain(params, chain, &mut rng))
            .collect();
        let chain_ops_total: usize = chains.iter().map(|c| c.ops.len()).sum();
        let total = params.requests + chain_ops_total;

        // Weave chain ops into the pool stream at a fixed stride,
        // round-robin across chains (per-chain order is preserved; the
        // replay drivers serialise each chain anyway).
        let stride = (total / (chain_ops_total + 1)).max(1);
        let zipf = ZipfSampler::new(pool_count as u32, params.zipf_s);
        let mut ops = Vec::with_capacity(total);
        let mut next_chain = 0usize;
        let mut solves_emitted = 0usize;
        for slot in 0..total {
            let due_chain = (slot + 1) % stride == 0 && !chains.is_empty();
            let op = if due_chain {
                // Find the next chain that still has ops, round-robin.
                let mut picked = None;
                for probe in 0..chains.len() {
                    let idx = (next_chain + probe) % chains.len();
                    if let Some(op) = chains[idx].ops.pop_front() {
                        next_chain = (idx + 1) % chains.len();
                        picked = Some(op);
                        break;
                    }
                }
                picked
            } else {
                None
            };
            let op = op.unwrap_or_else(|| {
                if solves_emitted < params.requests {
                    solves_emitted += 1;
                    pool_solve(params, &zipf, &mut rng, solves_emitted - 1)
                } else {
                    // Pool solves exhausted (stride rounding): drain chains.
                    chains
                        .iter_mut()
                        .find_map(|c| c.ops.pop_front())
                        .expect("event budget matches op budget")
                }
            });
            ops.push(op);
        }
        // Whatever the weave left over (possible when stride rounding
        // under-samples the chains) is appended in chain order.
        for chain in &mut chains {
            while let Some(op) = chain.ops.pop_front() {
                ops.push(op);
            }
        }

        // Bursty arrivals: bursts of `burst_len` events `gap/16` apart,
        // separated by a gap drawn around `mean_gap_ns`.
        let mut events = Vec::with_capacity(ops.len());
        let mut at_ns = 0u64;
        let mean = params.mean_gap_ns.max(16);
        let burst = params.burst_len.max(1) as usize;
        for (i, op) in ops.into_iter().enumerate() {
            if i > 0 {
                let gap = if i % burst == 0 {
                    mean / 2 + rng.below_u64(mean)
                } else {
                    mean / 16
                };
                at_ns = at_ns.saturating_add(gap);
            }
            events.push(TraceEvent { at_ns, op });
        }
        Trace { seed, pool, events }
    }

    /// Number of pool solve events.
    pub fn pool_solves(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.op, TraceOp::Solve { .. }))
            .count()
    }

    /// Number of session (chain) events of any kind.
    pub fn chain_events(&self) -> usize {
        self.events.len() - self.pool_solves()
    }

    /// Canonical JSON form (`ccs-trace/1`): same trace ⇒ same bytes.
    pub fn to_json_value(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("schema", "ccs-trace/1");
        obj.set("seed", self.seed);
        obj.set(
            "pool",
            JsonValue::Array(
                self.pool
                    .iter()
                    .map(|inst| json::parse(&inst.to_json()).expect("an instance's JSON parses"))
                    .collect(),
            ),
        );
        obj.set(
            "events",
            JsonValue::Array(self.events.iter().map(event_to_json).collect()),
        );
        obj
    }

    /// One-line JSON string of [`Trace::to_json_value`].
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_json()
    }
}

fn jobs_to_json(jobs: &[(u64, u32)]) -> JsonValue {
    JsonValue::Array(
        jobs.iter()
            .map(|&(p, c)| {
                JsonValue::Array(vec![
                    JsonValue::Int(p as i128),
                    JsonValue::Int(i128::from(c)),
                ])
            })
            .collect(),
    )
}

fn event_to_json(event: &TraceEvent) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.set("at_ns", event.at_ns);
    match &event.op {
        TraceOp::Solve {
            pool,
            model,
            epsilon,
            budget_ms,
        } => {
            obj.set("op", "solve");
            obj.set("pool", *pool as u64);
            obj.set("model", ModelSpec::of(*model).id);
            if let Some(eps) = epsilon {
                obj.set("epsilon", JsonValue::Float(*eps));
            }
            if let Some(ms) = budget_ms {
                obj.set("budget_ms", *ms);
            }
        }
        TraceOp::Open {
            chain,
            machines,
            class_slots,
            jobs,
        } => {
            obj.set("op", "open");
            obj.set("chain", u64::from(*chain));
            obj.set("machines", *machines);
            obj.set("class_slots", *class_slots);
            obj.set("jobs", jobs_to_json(jobs));
        }
        TraceOp::Delta { chain, delta } => {
            obj.set("op", "delta");
            obj.set("chain", u64::from(*chain));
            match delta {
                TraceDelta::AddJobs(jobs) => obj.set("add_jobs", jobs_to_json(jobs)),
                TraceDelta::RemoveRecent(k) => obj.set("remove_recent", *k as u64),
                TraceDelta::AddMachines(count) => obj.set("add_machines", *count),
            }
        }
        TraceOp::ChainSolve { chain, model } => {
            obj.set("op", "chain_solve");
            obj.set("chain", u64::from(*chain));
            obj.set("model", ModelSpec::of(*model).id);
        }
        TraceOp::Close { chain } => {
            obj.set("op", "close");
            obj.set("chain", u64::from(*chain));
        }
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_traces() {
        let params = TraceParams::quick();
        let a = Trace::synthesize(&params, 42);
        let b = Trace::synthesize(&params, 42);
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
        let c = Trace::synthesize(&params, 43);
        assert_ne!(a.to_json_string(), c.to_json_string());
    }

    #[test]
    fn event_budget_matches_the_params() {
        let params = TraceParams::quick();
        let trace = Trace::synthesize(&params, 7);
        assert_eq!(trace.events.len(), params.total_events());
        assert_eq!(trace.pool_solves(), params.requests);
        assert_eq!(
            trace.chain_events(),
            params.chains as usize * (2 * params.chain_steps + 2)
        );
        assert_eq!(trace.pool.len(), params.pool);
    }

    #[test]
    fn timestamps_are_non_decreasing_and_bursty() {
        let params = TraceParams::quick();
        let trace = Trace::synthesize(&params, 11);
        let mut prev = 0u64;
        let mut tight = 0usize;
        for event in &trace.events {
            assert!(event.at_ns >= prev);
            if event.at_ns - prev == params.mean_gap_ns / 16 {
                tight += 1;
            }
            prev = event.at_ns;
        }
        // Most gaps are intra-burst (burst_len 8 ⇒ 7 of 8).
        assert!(tight > trace.events.len() / 2, "only {tight} tight gaps");
    }

    #[test]
    fn chain_ops_stay_in_per_chain_order_and_are_balanced() {
        let params = TraceParams::quick();
        let trace = Trace::synthesize(&params, 3);
        let mut state: Vec<Vec<&'static str>> = vec![Vec::new(); params.chains as usize];
        for event in &trace.events {
            match &event.op {
                TraceOp::Open { chain, .. } => state[*chain as usize].push("open"),
                TraceOp::Delta { chain, .. } => state[*chain as usize].push("delta"),
                TraceOp::ChainSolve { chain, .. } => state[*chain as usize].push("solve"),
                TraceOp::Close { chain } => state[*chain as usize].push("close"),
                TraceOp::Solve { .. } => {}
            }
        }
        for ops in &state {
            assert_eq!(ops.first(), Some(&"open"));
            assert_eq!(ops.last(), Some(&"close"));
            assert_eq!(ops.len(), 2 * params.chain_steps + 2);
            // Alternating delta/solve between open and close.
            for pair in ops[1..ops.len() - 1].chunks(2) {
                assert_eq!(pair, ["delta", "solve"]);
            }
        }
    }

    #[test]
    fn remove_recent_never_exceeds_the_added_stack() {
        // Replay the per-chain delta stream and check the invariant the
        // drivers rely on: RemoveRecent(k) always finds k removable jobs.
        let params = TraceParams {
            chain_steps: 12,
            ..TraceParams::quick()
        };
        for seed in 0..8 {
            let trace = Trace::synthesize(&params, seed);
            let mut depth = vec![0usize; params.chains as usize];
            for event in &trace.events {
                if let TraceOp::Delta { chain, delta } = &event.op {
                    match delta {
                        TraceDelta::AddJobs(jobs) => depth[*chain as usize] += jobs.len(),
                        TraceDelta::RemoveRecent(k) => {
                            assert!(depth[*chain as usize] >= *k, "seed {seed}");
                            depth[*chain as usize] -= k;
                        }
                        TraceDelta::AddMachines(_) => {}
                    }
                }
            }
        }
    }

    #[test]
    fn pool_indices_and_models_are_well_formed() {
        let params = TraceParams::quick();
        let trace = Trace::synthesize(&params, 9);
        let mut hist = vec![0usize; params.pool];
        let mut budgeted = 0usize;
        let mut eps_models = Vec::new();
        for event in &trace.events {
            if let TraceOp::Solve {
                pool,
                model,
                epsilon,
                budget_ms,
            } = &event.op
            {
                hist[*pool] += 1;
                if budget_ms.is_some() {
                    budgeted += 1;
                }
                if let Some(eps) = epsilon {
                    assert!(EPSILON_PALETTE.contains(eps));
                    eps_models.push(*model);
                }
            }
        }
        // Zipf head: the hottest pool slot sees far more than its fair share.
        let hottest = *hist.iter().max().unwrap();
        assert!(hottest * params.pool > 3 * params.requests, "{hottest}");
        // The budget cadence fired.
        assert_eq!(budgeted, params.requests / params.budget_every);
        // Epsilon never lands on the moldable model.
        assert!(!eps_models.is_empty());
        assert!(eps_models.iter().all(|m| *m != ScheduleKind::Moldable));
    }

    #[test]
    fn chain_processing_times_are_salted_apart_from_the_pool() {
        let params = TraceParams::quick();
        let trace = Trace::synthesize(&params, 13);
        for event in &trace.events {
            let jobs = match &event.op {
                TraceOp::Open { jobs, .. } => jobs,
                TraceOp::Delta {
                    delta: TraceDelta::AddJobs(jobs),
                    ..
                } => jobs,
                _ => continue,
            };
            for &(p, _) in jobs {
                assert!(p > params.shape.p_max, "chain job p={p} collides with pool");
            }
        }
    }
}
