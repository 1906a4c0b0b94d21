//! Seeded workload synthesis: every frame the load client sends, and when.
//!
//! A [`Plan`] is a pure function of `(workload, seed, seconds)`: the same
//! arguments give byte-identical frames ([`Plan::transcript`]).  The program
//! under test only ever sees these frames.
//!
//! Every workload runs [`SEGMENTS`] segments, each
//!
//! 1. an **open loop** of pool solves sent at fixed intended times (in
//!    bursts on `pool-hot` and `session-mix`), then
//! 2. a **closed loop** continuing the same request stream with a fixed
//!    window of requests in flight per connection (a fixed request count, so
//!    the deterministic counters do not depend on machine speed).
//!
//! **Session chains** (open, solve, 1–3 deltas, warm re-solve, close) run in
//! lockstep: on `session-mix` on connection 0 beside each open loop, on the
//! other workloads as an idle probe after the last segment, so every
//! workload reports session latency.

use ccs_core::{Instance, InstanceBuilder, ScheduleKind};
use ccs_engine::wire::{self, SessionFrame, WireRequest};
use ccs_engine::SolveRequest;
use ccs_gen::rng::Rng;
use ccs_gen::{GenParams, ZipfSampler};
use ccs_session::{InstanceDelta, NewJob, SessionInstance};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Share of the run spent in the open loop (the closed loop is sized to
/// take about [`CLOSED_SHARE`] on the reference machine).
const OPEN_SHARE: f64 = 0.6;
const CLOSED_SHARE: f64 = 0.3;
/// Segments per run.  Metrics are medians over segments spread across the
/// whole run, so a few seconds of a busy shared machine move one segment,
/// not the result.
pub const SEGMENTS: usize = 10;
/// Session chains started per second of open loop on `session-mix`.
const CHAIN_RATE: f64 = 90.0;
/// Chains of the idle session probe on the other workloads, per second of
/// plan.
const PROBE_CHAIN_RATE: f64 = 60.0;
/// Spacing of requests inside a burst.
const BURST_GAP_NS: u64 = 50_000;
/// Requests in flight per connection during the closed loop (below netd's
/// default per-connection cap of 32, so reads never pause).
pub const WINDOW: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-popular pool solves, mostly served from the solution cache.
    PoolHot,
    /// Distinct exact, PTAS and large constant-factor solves.
    SolveBound,
    /// Session chains on one connection beside open-loop pool solves.
    SessionMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PoolHot,
        Workload::SolveBound,
        Workload::SessionMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PoolHot => "pool-hot",
            Workload::SolveBound => "solve-bound",
            Workload::SessionMix => "session-mix",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop pool-solve rate (requests per second), about 40% of what
    /// two workers sustain on the reference machine, so the generator is
    /// never the bottleneck and queues stay short between bursts.
    fn open_rate(self) -> f64 {
        match self {
            Workload::PoolHot => 1_000.0,
            Workload::SolveBound => 300.0,
            Workload::SessionMix => 700.0,
        }
    }

    /// Open-loop requests per burst.
    fn burst(self) -> usize {
        match self {
            Workload::PoolHot | Workload::SessionMix => 8,
            Workload::SolveBound => 1,
        }
    }

    /// Closed-loop throughput the reference machine sustains; only sizes
    /// the closed phase.
    fn closed_rate(self) -> f64 {
        match self {
            Workload::PoolHot => 3_000.0,
            Workload::SolveBound => 600.0,
            Workload::SessionMix => 3_000.0,
        }
    }
}

/// One distinct solve request, pre-serialised so sending it costs one copy.
pub struct SolveSpec {
    /// The instance the frame carries.
    pub instance: Arc<Instance>,
    /// The solve parameters the frame carries.
    pub request: SolveRequest,
    /// The frame up to where the id goes, and from there on.
    head: String,
    tail: String,
}

impl SolveSpec {
    fn new(instance: Instance, request: SolveRequest) -> SolveSpec {
        let line = wire::request_to_line(&WireRequest {
            id: String::new(),
            tenant: None,
            instance: instance.clone(),
            request,
        });
        let marker = "\"id\":\"\"";
        let at = line.find(marker).expect("request frames carry an id") + marker.len() - 1;
        SolveSpec {
            instance: Arc::new(instance),
            request,
            head: line[..at].to_string(),
            tail: line[at..].to_string(),
        }
    }

    /// Writes the newline-terminated frame carrying `id` into `out`.
    pub fn frame_into(&self, id: &str, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(self.head.as_bytes());
        out.extend_from_slice(id.as_bytes());
        out.extend_from_slice(self.tail.as_bytes());
        out.push(b'\n');
    }

    /// The frame carrying `id`, without the newline.
    pub fn line(&self, id: &str) -> String {
        format!("{}{id}{}", self.head, self.tail)
    }
}

/// One step of a session chain after its open frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Apply one delta.
    Delta(InstanceDelta),
    /// Solve the current state exactly (warm-started by the server's
    /// ledger from the chain's second solve on).
    Solve,
}

/// A session chain: open over `base`, the steps in order, then close.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The initial session state (external job ids `0..n`).
    pub base: SessionInstance,
    /// The steps between open and close.
    pub steps: Vec<Step>,
}

impl Chain {
    /// Every frame of the chain, addressed to session `session` (the open
    /// frame ignores it).  Frame ids are `c<chain>-<k>`.
    pub fn frames(&self, chain: usize, session: &str) -> Vec<SessionFrame> {
        let id = |k: usize| format!("c{chain}-{k}");
        let mut frames = vec![SessionFrame::Open {
            id: id(0),
            tenant: None,
            instance: self.base.clone(),
        }];
        for (k, step) in self.steps.iter().enumerate() {
            frames.push(match step {
                Step::Delta(delta) => SessionFrame::Delta {
                    id: id(k + 1),
                    session: session.to_string(),
                    deltas: vec![delta.clone()],
                },
                Step::Solve => SessionFrame::Solve {
                    id: id(k + 1),
                    session: session.to_string(),
                    request: chain_request(),
                },
            });
        }
        frames.push(SessionFrame::Close {
            id: id(self.steps.len() + 1),
            session: session.to_string(),
        });
        frames
    }
}

/// The solve request of every chain solve.
pub fn chain_request() -> SolveRequest {
    SolveRequest::exact(ScheduleKind::NonPreemptive)
}

/// A slice of the run: open-loop requests, then closed-loop requests (and
/// on `session-mix` the chains run beside the open loop).  Ranges index
/// [`Plan::requests`] and [`Plan::chains`].
pub struct Segment {
    /// Open-loop requests.
    pub open: Range<usize>,
    /// Closed-loop requests.
    pub closed: Range<usize>,
    /// Chains started during the open loop.
    pub chains: Range<usize>,
}

/// Everything one run sends.
pub struct Plan {
    /// The workload this plan realises.
    pub workload: Workload,
    /// Distinct solve requests; [`Plan::requests`] indexes into this.
    pub specs: Vec<SolveSpec>,
    /// Pool requests in stream order (request `i` has id `q<i>`): the spec
    /// and, for an open-loop request, its intended send offset from the
    /// start of its segment.
    pub requests: Vec<(usize, Option<u64>)>,
    /// The run's segments, in order.
    pub segments: Vec<Segment>,
    /// Session chains.
    pub chains: Vec<Chain>,
    /// Per chain on `session-mix`, its start offset from the start of its
    /// segment; empty when the chains are an idle probe after the segments.
    pub chain_starts: Vec<u64>,
}

impl Plan {
    /// Synthesises the plan.  Pure function of the arguments.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        let mut rng = Rng::seed_from_u64(seed ^ 0x005e_ed0f_be4c);
        let per_segment = |total: f64| (total / SEGMENTS as f64) as usize;
        let open_ns = (seconds * OPEN_SHARE * 1e9) as u64 / SEGMENTS as u64;
        let n_open = per_segment(workload.open_rate() * seconds * OPEN_SHARE);
        let n_closed = per_segment(workload.closed_rate() * seconds * CLOSED_SHARE);
        let n_chains = match workload {
            Workload::SessionMix => per_segment(CHAIN_RATE * seconds * OPEN_SHARE),
            Workload::PoolHot | Workload::SolveBound => 0,
        };
        let mut stream = Stream::new(workload, seed);
        let mut requests = Vec::new();
        let mut segments = Vec::with_capacity(SEGMENTS);
        let mut chain_starts = Vec::new();
        for _ in 0..SEGMENTS {
            let open_start = requests.len();
            for at in arrivals(n_open, workload.burst(), open_ns, &mut rng) {
                requests.push((stream.next(&mut rng), Some(at)));
            }
            let closed_start = requests.len();
            for _ in 0..n_closed {
                requests.push((stream.next(&mut rng), None));
            }
            let chains_start = chain_starts.len();
            chain_starts.extend((0..n_chains).map(|c| (c as u64 * open_ns) / n_chains as u64));
            segments.push(Segment {
                open: open_start..closed_start,
                closed: closed_start..requests.len(),
                chains: chains_start..chain_starts.len(),
            });
        }
        let chains = match workload {
            Workload::SessionMix => synth_chains(chain_starts.len(), &mut rng),
            Workload::PoolHot | Workload::SolveBound => {
                synth_chains((PROBE_CHAIN_RATE * seconds) as usize, &mut rng)
            }
        };
        Plan {
            workload,
            specs: stream.specs,
            requests,
            segments,
            chains,
            chain_starts,
        }
    }

    /// The spec index of pool request `i`.
    pub fn spec_index(&self, i: usize) -> usize {
        self.requests[i].0
    }

    /// The spec of pool request `i`.
    pub fn spec_of(&self, i: usize) -> &SolveSpec {
        &self.specs[self.spec_index(i)]
    }

    /// Number of pool requests (open and closed).
    pub fn pool_requests(&self) -> usize {
        self.requests.len()
    }

    /// Every frame of the plan in a fixed order with its intended send
    /// offset where it has one; two plans with equal transcripts send the
    /// same bytes.  Session frames carry the placeholder session `s?`.
    #[cfg(test)]
    pub fn transcript(&self) -> String {
        let offset = |at: Option<&u64>| at.map_or(String::from("-"), u64::to_string);
        let mut out = String::new();
        for (i, (_, at)) in self.requests.iter().enumerate() {
            let line = self.spec_of(i).line(&format!("q{i}"));
            out.push_str(&format!("{} {line}\n", offset(at.as_ref())));
        }
        for (c, chain) in self.chains.iter().enumerate() {
            for frame in chain.frames(c, "s?") {
                let line = wire::session_frame_to_line(&frame);
                out.push_str(&format!("{} {line}\n", offset(self.chain_starts.get(c))));
            }
        }
        out
    }
}

/// Open-loop arrival offsets: bursts of `burst` requests [`BURST_GAP_NS`]
/// apart, burst starts spread over `span_ns` with a ±50% jitter around
/// their mean spacing.
fn arrivals(n: usize, burst: usize, span_ns: u64, rng: &mut Rng) -> Vec<u64> {
    let bursts = n.div_ceil(burst).max(1) as u64;
    let mean = span_ns / bursts;
    (0..n)
        .scan(0u64, |start, i| {
            if i > 0 && i % burst == 0 {
                *start += mean / 2 + rng.below_u64(mean.max(1));
            }
            Some(*start + (i % burst) as u64 * BURST_GAP_NS)
        })
        .collect()
}

/// The pool-solve request stream of a workload, with its distinct specs.
struct Stream {
    workload: Workload,
    seed: u64,
    specs: Vec<SolveSpec>,
    /// Pool-hot keys already materialised: (rank, model, accuracy) → spec.
    known: HashMap<(u32, usize, usize), usize>,
    zipf: ZipfSampler,
    ordinal: usize,
}

/// Pool-hot: instances ranked by popularity.  4000 ranks at Zipf exponent
/// 1.0 make about 70% of a run's requests repeat an earlier key.
const POOL_RANKS: u32 = 4_000;
const POOL_ZIPF: f64 = 1.0;
const POOL_MODELS: [ScheduleKind; 4] = [
    ScheduleKind::Splittable,
    ScheduleKind::Preemptive,
    ScheduleKind::NonPreemptive,
    ScheduleKind::Moldable,
];
/// `None` is `Auto`; every epsilon keeps the paper models on their
/// constant-factor tier (`1 + ε ≥ 7/3`), so all four share one cache key.
const POOL_ACCURACY: [Option<f64>; 4] = [None, Some(1.5), Some(2.0), Some(3.0)];

/// Solve-bound: the non-preemptive PTAS at ε = 1.2 runs 1 ms to seconds on
/// random 8–10-job instances, which would make the workload's cost depend on
/// the seed.  Its requests instead scale and relabel these `ccs_gen::uniform`
/// instances (9 jobs, 4 machines, 6 classes, 2 slots), each solving in
/// 5–7 ms; scaling all processing times leaves the scheme's work unchanged
/// but gives every request its own fingerprint.
const PTAS_TEMPLATES: [u64; 8] = [0, 3, 4, 18, 58, 63, 69, 80];
const PTAS_EPSILON: f64 = 1.2;

/// Solve-bound request classes, cycled in this order (half exact, a third
/// large constant-factor, a sixth PTAS).
#[derive(Clone, Copy)]
enum Bound {
    Exact,
    Large,
    Ptas,
}
const BOUND_CYCLE: [Bound; 6] = [
    Bound::Exact,
    Bound::Large,
    Bound::Exact,
    Bound::Ptas,
    Bound::Exact,
    Bound::Large,
];

impl Stream {
    fn new(workload: Workload, seed: u64) -> Stream {
        Stream {
            workload,
            seed,
            specs: Vec::new(),
            known: HashMap::new(),
            zipf: ZipfSampler::new(POOL_RANKS, POOL_ZIPF),
            ordinal: 0,
        }
    }

    /// The spec index of the next request.
    fn next(&mut self, rng: &mut Rng) -> usize {
        let ordinal = self.ordinal;
        self.ordinal += 1;
        match self.workload {
            Workload::PoolHot | Workload::SessionMix => self.next_pool(ordinal, rng),
            Workload::SolveBound => {
                let spec = bound_spec(BOUND_CYCLE[ordinal % BOUND_CYCLE.len()], ordinal, rng);
                self.specs.push(spec);
                self.specs.len() - 1
            }
        }
    }

    fn next_pool(&mut self, ordinal: usize, rng: &mut Rng) -> usize {
        let rank = self.zipf.draw(rng);
        let model = ordinal % POOL_MODELS.len();
        let accuracy = match POOL_MODELS[model] {
            // The moldable model has no epsilon-guaranteed tier.
            ScheduleKind::Moldable => 0,
            _ => rng.below_usize(POOL_ACCURACY.len()),
        };
        if let Some(&spec) = self.known.get(&(rank, model, accuracy)) {
            return spec;
        }
        let kind = POOL_MODELS[model];
        let request = match POOL_ACCURACY[accuracy] {
            Some(eps) => SolveRequest::epsilon(kind, eps).expect("palette epsilons are valid"),
            None => SolveRequest::auto(kind),
        };
        self.specs
            .push(SolveSpec::new(pool_instance(self.seed, rank), request));
        self.known
            .insert((rank, model, accuracy), self.specs.len() - 1);
        self.specs.len() - 1
    }
}

/// The pool instance of popularity rank `rank`.  Sizes are spread over
/// 80–400 jobs by rank alone (a golden-ratio sequence), so the hot head has
/// the same size mix under every seed; the seed picks the contents.
fn pool_instance(seed: u64, rank: u32) -> Instance {
    type Family = fn(&GenParams, u64) -> Instance;
    const FAMILIES: [Family; 5] = [
        ccs_gen::uniform,
        ccs_gen::zipf_classes,
        ccs_gen::data_placement,
        ccs_gen::video_on_demand,
        ccs_gen::correlated,
    ];
    let spread = (f64::from(rank) * 0.618_033_988_749_895).fract();
    let jobs = 80 + (spread * 321.0) as usize;
    let params = GenParams {
        jobs,
        machines: 10 + jobs as u64 / 20,
        classes: 12 + jobs as u32 / 16,
        class_slots: 3,
        p_min: 1,
        p_max: 400,
    };
    let family = FAMILIES[rank as usize % FAMILIES.len()];
    family(
        &params,
        seed.rotate_left(17) ^ u64::from(rank).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
}

/// Five requests per solver tier (exact, constant-factor, PTAS, moldable
/// heuristic), shaped like the workloads' own: the in-process probe for
/// per-layer stages a workload never reaches.
pub fn probe_specs() -> Vec<SolveSpec> {
    let mut rng = Rng::seed_from_u64(0x960be);
    let mut specs = Vec::new();
    for k in 0..5 {
        let cycle = k * BOUND_CYCLE.len();
        specs.push(bound_spec(Bound::Exact, cycle, &mut rng));
        specs.push(bound_spec(Bound::Large, cycle + 1, &mut rng));
        specs.push(bound_spec(Bound::Ptas, cycle + 3, &mut rng));
        specs.push(SolveSpec::new(
            pool_instance(0, k as u32),
            SolveRequest::auto(ScheduleKind::Moldable),
        ));
    }
    specs
}

fn bound_spec(class: Bound, ordinal: usize, rng: &mut Rng) -> SolveSpec {
    match class {
        Bound::Exact => {
            let jobs = 12 + (ordinal / BOUND_CYCLE.len()) % 5;
            let params = GenParams {
                jobs,
                machines: 4,
                classes: 6,
                class_slots: 2,
                p_min: 1,
                p_max: 100,
            };
            SolveSpec::new(
                ccs_gen::uniform(&params, rng.next_u64()),
                SolveRequest::exact(ScheduleKind::NonPreemptive),
            )
        }
        Bound::Large => {
            let params = GenParams {
                jobs: 2_000,
                machines: 64,
                classes: 160,
                class_slots: 3,
                p_min: 1,
                p_max: 1_000,
            };
            SolveSpec::new(
                ccs_gen::uniform(&params, rng.next_u64()),
                SolveRequest::auto(ScheduleKind::NonPreemptive),
            )
        }
        Bound::Ptas => {
            let template = PTAS_TEMPLATES[(ordinal / BOUND_CYCLE.len()) % PTAS_TEMPLATES.len()];
            let params = GenParams {
                jobs: 9,
                machines: 4,
                classes: 6,
                class_slots: 2,
                p_min: 1,
                p_max: 100,
            };
            let base = ccs_gen::uniform(&params, template);
            // A distinct scale per request: distinct fingerprints, same work.
            let scale = 2 + ordinal as u64;
            let mut order: Vec<usize> = (0..base.num_jobs()).collect();
            shuffle(&mut order, rng);
            let relabel = 1 + rng.below_u32(1_000);
            let mut builder = InstanceBuilder::new(base.machines(), base.class_slots());
            for job in order {
                let label = base.class_label(base.class_of(job));
                builder = builder.job(base.processing_time(job) * scale, label + relabel);
            }
            SolveSpec::new(
                builder.build().expect("a relabelled template is valid"),
                SolveRequest::epsilon(ScheduleKind::NonPreemptive, PTAS_EPSILON)
                    .expect("a positive epsilon"),
            )
        }
    }
}

/// Session chains: 12–14 base jobs on 4 machines (6 class labels, 2 slots),
/// solve, 1–3 deltas keeping 11–16 jobs, warm re-solve, close.  Each chain
/// scales its processing times by its own factor, so chain states never
/// share a cache entry.
fn synth_chains(n: usize, rng: &mut Rng) -> Vec<Chain> {
    (0..n)
        .map(|c| {
            let scale = 2 + c as u64;
            let job = |rng: &mut Rng| (scale * rng.range_u64(1, 100), rng.below_u32(6));
            let base_jobs = 12 + rng.below_usize(3);
            let mut base = SessionInstance::new(4, 2).expect("positive shape");
            base.apply(&InstanceDelta::AddJobs(
                (0..base_jobs)
                    .map(|_| {
                        let (p, class) = job(rng);
                        NewJob::new(p, class)
                    })
                    .collect(),
            ))
            .expect("valid base jobs");
            let mut live: Vec<u64> = (0..base_jobs as u64).collect();
            let mut next_id = base_jobs as u64;
            let mut steps = vec![Step::Solve];
            for _ in 0..1 + rng.below_usize(3) {
                let remove = live.len() > 13 || (live.len() > 11 && rng.gen_bool(0.5));
                let delta = if remove {
                    let at = rng.below_usize(live.len());
                    InstanceDelta::RemoveJobs(vec![live.remove(at)])
                } else {
                    let (p, class) = job(rng);
                    live.push(next_id);
                    next_id += 1;
                    InstanceDelta::AddJobs(vec![NewJob::new(p, class)])
                };
                steps.push(Step::Delta(delta));
            }
            steps.push(Step::Solve);
            Chain { base, steps }
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below_usize(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_byte_identical_per_seed() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 11, 0.5).transcript();
            let b = Plan::new(workload, 11, 0.5).transcript();
            assert_eq!(a, b, "{}", workload.name());
            let c = Plan::new(workload, 12, 0.5).transcript();
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn solve_bound_instances_are_distinct() {
        let plan = Plan::new(Workload::SolveBound, 3, 1.0);
        let mut seen = std::collections::HashSet::new();
        for spec in &plan.specs {
            assert!(seen.insert(spec.instance.fingerprint()));
        }
        assert_eq!(plan.specs.len(), plan.pool_requests());
    }

    #[test]
    fn frames_splice_the_id() {
        let plan = Plan::new(Workload::PoolHot, 5, 0.2);
        let mut buf = Vec::new();
        plan.spec_of(0).frame_into("q0", &mut buf);
        let line = std::str::from_utf8(&buf).unwrap().trim_end();
        match wire::frame_from_line(line).unwrap() {
            wire::WireFrame::Request(req) => {
                assert_eq!(req.id, "q0");
                assert_eq!(req.instance, *plan.spec_of(0).instance);
            }
            other => panic!("not a request: {other:?}"),
        }
    }
}
