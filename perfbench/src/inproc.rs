//! In-process replays of a plan: the same frames, no socket.
//!
//! * [`sync_replay`] — one request at a time on the calling thread: the
//!   reference the TCP run's deterministic counters and quality must equal.
//!   Traced, it times every call into a layer's public function (the
//!   spans); not traced, it times whole requests only, which is the
//!   baseline of the tracing overhead;
//! * [`open_replay`] — the open loop through `Engine::submit` at the same
//!   intended times: in-process latency, worker queue wait, and the share
//!   of that latency the spans do not account for.

use crate::check::{ratio, Counters};
use crate::netd::CACHE_ENTRIES;
use crate::workload::{probe_specs, Plan, Step};
use ccs_engine::wire::{self, SessionAck, WireFrame};
use ccs_engine::{handle_session_frame, CacheOutcome, Engine, SolveHandle};
use ccs_session::SessionStore;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span samples by stage name, in nanoseconds of self time.
#[derive(Default)]
pub struct Stages(BTreeMap<&'static str, Vec<u64>>);

impl Stages {
    fn add(&mut self, stage: &'static str, ns: u64) {
        self.0.entry(stage).or_default().push(ns);
    }

    /// The samples of a stage (empty when it never ran).
    pub fn get(&self, stage: &str) -> &[u64] {
        self.0.get(stage).map_or(&[], Vec::as_slice)
    }
}

/// The deterministic outcome of a replay.
pub struct Reference {
    /// Counters as a stats frame would report them.
    pub counters: Counters,
    /// Mean quality ratio, in the order [`crate::check::Verdict`] uses.
    pub quality: f64,
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    (value, elapsed_ns(start))
}

/// [`timed`] when `on`, else just the call (and a zero time).
fn span<T>(on: bool, f: impl FnOnce() -> T) -> (T, u64) {
    if on {
        timed(f)
    } else {
        (f(), 0)
    }
}

/// The solver tier a registry name belongs to.
fn tier(solver: &str) -> &'static str {
    match solver.split('-').next() {
        Some("approx") => "solver.approx",
        Some("ptas") => "solver.ptas",
        Some("exact") => "solver.exact",
        _ => "solver.heuristic",
    }
}

fn reference(engine: &Engine, completed: u64, ratios: &[f64]) -> Reference {
    let stats = engine.stats();
    Reference {
        counters: Counters {
            completed,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            warm_hits: stats.warm_hits,
            warm_misses: stats.warm_misses,
            solves: stats.solves,
            search_iterations: stats.search_iterations,
            guesses_evaluated: stats.guesses_evaluated,
            configurations: stats.configurations,
        },
        quality: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    }
}

/// Runs every chain through [`handle_session_frame`], timing the session
/// layer's calls on a shadow of the session state.  Appends the session
/// solves' quality ratios; returns how many solves ran.
fn replay_chains(
    plan: &Plan,
    engine: &Engine,
    stages: &mut Stages,
    ratios: &mut Vec<f64>,
) -> Result<usize, String> {
    let mut store = SessionStore::new();
    let mut solves = 0;
    for (c, chain) in plan.chains.iter().enumerate() {
        let mut shadow = chain.base.clone();
        let open = chain.frames(c, "").swap_remove(0);
        let (line, _) = handle_session_frame(open, engine, &mut store);
        let Ok(SessionAck::State { session, .. }) = wire::session_ack_from_line(&line) else {
            return Err(format!("replayed open of chain {c} failed: {line}"));
        };
        for (k, frame) in chain.frames(c, &session).into_iter().enumerate().skip(1) {
            match chain.steps.get(k - 1) {
                Some(Step::Delta(delta)) => {
                    let (applied, ns) = timed(|| shadow.apply(delta));
                    applied.map_err(|e| format!("c{c}-{k}: {e}"))?;
                    stages.add("session.apply", ns);
                    let (_, ns) = timed(|| shadow.fingerprint());
                    stages.add("session.fingerprint", ns);
                    handle_session_frame(frame, engine, &mut store);
                }
                Some(Step::Solve) => {
                    let (_, materialize) = timed(|| shadow.materialize());
                    let (_, fingerprint) = timed(|| shadow.fingerprint());
                    let ((line, _), ns) = timed(|| handle_session_frame(frame, engine, &mut store));
                    stages.add("session.materialize", materialize);
                    stages.add("session.fingerprint", fingerprint);
                    stages.add(
                        "session.solve",
                        ns.saturating_sub(materialize + fingerprint),
                    );
                    let solution = wire::response_from_line(&line)
                        .ok()
                        .and_then(|r| r.outcome.ok())
                        .ok_or_else(|| format!("replayed solve c{c}-{k} failed: {line}"))?;
                    ratios.push(ratio(solution.makespan, solution.lower_bound));
                    solves += 1;
                }
                None => {
                    handle_session_frame(frame, engine, &mut store);
                }
            }
        }
    }
    Ok(solves)
}

/// A synchronous replay's measurements.
pub struct SyncReplay {
    /// Span samples (traced replays only).
    pub stages: Stages,
    /// Probe samples for the [`PROBED`] stages the workload left empty.
    pub probe: Stages,
    /// Per pool request: its whole time.
    pub totals: Vec<u64>,
    /// Per pool request: `Engine::solve` time (traced replays only).
    pub solve_ns: Vec<u64>,
    /// Per pool request: parse + solve + serialise spans (traced replays
    /// only).
    pub spans_ns: Vec<u64>,
    /// Request and reply bytes over all pool requests.
    pub bytes_in: u64,
    /// See [`SyncReplay::bytes_in`].
    pub bytes_out: u64,
    /// Warm-start hits and misses of the session solves alone.
    pub session_warm: (u64, u64),
    /// The deterministic outcome.
    pub reference: Reference,
}

/// Replays every pool request on the calling thread, then every chain.
///
/// A request is `wire::frame_from_line`, `Engine::solve` and
/// `wire::solution_to_json(..).to_json()`, each a span of the request.
/// After it, `Instance::fingerprint` and `Engine::select` run on the parsed
/// instance as estimates of the canonicalisation and routing the solve does
/// internally: a miss's solver self time is its solve minus those two, and
/// is filed under its solver tier.  Only a traced replay records the spans;
/// both time whole requests.
pub fn sync_replay(plan: &Plan, traced: bool) -> Result<SyncReplay, String> {
    let engine = Engine::new().with_cache(CACHE_ENTRIES);
    let mut replay = SyncReplay {
        stages: Stages::default(),
        probe: Stages::default(),
        totals: Vec::with_capacity(plan.pool_requests()),
        solve_ns: Vec::with_capacity(plan.pool_requests()),
        spans_ns: Vec::with_capacity(plan.pool_requests()),
        bytes_in: 0,
        bytes_out: 0,
        session_warm: (0, 0),
        reference: reference(&engine, 0, &[]),
    };
    let mut ratios = Vec::new();
    for i in 0..plan.pool_requests() {
        let id = format!("q{i}");
        let line = plan.spec_of(i).line(&id);
        let start = Instant::now();
        let (frame, parse) = span(traced, || wire::frame_from_line(&line));
        let Ok(WireFrame::Request(request)) = frame else {
            return Err(format!("q{i} does not parse as a request"));
        };
        let (instance, request) = (request.instance, request.request);
        let (solved, solve) = span(traced, || engine.solve(&instance, &request));
        let solution = solved.map_err(|e| format!("replay of q{i} failed: {e}"))?;
        let (out, serialise) = span(traced, || wire::solution_to_json(&id, &solution).to_json());
        let total = elapsed_ns(start);
        // Measured after the request so they do not warm its data; both
        // replays make the calls, only the traced one times them.
        let (_, fingerprint) = span(traced, || instance.fingerprint());
        let (_, route) = span(traced, || engine.select(&instance, &request).map(|_| ()));
        replay.totals.push(total);
        replay.solve_ns.push(solve);
        replay.spans_ns.push(parse + solve + serialise);
        replay.bytes_in += line.len() as u64 + 1;
        replay.bytes_out += out.len() as u64 + 1;
        ratios.push(ratio(solution.report.makespan, solution.report.lower_bound));
        if traced {
            let stages = &mut replay.stages;
            stages.add("wire.parse", parse);
            stages.add("core.fingerprint", fingerprint);
            stages.add("policy.route", route);
            let own = solve.saturating_sub(fingerprint + route);
            match solution.cache {
                Some(CacheOutcome::Hit) => {
                    stages.add("cache.hit", solve);
                    stages.add("cache.hit_self", own);
                }
                _ => stages.add(tier(solution.solver), own),
            }
            stages.add("wire.serialise", serialise);
        }
    }
    let before = engine.stats();
    let solves = replay_chains(plan, &engine, &mut replay.stages, &mut ratios)?;
    let after = engine.stats();
    replay.session_warm = (
        after.warm_hits - before.warm_hits,
        after.warm_misses - before.warm_misses,
    );
    replay.reference = reference(&engine, (plan.pool_requests() + solves) as u64, &ratios);
    if traced {
        replay.probe = probe_missing(&replay.stages)?;
    }
    Ok(replay)
}

/// The stages a workload may never reach: the four solver tiers and the
/// cache hit.
pub const PROBED: [&str; 5] = [
    "solver.approx",
    "solver.ptas",
    "solver.exact",
    "solver.heuristic",
    "cache.hit",
];

/// Samples of the [`PROBED`] stages the workload left empty, from a fixed
/// probe ([`probe_specs`]): each spec solved twice on a fresh cached
/// engine, a miss under its tier, then a hit.
fn probe_missing(stages: &Stages) -> Result<Stages, String> {
    let mut missing = Stages::default();
    if PROBED.iter().all(|stage| !stages.get(stage).is_empty()) {
        return Ok(missing);
    }
    let engine = Engine::new().with_cache(CACHE_ENTRIES);
    let mut probe = Stages::default();
    for spec in probe_specs() {
        for _ in 0..2 {
            let (solved, ns) = timed(|| engine.solve(&spec.instance, &spec.request));
            let solution = solved.map_err(|e| format!("probe solve failed: {e}"))?;
            let fingerprint_and_route = timed(|| spec.instance.fingerprint()).1
                + timed(|| engine.select(&spec.instance, &spec.request)).1;
            match solution.cache {
                Some(CacheOutcome::Hit) => probe.add("cache.hit", ns),
                _ => probe.add(
                    tier(solution.solver),
                    ns.saturating_sub(fingerprint_and_route),
                ),
            }
        }
    }
    for stage in PROBED {
        if stages.get(stage).is_empty() {
            for &ns in probe.get(stage) {
                missing.add(stage, ns);
            }
        }
    }
    Ok(missing)
}

/// The open-loop replay's measurements.
pub struct OpenReplay {
    /// Intended-send-to-serialised latency per open request.
    pub latency_ns: Vec<u64>,
    /// Submit-to-done time minus the request's synchronous solve time.
    pub queue_wait_ns: Vec<u64>,
    /// Per open request: 1 − (its traced spans + its queue wait) / its
    /// latency — the share of the latency no timed stage accounts for.
    pub unattributed: Vec<f64>,
    /// Largest `Engine::queue_depth` seen right after a submit.
    pub depth_max: u64,
}

/// Sends the open-loop requests through `Engine::submit` at their intended
/// times: the generator parses and submits, a collector serialises each
/// completion.  `traced` is the traced synchronous replay of the same plan:
/// its per-request solve times and spans.
pub fn open_replay(plan: &Plan, traced: &SyncReplay) -> Result<OpenReplay, String> {
    const POLL: Duration = Duration::from_micros(20);
    let engine = Engine::new().with_workers(2).with_cache(CACHE_ENTRIES);
    engine.workers(); // start the pool before the clock
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, SolveHandle)>();
    let mut depth_max = 0u64;
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || -> Result<OpenReplay, String> {
            let mut out = OpenReplay {
                latency_ns: Vec::new(),
                queue_wait_ns: Vec::new(),
                unattributed: Vec::new(),
                depth_max: 0,
            };
            let mut pending = Vec::new();
            let mut open = true;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(job) => pending.push(job),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let mut progressed = false;
                let mut k = 0;
                while k < pending.len() {
                    if !pending[k].3.is_finished() {
                        k += 1;
                        continue;
                    }
                    let (i, due, submitted, handle) = pending.swap_remove(k);
                    let done = Instant::now();
                    let solution = handle.wait().map_err(|e| format!("q{i}: {e}"))?;
                    wire::solution_to_json(&format!("q{i}"), &solution).to_json();
                    let latency = elapsed_ns(due);
                    let waited = done.duration_since(submitted).as_nanos() as u64;
                    let wait = waited.saturating_sub(traced.solve_ns[i]);
                    let timed = traced.spans_ns[i] + wait;
                    out.latency_ns.push(latency);
                    out.queue_wait_ns.push(wait);
                    out.unattributed
                        .push(1.0 - timed as f64 / latency.max(1) as f64);
                    progressed = true;
                }
                if !progressed {
                    std::thread::sleep(POLL);
                }
            }
            Ok(out)
        });
        for segment in &plan.segments {
            let epoch = Instant::now() + Duration::from_millis(1);
            for i in segment.open.clone() {
                let at = plan.requests[i].1.expect("an open-loop request");
                let due = epoch + Duration::from_nanos(at);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let line = plan.spec_of(i).line(&format!("q{i}"));
                let Ok(WireFrame::Request(request)) = wire::frame_from_line(&line) else {
                    return Err(format!("q{i} does not parse as a request"));
                };
                let submitted = Instant::now();
                let handle = engine.submit(request.instance, &request.request);
                depth_max = depth_max.max(engine.queue_depth() as u64);
                tx.send((i, due, submitted, handle))
                    .map_err(|_| "the collector stopped early".to_string())?;
            }
            // The closed loop, untimed, keeps the cache in step with the
            // served run.
            let closed: Vec<SolveHandle> = segment
                .closed
                .clone()
                .map(|i| {
                    let spec = plan.spec_of(i);
                    engine.submit(Arc::clone(&spec.instance), &spec.request)
                })
                .collect();
            for handle in closed {
                handle
                    .wait()
                    .map_err(|e| format!("closed-loop replay failed: {e}"))?;
            }
        }
        drop(tx);
        collector.join().expect("the collector panicked")
    })?;
    Ok(OpenReplay {
        depth_max,
        ..collected
    })
}
