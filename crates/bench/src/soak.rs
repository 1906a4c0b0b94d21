//! Trace-driven soak replay: the *system* under production-shaped load.
//!
//! The micro-bench targets measure solvers one instance at a time; this
//! module replays a deterministic [`ccs_gen::trace::Trace`] — Zipf-popular
//! pool solves, session delta chains and bursty arrivals — through the full
//! service stack and records end-to-end behaviour: per-request latency
//! (p50/p95/p99), throughput, solution-cache hit rate, warm-start hit rate
//! and admission shed rate.  Two replay paths cover the two deployment
//! shapes:
//!
//! * [`replay_engine`] — in-process: pool solves go through the worker pool
//!   via [`Engine::submit_notify`] (each latency taken by its completion
//!   hook), session frames run inline through
//!   [`ccs_engine::handle_session_frame`] exactly as the service layers do,
//! * [`replay_netd`] — over real TCP: a [`NetServer`] on an ephemeral
//!   loopback port, several client connections with the trace partitioned
//!   across them (chains pinned to a connection; chain frames run in
//!   lockstep with their acks, pool solves pipeline freely), final counters
//!   from the server's drain statistics.
//!
//! Replays are wall-clock experiments, but every *counter* total
//! ([`SoakCounters`]) is a pure function of the trace: same trace ⇒ same
//! completed/ok/error/shed/cache/warm totals, which is what the
//! determinism tests pin.  Results flatten into [`BenchCase`]s under the
//! `soak` group (solvers `engine` / `netd`), so the committed
//! `BENCH_baseline.json` gates soak regressions exactly like the
//! micro-bench groups.

use crate::report::BenchCase;
use ccs_core::{CcsError, Instance, ScheduleKind};
use ccs_engine::wire::{self, SessionAck, SessionFrame, WireRequest};
use ccs_engine::{handle_session_frame, Engine, NetServer, NetdConfig, SolveRequest};
use ccs_gen::trace::{Trace, TraceDelta, TraceEvent, TraceOp};
use ccs_session::{InstanceDelta, NewJob, SessionInstance, SessionStore};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a connection driver waits for a session acknowledgement before
/// declaring the replay wedged (session frames are answered inline by the
/// service, so anything near this is a hang, not load).
const ACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Tuning knobs of a soak replay (not part of the trace: two replays of the
/// same trace under different configs still produce the same counter
/// totals, only the timing distributions move).
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Worker threads of the engine's solve pool.
    pub workers: usize,
    /// Solution-cache capacity in entries.  Must exceed the trace's
    /// distinct-key count for the cache counters to stay deterministic
    /// (no evictions ⇒ misses = distinct keys); the default comfortably
    /// covers both built-in tiers.
    pub cache: usize,
    /// Client connections of the netd path.
    pub conns: usize,
    /// Honour the trace's arrival timestamps (sleep until each event is
    /// due).  `false` replays at maximum speed — counter totals are
    /// unchanged, latencies lose the burst-queueing component.
    pub pace: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            workers: 4,
            cache: 4096,
            conns: 2,
            pace: true,
        }
    }
}

/// Deterministic outcome totals of one replay: a pure function of the
/// trace (wall-clock and latencies are not — they live on
/// [`SoakOutcome`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoakCounters {
    /// Events answered with a solution, acknowledgement or structured
    /// error (everything except shed requests).
    pub completed: u64,
    /// Events answered successfully (solutions and session acks).
    pub ok: u64,
    /// Events answered with a non-overload structured error.
    pub errors: u64,
    /// Requests shed by admission control (netd path only; excluded from
    /// `completed` and from the latency distribution).
    pub shed: u64,
    /// Solution-cache hits (stored entry or single-flight coalesce).
    pub cache_hits: u64,
    /// Solution-cache misses (a solver ran).
    pub cache_misses: u64,
    /// Solver runs that consumed a warm-start hint (session solves from
    /// each chain's second solve on).
    pub warm_hits: u64,
    /// Solver runs hinted but unable to use the hint, plus unhinted runs
    /// recorded by warm-aware solvers.
    pub warm_misses: u64,
}

impl SoakCounters {
    /// One-line machine-parseable rendering (the determinism tests compare
    /// these across same-seed replays).
    pub fn line(&self) -> String {
        format!(
            "completed={} ok={} errors={} shed={} cache_hits={} cache_misses={} warm_hits={} warm_misses={}",
            self.completed,
            self.ok,
            self.errors,
            self.shed,
            self.cache_hits,
            self.cache_misses,
            self.warm_hits,
            self.warm_misses
        )
    }

    /// `cache_hits / (cache_hits + cache_misses)`, `None` before any
    /// cache lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// `warm_hits / (warm_hits + warm_misses)`, `None` when no warm-aware
    /// solver ran.
    pub fn warm_hit_rate(&self) -> Option<f64> {
        let total = self.warm_hits + self.warm_misses;
        (total > 0).then(|| self.warm_hits as f64 / total as f64)
    }

    /// Fraction of requests shed by admission control, `0.0` on an empty
    /// replay.
    pub fn shed_rate(&self) -> f64 {
        let total = self.completed + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    fn absorb(&mut self, other: &SoakCounters) {
        self.completed += other.completed;
        self.ok += other.ok;
        self.errors += other.errors;
        self.shed += other.shed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
    }
}

/// The full result of one replay: deterministic counters plus the
/// machine-dependent timing side (latency distribution, wall-clock).
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Deterministic totals.
    pub counters: SoakCounters,
    /// Per-request end-to-end latencies in nanoseconds, sorted ascending
    /// (shed requests excluded).
    pub latencies_ns: Vec<u64>,
    /// Wall-clock of the whole replay in nanoseconds.
    pub wall_ns: u64,
}

impl SoakOutcome {
    fn new(counters: SoakCounters, mut latencies_ns: Vec<u64>, wall_ns: u64) -> SoakOutcome {
        latencies_ns.sort_unstable();
        SoakOutcome {
            counters,
            latencies_ns,
            wall_ns,
        }
    }

    /// Nearest-rank percentile of the latency distribution (same rank rule
    /// as the harness's p95), `0` on an empty replay.
    pub fn percentile_ns(&self, pct: usize) -> u64 {
        let n = self.latencies_ns.len();
        if n == 0 {
            return 0;
        }
        self.latencies_ns[((n * pct).div_ceil(100).max(1) - 1).min(n - 1)]
    }

    /// Completed requests per second of replay wall-clock.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall_ns as f64 / 1e9;
        if secs > 0.0 {
            self.counters.completed as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Flattens the outcome into a `soak`-group [`BenchCase`]: `min_ns` /
    /// `median_ns` / `p95_ns` hold the latency min/p50/p95, `p99_ns` the
    /// tail, `iters` the completed-request count.
    pub fn to_case(&self, solver: &str, case: &str) -> BenchCase {
        let (family, size) = BenchCase::parse_label(case);
        BenchCase {
            group: "soak".to_string(),
            solver: solver.to_string(),
            case: case.to_string(),
            family,
            size,
            warmup_ns: 0,
            iters: self.counters.completed,
            min_ns: self.latencies_ns.first().copied().unwrap_or(0),
            median_ns: self.percentile_ns(50),
            p95_ns: self.percentile_ns(95),
            makespan: None,
            lower_bound: None,
            ratio: None,
            p99_ns: Some(self.percentile_ns(99)),
            throughput_rps: Some(self.throughput_rps()),
            cache_hit_rate: self.counters.cache_hit_rate(),
            warm_hit_rate: self.counters.warm_hit_rate(),
            shed_rate: Some(self.counters.shed_rate()),
        }
    }
}

/// Builds the [`SolveRequest`] of a pool solve event.
fn solve_request(
    model: ScheduleKind,
    epsilon: Option<f64>,
    budget_ms: Option<u64>,
) -> SolveRequest {
    let mut req = match epsilon {
        Some(eps) => SolveRequest::epsilon(model, eps).expect("trace epsilons are valid"),
        None => SolveRequest::auto(model),
    };
    if let Some(ms) = budget_ms {
        req = req.with_budget(Duration::from_millis(ms));
    }
    req
}

/// Sleeps until `at_ns` past the replay start (no-op once behind schedule —
/// a loaded replay degrades to maximum speed instead of stretching) and
/// returns that intended send time.  Paced pool solves are timed from it,
/// so a replay that falls behind still counts the wait it imposed
/// (no coordinated omission).
fn pace(started: Instant, at_ns: u64) -> Instant {
    let due = started + Duration::from_nanos(at_ns);
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
    due
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-chain driver state: the server-assigned session id and the stable
/// external ids of delta-added jobs (a stack, so
/// [`TraceDelta::RemoveRecent`] maps onto `RemoveJobs` of the most recent
/// survivors; base jobs take ids `0..n` and are never removed).
struct ChainState {
    session: String,
    next_id: u64,
    added: Vec<u64>,
}

impl ChainState {
    fn new(base_jobs: usize) -> ChainState {
        ChainState {
            session: String::new(),
            next_id: base_jobs as u64,
            added: Vec::new(),
        }
    }
}

/// Maps a trace delta onto the session wire delta, maintaining the
/// added-id stack.
fn instance_delta(delta: &TraceDelta, state: &mut ChainState) -> InstanceDelta {
    match delta {
        TraceDelta::AddJobs(jobs) => {
            let new: Vec<NewJob> = jobs.iter().map(|&(p, c)| NewJob::new(p, c)).collect();
            for _ in &new {
                state.added.push(state.next_id);
                state.next_id += 1;
            }
            InstanceDelta::AddJobs(new)
        }
        TraceDelta::RemoveRecent(k) => InstanceDelta::RemoveJobs(
            (0..*k)
                .map(|_| state.added.pop().expect("trace synthesis guarantees depth"))
                .collect(),
        ),
        TraceDelta::AddMachines(count) => InstanceDelta::AddMachines(*count),
    }
}

/// Builds the initial [`SessionInstance`] of a chain-open event.
fn open_instance(machines: u64, class_slots: u64, jobs: &[(u64, u32)]) -> SessionInstance {
    let mut instance = SessionInstance::new(machines, class_slots).expect("trace shapes are valid");
    instance
        .apply(&InstanceDelta::AddJobs(
            jobs.iter().map(|&(p, c)| NewJob::new(p, c)).collect(),
        ))
        .expect("trace base jobs are valid");
    instance
}

// ---------------------------------------------------------------------------
// In-process replay.
// ---------------------------------------------------------------------------

/// Runs the in-process replay driver on a worker-sized stack.  Its
/// session-frame solves run inline on the driving thread, and the
/// accuracy-exponential pipelines recurse too deeply for a default 2 MiB
/// thread stack in debug builds — give the driver the same headroom the
/// engine's own pool threads (and netd's connection drivers) get.
fn on_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    thread::scope(|s| {
        thread::Builder::new()
            .name("soak-replay".into())
            .stack_size(ccs_core::par::WORKER_STACK_BYTES)
            .spawn_scoped(s, f)
            .expect("spawning the replay thread")
            .join()
            .expect("replay thread")
    })
}

/// Replays the trace in-process: pool solves through the worker pool
/// ([`Engine::submit`]), session frames inline through
/// [`handle_session_frame`] with a local [`SessionStore`] — the same
/// execution paths the service front ends use, minus the socket.
pub fn replay_engine(trace: &Trace, config: &SoakConfig) -> SoakOutcome {
    on_big_stack(|| replay_engine_inner(trace, config))
}

fn replay_engine_inner(trace: &Trace, config: &SoakConfig) -> SoakOutcome {
    let engine = Engine::new()
        .with_workers(config.workers.max(1))
        .with_cache(config.cache);
    let pool: Vec<Arc<Instance>> = trace.pool.iter().cloned().map(Arc::new).collect();

    // Each pool solve's completion hook measures its latency the moment the
    // result is published; the handles are kept only for the outcomes.
    let (done, latencies) = mpsc::channel::<u64>();
    let mut handles = Vec::new();
    let started = Instant::now();
    let mut sessions = SessionStore::new();
    let mut chains: HashMap<u32, ChainState> = HashMap::new();
    let mut counters = SoakCounters::default();
    let mut session_latencies = Vec::new();
    for event in &trace.events {
        let due = config.pace.then(|| pace(started, event.at_ns));
        let frame = match &event.op {
            TraceOp::Solve {
                pool: idx,
                model,
                epsilon,
                budget_ms,
            } => {
                let req = solve_request(*model, *epsilon, *budget_ms);
                let sent = due.unwrap_or_else(Instant::now);
                let done = done.clone();
                handles.push(
                    engine.submit_notify(Arc::clone(&pool[*idx]), &req, move || {
                        let _ = done.send(elapsed_ns(sent));
                    }),
                );
                continue;
            }
            TraceOp::Open {
                chain,
                machines,
                class_slots,
                jobs,
            } => {
                chains.insert(*chain, ChainState::new(jobs.len()));
                SessionFrame::Open {
                    id: format!("c{chain}-open"),
                    tenant: None,
                    instance: open_instance(*machines, *class_slots, jobs),
                }
            }
            TraceOp::Delta { chain, delta } => {
                let state = chains.get_mut(chain).expect("open precedes deltas");
                SessionFrame::Delta {
                    id: format!("c{chain}-delta"),
                    session: state.session.clone(),
                    deltas: vec![instance_delta(delta, state)],
                }
            }
            TraceOp::ChainSolve { chain, model } => SessionFrame::Solve {
                id: format!("c{chain}-solve"),
                session: chains[chain].session.clone(),
                request: SolveRequest::auto(*model),
            },
            TraceOp::Close { chain } => SessionFrame::Close {
                id: format!("c{chain}-close"),
                session: chains[chain].session.clone(),
            },
        };
        let opened = match &event.op {
            TraceOp::Open { chain, .. } => Some(*chain),
            _ => None,
        };
        let sent = Instant::now();
        let (line, _event) = handle_session_frame(frame, &engine, &mut sessions);
        session_latencies.push(elapsed_ns(sent));
        counters.completed += 1;
        match wire::session_ack_from_line(&line) {
            Ok(SessionAck::State { session, .. }) => {
                counters.ok += 1;
                if let Some(chain) = opened {
                    chains.get_mut(&chain).expect("just inserted").session = session;
                }
            }
            Ok(SessionAck::Closed { .. }) => counters.ok += 1,
            Err(_) => match wire::response_from_line(&line) {
                Ok(resp) if resp.outcome.is_ok() => counters.ok += 1,
                _ => counters.errors += 1,
            },
        }
    }
    // Every hook owns a sender clone, so this ends once all solves are done.
    drop(done);
    let mut latencies: Vec<u64> = latencies.iter().collect();
    let wall_ns = elapsed_ns(started);
    for handle in handles {
        match handle.wait() {
            Ok(_) => counters.ok += 1,
            Err(_) => counters.errors += 1,
        }
    }
    latencies.extend(session_latencies);
    counters.completed = latencies.len() as u64;
    let stats = engine.stats();
    counters.cache_hits = stats.cache_hits;
    counters.cache_misses = stats.cache_misses;
    counters.warm_hits = stats.warm_hits;
    counters.warm_misses = stats.warm_misses;
    SoakOutcome::new(counters, latencies, wall_ns)
}

// ---------------------------------------------------------------------------
// TCP replay through ccs-netd.
// ---------------------------------------------------------------------------

/// What the reader forwards to its connection driver for a session-frame
/// reply (pool responses are recorded reader-side only).
enum ChainReply {
    /// A state acknowledgement (open/delta) carrying the session id.
    State(String),
    /// A close acknowledgement or a session-solve response.
    Done,
}

type SentMap = Arc<Mutex<HashMap<String, Instant>>>;
type ConnOutcome = (Vec<u64>, SoakCounters);

/// Replays the trace over real TCP: a [`NetServer`] bound to an ephemeral
/// loopback port, `config.conns` client connections with the event stream
/// partitioned across them — chains pinned to `chain % conns` (chain
/// frames run in lockstep with their acknowledgements, preserving
/// per-chain order), pool solves dealt round-robin and pipelined freely.
/// Counter totals come from the clients plus the server's drain
/// statistics.
///
/// # Errors
/// Propagates socket-level failures (bind, connect, write) and a wedged
/// replay (no session acknowledgement within a minute).
pub fn replay_netd(trace: &Trace, config: &SoakConfig) -> std::io::Result<SoakOutcome> {
    let engine = Engine::new()
        .with_workers(config.workers.max(1))
        .with_cache(config.cache);
    let server = NetServer::bind(engine, "127.0.0.1:0", NetdConfig::default())?;
    let addr = server.local_addr()?;
    let handle = server.handle();
    let server_thread = thread::Builder::new()
        .name("soak-netd".into())
        .spawn(move || server.run())
        .expect("spawning the netd server thread");

    let conns = config.conns.max(1);
    let mut parts: Vec<Vec<TraceEvent>> = (0..conns).map(|_| Vec::new()).collect();
    let mut solve_ordinal = 0usize;
    for event in &trace.events {
        let conn = match &event.op {
            TraceOp::Solve { .. } => {
                solve_ordinal += 1;
                (solve_ordinal - 1) % conns
            }
            TraceOp::Open { chain, .. }
            | TraceOp::Delta { chain, .. }
            | TraceOp::ChainSolve { chain, .. }
            | TraceOp::Close { chain } => *chain as usize % conns,
        };
        parts[conn].push(event.clone());
    }

    let pool = Arc::new(trace.pool.clone());
    let started = Instant::now();
    let workers: Vec<_> = parts
        .into_iter()
        .enumerate()
        .map(|(conn, events)| {
            let pool = Arc::clone(&pool);
            let pace_arrivals = config.pace;
            thread::spawn(move || run_conn(addr, conn, pool, events, started, pace_arrivals))
        })
        .collect();

    let mut counters = SoakCounters::default();
    let mut latencies = Vec::new();
    let mut failure: Option<std::io::Error> = None;
    for worker in workers {
        match worker.join().expect("connection driver") {
            Ok((conn_latencies, conn_counters)) => {
                latencies.extend(conn_latencies);
                counters.absorb(&conn_counters);
            }
            Err(e) => failure = Some(e),
        }
    }
    let wall_ns = elapsed_ns(started);
    handle.drain();
    let stats = server_thread
        .join()
        .expect("server thread")
        .expect("server drain");
    if let Some(e) = failure {
        return Err(e);
    }
    counters.cache_hits = stats.engine.cache_hits;
    counters.cache_misses = stats.engine.cache_misses;
    counters.warm_hits = stats.engine.warm_hits;
    counters.warm_misses = stats.engine.warm_misses;
    Ok(SoakOutcome::new(counters, latencies, wall_ns))
}

/// Drives one client connection: writes its partition in trace order
/// (pacing against the shared start), runs chain frames in lockstep with
/// their acknowledgements, then half-closes and joins its reader.
fn run_conn(
    addr: SocketAddr,
    conn: usize,
    pool: Arc<Vec<Instance>>,
    events: Vec<TraceEvent>,
    started: Instant,
    pace_arrivals: bool,
) -> std::io::Result<ConnOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    // Nagle would hold a frame written right after an unacknowledged one
    // until the delayed ACK (~40 ms on Linux).
    stream.set_nodelay(true)?;
    let sent_at: SentMap = Arc::new(Mutex::new(HashMap::new()));
    let (ack_tx, ack_rx) = mpsc::channel::<ChainReply>();
    let reader_stream = stream.try_clone()?;
    let reader_sent = Arc::clone(&sent_at);
    let reader = thread::spawn(move || read_conn(reader_stream, &reader_sent, &ack_tx));

    let wait_ack = |label: &str| -> std::io::Result<ChainReply> {
        ack_rx.recv_timeout(ACK_TIMEOUT).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("no reply to {label} within {ACK_TIMEOUT:?}"),
            )
        })
    };

    let mut chains: HashMap<u32, ChainState> = HashMap::new();
    // A frame is timed from `due`, its intended send time, if it has one.
    let send = |stream: &mut TcpStream, id: String, mut line: String, due: Option<Instant>| {
        line.push('\n');
        let sent = due.unwrap_or_else(Instant::now);
        sent_at.lock().expect("sent map").insert(id, sent);
        stream.write_all(line.as_bytes())
    };
    for (seq, event) in events.iter().enumerate() {
        let due = pace_arrivals.then(|| pace(started, event.at_ns));
        match &event.op {
            TraceOp::Solve {
                pool: idx,
                model,
                epsilon,
                budget_ms,
            } => {
                let id = format!("p{conn}-{seq}");
                let line = wire::request_to_line(&WireRequest {
                    id: id.clone(),
                    tenant: None,
                    instance: pool[*idx].clone(),
                    request: solve_request(*model, *epsilon, *budget_ms),
                });
                send(&mut stream, id, line, due)?;
            }
            TraceOp::Open {
                chain,
                machines,
                class_slots,
                jobs,
            } => {
                chains.insert(*chain, ChainState::new(jobs.len()));
                let id = format!("c{chain}-{seq}");
                let frame = SessionFrame::Open {
                    id: id.clone(),
                    tenant: None,
                    instance: open_instance(*machines, *class_slots, jobs),
                };
                send(&mut stream, id, wire::session_frame_to_line(&frame), None)?;
                if let ChainReply::State(session) = wait_ack("session open")? {
                    chains.get_mut(chain).expect("just inserted").session = session;
                }
            }
            TraceOp::Delta { chain, delta } => {
                let state = chains.get_mut(chain).expect("open precedes deltas");
                let id = format!("c{chain}-{seq}");
                let frame = SessionFrame::Delta {
                    id: id.clone(),
                    session: state.session.clone(),
                    deltas: vec![instance_delta(delta, state)],
                };
                send(&mut stream, id, wire::session_frame_to_line(&frame), None)?;
                wait_ack("session delta")?;
            }
            TraceOp::ChainSolve { chain, model } => {
                let id = format!("c{chain}-{seq}");
                let frame = SessionFrame::Solve {
                    id: id.clone(),
                    session: chains[chain].session.clone(),
                    request: SolveRequest::auto(*model),
                };
                send(&mut stream, id, wire::session_frame_to_line(&frame), None)?;
                wait_ack("session solve")?;
            }
            TraceOp::Close { chain } => {
                let id = format!("c{chain}-{seq}");
                let frame = SessionFrame::Close {
                    id: id.clone(),
                    session: chains[chain].session.clone(),
                };
                send(&mut stream, id, wire::session_frame_to_line(&frame), None)?;
                wait_ack("session close")?;
            }
        }
    }
    // Half-close: the server finishes everything admitted on this
    // connection, flushes, and closes — unblocking the reader at EOF.
    stream.shutdown(Shutdown::Write)?;
    Ok(reader.join().expect("connection reader"))
}

/// Reads one connection's responses to EOF, recording latency and outcome
/// for every frame and forwarding session replies (ids prefixed `c`) to
/// the driver for lockstep sequencing.
fn read_conn(stream: TcpStream, sent_at: &SentMap, acks: &mpsc::Sender<ChainReply>) -> ConnOutcome {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut latencies = Vec::new();
    let mut counters = SoakCounters::default();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let (id, shed, ok, reply) = match wire::response_from_line(trimmed) {
            Ok(resp) => {
                let shed = matches!(resp.outcome, Err(CcsError::Overloaded(_)));
                let ok = resp.outcome.is_ok();
                let reply = resp.id.starts_with('c').then_some(ChainReply::Done);
                (resp.id, shed, ok, reply)
            }
            Err(_) => match wire::session_ack_from_line(trimmed) {
                Ok(SessionAck::State { id, session, .. }) => {
                    (id, false, true, Some(ChainReply::State(session)))
                }
                Ok(SessionAck::Closed { id, .. }) => (id, false, true, Some(ChainReply::Done)),
                // Unparseable line: count it, attribute no latency.
                Err(_) => (String::new(), false, false, None),
            },
        };
        let sent = sent_at.lock().expect("sent map").remove(&id);
        if shed {
            counters.shed += 1;
        } else {
            counters.completed += 1;
            if ok {
                counters.ok += 1;
            } else {
                counters.errors += 1;
            }
            if let Some(sent) = sent {
                latencies.push(elapsed_ns(sent));
            }
        }
        if let Some(reply) = reply {
            // The driver may already be past its last chain frame.
            let _ = acks.send(reply);
        }
    }
    (latencies, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_gen::trace::TraceParams;
    use ccs_gen::GenParams;

    /// A shrunken tier so the determinism tests replay in well under a
    /// second each, debug mode included.
    fn tiny_params() -> TraceParams {
        TraceParams {
            requests: 48,
            pool: 8,
            chains: 3,
            chain_steps: 3,
            mean_gap_ns: 2_000,
            burst_len: 4,
            shape: GenParams {
                jobs: 40,
                machines: 10,
                classes: 8,
                class_slots: 3,
                p_min: 1,
                p_max: 200,
            },
            ..TraceParams::quick()
        }
    }

    fn max_speed() -> SoakConfig {
        SoakConfig {
            workers: 2,
            cache: 1024,
            conns: 2,
            pace: false,
        }
    }

    // The determinism tests pin seeds whose chain mutations produce both a
    // warm hit and a warm miss (replay is deterministic, so any seed either
    // always does or never does): the ledger-hint path is then covered end
    // to end, in both outcomes, through both deployment shapes.
    #[test]
    fn engine_replay_counters_are_deterministic_across_runs() {
        let trace = Trace::synthesize(&tiny_params(), 2);
        let config = max_speed();
        let a = replay_engine(&trace, &config);
        let b = replay_engine(&trace, &config);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.counters.line(), b.counters.line());
        assert_eq!(a.counters.completed, trace.events.len() as u64);
        assert_eq!(a.counters.ok, a.counters.completed);
        assert_eq!(a.counters.errors, 0);
        assert_eq!(a.counters.shed, 0);
        // The Zipf head guarantees repeats, so the cache must have hit.
        assert!(a.counters.cache_hits > 0, "{}", a.counters.line());
        assert!(a.counters.cache_misses > 0);
        // Non-preemptive chain solves route to the warm-aware exact solver
        // from the ledger hints; this seed yields a hit and a miss.
        assert!(a.counters.warm_hits > 0, "{}", a.counters.line());
        assert!(a.counters.warm_misses > 0, "{}", a.counters.line());
        assert_eq!(a.latencies_ns.len(), a.counters.completed as usize);
    }

    #[test]
    fn netd_replay_counters_are_deterministic_across_runs() {
        let trace = Trace::synthesize(&tiny_params(), 7);
        let config = max_speed();
        let a = replay_netd(&trace, &config).expect("first replay");
        let b = replay_netd(&trace, &config).expect("second replay");
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.counters.completed, trace.events.len() as u64);
        assert_eq!(a.counters.ok, a.counters.completed);
        assert_eq!(a.counters.errors, 0);
        assert_eq!(a.counters.shed, 0);
        assert!(a.counters.cache_hits > 0, "{}", a.counters.line());
        assert!(a.counters.warm_hits > 0, "{}", a.counters.line());
        assert!(a.counters.warm_misses > 0, "{}", a.counters.line());
    }

    #[test]
    fn engine_and_netd_agree_on_counter_totals() {
        let trace = Trace::synthesize(&tiny_params(), 19);
        let config = max_speed();
        let engine = replay_engine(&trace, &config);
        let netd = replay_netd(&trace, &config).expect("netd replay");
        // Same trace through either path: identical deterministic totals
        // (the latency distributions of course differ).
        assert_eq!(engine.counters, netd.counters);
    }

    #[test]
    fn outcome_flattens_into_a_soak_case() {
        let counters = SoakCounters {
            completed: 4,
            ok: 3,
            errors: 1,
            shed: 1,
            cache_hits: 2,
            cache_misses: 2,
            warm_hits: 1,
            warm_misses: 1,
        };
        let outcome = SoakOutcome::new(counters, vec![40, 10, 30, 20], 2_000_000_000);
        assert_eq!(outcome.latencies_ns, vec![10, 20, 30, 40]);
        assert!(outcome.percentile_ns(50) <= outcome.percentile_ns(95));
        assert!(outcome.percentile_ns(95) <= outcome.percentile_ns(99));
        assert_eq!(outcome.percentile_ns(99), 40);
        let case = outcome.to_case("engine", "quick/240");
        assert_eq!(case.group, "soak");
        assert_eq!(case.family.as_deref(), Some("quick"));
        assert_eq!(case.size, Some(240));
        assert_eq!(case.iters, 4);
        assert_eq!(case.min_ns, 10);
        assert_eq!(case.p99_ns, Some(40));
        assert_eq!(case.throughput_rps, Some(2.0));
        assert_eq!(case.cache_hit_rate, Some(0.5));
        assert_eq!(case.warm_hit_rate, Some(0.5));
        assert_eq!(case.shed_rate, Some(0.2));
        assert!(case.makespan.is_none());
    }
}
