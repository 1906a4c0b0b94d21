//! End-to-end tests of the `ccs-netd` TCP front end: concurrent clients,
//! per-connection backpressure, queue-budget load shedding, per-tenant
//! quotas, the `stats` wire frame, and graceful drain.
//!
//! Every test binds an ephemeral port, runs the real server on a thread,
//! and speaks `ccs-wire/1` over real sockets.

use ccs_core::instance::instance_from_pairs;
use ccs_core::{
    CcsError, Guarantee, Instance, NonPreemptiveSchedule, ScheduleKind, SolveContext, SolveReport,
    Solver,
};
use ccs_engine::wire::{self, ServiceStats, WireRequest};
use ccs_engine::{Engine, NetServer, NetdConfig, NetdHandle, SolveRequest, SolverRegistry};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Binds a server, runs it on a thread, and returns the pieces a test
/// needs: address, drain trigger, and the join handle yielding the final
/// stats.
fn start(
    engine: Engine,
    config: NetdConfig,
) -> (
    SocketAddr,
    NetdHandle,
    std::thread::JoinHandle<ServiceStats>,
) {
    let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("listener healthy"));
    (addr, handle, join)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn send_lines(stream: &mut TcpStream, lines: &[String]) {
    let mut payload = String::new();
    for line in lines {
        payload.push_str(line);
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes()).expect("send frames");
    stream.flush().expect("flush frames");
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end().to_string()),
        Err(e) => panic!("read response: {e}"),
    }
}

fn tiny_instance(salt: u64) -> Instance {
    instance_from_pairs(2, 1, &[(3 + salt % 5, 0), (4, 0), (2 + salt % 3, 1)]).unwrap()
}

/// An instance the exact non-preemptive solver cannot finish within a
/// budget of a few hundred ms.
fn slow_instance() -> Instance {
    let big: Vec<(u64, u32)> = (0..22)
        .map(|i| (911 + 37 * i as u64, (i % 6) as u32))
        .collect();
    instance_from_pairs(6, 2, &big).unwrap()
}

/// An exact solve of [`slow_instance`]: occupies a worker for the full
/// `budget_ms`.
fn slow_request(id: &str, tenant: Option<&str>, budget_ms: u64) -> String {
    wire::request_to_line(&WireRequest {
        id: id.to_string(),
        tenant: tenant.map(str::to_string),
        instance: slow_instance(),
        request: SolveRequest::exact(ScheduleKind::NonPreemptive)
            .with_budget(Duration::from_millis(budget_ms)),
    })
}

fn quick_request(id: &str, tenant: Option<&str>, salt: u64) -> String {
    wire::request_to_line(&WireRequest {
        id: id.to_string(),
        tenant: tenant.map(str::to_string),
        instance: tiny_instance(salt),
        request: SolveRequest::auto(ScheduleKind::NonPreemptive),
    })
}

fn stats_frame(id: &str) -> String {
    format!(r#"{{"schema":"ccs-wire/1","id":"{id}","op":"stats"}}"#)
}

#[test]
fn eight_concurrent_clients_bounded_inflight() {
    // Per-connection cap of 2 with 5 pipelined requests per client: the
    // server must throttle by pausing reads (backpressure), never shed —
    // the queue budget is generous.
    let engine = Engine::new().with_workers(4);
    let config = NetdConfig {
        max_inflight_per_conn: 2,
        queue_budget: 1024,
        ..NetdConfig::default()
    };
    let (addr, handle, join) = start(engine, config);

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 5;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let lines: Vec<String> = (0..PER_CLIENT)
                    .map(|r| quick_request(&format!("c{c}-r{r}"), None, (c * 31 + r) as u64))
                    .collect();
                send_lines(&mut stream, &lines);
                let mut seen = Vec::new();
                for _ in 0..PER_CLIENT {
                    let line = read_line(&mut reader).expect("response before EOF");
                    let response = wire::response_from_line(&line).expect("well-formed frame");
                    assert!(
                        response.outcome.is_ok(),
                        "client {c}: unexpected error {:?}",
                        response.outcome
                    );
                    assert!(
                        response.id.starts_with(&format!("c{c}-")),
                        "client {c} got a foreign id {}",
                        response.id
                    );
                    seen.push(response.id);
                }
                seen.sort();
                let mut expected: Vec<String> =
                    (0..PER_CLIENT).map(|r| format!("c{c}-r{r}")).collect();
                expected.sort();
                assert_eq!(seen, expected, "client {c}: every request answered once");
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    handle.drain();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.connections, CLIENTS as u64);
    assert_eq!(stats.admitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.admitted);
    assert_eq!(stats.shed_overload + stats.shed_quota, 0);
}

#[test]
fn tiny_queue_budget_sheds_structured_overloaded_frames() {
    // One worker, queue budget 1: the first (slow) request fills the
    // budget, the next two are shed with structured `overloaded` error
    // frames — the connection survives and serves again afterwards.
    let engine = Engine::new().with_workers(1);
    let config = NetdConfig {
        queue_budget: 1,
        ..NetdConfig::default()
    };
    let (addr, handle, join) = start(engine, config);
    let (mut stream, mut reader) = connect(addr);

    send_lines(
        &mut stream,
        &[
            slow_request("slow", None, 300),
            quick_request("shed-1", None, 1),
            quick_request("shed-2", None, 2),
        ],
    );
    let mut outcomes = HashMap::new();
    for _ in 0..3 {
        let line = read_line(&mut reader).expect("response before EOF");
        let response = wire::response_from_line(&line).expect("well-formed frame");
        outcomes.insert(response.id.clone(), response.outcome);
    }
    for id in ["shed-1", "shed-2"] {
        match outcomes.get(id) {
            Some(Err(CcsError::Overloaded(msg))) => {
                assert!(msg.contains("queue budget 1"), "{id}: {msg}")
            }
            other => panic!("{id}: expected an overloaded frame, got {other:?}"),
        }
    }
    // The slow leader ran (to its deadline — still an admitted completion,
    // never an overload).
    assert!(
        matches!(outcomes.get("slow"), Some(Err(CcsError::DeadlineExceeded))),
        "slow: {:?}",
        outcomes.get("slow")
    );

    // The connection was never dropped: a request sent after the storm is
    // admitted and answered.
    send_lines(&mut stream, &[quick_request("after", None, 3)]);
    let line = read_line(&mut reader).expect("post-shed response");
    let response = wire::response_from_line(&line).expect("well-formed frame");
    assert_eq!(response.id, "after");
    assert!(response.outcome.is_ok());

    handle.drain();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.shed_overload, 2);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.engine.shed, 2, "sheds recorded on the engine sink");
}

#[test]
fn tenant_quota_sheds_one_tenant_while_others_proceed() {
    let engine = Engine::new().with_workers(2);
    let config = NetdConfig {
        tenant_quota: Some(1),
        ..NetdConfig::default()
    };
    let (addr, handle, join) = start(engine, config);
    let (mut stream, mut reader) = connect(addr);

    // alice fills her quota with a slow request; her second request is shed
    // while bob and the anonymous tenant sail through.
    send_lines(
        &mut stream,
        &[
            slow_request("alice-slow", Some("alice"), 300),
            quick_request("alice-shed", Some("alice"), 1),
            quick_request("bob-ok", Some("bob"), 2),
            quick_request("anon-ok", None, 3),
        ],
    );
    let mut outcomes = HashMap::new();
    for _ in 0..4 {
        let line = read_line(&mut reader).expect("response before EOF");
        let response = wire::response_from_line(&line).expect("well-formed frame");
        outcomes.insert(response.id.clone(), response.outcome);
    }
    match outcomes.get("alice-shed") {
        Some(Err(CcsError::Overloaded(msg))) => {
            assert!(msg.contains("tenant 'alice'"), "{msg}");
            assert!(msg.contains("quota 1"), "{msg}");
        }
        other => panic!("alice-shed: expected an overloaded frame, got {other:?}"),
    }
    assert!(outcomes["bob-ok"].is_ok(), "{:?}", outcomes["bob-ok"]);
    assert!(outcomes["anon-ok"].is_ok(), "{:?}", outcomes["anon-ok"]);

    // The stats frame reports the per-tenant ledger.
    send_lines(&mut stream, &[stats_frame("st")]);
    let line = read_line(&mut reader).expect("stats response");
    let (id, stats) = wire::stats_response_from_line(&line).expect("stats frame");
    assert_eq!(id, "st");
    let tenant = |name: &str| {
        stats
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("tenant '{name}' missing from {:?}", stats.tenants))
    };
    assert_eq!(tenant("alice").shed, 1);
    assert_eq!(tenant("alice").admitted, 1);
    assert_eq!(tenant("bob").shed, 0);
    assert_eq!(tenant("bob").admitted, 1);
    assert_eq!(tenant("").admitted, 1);
    assert_eq!(stats.shed_quota, 1);
    assert_eq!(stats.shed_overload, 0);
    assert!(stats.engine.solves >= 2, "{:?}", stats.engine);

    handle.drain();
    join.join().expect("server thread");
}

#[test]
fn graceful_drain_completes_every_accepted_request() {
    let engine = Engine::new().with_workers(1);
    let (addr, handle, join) = start(engine, NetdConfig::default());
    let (mut stream, mut reader) = connect(addr);

    // Three slow requests, then a stats poll.  Reading the stats response
    // proves all four lines were processed (same-connection lines are
    // handled in order), so the three solves are admitted before the drain
    // lands — no race.
    send_lines(
        &mut stream,
        &[
            slow_request("d1", None, 150),
            slow_request("d2", None, 150),
            slow_request("d3", None, 150),
            stats_frame("st"),
        ],
    );
    let mut pending = vec!["d1".to_string(), "d2".to_string(), "d3".to_string()];
    loop {
        let line = read_line(&mut reader).expect("response before EOF");
        if let Ok((id, stats)) = wire::stats_response_from_line(&line) {
            assert_eq!(id, "st");
            assert_eq!(stats.admitted, 3);
            break;
        }
        // A solve that finished before the stats poll's answer.
        let response = wire::response_from_line(&line).expect("well-formed frame");
        pending.retain(|id| id != &response.id);
    }

    handle.drain();
    // Every admitted request still gets its response, then the server
    // closes the connection (clean EOF) and run() returns.
    while let Some(line) = read_line(&mut reader) {
        let response = wire::response_from_line(&line).expect("well-formed frame");
        pending.retain(|id| id != &response.id);
    }
    assert!(pending.is_empty(), "unanswered after drain: {pending:?}");

    let stats = join.join().expect("server thread");
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.completed, 3, "drain completed every accepted request");
    assert_eq!(stats.active_connections, 0);
}

#[test]
fn ordered_mode_preserves_request_order_per_connection() {
    let engine = Engine::new().with_workers(2);
    let config = NetdConfig {
        ordered: true,
        ..NetdConfig::default()
    };
    let (addr, handle, join) = start(engine, config);
    let (mut stream, mut reader) = connect(addr);

    // The slow request comes first; in ordered mode the quick ones behind
    // it must wait for it, so responses arrive exactly in request order.
    let ids = ["o1", "o2", "o3", "o4"];
    send_lines(
        &mut stream,
        &[
            slow_request("o1", None, 200),
            quick_request("o2", None, 1),
            quick_request("o3", None, 2),
            quick_request("o4", None, 3),
        ],
    );
    for expected in ids {
        let line = read_line(&mut reader).expect("response before EOF");
        let response = wire::response_from_line(&line).expect("well-formed frame");
        assert_eq!(response.id, expected, "ordered emission");
    }

    handle.drain();
    join.join().expect("server thread");
}

#[test]
fn session_lifecycle_with_warm_solves_and_accounting() {
    let engine = Engine::new().with_workers(1);
    let (addr, handle, join) = start(engine, NetdConfig::default());
    let (mut stream, mut reader) = connect(addr);

    // Mirror the session client-side so the warm solve can be compared
    // against a cold solve of the identical mutated instance.
    let initial = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2)]).unwrap();
    let mut mirror = ccs_session::SessionInstance::from_instance(&initial);
    let deltas = vec![
        ccs_session::InstanceDelta::AddJobs(vec![
            ccs_session::NewJob::new(6, 1),
            ccs_session::NewJob::new(11, 0),
        ]),
        ccs_session::InstanceDelta::RemoveJobs(vec![1]),
    ];
    for delta in &deltas {
        mirror.apply(delta).unwrap();
    }

    let open = wire::session_frame_to_line(&wire::SessionFrame::Open {
        id: "open".to_string(),
        tenant: Some("acme".to_string()),
        instance: ccs_session::SessionInstance::from_instance(&initial),
    });
    send_lines(&mut stream, &[open]);
    let ack = wire::session_ack_from_line(&read_line(&mut reader).expect("open ack")).unwrap();
    let sid = match ack {
        wire::SessionAck::State {
            id,
            session,
            jobs,
            machines,
            fingerprint,
        } => {
            assert_eq!(id, "open");
            assert_eq!(jobs, 4);
            assert_eq!(machines, 3);
            assert_eq!(fingerprint, initial.canonical().fingerprint());
            session
        }
        other => panic!("expected a state ack, got {other:?}"),
    };

    let solve_frame = |id: &str| {
        wire::session_frame_to_line(&wire::SessionFrame::Solve {
            id: id.to_string(),
            session: sid.clone(),
            request: SolveRequest::exact(ScheduleKind::NonPreemptive),
        })
    };

    // First (cold) session solve: no ledger entry yet, so no hint.
    send_lines(&mut stream, &[solve_frame("cold")]);
    let line = read_line(&mut reader).expect("cold solution");
    let cold = wire::response_from_line(&line).expect("well-formed frame");
    assert_eq!(cold.id, "cold");
    assert!(cold.outcome.is_ok(), "{:?}", cold.outcome);

    // Mutate, then solve again: this one is warm-started from the ledger.
    let delta = wire::session_frame_to_line(&wire::SessionFrame::Delta {
        id: "delta".to_string(),
        session: sid.clone(),
        deltas: deltas.clone(),
    });
    send_lines(&mut stream, &[delta, solve_frame("warm")]);
    match wire::session_ack_from_line(&read_line(&mut reader).expect("delta ack")).unwrap() {
        wire::SessionAck::State {
            jobs, fingerprint, ..
        } => {
            assert_eq!(jobs, 5);
            assert_eq!(
                fingerprint,
                mirror.fingerprint(),
                "server and mirror agree on the mutated state"
            );
        }
        other => panic!("expected a state ack, got {other:?}"),
    }
    let line = read_line(&mut reader).expect("warm solution");
    let warm = wire::response_from_line(&line).expect("well-formed frame");
    let warm_solution = warm.outcome.expect("warm solve succeeds");

    // Warm ≡ cold: a plain (hint-free) request over the identical mutated
    // instance must produce the same answer.
    let plain = wire::request_to_line(&WireRequest {
        id: "plain".to_string(),
        tenant: None,
        instance: mirror.materialize().unwrap(),
        request: SolveRequest::exact(ScheduleKind::NonPreemptive),
    });
    send_lines(&mut stream, &[plain]);
    let line = read_line(&mut reader).expect("plain solution");
    let plain = wire::response_from_line(&line).expect("well-formed frame");
    let plain_solution = plain.outcome.expect("plain solve succeeds");
    assert_eq!(warm_solution.makespan, plain_solution.makespan);
    assert_eq!(warm_solution.schedule, plain_solution.schedule);
    assert_eq!(warm_solution.guarantee, plain_solution.guarantee);

    // An invalid delta answers with a structured error and leaves both the
    // session and the connection intact.
    let bad = wire::session_frame_to_line(&wire::SessionFrame::Delta {
        id: "bad-delta".to_string(),
        session: sid.clone(),
        deltas: vec![ccs_session::InstanceDelta::RemoveJobs(vec![999])],
    });
    send_lines(&mut stream, &[bad]);
    let line = read_line(&mut reader).expect("bad-delta error");
    let response = wire::response_from_line(&line).expect("well-formed frame");
    assert_eq!(response.id, "bad-delta");
    assert!(response.outcome.is_err());

    // Solving an unknown session is an error, not a hang or a crash.
    let ghost = wire::session_frame_to_line(&wire::SessionFrame::Solve {
        id: "ghost".to_string(),
        session: "s999".to_string(),
        request: SolveRequest::exact(ScheduleKind::NonPreemptive),
    });
    send_lines(&mut stream, &[ghost]);
    let line = read_line(&mut reader).expect("ghost error");
    let response = wire::response_from_line(&line).expect("well-formed frame");
    match response.outcome {
        Err(CcsError::InvalidParameter(msg)) => assert!(msg.contains("unknown session"), "{msg}"),
        other => panic!("expected an unknown-session error, got {other:?}"),
    }

    // Stats mid-session: one open session for acme, inline solves counted.
    send_lines(&mut stream, &[stats_frame("st")]);
    let (_, stats) =
        wire::stats_response_from_line(&read_line(&mut reader).expect("stats")).unwrap();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_active, 1);
    let acme = stats.tenants.iter().find(|t| t.tenant == "acme").unwrap();
    assert_eq!(acme.sessions, 1);
    assert_eq!(acme.admitted, 2, "both session solves counted for acme");
    assert_eq!(acme.completed, 2);
    assert!(
        stats.engine.warm_hits + stats.engine.warm_misses >= 1,
        "the hinted session solve recorded its warm outcome: {:?}",
        stats.engine
    );

    // Close, then verify the session is gone.
    let close = wire::session_frame_to_line(&wire::SessionFrame::Close {
        id: "close".to_string(),
        session: sid.clone(),
    });
    send_lines(&mut stream, &[close]);
    match wire::session_ack_from_line(&read_line(&mut reader).expect("close ack")).unwrap() {
        wire::SessionAck::Closed { id, session } => {
            assert_eq!(id, "close");
            assert_eq!(session, sid);
        }
        other => panic!("expected a closed ack, got {other:?}"),
    }
    send_lines(&mut stream, &[solve_frame("after-close")]);
    let line = read_line(&mut reader).expect("after-close error");
    let response = wire::response_from_line(&line).expect("well-formed frame");
    assert!(response.outcome.is_err(), "closed sessions reject solves");

    handle.drain();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_active, 0);
    // 2 session solves + 1 plain solve, all completed.
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.completed, 3);
}

#[test]
fn periodic_stats_ticker_fires_on_the_grid() {
    let engine = Engine::new().with_workers(1);
    let config = NetdConfig {
        stats_every: Some(Duration::from_millis(25)),
        ..NetdConfig::default()
    };
    let (addr, handle, join) = start(engine, config);
    let (mut stream, mut reader) = connect(addr);

    // Keep the loop mildly busy, then let the ticker run for ~8 intervals.
    send_lines(&mut stream, &[quick_request("warm-up", None, 1)]);
    let line = read_line(&mut reader).expect("response before EOF");
    assert!(wire::response_from_line(&line).unwrap().outcome.is_ok());
    std::thread::sleep(Duration::from_millis(200));

    // The wire stats frame reports the tick count the stderr lines carry.
    send_lines(&mut stream, &[stats_frame("st")]);
    let (_, stats) =
        wire::stats_response_from_line(&read_line(&mut reader).expect("stats")).unwrap();
    // Grid-anchored: ~200ms at 25ms per tick.  Loose lower/upper bounds
    // absorb scheduler jitter, but a now-anchored (drifting) or bursty
    // (catch-up) ticker would fall far outside them.
    assert!(
        (4..=10).contains(&stats.stats_ticks),
        "expected ~8 ticks over 200ms at 25ms, got {}",
        stats.stats_ticks
    );

    handle.drain();
    let final_stats = join.join().expect("server thread");
    assert!(final_stats.stats_ticks >= stats.stats_ticks);
}

#[test]
fn malformed_lines_answer_without_killing_the_connection() {
    let engine = Engine::new().with_workers(1);
    let (addr, handle, join) = start(engine, NetdConfig::default());
    let (mut stream, mut reader) = connect(addr);

    send_lines(
        &mut stream,
        &[
            "not json at all".to_string(),
            r#"{"schema":"ccs-wire/9","id":"skew"}"#.to_string(),
            quick_request("fine", None, 1),
        ],
    );
    let mut ids = Vec::new();
    for _ in 0..3 {
        let line = read_line(&mut reader).expect("response before EOF");
        let response = wire::response_from_line(&line).expect("well-formed frame");
        ids.push((response.id.clone(), response.outcome.is_ok()));
    }
    // Malformed lines yield error frames (best-effort id echo); the valid
    // request still solves.
    assert!(ids.contains(&(String::new(), false)));
    assert!(ids.contains(&("skew".to_string(), false)));
    assert!(ids.contains(&("fine".to_string(), true)));

    handle.drain();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.admitted, 1);
}

#[test]
fn a_slow_session_solve_does_not_stall_another_connection() {
    let engine = Engine::new().with_workers(2);
    let (addr, handle, join) = start(engine, NetdConfig::default());
    let (mut slow, mut slow_reader) = connect(addr);
    let (mut quick, mut quick_reader) = connect(addr);
    // Both connections are being served before the slow solve starts.
    send_lines(&mut quick, &[stats_frame("ready")]);
    read_line(&mut quick_reader).expect("stats reply");

    // Connection A: an exact session solve of the slow instance runs inline
    // for its whole 500 ms budget.
    let open = wire::session_frame_to_line(&wire::SessionFrame::Open {
        id: "open".to_string(),
        tenant: None,
        instance: ccs_session::SessionInstance::from_instance(&slow_instance()),
    });
    send_lines(&mut slow, &[open]);
    let session = match wire::session_ack_from_line(&read_line(&mut slow_reader).unwrap()) {
        Ok(wire::SessionAck::State { session, .. }) => session,
        other => panic!("expected a state ack, got {other:?}"),
    };
    let solve = wire::session_frame_to_line(&wire::SessionFrame::Solve {
        id: "slow".to_string(),
        session,
        request: SolveRequest::exact(ScheduleKind::NonPreemptive)
            .with_budget(Duration::from_millis(500)),
    });
    let (order, replies) = std::sync::mpsc::channel();
    let slow_order = order.clone();
    let slow_thread = std::thread::spawn(move || {
        send_lines(&mut slow, &[solve]);
        let line = read_line(&mut slow_reader).expect("slow reply");
        slow_order.send("slow").unwrap();
        line
    });

    // Connection B: a quick request sent while A's solve runs.
    send_lines(&mut quick, &[quick_request("quick", None, 1)]);
    let line = read_line(&mut quick_reader).expect("quick reply");
    order.send("quick").unwrap();
    assert!(wire::response_from_line(&line).unwrap().outcome.is_ok());

    let slow_line = slow_thread.join().expect("slow client");
    let slow_reply = wire::response_from_line(&slow_line).unwrap();
    assert_eq!(slow_reply.outcome, Err(CcsError::DeadlineExceeded));
    assert_eq!(
        replies.try_iter().collect::<Vec<_>>(),
        ["quick", "slow"],
        "B's reply must not wait behind A's session solve"
    );

    handle.drain();
    join.join().expect("server thread");
}

/// Stands in for `exact-nonpreemptive` and panics.
struct Panicking;

impl Solver for Panicking {
    type Schedule = NonPreemptiveSchedule;

    fn name(&self) -> &'static str {
        "exact-nonpreemptive"
    }
    fn kind(&self) -> ScheduleKind {
        ScheduleKind::NonPreemptive
    }
    fn guarantee(&self) -> Guarantee {
        Guarantee::Exact
    }
    fn solve_ctx(
        &self,
        _: &Instance,
        _: &SolveContext,
    ) -> ccs_core::Result<SolveReport<NonPreemptiveSchedule>> {
        panic!("planted solver panic")
    }
}

#[test]
fn a_panicking_session_solve_ends_only_its_own_connection() {
    let mut registry = SolverRegistry::with_defaults();
    registry.replace(Panicking);
    let engine = Engine::with_registry(registry).with_workers(1);
    let (addr, handle, join) = start(engine, NetdConfig::default());
    let (mut doomed, mut doomed_reader) = connect(addr);
    let (mut other, mut other_reader) = connect(addr);

    // A session solve runs inline on the connection's driver, outside the
    // worker pool's panic guard.
    let open = wire::session_frame_to_line(&wire::SessionFrame::Open {
        id: "open".to_string(),
        tenant: None,
        instance: ccs_session::SessionInstance::from_instance(&tiny_instance(1)),
    });
    send_lines(&mut doomed, &[open]);
    let session = match wire::session_ack_from_line(&read_line(&mut doomed_reader).unwrap()) {
        Ok(wire::SessionAck::State { session, .. }) => session,
        other => panic!("expected a state ack, got {other:?}"),
    };
    let solve = wire::session_frame_to_line(&wire::SessionFrame::Solve {
        id: "boom".to_string(),
        session,
        request: SolveRequest::exact(ScheduleKind::NonPreemptive),
    });
    send_lines(&mut doomed, &[solve]);
    assert_eq!(read_line(&mut doomed_reader), None, "the connection closes");

    // The other connection is still served, and the drain completes.
    send_lines(&mut other, &[stats_frame("st")]);
    let (_, stats) =
        wire::stats_response_from_line(&read_line(&mut other_reader).unwrap()).unwrap();
    assert_eq!(stats.active_connections, 1);
    handle.drain();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.active_connections, 0);
}
