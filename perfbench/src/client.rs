//! The load client: drives a [`Plan`] through `ccs-netd` over two
//! connections, one thread each.
//!
//! Open-loop requests are sent at their intended times whatever the server
//! is doing, and their latency is timed from that intended time, so a stall
//! shows in every request queued behind it.  How late the client itself
//! sent is recorded too ([`TcpRun::late_ns`]), as a validity figure.
//! Replies are only split and filed while the clock runs; parsing and
//! checking them waits until the run is over.

use crate::netd::{Conn, Netd, STATS_FRAME};
use crate::workload::{Plan, Workload, WINDOW};
use ccs_engine::wire::{self, ServiceStats, SessionAck, SessionFrame};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::io;
use std::ops::Range;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The host's cumulative CPU steal in clock ticks (the eighth counter of
/// the `cpu` line of `/proc/stat`; `0` where it cannot be read): time the
/// hypervisor ran something else while this machine had work to do.
pub fn host_steal() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Distinct pool replies.  A reply is filed with its id and cache marker
/// cut out, so the many cache hits of one request share one stored body.
#[derive(Default)]
pub struct Replies {
    /// Per pool request: its body in [`Replies::bodies`], once received.
    pub body_of: Vec<Option<usize>>,
    /// Distinct bodies (`"id":""`, `"cache":""`).
    pub bodies: Vec<Vec<u8>>,
    /// The spec of the requests each body answers.
    pub body_spec: Vec<usize>,
    index: HashMap<(usize, u64), Vec<usize>>,
    /// Lines naming no outstanding pool request.
    pub stray: u64,
}

/// Byte range of the string value following `key` (e.g. `"id":"`).
fn value_span(line: &[u8], key: &[u8], from: usize) -> Option<(usize, usize)> {
    let at = from + line[from..].windows(key.len()).position(|w| w == key)? + key.len();
    let len = line[at..].iter().position(|&b| b == b'"')?;
    Some((at, at + len))
}

impl Replies {
    fn new(requests: usize) -> Replies {
        Replies {
            body_of: vec![None; requests],
            ..Replies::default()
        }
    }

    /// Files one reply line; returns the pool request it answers.
    fn file(&mut self, line: &[u8], spec_of: impl Fn(usize) -> usize) -> Option<usize> {
        let (id_start, id_end) = value_span(line, b"\"id\":\"", 0)?;
        let request: usize = std::str::from_utf8(&line[id_start..id_end])
            .ok()?
            .strip_prefix('q')?
            .parse()
            .ok()?;
        if self.body_of.get(request) != Some(&None) {
            return None;
        }
        let mut parts = vec![&line[..id_start]];
        match value_span(line, b"\"cache\":\"", id_end) {
            Some((start, end)) => parts.extend([&line[id_end..start], &line[end..]]),
            None => parts.push(&line[id_end..]),
        }
        let mut hasher = DefaultHasher::new();
        for part in &parts {
            hasher.write(part);
        }
        let key = (spec_of(request), hasher.finish());
        let same = |body: &Vec<u8>| body.iter().eq(parts.iter().flat_map(|p| p.iter()));
        let candidates = self.index.entry(key).or_default();
        let body = match candidates.iter().find(|&&b| same(&self.bodies[b])) {
            Some(&body) => body,
            None => {
                self.bodies.push(parts.concat());
                self.body_spec.push(key.0);
                candidates.push(self.bodies.len() - 1);
                self.bodies.len() - 1
            }
        };
        self.body_of[request] = Some(body);
        Some(request)
    }

    /// The body in parseable form (the cut cache marker restored; which
    /// marker does not matter to the checks).
    pub fn body_line(&self, body: usize) -> String {
        String::from_utf8_lossy(&self.bodies[body]).replace("\"cache\":\"\"", "\"cache\":\"miss\"")
    }
}

/// One session frame's reply.
pub struct SessionReply {
    /// Chain index.
    pub chain: usize,
    /// Frame position within the chain (0 is the open frame).
    pub frame: usize,
    /// Send-to-reply time.
    pub rtt_ns: u64,
    /// The reply line.
    pub line: String,
}

/// Everything one TCP run observed.
pub struct TcpRun {
    /// Pool replies.
    pub replies: Replies,
    /// Per pool request: open-loop latency from its intended send time
    /// (`None` for closed-loop requests and missing replies).
    pub latency_ns: Vec<Option<u64>>,
    /// Per pool request: how late an open-loop request was sent (`None`
    /// for closed-loop requests).
    pub late_ns: Vec<Option<u64>>,
    /// Per segment: closed-loop replies per second.
    pub closed_rps: Vec<f64>,
    /// Session replies in send order.
    pub sessions: Vec<SessionReply>,
    /// The final stats frame.
    pub stats: ServiceStats,
}

/// Per-connection bookkeeping shared by the phases.
struct Lane<'a> {
    conn: Conn,
    plan: &'a Plan,
    replies: &'a Mutex<Replies>,
    /// Outstanding pool requests of this connection and their intended
    /// send time (`None` in the closed loop).
    outstanding: HashMap<usize, Option<Instant>>,
    latency: Vec<(usize, u64)>,
    late: Vec<(usize, u64)>,
    sessions: Vec<SessionReply>,
    /// Per segment: when this lane's closed loop started and its last reply.
    closed: Vec<(Instant, Instant)>,
    stray: u64,
    frame: Vec<u8>,
}

impl<'a> Lane<'a> {
    fn new(conn: Conn, plan: &'a Plan, replies: &'a Mutex<Replies>) -> Lane<'a> {
        Lane {
            conn,
            plan,
            replies,
            outstanding: HashMap::new(),
            latency: Vec::new(),
            late: Vec::new(),
            sessions: Vec::new(),
            closed: Vec::new(),
            stray: 0,
            frame: Vec::new(),
        }
    }

    fn send_pool(&mut self, request: usize, due: Option<Instant>) -> io::Result<()> {
        self.plan
            .spec_of(request)
            .frame_into(&format!("q{request}"), &mut self.frame);
        self.outstanding.insert(request, due);
        self.conn.send(&self.frame)
    }

    /// Reads pool replies until `deadline` (or until at least one arrives);
    /// returns when the last one arrived.
    fn pump(&mut self, deadline: Option<Instant>) -> io::Result<Option<Instant>> {
        let Lane {
            conn,
            plan,
            replies,
            outstanding,
            latency,
            stray,
            ..
        } = self;
        let mut last = None;
        conn.pump(deadline, |line, at| {
            let filed = replies
                .lock()
                .expect("a reply filer panicked")
                .file(line, |i| plan.spec_index(i));
            match filed.and_then(|request| outstanding.remove(&request).map(|due| (request, due))) {
                Some((request, due)) => {
                    if let Some(due) = due {
                        latency
                            .push((request, at.saturating_duration_since(due).as_nanos() as u64));
                    }
                    last = Some(at);
                }
                None => *stray += 1,
            }
        })?;
        Ok(last)
    }

    fn drain(&mut self) -> io::Result<Instant> {
        let mut last = Instant::now();
        while !self.outstanding.is_empty() {
            last = self.pump(None)?.unwrap_or(last);
        }
        Ok(last)
    }

    /// Open loop: every request at its intended time, then all replies.
    fn open_loop(
        &mut self,
        epoch: Instant,
        requests: impl Iterator<Item = usize>,
    ) -> io::Result<()> {
        for request in requests {
            let at = self.plan.requests[request].1.expect("an open-loop request");
            let due = epoch + Duration::from_nanos(at);
            while Instant::now() < due {
                self.pump(Some(due))?;
            }
            let late = Instant::now().saturating_duration_since(due);
            self.late.push((request, late.as_nanos() as u64));
            self.send_pool(request, Some(due))?;
        }
        self.drain()?;
        Ok(())
    }

    /// Closed loop: keeps [`WINDOW`] requests in flight.
    fn closed_loop(&mut self, requests: impl Iterator<Item = usize>) -> io::Result<()> {
        let start = Instant::now();
        for request in requests {
            while self.outstanding.len() >= WINDOW {
                self.pump(None)?;
            }
            self.send_pool(request, None)?;
        }
        let end = self.drain()?;
        self.closed.push((start, end.max(start)));
        Ok(())
    }

    /// Runs chains in lockstep: each frame waits for its reply.  With an
    /// epoch, chain `c` begins no earlier than `epoch + chain_starts[c]`.
    fn chains(&mut self, epoch: Option<Instant>, chains: Range<usize>) -> io::Result<()> {
        for c in chains {
            if let Some(epoch) = epoch {
                let due = epoch + Duration::from_nanos(self.plan.chain_starts[c]);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            let chain = &self.plan.chains[c];
            let open = self.session_frame(c, 0, &chain.frames(c, "")[0])?;
            let session = match wire::session_ack_from_line(&open) {
                Ok(SessionAck::State { session, .. }) => session,
                _ => return Err(io::Error::other(format!("session open refused: {open}"))),
            };
            for (k, frame) in chain.frames(c, &session).iter().enumerate().skip(1) {
                self.session_frame(c, k, frame)?;
            }
        }
        Ok(())
    }

    /// Sends one session frame, waits for its reply and records both.
    fn session_frame(
        &mut self,
        chain: usize,
        k: usize,
        frame: &SessionFrame,
    ) -> io::Result<String> {
        let mut line = wire::session_frame_to_line(frame);
        line.push('\n');
        let sent = Instant::now();
        let reply = self.conn.request(line.as_bytes())?;
        self.sessions.push(SessionReply {
            chain,
            frame: k,
            rtt_ns: sent.elapsed().as_nanos() as u64,
            line: reply.clone(),
        });
        Ok(reply)
    }

    /// Runs this lane's share of every segment, meeting the other lane at
    /// the barrier after each open and each closed loop — exactly as often
    /// after a failure, so neither lane is left waiting.
    fn segments(&mut self, lane: usize, barrier: &Barrier) -> io::Result<()> {
        let plan = self.plan;
        let mut result = Ok(());
        for segment in &plan.segments {
            let mine = move |i: &usize| plan.workload == Workload::SessionMix || i % 2 == lane;
            let epoch = Instant::now() + Duration::from_millis(1);
            if result.is_ok() {
                result = match (plan.workload, lane) {
                    (Workload::SessionMix, 0) => self.chains(Some(epoch), segment.chains.clone()),
                    (Workload::SessionMix, _) => self.open_loop(epoch, segment.open.clone()),
                    _ => self.open_loop(epoch, segment.open.clone().filter(mine)),
                };
            }
            barrier.wait();
            if result.is_ok() {
                result = self.closed_loop(segment.closed.clone().filter(|i| i % 2 == lane));
            }
            barrier.wait();
        }
        result
    }
}

/// Drives the whole plan against a started service; `conn` is the
/// connection the set-up stats poll used.
pub fn run(plan: &Plan, netd: &Netd, conn: Conn) -> io::Result<TcpRun> {
    let replies = Mutex::new(Replies::new(plan.pool_requests()));
    let barrier = Barrier::new(2);
    let mut lane0 = Lane::new(conn, plan, &replies);
    let mut lane1 = Lane::new(Conn::connect(netd.addr)?, plan, &replies);
    let stats = std::thread::scope(|scope| -> io::Result<ServiceStats> {
        let other = scope.spawn(|| lane1.segments(1, &barrier));
        let mine = lane0.segments(0, &barrier);
        other.join().expect("the second lane panicked")?;
        mine?;
        if plan.workload != Workload::SessionMix {
            lane0.chains(None, 0..plan.chains.len())?;
        }
        let stats = lane0.conn.request(STATS_FRAME)?;
        wire::stats_response_from_line(&stats)
            .map(|(_, stats)| stats)
            .map_err(|e| io::Error::other(format!("bad stats reply: {e}")))
    })?;

    let mut latency_ns = vec![None; plan.pool_requests()];
    let mut late_ns = vec![None; plan.pool_requests()];
    let mut sessions = Vec::new();
    let mut stray = 0;
    for lane in [&mut lane0, &mut lane1] {
        for &(request, ns) in &lane.latency {
            latency_ns[request] = Some(ns);
        }
        for &(request, late) in &lane.late {
            late_ns[request] = Some(late);
        }
        sessions.append(&mut lane.sessions);
        stray += lane.stray;
    }
    let closed_rps = plan
        .segments
        .iter()
        .zip(lane0.closed.iter().zip(&lane1.closed))
        .map(|(segment, (a, b))| {
            let elapsed = a.1.max(b.1).duration_since(a.0.min(b.0));
            segment.closed.len() as f64 / elapsed.as_secs_f64()
        })
        .collect();
    let mut replies = replies.into_inner().expect("a reply filer panicked");
    replies.stray += stray;
    Ok(TcpRun {
        replies,
        latency_ns,
        late_ns,
        closed_rps,
        sessions,
        stats,
    })
}
