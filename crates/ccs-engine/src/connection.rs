//! The one connection state machine behind both front ends: `ccs-serve`
//! drives a single [`Connection`] over stdio, `ccs-netd` one per TCP socket.
//!
//! A connection turns the bytes a client sends into the response lines it
//! is owed.  It splits the byte stream into newline-terminated frames,
//! decodes each with [`wire::frame_from_line`], admits solve requests to the
//! engine through the [`Service`]'s limits and ledger, answers stats, session
//! and malformed frames on the spot, and emits every response in completion
//! order — request order when the service is `ordered`.  The transport only
//! moves bytes: it hands what it read to [`Connection::receive`], calls
//! [`Connection::advance`] whenever input arrived or the service's wake hook
//! fired (a solve completed), and writes out what `advance` appended.
//!
//! Framing is lenient where it can be and bounded where it must be: bytes
//! are decoded lossily (invalid UTF-8 becomes U+FFFD and fails to parse like
//! any other malformed line), a final unterminated line at the end of the
//! input is still a frame, and a line longer than [`MAX_FRAME_BYTES`] is
//! answered with one error frame and discarded through its newline.

use crate::engine::Engine;
use crate::netd::NetdConfig;
use crate::session::{handle_session_frame, SessionEvent};
use crate::wire::{self, ServiceStats, TenantStats, WireFrame, WireRequest};
use crate::worker::SolveHandle;
use ccs_core::CcsError;
use ccs_session::SessionStore;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Longest frame a connection accepts, newline excluded.  A longer line is
/// answered with one error frame (id `""`) and discarded through its
/// newline, so a client that never sends `\n` holds at most this much
/// server memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// What every connection of one front end shares: the engine, the admission
/// limits and the service-wide ledger, and the hook that tells the transport
/// a solve completed.
pub struct Service {
    engine: Engine,
    config: NetdConfig,
    pub(crate) ledger: Ledger,
    wake: Arc<dyn Fn() + Send + Sync>,
}

impl Service {
    /// A service solving on `engine` under `config`'s admission limits and
    /// emission order.  `wake` runs on the thread that completes each
    /// admitted solve ([`Engine::submit_notify`]), so it must be short and
    /// must not panic; the transport waits for it and then calls
    /// [`Connection::advance`].
    pub fn new(
        engine: Engine,
        config: NetdConfig,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        Service {
            engine,
            config,
            ledger: Ledger::default(),
            wake: Arc::new(wake),
        }
    }

    /// The engine requests are solved on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The current counters: the payload of a `stats` frame.
    pub(crate) fn stats(&self) -> ServiceStats {
        let ledger = &self.ledger;
        let tenants = ledger
            .tenants
            .iter()
            .map(|(name, t)| TenantStats {
                tenant: name.clone(),
                admitted: t.admitted,
                completed: t.completed,
                shed: t.shed,
                sessions: t.sessions,
            })
            .collect();
        ServiceStats {
            engine: self.engine.stats(),
            connections: ledger.connections,
            active_connections: ledger.active,
            admitted: ledger.admitted,
            completed: ledger.completed,
            shed_overload: ledger.shed_overload,
            shed_quota: ledger.shed_quota,
            sessions_opened: ledger.sessions_opened,
            sessions_active: ledger.sessions_active,
            stats_ticks: ledger.stats_ticks,
            tenants,
        }
    }

    /// Decides one frame: a solve request that passes the admission limits
    /// is submitted and answered when it completes; everything else is
    /// answered now.
    fn admit(&mut self, line: &str, sessions: &mut SessionStore) -> Pending {
        let request = match wire::frame_from_line(line) {
            Ok(WireFrame::Request(request)) => request,
            // Sampled here, in line order, so the frame observes every
            // admission decision that preceded it on its connection.
            Ok(WireFrame::Stats { id }) => {
                return Pending::Decided(wire::stats_response_to_json(&id, &self.stats()).to_json())
            }
            Ok(WireFrame::Session(frame)) => {
                let (line, event) = handle_session_frame(frame, &self.engine, sessions);
                self.ledger.record_session(event);
                return Pending::Decided(line);
            }
            Err(error) => {
                // Best-effort id recovery: echo what the malformed line
                // carried so the client can match or at least count it.
                let id = ccs_core::json::parse(line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(|i| i.as_str().map(str::to_string)))
                    .unwrap_or_default();
                return Pending::Decided(error_line(&id, &error));
            }
        };
        let WireRequest {
            id,
            tenant,
            instance,
            request,
        } = request;
        let tenant = tenant.unwrap_or_default();
        if let Some(error) = self.shed(&tenant) {
            self.engine.stats_sink().record_shed();
            return Pending::Decided(error_line(&id, &error));
        }
        let wake = Arc::clone(&self.wake);
        let handle = self
            .engine
            .submit_notify(instance, &request, move || wake());
        self.ledger.inflight += 1;
        self.ledger.admitted += 1;
        let entry = self.ledger.tenant(&tenant);
        entry.inflight += 1;
        entry.admitted += 1;
        Pending::Solving(Job { id, tenant, handle })
    }

    /// The `overloaded` error a new request of `tenant` is shed with, if a
    /// limit is exhausted (the shed is recorded).
    fn shed(&mut self, tenant: &str) -> Option<CcsError> {
        let ledger = &mut self.ledger;
        // The global budget bounds admitted-but-not-completed requests
        // across all connections — the service's outstanding promise, not
        // the pool's backlog, so shedding is a function of the request
        // stream rather than of worker timing.
        let budget = self.config.queue_budget;
        if ledger.inflight >= budget {
            ledger.shed_overload += 1;
            return Some(CcsError::overloaded(format!(
                "queue budget {budget} exhausted ({} requests in flight); retry later",
                ledger.inflight
            )));
        }
        let quota = self.config.tenant_quota?;
        let entry = ledger.tenant(tenant);
        if entry.inflight < quota {
            return None;
        }
        entry.shed += 1;
        let inflight = entry.inflight;
        ledger.shed_quota += 1;
        let label = if tenant.is_empty() {
            "anonymous tenant".to_string()
        } else {
            format!("tenant '{tenant}'")
        };
        Some(CcsError::overloaded(format!(
            "{label} quota {quota} exhausted ({inflight} requests in flight); retry later"
        )))
    }
}

/// Service-wide admission bookkeeping.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Admitted solves not yet completed: what the queue budget meters.
    inflight: usize,
    admitted: u64,
    completed: u64,
    shed_overload: u64,
    shed_quota: u64,
    connections: u64,
    active: u64,
    sessions_opened: u64,
    sessions_active: u64,
    pub(crate) stats_ticks: u64,
    /// Sorted by label, as the stats payload lists them.
    tenants: BTreeMap<String, Tenant>,
}

/// Per-tenant admission bookkeeping (keyed by the request `tenant` member;
/// `""` is the anonymous tenant).
#[derive(Default)]
struct Tenant {
    inflight: usize,
    admitted: u64,
    completed: u64,
    shed: u64,
    sessions: u64,
}

impl Ledger {
    fn tenant(&mut self, name: &str) -> &mut Tenant {
        self.tenants.entry(name.to_string()).or_default()
    }

    fn complete(&mut self, tenant: &str) {
        self.inflight -= 1;
        self.completed += 1;
        let entry = self.tenant(tenant);
        entry.inflight -= 1;
        entry.completed += 1;
    }

    /// Session solves run inline and count toward `admitted`/`completed`,
    /// but bypass the queue budget and tenant quotas: each completes before
    /// the next line of its connection is decided.
    fn record_session(&mut self, event: SessionEvent) {
        match event {
            SessionEvent::Opened { tenant } => {
                self.sessions_opened += 1;
                self.sessions_active += 1;
                self.tenant(&tenant.unwrap_or_default()).sessions += 1;
            }
            SessionEvent::Closed { tenant } => {
                self.sessions_active -= 1;
                let entry = self.tenant(&tenant.unwrap_or_default());
                entry.sessions = entry.sessions.saturating_sub(1);
            }
            SessionEvent::Solved { tenant } => {
                self.admitted += 1;
                self.completed += 1;
                let entry = self.tenant(&tenant.unwrap_or_default());
                entry.admitted += 1;
                entry.completed += 1;
            }
            SessionEvent::NoChange => {}
        }
    }
}

/// A complete input line awaiting admission.
enum Line {
    Frame(String),
    /// A line longer than [`MAX_FRAME_BYTES`]; its bytes are gone.
    TooLong,
}

/// A response owed to the client, in request order.
enum Pending {
    Solving(Job),
    Decided(String),
}

struct Job {
    id: String,
    tenant: String,
    handle: SolveHandle,
}

/// One client's protocol state: bytes in, response lines out.  See the
/// module docs.
pub struct Connection {
    /// The current, not yet terminated line.
    partial: Vec<u8>,
    /// The current line overflowed [`MAX_FRAME_BYTES`]: drop bytes through
    /// the next newline.
    discarding: bool,
    /// Complete lines waiting for an in-flight slot.
    lines: VecDeque<Line>,
    pending: VecDeque<Pending>,
    /// Admitted solves among `pending`, capped at
    /// [`NetdConfig::max_inflight_per_conn`].
    solving: usize,
    cap: usize,
    ordered: bool,
    /// Sessions are connection-scoped: closing the connection drops them.
    sessions: SessionStore,
}

impl Connection {
    /// A new connection of `service`, counted in its stats.
    pub fn open(service: &mut Service) -> Self {
        service.ledger.connections += 1;
        service.ledger.active += 1;
        Connection {
            partial: Vec::new(),
            discarding: false,
            lines: VecDeque::new(),
            pending: VecDeque::new(),
            solving: 0,
            cap: service.config.max_inflight_per_conn,
            ordered: service.config.ordered,
            sessions: SessionStore::new(),
        }
    }

    /// Buffers bytes read from the client, splitting them into lines.
    pub fn receive(&mut self, bytes: &[u8]) {
        for piece in bytes.split_inclusive(|&b| b == b'\n') {
            let (body, newline) = match piece.split_last() {
                Some((b'\n', body)) => (body, true),
                _ => (piece, false),
            };
            if !self.discarding {
                if self.partial.len() + body.len() > MAX_FRAME_BYTES {
                    self.partial.clear();
                    self.discarding = true;
                    self.lines.push_back(Line::TooLong);
                } else {
                    self.partial.extend_from_slice(body);
                }
            }
            if newline {
                self.end_line();
            }
        }
    }

    /// The client's input ended: a final unterminated line is still a
    /// frame.
    pub fn finish_input(&mut self) {
        self.end_line();
    }

    fn end_line(&mut self) {
        if !std::mem::take(&mut self.discarding) {
            let text = String::from_utf8_lossy(&self.partial);
            let text = text.trim();
            if !text.is_empty() {
                self.lines.push_back(Line::Frame(text.to_string()));
            }
        }
        self.partial.clear();
    }

    /// Whether the transport should read more: below the in-flight cap with
    /// every buffered line admitted.  At the cap a socket is simply not
    /// read, so TCP flow control pushes back on the client.
    pub(crate) fn wants_input(&self) -> bool {
        self.solving < self.cap && self.lines.is_empty()
    }

    /// Moves everything that can move without new input: finished solves
    /// become response lines, buffered lines are admitted up to the
    /// in-flight cap, and the responses now due are appended to `out`.
    /// Returns whether anything moved.
    pub fn advance(&mut self, service: &mut Service, out: &mut Vec<u8>) -> bool {
        let reaped = self.reap(&mut service.ledger);
        let admitted = self.admit(service);
        let emitted = self.emit(out);
        reaped || admitted || emitted
    }

    /// Nothing buffered and nothing owed.
    pub fn is_idle(&self) -> bool {
        self.lines.is_empty() && self.pending.is_empty()
    }

    /// Ends the connection: its unfinished solves are cancelled (and count
    /// as completed), its sessions close, and it leaves the active count.
    pub(crate) fn close(mut self, service: &mut Service) {
        for pending in self.pending.drain(..) {
            if let Pending::Solving(job) = pending {
                job.handle.cancel();
                service.ledger.complete(&job.tenant);
            }
        }
        for (_, session) in self.sessions.iter() {
            service.ledger.record_session(SessionEvent::Closed {
                tenant: session.tenant().map(str::to_string),
            });
        }
        service.ledger.active -= 1;
    }

    fn reap(&mut self, ledger: &mut Ledger) -> bool {
        let mut moved = false;
        for slot in &mut self.pending {
            if !matches!(slot, Pending::Solving(job) if job.handle.is_finished()) {
                continue;
            }
            let Pending::Solving(job) = std::mem::replace(slot, Pending::Decided(String::new()))
            else {
                unreachable!("matched a finished solve above")
            };
            *slot = Pending::Decided(match job.handle.wait() {
                Ok(solution) => wire::solution_to_json(&job.id, &solution).to_json(),
                Err(error) => error_line(&job.id, &error),
            });
            ledger.complete(&job.tenant);
            self.solving -= 1;
            moved = true;
        }
        moved
    }

    fn admit(&mut self, service: &mut Service) -> bool {
        let mut moved = false;
        while self.solving < self.cap {
            let Some(line) = self.lines.pop_front() else {
                break;
            };
            let pending = match line {
                Line::Frame(text) => service.admit(&text, &mut self.sessions),
                Line::TooLong => Pending::Decided(error_line(
                    "",
                    &CcsError::invalid_parameter(format!(
                        "wire: frame exceeds {MAX_FRAME_BYTES} bytes"
                    )),
                )),
            };
            if matches!(pending, Pending::Solving(_)) {
                self.solving += 1;
            }
            self.pending.push_back(pending);
            moved = true;
        }
        moved
    }

    /// Appends the decided responses that are due: the decided prefix when
    /// `ordered`, else every decided one.
    fn emit(&mut self, out: &mut Vec<u8>) -> bool {
        let before = self.pending.len();
        let mut write = |line: &str| {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        };
        if self.ordered {
            while let Some(Pending::Decided(line)) = self.pending.front() {
                write(line);
                self.pending.pop_front();
            }
        } else {
            self.pending.retain(|pending| match pending {
                Pending::Decided(line) => {
                    write(line);
                    false
                }
                Pending::Solving(_) => true,
            });
        }
        self.pending.len() != before
    }
}

fn error_line(id: &str, error: &CcsError) -> String {
    wire::error_response_to_json(id, error).to_json()
}
