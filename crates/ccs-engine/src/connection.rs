//! The one connection state machine behind both front ends, and the one
//! driver that runs it: `ccs-serve` calls [`serve`] over stdio, `ccs-netd`
//! once per TCP socket, on that socket's own thread.
//!
//! A connection turns the bytes a client sends into the response lines it
//! is owed.  It splits the byte stream into newline-terminated frames,
//! decodes each with [`wire::frame_from_line`], admits solve requests to the
//! engine through the [`Service`]'s limits and ledger, answers stats, session
//! and malformed frames on the spot, and emits every response in completion
//! order — request order when the service is `ordered`.
//!
//! [`serve`] drives one [`Connection`] with no timed wait.  A *pump* thread
//! blocks reading the client's bytes, one chunk per credit, and the solves'
//! completion hooks fire; both feed one channel, on which the *driver* (the
//! calling thread) blocks before it advances the connection and writes the
//! responses.  Credits are granted only below the in-flight cap, so a
//! connection at its cap is not read and read-ahead is one chunk.  Session
//! solves run inline on the driver: a slow one blocks only its own client.
//! They run [`serially`](ccs_core::par::serially), on one core, like the
//! pool's workers run theirs.
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
use std::io::{self, ErrorKind, Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

/// Longest frame a connection accepts, newline excluded.  A longer line is
/// answered with one error frame (id `""`) and discarded through its
/// newline, so a client that never sends `\n` holds at most this much
/// server memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Most bytes the pump reads per credit.
const CHUNK_BYTES: usize = 16 * 1024;

/// The pump only reads and forwards; it needs no solver-sized stack.
const PUMP_STACK_BYTES: usize = 64 * 1024;

type Wake = Arc<dyn Fn() + Send + Sync>;

/// What every connection of one front end shares: the engine, the admission
/// limits and the service-wide ledger.  Connections on many threads share
/// it by reference; the ledger's lock is held only to update counters and
/// to take the stats snapshot.
pub struct Service {
    engine: Engine,
    config: NetdConfig,
    ledger: Mutex<Ledger>,
}

impl Service {
    /// A service solving on `engine` under `config`'s admission limits and
    /// emission order.
    pub fn new(engine: Engine, config: NetdConfig) -> Self {
        Service {
            engine,
            config,
            ledger: Mutex::default(),
        }
    }

    /// The engine requests are solved on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub(crate) fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger
            .lock()
            .expect("ledger updates are plain counter arithmetic and do not panic")
    }

    /// The current counters: the payload of a `stats` frame.
    pub(crate) fn stats(&self) -> ServiceStats {
        let engine = self.engine.stats();
        let ledger = self.ledger();
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
            engine,
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
    /// is submitted, with `wake` as its completion hook, and answered when
    /// it completes; everything else is answered now.
    fn admit(&self, line: &str, sessions: &mut SessionStore, wake: &Wake) -> Pending {
        let request = match wire::frame_from_line(line) {
            Ok(WireFrame::Request(request)) => request,
            // Sampled here, in line order, so the frame observes every
            // admission decision that preceded it on its connection.
            Ok(WireFrame::Stats { id }) => {
                return Pending::Decided(
                    wire::stats_response_to_json(&id, &self.stats()).into_string(),
                )
            }
            Ok(WireFrame::Session(frame)) => {
                let (line, event) =
                    ccs_core::par::serially(|| handle_session_frame(frame, &self.engine, sessions));
                self.ledger().record_session(event);
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
        if let Some(error) = self.ledger().admit(&self.config, &tenant) {
            self.engine.stats_sink().record_shed();
            return Pending::Decided(error_line(&id, &error));
        }
        let wake = Arc::clone(wake);
        let handle = self
            .engine
            .submit_notify(instance, &request, move || wake());
        Pending::Solving(Job { id, tenant, handle })
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

    /// Admits a new request of `tenant`, or records its shed and returns
    /// the `overloaded` error it is answered with if a limit is exhausted.
    /// One lock covers the check and the count, so connections admitting
    /// concurrently cannot overdraw the budget or a quota.
    fn admit(&mut self, config: &NetdConfig, tenant: &str) -> Option<CcsError> {
        // The global budget bounds admitted-but-not-completed requests
        // across all connections — the service's outstanding promise, not
        // the pool's backlog, so shedding is a function of the request
        // stream rather than of worker timing.
        let budget = config.queue_budget;
        if self.inflight >= budget {
            self.shed_overload += 1;
            return Some(CcsError::overloaded(format!(
                "queue budget {budget} exhausted ({} requests in flight); retry later",
                self.inflight
            )));
        }
        let entry = self.tenant(tenant);
        if let Some(quota) = config.tenant_quota.filter(|&quota| entry.inflight >= quota) {
            entry.shed += 1;
            let inflight = entry.inflight;
            self.shed_quota += 1;
            let label = if tenant.is_empty() {
                "anonymous tenant".to_string()
            } else {
                format!("tenant '{tenant}'")
            };
            return Some(CcsError::overloaded(format!(
                "{label} quota {quota} exhausted ({inflight} requests in flight); retry later"
            )));
        }
        entry.inflight += 1;
        entry.admitted += 1;
        self.inflight += 1;
        self.admitted += 1;
        None
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
    /// The completion hook of every solve this connection admits.
    wake: Wake,
}

impl Connection {
    /// A new connection of `service`, counted in its stats.  `wake` is the
    /// completion hook ([`Engine::submit_notify`]) of every solve it admits:
    /// short, never panicking, and followed by [`Connection::advance`].
    pub fn open(service: &Service, wake: impl Fn() + Send + Sync + 'static) -> Self {
        let mut ledger = service.ledger();
        ledger.connections += 1;
        ledger.active += 1;
        Connection {
            partial: Vec::new(),
            discarding: false,
            lines: VecDeque::new(),
            pending: VecDeque::new(),
            solving: 0,
            cap: service.config.max_inflight_per_conn,
            ordered: service.config.ordered,
            sessions: SessionStore::new(),
            wake: Arc::new(wake),
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
    fn wants_input(&self) -> bool {
        self.solving < self.cap && self.lines.is_empty()
    }

    /// Moves everything that can move without new input: finished solves
    /// become response lines, buffered lines are admitted up to the
    /// in-flight cap, and the responses now due are appended to `out`.
    pub fn advance(&mut self, service: &Service, out: &mut Vec<u8>) {
        self.reap(service);
        self.admit(service);
        self.emit(out);
    }

    /// Nothing buffered and nothing owed.
    pub fn is_idle(&self) -> bool {
        self.lines.is_empty() && self.pending.is_empty()
    }

    /// Ends the connection: its unfinished solves are cancelled (and count
    /// as completed), its sessions close, and it leaves the active count.
    fn close(mut self, service: &Service) {
        let mut ledger = service.ledger();
        for pending in self.pending.drain(..) {
            if let Pending::Solving(job) = pending {
                job.handle.cancel();
                ledger.complete(&job.tenant);
            }
        }
        for (_, session) in self.sessions.iter() {
            ledger.record_session(SessionEvent::Closed {
                tenant: session.tenant().map(str::to_string),
            });
        }
        ledger.active -= 1;
    }

    fn reap(&mut self, service: &Service) {
        for slot in &mut self.pending {
            if !matches!(slot, Pending::Solving(job) if job.handle.is_finished()) {
                continue;
            }
            let Pending::Solving(job) = std::mem::replace(slot, Pending::Decided(String::new()))
            else {
                unreachable!("matched a finished solve above")
            };
            *slot = Pending::Decided(match job.handle.wait() {
                Ok(solution) => wire::solution_to_json(&job.id, &solution).into_string(),
                Err(error) => error_line(&job.id, &error),
            });
            service.ledger().complete(&job.tenant);
            self.solving -= 1;
        }
    }

    fn admit(&mut self, service: &Service) {
        while self.solving < self.cap {
            let Some(line) = self.lines.pop_front() else {
                break;
            };
            let pending = match line {
                Line::Frame(text) => service.admit(&text, &mut self.sessions, &self.wake),
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
        }
    }

    /// Appends the decided responses that are due: the decided prefix when
    /// `ordered`, else every decided one.
    fn emit(&mut self, out: &mut Vec<u8>) {
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
    }
}

/// What wakes a [`serve`] driver.
pub enum Event {
    /// A chunk the pump read: empty at the end of the input, or the error.
    Input(io::Result<Vec<u8>>),
    /// One of the client's solves completed.
    Completed,
    /// Read nothing more; answer everything received, then return.
    Drain,
}

/// Serves one client (see the module docs) until its input ends or an
/// [`Event::Drain`] arrives and everything it is owed is written, then
/// closes its connection.  Keep a clone of `channel`'s sender to send the
/// drain.  `close_input` runs when the pump may still be blocked reading
/// `input`, and must unblock it (netd shuts the socket's read side down).
///
/// # Errors
/// A failed read or write, which ends the connection and cancels its
/// solves, or a failure to spawn the pump thread.  A panic while serving
/// (a solver's, in an inline session solve, say) is re-raised once the
/// connection is closed.
pub fn serve(
    service: &Service,
    input: impl Read + Send,
    mut output: impl Write,
    close_input: impl FnOnce(),
    (events, inbox): (Sender<Event>, Receiver<Event>),
) -> io::Result<()> {
    thread::scope(|scope| {
        let (credit, credits) = mpsc::channel();
        let pump_events = events.clone();
        thread::Builder::new()
            .name("ccs-pump".to_string())
            .stack_size(PUMP_STACK_BYTES)
            .spawn_scoped(scope, move || pump(input, &credits, &pump_events))?;
        let mut conn = Connection::open(service, move || {
            let _ = events.send(Event::Completed);
        });
        let mut out = Vec::new();
        // `reading`: new input is still accepted.  `input_open`: the pump
        // has not seen the input end.  `credited`: the pump holds a credit.
        let (mut reading, mut input_open, mut credited) = (true, true, false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| loop {
            conn.advance(service, &mut out);
            if !out.is_empty() {
                if let Err(error) = output.write_all(&out).and_then(|()| output.flush()) {
                    break Err(error);
                }
                out.clear();
            }
            if !reading && conn.is_idle() {
                break Ok(());
            }
            if reading && !credited && conn.wants_input() {
                credited = credit.send(()).is_ok();
            }
            match inbox.recv().expect("the wake hook holds a sender") {
                Event::Input(Ok(bytes)) => {
                    credited = false;
                    input_open = !bytes.is_empty();
                    // Bytes that arrive after a drain are not read.
                    if reading && bytes.is_empty() {
                        reading = false;
                        conn.finish_input();
                    } else if reading {
                        conn.receive(&bytes);
                    }
                }
                Event::Input(Err(error)) => {
                    input_open = false;
                    break Err(error);
                }
                Event::Completed => {}
                Event::Drain => reading = false,
            }
        }));
        conn.close(service);
        drop(credit);
        if input_open && credited {
            close_input();
        }
        result.unwrap_or_else(|panic| panic::resume_unwind(panic))
    })
}

/// Reads one chunk of `input` per credit and forwards it, until the input
/// ends, reading fails, or the driver stops granting credits.
fn pump(mut input: impl Read, credits: &Receiver<()>, events: &Sender<Event>) {
    let mut buf = vec![0; CHUNK_BYTES];
    while credits.recv().is_ok() {
        let read = loop {
            match input.read(&mut buf) {
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                read => break read,
            }
        };
        let end = !matches!(read, Ok(n) if n > 0);
        let chunk = read.map(|n| buf[..n].to_vec());
        if events.send(Event::Input(chunk)).is_err() || end {
            return;
        }
    }
}

fn error_line(id: &str, error: &CcsError) -> String {
    wire::error_response_to_json(id, error).into_string()
}
