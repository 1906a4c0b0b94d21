//! `ccs-netd` — the multi-client TCP front end with admission control.
//!
//! [`NetServer`] multiplexes many concurrent TCP connections onto one
//! [`Engine`] worker pool.  Each connection speaks the `ccs-wire/1` NDJSON
//! protocol of [`crate::wire`] (one frame per line); requests are submitted
//! to the pool as soon as they parse and responses complete out of order
//! per connection, matched by `id` ([`NetdConfig::ordered`] pins
//! per-connection request order for golden-file diffing).
//!
//! Every socket is served by [`serve`], the driver `ccs-serve` runs over
//! stdio, on a thread of its own plus a pump thread that blocks reading the
//! socket (plain blocking `std::net` I/O: the offline-substitution
//! constraints of DESIGN.md §7 rule out `mio`/`tokio`, and `poll(2)` would
//! need `libc` and `unsafe`).  A blocking acceptor hands sockets to one
//! control loop, which spawns the drivers and handles closes, drain and the
//! periodic stats line.  Nothing on the request path waits on a timer, and
//! a connection's inline session solve blocks only that connection.
//!
//! Admission control, outermost check first:
//!
//! * **Per-connection backpressure** — at most
//!   [`NetdConfig::max_inflight_per_conn`] admitted requests per connection;
//!   at the cap the driver simply stops reading that socket (TCP flow
//!   control pushes back on the client) until completions free a slot.
//!   Nothing is shed: a well-behaved pipelining client is throttled, never
//!   errored.
//! * **Global queue budget** — at most [`NetdConfig::queue_budget`] admitted
//!   requests in flight across all connections (queued *or* running: the
//!   budget bounds what the service has promised to do, not the pool's
//!   backlog).  Past it, new requests are shed with a structured
//!   `overloaded` error frame; the connection stays open and the client may
//!   retry.
//! * **Per-tenant quotas** — with [`NetdConfig::tenant_quota`], each tenant
//!   (the optional `tenant` member on request frames; untagged requests
//!   share the anonymous tenant `""`) may hold at most that many in-flight
//!   requests.  Excess is shed with an `overloaded` frame naming the quota,
//!   while other tenants proceed untouched.
//!
//! Shutdown is a graceful drain ([`NetdHandle::drain`], or stdin EOF /
//! a `drain` line in the `ccs-netd` binary): the listener closes, already
//! admitted requests finish, buffered complete request lines are still
//! admitted, output is flushed, then every connection closes and
//! [`NetServer::run`] returns the final [`ServiceStats`].

use crate::connection::{serve, Event, Service};
use crate::engine::Engine;
use crate::wire::ServiceStats;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Admission limits and emission order of a front end.
/// `NetdConfig::default()` matches the `ccs-netd` binary's defaults;
/// `ccs-serve` sets the per-connection cap to the queue budget, so its one
/// connection is throttled but never shed.
#[derive(Debug, Clone)]
pub struct NetdConfig {
    /// Most admitted requests one connection may hold in flight; at the cap
    /// the server pauses reads on that socket instead of shedding.
    pub max_inflight_per_conn: usize,
    /// Most admitted requests in flight across all connections (queued or
    /// running); past it new requests are shed with `overloaded` frames.
    pub queue_budget: usize,
    /// Most in-flight requests per tenant (`None` disables quotas).
    pub tenant_quota: Option<usize>,
    /// Emit each connection's responses in its request order instead of
    /// completion order (for diffing against golden files).
    pub ordered: bool,
    /// Print a machine-parseable stats line to stderr this often, plus one
    /// final line at drain (`None` disables both).
    pub stats_every: Option<Duration>,
}

impl Default for NetdConfig {
    fn default() -> Self {
        NetdConfig {
            max_inflight_per_conn: 32,
            queue_budget: 1024,
            tenant_quota: None,
            ordered: false,
            stats_every: None,
        }
    }
}

/// A drain trigger for a running [`NetServer`]; clones share the trigger.
#[derive(Debug, Clone)]
pub struct NetdHandle {
    draining: Arc<AtomicBool>,
    control: Sender<Control>,
}

impl NetdHandle {
    /// Asks the server to drain: stop accepting connections and reading new
    /// requests, finish everything admitted, flush, close, return.
    /// Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        let _ = self.control.send(Control::Drain);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// What the control loop waits for.
enum Control {
    Accepted(TcpStream),
    /// The driver of this connection returned.
    Closed(u64),
    Drain,
}

/// Schedule of the periodic stderr stats line, anchored to a fixed grid
/// `epoch + k·every`.
///
/// Firing late never shifts later deadlines (rescheduling from the fire
/// time would let every delay accumulate as drift), and a stalled control
/// loop — e.g. one the host did not schedule for a while — skips the
/// intervals it missed instead of emitting a catch-up burst: after a fire
/// the next deadline is the first grid point strictly in the future.
struct StatsTicker {
    next: Instant,
    every: Duration,
    ticks: u64,
}

impl StatsTicker {
    fn new(epoch: Instant, every: Duration) -> StatsTicker {
        StatsTicker {
            next: epoch + every,
            every,
            ticks: 0,
        }
    }

    /// Whether a line is due at `now`; at most one fire per call.  On a
    /// fire the deadline advances along the grid past `now`.
    fn due(&mut self, now: Instant) -> bool {
        if now < self.next {
            return false;
        }
        self.ticks += 1;
        while self.next <= now {
            self.next += self.every;
        }
        true
    }

    /// Lines fired so far.
    fn ticks(&self) -> u64 {
        self.ticks
    }
}

/// The TCP front end: bind, then [`NetServer::run`] the I/O loop to
/// completion (a drain).  See the module docs for the admission-control
/// semantics.
///
/// ```no_run
/// use ccs_engine::{Engine, NetServer, NetdConfig};
///
/// let engine = Engine::new().with_workers(4).with_cache(1024);
/// let server = NetServer::bind(engine, "127.0.0.1:0", NetdConfig::default()).unwrap();
/// eprintln!("listening on {}", server.local_addr().unwrap());
/// let handle = server.handle(); // call handle.drain() from elsewhere
/// let final_stats = server.run().unwrap();
/// # let _ = (handle, final_stats);
/// ```
pub struct NetServer {
    engine: Engine,
    listener: TcpListener,
    config: NetdConfig,
    draining: Arc<AtomicBool>,
    control: (Sender<Control>, Receiver<Control>),
}

impl NetServer {
    /// Binds the listening socket (port `0` picks an ephemeral port; read it
    /// back with [`NetServer::local_addr`]).  The engine's worker pool and
    /// cache should be configured before it is passed in.
    pub fn bind(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: NetdConfig,
    ) -> std::io::Result<Self> {
        Ok(NetServer {
            engine,
            listener: TcpListener::bind(addr)?,
            config,
            draining: Arc::new(AtomicBool::new(false)),
            control: mpsc::channel(),
        })
    }

    /// The bound address (its port is the one to publish when binding to
    /// port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A drain trigger usable from other threads.
    pub fn handle(&self) -> NetdHandle {
        NetdHandle {
            draining: Arc::clone(&self.draining),
            control: self.control.0.clone(),
        }
    }

    /// Serves connections until a drain completes, then returns the final
    /// counters.  A connection's I/O error closes that connection only
    /// (its admitted jobs are cancelled), and so does a failure to spawn
    /// its threads; only a failure to start the acceptor aborts the server.
    pub fn run(self) -> std::io::Result<ServiceStats> {
        let NetServer {
            engine,
            listener,
            config,
            draining,
            control: (control, inbox),
        } = self;
        let addr = listener.local_addr()?;
        let mut ticker = config
            .stats_every
            .map(|every| StatsTicker::new(Instant::now(), every));
        let service = Service::new(engine, config);
        // Resumes an acceptor paused by an accept error; one token suffices.
        let (resume, resumed) = mpsc::sync_channel(1);
        thread::scope(|scope| {
            let accepted = control.clone();
            let draining = &draining;
            thread::Builder::new()
                .name("ccs-netd-accept".to_string())
                .spawn_scoped(scope, move || {
                    accept(&listener, draining, &accepted, &resumed)
                })?;
            let mut drivers = HashMap::new();
            let mut next_id = 0;
            let mut drain = false;
            while !(drain && drivers.is_empty()) {
                let message = match &ticker {
                    Some(ticker) => inbox
                        .recv_timeout(ticker.next.saturating_duration_since(Instant::now()))
                        .ok(),
                    None => inbox.recv().ok(),
                };
                match message {
                    Some(Control::Accepted(stream)) if !drain => {
                        next_id += 1;
                        let id = next_id;
                        let channel = mpsc::channel();
                        let events = channel.0.clone();
                        let (service, closed) = (&service, control.clone());
                        // A failed spawn drops the closure and so closes the
                        // socket; the scope joins the drivers that run.
                        let spawned = thread::Builder::new()
                            .name(format!("ccs-netd-conn-{id}"))
                            .stack_size(ccs_core::par::WORKER_STACK_BYTES)
                            .spawn_scoped(scope, move || {
                                let _ = stream.set_nodelay(true);
                                let close_input = || {
                                    let _ = stream.shutdown(Shutdown::Read);
                                };
                                // A panic ends this connection only.
                                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                                    serve(service, &stream, &stream, close_input, channel)
                                }));
                                let _ = closed.send(Control::Closed(id));
                            });
                        if spawned.is_ok() {
                            drivers.insert(id, events);
                        }
                    }
                    // A socket accepted as the drain began closes unserved.
                    Some(Control::Accepted(_)) | None => {}
                    Some(Control::Closed(id)) => {
                        drivers.remove(&id);
                        let _ = resume.try_send(());
                    }
                    Some(Control::Drain) => {
                        drain = true;
                        // Wake the acceptor, blocked in `accept` or paused,
                        // to see the drain flag and drop the listener.
                        let _ = TcpStream::connect(addr);
                        let _ = resume.try_send(());
                        for events in drivers.values() {
                            let _ = events.send(Event::Drain);
                        }
                    }
                }
                if let Some(ticker) = &mut ticker {
                    if ticker.due(Instant::now()) {
                        service.ledger().stats_ticks = ticker.ticks();
                        eprintln!("{}", stats_line(&service.stats()));
                    }
                }
            }
            let stats = service.stats();
            if ticker.is_some() {
                eprintln!("{}", stats_line(&stats));
            }
            Ok(stats)
        })
    }
}

/// Hands accepted sockets to the control loop until a drain.  After an
/// accept error other than an aborted handshake (out of descriptors, say) it
/// waits for a connection to close, which frees one, or for the drain.
fn accept(
    listener: &TcpListener,
    draining: &AtomicBool,
    control: &Sender<Control>,
    resumed: &Receiver<()>,
) {
    loop {
        let more = match listener.accept() {
            Ok((stream, _peer)) => control.send(Control::Accepted(stream)).is_ok(),
            Err(error) => match error.kind() {
                ErrorKind::Interrupted | ErrorKind::ConnectionAborted => true,
                _ => resumed.recv().is_ok(),
            },
        };
        if !more || draining.load(Ordering::Acquire) {
            return;
        }
    }
}

/// One machine-parseable stats line for operators (stderr; stdout carries
/// nothing — responses travel on the sockets).
fn stats_line(stats: &ServiceStats) -> String {
    let mut line = format!(
        "netd stats: ticks={} conns={} active={} admitted={} completed={} inflight={} \
         pool_queue={} shed_overload={} shed_quota={} solves={} cache_hits={} cache_misses={} \
         warm_hits={} warm_misses={} sessions_open={} sessions_opened={}",
        stats.stats_ticks,
        stats.connections,
        stats.active_connections,
        stats.admitted,
        stats.completed,
        stats.admitted - stats.completed,
        stats.engine.queue_depth,
        stats.shed_overload,
        stats.shed_quota,
        stats.engine.solves,
        stats.engine.cache_hits,
        stats.engine.cache_misses,
        stats.engine.warm_hits,
        stats.engine.warm_misses,
        stats.sessions_active,
        stats.sessions_opened,
    );
    for t in &stats.tenants {
        let name = if t.tenant.is_empty() { "-" } else { &t.tenant };
        line.push_str(&format!(
            " tenant[{name}]={}/{}/{}",
            t.admitted, t.completed, t.shed
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::TenantStats;

    #[test]
    fn defaults_are_sane() {
        let config = NetdConfig::default();
        assert!(config.max_inflight_per_conn >= 1);
        assert!(config.queue_budget >= config.max_inflight_per_conn);
        assert_eq!(config.tenant_quota, None);
        assert!(!config.ordered);
    }

    #[test]
    fn handle_drain_is_idempotent_and_visible() {
        let server = NetServer::bind(
            Engine::new().with_workers(1),
            "127.0.0.1:0",
            NetdConfig::default(),
        )
        .unwrap();
        let handle = server.handle();
        assert!(!handle.is_draining());
        handle.drain();
        handle.drain();
        assert!(handle.is_draining());
        let stats = server.run().unwrap();
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.connections, 0);
    }

    #[test]
    fn stats_line_is_machine_parseable() {
        let stats = ServiceStats {
            admitted: 7,
            completed: 5,
            shed_overload: 2,
            sessions_opened: 3,
            sessions_active: 1,
            tenants: vec![
                TenantStats {
                    tenant: String::new(),
                    admitted: 4,
                    completed: 3,
                    shed: 1,
                    sessions: 0,
                },
                TenantStats {
                    tenant: "acme".to_string(),
                    admitted: 3,
                    completed: 2,
                    shed: 0,
                    sessions: 1,
                },
            ],
            ..ServiceStats::default()
        };
        let line = stats_line(&stats);
        assert!(line.contains("ticks=0"));
        assert!(line.contains("admitted=7"));
        assert!(line.contains("inflight=2"));
        assert!(line.contains("shed_overload=2"));
        assert!(line.contains("warm_hits=0"));
        assert!(line.contains("sessions_open=1"));
        assert!(line.contains("sessions_opened=3"));
        assert!(line.contains("tenant[-]=4/3/1"));
        assert!(line.contains("tenant[acme]=3/2/0"));
    }

    #[test]
    fn stats_ticker_holds_the_grid_under_late_fires() {
        let epoch = Instant::now();
        let every = Duration::from_millis(10);
        let mut ticker = StatsTicker::new(epoch, every);
        assert!(!ticker.due(epoch));
        assert!(!ticker.due(epoch + Duration::from_millis(9)));
        // Fires 4ms late; the next deadline stays on the grid (20ms), not
        // 24ms — rescheduling from the fire time would drift by 4ms here
        // and accumulate every interval.
        assert!(ticker.due(epoch + Duration::from_millis(14)));
        assert_eq!(ticker.ticks(), 1);
        assert!(!ticker.due(epoch + Duration::from_millis(19)));
        assert!(ticker.due(epoch + Duration::from_millis(20)));
        assert_eq!(ticker.ticks(), 2);
    }

    #[test]
    fn stats_ticker_skips_missed_intervals_without_a_burst() {
        let epoch = Instant::now();
        let every = Duration::from_millis(10);
        let mut ticker = StatsTicker::new(epoch, every);
        // A stall past five deadlines yields ONE line, then the grid
        // resumes at the next future point (60ms).
        let after_stall = epoch + Duration::from_millis(57);
        assert!(ticker.due(after_stall));
        assert_eq!(ticker.ticks(), 1);
        assert!(!ticker.due(after_stall + Duration::from_millis(2)));
        assert!(ticker.due(epoch + Duration::from_millis(60)));
        assert_eq!(ticker.ticks(), 2);
    }
}
