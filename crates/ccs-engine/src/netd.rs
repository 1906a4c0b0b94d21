//! `ccs-netd` — the multi-client TCP front end with admission control.
//!
//! [`NetServer`] multiplexes many concurrent TCP connections onto one
//! [`Engine`] worker pool.  Each connection speaks the `ccs-wire/1` NDJSON
//! protocol of [`crate::wire`] (one frame per line); requests are submitted
//! to the pool as soon as they parse and responses complete out of order
//! per connection, matched by `id` ([`NetdConfig::ordered`] pins
//! per-connection request order for golden-file diffing).
//!
//! The server is a single hand-rolled loop over non-blocking `std::net`
//! sockets (the offline-substitution constraints of DESIGN.md §7 rule out
//! `mio`/`tokio`): every iteration accepts pending connections, advances
//! each connection's [`Connection`] state machine (the same one `ccs-serve`
//! drives over stdio), flushes output buffers, and reads exactly as much new
//! input as admission control allows.  When nothing moved, the loop parks
//! until a solve's completion hook unparks it (or a short timeout passes), so
//! a finished solve wakes it at once.  Solving itself happens on the engine's
//! workers; the loop only does I/O and bookkeeping, so a slow solve never
//! stalls other connections.
//!
//! Admission control, outermost check first:
//!
//! * **Per-connection backpressure** — at most
//!   [`NetdConfig::max_inflight_per_conn`] admitted requests per connection;
//!   at the cap the loop simply stops reading that socket (TCP flow control
//!   pushes back on the client) until completions free a slot.  Nothing is
//!   shed: a well-behaved pipelining client is throttled, never errored.
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

use crate::connection::{Connection, Service};
use crate::engine::Engine;
use crate::wire::ServiceStats;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stop reading a connection whose client is not draining its responses
/// once this much serialised output is waiting on it.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Longest idle wait.  Completions end the wait at once; this only bounds
/// how soon new socket bytes are seen, because std offers no way to wait on
/// sockets and a wake-up together (and DESIGN.md §7 excludes `libc`).
const READ_POLL: Duration = Duration::from_micros(500);

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
}

impl NetdHandle {
    /// Asks the server to drain: stop accepting connections and reading new
    /// requests, finish everything admitted, flush, close, return.
    /// Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// An accepted socket and the protocol state its bytes feed.
struct Client {
    stream: TcpStream,
    conn: Connection,
    /// Serialised responses awaiting the socket; `out_pos` is the prefix
    /// already written (a cursor avoids re-copying on partial writes).
    out: Vec<u8>,
    out_pos: usize,
    /// The client closed its write side: serve out the backlog, then close.
    eof: bool,
    /// I/O error: close now, cancelling what is still in flight.
    dead: bool,
}

impl Client {
    fn flushed(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// Nothing owed and nothing unwritten.
    fn idle(&self) -> bool {
        self.conn.is_idle() && self.flushed()
    }

    fn finished(&self) -> bool {
        self.dead || (self.eof && self.idle())
    }

    /// Writes buffered output until the socket would block.  Returns whether
    /// bytes moved.
    fn flush(&mut self) -> bool {
        let mut wrote = false;
        while !self.dead && !self.flushed() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.out_pos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        if self.flushed() && self.out_pos > 0 {
            self.out.clear();
            self.out_pos = 0;
        }
        wrote
    }

    /// Reads newly arrived bytes while the connection wants input (below its
    /// in-flight cap, with a client that keeps reading its responses) and
    /// advances the connection over them.  Returns whether anything moved.
    fn read(&mut self, service: &mut Service) -> bool {
        let mut buf = [0u8; 16 * 1024];
        let mut moved = false;
        while !self.dead
            && !self.eof
            && self.conn.wants_input()
            && self.out.len() - self.out_pos < OUT_HIGH_WATER
        {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    self.conn.finish_input();
                }
                Ok(n) => self.conn.receive(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
            self.conn.advance(service, &mut self.out);
            moved = true;
        }
        moved
    }
}

/// Schedule of the periodic stderr stats line, anchored to a fixed grid
/// `epoch + k·every`.
///
/// Firing late never shifts later deadlines (rescheduling from the fire
/// time would let every delay accumulate as drift), and a stalled loop —
/// e.g. one blocked behind a long inline session solve — skips the
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
    listener: Option<TcpListener>,
    config: NetdConfig,
    draining: Arc<AtomicBool>,
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
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            engine,
            listener: Some(listener),
            config,
            draining: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (its port is the one to publish when binding to
    /// port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener
            .as_ref()
            .expect("listener present until run() drains")
            .local_addr()
    }

    /// A drain trigger usable from other threads.
    pub fn handle(&self) -> NetdHandle {
        NetdHandle {
            draining: Arc::clone(&self.draining),
        }
    }

    /// Runs the accept/serve loop until a drain completes, then returns the
    /// final counters.  Individual connection I/O errors are absorbed (the
    /// connection is dropped, its admitted jobs cancelled); only listener
    /// failures abort the server.
    pub fn run(self) -> std::io::Result<ServiceStats> {
        let NetServer {
            engine,
            mut listener,
            config,
            draining,
        } = self;
        let stats_every = config.stats_every;
        let mut ticker = stats_every.map(|every| StatsTicker::new(Instant::now(), every));
        // Each completion unparks this thread.  An unpark that lands while
        // the loop is busy makes the next park return at once, so no
        // completion waits for the timeout.  (An inline session solve's
        // scoped threads may consume that token, but such a pass made
        // progress, and the loop passes again before it parks.)
        let io_thread = std::thread::current();
        let mut service = Service::new(engine, config, move || io_thread.unpark());
        let mut clients: Vec<Client> = Vec::new();
        loop {
            let draining = draining.load(Ordering::Acquire);
            let mut progress = false;

            if draining {
                // Free the port immediately; queued SYNs are reset.
                listener = None;
            } else if let Some(listener) = &listener {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue; // peer already gone
                            }
                            let _ = stream.set_nodelay(true);
                            clients.push(Client {
                                stream,
                                conn: Connection::open(&mut service),
                                out: Vec::new(),
                                out_pos: 0,
                                eof: false,
                                dead: false,
                            });
                            progress = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        // Transient per-connection accept failures
                        // (ECONNABORTED and friends) must not kill the
                        // server; try again next iteration.
                        Err(_) => break,
                    }
                }
            }

            for client in &mut clients {
                // Also admits complete lines already buffered, which a drain
                // still serves (they were received before it) — it only
                // stops reading.
                progress |= client.conn.advance(&mut service, &mut client.out);
                progress |= client.flush();
                if !draining {
                    progress |= client.read(&mut service);
                }
            }
            for client in clients.extract_if(.., |client| client.finished()) {
                client.conn.close(&mut service);
            }

            if let Some(ticker) = &mut ticker {
                if ticker.due(Instant::now()) {
                    service.ledger.stats_ticks = ticker.ticks();
                    eprintln!("{}", stats_line(&service.stats()));
                }
            }

            if draining && clients.iter().all(Client::idle) {
                // A drain closes open sessions with their connections; the
                // final stats line reports none active.
                for client in clients {
                    client.conn.close(&mut service);
                }
                let stats = service.stats();
                if stats_every.is_some() {
                    eprintln!("{}", stats_line(&stats));
                }
                return Ok(stats); // every socket closed with its client
            }
            if !progress {
                std::thread::park_timeout(READ_POLL);
            }
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
