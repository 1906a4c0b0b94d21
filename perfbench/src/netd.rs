//! The `ccs-netd` child process and line-framed client connections.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Solution-cache entries: far above any plan's distinct keys, so nothing
/// is evicted and the cache counters stay deterministic.
pub const CACHE_ENTRIES: usize = 1 << 17;

/// Longest wait for any single reply before the run is declared wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The stats poll frame.
pub const STATS_FRAME: &[u8] = b"{\"schema\":\"ccs-wire/1\",\"id\":\"stats\",\"op\":\"stats\"}\n";

/// A running `ccs-netd`: two workers, a solution cache, ephemeral port.
pub struct Netd {
    child: Child,
    /// The bound address.
    pub addr: SocketAddr,
    stderr: BufReader<ChildStderr>,
}

impl Netd {
    /// Spawns the service and waits for its first stats reply; returns it
    /// with the set-up time (spawn to that reply) and an open connection.
    pub fn start(binary: &Path) -> io::Result<(Netd, Duration, Conn)> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--stats-every",
                "0",
            ])
            .args(["--cache", &CACHE_ENTRIES.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("ccs-netd exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("ccs-netd: listening on ") {
                break addr
                    .parse()
                    .map_err(|e| io::Error::other(format!("bad listen address {addr}: {e}")))?;
            }
        };
        let netd = Netd {
            child,
            addr,
            stderr,
        };
        let mut conn = Conn::connect(addr)?;
        conn.request(STATS_FRAME)?;
        Ok((netd, started.elapsed(), conn))
    }

    /// Peak resident set size of the service (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kib / 1024.0)
    }

    /// Drains the service (stdin EOF) and waits for a clean exit.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let status = self.child.wait()?;
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "ccs-netd exited with {status}: {rest}"
            )))
        }
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        // Only reached without `stop` on an error path: never leave the
        // child running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A client connection: `TCP_NODELAY`, one write per frame, replies split
/// into lines as they arrive.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl Conn {
    /// Connects with Nagle's algorithm off.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            chunk: vec![0; 1 << 16].into_boxed_slice(),
        })
    }

    /// Sends one complete frame (newline included) in one write.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Reads what arrives until `deadline` (or, with `None`, until at
    /// least one line is complete) and hands each complete line to
    /// `on_line` with the time its bytes were read.  Returns the number of
    /// lines handled.
    pub fn pump(
        &mut self,
        deadline: Option<Instant>,
        mut on_line: impl FnMut(&[u8], Instant),
    ) -> io::Result<usize> {
        let timeout = match deadline {
            Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                Some(left) if left >= Duration::from_micros(1) => left,
                _ => return Ok(0),
            },
            None => REPLY_TIMEOUT,
        };
        if !readable(&self.stream, timeout)? {
            return match deadline {
                Some(_) => Ok(0),
                None => Err(io::Error::new(ErrorKind::TimedOut, "no reply within 60 s")),
            };
        }
        let n = match self.stream.read(&mut self.chunk) {
            Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "ccs-netd closed")),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(0),
            Err(e) => return Err(e),
        };
        let now = Instant::now();
        let mut scan = self.buf.len();
        self.buf.extend_from_slice(&self.chunk[..n]);
        let mut start = 0;
        let mut lines = 0;
        while let Some(offset) = self.buf[scan..].iter().position(|&b| b == b'\n') {
            let nl = scan + offset;
            on_line(&self.buf[start..nl], now);
            start = nl + 1;
            scan = start;
            lines += 1;
        }
        self.buf.drain(..start);
        Ok(lines)
    }

    /// Sends one frame and returns the next reply line.
    pub fn request(&mut self, frame: &[u8]) -> io::Result<String> {
        self.send(frame)?;
        let mut reply = None;
        while reply.is_none() {
            self.pump(None, |line, _| {
                reply.get_or_insert_with(|| String::from_utf8_lossy(line).into_owned());
            })?;
        }
        Ok(reply.expect("loop exits with a reply"))
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits until `stream` is readable or `timeout` passes; returns whether it
/// is readable.
///
/// `ppoll` sleeps on a high-resolution timer.  A socket read timeout
/// (`SO_RCVTIMEO`) would round every wait up to the next scheduler tick —
/// milliseconds — and make the open loop send late.
fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    const POLLIN: c_short = 0x001;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; `nfds` is
    // 1, matching the single `pollfd`; a null signal mask leaves the mask
    // unchanged.  `ppoll` writes only `fd.revents`.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 => match io::Error::last_os_error() {
            e if e.kind() == ErrorKind::Interrupted => Ok(false),
            e => Err(e),
        },
        0 => Ok(false),
        _ => Ok(true),
    }
}
