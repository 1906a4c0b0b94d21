//! Byte-level behaviour both front ends share through [`Connection`] and
//! its driver [`serve`]: the frame-size cap, invalid UTF-8, an unterminated
//! last line, and how far ahead of admission the input is read.  The
//! byte-stream cases run through the real `ccs-serve` binary and over TCP to
//! a [`NetServer`], and must produce identical output.

use ccs_core::instance::instance_from_pairs;
use ccs_core::{
    CcsError, Guarantee, Instance, NonPreemptiveSchedule, Result, ScheduleKind, SolveContext,
    SolveReport, Solver,
};
use ccs_engine::wire::{self, stats_response_from_line, WireRequest};
use ccs_engine::{
    serve, Connection, Engine, NetServer, NetdConfig, Service, SolveRequest, SolverRegistry,
    MAX_FRAME_BYTES,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn fixture_line(name: &str, index: usize) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../ci")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    text.lines().nth(index).expect("fixture line").to_string()
}

const STATS: &str = r#"{"schema":"ccs-wire/1","id":"st","op":"stats"}"#;

fn through_serve(input: &[u8]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccs-serve"))
        .args(["--ordered", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning ccs-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(input).expect("writing stdin");
    drop(stdin);
    let output = child.wait_with_output().expect("ccs-serve runs");
    assert!(
        output.status.success(),
        "ccs-serve exited with {}",
        output.status
    );
    String::from_utf8(output.stdout).expect("frames are UTF-8")
}

fn through_netd(input: &[u8]) -> String {
    let config = NetdConfig {
        ordered: true,
        ..NetdConfig::default()
    };
    let server = NetServer::bind(Engine::new().with_workers(1), "127.0.0.1:0", config)
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("listener healthy"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    // The server answers everything, then closes: read to EOF.
    let mut output = String::new();
    stream.read_to_string(&mut output).expect("read responses");
    handle.drain();
    join.join().expect("server thread");
    output
}

fn assert_both_front_ends(input: &[u8], expected: &str) {
    assert_eq!(through_serve(input), expected, "ccs-serve");
    assert_eq!(through_netd(input), expected, "ccs-netd");
}

#[test]
fn invalid_utf8_line_is_answered_and_reading_continues() {
    let mut input = b"\xff\xfe not UTF-8\n".to_vec();
    input.extend_from_slice(fixture_line("serve-requests.ndjson", 0).as_bytes());
    input.push(b'\n');
    let expected = format!(
        "{}\n{}\n",
        r#"{"error":{"kind":"invalid_instance","message":"JSON: unexpected character"},"id":"","schema":"ccs-wire/1","status":"error"}"#,
        fixture_line("serve-expected.ndjson", 0)
    );
    assert_both_front_ends(&input, &expected);
}

#[test]
fn unterminated_last_line_is_answered_at_eof() {
    let input = fixture_line("serve-requests.ndjson", 0);
    let expected = format!("{}\n", fixture_line("serve-expected.ndjson", 0));
    assert_both_front_ends(input.as_bytes(), &expected);
}

#[test]
fn an_oversized_frame_gets_one_error_and_the_connection_survives() {
    let service = Service::new(Engine::new().with_workers(1), NetdConfig::default());
    let mut conn = Connection::open(&service, || {});
    let mut out = Vec::new();
    let too_long = format!(
        r#"{{"error":{{"kind":"invalid_parameter","message":"wire: frame exceeds {MAX_FRAME_BYTES} bytes"}},"id":"","schema":"ccs-wire/1","status":"error"}}"#
    );

    // A frame of exactly the cap is served (a stats poll padded with
    // blanks, which framing trims).
    let mut at_cap = STATS.as_bytes().to_vec();
    at_cap.resize(MAX_FRAME_BYTES, b' ');
    at_cap.push(b'\n');
    conn.receive(&at_cap);
    conn.advance(&service, &mut out);
    let reply = String::from_utf8(std::mem::take(&mut out)).unwrap();
    assert_eq!(stats_response_from_line(reply.trim_end()).unwrap().0, "st");

    // A longer line, arriving in pieces with no newline yet: answered once,
    // as soon as it crosses the cap.
    let chunk = vec![b'x'; MAX_FRAME_BYTES / 4];
    for _ in 0..6 {
        conn.receive(&chunk);
        conn.advance(&service, &mut out);
    }
    assert_eq!(
        String::from_utf8(std::mem::take(&mut out)).unwrap(),
        format!("{too_long}\n")
    );

    // The rest of that line is discarded through its newline; the next
    // frame is served as usual.
    conn.receive(b"xxxx\n");
    conn.receive(STATS.as_bytes());
    conn.receive(b"\n");
    conn.advance(&service, &mut out);
    let reply = String::from_utf8(out).unwrap();
    assert_eq!(reply.lines().count(), 1);
    assert_eq!(stats_response_from_line(reply.trim_end()).unwrap().0, "st");
    assert!(conn.is_idle());
}

/// Stands in for `exact-nonpreemptive`: reports each start, then holds its
/// worker until the test opens the gate.
struct Gated {
    started: mpsc::Sender<()>,
    open: Arc<AtomicBool>,
}

impl Solver for Gated {
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
        ctx: &SolveContext,
    ) -> Result<SolveReport<NonPreemptiveSchedule>> {
        let _ = self.started.send(());
        while !self.open.load(Ordering::Acquire) {
            ctx.checkpoint()?;
            std::thread::yield_now();
        }
        Err(CcsError::internal("gate opened"))
    }
}

/// Input that hands out one line per `read` call and counts the calls made
/// before the gate opened.
struct Lines {
    lines: VecDeque<String>,
    open: Arc<AtomicBool>,
    calls_while_closed: Arc<AtomicUsize>,
}

impl Read for Lines {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.open.load(Ordering::Acquire) {
            self.calls_while_closed.fetch_add(1, Ordering::Relaxed);
        }
        let Some(line) = self.lines.pop_front() else {
            return Ok(0);
        };
        buf[..line.len()].copy_from_slice(line.as_bytes());
        Ok(line.len())
    }
}

#[test]
fn the_driver_reads_one_chunk_past_the_in_flight_cap_at_most() {
    const LINES: usize = 6;
    let open = Arc::new(AtomicBool::new(false));
    let (started, starts) = mpsc::channel();
    let mut registry = SolverRegistry::with_defaults();
    registry.replace(Gated {
        started,
        open: Arc::clone(&open),
    });
    let config = NetdConfig {
        max_inflight_per_conn: 2,
        ..NetdConfig::default()
    };
    let service = Service::new(Engine::with_registry(registry).with_workers(2), config);
    let calls_while_closed = Arc::new(AtomicUsize::new(0));
    let input = Lines {
        lines: (0..LINES)
            .map(|i| {
                let request = WireRequest {
                    id: format!("r{i}"),
                    tenant: None,
                    instance: instance_from_pairs(2, 1, &[(3, 0), (4, 0), (2, 1)]).unwrap(),
                    request: SolveRequest::exact(ScheduleKind::NonPreemptive),
                };
                wire::request_to_line(&request) + "\n"
            })
            .collect(),
        open: Arc::clone(&open),
        calls_while_closed: Arc::clone(&calls_while_closed),
    };

    let mut out = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // Both admitted solves hold their workers; a driver that read
            // past the cap would have read the remaining lines by now.
            starts.recv().unwrap();
            starts.recv().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            open.store(true, Ordering::Release);
        });
        serve(&service, input, &mut out, || {}, mpsc::channel()).expect("in-memory I/O");
    });

    let reads = calls_while_closed.load(Ordering::Relaxed);
    assert!(
        (2..=3).contains(&reads),
        "{reads} reads before a solve completed; the cap admits 2 lines"
    );
    let out = String::from_utf8(out).unwrap();
    assert_eq!(out.lines().count(), LINES, "{out}");
    assert!(
        out.lines().all(|line| line.contains("gate opened")),
        "{out}"
    );
}
