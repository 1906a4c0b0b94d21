//! Byte-level behaviour both front ends share through [`Connection`]: the
//! frame-size cap, invalid UTF-8, and an unterminated last line.  The
//! byte-stream cases run through the real `ccs-serve` binary and over TCP to
//! a [`NetServer`], and must produce identical output.

use ccs_engine::wire::stats_response_from_line;
use ccs_engine::{Connection, Engine, NetServer, NetdConfig, Service, MAX_FRAME_BYTES};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};

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
    let mut service = Service::new(Engine::new().with_workers(1), NetdConfig::default(), || {});
    let mut conn = Connection::open(&mut service);
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
    conn.advance(&mut service, &mut out);
    let reply = String::from_utf8(std::mem::take(&mut out)).unwrap();
    assert_eq!(stats_response_from_line(reply.trim_end()).unwrap().0, "st");

    // A longer line, arriving in pieces with no newline yet: answered once,
    // as soon as it crosses the cap.
    let chunk = vec![b'x'; MAX_FRAME_BYTES / 4];
    for _ in 0..6 {
        conn.receive(&chunk);
        conn.advance(&mut service, &mut out);
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
    conn.advance(&mut service, &mut out);
    let reply = String::from_utf8(out).unwrap();
    assert_eq!(reply.lines().count(), 1);
    assert_eq!(stats_response_from_line(reply.trim_end()).unwrap().0, "st");
    assert!(conn.is_idle());
}
