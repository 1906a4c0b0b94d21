//! The idle round-trip floor of the `ccs-netd` TCP front end.  It lives in
//! a test binary of its own, so no solver-heavy test competes for the CPU
//! while it is timed.
//!
//! A server that polls its sockets sees a request only at its next poll.
//! Each ping here waits 50 µs after the previous reply, so it arrives once
//! a poller has gone back to sleep (a back-to-back ping can land while it
//! is still awake from the reply, and then measure nothing): a 500 µs poll
//! adds about 400 µs to every round trip, so 200 of them take over 80 ms.
//! The pause is spun, not slept, so no CPU idles long enough to wake slowly.

use ccs_engine::{Engine, NetServer, NetdConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn lockstep_stats_pings_wait_on_no_timer() {
    const PINGS: u32 = 200;
    const LIMIT: Duration = Duration::from_millis(50);
    let server = NetServer::bind(
        Engine::new().with_workers(1),
        "127.0.0.1:0",
        NetdConfig::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("listener healthy"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    // One round trip, timed from the write to the reply.
    let mut ping = || {
        let started = Instant::now();
        stream
            .write_all(b"{\"schema\":\"ccs-wire/1\",\"id\":\"p\",\"op\":\"stats\"}\n")
            .expect("send ping");
        line.clear();
        reader.read_line(&mut line).expect("read reply");
        assert!(line.contains(r#""status":"stats""#), "{line}");
        started.elapsed()
    };
    // The first round trip also spawns the connection's threads.
    ping();
    let mut round_trips: Vec<Duration> = (0..PINGS)
        .map(|_| {
            let pause = Instant::now();
            while pause.elapsed() < Duration::from_micros(50) {
                std::hint::spin_loop();
            }
            ping()
        })
        .collect();
    round_trips.sort_unstable();
    // The median, not the sum: the host may preempt any thread for
    // milliseconds, and a few such pings would decide a sum.
    let median = round_trips[round_trips.len() / 2];

    handle.drain();
    join.join().expect("server thread");
    assert!(
        median * PINGS < LIMIT,
        "{PINGS} idle round trips at the median {median:?} take over {LIMIT:?}"
    );
}
