//! `ccs-serve` — the NDJSON solve service.
//!
//! Reads `ccs-wire/1` request frames from stdin (one JSON object per line),
//! submits each to the engine's worker pool as soon as it is parsed, and
//! writes one response frame per request to stdout as requests complete —
//! a synchronous client that sends one request and waits for its answer
//! before sending the next is served correctly.  Responses may arrive out
//! of order; match them to requests by `id`.  Malformed lines produce an
//! error frame instead of killing the service.  An `"op": "stats"` frame is
//! answered inline with the engine's and this connection's counters (see
//! `docs/WIRE.md` §6).  Stdin and stdout are served by `ccs_engine::serve`,
//! the driver `ccs-netd` runs per socket.
//!
//! ```text
//! printf '%s\n' '{"schema":"ccs-wire/1","id":"a","instance":{...},"model":"splittable"}' \
//!   | ccs-serve
//! ```
//!
//! Flags:
//! * `--ordered` — emit responses in request order (useful for diffing
//!   against golden files; throughput is unchanged, only emission order),
//! * `--workers <n>` — size of the worker pool (default: all cores),
//! * `--cache <entries>` — attach a solution cache of that capacity
//!   (default: off, so solution frames carry no `"cache"` member and
//!   existing golden files are untouched).  With a cache, repeated or
//!   canonically equal requests are served from memory, frames gain
//!   `"cache": "hit" | "miss"`, and hit-rate statistics are printed to
//!   stderr at EOF.

use ccs_engine::{serve, Engine, NetdConfig, Service};
use std::sync::mpsc;

fn main() {
    let mut ordered = false;
    let mut workers: Option<usize> = None;
    let mut cache: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ordered" => ordered = true,
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => workers = Some(n),
                _ => {
                    eprintln!("--workers requires a positive integer");
                    std::process::exit(2);
                }
            },
            "--cache" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => cache = Some(n),
                _ => {
                    eprintln!("--cache requires a positive number of entries");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unrecognised argument: {other}");
                eprintln!("usage: ccs-serve [--ordered] [--workers <n>] [--cache <entries>]");
                std::process::exit(2);
            }
        }
    }

    let mut engine = Engine::new();
    if let Some(n) = workers {
        engine = engine.with_workers(n);
    }
    if let Some(entries) = cache {
        engine = engine.with_cache(entries);
    }

    // One client, so its in-flight cap is the whole queue budget: the
    // connection is throttled at the budget, never shed.
    let budget = NetdConfig::default().queue_budget;
    let config = NetdConfig {
        max_inflight_per_conn: budget,
        queue_budget: budget,
        ordered,
        ..NetdConfig::default()
    };
    let service = Service::new(engine, config);
    // A read of stdin cannot be interrupted: when the driver stops while
    // one may be pending (stdout is gone), the process ends here, status 0.
    let exit = || std::process::exit(0);
    let stdout = std::io::stdout().lock();
    if let Err(e) = serve(&service, std::io::stdin(), stdout, exit, mpsc::channel()) {
        eprintln!("ccs-serve: {e}");
    }
    if let Some(stats) = service.engine().cache_stats() {
        // One machine-parseable line for operators and the CI hit-rate
        // artifact; stdout stays reserved for response frames.
        eprintln!(
            "cache stats: entries={} hits={} misses={} evictions={} hit_rate={:.4}",
            stats.entries,
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.hit_rate()
        );
    }
}
