//! Golden wire-frame tests for **error** responses, alongside the
//! solution-frame goldens exercised by the `serve-smoke` CI job.
//!
//! Two committed fixtures under `ci/` pin the error side of `ccs-wire/1`:
//!
//! * `wire-error-frames.ndjson` — one frame per [`CcsError`] variant
//!   (including `Cancelled` and `Overloaded`, which a batch service run
//!   cannot trigger deterministically) plus the frame-cap frame, pinned
//!   byte-for-byte against the codec,
//! * `serve-error-requests.ndjson` / `serve-error-expected.ndjson` — request
//!   lines that each provoke an error (`budget_ms: 0` deadline, malformed
//!   JSON, missing/unknown model, schema skew, negative budget, nesting past
//!   the JSON depth limit) and the exact response bytes.
//!
//! `codec-requests.ndjson` / `codec-expected.ndjson` pin what the frame
//! writer and the request decoder touch: a stats frame, moldable
//! solutions, escaped and non-ASCII ids (a UTF-16 surrogate pair among
//! them), a tenant, reordered, spaced and duplicated members, and the
//! optional request members (`op`, `validate`, a fractional `budget_ms`,
//! `warm`).
//!
//! `approx-requests.ndjson` / `approx-expected.ndjson` pin the schedules of
//! the constant-factor algorithms at real sizes: auto requests for the three
//! paper models at 60–400 jobs (some with few jobs per machine, so the 7/3's
//! large/medium pairing decides) and one 2,000-job request shaped like the
//! `solve-bound` benchmark's.
//!
//! Every `ci/*-requests.ndjson` / `*-expected.ndjson` pair is also replayed
//! here through [`serve`] — the driver both binaries run — so the goldens
//! hold in the tier-1 suite, not only in CI's binary replays.
//!
//! Any codec change that alters error bytes must consciously update the
//! fixtures — that is the point.

use ccs_core::{CcsError, Rational};
use ccs_engine::wire::{self, WireResponse};
use ccs_engine::{serve, Engine, NetdConfig, Service, SolveRequest, MAX_FRAME_BYTES};
use std::path::PathBuf;
use std::sync::mpsc;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../ci")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The error variants in the order they appear in `wire-error-frames.ndjson`.
fn golden_errors() -> Vec<(&'static str, CcsError)> {
    vec![
        ("deadline", CcsError::DeadlineExceeded),
        ("cancelled", CcsError::Cancelled),
        ("empty", CcsError::invalid_instance("instance has no jobs")),
        (
            "bad-schedule",
            CcsError::invalid_schedule("job 0 covered with load 1, needs exactly 2"),
        ),
        (
            "infeasible",
            CcsError::infeasible("more classes than class slots"),
        ),
        (
            "internal",
            CcsError::internal("solver 'x' reported makespan 3, but its schedule audits to 4"),
        ),
        (
            "bad-eps",
            CcsError::invalid_parameter("epsilon must be a positive finite number"),
        ),
        // Forward compatibility: a model id this build does not know is a
        // structured frame carrying the verbatim string, never a parse error.
        ("bad-model", CcsError::unsupported_model("quantum")),
        // Admission control sheds with the one variant a batch replay
        // cannot provoke on purpose.
        (
            "shed",
            CcsError::overloaded("queue budget 8 exhausted (8 requests in flight); retry later"),
        ),
        // The frame cap: the line is gone, so its id is not recoverable.
        (
            "",
            CcsError::invalid_parameter(format!("wire: frame exceeds {MAX_FRAME_BYTES} bytes")),
        ),
    ]
}

/// Every error variant serialises to exactly the committed golden bytes and
/// parses back to the identical error.
#[test]
fn error_frames_match_the_committed_goldens() {
    let golden = fixture("wire-error-frames.ndjson");
    let lines: Vec<&str> = golden.lines().collect();
    let cases = golden_errors();
    assert_eq!(lines.len(), cases.len(), "fixture drifted from the test");
    for ((id, error), line) in cases.into_iter().zip(lines) {
        let frame = wire::error_response_to_json(id, &error).to_json();
        assert_eq!(frame, line, "frame bytes for '{id}'");
        let back: WireResponse = wire::response_from_line(line).unwrap();
        assert_eq!(back.id, id);
        assert_eq!(back.outcome, Err(error), "round trip for '{id}'");
    }
}

/// Serves `requests` as one ordered client's whole input and returns every
/// byte written back.
fn replay(requests: &str) -> String {
    let config = NetdConfig {
        ordered: true,
        ..NetdConfig::default()
    };
    let service = Service::new(Engine::new().with_workers(2), config);
    let mut out = Vec::new();
    serve(
        &service,
        requests.as_bytes(),
        &mut out,
        || {},
        mpsc::channel(),
    )
    .expect("in-memory I/O");
    String::from_utf8(out).expect("frames are UTF-8")
}

/// Every committed request fixture reproduces its expected responses byte
/// for byte (the cross-check of CI's `ccs-serve --ordered` / `ccs-netd
/// --ordered` replays).
#[test]
fn every_golden_replays_byte_exact_through_a_connection() {
    for name in ["serve", "serve-error", "session", "ptas", "codec", "approx"] {
        let produced = replay(&fixture(&format!("{name}-requests.ndjson")));
        assert_eq!(
            produced,
            fixture(&format!("{name}-expected.ndjson")),
            "{name} golden"
        );
    }
}

/// The deadline golden is deterministic: a zero budget trips the first
/// checkpoint before any solver work, no matter how trivial the instance.
#[test]
fn zero_budget_requests_always_exceed_their_deadline() {
    let engine = Engine::new();
    let requests = fixture("serve-error-requests.ndjson");
    let request = wire::request_from_line(requests.lines().next().unwrap()).unwrap();
    assert_eq!(request.request.budget, Some(std::time::Duration::ZERO));
    for _ in 0..10 {
        match engine.solve(&request.instance, &request.request) {
            Err(CcsError::DeadlineExceeded) => {}
            other => panic!("zero budget must deterministically expire: {other:?}"),
        }
    }
    // The same instance without the budget solves fine — the error comes
    // from the budget, not the instance.
    let unbudgeted = SolveRequest {
        budget: None,
        ..request.request
    };
    let solution = engine.solve(&request.instance, &unbudgeted).unwrap();
    assert_eq!(solution.report.makespan, Rational::from_int(7));
}
