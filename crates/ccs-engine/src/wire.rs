//! The `ccs-wire/1` protocol: JSON forms of [`SolveRequest`], [`Solution`]
//! and [`CcsError`] plus the framing of the `ccs-serve` NDJSON service.
//!
//! One request per line on stdin, one response per line on stdout; requests
//! carry a caller-chosen `id` that the matching response echoes, so
//! responses may complete out of order.  The schema tag guards against
//! version skew: every frame carries `"schema": "ccs-wire/1"` and readers
//! reject frames with a different tag.
//!
//! ```json
//! {"schema":"ccs-wire/1","id":"r1","instance":{...},"model":"splittable",
//!  "accuracy":"auto","budget_ms":50,"validate":true}
//! ```
//!
//! ```json
//! {"schema":"ccs-wire/1","id":"r1","status":"ok","solution":{...}}
//! {"schema":"ccs-wire/1","id":"r1","status":"error","error":{"kind":"deadline_exceeded"}}
//! ```
//!
//! All rationals travel as exact `{"n": numerator, "d": denominator}` pairs
//! — makespans of the splittable/preemptive models are not generally
//! representable as floats and the whole workspace is built on exact
//! arithmetic; the wire format preserves that.
//!
//! Every frame is written through one [`JsonWriter`], straight from the
//! typed values, with each object's members in key order.  Inbound frames
//! are decoded from a [`parse`]d tree.

use crate::cache::CacheOutcome;
use crate::engine::Solution;
use crate::policy::{Accuracy, SolveRequest};
use ccs_core::json::{parse, write_error, JsonLine, JsonValue, JsonWriter};
use ccs_core::solver::SolveStats;
use ccs_core::{
    AnySchedule, CcsError, ClassRun, Guarantee, Instance, MoldableSchedule, NonPreemptiveSchedule,
    PreemptivePiece, PreemptiveSchedule, Rational, Result, SplittableSchedule,
};
use std::time::Duration;

/// The schema tag every `ccs-wire/1` frame carries.
pub const SCHEMA: &str = "ccs-wire/1";

fn err(msg: impl Into<String>) -> CcsError {
    CcsError::invalid_parameter(format!("wire: {}", msg.into()))
}

/// Writes one frame: an object whose members `members` writes.
fn frame_line(members: impl FnOnce(&mut JsonWriter)) -> JsonLine {
    JsonWriter::line(|w| {
        w.object(members);
    })
}

/// A parsed service request: the caller's correlation id, the instance and
/// the solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: String,
    /// Optional tenant label for per-tenant admission control (`ccs-netd`
    /// quotas); requests without one share the anonymous tenant.  Accepted
    /// and ignored by services without quotas, never echoed on responses.
    pub tenant: Option<String>,
    /// The instance to solve.
    pub instance: Instance,
    /// What to solve it for.
    pub request: SolveRequest,
}

/// One parsed inbound frame of a multi-frame service (`ccs-serve`,
/// `ccs-netd`): a solve request or a control frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// A solve request (no `"op"` member, or `"op": "solve"`).
    Request(WireRequest),
    /// A statistics poll (`"op": "stats"`): the service answers with a
    /// `status: "stats"` frame ([`stats_response_to_json`]) carrying the
    /// echoed id and a [`ServiceStats`] payload.
    Stats {
        /// Caller-chosen correlation id, echoed on the stats response.
        id: String,
    },
    /// A session frame (`"op": "session"`); see [`SessionFrame`].
    Session(SessionFrame),
}

/// A parsed `"op": "session"` frame, dispatched on its `"action"` member.
///
/// Sessions hold a live instance server-side; deltas mutate it and session
/// solves run against the current state, warm-started from the session's
/// previous solution of the same model.  Open/delta/close are answered with
/// `status: "session"` acknowledgements ([`SessionAck`]); session solves
/// with ordinary solution frames.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionFrame {
    /// `"action": "open"` — open a session over an initial instance (the
    /// `"instance"` member may be omitted for an empty session, in which
    /// case `"machines"` and `"class_slots"` are required).
    Open {
        /// Caller-chosen correlation id, echoed on the acknowledgement.
        id: String,
        /// Optional tenant label (session accounting; quotas in `ccs-netd`).
        tenant: Option<String>,
        /// The initial session state.
        instance: ccs_session::SessionInstance,
    },
    /// `"action": "delta"` — apply the `"deltas"` array atomically, in
    /// order, to the session's instance.
    Delta {
        /// Caller-chosen correlation id, echoed on the acknowledgement.
        id: String,
        /// The session to mutate.
        session: String,
        /// The mutations, applied in order; the first invalid delta aborts
        /// the frame (earlier deltas of the frame stay applied).
        deltas: Vec<ccs_session::InstanceDelta>,
    },
    /// `"action": "solve"` — solve the session's current instance.  The
    /// request's `warm` member is ignored: the service seeds the hint from
    /// the session's own solution ledger.
    Solve {
        /// Caller-chosen correlation id, echoed on the solution frame.
        id: String,
        /// The session to solve.
        session: String,
        /// Model, accuracy, budget and validation policy of the solve.
        request: SolveRequest,
    },
    /// `"action": "close"` — close the session and drop its state.
    Close {
        /// Caller-chosen correlation id, echoed on the acknowledgement.
        id: String,
        /// The session to close.
        session: String,
    },
}

impl SessionFrame {
    /// The caller-chosen correlation id of this frame.
    pub fn id(&self) -> &str {
        match self {
            SessionFrame::Open { id, .. }
            | SessionFrame::Delta { id, .. }
            | SessionFrame::Solve { id, .. }
            | SessionFrame::Close { id, .. } => id,
        }
    }
}

/// The `status: "session"` acknowledgement of an open/delta/close frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionAck {
    /// The session's state after an open or delta frame.
    State {
        /// The echoed correlation id.
        id: String,
        /// The session id (server-assigned, `"s1"`, `"s2"`, …).
        session: String,
        /// Live job count.
        jobs: u64,
        /// Machine count.
        machines: u64,
        /// Canonical fingerprint of the current state.
        fingerprint: ccs_core::Fingerprint,
    },
    /// The session was closed.
    Closed {
        /// The echoed correlation id.
        id: String,
        /// The id of the (now closed) session.
        session: String,
    },
}

/// An owned mirror of [`Solution`] for the receiving side of the protocol
/// ([`Solution::solver`] is a `&'static str`, which cannot be materialised
/// from parsed input).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSolution {
    /// Name of the solver that produced the schedule.
    pub solver: String,
    /// The guarantee that solver ran under.
    pub guarantee: Guarantee,
    /// The makespan of the returned schedule.
    pub makespan: Rational,
    /// The solver's lower bound on the optimum.
    pub lower_bound: Rational,
    /// Algorithm counters.
    pub stats: SolveStats,
    /// The schedule itself.
    pub schedule: AnySchedule,
    /// Whether the engine's solution cache served this request; absent on
    /// engines without a cache, so uncached deployments emit byte-identical
    /// frames to previous protocol revisions.
    pub cache: Option<CacheOutcome>,
}

impl From<&Solution> for WireSolution {
    fn from(sol: &Solution) -> Self {
        WireSolution {
            solver: sol.solver.to_string(),
            guarantee: sol.guarantee,
            makespan: sol.report.makespan,
            lower_bound: sol.report.lower_bound,
            stats: sol.report.stats,
            schedule: sol.report.schedule.clone(),
            cache: sol.cache,
        }
    }
}

/// A parsed response frame: the echoed id plus either a solution or a
/// structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The correlation id of the request this answers.
    pub id: String,
    /// The outcome.
    pub outcome: std::result::Result<WireSolution, CcsError>,
}

// ---------------------------------------------------------------------------
// Rationals.
// ---------------------------------------------------------------------------

fn write_rational(w: &mut JsonWriter, r: Rational) {
    w.object(|w| {
        w.key("d").int(r.denom());
        w.key("n").int(r.numer());
    });
}

fn rational_from_json(value: &JsonValue) -> Result<Rational> {
    let int = |key: &str| match value.get(key) {
        Some(JsonValue::Int(v)) => Ok(*v),
        _ => Err(err(format!("rational needs an integer '{key}'"))),
    };
    let d = int("d")?;
    if d == 0 {
        return Err(err("rational denominator must not be zero"));
    }
    Ok(Rational::new(int("n")?, d))
}

// ---------------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------------

/// Wire form of a canonical fingerprint: 32 lowercase hex digits (the
/// 128-bit value, zero-padded).
pub fn fingerprint_to_hex(fp: ccs_core::Fingerprint) -> String {
    format!("{:032x}", fp.0)
}

/// Parses the wire form produced by [`fingerprint_to_hex`].
pub fn fingerprint_from_hex(hex: &str) -> Result<ccs_core::Fingerprint> {
    if hex.len() != 32 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(err("fingerprint must be 32 lowercase hex digits"));
    }
    u128::from_str_radix(hex, 16)
        .map(ccs_core::Fingerprint)
        .map_err(|_| err("fingerprint must be 32 lowercase hex digits"))
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// Writes the value of the `accuracy` member.
fn write_accuracy(w: &mut JsonWriter, accuracy: Accuracy) {
    match accuracy {
        Accuracy::Auto => w.str("auto"),
        Accuracy::Exact => w.str("exact"),
        Accuracy::Epsilon(eps) => w.object(|w| {
            w.key("epsilon").f64(eps);
        }),
    };
}

/// Writes the `budget_ms` member of a request with a budget.
fn write_budget(w: &mut JsonWriter, request: &SolveRequest) {
    if let Some(budget) = request.budget {
        write_budget_ms(w.key("budget_ms"), budget);
    }
}

/// Writes the solve parameters that sort after every other member of the
/// frames carrying them: `validate` (when set) and `warm`.
fn write_validate_and_warm(w: &mut JsonWriter, request: &SolveRequest) {
    if request.validate {
        w.key("validate").bool(true);
    }
    if let Some(warm) = request.warm {
        w.key("warm").object(|w| {
            write_rational(w.key("makespan"), warm.makespan);
            w.key("parent").str(&fingerprint_to_hex(warm.parent));
        });
    }
}

fn warm_from_json(value: &JsonValue) -> Result<crate::policy::WarmStart> {
    Ok(crate::policy::WarmStart {
        parent: fingerprint_from_hex(
            value
                .get("parent")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| err("'warm' needs a string 'parent' fingerprint"))?,
        )?,
        makespan: rational_from_json(
            value
                .get("makespan")
                .ok_or_else(|| err("'warm' needs a 'makespan'"))?,
        )?,
    })
}

/// Serialises a request frame to one NDJSON line (no trailing newline).
pub fn request_to_line(req: &WireRequest) -> String {
    frame_line(|w| {
        write_accuracy(w.key("accuracy"), req.request.accuracy);
        write_budget(w, &req.request);
        w.key("id").str(&req.id);
        req.instance.write_json(w.key("instance"));
        w.key("model").str(req.request.model.name());
        w.key("schema").str(SCHEMA);
        if let Some(tenant) = &req.tenant {
            w.key("tenant").str(tenant);
        }
        write_validate_and_warm(w, &req.request);
    })
    .into_string()
}

/// Encodes a budget as `budget_ms`: whole-millisecond budgets travel as
/// plain integers (exact at any magnitude — several consumers treat
/// `budget_ms` as integral), sub-millisecond resolutions as fractional
/// milliseconds.
///
/// The fractional value is computed from the budget's exact nanosecond
/// count in one rounding step; together with the nanosecond-rounding decode
/// in [`budget_ms_from_json`] this round-trips every budget below 2⁵¹ ns
/// (≈26 days) bit-exactly — one rounding per direction keeps the combined
/// error under half a nanosecond there — instead of the double-rounded
/// `as_secs_f64() * 1000.0` it replaces.  Beyond that, only budgets on a
/// whole-millisecond grid (the integer arm) stay exact; fractional ones may
/// drift by a few nanoseconds, which no deadline can observe at that scale.
fn write_budget_ms(w: &mut JsonWriter, budget: Duration) {
    let nanos = budget.as_nanos();
    if nanos.is_multiple_of(1_000_000) {
        w.int((nanos / 1_000_000) as i128);
    } else {
        w.f64(nanos as f64 / 1e6);
    }
}

/// Decodes `budget_ms` (see [`write_budget_ms`]): integers become exact
/// whole milliseconds, fractional values are rounded to the nearest
/// nanosecond.
fn budget_ms_from_json(value: &JsonValue) -> Result<Duration> {
    match value {
        JsonValue::Int(ms) if *ms >= 0 => {
            let ms =
                u64::try_from(*ms).map_err(|_| err("'budget_ms' exceeds the supported range"))?;
            Ok(Duration::from_millis(ms))
        }
        JsonValue::Float(ms) if ms.is_finite() && *ms >= 0.0 => {
            // A fractional budget whose nanosecond count does not fit u64
            // gets the same structured error as an oversized integer —
            // previously the `as u64` cast silently saturated it to ~584
            // years, accepting budgets the integer arm rejects.
            let nanos = (ms * 1e6).round();
            if nanos >= u64::MAX as f64 {
                return Err(err("'budget_ms' exceeds the supported range"));
            }
            Ok(Duration::from_nanos(nanos as u64))
        }
        _ => Err(err("'budget_ms' must be a non-negative number")),
    }
}

/// Resolves a wire model id through the model registry.  Ids this build
/// does not know become [`CcsError::UnsupportedModel`] — a structured
/// `{"kind":"unsupported-model"}` error frame on the wire, never a parse
/// failure — so old clients talking to newer builds (and vice versa) get an
/// answer they can dispatch on.
fn model_from_name(name: &str) -> Result<ccs_core::ScheduleKind> {
    ccs_core::ModelSpec::from_wire(name)
        .map(|spec| spec.kind)
        .ok_or_else(|| ccs_core::CcsError::unsupported_model(name))
}

fn check_schema(value: &JsonValue) -> Result<()> {
    match value.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => Ok(()),
        Some(other) => Err(err(format!(
            "unsupported schema '{other}' (this build speaks '{SCHEMA}')"
        ))),
        None => Err(err(format!("missing schema tag (expected '{SCHEMA}')"))),
    }
}

/// Parses a request frame.
pub fn request_from_json(value: &JsonValue) -> Result<WireRequest> {
    check_schema(value)?;
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("request needs a string 'id'"))?
        .to_string();
    let tenant = match value.get("tenant") {
        None => None,
        Some(t) => Some(
            t.as_str()
                .ok_or_else(|| err("'tenant' must be a string"))?
                .to_string(),
        ),
    };
    let instance = Instance::from_json_value(
        value
            .get("instance")
            .ok_or_else(|| err("request needs an 'instance'"))?,
    )?;
    let request = solve_params_from_json(value)?;
    Ok(WireRequest {
        id,
        tenant,
        instance,
        request,
    })
}

/// Parses the solve parameters shared by plain requests and session solves:
/// `model` (required), `accuracy`, `budget_ms`, `validate` and `warm`.
fn solve_params_from_json(value: &JsonValue) -> Result<SolveRequest> {
    let model = value
        .get("model")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("request needs a string 'model'"))?;
    let model = model_from_name(model)?;

    let mut request = match value.get("accuracy") {
        None => SolveRequest::auto(model),
        Some(JsonValue::Str(s)) if s == "auto" => SolveRequest::auto(model),
        Some(JsonValue::Str(s)) if s == "exact" => SolveRequest::exact(model),
        Some(obj) if obj.get("epsilon").is_some() => {
            let eps = obj
                .get("epsilon")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| err("'epsilon' must be a number"))?;
            SolveRequest::epsilon(model, eps)?
        }
        Some(_) => {
            return Err(err(
                "accuracy must be \"auto\", \"exact\" or {\"epsilon\": <number>}",
            ))
        }
    };
    if let Some(budget) = value.get("budget_ms") {
        request = request.with_budget(budget_ms_from_json(budget)?);
    }
    if let Some(validate) = value.get("validate") {
        let flag = validate
            .as_bool()
            .ok_or_else(|| err("'validate' must be a boolean"))?;
        request = request.with_validate(flag);
    }
    if let Some(warm) = value.get("warm") {
        request = request.with_warm(warm_from_json(warm)?);
    }
    Ok(request)
}

/// Parses one NDJSON request line.
pub fn request_from_line(line: &str) -> Result<WireRequest> {
    request_from_json(&parse(line)?)
}

/// Parses an inbound frame of a multi-frame service: dispatches on the
/// optional `"op"` member (`"solve"` — the default — or `"stats"`).
pub fn frame_from_json(value: &JsonValue) -> Result<WireFrame> {
    check_schema(value)?;
    match value.get("op").map(|op| {
        op.as_str()
            .ok_or_else(|| err("'op' must be a string"))
            .map(str::to_string)
    }) {
        None => Ok(WireFrame::Request(request_from_json(value)?)),
        Some(op) => match op?.as_str() {
            "solve" => Ok(WireFrame::Request(request_from_json(value)?)),
            "stats" => Ok(WireFrame::Stats {
                id: value
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("stats frame needs a string 'id'"))?
                    .to_string(),
            }),
            "session" => Ok(WireFrame::Session(session_frame_from_json(value)?)),
            other => Err(err(format!("unknown op '{other}'"))),
        },
    }
}

/// Parses one NDJSON inbound frame ([`frame_from_json`]).
pub fn frame_from_line(line: &str) -> Result<WireFrame> {
    frame_from_json(&parse(line)?)
}

// ---------------------------------------------------------------------------
// Session frames.
// ---------------------------------------------------------------------------

fn session_frame_from_json(value: &JsonValue) -> Result<SessionFrame> {
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("session frame needs a string 'id'"))?
        .to_string();
    let session = || {
        value
            .get("session")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| err("session frame needs a string 'session'"))
    };
    let action = value
        .get("action")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("session frame needs a string 'action'"))?;
    match action {
        "open" => {
            let tenant = match value.get("tenant") {
                None => None,
                Some(t) => Some(
                    t.as_str()
                        .ok_or_else(|| err("'tenant' must be a string"))?
                        .to_string(),
                ),
            };
            let instance = match value.get("instance") {
                Some(inst) => {
                    ccs_session::SessionInstance::from_instance(&Instance::from_json_value(inst)?)
                }
                None => {
                    let dim = |key: &str| {
                        value.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                            err(format!("open without an 'instance' needs a count '{key}'"))
                        })
                    };
                    ccs_session::SessionInstance::new(dim("machines")?, dim("class_slots")?)?
                }
            };
            Ok(SessionFrame::Open {
                id,
                tenant,
                instance,
            })
        }
        "delta" => {
            let deltas = value
                .get("deltas")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("delta frame needs a 'deltas' array"))?
                .iter()
                .map(ccs_session::delta_from_json)
                .collect::<Result<Vec<_>>>()?;
            Ok(SessionFrame::Delta {
                id,
                session: session()?,
                deltas,
            })
        }
        "solve" => {
            let mut request = solve_params_from_json(value)?;
            // Session solves are warm-started from the session's own
            // ledger; a client-supplied hint is parsed but discarded.
            request.warm = None;
            Ok(SessionFrame::Solve {
                id,
                session: session()?,
                request,
            })
        }
        "close" => Ok(SessionFrame::Close {
            id,
            session: session()?,
        }),
        other => Err(err(format!("unknown session action '{other}'"))),
    }
}

/// Serialises a session frame to one NDJSON line (no trailing newline);
/// [`frame_from_json`] parses it back.
pub fn session_frame_to_line(frame: &SessionFrame) -> String {
    frame_line(|w| match frame {
        SessionFrame::Open {
            id,
            tenant,
            instance,
        } => {
            w.key("action").str("open");
            match instance.materialize() {
                Ok(inst) => {
                    w.key("id").str(id);
                    inst.write_json(w.key("instance"));
                }
                // Empty sessions have no materialisable instance; the wire
                // form carries the dimensions instead.
                Err(_) => {
                    w.key("class_slots").u64(instance.class_slots());
                    w.key("id").str(id);
                    w.key("machines").u64(instance.machines());
                }
            }
            w.key("op").str("session");
            w.key("schema").str(SCHEMA);
            if let Some(tenant) = tenant {
                w.key("tenant").str(tenant);
            }
        }
        SessionFrame::Delta {
            id,
            session,
            deltas,
        } => {
            w.key("action").str("delta");
            w.key("deltas").array(|w| {
                for delta in deltas {
                    ccs_session::write_delta(w, delta);
                }
            });
            w.key("id").str(id);
            w.key("op").str("session");
            w.key("schema").str(SCHEMA);
            w.key("session").str(session);
        }
        SessionFrame::Solve {
            id,
            session,
            request,
        } => {
            write_accuracy(w.key("accuracy"), request.accuracy);
            w.key("action").str("solve");
            write_budget(w, request);
            w.key("id").str(id);
            w.key("model").str(request.model.name());
            w.key("op").str("session");
            w.key("schema").str(SCHEMA);
            w.key("session").str(session);
            write_validate_and_warm(w, request);
        }
        SessionFrame::Close { id, session } => {
            w.key("action").str("close");
            w.key("id").str(id);
            w.key("op").str("session");
            w.key("schema").str(SCHEMA);
            w.key("session").str(session);
        }
    })
    .into_string()
}

/// Serialises a `status: "session"` acknowledgement to one NDJSON line.
pub fn session_ack_to_line(ack: &SessionAck) -> String {
    frame_line(|w| match ack {
        SessionAck::State {
            id,
            session,
            jobs,
            machines,
            fingerprint,
        } => {
            w.key("fingerprint").str(&fingerprint_to_hex(*fingerprint));
            w.key("id").str(id);
            w.key("jobs").u64(*jobs);
            w.key("machines").u64(*machines);
            w.key("schema").str(SCHEMA);
            w.key("session").str(session);
            w.key("status").str("session");
        }
        SessionAck::Closed { id, session } => {
            w.key("closed").bool(true);
            w.key("id").str(id);
            w.key("schema").str(SCHEMA);
            w.key("session").str(session);
            w.key("status").str("session");
        }
    })
    .into_string()
}

/// Parses the wire form written by [`session_ack_to_line`].
pub fn session_ack_from_json(value: &JsonValue) -> Result<SessionAck> {
    check_schema(value)?;
    let string = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| err(format!("session ack needs a string '{key}'")))
    };
    if string("status")? != "session" {
        return Err(err("session ack must have status \"session\""));
    }
    let id = string("id")?;
    let session = string("session")?;
    match value.get("closed") {
        Some(closed) => {
            if closed.as_bool() != Some(true) {
                return Err(err("'closed' must be true when present"));
            }
            Ok(SessionAck::Closed { id, session })
        }
        None => {
            let count = |key: &str| {
                value
                    .get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| err(format!("session ack needs a count '{key}'")))
            };
            Ok(SessionAck::State {
                id,
                session,
                jobs: count("jobs")?,
                machines: count("machines")?,
                fingerprint: fingerprint_from_hex(
                    value
                        .get("fingerprint")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| err("session ack needs a string 'fingerprint'"))?,
                )?,
            })
        }
    }
}

/// Parses one NDJSON session acknowledgement line.
pub fn session_ack_from_line(line: &str) -> Result<SessionAck> {
    session_ack_from_json(&parse(line)?)
}

// ---------------------------------------------------------------------------
// Guarantees, stats, schedules.
// ---------------------------------------------------------------------------

fn write_guarantee(w: &mut JsonWriter, g: Guarantee) {
    match g {
        Guarantee::Exact => w.str("exact"),
        Guarantee::Heuristic => w.str("heuristic"),
        Guarantee::Factor(f) => w.object(|w| write_rational(w.key("factor"), f)),
    };
}

fn guarantee_from_json(value: &JsonValue) -> Result<Guarantee> {
    match value {
        JsonValue::Str(s) if s == "exact" => Ok(Guarantee::Exact),
        JsonValue::Str(s) if s == "heuristic" => Ok(Guarantee::Heuristic),
        obj => match obj.get("factor") {
            Some(f) => Ok(Guarantee::Factor(rational_from_json(f)?)),
            None => Err(err(
                "guarantee must be \"exact\", \"heuristic\" or {\"factor\": ...}",
            )),
        },
    }
}

fn write_stats(w: &mut JsonWriter, stats: &SolveStats) {
    w.object(|w| {
        w.key("configurations").u64(stats.configurations as u64);
        w.key("guesses_evaluated")
            .u64(stats.guesses_evaluated as u64);
        w.key("search_iterations")
            .u64(stats.search_iterations as u64);
    });
}

fn stats_from_json(value: &JsonValue) -> Result<SolveStats> {
    let count = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| err(format!("stats need a count '{key}'")))
    };
    Ok(SolveStats {
        search_iterations: count("search_iterations")?,
        guesses_evaluated: count("guesses_evaluated")?,
        configurations: count("configurations")?,
    })
}

fn pieces_from_json(value: &JsonValue) -> Result<Vec<(usize, Rational)>> {
    value
        .as_array()
        .ok_or_else(|| err("'pieces' must be an array"))?
        .iter()
        .map(|piece| {
            let job = piece
                .get("job")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| err("piece needs a 'job'"))? as usize;
            let amount = rational_from_json(
                piece
                    .get("amount")
                    .ok_or_else(|| err("piece needs an 'amount'"))?,
            )?;
            Ok((job, amount))
        })
        .collect()
}

fn write_schedule(w: &mut JsonWriter, schedule: &AnySchedule) {
    w.object(|w| match schedule {
        AnySchedule::NonPreemptive(s) => {
            w.key("assignment").array(|w| {
                for &machine in s.assignment() {
                    w.u64(machine);
                }
            });
            w.key("kind").str("non-preemptive");
        }
        AnySchedule::Splittable(s) => {
            w.key("explicit").array(|w| {
                for em in s.explicit() {
                    w.object(|w| {
                        w.key("machine").u64(em.machine);
                        w.key("pieces").array(|w| {
                            for &(job, amount) in &em.pieces {
                                w.object(|w| {
                                    write_rational(w.key("amount"), amount);
                                    w.key("job").u64(job as u64);
                                });
                            }
                        });
                    });
                }
            });
            w.key("kind").str("splittable");
            w.key("runs").array(|w| {
                for run in s.runs() {
                    w.object(|w| {
                        write_rational(w.key("chunk"), run.chunk);
                        w.key("class").u64(run.class as u64);
                        w.key("count").u64(run.count);
                        w.key("first_machine").u64(run.first_machine);
                        write_rational(w.key("offset"), run.offset);
                    });
                }
            });
        }
        AnySchedule::Preemptive(s) => {
            w.key("kind").str("preemptive");
            w.key("machines").array(|w| {
                for pieces in s.machines() {
                    w.array(|w| {
                        for piece in pieces {
                            w.object(|w| {
                                w.key("job").u64(piece.job as u64);
                                write_rational(w.key("len"), piece.len);
                                write_rational(w.key("start"), piece.start);
                            });
                        }
                    });
                }
            });
        }
        AnySchedule::Moldable(s) => {
            w.key("choices").array(|w| {
                for (shape, machines) in s.choices() {
                    w.object(|w| {
                        w.key("machines").array(|w| {
                            for &machine in machines {
                                w.u64(machine);
                            }
                        });
                        w.key("shape").u64(*shape as u64);
                    });
                }
            });
            w.key("kind").str("moldable");
        }
    });
}

fn schedule_from_json(value: &JsonValue) -> Result<AnySchedule> {
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("schedule needs a string 'kind'"))?;
    match kind {
        "non-preemptive" => {
            let assignment = value
                .get("assignment")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("non-preemptive schedule needs an 'assignment' array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| err("'assignment' entries must be machine indices"))
                })
                .collect::<Result<Vec<u64>>>()?;
            Ok(AnySchedule::NonPreemptive(NonPreemptiveSchedule::new(
                assignment,
            )))
        }
        "splittable" => {
            let mut schedule = SplittableSchedule::new();
            for run in value
                .get("runs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("splittable schedule needs a 'runs' array"))?
            {
                let int = |key: &str| {
                    run.get(key)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| err(format!("class run needs '{key}'")))
                };
                schedule.push_run(ClassRun {
                    first_machine: int("first_machine")?,
                    count: int("count")?,
                    class: int("class")? as usize,
                    offset: rational_from_json(
                        run.get("offset").ok_or_else(|| err("run needs 'offset'"))?,
                    )?,
                    chunk: rational_from_json(
                        run.get("chunk").ok_or_else(|| err("run needs 'chunk'"))?,
                    )?,
                });
            }
            for machine in value
                .get("explicit")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("splittable schedule needs an 'explicit' array"))?
            {
                let index = machine
                    .get("machine")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| err("explicit machine needs a 'machine' index"))?;
                let pieces = pieces_from_json(
                    machine
                        .get("pieces")
                        .ok_or_else(|| err("explicit machine needs 'pieces'"))?,
                )?;
                schedule.push_explicit(index, pieces);
            }
            Ok(AnySchedule::Splittable(schedule))
        }
        "preemptive" => {
            let machines = value
                .get("machines")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("preemptive schedule needs a 'machines' array"))?
                .iter()
                .map(|pieces| {
                    pieces
                        .as_array()
                        .ok_or_else(|| err("each machine must be an array of pieces"))?
                        .iter()
                        .map(|piece| {
                            let job = piece
                                .get("job")
                                .and_then(JsonValue::as_u64)
                                .ok_or_else(|| err("piece needs a 'job'"))?
                                as usize;
                            let start = rational_from_json(
                                piece
                                    .get("start")
                                    .ok_or_else(|| err("piece needs a 'start'"))?,
                            )?;
                            let len = rational_from_json(
                                piece.get("len").ok_or_else(|| err("piece needs a 'len'"))?,
                            )?;
                            Ok(PreemptivePiece::new(job, start, len))
                        })
                        .collect::<Result<Vec<PreemptivePiece>>>()
                })
                .collect::<Result<Vec<Vec<PreemptivePiece>>>>()?;
            Ok(AnySchedule::Preemptive(PreemptiveSchedule::new(machines)))
        }
        "moldable" => {
            let mut schedule = MoldableSchedule::new();
            for choice in value
                .get("choices")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("moldable schedule needs a 'choices' array"))?
            {
                let shape = choice
                    .get("shape")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| err("choice needs a 'shape' index"))?
                    as usize;
                let machines = choice
                    .get("machines")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| err("choice needs a 'machines' array"))?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .ok_or_else(|| err("'machines' entries must be machine indices"))
                    })
                    .collect::<Result<Vec<u64>>>()?;
                schedule.push_choice(shape, machines);
            }
            Ok(AnySchedule::Moldable(schedule))
        }
        other => Err(err(format!("unknown schedule kind '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// The members of a solution object, borrowed from a [`Solution`] or a
/// [`WireSolution`].
struct SolutionParts<'a> {
    solver: &'a str,
    guarantee: Guarantee,
    makespan: Rational,
    lower_bound: Rational,
    stats: &'a SolveStats,
    schedule: &'a AnySchedule,
    cache: Option<CacheOutcome>,
}

fn solution_frame(id: &str, sol: SolutionParts<'_>) -> JsonLine {
    frame_line(|w| {
        w.key("id").str(id);
        w.key("schema").str(SCHEMA);
        w.key("solution").object(|w| {
            if let Some(cache) = sol.cache {
                w.key("cache").str(cache.name());
            }
            write_guarantee(w.key("guarantee"), sol.guarantee);
            write_rational(w.key("lower_bound"), sol.lower_bound);
            write_rational(w.key("makespan"), sol.makespan);
            write_schedule(w.key("schedule"), sol.schedule);
            w.key("solver").str(sol.solver);
            write_stats(w.key("stats"), sol.stats);
        });
        w.key("status").str("ok");
    })
}

fn cache_from_json(value: &JsonValue) -> Result<CacheOutcome> {
    value
        .as_str()
        .and_then(CacheOutcome::from_name)
        .ok_or_else(|| err("'cache' must be \"hit\" or \"miss\""))
}

fn wire_solution_from_json(value: &JsonValue) -> Result<WireSolution> {
    Ok(WireSolution {
        cache: value.get("cache").map(cache_from_json).transpose()?,
        solver: value
            .get("solver")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("solution needs a string 'solver'"))?
            .to_string(),
        guarantee: guarantee_from_json(
            value
                .get("guarantee")
                .ok_or_else(|| err("solution needs a 'guarantee'"))?,
        )?,
        makespan: rational_from_json(
            value
                .get("makespan")
                .ok_or_else(|| err("solution needs a 'makespan'"))?,
        )?,
        lower_bound: rational_from_json(
            value
                .get("lower_bound")
                .ok_or_else(|| err("solution needs a 'lower_bound'"))?,
        )?,
        stats: stats_from_json(
            value
                .get("stats")
                .ok_or_else(|| err("solution needs 'stats'"))?,
        )?,
        schedule: schedule_from_json(
            value
                .get("schedule")
                .ok_or_else(|| err("solution needs a 'schedule'"))?,
        )?,
    })
}

/// Serialises a success response for an engine [`Solution`].
pub fn solution_to_json(id: &str, solution: &Solution) -> JsonLine {
    let report = &solution.report;
    solution_frame(
        id,
        SolutionParts {
            solver: solution.solver,
            guarantee: solution.guarantee,
            makespan: report.makespan,
            lower_bound: report.lower_bound,
            stats: &report.stats,
            schedule: &report.schedule,
            cache: solution.cache,
        },
    )
}

/// Serialises an error response.
pub fn error_response_to_json(id: &str, error: &CcsError) -> JsonLine {
    frame_line(|w| {
        write_error(w.key("error"), error);
        w.key("id").str(id);
        w.key("schema").str(SCHEMA);
        w.key("status").str("error");
    })
}

/// Serialises a response frame (success or error).
pub fn wire_response_to_json(response: &WireResponse) -> JsonLine {
    match &response.outcome {
        Ok(sol) => solution_frame(
            &response.id,
            SolutionParts {
                solver: &sol.solver,
                guarantee: sol.guarantee,
                makespan: sol.makespan,
                lower_bound: sol.lower_bound,
                stats: &sol.stats,
                schedule: &sol.schedule,
                cache: sol.cache,
            },
        ),
        Err(error) => error_response_to_json(&response.id, error),
    }
}

/// Parses a response frame.
pub fn response_from_json(value: &JsonValue) -> Result<WireResponse> {
    check_schema(value)?;
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("response needs a string 'id'"))?
        .to_string();
    let status = value
        .get("status")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("response needs a string 'status'"))?;
    let outcome = match status {
        "ok" => Ok(wire_solution_from_json(
            value
                .get("solution")
                .ok_or_else(|| err("ok response needs a 'solution'"))?,
        )?),
        "error" => Err(ccs_core::json::error_from_json(
            value
                .get("error")
                .ok_or_else(|| err("error response needs an 'error'"))?,
        )?),
        other => return Err(err(format!("unknown status '{other}'"))),
    };
    Ok(WireResponse { id, outcome })
}

/// Parses one NDJSON response line.
pub fn response_from_line(line: &str) -> Result<WireResponse> {
    response_from_json(&parse(line)?)
}

// ---------------------------------------------------------------------------
// Service statistics frames.
// ---------------------------------------------------------------------------

/// Per-tenant admission counters of a quota-enforcing service.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant label (`""` is the anonymous tenant of untagged requests).
    pub tenant: String,
    /// Requests admitted to the engine.
    pub admitted: u64,
    /// Admitted requests that have completed (ok or error).
    pub completed: u64,
    /// Requests shed by the per-tenant quota.
    pub shed: u64,
    /// Sessions currently open for this tenant.
    pub sessions: u64,
}

/// The payload of a `status: "stats"` frame: engine counters plus the
/// serving layer's admission-control state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// The engine's aggregate counters ([`crate::Engine::stats`]).
    pub engine: ccs_core::StatsSnapshot,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Requests admitted to the engine since startup.
    pub admitted: u64,
    /// Admitted requests that have completed (ok or error).
    pub completed: u64,
    /// Requests shed because the global queue budget was exhausted.
    pub shed_overload: u64,
    /// Requests shed because a per-tenant quota was exceeded.
    pub shed_quota: u64,
    /// Sessions opened since startup (`op: "session"` frames).
    pub sessions_opened: u64,
    /// Sessions currently open.
    pub sessions_active: u64,
    /// Periodic stderr stats lines emitted so far (`ccs-netd`'s
    /// `--stats-every` ticker); zero when periodic stats are off or for
    /// services without the ticker (`ccs-serve`).
    pub stats_ticks: u64,
    /// Per-tenant counters, sorted by tenant label.  Only tenants that sent
    /// at least one request appear; the ledger is kept whether or not
    /// quotas are enforced, with untagged requests under the `""` tenant.
    pub tenants: Vec<TenantStats>,
}

fn write_snapshot(w: &mut JsonWriter, snap: &ccs_core::StatsSnapshot) {
    w.object(|w| {
        w.key("cache_evictions").u64(snap.cache_evictions);
        w.key("cache_hits").u64(snap.cache_hits);
        w.key("cache_misses").u64(snap.cache_misses);
        w.key("checkpoints").u64(snap.checkpoints);
        w.key("configurations").u64(snap.configurations);
        w.key("guesses_evaluated").u64(snap.guesses_evaluated);
        w.key("queue_depth").u64(snap.queue_depth);
        w.key("search_iterations").u64(snap.search_iterations);
        w.key("shed").u64(snap.shed);
        w.key("solves").u64(snap.solves);
        w.key("warm_hits").u64(snap.warm_hits);
        w.key("warm_misses").u64(snap.warm_misses);
    });
}

fn snapshot_from_json(value: &JsonValue) -> Result<ccs_core::StatsSnapshot> {
    let count = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err(format!("engine stats need a count '{key}'")))
    };
    Ok(ccs_core::StatsSnapshot {
        solves: count("solves")?,
        checkpoints: count("checkpoints")?,
        search_iterations: count("search_iterations")?,
        guesses_evaluated: count("guesses_evaluated")?,
        configurations: count("configurations")?,
        shed: count("shed")?,
        queue_depth: count("queue_depth")?,
        cache_hits: count("cache_hits")?,
        cache_misses: count("cache_misses")?,
        cache_evictions: count("cache_evictions")?,
        warm_hits: count("warm_hits")?,
        warm_misses: count("warm_misses")?,
    })
}

/// Serialises a `status: "stats"` response frame for a [`WireFrame::Stats`]
/// poll.
pub fn stats_response_to_json(id: &str, stats: &ServiceStats) -> JsonLine {
    frame_line(|w| {
        w.key("id").str(id);
        w.key("schema").str(SCHEMA);
        w.key("stats").object(|w| {
            w.key("active_connections").u64(stats.active_connections);
            w.key("admitted").u64(stats.admitted);
            w.key("completed").u64(stats.completed);
            w.key("connections").u64(stats.connections);
            write_snapshot(w.key("engine"), &stats.engine);
            w.key("sessions_active").u64(stats.sessions_active);
            w.key("sessions_opened").u64(stats.sessions_opened);
            w.key("shed_overload").u64(stats.shed_overload);
            w.key("shed_quota").u64(stats.shed_quota);
            w.key("stats_ticks").u64(stats.stats_ticks);
            w.key("tenants").array(|w| {
                for t in &stats.tenants {
                    w.object(|w| {
                        w.key("admitted").u64(t.admitted);
                        w.key("completed").u64(t.completed);
                        w.key("sessions").u64(t.sessions);
                        w.key("shed").u64(t.shed);
                        w.key("tenant").str(&t.tenant);
                    });
                }
            });
        });
        w.key("status").str("stats");
    })
}

/// Parses a `status: "stats"` response frame back into its id and payload.
pub fn stats_response_from_json(value: &JsonValue) -> Result<(String, ServiceStats)> {
    check_schema(value)?;
    let id = value
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("stats response needs a string 'id'"))?
        .to_string();
    match value.get("status").and_then(JsonValue::as_str) {
        Some("stats") => {}
        _ => return Err(err("stats response needs status \"stats\"")),
    }
    let payload = value
        .get("stats")
        .ok_or_else(|| err("stats response needs a 'stats' payload"))?;
    let count = |key: &str| {
        payload
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err(format!("stats payload needs a count '{key}'")))
    };
    let tenants = payload
        .get("tenants")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| err("stats payload needs a 'tenants' array"))?
        .iter()
        .map(|t| {
            let field = |key: &str| {
                t.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| err(format!("tenant stats need a count '{key}'")))
            };
            Ok(TenantStats {
                tenant: t
                    .get("tenant")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| err("tenant stats need a string 'tenant'"))?
                    .to_string(),
                admitted: field("admitted")?,
                completed: field("completed")?,
                shed: field("shed")?,
                sessions: field("sessions")?,
            })
        })
        .collect::<Result<Vec<TenantStats>>>()?;
    Ok((
        id,
        ServiceStats {
            engine: snapshot_from_json(
                payload
                    .get("engine")
                    .ok_or_else(|| err("stats payload needs 'engine' counters"))?,
            )?,
            connections: count("connections")?,
            active_connections: count("active_connections")?,
            admitted: count("admitted")?,
            completed: count("completed")?,
            shed_overload: count("shed_overload")?,
            shed_quota: count("shed_quota")?,
            sessions_opened: count("sessions_opened")?,
            sessions_active: count("sessions_active")?,
            stats_ticks: count("stats_ticks")?,
            tenants,
        },
    ))
}

/// Parses one NDJSON stats response line.
pub fn stats_response_from_line(line: &str) -> Result<(String, ServiceStats)> {
    stats_response_from_json(&parse(line)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::ScheduleKind;

    fn sample_request() -> WireRequest {
        WireRequest {
            id: "req-1".to_string(),
            tenant: None,
            instance: instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2)]).unwrap(),
            request: SolveRequest::epsilon(ScheduleKind::Splittable, 0.5)
                .unwrap()
                .with_budget(Duration::from_millis(250))
                .with_validate(true),
        }
    }

    #[test]
    fn request_roundtrip_preserves_everything() {
        let req = sample_request();
        let line = request_to_line(&req);
        let back = request_from_line(&line).unwrap();
        assert_eq!(back, req);
        // Serialisation is canonical: a second trip yields the same bytes.
        assert_eq!(request_to_line(&back), line);
    }

    #[test]
    fn every_model_id_roundtrips_on_requests() {
        // The registry is the single source of model ids: each one travels
        // as its verbatim wire id and parses back to the same kind.  The
        // moldable request additionally carries a shape menu end to end.
        for spec in ccs_core::ModelSpec::all() {
            let mut builder = ccs_core::InstanceBuilder::new(3, 2).job(7, 0).job(5, 1);
            if spec.kind == ScheduleKind::Moldable {
                builder = builder.job_shaped(9, 0, &[(1, 9), (2, 5), (3, 4)]);
            }
            let req = WireRequest {
                id: format!("model-{}", spec.id),
                tenant: None,
                instance: builder.build().unwrap(),
                request: SolveRequest::exact(spec.kind),
            };
            let line = request_to_line(&req);
            assert!(line.contains(&format!("\"model\":\"{}\"", spec.id)));
            let back = request_from_line(&line).unwrap();
            assert_eq!(back, req, "{}", spec.id);
            assert_eq!(back.request.model, spec.kind);
            assert_eq!(request_to_line(&back), line, "{} canonical", spec.id);
        }
    }

    #[test]
    fn sub_millisecond_budgets_survive_the_wire() {
        for micros in [1u64, 500, 1_500, 999_999] {
            let mut req = sample_request();
            req.request = req.request.with_budget(Duration::from_micros(micros));
            let line = request_to_line(&req);
            let back = request_from_line(&line).unwrap();
            assert_eq!(back.request.budget, req.request.budget, "{micros}µs");
            assert_eq!(request_to_line(&back), line, "{micros}µs canonical");
        }
        // 1500µs travels as fractional milliseconds, not a truncated int.
        let mut req = sample_request();
        req.request = req.request.with_budget(Duration::from_micros(1_500));
        assert!(request_to_line(&req).contains("\"budget_ms\":1.5"));
        // Whole milliseconds stay plain integers — several consumers treat
        // `budget_ms` as integral.
        req.request = req.request.with_budget(Duration::from_millis(250));
        assert!(request_to_line(&req).contains("\"budget_ms\":250,"));
    }

    #[test]
    fn lcg_budget_sweep_roundtrips_exactly() {
        // Microsecond- and nanosecond-grained budgets across six orders of
        // magnitude (the 1500µs family of the issue included) round-trip
        // bit-exactly.
        let mut state = 0x0B0D_6E75_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for i in 0..200 {
            let nanos = match i % 3 {
                0 => 1 + next(10_000_000_000),       // up to 10s, ns grain
                1 => 1_000 * (1 + next(10_000_000)), // µs grain
                _ => 500_000 * (1 + next(20_000)),   // half-ms grain
            };
            let mut req = sample_request();
            req.request = req.request.with_budget(Duration::from_nanos(nanos));
            let line = request_to_line(&req);
            let back = request_from_line(&line).unwrap();
            assert_eq!(back.request.budget, req.request.budget, "{nanos}ns");
            assert_eq!(request_to_line(&back), line, "{nanos}ns canonical");
        }
    }

    #[test]
    fn oversized_budgets_error_in_both_numeric_forms() {
        let inst = instance_from_pairs(1, 1, &[(4, 0)]).unwrap().to_json();
        let with_budget = |budget: &str| {
            format!(
                r#"{{"schema":"ccs-wire/1","id":"x","instance":{inst},"model":"splittable","budget_ms":{budget}}}"#
            )
        };
        // Just under 2⁶⁴ ns (≈ 1.8447e13 ms) still parses.
        assert!(request_from_line(&with_budget("1.8e13")).is_ok());
        // Beyond it, both numeric forms give the same structured error —
        // the float arm used to saturate silently instead.
        for budget in ["18446744073709551616", "1.9e13", "1e300"] {
            let err = request_from_line(&with_budget(budget)).unwrap_err();
            assert!(
                err.to_string().contains("exceeds the supported range"),
                "budget_ms {budget}: {err}"
            );
        }
    }

    #[test]
    fn minimal_request_defaults() {
        let inst = instance_from_pairs(1, 1, &[(4, 0)]).unwrap();
        let line = format!(
            r#"{{"schema":"ccs-wire/1","id":"x","instance":{},"model":"non-preemptive"}}"#,
            inst.to_json()
        );
        let back = request_from_line(&line).unwrap();
        assert_eq!(
            back.request,
            SolveRequest::auto(ScheduleKind::NonPreemptive)
        );
        assert_eq!(back.instance, inst);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(request_from_line("not json").is_err());
        assert!(request_from_line("{}").is_err());
        assert!(request_from_line(r#"{"schema":"ccs-wire/2","id":"x"}"#).is_err());
        let inst = instance_from_pairs(1, 1, &[(4, 0)]).unwrap().to_json();
        for bad in [
            format!(r#"{{"schema":"ccs-wire/1","instance":{inst},"model":"splittable"}}"#),
            format!(r#"{{"schema":"ccs-wire/1","id":"x","instance":{inst},"model":"nope"}}"#),
            format!(
                r#"{{"schema":"ccs-wire/1","id":"x","instance":{inst},"model":"splittable","accuracy":{{"epsilon":-1}}}}"#
            ),
            format!(
                r#"{{"schema":"ccs-wire/1","id":"x","instance":{inst},"model":"splittable","budget_ms":-5}}"#
            ),
        ] {
            assert!(request_from_line(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn solution_roundtrip_all_models() {
        let engine = crate::Engine::new();
        let inst = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2), (4, 3)]).unwrap();
        for spec in ccs_core::ModelSpec::all() {
            let kind = spec.kind;
            let sol = engine.solve(&inst, &SolveRequest::auto(kind)).unwrap();
            let json = solution_to_json("id-7", &sol).to_json();
            let back = response_from_line(&json).unwrap();
            assert_eq!(back.id, "id-7");
            let wire = back.outcome.unwrap();
            assert_eq!(wire, WireSolution::from(&sol), "{kind}");
            // The transported schedule still validates against the instance.
            use ccs_core::Schedule;
            wire.schedule.validate(&inst).unwrap();
            assert_eq!(wire.schedule.makespan(&inst), sol.report.makespan);
        }
    }

    #[test]
    fn cache_field_roundtrips_and_stays_absent_without_a_cache() {
        let engine = crate::Engine::new().with_cache(16);
        let inst = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let req = SolveRequest::auto(ScheduleKind::NonPreemptive);
        for (round, expect) in [(0, CacheOutcome::Miss), (1, CacheOutcome::Hit)] {
            let sol = engine.solve(&inst, &req).unwrap();
            assert_eq!(sol.cache, Some(expect), "round {round}");
            let line = solution_to_json("c", &sol).to_json();
            assert!(line.contains(&format!("\"cache\":\"{}\"", expect.name())));
            let back = response_from_line(&line).unwrap().outcome.unwrap();
            assert_eq!(back.cache, Some(expect), "round {round}");
            assert_eq!(back, WireSolution::from(&sol), "round {round}");
        }
        // No cache, no field: golden files of uncached deployments are
        // untouched.
        let uncached = crate::Engine::new().solve(&inst, &req).unwrap();
        let line = solution_to_json("u", &uncached).to_json();
        assert!(!line.contains("\"cache\""));
        assert_eq!(
            response_from_line(&line).unwrap().outcome.unwrap().cache,
            None
        );
        // Unknown cache markers are rejected, not ignored.
        let bad = line.replace("\"solver\"", "\"cache\":\"warm\",\"solver\"");
        assert!(response_from_line(&bad).is_err());
    }

    #[test]
    fn error_response_roundtrip() {
        let json = error_response_to_json("bad-1", &CcsError::DeadlineExceeded).to_json();
        let back = response_from_line(&json).unwrap();
        assert_eq!(back.id, "bad-1");
        assert_eq!(back.outcome, Err(CcsError::DeadlineExceeded));
    }

    #[test]
    fn overloaded_error_travels_as_structured_frame() {
        let shed = CcsError::overloaded("queue depth 4 at budget 4");
        let line = error_response_to_json("shed-1", &shed).to_json();
        assert!(line.contains("\"kind\":\"overloaded\""));
        let back = response_from_line(&line).unwrap();
        assert_eq!(back.id, "shed-1");
        assert_eq!(back.outcome, Err(shed));
    }

    #[test]
    fn tenant_field_roundtrips_and_stays_absent_when_unset() {
        let mut req = sample_request();
        let line = request_to_line(&req);
        assert!(!line.contains("\"tenant\""));
        assert_eq!(request_from_line(&line).unwrap(), req);

        req.tenant = Some("acme".to_string());
        let line = request_to_line(&req);
        assert!(line.contains("\"tenant\":\"acme\""));
        let back = request_from_line(&line).unwrap();
        assert_eq!(back, req);
        assert_eq!(request_to_line(&back), line);

        // A non-string tenant is rejected, not ignored.
        let bad = line.replace("\"tenant\":\"acme\"", "\"tenant\":7");
        assert!(request_from_line(&bad).is_err());
    }

    #[test]
    fn frames_dispatch_on_op() {
        let req = sample_request();
        let line = request_to_line(&req);
        assert_eq!(frame_from_line(&line).unwrap(), WireFrame::Request(req));
        let stats = r#"{"schema":"ccs-wire/1","id":"s1","op":"stats"}"#;
        assert_eq!(
            frame_from_line(stats).unwrap(),
            WireFrame::Stats {
                id: "s1".to_string()
            }
        );
        for bad in [
            r#"{"schema":"ccs-wire/1","id":"s1","op":"snooze"}"#,
            r#"{"schema":"ccs-wire/1","op":"stats"}"#,
            r#"{"schema":"ccs-wire/2","id":"s1","op":"stats"}"#,
            r#"{"schema":"ccs-wire/1","id":"s1","op":3}"#,
        ] {
            assert!(frame_from_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stats_response_roundtrip() {
        let stats = ServiceStats {
            engine: ccs_core::StatsSnapshot {
                solves: 11,
                checkpoints: 400,
                search_iterations: 90,
                guesses_evaluated: 7,
                configurations: 3,
                shed: 5,
                queue_depth: 2,
                cache_hits: 1,
                cache_misses: 10,
                cache_evictions: 0,
                warm_hits: 4,
                warm_misses: 2,
            },
            connections: 9,
            active_connections: 3,
            admitted: 11,
            completed: 8,
            shed_overload: 4,
            shed_quota: 1,
            sessions_opened: 3,
            sessions_active: 2,
            stats_ticks: 6,
            tenants: vec![
                TenantStats {
                    tenant: String::new(),
                    admitted: 6,
                    completed: 5,
                    shed: 0,
                    sessions: 0,
                },
                TenantStats {
                    tenant: "acme".to_string(),
                    admitted: 5,
                    completed: 3,
                    shed: 1,
                    sessions: 2,
                },
            ],
        };
        let line = stats_response_to_json("st-1", &stats).to_json();
        assert!(line.contains("\"status\":\"stats\""));
        assert!(line.contains("\"warm_hits\":4"));
        assert!(line.contains("\"sessions_active\":2"));
        let (id, back) = stats_response_from_line(&line).unwrap();
        assert_eq!(id, "st-1");
        assert_eq!(back, stats);
        // Canonical: a second trip yields identical bytes.
        assert_eq!(stats_response_to_json(&id, &back).to_json(), line);
        // A solve response is not a stats response.
        let solve = error_response_to_json("x", &CcsError::Cancelled).to_json();
        assert!(stats_response_from_line(&solve).is_err());
    }

    #[test]
    fn warm_member_roundtrips_on_requests() {
        let mut req = sample_request();
        req.request = req.request.with_warm(crate::policy::WarmStart {
            parent: ccs_core::Fingerprint(0x1234_5678_9abc_def0_0fed_cba9_8765_4321),
            makespan: Rational::new(47, 3),
        });
        let line = request_to_line(&req);
        assert!(line.contains("\"parent\":\"123456789abcdef00fedcba987654321\""));
        let back = request_from_line(&line).unwrap();
        assert_eq!(back, req);
        assert_eq!(request_to_line(&back), line);
    }

    #[test]
    fn fingerprint_hex_is_strict() {
        let fp = ccs_core::Fingerprint(7);
        assert_eq!(fingerprint_from_hex(&fingerprint_to_hex(fp)).unwrap(), fp);
        for bad in ["", "07", &"0".repeat(31), &"g".repeat(32), &"0A".repeat(16)] {
            assert!(fingerprint_from_hex(bad).is_err(), "{bad}");
        }
    }

    fn sample_session_frames() -> Vec<SessionFrame> {
        let inst = instance_from_pairs(3, 2, &[(7, 0), (8, 0), (9, 1), (5, 2)]).unwrap();
        vec![
            SessionFrame::Open {
                id: "o1".to_string(),
                tenant: Some("acme".to_string()),
                instance: ccs_session::SessionInstance::from_instance(&inst),
            },
            SessionFrame::Open {
                id: "o2".to_string(),
                tenant: None,
                instance: ccs_session::SessionInstance::new(4, 2).unwrap(),
            },
            SessionFrame::Delta {
                id: "d1".to_string(),
                session: "s1".to_string(),
                deltas: vec![
                    ccs_session::InstanceDelta::AddJobs(vec![ccs_session::NewJob::new(6, 1)]),
                    ccs_session::InstanceDelta::RemoveJobs(vec![0]),
                    ccs_session::InstanceDelta::AddMachines(1),
                ],
            },
            SessionFrame::Solve {
                id: "v1".to_string(),
                session: "s1".to_string(),
                request: SolveRequest::epsilon(ScheduleKind::NonPreemptive, 0.5)
                    .unwrap()
                    .with_validate(true),
            },
            SessionFrame::Close {
                id: "c1".to_string(),
                session: "s1".to_string(),
            },
        ]
    }

    #[test]
    fn session_frames_roundtrip() {
        for frame in sample_session_frames() {
            let line = session_frame_to_line(&frame);
            assert!(line.contains("\"op\":\"session\""), "{line}");
            let back = frame_from_line(&line).unwrap();
            assert_eq!(back, WireFrame::Session(frame.clone()), "{line}");
            // Canonical: a second trip yields identical bytes.
            assert_eq!(session_frame_to_line(&frame), line);
        }
        // An empty open travels as dimensions, not an instance.
        let line = session_frame_to_line(&sample_session_frames()[1]);
        assert!(line.contains("\"machines\":4"), "{line}");
        assert!(!line.contains("\"instance\""), "{line}");
    }

    #[test]
    fn session_solves_discard_client_warm_hints() {
        let line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"op\":\"session\",\"action\":\"solve\",\
             \"id\":\"v\",\"session\":\"s1\",\"model\":\"splittable\",\
             \"warm\":{{\"parent\":\"{}\",\"makespan\":{{\"n\":9,\"d\":1}}}}}}",
            "0".repeat(32)
        );
        match frame_from_line(&line).unwrap() {
            WireFrame::Session(SessionFrame::Solve { request, .. }) => {
                assert_eq!(request.warm, None);
            }
            other => panic!("expected a session solve, got {other:?}"),
        }
    }

    #[test]
    fn malformed_session_frames_are_rejected() {
        let frame = |body: &str| format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"session\",{body}}}");
        for body in [
            // No action / unknown action.
            "\"id\":\"x\"",
            "\"id\":\"x\",\"action\":\"warp\"",
            // Open with neither an instance nor both dimensions.
            "\"id\":\"x\",\"action\":\"open\"",
            "\"id\":\"x\",\"action\":\"open\",\"machines\":3",
            // Delta without a session / without deltas / with a bad delta.
            "\"id\":\"x\",\"action\":\"delta\",\"deltas\":[]",
            "\"id\":\"x\",\"action\":\"delta\",\"session\":\"s1\"",
            "\"id\":\"x\",\"action\":\"delta\",\"session\":\"s1\",\"deltas\":[{}]",
            // Solve without a model; close without a session.
            "\"id\":\"x\",\"action\":\"solve\",\"session\":\"s1\"",
            "\"id\":\"x\",\"action\":\"close\"",
        ] {
            let line = frame(body);
            assert!(frame_from_line(&line).is_err(), "{line}");
        }
        // Missing id fails before anything else.
        assert!(frame_from_line(&frame("\"action\":\"close\",\"session\":\"s1\"")).is_err());
    }

    #[test]
    fn session_acks_roundtrip() {
        let acks = [
            SessionAck::State {
                id: "o1".to_string(),
                session: "s1".to_string(),
                jobs: 4,
                machines: 3,
                fingerprint: ccs_core::Fingerprint(0xabc),
            },
            SessionAck::Closed {
                id: "c1".to_string(),
                session: "s1".to_string(),
            },
        ];
        for ack in acks {
            let line = session_ack_to_line(&ack);
            assert!(line.contains("\"status\":\"session\""), "{line}");
            let back = session_ack_from_line(&line).unwrap();
            assert_eq!(back, ack);
            assert_eq!(session_ack_to_line(&back), line);
        }
        // A solve response is not a session ack, and `closed` must be true.
        let solve = error_response_to_json("x", &CcsError::Cancelled).to_json();
        assert!(session_ack_from_line(&solve).is_err());
        let bad = format!(
            "{{\"schema\":\"{SCHEMA}\",\"id\":\"c\",\"status\":\"session\",\
             \"session\":\"s1\",\"closed\":false}}"
        );
        assert!(session_ack_from_line(&bad).is_err());
    }

    /// Deterministic LCG for the differential sweeps below.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % bound.max(1)
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.next(items.len() as u64) as usize]
        }

        fn flip(&mut self) -> bool {
            self.next(2) == 0
        }
    }

    /// An id of up to six characters, quotes, backslashes, control
    /// characters and non-ASCII among them.
    fn random_id(rng: &mut Lcg) -> String {
        let alphabet = [
            "a", "Z", "7", "-", " ", "\"", "\\", "/", "\t", "\n", "\r", "\u{1}", "\u{1f}",
            "\u{7f}", "é", "日", "😀", "\u{fffd}",
        ];
        (0..rng.next(7)).map(|_| *rng.pick(&alphabet)).collect()
    }

    /// A small random instance; with `shapes`, some jobs declare menus.
    fn random_instance(rng: &mut Lcg, shapes: bool) -> Instance {
        let machines = 1 + rng.next(4);
        let mut builder = ccs_core::InstanceBuilder::new(machines, 1 + rng.next(3));
        for _ in 0..1 + rng.next(7) {
            let p = 1 + rng.next(30);
            let label = rng.next(5) as u32 * 3;
            let mut menu = Vec::new();
            if shapes && rng.flip() {
                menu.push((1, p));
                for k in 2..=machines {
                    if rng.flip() {
                        menu.push((k, 1 + rng.next(p)));
                    }
                }
            }
            builder = builder.job_shaped(p, label, &menu);
        }
        builder.build().unwrap()
    }

    fn random_request(rng: &mut Lcg, model: ScheduleKind) -> SolveRequest {
        let mut request = match rng.next(3) {
            0 => SolveRequest::auto(model),
            1 => SolveRequest::exact(model),
            _ => SolveRequest::epsilon(model, *rng.pick(&[0.25, 0.3, 0.5, 1.0, 1.5, 2.0, 7.125]))
                .unwrap(),
        };
        if rng.flip() {
            request = request.with_budget(match rng.next(3) {
                0 => Duration::from_millis(rng.next(100_000)),
                1 => Duration::from_micros(1 + rng.next(10_000_000)),
                _ => Duration::from_nanos(1 + rng.next(10_000_000_000)),
            });
        }
        request.with_validate(rng.flip())
    }

    fn random_warm(rng: &mut Lcg) -> crate::policy::WarmStart {
        crate::policy::WarmStart {
            parent: ccs_core::Fingerprint(
                u128::from(rng.next(u64::MAX)) << 64 | u128::from(rng.next(u64::MAX)),
            ),
            makespan: Rational::new(1 + rng.next(1000) as i128, 1 + rng.next(12) as i128),
        }
    }

    fn random_rational(rng: &mut Lcg) -> Rational {
        let numer = match rng.next(3) {
            0 => rng.next(100) as i128,
            1 => -(rng.next(1 << 40) as i128),
            _ => (rng.next(u64::MAX) as i128) << 40,
        };
        Rational::new(numer, 1 + rng.next(1 << 20) as i128)
    }

    fn models() -> Vec<ScheduleKind> {
        ccs_core::ModelSpec::all().map(|spec| spec.kind).collect()
    }

    /// Solution frames of all four models — cache marker absent, hit and
    /// miss, and every guarantee kind — are the reference's bytes.
    #[test]
    fn solution_frames_match_the_tree_reference() {
        let mut rng = Lcg(0x5017_0A11);
        let uncached = crate::Engine::new();
        let cached = crate::Engine::new().with_cache(64);
        let mut outcomes = std::collections::BTreeSet::new();
        for round in 0..160 {
            let model = models()[round % 4];
            let inst = random_instance(&mut rng, model == ScheduleKind::Moldable);
            let mut request = random_request(&mut rng, model).with_validate(false);
            // Keep the schemes cheap: ε ≥ 1.5 routes to a constant-factor
            // algorithm.
            if let Accuracy::Epsilon(eps) = request.accuracy {
                request.accuracy = Accuracy::Epsilon(eps.max(1.5));
            }
            let id = random_id(&mut rng);
            // Uncached, then a cache miss (or a hit on a repeat), then a hit.
            for engine in [&uncached, &cached, &cached] {
                let sol = match engine.solve(&inst, &request) {
                    Ok(sol) => sol,
                    Err(error) => {
                        assert_eq!(
                            error_response_to_json(&id, &error).as_str(),
                            reference::error_response_to_json(&id, &error).to_json(),
                            "round {round}"
                        );
                        continue;
                    }
                };
                outcomes.insert((model.to_string(), sol.cache.map(|cache| cache.name())));
                check_solution(&mut rng, round, &id, &sol);
            }
        }
        // The sweep reached every model, with and without the cache.
        for model in models() {
            for cache in [None, Some("hit"), Some("miss")] {
                assert!(
                    outcomes.contains(&(model.to_string(), cache)),
                    "{model} {cache:?}"
                );
            }
        }
    }

    /// Checks one solution's frame, and the same solution through the
    /// client-side mirror, against the reference.
    fn check_solution(rng: &mut Lcg, round: usize, id: &str, sol: &Solution) {
        let line = solution_to_json(id, sol);
        assert_eq!(
            line.as_str(),
            reference::solution_to_json(id, sol).to_json(),
            "round {round}"
        );
        // Under every guarantee kind and a random cache marker.
        let mut wire = WireSolution::from(sol);
        wire.guarantee = match rng.next(3) {
            0 => Guarantee::Exact,
            1 => Guarantee::Heuristic,
            _ => Guarantee::Factor(random_rational(rng)),
        };
        wire.cache = *rng.pick(&[None, Some(CacheOutcome::Hit), Some(CacheOutcome::Miss)]);
        wire.makespan = random_rational(rng);
        let response = WireResponse {
            id: id.to_string(),
            outcome: Ok(wire),
        };
        assert_eq!(
            wire_response_to_json(&response).as_str(),
            reference::wire_response_to_json(&response).to_json(),
            "round {round}"
        );
    }

    /// Every error variant, stats payloads with tenants and both session
    /// acknowledgements are the reference's bytes.
    #[test]
    fn error_stats_and_ack_frames_match_the_tree_reference() {
        let mut rng = Lcg(0xE5_7A75);
        for round in 0..200 {
            let id = random_id(&mut rng);
            let message = random_id(&mut rng);
            let errors = [
                CcsError::InvalidInstance(message.clone()),
                CcsError::InvalidSchedule(message.clone()),
                CcsError::Infeasible(message.clone()),
                CcsError::Internal(message.clone()),
                CcsError::InvalidParameter(message.clone()),
                CcsError::DeadlineExceeded,
                CcsError::Cancelled,
                CcsError::Overloaded(message.clone()),
                CcsError::UnsupportedModel(message.clone()),
            ];
            for error in &errors {
                assert_eq!(
                    error_response_to_json(&id, error).as_str(),
                    reference::error_response_to_json(&id, error).to_json(),
                    "round {round}"
                );
            }
            let mut count = || rng.next(if round % 2 == 0 { 10 } else { u64::MAX });
            let engine = ccs_core::StatsSnapshot {
                solves: count(),
                checkpoints: count(),
                search_iterations: count(),
                guesses_evaluated: count(),
                configurations: count(),
                shed: count(),
                queue_depth: count(),
                cache_hits: count(),
                cache_misses: count(),
                cache_evictions: count(),
                warm_hits: count(),
                warm_misses: count(),
            };
            let mut stats = ServiceStats {
                engine,
                connections: count(),
                active_connections: count(),
                admitted: count(),
                completed: count(),
                shed_overload: count(),
                shed_quota: count(),
                sessions_opened: count(),
                sessions_active: count(),
                stats_ticks: count(),
                tenants: Vec::new(),
            };
            for _ in 0..rng.next(4) {
                stats.tenants.push(TenantStats {
                    tenant: random_id(&mut rng),
                    admitted: rng.next(100),
                    completed: rng.next(100),
                    shed: rng.next(100),
                    sessions: rng.next(100),
                });
            }
            assert_eq!(
                stats_response_to_json(&id, &stats).as_str(),
                reference::stats_response_to_json(&id, &stats).to_json(),
                "round {round}"
            );
            let acks = [
                SessionAck::State {
                    id: id.clone(),
                    session: random_id(&mut rng),
                    jobs: rng.next(u64::MAX),
                    machines: rng.next(1000),
                    fingerprint: random_warm(&mut rng).parent,
                },
                SessionAck::Closed {
                    id: id.clone(),
                    session: random_id(&mut rng),
                },
            ];
            for ack in &acks {
                assert_eq!(
                    session_ack_to_line(ack),
                    reference::session_ack_to_json(ack).to_json(),
                    "round {round}"
                );
            }
        }
    }

    fn random_wire_request(rng: &mut Lcg, warm: bool) -> WireRequest {
        let model = *rng.pick(&models());
        let mut request = random_request(rng, model);
        if warm && rng.flip() {
            request = request.with_warm(random_warm(rng));
        }
        WireRequest {
            id: random_id(rng),
            tenant: rng.flip().then(|| random_id(rng)),
            instance: {
                let shapes = rng.next(4) == 0;
                random_instance(rng, shapes)
            },
            request,
        }
    }

    fn random_session_frame(rng: &mut Lcg) -> SessionFrame {
        let id = random_id(rng);
        let session = format!("s{}", rng.next(100));
        match rng.next(5) {
            0 => SessionFrame::Open {
                id,
                tenant: rng.flip().then(|| random_id(rng)),
                instance: {
                    let shapes = rng.flip();
                    ccs_session::SessionInstance::from_instance(&random_instance(rng, shapes))
                },
            },
            1 => SessionFrame::Open {
                id,
                tenant: rng.flip().then(|| random_id(rng)),
                instance: ccs_session::SessionInstance::new(1 + rng.next(9), 1 + rng.next(3))
                    .unwrap(),
            },
            2 => {
                let deltas = (0..rng.next(4))
                    .map(|_| match rng.next(4) {
                        0 => ccs_session::InstanceDelta::AddJobs(
                            (0..1 + rng.next(3))
                                .map(|_| ccs_session::NewJob {
                                    processing: 1 + rng.next(50),
                                    class: rng.next(9) as u32,
                                    shapes: if rng.flip() {
                                        vec![(1, 1 + rng.next(50)), (2, 1 + rng.next(9))]
                                    } else {
                                        Vec::new()
                                    },
                                })
                                .collect(),
                        ),
                        1 => ccs_session::InstanceDelta::RemoveJobs(
                            (0..rng.next(4)).map(|_| rng.next(20)).collect(),
                        ),
                        2 => ccs_session::InstanceDelta::AddMachines(1 + rng.next(5)),
                        _ => ccs_session::InstanceDelta::RetypeClass {
                            from: rng.next(9) as u32,
                            to: rng.next(9) as u32,
                        },
                    })
                    .collect();
                SessionFrame::Delta {
                    id,
                    session,
                    deltas,
                }
            }
            3 => {
                let model = *rng.pick(&models());
                let mut request = random_request(rng, model);
                if rng.flip() {
                    request = request.with_warm(random_warm(rng));
                }
                SessionFrame::Solve {
                    id,
                    session,
                    request,
                }
            }
            _ => SessionFrame::Close { id, session },
        }
    }

    /// Request and session frames are the reference's bytes.
    #[test]
    fn request_and_session_frames_match_the_tree_reference() {
        let mut rng = Lcg(0x4E0_5E55);
        for round in 0..300 {
            let req = random_wire_request(&mut rng, true);
            assert_eq!(
                request_to_line(&req),
                reference::request_to_json(&req).to_json(),
                "round {round}"
            );
            let frame = random_session_frame(&mut rng);
            assert_eq!(
                session_frame_to_line(&frame),
                reference::session_frame_to_json(&frame).to_json(),
                "round {round}"
            );
        }
    }

    /// The frame encoders as they were before frames were written through
    /// [`JsonWriter`]: each frame built as a [`JsonValue`] tree, then
    /// rendered.  The oracle of the differential tests below.
    mod reference {
        use super::super::*;
        use crate::policy::Accuracy;

        fn instance_to_json(inst: &Instance) -> JsonValue {
            let mut map = std::collections::BTreeMap::new();
            map.insert(
                "processing_times".to_string(),
                JsonValue::Array(
                    inst.processing_times()
                        .iter()
                        .map(|&p| JsonValue::Int(p as i128))
                        .collect(),
                ),
            );
            map.insert(
                "class_labels_per_job".to_string(),
                JsonValue::Array(
                    inst.classes()
                        .iter()
                        .map(|&u| JsonValue::Int(inst.class_label(u) as i128))
                        .collect(),
                ),
            );
            map.insert(
                "machines".to_string(),
                JsonValue::Int(inst.machines() as i128),
            );
            map.insert(
                "class_slots".to_string(),
                JsonValue::Int(inst.class_slots() as i128),
            );
            if let Some(shapes) = inst.job_shapes() {
                map.insert(
                    "job_shapes".to_string(),
                    JsonValue::Array(
                        shapes
                            .iter()
                            .map(|menu| {
                                JsonValue::Array(
                                    menu.iter()
                                        .map(|&(k, t)| {
                                            JsonValue::Array(vec![
                                                JsonValue::Int(k as i128),
                                                JsonValue::Int(t as i128),
                                            ])
                                        })
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                );
            }
            JsonValue::Object(map)
        }

        fn delta_to_json(delta: &ccs_session::InstanceDelta) -> JsonValue {
            let mut obj = JsonValue::object();
            match delta {
                ccs_session::InstanceDelta::AddJobs(jobs) => {
                    obj.set(
                        "add_jobs",
                        JsonValue::Array(
                            jobs.iter()
                                .map(|job| {
                                    let mut j = JsonValue::object();
                                    j.set("p", job.processing);
                                    j.set("class", u64::from(job.class));
                                    if !job.shapes.is_empty() {
                                        j.set(
                                            "shapes",
                                            JsonValue::Array(
                                                job.shapes
                                                    .iter()
                                                    .map(|&(k, t)| {
                                                        JsonValue::Array(vec![
                                                            JsonValue::Int(k as i128),
                                                            JsonValue::Int(t as i128),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        );
                                    }
                                    j
                                })
                                .collect(),
                        ),
                    );
                }
                ccs_session::InstanceDelta::RemoveJobs(ids) => {
                    obj.set(
                        "remove_jobs",
                        JsonValue::Array(
                            ids.iter().map(|&id| JsonValue::Int(id as i128)).collect(),
                        ),
                    );
                }
                ccs_session::InstanceDelta::AddMachines(count) => {
                    obj.set("add_machines", *count);
                }
                ccs_session::InstanceDelta::RetypeClass { from, to } => {
                    let mut r = JsonValue::object();
                    r.set("from", u64::from(*from));
                    r.set("to", u64::from(*to));
                    obj.set("retype_class", r);
                }
            }
            obj
        }

        fn error_to_json(err: &CcsError) -> JsonValue {
            // The unsupported-model frame carries the verbatim model string under
            // `model` (not `message`): clients match on it for forward-compat
            // negotiation, so it must stay machine-readable rather than prose.
            if let CcsError::UnsupportedModel(model) = err {
                let mut obj = JsonValue::object();
                obj.set("kind", "unsupported-model");
                obj.set("model", model.as_str());
                return obj;
            }
            let (kind, message) = match err {
                CcsError::InvalidInstance(m) => ("invalid_instance", Some(m)),
                CcsError::InvalidSchedule(m) => ("invalid_schedule", Some(m)),
                CcsError::Infeasible(m) => ("infeasible", Some(m)),
                CcsError::Internal(m) => ("internal", Some(m)),
                CcsError::InvalidParameter(m) => ("invalid_parameter", Some(m)),
                CcsError::DeadlineExceeded => ("deadline_exceeded", None),
                CcsError::Cancelled => ("cancelled", None),
                CcsError::Overloaded(m) => ("overloaded", Some(m)),
                CcsError::UnsupportedModel(_) => unreachable!("handled above"),
            };
            let mut obj = JsonValue::object();
            obj.set("kind", kind);
            if let Some(message) = message {
                obj.set("message", message.as_str());
            }
            obj
        }

        fn rational_to_json(r: Rational) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("n", JsonValue::Int(r.numer()));
            obj.set("d", JsonValue::Int(r.denom()));
            obj
        }

        pub(super) fn request_to_json(req: &WireRequest) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("schema", SCHEMA);
            obj.set("id", req.id.as_str());
            if let Some(tenant) = &req.tenant {
                obj.set("tenant", tenant.as_str());
            }
            obj.set("instance", instance_to_json(&req.instance));
            solve_params_to_json(&mut obj, &req.request);
            obj
        }

        fn solve_params_to_json(obj: &mut JsonValue, request: &SolveRequest) {
            obj.set("model", request.model.name());
            let accuracy = match request.accuracy {
                Accuracy::Auto => JsonValue::Str("auto".to_string()),
                Accuracy::Exact => JsonValue::Str("exact".to_string()),
                Accuracy::Epsilon(eps) => {
                    let mut o = JsonValue::object();
                    o.set("epsilon", eps);
                    o
                }
            };
            obj.set("accuracy", accuracy);
            if let Some(budget) = request.budget {
                obj.set("budget_ms", budget_ms_to_json(budget));
            }
            if request.validate {
                obj.set("validate", true);
            }
            if let Some(warm) = request.warm {
                obj.set("warm", warm_to_json(&warm));
            }
        }

        fn warm_to_json(warm: &crate::policy::WarmStart) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("parent", fingerprint_to_hex(warm.parent));
            obj.set("makespan", rational_to_json(warm.makespan));
            obj
        }

        fn budget_ms_to_json(budget: Duration) -> JsonValue {
            let nanos = budget.as_nanos();
            if nanos.is_multiple_of(1_000_000) {
                JsonValue::Int((nanos / 1_000_000) as i128)
            } else {
                JsonValue::from(nanos as f64 / 1e6)
            }
        }

        pub(super) fn session_frame_to_json(frame: &SessionFrame) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("schema", SCHEMA);
            obj.set("op", "session");
            match frame {
                SessionFrame::Open {
                    id,
                    tenant,
                    instance,
                } => {
                    obj.set("action", "open");
                    obj.set("id", id.as_str());
                    if let Some(tenant) = tenant {
                        obj.set("tenant", tenant.as_str());
                    }
                    match instance.materialize() {
                        Ok(inst) => obj.set("instance", instance_to_json(&inst)),
                        // Empty sessions have no materialisable instance; the wire
                        // form carries the dimensions instead.
                        Err(_) => {
                            obj.set("machines", instance.machines());
                            obj.set("class_slots", instance.class_slots());
                        }
                    }
                }
                SessionFrame::Delta {
                    id,
                    session,
                    deltas,
                } => {
                    obj.set("action", "delta");
                    obj.set("id", id.as_str());
                    obj.set("session", session.as_str());
                    obj.set(
                        "deltas",
                        JsonValue::Array(deltas.iter().map(delta_to_json).collect()),
                    );
                }
                SessionFrame::Solve {
                    id,
                    session,
                    request,
                } => {
                    obj.set("action", "solve");
                    obj.set("id", id.as_str());
                    obj.set("session", session.as_str());
                    solve_params_to_json(&mut obj, request);
                }
                SessionFrame::Close { id, session } => {
                    obj.set("action", "close");
                    obj.set("id", id.as_str());
                    obj.set("session", session.as_str());
                }
            }
            obj
        }

        pub(super) fn session_ack_to_json(ack: &SessionAck) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("schema", SCHEMA);
            match ack {
                SessionAck::State {
                    id,
                    session,
                    jobs,
                    machines,
                    fingerprint,
                } => {
                    obj.set("id", id.as_str());
                    obj.set("status", "session");
                    obj.set("session", session.as_str());
                    obj.set("jobs", *jobs);
                    obj.set("machines", *machines);
                    obj.set("fingerprint", fingerprint_to_hex(*fingerprint));
                }
                SessionAck::Closed { id, session } => {
                    obj.set("id", id.as_str());
                    obj.set("status", "session");
                    obj.set("session", session.as_str());
                    obj.set("closed", true);
                }
            }
            obj
        }

        fn guarantee_to_json(g: Guarantee) -> JsonValue {
            match g {
                Guarantee::Exact => JsonValue::Str("exact".to_string()),
                Guarantee::Heuristic => JsonValue::Str("heuristic".to_string()),
                Guarantee::Factor(f) => {
                    let mut obj = JsonValue::object();
                    obj.set("factor", rational_to_json(f));
                    obj
                }
            }
        }

        fn stats_to_json(stats: &SolveStats) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("search_iterations", stats.search_iterations);
            obj.set("guesses_evaluated", stats.guesses_evaluated);
            obj.set("configurations", stats.configurations);
            obj
        }

        fn pieces_to_json(pieces: &[(usize, Rational)]) -> JsonValue {
            JsonValue::Array(
                pieces
                    .iter()
                    .map(|&(job, amount)| {
                        let mut piece = JsonValue::object();
                        piece.set("job", job);
                        piece.set("amount", rational_to_json(amount));
                        piece
                    })
                    .collect(),
            )
        }

        fn schedule_to_json(schedule: &AnySchedule) -> JsonValue {
            let mut obj = JsonValue::object();
            match schedule {
                AnySchedule::NonPreemptive(s) => {
                    obj.set("kind", "non-preemptive");
                    obj.set(
                        "assignment",
                        JsonValue::Array(
                            s.assignment()
                                .iter()
                                .map(|&m| JsonValue::Int(m as i128))
                                .collect(),
                        ),
                    );
                }
                AnySchedule::Splittable(s) => {
                    obj.set("kind", "splittable");
                    obj.set(
                        "explicit",
                        JsonValue::Array(
                            s.explicit()
                                .iter()
                                .map(|em| {
                                    let mut machine = JsonValue::object();
                                    machine.set("machine", em.machine);
                                    machine.set("pieces", pieces_to_json(&em.pieces));
                                    machine
                                })
                                .collect(),
                        ),
                    );
                    obj.set(
                        "runs",
                        JsonValue::Array(
                            s.runs()
                                .iter()
                                .map(|run| {
                                    let mut r = JsonValue::object();
                                    r.set("first_machine", run.first_machine);
                                    r.set("count", run.count);
                                    r.set("class", run.class);
                                    r.set("offset", rational_to_json(run.offset));
                                    r.set("chunk", rational_to_json(run.chunk));
                                    r
                                })
                                .collect(),
                        ),
                    );
                }
                AnySchedule::Preemptive(s) => {
                    obj.set("kind", "preemptive");
                    obj.set(
                        "machines",
                        JsonValue::Array(
                            s.machines()
                                .iter()
                                .map(|pieces| {
                                    JsonValue::Array(
                                        pieces
                                            .iter()
                                            .map(|piece| {
                                                let mut p = JsonValue::object();
                                                p.set("job", piece.job);
                                                p.set("start", rational_to_json(piece.start));
                                                p.set("len", rational_to_json(piece.len));
                                                p
                                            })
                                            .collect(),
                                    )
                                })
                                .collect(),
                        ),
                    );
                }
                AnySchedule::Moldable(s) => {
                    obj.set("kind", "moldable");
                    obj.set(
                        "choices",
                        JsonValue::Array(
                            s.choices()
                                .iter()
                                .map(|(shape, machines)| {
                                    let mut choice = JsonValue::object();
                                    choice.set("shape", *shape);
                                    choice.set(
                                        "machines",
                                        JsonValue::Array(
                                            machines
                                                .iter()
                                                .map(|&m| JsonValue::Int(m as i128))
                                                .collect(),
                                        ),
                                    );
                                    choice
                                })
                                .collect(),
                        ),
                    );
                }
            }
            obj
        }

        fn wire_solution_to_json(sol: &WireSolution) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("solver", sol.solver.as_str());
            obj.set("guarantee", guarantee_to_json(sol.guarantee));
            obj.set("makespan", rational_to_json(sol.makespan));
            obj.set("lower_bound", rational_to_json(sol.lower_bound));
            obj.set("stats", stats_to_json(&sol.stats));
            obj.set("schedule", schedule_to_json(&sol.schedule));
            if let Some(cache) = sol.cache {
                obj.set("cache", cache.name());
            }
            obj
        }

        fn response_frame(id: &str) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("schema", SCHEMA);
            obj.set("id", id);
            obj
        }

        pub(super) fn solution_to_json(id: &str, solution: &Solution) -> JsonValue {
            wire_response_to_json(&WireResponse {
                id: id.to_string(),
                outcome: Ok(WireSolution::from(solution)),
            })
        }

        pub(super) fn error_response_to_json(id: &str, error: &CcsError) -> JsonValue {
            wire_response_to_json(&WireResponse {
                id: id.to_string(),
                outcome: Err(error.clone()),
            })
        }

        pub(super) fn wire_response_to_json(response: &WireResponse) -> JsonValue {
            let mut obj = response_frame(&response.id);
            match &response.outcome {
                Ok(solution) => {
                    obj.set("status", "ok");
                    obj.set("solution", wire_solution_to_json(solution));
                }
                Err(error) => {
                    obj.set("status", "error");
                    obj.set("error", error_to_json(error));
                }
            }
            obj
        }

        fn snapshot_to_json(snap: &ccs_core::StatsSnapshot) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.set("solves", snap.solves);
            obj.set("checkpoints", snap.checkpoints);
            obj.set("search_iterations", snap.search_iterations);
            obj.set("guesses_evaluated", snap.guesses_evaluated);
            obj.set("configurations", snap.configurations);
            obj.set("shed", snap.shed);
            obj.set("queue_depth", snap.queue_depth);
            obj.set("cache_hits", snap.cache_hits);
            obj.set("cache_misses", snap.cache_misses);
            obj.set("cache_evictions", snap.cache_evictions);
            obj.set("warm_hits", snap.warm_hits);
            obj.set("warm_misses", snap.warm_misses);
            obj
        }

        pub(super) fn stats_response_to_json(id: &str, stats: &ServiceStats) -> JsonValue {
            let mut payload = JsonValue::object();
            payload.set("engine", snapshot_to_json(&stats.engine));
            payload.set("connections", stats.connections);
            payload.set("active_connections", stats.active_connections);
            payload.set("admitted", stats.admitted);
            payload.set("completed", stats.completed);
            payload.set("shed_overload", stats.shed_overload);
            payload.set("shed_quota", stats.shed_quota);
            payload.set("sessions_opened", stats.sessions_opened);
            payload.set("sessions_active", stats.sessions_active);
            payload.set("stats_ticks", stats.stats_ticks);
            payload.set(
                "tenants",
                JsonValue::Array(
                    stats
                        .tenants
                        .iter()
                        .map(|t| {
                            let mut obj = JsonValue::object();
                            obj.set("tenant", t.tenant.as_str());
                            obj.set("admitted", t.admitted);
                            obj.set("completed", t.completed);
                            obj.set("shed", t.shed);
                            obj.set("sessions", t.sessions);
                            obj
                        })
                        .collect(),
                ),
            );
            let mut obj = response_frame(id);
            obj.set("status", "stats");
            obj.set("stats", payload);
            obj
        }
    }
}
