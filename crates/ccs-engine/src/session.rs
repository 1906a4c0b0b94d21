//! Service-side execution of `op: "session"` frames, shared by the
//! `ccs-serve` and `ccs-netd` front ends.
//!
//! A session holds a live [`SessionInstance`] server-side; delta frames
//! mutate it and session solves run against its current state, warm-started
//! from the session's previous solution of the same model (the client never
//! supplies the hint — the service's own ledger does, so a session replays
//! deterministically from its transcript alone).
//!
//! Session frames are always decided immediately: open/delta/close are pure
//! bookkeeping, and session solves run *inline* on the connection's driver
//! thread ([`crate::connection::serve`]) rather than through the worker
//! pool, so a session's solves observe every delta and warm record that
//! preceded them on the connection.  That is what makes transcripts
//! byte-exact under replay; the cost is that an expensive session solve
//! blocks its own connection.  Every connection has a driver of its own, so
//! no other connection waits for it.

use crate::engine::Engine;
use crate::policy::WarmStart;
use crate::wire::{self, SessionAck, SessionFrame};
use ccs_core::CcsError;
use ccs_session::{SessionInstance, SessionStore, WarmRecord};

/// What handling a session frame did, for the serving layer's accounting
/// (the admission ledger behind the `stats` frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// A session was opened for this tenant.
    Opened {
        /// The opener's tenant label, if any.
        tenant: Option<String>,
    },
    /// A session of this tenant was closed.
    Closed {
        /// The closed session's tenant label, if any.
        tenant: Option<String>,
    },
    /// A solve ran inline for this tenant's session (successfully or not).
    Solved {
        /// The session's tenant label, if any.
        tenant: Option<String>,
    },
    /// The frame was answered without solving or changing the session
    /// population (delta acks, unknown-session and invalid-delta errors).
    NoChange,
}

/// Executes one session frame against `sessions`, returning the serialised
/// response line and the accounting event.  Never fails: every outcome —
/// including unknown sessions and invalid deltas — is a structured response
/// frame, so a misbehaving client cannot take the service down.
pub fn handle_session_frame(
    frame: SessionFrame,
    engine: &Engine,
    sessions: &mut SessionStore,
) -> (String, SessionEvent) {
    let unknown = |id: &str, session: &str| {
        let error = CcsError::invalid_parameter(format!("unknown session '{session}'"));
        (
            wire::error_response_to_json(id, &error).into_string(),
            SessionEvent::NoChange,
        )
    };
    let state_ack = |id: String, session: String, instance: &SessionInstance| {
        wire::session_ack_to_line(&SessionAck::State {
            id,
            session,
            jobs: instance.num_jobs() as u64,
            machines: instance.machines(),
            fingerprint: instance.fingerprint(),
        })
    };
    match frame {
        SessionFrame::Open {
            id,
            tenant,
            instance,
        } => {
            let event = SessionEvent::Opened {
                tenant: tenant.clone(),
            };
            let sid = sessions.open(tenant, instance);
            let instance = &sessions.get(&sid).expect("just opened").instance;
            (state_ack(id, sid, instance), event)
        }
        SessionFrame::Delta {
            id,
            session,
            deltas,
        } => {
            let Some(live) = sessions.get_mut(&session) else {
                return unknown(&id, &session);
            };
            for delta in &deltas {
                // Each delta is atomic; the first invalid one aborts the
                // frame with a structured error (the connection survives,
                // earlier deltas of the frame stay applied).
                if let Err(error) = live.instance.apply(delta) {
                    return (
                        wire::error_response_to_json(&id, &error).into_string(),
                        SessionEvent::NoChange,
                    );
                }
            }
            (
                state_ack(id, session, &live.instance),
                SessionEvent::NoChange,
            )
        }
        SessionFrame::Solve {
            id,
            session,
            request,
        } => {
            let Some(live) = sessions.get_mut(&session) else {
                return unknown(&id, &session);
            };
            let instance = match live.instance.materialize() {
                Ok(instance) => instance,
                Err(error) => {
                    return (
                        wire::error_response_to_json(&id, &error).into_string(),
                        SessionEvent::NoChange,
                    )
                }
            };
            let parent = live.instance.fingerprint();
            let mut request = request;
            if let Some(record) = live.warm_for(request.model) {
                request = request.with_warm(WarmStart {
                    parent: record.parent,
                    makespan: record.makespan,
                });
            }
            let event = SessionEvent::Solved {
                tenant: live.tenant().map(str::to_string),
            };
            let line = match engine.solve(&instance, &request) {
                Ok(solution) => {
                    live.record_solution(
                        request.model,
                        WarmRecord {
                            parent,
                            makespan: solution.report.makespan,
                        },
                    );
                    wire::solution_to_json(&id, &solution).into_string()
                }
                Err(error) => wire::error_response_to_json(&id, &error).into_string(),
            };
            (line, event)
        }
        SessionFrame::Close { id, session } => match sessions.close(&session) {
            None => unknown(&id, &session),
            Some(closed) => {
                let event = SessionEvent::Closed {
                    tenant: closed.tenant().map(str::to_string),
                };
                (
                    wire::session_ack_to_line(&SessionAck::Closed { id, session }),
                    event,
                )
            }
        },
    }
}
