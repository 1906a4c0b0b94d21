//! Output checks, run after the timed window: every returned schedule is
//! audited against the instance sent, and the server's deterministic
//! counters must equal an in-process replay's.

use crate::client::TcpRun;
use crate::workload::{chain_request, Plan, SolveSpec, Step};
use ccs_core::{audit_schedule, CcsError, Guarantee, Instance, Rational, ScheduleKind};
use ccs_engine::wire::{self, ServiceStats, SessionAck, WireSolution};
use ccs_engine::{Accuracy, SolveRequest};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;

/// `makespan / lower_bound` as the quality metric reads it (`1` for a
/// non-positive bound).
pub fn ratio(makespan: Rational, lower_bound: Rational) -> f64 {
    if lower_bound.is_positive() {
        (makespan / lower_bound).to_f64()
    } else {
        1.0
    }
}

/// Checks one returned solution against the instance and request sent;
/// returns its quality ratio.
///
/// The audited makespan must equal the reported one and lie between the
/// lower bound and guarantee × lower bound, and the guarantee must meet the
/// request's accuracy (a cheaper tier fails).
pub fn check_solution(
    instance: &Instance,
    request: &SolveRequest,
    solution: &WireSolution,
) -> Result<f64, String> {
    let audit = audit_schedule(instance, &solution.schedule).map_err(|e| e.to_string())?;
    let (makespan, lower) = (solution.makespan, solution.lower_bound);
    if audit.makespan != makespan {
        return Err(format!(
            "{} reported makespan {makespan}, audit says {}",
            solution.solver, audit.makespan
        ));
    }
    if lower > makespan {
        return Err(format!("lower bound {lower} above makespan {makespan}"));
    }
    if let Some(factor) = solution.guarantee.factor() {
        if makespan > factor * lower {
            return Err(format!(
                "{} makespan {makespan} above {factor} × lower bound {lower}",
                solution.solver
            ));
        }
    }
    let meets = match request.accuracy {
        Accuracy::Exact => solution.guarantee == Guarantee::Exact,
        Accuracy::Epsilon(eps) => solution
            .guarantee
            .factor()
            .is_some_and(|f| f.to_f64() <= 1.0 + eps),
        // Only the moldable model has no guaranteed tier for Auto.
        Accuracy::Auto => {
            solution.guarantee != Guarantee::Heuristic || request.model == ScheduleKind::Moldable
        }
    };
    if !meets {
        return Err(format!(
            "{} ({}) does not meet the requested accuracy {:?}",
            solution.solver, solution.guarantee, request.accuracy
        ));
    }
    Ok(ratio(makespan, lower))
}

/// The counters that must repeat exactly for a (workload, seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Requests and session solves answered.
    pub completed: u64,
    /// Solution-cache hits.
    pub cache_hits: u64,
    /// Solution-cache misses.
    pub cache_misses: u64,
    /// Warm-start hints used.
    pub warm_hits: u64,
    /// Warm-start hints discarded.
    pub warm_misses: u64,
    /// Solver runs.
    pub solves: u64,
    /// Solver work counters.
    pub search_iterations: u64,
    /// See [`Counters::search_iterations`].
    pub guesses_evaluated: u64,
    /// See [`Counters::search_iterations`].
    pub configurations: u64,
}

impl Counters {
    /// The counters of a stats frame (`completed` from the admission
    /// ledger, the rest from the engine).
    pub fn of(stats: &ServiceStats) -> Counters {
        let e = &stats.engine;
        Counters {
            completed: stats.completed,
            cache_hits: e.cache_hits,
            cache_misses: e.cache_misses,
            warm_hits: e.warm_hits,
            warm_misses: e.warm_misses,
            solves: e.solves,
            search_iterations: e.search_iterations,
            guesses_evaluated: e.guesses_evaluated,
            configurations: e.configurations,
        }
    }
}

/// What the checks found in a TCP run.
#[derive(Default)]
pub struct Verdict {
    /// Every check that failed, one line each.
    pub failures: Vec<String>,
    /// Requests attempted (pool requests and session frames).
    pub attempted: u64,
    /// Requests that got an error, were shed or got no usable reply.
    pub failed: u64,
    /// Of those, requests shed by admission control.
    pub shed: u64,
    /// Per pool request: whether it failed.
    pub pool_failed: Vec<bool>,
    /// Quality ratios of returned solutions: pool requests in order, then
    /// session solves in chain order.
    pub ratios: Vec<f64>,
}

impl Verdict {
    /// Mean quality ratio.
    pub fn quality(&self) -> f64 {
        self.ratios.iter().sum::<f64>() / self.ratios.len().max(1) as f64
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }
}

/// A reply body's check: its quality ratio, or whether it was shed and why
/// it failed.
type Outcome = Result<f64, (bool, String)>;

/// Outcomes of the bodies already checked in earlier attempts at the same
/// plan, keyed by (spec, body hash, body length): a byte-identical body has
/// the same outcome, so each distinct body is audited once per run.
#[derive(Default)]
pub struct Audits(HashMap<(usize, u64, usize), Outcome>);

/// Checks every reply of a TCP run.
pub fn check_run(plan: &Plan, run: &TcpRun, audits: &mut Audits) -> Verdict {
    let mut verdict = Verdict {
        pool_failed: vec![true; plan.pool_requests()],
        ..Verdict::default()
    };
    let outcomes: Vec<Outcome> = (0..run.replies.bodies.len())
        .map(|body| {
            let spec = run.replies.body_spec[body];
            let bytes = &run.replies.bodies[body];
            let mut hasher = DefaultHasher::new();
            hasher.write(bytes);
            let key = (spec, hasher.finish(), bytes.len());
            audits
                .0
                .entry(key)
                .or_insert_with(|| audit_body(&plan.specs[spec], &run.replies.body_line(body)))
                .clone()
        })
        .collect();
    for (request, body) in run.replies.body_of.iter().enumerate() {
        verdict.attempted += 1;
        match body.map(|b| &outcomes[b]) {
            Some(Ok(ratio)) => {
                verdict.ratios.push(*ratio);
                verdict.pool_failed[request] = false;
            }
            Some(Err((true, _))) => {
                verdict.failed += 1;
                verdict.shed += 1;
            }
            Some(Err((false, why))) => {
                verdict.failed += 1;
                let why = format!("q{request}: {why}");
                verdict.fail(why);
            }
            None => {
                verdict.failed += 1;
                verdict.fail(format!("q{request}: no reply"));
            }
        }
    }
    if run.replies.stray > 0 {
        verdict.fail(format!(
            "{} reply lines named no outstanding request",
            run.replies.stray
        ));
    }
    check_sessions(plan, run, &mut verdict);
    verdict
}

fn audit_body(spec: &SolveSpec, line: &str) -> Outcome {
    match wire::response_from_line(line) {
        Ok(response) => match response.outcome {
            Ok(solution) => {
                check_solution(&spec.instance, &spec.request, &solution).map_err(|e| (false, e))
            }
            Err(CcsError::Overloaded(msg)) => Err((true, msg)),
            Err(e) => Err((false, format!("error reply: {e}"))),
        },
        Err(e) => Err((false, format!("unparseable reply: {e}"))),
    }
}

/// Replays every chain on a local shadow of the session state and checks
/// each reply against it.
fn check_sessions(plan: &Plan, run: &TcpRun, verdict: &mut Verdict) {
    let expected: usize = plan.chains.iter().map(|c| c.steps.len() + 2).sum();
    verdict.attempted += expected as u64;
    if run.sessions.len() != expected {
        verdict.failed += expected.saturating_sub(run.sessions.len()) as u64;
        verdict.fail(format!(
            "{} session replies for {expected} frames",
            run.sessions.len()
        ));
    }
    let mut replies = run.sessions.iter();
    for (c, chain) in plan.chains.iter().enumerate() {
        let mut shadow = chain.base.clone();
        for k in 0..chain.steps.len() + 2 {
            let Some(reply) = replies.next() else { return };
            if (reply.chain, reply.frame) != (c, k) {
                verdict.fail(format!(
                    "session reply c{}-{} out of order",
                    reply.chain, reply.frame
                ));
                return;
            }
            let step = k.checked_sub(1).and_then(|s| chain.steps.get(s));
            if let Some(Step::Delta(delta)) = step {
                if let Err(e) = shadow.apply(delta) {
                    verdict.fail(format!("c{c}-{k}: the plan's delta is invalid: {e}"));
                    return;
                }
            }
            let result = match step {
                Some(Step::Solve) => check_session_solve(&shadow, &reply.line).map(|ratio| {
                    verdict.ratios.push(ratio);
                }),
                None if k > 0 => match wire::session_ack_from_line(&reply.line) {
                    Ok(SessionAck::Closed { .. }) => Ok(()),
                    _ => Err(format!("expected a close ack, got {}", reply.line)),
                },
                _ => check_state_ack(&shadow, &reply.line),
            };
            if let Err(why) = result {
                verdict.failed += 1;
                verdict.fail(format!("c{c}-{k}: {why}"));
            }
        }
    }
}

fn check_state_ack(shadow: &ccs_session::SessionInstance, line: &str) -> Result<(), String> {
    match wire::session_ack_from_line(line) {
        Ok(SessionAck::State {
            jobs,
            machines,
            fingerprint,
            ..
        }) if jobs == shadow.num_jobs() as u64
            && machines == shadow.machines()
            && fingerprint == shadow.fingerprint() =>
        {
            Ok(())
        }
        _ => Err(format!(
            "state ack disagrees with the shadow session: {line}"
        )),
    }
}

fn check_session_solve(shadow: &ccs_session::SessionInstance, line: &str) -> Result<f64, String> {
    let instance = shadow.materialize().map_err(|e| e.to_string())?;
    match wire::response_from_line(line) {
        Ok(response) => match response.outcome {
            Ok(solution) => check_solution(&instance, &chain_request(), &solution),
            Err(e) => Err(format!("error reply: {e}")),
        },
        Err(e) => Err(format!("unparseable reply: {e}")),
    }
}

/// Compares the server's final counters and quality with an in-process
/// replay of the same plan.
pub fn compare_replay(
    verdict: &mut Verdict,
    served: &ServiceStats,
    replay: Counters,
    replay_quality: f64,
) {
    let served = Counters::of(served);
    if served != replay {
        verdict.fail(format!(
            "deterministic counters differ: served {served:?}, replayed {replay:?}"
        ));
    }
    if verdict.quality() != replay_quality {
        verdict.fail(format!(
            "quality ratio differs: served {}, replayed {replay_quality}",
            verdict.quality()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::{AnySchedule, NonPreemptiveSchedule};
    use ccs_engine::Engine;

    fn solved(request: &SolveRequest) -> (Instance, WireSolution) {
        let instance = ccs_gen::uniform(&ccs_gen::GenParams::new(40, 6, 10, 2), 9);
        let solution = Engine::new().solve(&instance, request).unwrap();
        (instance, WireSolution::from(&solution))
    }

    #[test]
    fn accepts_a_served_solution() {
        let request = SolveRequest::auto(ScheduleKind::NonPreemptive);
        let (instance, solution) = solved(&request);
        let ratio = check_solution(&instance, &request, &solution).unwrap();
        assert!(ratio >= 1.0);
    }

    #[test]
    fn rejects_a_corrupted_schedule() {
        let request = SolveRequest::auto(ScheduleKind::NonPreemptive);
        let (instance, mut solution) = solved(&request);
        let AnySchedule::NonPreemptive(schedule) = &solution.schedule else {
            panic!("a non-preemptive schedule");
        };
        // Move job 0 onto a machine that does not exist.
        let mut assignment = schedule.assignment().to_vec();
        assignment[0] = instance.machines();
        solution.schedule = AnySchedule::NonPreemptive(NonPreemptiveSchedule::new(assignment));
        assert!(check_solution(&instance, &request, &solution).is_err());
    }

    #[test]
    fn rejects_a_misreported_makespan() {
        let request = SolveRequest::auto(ScheduleKind::NonPreemptive);
        let (instance, mut solution) = solved(&request);
        solution.makespan += Rational::ONE;
        assert!(check_solution(&instance, &request, &solution).is_err());
    }

    #[test]
    fn rejects_a_makespan_above_the_guarantee() {
        let request = SolveRequest::auto(ScheduleKind::NonPreemptive);
        let (instance, mut solution) = solved(&request);
        let factor = solution.guarantee.factor().unwrap();
        // A lower bound so small that the makespan exceeds factor × bound.
        solution.lower_bound = solution.makespan / (factor + Rational::ONE);
        let err = check_solution(&instance, &request, &solution).unwrap_err();
        assert!(err.contains("above"), "{err}");
    }

    #[test]
    fn rejects_a_cheaper_tier() {
        let instance = instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap();
        let engine = Engine::new();
        let approx = engine
            .solve_with("approx-nonpreemptive-7/3", &instance)
            .unwrap();
        let exact = SolveRequest::exact(ScheduleKind::NonPreemptive);
        let err = check_solution(&instance, &exact, &WireSolution::from(&approx)).unwrap_err();
        assert!(err.contains("accuracy"), "{err}");
    }
}
