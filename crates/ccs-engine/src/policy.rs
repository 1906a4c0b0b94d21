//! The portfolio policy: which solver runs for a given instance + request.
//!
//! The rules mirror how a production deployment would route traffic:
//!
//! * [`Accuracy::Exact`] — always the exact solver of the requested model
//!   (errors on instances beyond the exponential solvers' size limits),
//! * [`Accuracy::Epsilon`] — the cheapest solver whose guarantee meets
//!   `1 + ε`: the constant-factor approximation when `1 + ε` is at least its
//!   factor, otherwise a PTAS parameterised via
//!   [`PtasParams::from_epsilon`],
//! * [`Accuracy::Auto`] — exact for tiny instances (where the exponential
//!   solvers are instant), the constant-factor approximation otherwise.

use crate::registry::ErasedSolver;
use ccs_core::{CcsError, Fingerprint, Instance, ModelSpec, Rational, Result, ScheduleKind};
use ccs_ptas::PtasParams;
use std::sync::Arc;
use std::time::Duration;

/// The accuracy budget of a [`SolveRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accuracy {
    /// Let the engine pick: exact on tiny instances, constant-factor
    /// approximation otherwise.
    Auto,
    /// Require a `(1 + ε)`-approximate makespan.
    Epsilon(f64),
    /// Require the exact optimum (only feasible for small instances).
    Exact,
}

/// A warm-start hint on a [`SolveRequest`]: the fingerprint and makespan of
/// a previously solved *parent* instance (typically the pre-mutation
/// instance of a `ccs-session` delta chain).
///
/// Warm starts are an optimisation, never a semantic change: every solver
/// treats the hint as a search accelerator and produces a result identical
/// to the cold run (bit-identical for the exact solvers; identical except
/// for the `guesses_evaluated` work counter for the PTAS pipelines).  A
/// wildly wrong makespan therefore costs time, not correctness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStart {
    /// Canonical fingerprint of the parent instance the hint came from
    /// (recorded on the solution-cache entry for lineage; not used to prune
    /// the search).
    pub parent: Fingerprint,
    /// The parent solution's makespan.
    pub makespan: Rational,
}

/// A solving request: the placement model, an accuracy budget and optional
/// service-level controls (time budget, result validation).
///
/// Constructed through the builder-style methods:
///
/// ```
/// use ccs_engine::SolveRequest;
/// use ccs_core::ScheduleKind;
/// use std::time::Duration;
///
/// let req = SolveRequest::epsilon(ScheduleKind::Splittable, 0.5)
///     .unwrap()
///     .with_budget(Duration::from_millis(50))
///     .with_validate(true);
/// assert_eq!(req.budget, Some(Duration::from_millis(50)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRequest {
    /// The placement model to schedule for.
    pub model: ScheduleKind,
    /// The accuracy budget.
    pub accuracy: Accuracy,
    /// Optional wall-clock budget: the run fails with
    /// [`CcsError::DeadlineExceeded`] once this much time has passed since
    /// the request was accepted (submission for [`crate::Engine::submit`],
    /// call entry for [`crate::Engine::solve`]) — queue time counts.
    pub budget: Option<Duration>,
    /// When set, the engine re-certifies the returned schedule against the
    /// instance before handing it out: every feasibility condition is
    /// re-checked by the *independent* first-principles auditor
    /// (`ccs_core::audit`, which shares no code with the solvers' own
    /// validators) and the reported makespan must match the audited
    /// recomputation.  Defence in depth for service deployments; all solvers
    /// only emit validated schedules anyway.
    pub validate: bool,
    /// Optional warm-start hint from a previously solved parent instance;
    /// see [`WarmStart`].
    pub warm: Option<WarmStart>,
}

impl SolveRequest {
    /// Automatic solver selection for the given model.
    pub fn auto(model: ScheduleKind) -> Self {
        SolveRequest {
            model,
            accuracy: Accuracy::Auto,
            budget: None,
            validate: false,
            warm: None,
        }
    }

    /// Request a `(1 + ε)`-approximation for the given model.
    ///
    /// # Errors
    /// [`CcsError::InvalidParameter`] unless `ε` is a positive finite number
    /// — rejected here, at request-construction time, instead of deep inside
    /// the solving pipeline.
    pub fn epsilon(model: ScheduleKind, epsilon: f64) -> Result<Self> {
        validate_epsilon(epsilon)?;
        Ok(SolveRequest {
            accuracy: Accuracy::Epsilon(epsilon),
            ..SolveRequest::auto(model)
        })
    }

    /// Request the exact optimum for the given model.
    pub fn exact(model: ScheduleKind) -> Self {
        SolveRequest {
            accuracy: Accuracy::Exact,
            ..SolveRequest::auto(model)
        }
    }

    /// Sets the wall-clock budget of the request.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Enables or disables re-validation of the returned schedule.
    pub fn with_validate(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Attaches a warm-start hint; see [`WarmStart`].
    pub fn with_warm(mut self, warm: WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }
}

/// The request-construction-time check behind [`SolveRequest::epsilon`]:
/// rejects `ε ≤ 0`, NaN and ±∞ (the finer PTAS floor stays in routing,
/// where loose budgets can still be served by the constant-factor
/// algorithms).
pub(crate) fn validate_epsilon(epsilon: f64) -> Result<()> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(CcsError::invalid_parameter(
            "epsilon must be a positive finite number",
        ));
    }
    Ok(())
}

/// The routing tiers of one placement model.
///
/// Rows are looked up through the model layer ([`ModelSpec`]) by stable wire
/// id, so adding a model means adding one row in [`POLICIES`] (plus
/// registering its solvers) — [`route`] itself never matches on
/// [`ScheduleKind`].  Each tier names a default solver value: routing takes
/// its [`ErasedSolver::name`] (and the constant-factor tier's
/// [`ErasedSolver::guarantee`]) and looks the name up in the engine's
/// registry, so overrides made with `SolverRegistry::replace` still apply.
pub(crate) struct ModelPolicy {
    /// The exact solver.
    pub(crate) exact: &'static dyn ErasedSolver,
    /// Constant-factor tier.
    pub(crate) approx: Option<&'static dyn ErasedSolver>,
    /// Accuracy-parameterised tier: constructs the model's PTAS.
    ptas: Option<fn(PtasParams) -> Arc<dyn ErasedSolver>>,
    /// Guarantee-free tier `Auto` falls back to on models without a
    /// constant-factor algorithm.
    pub(crate) heuristic: Option<&'static dyn ErasedSolver>,
    /// Whether `Auto` may send this instance to the exact solver.
    tiny: fn(&Instance) -> bool,
}

/// One routing row per model wire id; consulted via [`policy_of`].
type PolicyRow = (&'static str, fn() -> ModelPolicy);

const POLICIES: &[PolicyRow] = &[
    ("splittable", || ModelPolicy {
        exact: &ccs_exact::ExactSplittable,
        approx: Some(&ccs_approx::SplittableTwoApprox),
        ptas: Some(|params| Arc::new(ccs_ptas::SplittablePtas::new(params))),
        heuristic: None,
        tiny: tiny_fractional,
    }),
    ("preemptive", || ModelPolicy {
        exact: &ccs_exact::ExactPreemptive,
        approx: Some(&ccs_approx::PreemptiveTwoApprox),
        ptas: Some(|params| Arc::new(ccs_ptas::PreemptivePtas::new(params))),
        heuristic: None,
        tiny: tiny_fractional,
    }),
    ("non-preemptive", || ModelPolicy {
        exact: &ccs_exact::ExactNonPreemptive,
        approx: Some(&ccs_approx::Nonpreemptive73Approx),
        ptas: Some(|params| Arc::new(ccs_ptas::NonpreemptivePtas::new(params))),
        heuristic: None,
        tiny: tiny_nonpreemptive,
    }),
    ("moldable", || ModelPolicy {
        exact: &ccs_exact::ExactMoldable,
        approx: None,
        ptas: None,
        heuristic: Some(&ccs_baselines::MoldableList),
        tiny: tiny_moldable,
    }),
];

/// The routing row of a model.  Total over [`ScheduleKind`]: the model-layer
/// tests pin that every [`ModelSpec`] has a row.
pub(crate) fn policy_of(model: ScheduleKind) -> ModelPolicy {
    let id = ModelSpec::of(model).id;
    POLICIES
        .iter()
        .find(|(row_id, _)| *row_id == id)
        .map(|(_, build)| build())
        .unwrap_or_else(|| unreachable!("model '{id}' has no routing row"))
}

/// Registry name of the exact solver for a model.
#[cfg(test)]
pub(crate) fn exact_solver_name(model: ScheduleKind) -> &'static str {
    policy_of(model).exact.name()
}

/// Job-count ceiling of the splittable/preemptive tiny branch: their exact
/// path enumerates class structures (bounded by classes × machines) but
/// then builds a rational max-flow witness over *all* jobs, so a 50 000-job
/// instance with 6 classes on 4 machines is nowhere near "answered in
/// microseconds" even though its class structure is tiny.
const TINY_JOB_LIMIT: usize = 64;

/// `Auto`-to-exact threshold of the non-preemptive branch-and-bound.
fn tiny_nonpreemptive(inst: &Instance) -> bool {
    inst.num_jobs() <= 12 && inst.machines() <= 4
}

/// `Auto`-to-exact threshold of the splittable/preemptive structure
/// enumeration (shared: the preemptive exact path runs the splittable one).
fn tiny_fractional(inst: &Instance) -> bool {
    let unconstrained = inst.effective_class_slots() as usize >= inst.num_classes();
    let machine_limit = if unconstrained { 8 } else { 4 };
    inst.num_jobs() <= TINY_JOB_LIMIT && inst.num_classes() <= 6 && inst.machines() <= machine_limit
}

/// `Auto`-to-exact threshold of the moldable branch-and-bound: comfortably
/// inside `exact-moldable`'s hard limits (10 jobs, 4 effective machines, 64
/// menu entries), so `Auto` never routes into an `InvalidParameter`.
fn tiny_moldable(inst: &Instance) -> bool {
    let n = inst.num_jobs();
    if n > 8 {
        return false;
    }
    let width_sum: u64 = (0..n)
        .map(|job| {
            inst.shape_menu(job)
                .iter()
                .map(|&(k, _)| k)
                .max()
                .unwrap_or(1)
        })
        .fold(0u64, u64::saturating_add);
    let menu_total: usize = (0..n).map(|job| inst.shape_menu(job).len()).sum();
    inst.machines().min(width_sum) <= 4 && menu_total <= 32
}

/// Instance-size threshold below which `Auto` routes to the exact solvers:
/// the exponential algorithms answer such instances in microseconds.
#[cfg(test)]
pub(crate) fn is_tiny(inst: &Instance, model: ScheduleKind) -> bool {
    (policy_of(model).tiny)(inst)
}

/// Resolves the request to the name of a registered solver, or to a freshly
/// parameterised PTAS for explicit `epsilon` budgets.
pub(crate) enum Routed {
    /// Use the registered solver with this name.
    Registered(&'static str),
    /// Use this ad-hoc (accuracy-parameterised) solver.
    AdHoc(Arc<dyn ErasedSolver>),
}

/// What a request's accuracy budget resolved to for a concrete instance —
/// the accuracy component of the engine's solution-cache key.  Two requests
/// with this value (and the same model) are served by the same algorithm
/// with the same parameters, so their results are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedAccuracy {
    /// The exact solver of the model.
    Exact,
    /// The constant-factor approximation of the model.
    ConstantFactor,
    /// A PTAS parameterised with this `1/δ` (distinct ε budgets that round
    /// to the same `1/δ` share results by construction).
    Ptas {
        /// The scheme's `1/δ` accuracy parameter.
        delta_inv: u64,
    },
    /// A guarantee-free heuristic — the `Auto` tier of models without a
    /// constant-factor algorithm (e.g. moldable's list scheduler).
    Heuristic,
}

/// A routed request: the solver to run plus the [`ResolvedAccuracy`] the
/// accuracy budget collapsed to (what the solution cache keys on).
pub(crate) struct Resolution {
    pub(crate) routed: Routed,
    pub(crate) accuracy: ResolvedAccuracy,
}

/// Whether the constant-factor algorithm's `factor` already meets a `1 + ε`
/// budget.
///
/// The comparison is exact — the request's ε is converted to the dyadic
/// rational it actually is and compared cross-multiplied (inside
/// [`Rational`]'s ordering) against the factor's ε-threshold — but the
/// threshold is first quantised onto the same `f64` grid the request lives
/// on.  Both steps matter: the previous `(ε · 10⁶) as i128` truncation
/// mis-routed ε = 4/3 (budget exactly 7/3) to the exponential
/// non-preemptive PTAS, and a comparison against the *unquantised* 4/3
/// would still mis-route it, because `4.0 / 3.0` as a double is a hair
/// below the true 4/3.
fn epsilon_meets_factor(eps: f64, factor: Rational) -> bool {
    let threshold = (factor - Rational::ONE).to_f64();
    match (
        Rational::from_f64_exact(eps),
        Rational::from_f64_exact(threshold),
    ) {
        (Some(e), Some(t)) => e >= t,
        // ε outside the dyadic range of `Rational` (astronomically large or
        // subnormal): the plain f64 comparison is still exact, value vs
        // value.
        _ => eps >= threshold,
    }
}

pub(crate) fn route(inst: &Instance, req: &SolveRequest) -> Result<Resolution> {
    let policy = policy_of(req.model);
    match req.accuracy {
        Accuracy::Exact => Ok(Resolution {
            routed: Routed::Registered(policy.exact.name()),
            accuracy: ResolvedAccuracy::Exact,
        }),
        Accuracy::Auto => {
            if (policy.tiny)(inst) {
                Ok(Resolution {
                    routed: Routed::Registered(policy.exact.name()),
                    accuracy: ResolvedAccuracy::Exact,
                })
            } else if let Some(approx) = policy.approx {
                Ok(Resolution {
                    routed: Routed::Registered(approx.name()),
                    accuracy: ResolvedAccuracy::ConstantFactor,
                })
            } else if let Some(heuristic) = policy.heuristic {
                Ok(Resolution {
                    routed: Routed::Registered(heuristic.name()),
                    accuracy: ResolvedAccuracy::Heuristic,
                })
            } else {
                // A model with neither tier: exact is all there is.
                Ok(Resolution {
                    routed: Routed::Registered(policy.exact.name()),
                    accuracy: ResolvedAccuracy::Exact,
                })
            }
        }
        Accuracy::Epsilon(eps) => {
            // Defence in depth: [`SolveRequest::epsilon`] already rejects
            // these, but requests can also arrive via struct literals and
            // the wire protocol.
            validate_epsilon(eps)?;
            // The constant-factor algorithm already meets loose budgets.
            if let Some(approx) = policy.approx {
                let factor = approx.guarantee().factor();
                if factor.is_some_and(|factor| epsilon_meets_factor(eps, factor)) {
                    return Ok(Resolution {
                        routed: Routed::Registered(approx.name()),
                        accuracy: ResolvedAccuracy::ConstantFactor,
                    });
                }
            }
            match policy.ptas {
                Some(ptas) => {
                    let params = PtasParams::from_epsilon(eps)?;
                    Ok(Resolution {
                        routed: Routed::AdHoc(ptas(params)),
                        accuracy: ResolvedAccuracy::Ptas {
                            delta_inv: params.delta_inv(),
                        },
                    })
                }
                None => Err(CcsError::invalid_parameter(format!(
                    "model '{}' has no (1+ε)-guaranteed solver; request exact or auto accuracy",
                    ModelSpec::of(req.model).id
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::InstanceBuilder;

    fn tiny() -> Instance {
        instance_from_pairs(2, 1, &[(6, 0), (1, 0), (5, 1)]).unwrap()
    }

    fn large() -> Instance {
        let mut b = InstanceBuilder::new(16, 3);
        for i in 0..200u32 {
            b = b.job(1 + (i as u64 * 7) % 40, i % 32);
        }
        b.build().unwrap()
    }

    fn routed_name(inst: &Instance, req: &SolveRequest) -> String {
        match route(inst, req).unwrap().routed {
            Routed::Registered(name) => name.to_string(),
            Routed::AdHoc(solver) => solver.name().to_string(),
        }
    }

    /// Constant-factor tier name of a paper model (all three have one).
    fn approx_name(kind: ScheduleKind) -> &'static str {
        policy_of(kind).approx.expect("paper model").name()
    }

    #[test]
    fn every_model_has_a_routing_row() {
        for spec in ModelSpec::all() {
            let policy = policy_of(spec.kind);
            assert!(!policy.exact.name().is_empty(), "{}", spec.id);
            assert!(
                policy.approx.is_some() || policy.heuristic.is_some(),
                "model '{}' has no non-exact tier for Auto",
                spec.id
            );
        }
    }

    #[test]
    fn auto_routes_tiny_to_exact() {
        for spec in ModelSpec::all() {
            assert_eq!(
                routed_name(&tiny(), &SolveRequest::auto(spec.kind)),
                exact_solver_name(spec.kind)
            );
        }
    }

    #[test]
    fn auto_routes_large_to_approx() {
        for spec in ModelSpec::paper() {
            assert_eq!(
                routed_name(&large(), &SolveRequest::auto(spec.kind)),
                approx_name(spec.kind)
            );
        }
    }

    #[test]
    fn moldable_auto_falls_back_to_the_list_heuristic() {
        let res = route(&large(), &SolveRequest::auto(ScheduleKind::Moldable)).unwrap();
        assert!(matches!(res.routed, Routed::Registered("moldable-list")));
        assert_eq!(res.accuracy, ResolvedAccuracy::Heuristic);
    }

    #[test]
    fn moldable_epsilon_is_rejected_not_misrouted() {
        let req = SolveRequest::epsilon(ScheduleKind::Moldable, 0.5).unwrap();
        let Err(err) = route(&large(), &req) else {
            panic!("moldable epsilon request must not route");
        };
        assert!(matches!(err, CcsError::InvalidParameter(_)));
        assert!(err.to_string().contains("moldable"));
    }

    #[test]
    fn loose_epsilon_served_by_approx() {
        // 1 + 1.5 = 2.5 ≥ 2 and ≥ 7/3: the constant-factor algorithms win.
        for spec in ModelSpec::paper() {
            assert_eq!(
                routed_name(&large(), &SolveRequest::epsilon(spec.kind, 1.5).unwrap()),
                approx_name(spec.kind)
            );
        }
    }

    #[test]
    fn tight_epsilon_requires_ptas() {
        assert_eq!(
            routed_name(
                &large(),
                &SolveRequest::epsilon(ScheduleKind::Splittable, 0.5).unwrap()
            ),
            "ptas-splittable"
        );
        // 1 + 1.4 = 2.4 ≥ 7/3 but < 2? No — for non-preemptive the factor is
        // 7/3 ≈ 2.333, so ε = 1.2 (budget 2.2) needs the PTAS.
        assert_eq!(
            routed_name(
                &large(),
                &SolveRequest::epsilon(ScheduleKind::NonPreemptive, 1.2).unwrap()
            ),
            "ptas-nonpreemptive"
        );
    }

    #[test]
    fn epsilon_boundaries_route_to_the_constant_factor_solvers() {
        // ε exactly at the factor threshold must be served by the cheap
        // constant-factor algorithm, not the exponential PTAS.  ε = 4/3 is
        // the regression case: its double is a hair below the true 4/3 and
        // the old `(ε · 10⁶) as i128` truncation (and an unquantised exact
        // comparison alike) mis-routed it.
        for spec in ModelSpec::paper() {
            let kind = spec.kind;
            assert_eq!(
                routed_name(&large(), &SolveRequest::epsilon(kind, 4.0 / 3.0).unwrap()),
                approx_name(kind),
                "ε = 4/3 on {kind}"
            );
        }
        // ε = 1.0 sits exactly on the splittable/preemptive factor 2 and
        // strictly below the non-preemptive 7/3.
        for kind in [ScheduleKind::Splittable, ScheduleKind::Preemptive] {
            assert_eq!(
                routed_name(&large(), &SolveRequest::epsilon(kind, 1.0).unwrap()),
                approx_name(kind),
                "ε = 1 on {kind}"
            );
        }
        assert_eq!(
            routed_name(
                &large(),
                &SolveRequest::epsilon(ScheduleKind::NonPreemptive, 1.0).unwrap()
            ),
            "ptas-nonpreemptive"
        );
        // Just below a threshold still requires the PTAS.
        for spec in ModelSpec::paper() {
            let kind = spec.kind;
            let factor = policy_of(kind)
                .approx
                .unwrap()
                .guarantee()
                .factor()
                .unwrap();
            let threshold = (factor - Rational::ONE).to_f64();
            let below = threshold * (1.0 - 1e-12);
            assert_eq!(
                routed_name(&large(), &SolveRequest::epsilon(kind, below).unwrap()),
                format!(
                    "ptas-{}",
                    if kind == ScheduleKind::NonPreemptive {
                        "nonpreemptive"
                    } else {
                        kind.name()
                    }
                ),
                "ε just below the factor on {kind}"
            );
        }
    }

    #[test]
    fn auto_respects_the_job_count_guard() {
        // 4 machines, 6 classes — tiny by the old class/machine test — but
        // 50 000 jobs: `Auto` must not route this into the exact
        // enumeration + rational max-flow witness path.
        let mut b = InstanceBuilder::new(4, 6);
        for i in 0..50_000u32 {
            b = b.job(1 + (i as u64 % 97), i % 6);
        }
        let huge = b.build().unwrap();
        for spec in ModelSpec::paper() {
            let kind = spec.kind;
            assert!(!is_tiny(&huge, kind), "{kind}");
            assert_eq!(
                routed_name(&huge, &SolveRequest::auto(kind)),
                approx_name(kind),
                "{kind}"
            );
        }
        assert!(!is_tiny(&huge, ScheduleKind::Moldable));
        // The guard leaves genuinely tiny instances on the exact path.
        assert!(is_tiny(&tiny(), ScheduleKind::Splittable));
    }

    #[test]
    fn exact_always_routes_to_exact() {
        assert_eq!(
            routed_name(&large(), &SolveRequest::exact(ScheduleKind::Splittable)),
            "exact-splittable"
        );
    }

    #[test]
    fn invalid_epsilon_rejected_at_construction() {
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = SolveRequest::epsilon(ScheduleKind::Splittable, eps).unwrap_err();
            assert!(matches!(err, CcsError::InvalidParameter(_)), "eps {eps}");
        }
    }

    #[test]
    fn invalid_epsilon_rejected_by_routing_too() {
        // Requests built by hand (struct literal / wire protocol) bypass the
        // constructor; routing re-checks.
        for eps in [0.0, -1.0, f64::NAN] {
            let req = SolveRequest {
                accuracy: Accuracy::Epsilon(eps),
                ..SolveRequest::auto(ScheduleKind::Splittable)
            };
            assert!(route(&tiny(), &req).is_err(), "eps {eps}");
        }
        // Accuracies finer than the documented PTAS floor are rejected, not
        // silently rounded.
        assert!(route(
            &tiny(),
            &SolveRequest::epsilon(ScheduleKind::Splittable, 0.01).unwrap()
        )
        .is_err());
    }

    #[test]
    fn builder_sets_budget_and_validate() {
        use std::time::Duration;
        let req = SolveRequest::auto(ScheduleKind::Preemptive)
            .with_budget(Duration::from_millis(5))
            .with_validate(true);
        assert_eq!(req.budget, Some(Duration::from_millis(5)));
        assert!(req.validate);
        let plain = SolveRequest::exact(ScheduleKind::Preemptive);
        assert_eq!(plain.budget, None);
        assert!(!plain.validate);
    }

    #[test]
    fn tiny_threshold_respects_unconstrained_machines() {
        // 6 machines, c >= C: still tiny for the splittable exact witness.
        let inst = instance_from_pairs(6, 3, &[(5, 0), (4, 1), (3, 2)]).unwrap();
        assert!(is_tiny(&inst, ScheduleKind::Splittable));
        // 6 machines with a real class constraint: beyond the enumeration.
        let inst = instance_from_pairs(6, 1, &[(5, 0), (4, 1), (3, 2)]).unwrap();
        assert!(!is_tiny(&inst, ScheduleKind::Splittable));
    }
}
