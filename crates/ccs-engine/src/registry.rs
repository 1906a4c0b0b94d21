//! The solver registry: a model-erased view over every [`Solver`] in the
//! workspace.
//!
//! [`Solver`] carries its schedule representation as an associated type, so
//! solvers of different placement models cannot share a `dyn Solver`
//! directly.  [`ErasedSolver`], implemented for every [`Solver`], erases the
//! model by converting each report's schedule into [`AnySchedule`], which
//! lets one collection hold the constant-factor algorithms, the PTASes, the
//! exact solvers and the baselines side by side — the foundation of the
//! portfolio policy, the batch executor and the benchmark harness.

use ccs_core::solver::{Guarantee, SolveReport, Solver, SolverCost};
use ccs_core::{AnySchedule, CcsError, Instance, Result, ScheduleKind, SolveContext};
use std::sync::Arc;

/// Object-safe, model-erased view of a [`Solver`].
pub trait ErasedSolver: Send + Sync {
    /// Stable identifier (see [`Solver::name`]).
    fn name(&self) -> &'static str;

    /// The placement model of the produced schedules.
    fn kind(&self) -> ScheduleKind;

    /// The solver's a-priori quality guarantee.
    fn guarantee(&self) -> Guarantee;

    /// The solver's asymptotic cost regime (see [`Solver::cost`]).
    fn cost(&self) -> SolverCost;

    /// Runs the solver under an execution context (see
    /// [`Solver::solve_ctx`]), wrapping the schedule into [`AnySchedule`].
    fn solve_any_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<AnySchedule>>;

    /// Runs the solver to completion, wrapping the schedule into
    /// [`AnySchedule`].
    fn solve_any(&self, inst: &Instance) -> Result<SolveReport<AnySchedule>> {
        self.solve_any_ctx(inst, &SolveContext::unbounded())
    }
}

impl<T: Solver> ErasedSolver for T {
    fn name(&self) -> &'static str {
        Solver::name(self)
    }

    fn kind(&self) -> ScheduleKind {
        Solver::kind(self)
    }

    fn guarantee(&self) -> Guarantee {
        Solver::guarantee(self)
    }

    fn cost(&self) -> SolverCost {
        Solver::cost(self)
    }

    fn solve_any_ctx(
        &self,
        inst: &Instance,
        ctx: &SolveContext,
    ) -> Result<SolveReport<AnySchedule>> {
        Ok(self.solve_ctx(inst, ctx)?.map_schedule(Into::into))
    }
}

/// Descriptive metadata of a registered solver — everything a measurement
/// artifact needs to label a result without holding the solver itself
/// (consumed by `ccs-bench`'s JSON reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverMeta {
    /// Stable registry name (see [`ErasedSolver::name`]).
    pub name: &'static str,
    /// Placement model of the produced schedules.
    pub kind: ScheduleKind,
    /// A-priori quality guarantee.
    pub guarantee: Guarantee,
    /// Asymptotic cost regime (sizes bench instances safely).
    pub cost: SolverCost,
}

impl SolverMeta {
    /// Extracts the metadata of a model-erased solver.
    pub fn of(solver: &dyn ErasedSolver) -> Self {
        SolverMeta {
            name: solver.name(),
            kind: solver.kind(),
            guarantee: solver.guarantee(),
            cost: solver.cost(),
        }
    }
}

/// A named collection of model-erased solvers.
#[derive(Clone, Default)]
pub struct SolverRegistry {
    solvers: Vec<Arc<dyn ErasedSolver>>,
}

impl SolverRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        SolverRegistry::default()
    }

    /// The default portfolio: every algorithm of the four algorithm crates.
    ///
    /// * `ccs-approx` — splittable/preemptive 2-approximations and the
    ///   non-preemptive 7/3-approximation,
    /// * `ccs-ptas` — the three schemes at their default accuracy
    ///   (`1/δ = 4`),
    /// * `ccs-exact` — the exact solvers incl. the moldable branch-and-bound
    ///   (hard size limits apply),
    /// * `ccs-baselines` — the whole-class / greedy heuristics and the
    ///   moldable list scheduler.
    pub fn with_defaults() -> Self {
        let mut registry = SolverRegistry::empty();
        let unique = "default registry names are unique";
        registry
            .register(ccs_approx::SplittableTwoApprox)
            .expect(unique);
        registry
            .register(ccs_approx::PreemptiveTwoApprox)
            .expect(unique);
        registry
            .register(ccs_approx::Nonpreemptive73Approx)
            .expect(unique);
        registry
            .register(ccs_ptas::SplittablePtas::default())
            .expect(unique);
        registry
            .register(ccs_ptas::PreemptivePtas::default())
            .expect(unique);
        registry
            .register(ccs_ptas::NonpreemptivePtas::default())
            .expect(unique);
        registry.register(ccs_exact::ExactSplittable).expect(unique);
        registry.register(ccs_exact::ExactPreemptive).expect(unique);
        registry
            .register(ccs_exact::ExactNonPreemptive)
            .expect(unique);
        registry.register(ccs_exact::ExactMoldable).expect(unique);
        registry
            .register(ccs_baselines::WholeClassRoundRobin)
            .expect(unique);
        registry
            .register(ccs_baselines::WholeClassLpt)
            .expect(unique);
        registry
            .register(ccs_baselines::GreedyFirstFit)
            .expect(unique);
        registry
            .register(ccs_baselines::MoldableList)
            .expect(unique);
        registry
    }

    /// Registers a solver.
    ///
    /// # Errors
    /// [`CcsError::InvalidParameter`] when a solver with the same name is
    /// already registered (nothing is changed in that case); use
    /// [`SolverRegistry::replace`] to overwrite intentionally.
    pub fn register(&mut self, solver: impl ErasedSolver + 'static) -> Result<()> {
        if self.get(solver.name()).is_some() {
            return Err(CcsError::invalid_parameter(format!(
                "a solver named '{}' is already registered",
                solver.name()
            )));
        }
        self.solvers.push(Arc::new(solver));
        Ok(())
    }

    /// Registers a solver, replacing any same-named entry (for intentional
    /// overrides such as swapping a default PTAS for a differently
    /// parameterised one).
    pub fn replace(&mut self, solver: impl ErasedSolver + 'static) {
        self.solvers.retain(|s| s.name() != solver.name());
        self.solvers.push(Arc::new(solver));
    }

    /// Looks a solver up by its [`ErasedSolver::name`].
    pub fn get(&self, name: &str) -> Option<&Arc<dyn ErasedSolver>> {
        self.solvers.iter().find(|s| s.name() == name)
    }

    /// The names of all registered solvers, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Metadata of all registered solvers, in registration order.
    pub fn metadata(&self) -> Vec<SolverMeta> {
        self.solvers
            .iter()
            .map(|s| SolverMeta::of(s.as_ref()))
            .collect()
    }

    /// All solvers producing schedules of the given placement model.
    pub fn solvers_for(&self, kind: ScheduleKind) -> Vec<Arc<dyn ErasedSolver>> {
        self.solvers
            .iter()
            .filter(|s| s.kind() == kind)
            .cloned()
            .collect()
    }

    /// Iterates over all registered solvers in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn ErasedSolver>> {
        self.solvers.iter()
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::instance::instance_from_pairs;
    use ccs_core::Schedule;

    #[test]
    fn defaults_cover_all_models_with_unique_names() {
        let registry = SolverRegistry::with_defaults();
        assert_eq!(registry.len(), 14);
        let names = registry.names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate solver names");
        for spec in ccs_core::ModelSpec::all() {
            assert!(
                registry.solvers_for(spec.kind).len() >= 2,
                "fewer than two solvers for {}",
                spec.id
            );
        }
    }

    #[test]
    fn duplicate_names_rejected_replacement_explicit() {
        let mut registry = SolverRegistry::empty();
        assert!(registry.is_empty());
        registry.register(ccs_approx::SplittableTwoApprox).unwrap();
        assert_eq!(registry.len(), 1);
        // Re-registering the same name errors instead of silently shadowing.
        let err = registry
            .register(ccs_approx::SplittableTwoApprox)
            .unwrap_err();
        assert!(matches!(err, CcsError::InvalidParameter(_)));
        assert!(err.to_string().contains("approx-splittable-2"));
        assert_eq!(registry.len(), 1, "failed registration must not mutate");
        // Intentional overriding goes through `replace`.
        registry.replace(ccs_approx::SplittableTwoApprox);
        assert_eq!(registry.len(), 1);
        registry.replace(ccs_approx::PreemptiveTwoApprox);
        assert_eq!(registry.len(), 2);
        assert!(registry.get("approx-splittable-2").is_some());
        assert!(registry.get("nope").is_none());
    }

    #[test]
    fn metadata_mirrors_registration() {
        let registry = SolverRegistry::with_defaults();
        let meta = registry.metadata();
        assert_eq!(meta.len(), registry.len());
        for (m, name) in meta.iter().zip(registry.names()) {
            assert_eq!(m.name, name);
            let solver = registry.get(name).unwrap();
            assert_eq!(m.kind, solver.kind());
            assert_eq!(m.guarantee, solver.guarantee());
            assert_eq!(m.cost, solver.cost());
        }
        // The cost regimes the suite sizing relies on.
        let cost_of = |name: &str| registry.get(name).unwrap().cost();
        assert_eq!(cost_of("exact-splittable"), SolverCost::InstanceExponential);
        assert_eq!(cost_of("ptas-preemptive"), SolverCost::AccuracyExponential);
        assert_eq!(cost_of("approx-splittable-2"), SolverCost::Polynomial);
        assert_eq!(cost_of("baseline-lpt"), SolverCost::Polynomial);
    }

    #[test]
    fn erased_solver_roundtrip() {
        let solver: Arc<dyn ErasedSolver> = Arc::new(ccs_approx::Nonpreemptive73Approx);
        let inst = instance_from_pairs(2, 1, &[(4, 0), (3, 1)]).unwrap();
        let report = solver.solve_any(&inst).unwrap();
        assert!(report.schedule.as_nonpreemptive().is_some());
        assert_eq!(report.schedule.kind(), solver.kind());
    }
}
