//! A small exact integer-feasibility solver (DFS with interval propagation).
//!
//! The configuration integer programs of the PTASs are feasibility problems
//! over bounded integer variables with linear equality and `≤` constraints.
//! This module provides an exact solver for them: bounds-consistency
//! propagation interleaved with depth-first branching on the variable with
//! the smallest remaining domain (the lowest index on ties).  It is
//! exponential in the worst case (the problems are NP-hard), which is
//! expected — the paper's PTASs are exponential in `1/δ` as well; a node
//! budget protects callers.
//!
//! The search is incremental.  Every variable is indexed to the constraints
//! it appears in, once per solve.  A node fixes one variable, and
//! propagation re-examines only the constraints that hold a tightened
//! variable, from a queue, until nothing tightens.  Bound changes go on a
//! trail and are undone on backtrack, so no node copies the bounds.
//!
//! The order in which constraints are re-examined cannot change the result.
//! Each constraint's tightening is monotone and only narrows the bounds, so
//! propagation run to a fixpoint ends in the greatest common fixpoint below
//! the node's starting bounds — or in a conflict — whatever the order
//! (chaotic iteration).  Branching reads only the bounds and the variable
//! numbering.  So the search tree, its node count, the first feasible point
//! and the `Unknown` verdict at the node budget are functions of the program
//! alone; the tests compare them with a full-sweep reference search.

use ccs_core::{Result, SolveContext};
use std::collections::VecDeque;

/// How many DFS nodes are expanded between two context checkpoints; a power
/// of two so the test is a mask.
const CTX_CHECK_MASK: usize = 0xFF;

/// Comparison of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    /// `Σ aᵢ xᵢ = rhs`
    Eq,
    /// `Σ aᵢ xᵢ ≤ rhs`
    Le,
}

#[derive(Debug, Clone)]
struct Constraint {
    /// Non-zero coefficients; a variable appears at most once.
    terms: Vec<(usize, i64)>,
    cmp: Cmp,
    rhs: i64,
}

/// A bounded-integer feasibility program.
#[derive(Debug, Clone, Default)]
pub(crate) struct IntProgram {
    lower: Vec<i64>,
    upper: Vec<i64>,
    constraints: Vec<Constraint>,
}

/// Outcome of [`IntProgram::solve_ctx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IlpOutcome {
    /// A feasible assignment (indexed by variable).
    Feasible(Vec<i64>),
    /// Proven infeasible.
    Infeasible,
    /// The node budget was exhausted before a decision was reached.
    Unknown,
}

impl IntProgram {
    /// Creates an empty program.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with inclusive bounds `[lower, upper]`, returning its
    /// index.
    pub(crate) fn add_var(&mut self, lower: i64, upper: i64) -> usize {
        assert!(lower <= upper, "empty variable domain");
        self.lower.push(lower);
        self.upper.push(upper);
        self.lower.len() - 1
    }

    /// Number of variables.
    fn num_vars(&self) -> usize {
        self.lower.len()
    }

    /// Adds `Σ aᵢ xᵢ = rhs`; a variable may appear in `terms` at most once.
    pub(crate) fn add_eq(&mut self, terms: Vec<(usize, i64)>, rhs: i64) {
        self.add(terms, Cmp::Eq, rhs);
    }

    /// Adds `Σ aᵢ xᵢ ≤ rhs`; a variable may appear in `terms` at most once.
    pub(crate) fn add_le(&mut self, terms: Vec<(usize, i64)>, rhs: i64) {
        self.add(terms, Cmp::Le, rhs);
    }

    fn add(&mut self, terms: Vec<(usize, i64)>, cmp: Cmp, rhs: i64) {
        let terms: Vec<(usize, i64)> = terms.into_iter().filter(|&(_, a)| a != 0).collect();
        for &(v, _) in &terms {
            assert!(v < self.num_vars(), "unknown variable");
        }
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Solves the program with the given node budget.  The DFS polls `ctx`
    /// every few hundred nodes and aborts with
    /// [`ccs_core::CcsError::DeadlineExceeded`] /
    /// [`ccs_core::CcsError::Cancelled`] when its budget runs out.
    pub(crate) fn solve_ctx(&self, max_nodes: usize, ctx: &SolveContext) -> Result<IlpOutcome> {
        #[cfg(test)]
        tests::record(self);
        Ok(self.search(max_nodes, ctx)?.0)
    }

    /// [`Self::solve_ctx`] with the number of nodes the search expanded.
    fn search(&self, max_nodes: usize, ctx: &SolveContext) -> Result<(IlpOutcome, usize)> {
        let mut search = Search::new(self, max_nodes);
        let outcome = if search.dfs(ctx)? {
            IlpOutcome::Feasible(search.lower)
        } else if search.budget_hit {
            IlpOutcome::Unknown
        } else {
            IlpOutcome::Infeasible
        };
        Ok((outcome, search.nodes))
    }

    /// Exact check of a fully fixed assignment.
    fn check(&self, x: &[i64]) -> bool {
        self.constraints.iter().all(|con| {
            let lhs: i64 = con.terms.iter().map(|&(v, a)| a * x[v]).sum();
            match con.cmp {
                Cmp::Eq => lhs == con.rhs,
                Cmp::Le => lhs <= con.rhs,
            }
        })
    }
}

/// The state of one incremental search over a program.
struct Search<'p> {
    program: &'p IntProgram,
    /// `watch[watch_start[v]..watch_start[v + 1]]` lists the constraints
    /// variable `v` appears in.
    watch_start: Vec<usize>,
    watch: Vec<usize>,
    lower: Vec<i64>,
    upper: Vec<i64>,
    /// `(variable, lower, upper)` before every bound change, newest last.
    trail: Vec<(usize, i64, i64)>,
    /// Constraints that hold a tightened variable and await re-examination.
    queue: VecDeque<usize>,
    queued: Vec<bool>,
    nodes: usize,
    max_nodes: usize,
    budget_hit: bool,
}

impl<'p> Search<'p> {
    /// The root state: the program's bounds, with every constraint queued.
    fn new(program: &'p IntProgram, max_nodes: usize) -> Self {
        let vars = program.num_vars();
        let mut watch_start = vec![0; vars + 1];
        for con in &program.constraints {
            for &(v, _) in &con.terms {
                watch_start[v + 1] += 1;
            }
        }
        for v in 0..vars {
            watch_start[v + 1] += watch_start[v];
        }
        let mut fill = watch_start.clone();
        let mut watch = vec![0; watch_start[vars]];
        for (c, con) in program.constraints.iter().enumerate() {
            for &(v, _) in &con.terms {
                watch[fill[v]] = c;
                fill[v] += 1;
            }
        }
        Search {
            program,
            watch_start,
            watch,
            lower: program.lower.clone(),
            upper: program.upper.clone(),
            trail: Vec::new(),
            queue: (0..program.constraints.len()).collect(),
            queued: vec![true; program.constraints.len()],
            nodes: 0,
            max_nodes,
            budget_hit: false,
        }
    }

    /// Expands one node: propagates the queued constraints, then branches.
    /// On `true` the bounds hold the feasible point found.
    fn dfs(&mut self, ctx: &SolveContext) -> Result<bool> {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.budget_hit = true;
            return Ok(false);
        }
        if self.nodes & CTX_CHECK_MASK == 0 {
            ctx.checkpoint()?;
        }
        if !self.propagate() {
            return Ok(false);
        }
        let Some(v) = self.branch_variable() else {
            // Everything fixed; propagation already verified feasibility
            // bounds, do a final exact check.
            return Ok(self.program.check(&self.lower));
        };
        let (lo, hi) = (self.lower[v], self.upper[v]);
        for value in lo..=hi {
            let mark = self.trail.len();
            self.set_bounds(v, value, value);
            if self.dfs(ctx)? {
                return Ok(true);
            }
            for (v, lo, hi) in self.trail.drain(mark..).rev() {
                self.lower[v] = lo;
                self.upper[v] = hi;
            }
            if self.budget_hit {
                return Ok(false);
            }
        }
        Ok(false)
    }

    /// The unfixed variable with the smallest domain, the lowest index on
    /// ties.  No domain is smaller than two values, so the first such
    /// variable ends the scan.
    fn branch_variable(&self) -> Option<usize> {
        let mut best: Option<(usize, i64)> = None;
        for (v, (&lo, &hi)) in self.lower.iter().zip(&self.upper).enumerate() {
            let width = hi - lo;
            if width > 0 && best.is_none_or(|(_, w)| width < w) {
                best = Some((v, width));
                if width == 1 {
                    break;
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Narrows `v` to `[lower, upper]`, recording its old bounds on the
    /// trail and queuing the constraints it appears in.
    fn set_bounds(&mut self, v: usize, lower: i64, upper: i64) {
        self.trail.push((v, self.lower[v], self.upper[v]));
        self.lower[v] = lower;
        self.upper[v] = upper;
        for &c in &self.watch[self.watch_start[v]..self.watch_start[v + 1]] {
            if !self.queued[c] {
                self.queued[c] = true;
                self.queue.push_back(c);
            }
        }
    }

    /// Re-examines queued constraints until none is left; `false` on a
    /// detected conflict (the queue is then emptied).
    fn propagate(&mut self) -> bool {
        while let Some(c) = self.queue.pop_front() {
            self.queued[c] = false;
            if !self.revise(c) {
                for c in self.queue.drain(..) {
                    self.queued[c] = false;
                }
                return false;
            }
        }
        true
    }

    /// Bounds consistency for one constraint: tightens every variable of it
    /// against the others' bounds; `false` on a conflict.
    fn revise(&mut self, c: usize) -> bool {
        let con = &self.program.constraints[c];
        // Min / max achievable value of the left-hand side.
        let (mut min, mut max) = (0i64, 0i64);
        for &(v, a) in &con.terms {
            let (lo, hi) = (a * self.lower[v], a * self.upper[v]);
            min += lo.min(hi);
            max += lo.max(hi);
        }
        // The slack of `Σ aᵢ xᵢ ≤ rhs` at the minimum, and of `≥ rhs` (the
        // other half of an equation) at the maximum.
        let below = con.rhs - min;
        let above = match con.cmp {
            Cmp::Eq => max - con.rhs,
            Cmp::Le if max <= con.rhs => return true,
            Cmp::Le => i64::MAX,
        };
        if below < 0 || above < 0 {
            return false;
        }
        // A term moves its slack by at most `|a|·(hi - lo)`; it is tightened
        // only where that exceeds the slack.
        for &(v, a) in &con.terms {
            let (lo, hi) = (self.lower[v], self.upper[v]);
            let span = a.abs() * (hi - lo);
            let (mut new_lo, mut new_hi) = (lo, hi);
            if span > below {
                if a > 0 {
                    new_hi = lo + below / a;
                } else {
                    new_lo = hi - below / -a;
                }
            }
            if span > above {
                if a > 0 {
                    new_lo = new_lo.max(hi - above / a);
                } else {
                    new_hi = new_hi.min(lo + above / -a);
                }
            }
            if (new_lo, new_hi) != (lo, hi) {
                if new_lo > new_hi {
                    return false;
                }
                self.set_bounds(v, new_lo, new_hi);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn solve(p: &IntProgram, max_nodes: usize) -> IlpOutcome {
        p.solve_ctx(max_nodes, &SolveContext::unbounded()).unwrap()
    }

    #[test]
    fn simple_equation() {
        let mut p = IntProgram::new();
        let x = p.add_var(0, 10);
        let y = p.add_var(0, 10);
        p.add_eq(vec![(x, 1), (y, 2)], 7);
        p.add_le(vec![(x, 1)], 2);
        match solve(&p, 10_000) {
            IlpOutcome::Feasible(sol) => {
                assert!(sol[x] <= 2);
                assert_eq!(sol[x] + 2 * sol[y], 7);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = IntProgram::new();
        let x = p.add_var(0, 3);
        let y = p.add_var(0, 3);
        p.add_eq(vec![(x, 2), (y, 2)], 7); // odd rhs, even lhs
        assert_eq!(solve(&p, 10_000), IlpOutcome::Infeasible);
    }

    #[test]
    fn propagation_alone_solves_chains() {
        let mut p = IntProgram::new();
        let vars: Vec<usize> = (0..6).map(|_| p.add_var(0, 5)).collect();
        // x0 = 5, x_{i+1} = x_i - 1.
        p.add_eq(vec![(vars[0], 1)], 5);
        for w in vars.windows(2) {
            p.add_eq(vec![(w[0], 1), (w[1], -1)], 1);
        }
        match solve(&p, 100) {
            IlpOutcome::Feasible(sol) => {
                assert_eq!(sol[vars[5]], 0);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn negative_coefficients() {
        let mut p = IntProgram::new();
        let x = p.add_var(0, 10);
        let y = p.add_var(0, 10);
        p.add_eq(vec![(x, 3), (y, -2)], 4);
        p.add_le(vec![(x, -1), (y, -1)], -5); // x + y >= 5
        match solve(&p, 10_000) {
            IlpOutcome::Feasible(sol) => {
                assert_eq!(3 * sol[x] - 2 * sol[y], 4);
                assert!(sol[x] + sol[y] >= 5);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut p = IntProgram::new();
        let vars: Vec<usize> = (0..12).map(|_| p.add_var(0, 6)).collect();
        // A subset-sum style constraint with no solution but a big search
        // space: Σ 7·x_i = 5 is infeasible and propagation sees it quickly,
        // so use a harder one: Σ (2 x_i) = 13.
        p.add_eq(vars.iter().map(|&v| (v, 2)).collect(), 13);
        assert_eq!(solve(&p, 1_000_000), IlpOutcome::Infeasible);
        // With an extremely small budget the solver may give up on a
        // *feasible* cousin instead of wrongly claiming infeasibility.
        let mut q = IntProgram::new();
        let vars: Vec<usize> = (0..30).map(|_| q.add_var(0, 1)).collect();
        for w in vars.chunks(2) {
            q.add_le(vec![(w[0], 1), (w[1], 1)], 1);
        }
        q.add_eq(vars.iter().map(|&v| (v, 1)).collect(), 15);
        match solve(&q, 3) {
            IlpOutcome::Unknown | IlpOutcome::Feasible(_) => {}
            IlpOutcome::Infeasible => panic!("must not claim infeasibility under budget"),
        }
    }

    #[test]
    fn expired_deadline_aborts_the_search() {
        use ccs_core::CcsError;
        use std::time::Duration;
        // A search space large enough that more than CTX_CHECK_MASK nodes
        // must be expanded before a decision.
        let mut p = IntProgram::new();
        let vars: Vec<usize> = (0..40).map(|_| p.add_var(0, 1)).collect();
        for w in vars.chunks(2) {
            p.add_le(vec![(w[0], 1), (w[1], 1)], 1);
        }
        p.add_eq(vars.iter().map(|&v| (v, 1)).collect(), 21);
        let ctx = SolveContext::unbounded().with_timeout(Duration::ZERO);
        assert_eq!(
            p.solve_ctx(100_000_000, &ctx),
            Err(CcsError::DeadlineExceeded)
        );
    }

    #[test]
    fn knapsack_like_packing() {
        // 3 item types with multiplicities packed into capacity exactly.
        let mut p = IntProgram::new();
        let a = p.add_var(0, 4);
        let b = p.add_var(0, 4);
        let c = p.add_var(0, 4);
        p.add_eq(vec![(a, 5), (b, 3), (c, 2)], 16);
        p.add_le(vec![(a, 1), (b, 1), (c, 1)], 5);
        match solve(&p, 10_000) {
            IlpOutcome::Feasible(sol) => {
                assert_eq!(5 * sol[a] + 3 * sol[b] + 2 * sol[c], 16);
                assert!(sol[a] + sol[b] + sol[c] <= 5);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    thread_local! {
        /// Every program `solve_ctx` is called with on this thread, while
        /// [`recording`] runs.
        static RECORDED: RefCell<Option<Vec<IntProgram>>> = const { RefCell::new(None) };
    }

    pub(super) fn record(program: &IntProgram) {
        RECORDED.with(|recorded| {
            if let Some(programs) = recorded.borrow_mut().as_mut() {
                programs.push(program.clone());
            }
        });
    }

    /// Runs `f` on this thread with no fan-out and returns the programs it
    /// solved.
    fn recording(f: impl FnOnce()) -> Vec<IntProgram> {
        RECORDED.with(|recorded| *recorded.borrow_mut() = Some(Vec::new()));
        ccs_core::par::serially(f);
        RECORDED.with(|recorded| recorded.borrow_mut().take().expect("recording"))
    }

    /// Node budgets to compare at: a few that end searches in `Unknown`, and
    /// one no test program reaches.
    const BUDGETS: [usize; 6] = [1, 2, 3, 5, 17, 1_000_000];

    /// The incremental search against the full-sweep reference: the same
    /// outcome and node count at every budget, with the reference never at
    /// its round cap.  Returns the outcomes, budget by budget.
    fn assert_matches_reference(p: &IntProgram, label: &str) -> Vec<IlpOutcome> {
        BUDGETS
            .iter()
            .map(|&max_nodes| {
                let reference = reference::solve(p, max_nodes);
                assert!(!reference.cap_hit, "{label}: reference hit its round cap");
                let (outcome, nodes) = p.search(max_nodes, &SolveContext::unbounded()).unwrap();
                assert_eq!(outcome, reference.outcome, "{label}, budget {max_nodes}");
                assert_eq!(nodes, reference.nodes, "{label}, budget {max_nodes}");
                outcome
            })
            .collect()
    }

    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }

        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as u64) as i64
        }
    }

    /// A random program: domains inside `0..=6`, `Eq` and `Le` rows over
    /// distinct variables with coefficients in `-4..=4`, right-hand sides
    /// drawn around the value at a random point so that both verdicts occur.
    fn random_program(rng: &mut Lcg) -> IntProgram {
        let mut p = IntProgram::new();
        let vars = rng.range(1, 10) as usize;
        for _ in 0..vars {
            let lo = rng.range(0, 3);
            p.add_var(lo, rng.range(lo, 6));
        }
        let point: Vec<i64> = (0..vars)
            .map(|v| rng.range(p.lower[v], p.upper[v]))
            .collect();
        for _ in 0..rng.range(1, 8) {
            let mut pool: Vec<usize> = (0..vars).collect();
            let mut terms = Vec::new();
            for _ in 0..rng.range(1, vars.min(5) as i64) {
                let v = pool.swap_remove(rng.below(pool.len() as u64) as usize);
                let a = match rng.range(-4, 3) {
                    0 => 4,
                    a => a,
                };
                terms.push((v, a));
            }
            let at_point: i64 = terms.iter().map(|&(v, a)| a * point[v]).sum();
            // At least half the rows hold at the point, so feasible
            // programs occur.
            let rhs = at_point + rng.range(-2, 2) * i64::from(rng.below(2) == 0);
            if rng.below(2) == 0 {
                p.add_eq(terms, rhs);
            } else {
                p.add_le(terms, rhs);
            }
        }
        p
    }

    #[test]
    fn incremental_search_matches_the_reference_on_random_programs() {
        let mut rng = Lcg(0x5EED_1CE5);
        let (mut feasible, mut infeasible, mut unknown) = (0, 0, 0);
        for case in 0..1000 {
            let p = random_program(&mut rng);
            let outcomes = assert_matches_reference(&p, &format!("random program {case}"));
            for outcome in outcomes {
                match outcome {
                    IlpOutcome::Feasible(_) => feasible += 1,
                    IlpOutcome::Infeasible => infeasible += 1,
                    IlpOutcome::Unknown => unknown += 1,
                }
            }
        }
        // The sweep exercises every verdict.
        assert!(feasible > 300 && infeasible > 300 && unknown > 300);
    }

    #[test]
    fn incremental_search_matches_the_reference_on_configuration_programs() {
        use ccs_core::instance::instance_from_pairs;
        use ccs_core::Solver;
        let params = |delta_inv| crate::PtasParams::with_delta_inv(delta_inv).unwrap();
        let ctx = SolveContext::unbounded();
        let programs = recording(|| {
            // The non-preemptive frame of `ci/ptas-requests.ndjson`.
            let jobs = [
                (36, 0),
                (80, 4),
                (48, 0),
                (14, 2),
                (100, 2),
                (2, 4),
                (84, 3),
                (18, 1),
                (26, 2),
            ];
            let inst = instance_from_pairs(4, 2, &jobs).unwrap();
            let solver = crate::NonpreemptivePtas::new(params(7));
            solver.solve_ctx(&inst, &ctx).unwrap();
            let inst = instance_from_pairs(2, 2, &[(12, 0), (6, 1), (2, 2)]).unwrap();
            crate::SplittablePtas::new(params(4))
                .solve_ctx(&inst, &ctx)
                .unwrap();
        });
        assert!(programs.len() >= 6, "{} programs", programs.len());
        for (i, p) in programs.iter().enumerate() {
            assert_matches_reference(p, &format!("configuration program {i}"));
        }
    }

    /// The search before it became incremental, kept as the oracle of the
    /// tests above: every node copies both bound vectors and propagates by
    /// full sweeps over every constraint, at most 32 of them.
    mod reference {
        use super::super::{Cmp, IlpOutcome, IntProgram};

        pub(super) struct Reference {
            pub(super) outcome: IlpOutcome,
            pub(super) nodes: usize,
            /// Some propagation stopped at its 32nd sweep with bounds still
            /// changing.
            pub(super) cap_hit: bool,
        }

        #[derive(Default)]
        struct State {
            nodes: usize,
            budget_hit: bool,
            cap_hit: bool,
        }

        pub(super) fn solve(p: &IntProgram, max_nodes: usize) -> Reference {
            let mut state = State::default();
            let mut lower = p.lower.clone();
            let mut upper = p.upper.clone();
            let found = dfs(p, &mut lower, &mut upper, max_nodes, &mut state);
            Reference {
                outcome: match found {
                    Some(x) => IlpOutcome::Feasible(x),
                    None if state.budget_hit => IlpOutcome::Unknown,
                    None => IlpOutcome::Infeasible,
                },
                nodes: state.nodes,
                cap_hit: state.cap_hit,
            }
        }

        fn dfs(
            p: &IntProgram,
            lower: &mut [i64],
            upper: &mut [i64],
            max_nodes: usize,
            state: &mut State,
        ) -> Option<Vec<i64>> {
            state.nodes += 1;
            if state.nodes > max_nodes {
                state.budget_hit = true;
                return None;
            }
            if !propagate(p, lower, upper, &mut state.cap_hit) {
                return None;
            }
            let branch = (0..p.num_vars())
                .filter(|&v| lower[v] < upper[v])
                .min_by_key(|&v| upper[v] - lower[v]);
            let Some(v) = branch else {
                return p.check(lower).then(|| lower.to_vec());
            };
            for value in lower[v]..=upper[v] {
                let mut new_lower = lower.to_vec();
                let mut new_upper = upper.to_vec();
                new_lower[v] = value;
                new_upper[v] = value;
                if let Some(x) = dfs(p, &mut new_lower, &mut new_upper, max_nodes, state) {
                    return Some(x);
                }
                if state.budget_hit {
                    return None;
                }
            }
            None
        }

        fn propagate(p: &IntProgram, lower: &mut [i64], upper: &mut [i64], cap: &mut bool) -> bool {
            for _round in 0..32 {
                let mut changed = false;
                for con in &p.constraints {
                    let mut min = 0i64;
                    let mut max = 0i64;
                    for &(v, a) in &con.terms {
                        if a > 0 {
                            min += a * lower[v];
                            max += a * upper[v];
                        } else {
                            min += a * upper[v];
                            max += a * lower[v];
                        }
                    }
                    match con.cmp {
                        Cmp::Eq => {
                            if min > con.rhs || max < con.rhs {
                                return false;
                            }
                        }
                        Cmp::Le => {
                            if min > con.rhs {
                                return false;
                            }
                            if max <= con.rhs {
                                continue;
                            }
                        }
                    }
                    for &(v, a) in &con.terms {
                        let (contrib_min, contrib_max) = if a > 0 {
                            (a * lower[v], a * upper[v])
                        } else {
                            (a * upper[v], a * lower[v])
                        };
                        let rest_min = min - contrib_min;
                        let rest_max = max - contrib_max;
                        let ub_ax = con.rhs - rest_min;
                        if a > 0 {
                            let new_hi = div_floor(ub_ax, a);
                            if new_hi < upper[v] {
                                upper[v] = new_hi;
                                changed = true;
                            }
                        } else {
                            let new_lo = div_ceil(ub_ax, a);
                            if new_lo > lower[v] {
                                lower[v] = new_lo;
                                changed = true;
                            }
                        }
                        if con.cmp == Cmp::Eq {
                            let lb_ax = con.rhs - rest_max;
                            if a > 0 {
                                let new_lo = div_ceil(lb_ax, a);
                                if new_lo > lower[v] {
                                    lower[v] = new_lo;
                                    changed = true;
                                }
                            } else {
                                let new_hi = div_floor(lb_ax, a);
                                if new_hi < upper[v] {
                                    upper[v] = new_hi;
                                    changed = true;
                                }
                            }
                        }
                        if lower[v] > upper[v] {
                            return false;
                        }
                    }
                }
                if !changed {
                    return true;
                }
            }
            *cap = true;
            true
        }

        /// Floor of the exact quotient `a / b` for any non-zero `b`.
        fn div_floor(a: i64, b: i64) -> i64 {
            let q = a / b;
            if a % b != 0 && ((a < 0) != (b < 0)) {
                q - 1
            } else {
                q
            }
        }

        /// Ceiling of the exact quotient `a / b` for any non-zero `b`.
        fn div_ceil(a: i64, b: i64) -> i64 {
            -div_floor(-a, b)
        }
    }
}
