//! A small exact integer-feasibility solver (DFS with interval propagation).
//!
//! The configuration integer programs of the PTASs are feasibility problems
//! over bounded integer variables with linear equality and `≤` constraints.
//! This module provides an exact solver for them: bounds-consistency
//! propagation on every constraint interleaved with depth-first branching on
//! the variable with the smallest remaining domain.  It is exponential in the
//! worst case (the problems are NP-hard), which is expected — the paper's
//! PTASs are exponential in `1/δ` as well; a node budget protects callers.

use ccs_core::{Result, SolveContext};

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

    /// Adds `Σ aᵢ xᵢ = rhs`.
    pub(crate) fn add_eq(&mut self, terms: Vec<(usize, i64)>, rhs: i64) {
        self.add(terms, Cmp::Eq, rhs);
    }

    /// Adds `Σ aᵢ xᵢ ≤ rhs`.
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
        let mut lower = self.lower.clone();
        let mut upper = self.upper.clone();
        let mut nodes = 0usize;
        let mut budget_hit = false;
        let result = self.dfs(
            &mut lower,
            &mut upper,
            &mut nodes,
            max_nodes,
            &mut budget_hit,
            ctx,
        )?;
        Ok(match result {
            Some(x) => IlpOutcome::Feasible(x),
            None if budget_hit => IlpOutcome::Unknown,
            None => IlpOutcome::Infeasible,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        lower: &mut [i64],
        upper: &mut [i64],
        nodes: &mut usize,
        max_nodes: usize,
        budget_hit: &mut bool,
        ctx: &SolveContext,
    ) -> Result<Option<Vec<i64>>> {
        *nodes += 1;
        if *nodes > max_nodes {
            *budget_hit = true;
            return Ok(None);
        }
        if *nodes & CTX_CHECK_MASK == 0 {
            ctx.checkpoint()?;
        }
        if !self.propagate(lower, upper) {
            return Ok(None);
        }
        // Pick the unfixed variable with the smallest domain.
        let branch = (0..self.num_vars())
            .filter(|&v| lower[v] < upper[v])
            .min_by_key(|&v| upper[v] - lower[v]);
        let v = match branch {
            Some(v) => v,
            None => {
                // Everything fixed; propagation already verified feasibility
                // bounds, do a final exact check.
                return Ok(if self.check(lower) {
                    Some(lower.to_vec())
                } else {
                    None
                });
            }
        };
        let (lo, hi) = (lower[v], upper[v]);
        for value in lo..=hi {
            let mut new_lower = lower.to_vec();
            let mut new_upper = upper.to_vec();
            new_lower[v] = value;
            new_upper[v] = value;
            if let Some(x) = self.dfs(
                &mut new_lower,
                &mut new_upper,
                nodes,
                max_nodes,
                budget_hit,
                ctx,
            )? {
                return Ok(Some(x));
            }
            if *budget_hit {
                return Ok(None);
            }
        }
        Ok(None)
    }

    /// Bounds-consistency propagation; returns `false` on a detected conflict.
    fn propagate(&self, lower: &mut [i64], upper: &mut [i64]) -> bool {
        for _round in 0..32 {
            let mut changed = false;
            for con in &self.constraints {
                // Min / max achievable value of the left-hand side.
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
                // Tighten every variable of the constraint.
                for &(v, a) in &con.terms {
                    let (contrib_min, contrib_max) = if a > 0 {
                        (a * lower[v], a * upper[v])
                    } else {
                        (a * upper[v], a * lower[v])
                    };
                    let rest_min = min - contrib_min;
                    let rest_max = max - contrib_max;
                    // a * x ≤ rhs - rest_min   (for Le and Eq)
                    // a * x ≥ rhs - rest_max   (for Eq only)
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
        true
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
