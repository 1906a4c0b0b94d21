//! Materialisation of the paper's N-fold ILP for the splittable case, built
//! for tests only.
//!
//! The PTASs in this crate solve the *aggregated* configuration ILP (see the
//! crate documentation); this module builds the corresponding N-fold program
//! exactly as written in Section 4.1 of the paper — one brick per class with
//! duplicated configuration variables — so that its block structure and
//! parameters (`r`, `s`, `t`, `Δ`) can be inspected, and so that the
//! certificates the aggregated solver accepts can be checked against it
//! (Lemma 9).

use crate::config::{enumerate_configs_ctx, Config};
use crate::params::PtasParams;
use crate::scale::GuessScale;
use ccs_core::{Instance, Rational, SolveContext};
use nfold::NFold;

/// Builds the splittable-case N-fold of the paper for a guess `T`.
///
/// Brick layout per class `u` (in this order):
/// `x^u_K` for every configuration, `y^u_q` for every module size, `z^u_{h,b}`
/// for every group, plus two slack columns per group turning constraints (2)
/// and (3) into equalities.
pub(crate) fn build_splittable_nfold(
    inst: &Instance,
    guess: Rational,
    params: PtasParams,
) -> NFold {
    let scale = GuessScale::new(guess, params);
    let c_eff = inst.effective_class_slots() as i64;
    let c_star = (c_eff as u64).min(scale.tbar_units / scale.delta_inv);
    let module_sizes: Vec<u64> = (scale.delta_inv..=scale.tbar_units).collect();
    let configs = enumerate_configs_ctx(
        &module_sizes,
        scale.tbar_units,
        c_star,
        &SolveContext::unbounded(),
    )
    .unwrap();
    let mut groups: Vec<(u64, u64)> = configs.iter().map(Config::group).collect();
    groups.sort_unstable();
    groups.dedup();

    let n = inst.num_classes();
    let k = configs.len();
    let q = module_sizes.len();
    let g = groups.len();
    let t = k + q + 3 * g; // x, y, z plus two slack columns per group
    let r = 1 + q + 2 * g; // (0), (1), (2), (3); the locally uniform rows (4), (5) give s = 2
    let m = inst.machines() as i64;

    // Globally uniform block (identical for every brick).
    let mut a_block = vec![vec![0i64; t]; r];
    for (ki, config) in configs.iter().enumerate() {
        a_block[0][ki] = 1; // (0)
        for (qi, &qs) in module_sizes.iter().enumerate() {
            a_block[1 + qi][ki] = config.multiplicity(qs) as i64; // (1)
        }
        let gi = groups.iter().position(|&gr| gr == config.group()).unwrap();
        let (h, b) = config.group();
        a_block[1 + q + gi][ki] = -(c_eff - b as i64); // (2): z - (c-b) x ≤ 0
        a_block[1 + q + g + gi][ki] = -(((scale.tbar_units - h) as i64) * c_eff);
        // (3)
    }
    for (qi, _) in module_sizes.iter().enumerate() {
        a_block[1 + qi][k + qi] = -1; // (1): … = Σ_u y^u_q
    }
    for gi in 0..g {
        a_block[1 + q + gi][k + q + gi] = 1; // z in (2)
        a_block[1 + q + gi][k + q + g + gi] = 1; // slack of (2)
        a_block[1 + q + g + gi][k + q + 2 * g + gi] = 1; // slack of (3)
    }
    // z coefficients in (3) are class dependent (p'_u), so they live in the
    // per-class copies of the top block.
    let fine_unit = scale.unit / Rational::from(c_eff as u64);
    let mut a_blocks = Vec::with_capacity(n);
    let mut b_blocks = Vec::with_capacity(n);
    let mut rhs_bricks = Vec::with_capacity(n);
    let mut lower = Vec::new();
    let mut upper = Vec::new();
    for class in 0..n {
        let load = Rational::from(inst.class_load(class));
        let is_small = load <= scale.small_threshold;
        let mut a_u = a_block.clone();
        if is_small {
            let s_u = (load / fine_unit).ceil();
            for gi in 0..g {
                a_u[1 + q + g + gi][k + q + gi] = s_u as i64; // p'_u z in (3)
            }
        }
        a_blocks.push(a_u);

        // Locally uniform rows: (4) Σ q y^u_q = (1-ξ_u) p'_u and (5) Σ z = ξ_u.
        let mut row4 = vec![0i64; t];
        for (qi, &qs) in module_sizes.iter().enumerate() {
            row4[k + qi] = qs as i64;
        }
        let mut row5 = vec![0i64; t];
        for gi in 0..g {
            row5[k + q + gi] = 1;
        }
        b_blocks.push(vec![row4, row5]);
        let demand = if is_small {
            0
        } else {
            scale.units_ceil(load) as i64
        };
        rhs_bricks.push(vec![demand, i64::from(is_small)]);

        // Bounds for this brick.
        lower.extend(std::iter::repeat_n(0, t));
        let mut ub = Vec::with_capacity(t);
        ub.extend(std::iter::repeat_n(m, k));
        ub.extend(std::iter::repeat_n(m * scale.tbar_units as i64, q));
        ub.extend(std::iter::repeat_n(1, g));
        ub.extend(std::iter::repeat_n(
            m * scale.tbar_units as i64 * c_eff.max(1),
            2 * g,
        ));
        upper.extend(ub);
    }

    let mut rhs_top = vec![m];
    rhs_top.extend(std::iter::repeat_n(0, q + 2 * g));
    NFold::new(a_blocks, b_blocks, rhs_top, rhs_bricks, lower, upper)
        .expect("paper N-fold must be dimensionally consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_ilp::Certificate;
    use ccs_core::instance::instance_from_pairs;

    #[test]
    fn structure_matches_paper_dimensions() {
        let inst = instance_from_pairs(2, 1, &[(30, 0), (20, 1), (1, 2)]).unwrap();
        let params = PtasParams::with_delta_inv(2).unwrap();
        let nf = build_splittable_nfold(&inst, Rational::from_int(30), params);
        nf.validate().unwrap();
        // N bricks = number of classes; s = 2 locally uniform rows as in the
        // paper; r = 1 + |M| + 2·|Λ(K)|·c*-style rows.
        assert_eq!(nf.n, inst.num_classes());
        assert_eq!(nf.s, 2);
        assert!(nf.r >= 1);
        assert!(nf.t > nf.r);
        assert!(nf.delta() >= 1);
    }

    /// Lemma 9: a certificate of the aggregated ILP is a feasible point of
    /// the paper's N-fold once its configuration counts sit in brick 0, each
    /// class's module counts and group choice in its own brick, and the
    /// slacks of (2) and (3) in brick 0.
    fn nfold_point(nf: &NFold, cert: &Certificate) -> Vec<i64> {
        let (k, q) = (cert.configs.len(), cert.columns.len());
        let mut groups: Vec<(u64, u64)> = cert.configs.iter().map(Config::group).collect();
        groups.sort_unstable();
        groups.dedup();
        let g = groups.len();
        assert_eq!(nf.t, k + q + 3 * g, "brick layout");
        let mut x = vec![0i64; nf.num_vars()];
        for (ki, &count) in cert.config_counts.iter().enumerate() {
            x[ki] = count as i64;
        }
        for (class, counts) in &cert.large {
            for (qi, &count) in counts.iter().enumerate() {
                x[class * nf.t + k + qi] = count as i64;
            }
        }
        for &(class, group) in &cert.small {
            let gi = groups.binary_search(&group).unwrap();
            x[class * nf.t + k + q + gi] = 1;
        }
        let top = nf.top_product(&x);
        for gi in 0..g {
            x[k + q + g + gi] = -top[1 + q + gi];
            x[k + q + 2 * g + gi] = -top[1 + q + g + gi];
        }
        x
    }

    #[test]
    fn accepted_certificates_are_feasible_nfold_points() {
        let cases = [
            instance_from_pairs(2, 2, &[(12, 0), (6, 1), (2, 2)]).unwrap(),
            instance_from_pairs(4, 2, &[(7, 0), (8, 0), (9, 1), (5, 2), (3, 3)]).unwrap(),
            instance_from_pairs(3, 2, &[(9, 0), (7, 0), (5, 1), (4, 2), (3, 3), (8, 4)]).unwrap(),
            instance_from_pairs(3, 2, &[(20, 0), (1, 1), (2, 2), (1, 3), (15, 4)]).unwrap(),
        ];
        let ctx = SolveContext::unbounded();
        let (mut large, mut small) = (0, 0);
        for inst in &cases {
            for delta_inv in [2, 3] {
                let params = PtasParams::with_delta_inv(delta_inv).unwrap();
                let res = crate::splittable::run(inst, params, &ctx).unwrap();
                assert!(
                    res.guesses_evaluated > 0,
                    "a one-point grid has no certificate"
                );
                let cert = crate::splittable::decide_ctx(inst, res.guess, params, &ctx)
                    .unwrap()
                    .expect("the winning guess is accepted");
                let nf = build_splittable_nfold(inst, res.guess, params);
                let x = nfold_point(&nf, &cert);
                assert_eq!(
                    nf.check(&x),
                    Ok(()),
                    "1/δ = {delta_inv}, guess {}",
                    res.guess
                );
                large += cert.large.len();
                small += cert.small.len();
            }
        }
        assert!(large > 0 && small > 0, "both kinds of class are exercised");
    }

    #[test]
    fn grows_with_finer_accuracy() {
        let inst = instance_from_pairs(2, 1, &[(30, 0), (20, 1)]).unwrap();
        let coarse = build_splittable_nfold(
            &inst,
            Rational::from_int(30),
            PtasParams::with_delta_inv(2).unwrap(),
        );
        let fine = build_splittable_nfold(
            &inst,
            Rational::from_int(30),
            PtasParams::with_delta_inv(3).unwrap(),
        );
        assert!(fine.t > coarse.t);
        assert!(fine.r > coarse.r);
    }
}
