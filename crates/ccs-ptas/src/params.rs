//! PTAS accuracy parameters.

use ccs_core::{CcsError, Guarantee, Rational, Result};

/// Accuracy parameter of the approximation schemes.
///
/// The schemes guarantee a makespan of at most `(1 + O(δ)) · opt(I)`, with the
/// constant in the `O(δ)` bounded by 8 for every case implemented here, and a
/// running time exponential in `1/δ`.  `1/δ` must be an integer (as in the
/// paper) of at least 2, so the only ways to build parameters are the
/// validating constructors; a struct literal does not compile:
///
/// ```compile_fail
/// let params = ccs_ptas::PtasParams { delta_inv: 0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtasParams {
    /// `1/δ` (at least 2).
    delta_inv: u64,
}

impl PtasParams {
    /// Constant of the `O(δ)` error term: the schemes return schedules of
    /// makespan at most `(1 + ERROR_FACTOR · δ) · opt(I)`.
    pub const ERROR_FACTOR: u64 = 8;

    /// Creates parameters from an explicit `1/δ`.
    pub fn with_delta_inv(delta_inv: u64) -> Result<Self> {
        if delta_inv < 2 {
            return Err(CcsError::invalid_parameter("1/δ must be at least 2"));
        }
        Ok(PtasParams { delta_inv })
    }

    /// Creates parameters for a target approximation factor `1 + ε`:
    /// `1/δ = ⌈ERROR_FACTOR / ε⌉`, so the guarantee is `(1 + ε) · opt(I)`.
    ///
    /// Small `ε` leads to very large configuration spaces; values below
    /// `1/4` are rejected to protect callers from accidentally unbounded
    /// running times (use [`Self::with_delta_inv`] to override).
    pub fn from_epsilon(epsilon: f64) -> Result<Self> {
        if !(0.25..=8.0).contains(&epsilon) {
            return Err(CcsError::invalid_parameter(
                "epsilon must lie in [0.25, 8]; use with_delta_inv for other accuracies",
            ));
        }
        let delta_inv = (Self::ERROR_FACTOR as f64 / epsilon).ceil() as u64;
        Self::with_delta_inv(delta_inv.max(2))
    }

    /// `δ` as a pair `(1, delta_inv)`.
    pub fn delta_inv(&self) -> u64 {
        self.delta_inv
    }

    /// The guaranteed approximation factor `1 + ERROR_FACTOR · δ`.
    pub fn guaranteed_factor(&self) -> f64 {
        1.0 + Self::ERROR_FACTOR as f64 / self.delta_inv as f64
    }

    /// The guaranteed factor `1 + ERROR_FACTOR · δ` as an exact rational.
    pub(crate) fn guarantee(&self) -> Guarantee {
        Guarantee::Factor(
            Rational::ONE + Rational::new(Self::ERROR_FACTOR as i128, self.delta_inv as i128),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_delta() {
        let p = PtasParams::with_delta_inv(4).unwrap();
        assert_eq!(p.delta_inv(), 4);
        assert!((p.guaranteed_factor() - 3.0).abs() < 1e-9);
        assert!(PtasParams::with_delta_inv(1).is_err());
    }

    #[test]
    fn from_epsilon_rounds_up() {
        let p = PtasParams::from_epsilon(1.0).unwrap();
        assert_eq!(p.delta_inv(), 8);
        assert!(p.guaranteed_factor() <= 2.0);
        let p = PtasParams::from_epsilon(4.0).unwrap();
        assert_eq!(p.delta_inv(), 2);
        assert!(PtasParams::from_epsilon(0.01).is_err());
        assert!(PtasParams::from_epsilon(-1.0).is_err());
    }
}
