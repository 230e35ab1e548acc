//! Adjusted deadlines (§5.2).
//!
//! The paper assumes the *relative* residuals `(y − f(x)) / f(x)` of the
//! fitted model are normally distributed and asks: to keep
//! `P(y > D) ≤ p_miss`, how much earlier should we plan?
//!
//! With `X ~ N(μ, σ)` the relative residual, `P(y > D) ≤ p` becomes
//! `P(Z > ((D − f(x))/f(x) − μ)/σ) ≤ p`, i.e. schedule for
//! `f(x) = D / (1 + a)` with `a = z_p·σ + μ` (the paper's `z = 1.29` at
//! `p = 0.1`; its printed `a = 1.525` is a typo for `0.1525` — only the
//! latter reproduces the paper's own adjusted deadlines D=3600 → 3124 and
//! D=7200 → 6247).

use crate::regression::Fit;
use crate::stats;
use serde::{Deserialize, Serialize};

/// Mean and standard deviation of a model's relative residuals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResidualStats {
    /// Sample mean μ of the relative residuals.
    pub mu: f64,
    /// Sample standard deviation σ.
    pub sigma: f64,
}

impl ResidualStats {
    /// Compute from relative residuals.
    pub fn from_relative_residuals(rel: &[f64]) -> Self {
        let finite: Vec<f64> = rel.iter().copied().filter(|r| r.is_finite()).collect();
        assert!(!finite.is_empty(), "no finite residuals");
        ResidualStats {
            mu: stats::mean(&finite),
            sigma: stats::stddev(&finite),
        }
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, absolute
/// error < 1.15e-9 over (0, 1)).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The paper's adjustment factor `a = z·σ + μ` for a miss probability
/// `p_miss` (z is the upper-tail quantile, e.g. 1.2816 at 10 %; the paper
/// rounds to 1.29).
pub fn adjustment_factor(res: &ResidualStats, p_miss: f64) -> f64 {
    let z = inverse_normal_cdf(1.0 - p_miss);
    z * res.sigma + res.mu
}

/// The adjusted deadline: `D / (1 + a)` when `a > 0`, saturated at `D`
/// otherwise.
///
/// Contract: the result is always in `(0, D]` — adjustment may only move
/// the planning deadline *earlier*. A positive `a` (the model tends to
/// under-predict) tightens the deadline to absorb the expected overshoot.
/// A non-positive `a` (the model over-predicts on average) would naively
/// yield `D / (1 + a) > D`, i.e. plan *later* than the user's deadline —
/// and pathological residuals with `a ≤ −1` used to hit a `1e-9` clamp
/// and return an absurd ~`D·10⁹`. Both now saturate to the raw `D`.
pub fn adjusted_deadline(deadline: f64, a: f64) -> f64 {
    let scale = 1.0 + a;
    if scale <= 1.0 {
        deadline
    } else {
        deadline / scale
    }
}

impl Fit {
    /// The §5.2 planning deadline `D / (1 + a)` for this fit, with `a`
    /// taken from its relative residuals at miss probability `p_miss`.
    /// Every planner that tightens a deadline (the compute plan, the
    /// shuffle budget, admission) calls this one method.
    pub fn adjusted_deadline(&self, deadline_secs: f64, p_miss: f64) -> f64 {
        let res = ResidualStats::from_relative_residuals(&self.relative_residuals);
        adjusted_deadline(deadline_secs, adjustment_factor(&res, p_miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_tables() {
        assert!((inverse_normal_cdf(0.90) - 1.2816).abs() < 1e-3);
        assert!((inverse_normal_cdf(0.975) - 1.9600).abs() < 1e-3);
        assert!((inverse_normal_cdf(0.5) - 0.0).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.10) + 1.2816).abs() < 1e-3);
        assert!((inverse_normal_cdf(0.001) + 3.0902).abs() < 1e-3);
    }

    #[test]
    fn roundtrip_with_normal_cdf() {
        // Φ(Φ⁻¹(p)) ≈ p via the error function approximation of Φ.
        let phi = |z: f64| 0.5 * (1.0 + erf_approx(z / 2.0f64.sqrt()));
        for &p in &[0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let z = inverse_normal_cdf(p);
            assert!((phi(z) - p).abs() < 1e-4, "p = {p}");
        }
    }

    fn erf_approx(x: f64) -> f64 {
        // Abramowitz & Stegun 7.1.26.
        let sign = x.signum();
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let y = 1.0
            - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp();
        sign * y
    }

    #[test]
    fn paper_adjustment_numbers() {
        // The paper prints "a = 1.525", but its own adjusted deadlines
        // (3600 → 3124, 7200 → 6247) imply 1 + a = 3600/3124 = 1.1525,
        // i.e. a = 0.1525 — the printed value dropped the leading zero.
        // With z = 1.29 that is consistent with e.g. σ = 0.1, μ = 0.0235.
        let res = ResidualStats {
            mu: 0.0235,
            sigma: 0.1,
        };
        let z = inverse_normal_cdf(0.9);
        let a = z * res.sigma + res.mu;
        assert!((a - 0.1525).abs() < 0.001, "a = {a}");
        let d1 = adjusted_deadline(3600.0, a);
        assert!((d1 - 3124.0).abs() < 10.0, "D1 = {d1}"); // paper: 3124
        let d2 = adjusted_deadline(7200.0, a);
        assert!((d2 - 6247.0).abs() < 20.0, "D2 = {d2}"); // paper: 6247
    }

    #[test]
    fn residual_stats_ignore_nan() {
        let rel = [0.1, -0.1, f64::NAN, 0.2];
        let s = ResidualStats::from_relative_residuals(&rel);
        assert!((s.mu - 0.0667).abs() < 1e-3);
    }

    #[test]
    fn adjusted_deadline_clamped() {
        assert!(adjusted_deadline(100.0, -2.0) > 0.0);
        assert!((adjusted_deadline(100.0, 0.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn pathological_residuals_saturate_to_raw_deadline() {
        // a ≤ −1 used to divide by the 1e-9 clamp and plan for ~D·10⁹;
        // any a ≤ 0 must fall back to the raw deadline, never later.
        for a in [-5.0, -2.0, -1.0, -0.999, -0.5, -1e-12, 0.0] {
            let d = adjusted_deadline(3600.0, a);
            assert!((d - 3600.0).abs() < 1e-12, "a = {a} gave {d}");
        }
    }

    #[test]
    fn adjusted_deadline_stays_within_raw() {
        for a in [-5.0, -1.0, -1e-9, 0.0, 1e-9, 0.1525, 0.3, 10.0] {
            let d = adjusted_deadline(1000.0, a);
            assert!(d > 0.0 && d <= 1000.0, "a = {a} gave {d}");
        }
        // Positive adjustment factors still tighten the deadline.
        assert!(adjusted_deadline(3600.0, 0.1525) < 3600.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_domain_checked() {
        inverse_normal_cdf(1.0);
    }
}
