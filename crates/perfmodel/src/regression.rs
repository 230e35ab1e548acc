//! Regression over (volume, runtime) observations.
//!
//! The paper's model families (§5):
//!
//! * `Linear` — `y = a·x`, fitted in log space as `Y = ln a + X` (the
//!   intercept-only regression the paper describes);
//! * `Affine` — `y = a·x + b`, ordinary least squares in linear space
//!   (Eqs (1)–(4) all carry intercepts, including a negative one, so this
//!   is the form the paper actually reports);
//! * `PowerLaw` — `y = a·xᵇ`, OLS on `Y = ln a + b·X`;
//! * `LogQuad` — `y = x^{a·ln x + b}`, OLS on `Y = a·X² + b·X`;
//! * `Exponential` — `y = a·e^{b·x}`, OLS on `Y = ln a + b·x`.
//!
//! Every fit reports R² (computed on the original scale so families are
//! comparable), residuals and relative residuals, and can be inverted to
//! answer "how much volume fits before deadline D".

use crate::weighted::fit_weighted_checked;
use serde::{Deserialize, Serialize};

/// The model families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// `y = a·x` (log-space intercept fit).
    Linear,
    /// `y = a·x + b` (linear-space OLS).
    Affine,
    /// `y = a·xᵇ`.
    PowerLaw,
    /// `y = x^{a·ln x + b}`.
    LogQuad,
    /// `y = a·e^{b·x}`.
    Exponential,
}

impl ModelKind {
    /// Every family, for sweeps.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Linear,
        ModelKind::Affine,
        ModelKind::PowerLaw,
        ModelKind::LogQuad,
        ModelKind::Exponential,
    ];

    /// Does fitting this family take `ln x`? Feeding it `x ≤ 0` would
    /// produce NaN/−∞ coefficients.
    pub fn needs_log_x(self) -> bool {
        matches!(
            self,
            ModelKind::Linear | ModelKind::PowerLaw | ModelKind::LogQuad
        )
    }

    /// Does fitting this family take `ln y`? Feeding it `y ≤ 0` would
    /// produce NaN/−∞ coefficients.
    pub fn needs_log_y(self) -> bool {
        !matches!(self, ModelKind::Affine)
    }
}

/// Why a fit was rejected before any coefficient was computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FitError {
    /// `xs` and `ys` differ in length.
    LengthMismatch {
        /// Number of x observations.
        xs: usize,
        /// Number of y observations.
        ys: usize,
    },
    /// Fewer than two observations.
    TooFewObservations {
        /// Number of observations supplied.
        n: usize,
    },
    /// A log-space family saw a sample whose logarithm does not exist;
    /// the fit would silently produce NaN coefficients.
    NonPositiveSample {
        /// Index of the offending observation.
        index: usize,
        /// Its volume.
        x: f64,
        /// Its runtime.
        y: f64,
    },
    /// A weighted fit saw a non-positive weight.
    NonPositiveWeight {
        /// Index of the offending weight.
        index: usize,
        /// Its value.
        w: f64,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FitError::LengthMismatch { xs, ys } => {
                write!(f, "x/y length mismatch: {xs} x-values vs {ys} y-values")
            }
            FitError::TooFewObservations { n } => {
                write!(f, "need at least two observations, got {n}")
            }
            FitError::NonPositiveSample { index, x, y } => write!(
                f,
                "observation {index} (x = {x}, y = {y}) must be positive for log-space fits"
            ),
            FitError::NonPositiveWeight { index, w } => {
                write!(f, "weight {index} is {w}; weights must be positive")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fit {
    /// Which family.
    pub kind: ModelKind,
    /// First parameter (`a`).
    pub a: f64,
    /// Second parameter (`b`; 0 for `Linear`).
    pub b: f64,
    /// Coefficient of determination on the original scale.
    pub r2: f64,
    /// Residuals `y − f(x)` per observation.
    pub residuals: Vec<f64>,
    /// Relative residuals `(y − f(x)) / f(x)` per observation.
    pub relative_residuals: Vec<f64>,
}

impl Fit {
    /// Predicted runtime for volume `x`. `LogQuad` reads volumes below one
    /// byte as one byte, so a share of zero-byte files predicts the model's
    /// 1-byte runtime, `e⁰ = 1` s, instead of `exp(a·ln²x)` → ∞.
    pub fn predict(&self, x: f64) -> f64 {
        match self.kind {
            ModelKind::Linear => self.a * x,
            ModelKind::Affine => self.a * x + self.b,
            ModelKind::PowerLaw => self.a * x.powf(self.b),
            ModelKind::LogQuad => {
                let lx = x.max(1.0).ln();
                (self.a * lx * lx + self.b * lx).exp()
            }
            ModelKind::Exponential => self.a * (self.b * x).exp(),
        }
    }

    /// Invert the predictor: the volume `x` with `f(x) = y`, when the
    /// family is analytically invertible and the parameters make `f`
    /// monotone increasing; `LogQuad` solves its quadratic in `ln x` in
    /// closed form, returning the root on the increasing branch.
    pub fn invert(&self, y: f64) -> Option<f64> {
        match self.kind {
            ModelKind::Linear => (self.a > 0.0 && y >= 0.0).then(|| y / self.a),
            ModelKind::Affine => (self.a > 0.0).then(|| (y - self.b) / self.a),
            ModelKind::PowerLaw => {
                // lint:allow(RL004, exact-zero guard against a degenerate exponent, not a tolerance check)
                (self.a > 0.0 && self.b != 0.0 && y > 0.0).then(|| (y / self.a).powf(1.0 / self.b))
            }
            ModelKind::Exponential => {
                // lint:allow(RL004, exact-zero guard against dividing by a zero rate, not a tolerance check)
                (self.a > 0.0 && self.b != 0.0 && y > 0.0).then(|| (y / self.a).ln() / self.b)
            }
            ModelKind::LogQuad => {
                // ln y = a·L² + b·L with L = ln x: a quadratic in L. Of its
                // two roots `(−b ± √disc) / 2a` the "+" branch has slope
                // `f'(L) = 2aL + b = +√disc ≥ 0` for either sign of `a`, so
                // it is always the root on the increasing branch — the one
                // "volume before deadline" queries want. (The old bisection
                // over [1, 1e18] gave up whenever the bracket endpoints did
                // not straddle `y`, e.g. for any `a < 0`.)
                if y <= 0.0 {
                    return None;
                }
                let ly = y.ln();
                let disc = self.b * self.b + 4.0 * self.a * ly;
                if disc < 0.0 {
                    return None;
                }
                let sqrt_disc = disc.sqrt();
                let denom = self.b + sqrt_disc;
                let l = if denom > 0.0 {
                    // Citardauq form: stable as a → 0 (degenerates to the
                    // pure power-law inverse ln y / b).
                    2.0 * ly / denom
                } else {
                    // b + √disc ≤ 0 forces b ≤ 0; a linear log-model
                    // (a = 0) with b ≤ 0 has no increasing branch.
                    // lint:allow(RL004, exact-zero guard: the quadratic root below divides by a)
                    if self.a == 0.0 {
                        return None;
                    }
                    (-self.b + sqrt_disc) / (2.0 * self.a)
                };
                let x = l.exp();
                x.is_finite().then_some(x)
            }
        }
    }
}

/// Validate observations for `kind`: matching lengths, at least two
/// points, and strictly positive values wherever the family takes a
/// logarithm. `Affine` fits in linear space and accepts any values.
pub(crate) fn check_samples(kind: ModelKind, xs: &[f64], ys: &[f64]) -> Result<(), FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(FitError::TooFewObservations { n: xs.len() });
    }
    for (index, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        if (kind.needs_log_x() && x <= 0.0) || (kind.needs_log_y() && y <= 0.0) {
            return Err(FitError::NonPositiveSample { index, x, y });
        }
    }
    Ok(())
}

/// A fit with coefficients `a`, `b`: its residuals and original-scale R².
pub(crate) fn finish(kind: ModelKind, a: f64, b: f64, xs: &[f64], ys: &[f64]) -> Fit {
    let mut fit = Fit {
        kind,
        a,
        b,
        r2: 0.0,
        residuals: Vec::with_capacity(xs.len()),
        relative_residuals: Vec::with_capacity(xs.len()),
    };
    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let p = fit.predict(x);
        fit.residuals.push(y - p);
        fit.relative_residuals
            // lint:allow(RL004, exact-zero guard against division by a zero prediction)
            .push(if p != 0.0 { (y - p) / p } else { f64::NAN });
        ss_res += (y - p).powi(2);
        ss_tot += (y - mean_y).powi(2);
    }
    // lint:allow(RL004, a constant response makes ss_tot exactly zero; R² is defined by cases there)
    fit.r2 = if ss_tot == 0.0 {
        // lint:allow(RL004, exact-zero residual sum distinguishes a perfect constant fit)
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    fit
}

/// Fit one family to the observations, rejecting invalid input with a
/// typed [`FitError`]. In particular the log-space families (every kind
/// except `Affine`) reject non-positive samples instead of silently
/// producing NaN coefficients.
///
/// This is the weighted fit with unit weights: multiplying by 1.0 is exact
/// and the weights sum to exactly `n`, so it is ordinary least squares to
/// the bit.
pub fn try_fit(kind: ModelKind, xs: &[f64], ys: &[f64]) -> Result<Fit, FitError> {
    check_samples(kind, xs, ys)?;
    Ok(fit_weighted_checked(kind, xs, ys, &vec![1.0; xs.len()]))
}

/// Fit one family to the observations, panicking on invalid input.
///
/// This is the original infallible API; use [`try_fit`] to handle bad
/// samples (e.g. non-positive runtimes under a log-space family) as a
/// typed error instead of a panic.
pub fn fit(kind: ModelKind, xs: &[f64], ys: &[f64]) -> Fit {
    match try_fit(kind, xs, ys) {
        Ok(f) => f,
        // lint:allow(RL002, panicking facade over try_fit preserves the original API contract)
        Err(e) => panic!("{e}"),
    }
}

/// Fit every family.
pub fn fit_all(xs: &[f64], ys: &[f64]) -> Vec<Fit> {
    ModelKind::ALL.iter().map(|&k| fit(k, xs, ys)).collect()
}

/// The fit with the highest original-scale R².
pub fn select_best(fits: &[Fit]) -> &Fit {
    fits.iter()
        .max_by(|a, b| a.r2.total_cmp(&b.r2))
        // lint:allow(RL001, callers pass the non-empty ModelKind::ALL fit set)
        .expect("at least one fit")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_recovers_planted_line() {
        // Large volumes keep all planted runtimes positive despite the
        // negative intercept (the log-space input check requires y > 0).
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8 + 1.0e9).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.324e-8 * x - 0.974).collect();
        let f = fit(ModelKind::Affine, &xs, &ys);
        assert!((f.a - 1.324e-8).abs() < 1e-12);
        assert!((f.b + 0.974).abs() < 1e-6);
        assert!(f.r2 > 0.999999);
        assert!((f.predict(7.55e10) - (1.324e-8 * 7.55e10 - 0.974)).abs() < 1e-6);
    }

    #[test]
    fn linear_log_space_fit_matches_paper_form() {
        // y = 3x exactly: ln a = mean(ln y − ln x) = ln 3.
        let xs = [1.0, 10.0, 100.0, 1000.0];
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x).collect();
        let f = fit(ModelKind::Linear, &xs, &ys);
        assert!((f.a - 3.0).abs() < 1e-12);
        assert!(f.r2 > 0.999999);
    }

    #[test]
    fn power_law_recovers_exponent() {
        let xs: Vec<f64> = (1..=30).map(|i| i as f64 * 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 0.5 * x.powf(1.3)).collect();
        let f = fit(ModelKind::PowerLaw, &xs, &ys);
        assert!((f.a - 0.5).abs() < 1e-9);
        assert!((f.b - 1.3).abs() < 1e-12);
    }

    #[test]
    fn exponential_recovers_rate() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * (0.3 * x).exp()).collect();
        let f = fit(ModelKind::Exponential, &xs, &ys);
        assert!((f.a - 2.0).abs() < 1e-9);
        assert!((f.b - 0.3).abs() < 1e-12);
    }

    #[test]
    fn logquad_recovers_planted_params() {
        let xs: Vec<f64> = (2..=30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let lx = x.ln();
                (0.05 * lx * lx + 0.8 * lx).exp()
            })
            .collect();
        let f = fit(ModelKind::LogQuad, &xs, &ys);
        assert!((f.a - 0.05).abs() < 1e-9, "a = {}", f.a);
        assert!((f.b - 0.8).abs() < 1e-9, "b = {}", f.b);
    }

    #[test]
    fn select_best_prefers_true_family() {
        let xs: Vec<f64> = (1..=40).map(|i| i as f64 * 50.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 0.2 * x.powf(1.5)).collect();
        let fits = fit_all(&xs, &ys);
        let best = select_best(&fits);
        assert_eq!(best.kind, ModelKind::PowerLaw);
    }

    #[test]
    fn inversion_roundtrips() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e9).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 8.65e-5 * x / 1000.0 + 0.327).collect();
        for kind in [ModelKind::Affine, ModelKind::Linear, ModelKind::PowerLaw] {
            let f = fit(kind, &xs, &ys);
            let d = 3600.0;
            if let Some(x) = f.invert(d) {
                assert!((f.predict(x) - d).abs() / d < 1e-6, "{kind:?}");
            }
        }
    }

    #[test]
    fn logquad_inversion_closed_form() {
        let xs: Vec<f64> = (2..=30).map(|i| i as f64 * 1000.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let lx = x.ln();
                (0.01 * lx * lx + 0.5 * lx).exp()
            })
            .collect();
        let f = fit(ModelKind::LogQuad, &xs, &ys);
        let y = f.predict(12_345.0);
        let x = f.invert(y).unwrap();
        assert!((x - 12_345.0).abs() / 12_345.0 < 1e-6);
    }

    fn logquad(a: f64, b: f64) -> Fit {
        Fit {
            kind: ModelKind::LogQuad,
            a,
            b,
            r2: 1.0,
            residuals: Vec::new(),
            relative_residuals: Vec::new(),
        }
    }

    #[test]
    fn logquad_inversion_solves_negative_curvature() {
        // a < 0 caps ln f at L = −b/2a = 10; the old bisection bracket
        // [1, 1e18] saw f(1e18) < y and returned None for every query.
        let f = logquad(-0.05, 1.0);
        let x0 = 5.0f64.exp();
        let y = f.predict(x0);
        let x = f.invert(y).expect("quadratic in ln x is solvable");
        assert!((x - x0).abs() / x0 < 1e-9, "got {x}, want {x0}");
    }

    #[test]
    fn logquad_inversion_below_unity_volume() {
        // y < f(1) = 1 also escaped the old bracket. The increasing-branch
        // root sits below x = 1 and must be found. `predict` reads volumes
        // below one byte as one byte, so the root is checked on the
        // quadratic in ln x itself; planners reject it as below one byte.
        let f = logquad(0.01, 0.5);
        let y = 0.5;
        let x = f.invert(y).expect("root below 1 exists");
        let l = x.ln();
        assert!((f.a * l * l + f.b * l - y.ln()).abs() < 1e-9);
        assert!(x < 1.0);
        assert_eq!(f.predict(x), 1.0);
    }

    #[test]
    fn logquad_inversion_domain_checks() {
        // Below the quadratic's reachable minimum: no real root.
        let f = logquad(-0.05, 1.0);
        // max of ln f is b²/(−4a) = 5 → y above e⁵ is unreachable.
        assert_eq!(f.invert(6.0f64.exp()), None);
        assert_eq!(f.invert(0.0), None);
        assert_eq!(f.invert(-1.0), None);
        // Degenerate a = 0, b ≤ 0: no increasing branch.
        assert_eq!(logquad(0.0, -0.5).invert(2.0), None);
        // Degenerate a = 0, b > 0: pure power law inverse.
        let f = logquad(0.0, 2.0);
        let x = f.invert(16.0).expect("x² = 16");
        assert!((x - 4.0).abs() < 1e-9);
    }

    #[test]
    fn try_fit_rejects_nonpositive_samples_per_kind() {
        let bad_y = ([1.0, 2.0, 3.0], [1.0, -2.0, 3.0]);
        let bad_x = ([1.0, 0.0, 3.0], [1.0, 2.0, 3.0]);
        for kind in [ModelKind::Linear, ModelKind::PowerLaw, ModelKind::LogQuad] {
            assert!(matches!(
                try_fit(kind, &bad_y.0, &bad_y.1),
                Err(FitError::NonPositiveSample { index: 1, .. })
            ));
            assert!(matches!(
                try_fit(kind, &bad_x.0, &bad_x.1),
                Err(FitError::NonPositiveSample { index: 1, .. })
            ));
        }
        // Exponential only logs y: x ≤ 0 is fine, y ≤ 0 is not.
        assert!(matches!(
            try_fit(ModelKind::Exponential, &bad_y.0, &bad_y.1),
            Err(FitError::NonPositiveSample { index: 1, .. })
        ));
        assert!(try_fit(ModelKind::Exponential, &bad_x.0, &bad_x.1).is_ok());
        // Affine fits in linear space and accepts any finite samples.
        let f = try_fit(ModelKind::Affine, &bad_y.0, &bad_y.1).expect("affine accepts y <= 0");
        assert!(f.a.is_finite() && f.b.is_finite());
    }

    #[test]
    fn try_fit_reports_shape_errors() {
        assert_eq!(
            try_fit(ModelKind::Affine, &[1.0], &[1.0, 2.0]),
            Err(FitError::LengthMismatch { xs: 1, ys: 2 })
        );
        assert_eq!(
            try_fit(ModelKind::Affine, &[1.0], &[1.0]),
            Err(FitError::TooFewObservations { n: 1 })
        );
        let err = FitError::NonPositiveSample {
            index: 3,
            x: 1.0,
            y: -2.0,
        };
        assert!(err.to_string().contains("must be positive"));
    }

    #[test]
    fn noisy_fit_r2_below_one_but_high() {
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 * 1.0e7).collect();
        // Deterministic "noise" via a hash-like wobble.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0e-8 * x * (1.0 + 0.02 * ((i * 37 % 11) as f64 / 11.0 - 0.5)))
            .collect();
        let f = fit(ModelKind::Affine, &xs, &ys);
        assert!(f.r2 > 0.99 && f.r2 < 1.0, "r2 {}", f.r2);
        assert_eq!(f.residuals.len(), xs.len());
    }

    #[test]
    #[should_panic(expected = "at least two observations")]
    fn one_point_rejected() {
        fit(ModelKind::Affine, &[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_rejected() {
        fit(ModelKind::Linear, &[1.0, 0.0], &[1.0, 1.0]);
    }
}
