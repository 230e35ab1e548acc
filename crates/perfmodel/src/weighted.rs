//! Weighted regression — the paper's §7 future-work item, implemented:
//! "we can build a performance model using weighted curve fitting
//! demanding closer fits in the large data volume range and allowing for
//! looser fits in the small data volume range" (small-volume measurements
//! carry the larger relative noise, per Fig 3).

use crate::regression::{check_samples, finish, Fit, FitError, ModelKind};

/// Weights proportional to volume (normalized to mean 1) — the paper's
/// suggestion: trust big-probe observations most.
pub fn volume_weights(xs: &[f64]) -> Vec<f64> {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    xs.iter().map(|&x| x / mean).collect()
}

/// Weights from the noise model: `w = 1/σ_rel(x)²` where the relative
/// noise shrinks as the (predicted) runtime grows — inverse-variance
/// weighting given the run-length-dependent noise of `ec2sim`.
pub fn inverse_variance_weights(ys: &[f64], base_rel: f64, short_rel: f64) -> Vec<f64> {
    ys.iter()
        .map(|&y| {
            let sigma = base_rel + short_rel / y.max(1e-3).sqrt();
            1.0 / (sigma * sigma)
        })
        .collect()
}

fn wls(xs: &[f64], ys: &[f64], ws: &[f64]) -> (f64, f64) {
    let sw: f64 = ws.iter().sum();
    let mx = xs.iter().zip(ws).map(|(&x, &w)| w * x).sum::<f64>() / sw;
    let my = ys.iter().zip(ws).map(|(&y, &w)| w * y).sum::<f64>() / sw;
    let sxy: f64 = xs
        .iter()
        .zip(ys)
        .zip(ws)
        .map(|((&x, &y), &w)| w * (x - mx) * (y - my))
        .sum();
    let sxx: f64 = xs.iter().zip(ws).map(|(&x, &w)| w * (x - mx).powi(2)).sum();
    // lint:allow(RL004, exact-zero guard: identical x-values give a literal zero variance)
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    (my - slope * mx, slope)
}

/// Weighted fit of one model family, rejecting invalid input with a typed
/// [`FitError`]. Weight semantics: observation `i` contributes
/// `weights[i]` times the squared error of an unweighted observation (in
/// the space the family is fitted in).
pub fn try_fit_weighted(
    kind: ModelKind,
    xs: &[f64],
    ys: &[f64],
    weights: &[f64],
) -> Result<Fit, FitError> {
    check_samples(kind, xs, ys)?;
    if xs.len() != weights.len() {
        return Err(FitError::LengthMismatch {
            xs: xs.len(),
            ys: weights.len(),
        });
    }
    if let Some((index, &w)) = weights.iter().enumerate().find(|(_, &w)| w <= 0.0) {
        return Err(FitError::NonPositiveWeight { index, w });
    }
    Ok(fit_weighted_checked(kind, xs, ys, weights))
}

/// Weighted fit of one model family, panicking on invalid input.
///
/// This is the original infallible API; use [`try_fit_weighted`] to handle
/// bad samples or weights as a typed error instead of a panic.
pub fn fit_weighted(kind: ModelKind, xs: &[f64], ys: &[f64], weights: &[f64]) -> Fit {
    assert_eq!(xs.len(), weights.len(), "weight length mismatch");
    match try_fit_weighted(kind, xs, ys, weights) {
        Ok(f) => f,
        // lint:allow(RL002, panicking facade over try_fit_weighted preserves the original API contract)
        Err(e) => panic!("{e}"),
    }
}

/// The fitting kernels, after input validation; [`crate::try_fit`] runs
/// them with unit weights.
pub(crate) fn fit_weighted_checked(
    kind: ModelKind,
    xs: &[f64],
    ys: &[f64],
    weights: &[f64],
) -> Fit {
    match kind {
        ModelKind::Linear => {
            // Y = ln a + X: weighted mean of (ln y − ln x).
            let sw: f64 = weights.iter().sum();
            let ln_a = xs
                .iter()
                .zip(ys)
                .zip(weights)
                .map(|((&x, &y), &w)| w * (y.ln() - x.ln()))
                .sum::<f64>()
                / sw;
            finish(kind, ln_a.exp(), 0.0, xs, ys)
        }
        ModelKind::Affine => {
            let (b, a) = wls(xs, ys, weights);
            finish(kind, a, b, xs, ys)
        }
        ModelKind::PowerLaw => {
            let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
            let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
            let (ln_a, b) = wls(&lx, &ly, weights);
            finish(kind, ln_a.exp(), b, xs, ys)
        }
        ModelKind::Exponential => {
            let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
            let (ln_a, b) = wls(xs, &ly, weights);
            finish(kind, ln_a.exp(), b, xs, ys)
        }
        ModelKind::LogQuad => {
            // Weighted normal equations for Y = a·X² + b·X, X = ln x.
            let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
            let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
            let s22: f64 = lx.iter().zip(weights).map(|(&x, &w)| w * x.powi(4)).sum();
            let s21: f64 = lx.iter().zip(weights).map(|(&x, &w)| w * x.powi(3)).sum();
            let s11: f64 = lx.iter().zip(weights).map(|(&x, &w)| w * x.powi(2)).sum();
            let t2: f64 = lx
                .iter()
                .zip(&ly)
                .zip(weights)
                .map(|((&x, &y), &w)| w * x * x * y)
                .sum();
            let t1: f64 = lx
                .iter()
                .zip(&ly)
                .zip(weights)
                .map(|((&x, &y), &w)| w * x * y)
                .sum();
            let det = s22 * s11 - s21 * s21;
            let (a, b) = if det.abs() < 1e-12 {
                // lint:allow(RL004, exact-zero guard against division by a zero moment)
                (0.0, if s11 != 0.0 { t1 / s11 } else { 0.0 })
            } else {
                ((t2 * s11 - t1 * s21) / det, (s22 * t1 - s21 * t2) / det)
            };
            finish(kind, a, b, xs, ys)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::fit;

    #[test]
    fn unit_weights_match_ols() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e6).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| 2.0e-6 * x + 1.0 + 0.1 * ((k % 5) as f64))
            .collect();
        let w = vec![1.0; xs.len()];
        for kind in ModelKind::ALL {
            let weighted = fit_weighted(kind, &xs, &ys, &w);
            let plain = fit(kind, &xs, &ys);
            assert!(
                (weighted.a - plain.a).abs() < 1e-9 * plain.a.abs().max(1.0),
                "{kind:?}: {} vs {}",
                weighted.a,
                plain.a
            );
            assert!((weighted.b - plain.b).abs() < 1e-6, "{kind:?}");
        }
    }

    #[test]
    fn large_volume_weighting_tracks_large_probes() {
        // Small probes are corrupted; large probes are clean. The weighted
        // fit must recover the clean slope, the unweighted one must not.
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e6).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let clean = 1.0e-6 * x;
                if x < 5.0e6 {
                    clean * 3.0 // badly corrupted small measurements
                } else {
                    clean
                }
            })
            .collect();
        let weighted = fit_weighted(ModelKind::Linear, &xs, &ys, &volume_weights(&xs));
        let plain = fit(ModelKind::Linear, &xs, &ys);
        let err_w = (weighted.a - 1.0e-6).abs();
        let err_p = (plain.a - 1.0e-6).abs();
        assert!(err_w < err_p / 2.0, "weighted {err_w} vs plain {err_p}");
    }

    #[test]
    fn volume_weights_normalized() {
        let w = volume_weights(&[1.0, 2.0, 3.0]);
        let mean = w.iter().sum::<f64>() / 3.0;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(w[2] > w[0]);
    }

    #[test]
    fn inverse_variance_weights_grow_with_runtime() {
        let w = inverse_variance_weights(&[0.1, 1.0, 100.0], 0.03, 0.1);
        assert!(w[0] < w[1] && w[1] < w[2]);
    }

    #[test]
    fn weighted_affine_recovers_exactly_on_clean_data() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e7).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0e-8 * x + 0.5).collect();
        let f = fit_weighted(ModelKind::Affine, &xs, &ys, &volume_weights(&xs));
        assert!((f.a - 3.0e-8).abs() < 1e-15);
        assert!((f.b - 0.5).abs() < 1e-9);
        assert!(f.r2 > 0.999999);
    }

    #[test]
    fn try_fit_weighted_rejects_bad_weights() {
        let r = try_fit_weighted(ModelKind::Affine, &[1.0, 2.0], &[1.0, 2.0], &[1.0, -1.0]);
        assert!(matches!(
            r,
            Err(FitError::NonPositiveWeight { index: 1, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn mismatched_weights_rejected() {
        fit_weighted(ModelKind::Affine, &[1.0, 2.0], &[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_weight_rejected() {
        fit_weighted(ModelKind::Affine, &[1.0, 2.0], &[1.0, 2.0], &[1.0, 0.0]);
    }
}
