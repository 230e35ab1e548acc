//! Property-based tests for the modelling layer: regression recovers
//! planted coefficients under bounded noise, inversion round-trips,
//! adjusted deadlines behave monotonically, and probe construction
//! conserves volume.

use binpack::Parallelism;
use perfmodel::{
    adjusted_deadline, adjustment_factor, build_probe_chain, build_probe_chain_par, fit,
    fit_weighted, inverse_normal_cdf, try_fit, try_fit_weighted, volume_weights, Fit, Measurement,
    ModelKind, ResidualStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-noise in [-1, 1] from an index.
fn wobble(i: usize) -> f64 {
    (((i * 2654435761) % 1000) as f64 / 500.0) - 1.0
}

/// Every number a fit reports, floats by their bits.
fn fit_bits(f: &Fit) -> (u64, u64, u64, Vec<u64>, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (
        f.a.to_bits(),
        f.b.to_bits(),
        f.r2.to_bits(),
        bits(&f.residuals),
        bits(&f.relative_residuals),
    )
}

/// Assert that the plain fit of every family is the unit-weight fit, bit
/// for bit.
fn assert_plain_is_unit_weighted(xs: &[f64], ys: &[f64], case: &str) {
    let ones = vec![1.0; xs.len()];
    for kind in ModelKind::ALL {
        let plain = try_fit(kind, xs, ys).expect("valid samples");
        let weighted = try_fit_weighted(kind, xs, ys, &ones).expect("valid samples");
        assert_eq!(
            fit_bits(&plain),
            fit_bits(&weighted),
            "{case}, {kind:?}: plain {plain:?} vs unit-weighted {weighted:?}"
        );
    }
}

#[test]
fn constant_response_fits_the_same_plain_and_unit_weighted() {
    assert_plain_is_unit_weighted(&[1.0e6, 2.0e6, 4.0e6, 8.0e6], &[5.0; 4], "ys = [5.0; 4]");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn affine_recovers_planted_slope_under_noise(
        slope_e8 in 0.5f64..5.0,
        intercept in 0.1f64..10.0,
        noise in 0.0f64..0.05,
    ) {
        let a = slope_e8 * 1e-8;
        let xs: Vec<f64> = (1..=30).map(|i| i as f64 * 1.0e9).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (a * x + intercept) * (1.0 + noise * wobble(i)))
            .collect();
        let f = fit(ModelKind::Affine, &xs, &ys);
        // Slope recovered within ~4x the noise level.
        prop_assert!(
            (f.a - a).abs() / a < 0.04 + 4.0 * noise,
            "planted {a}, got {}",
            f.a
        );
    }

    #[test]
    fn power_law_recovers_exponent_under_noise(
        b in 0.5f64..1.8,
        noise in 0.0f64..0.03,
    ) {
        let xs: Vec<f64> = (1..=30).map(|i| i as f64 * 1.0e6).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 1e-4 * x.powf(b) * (1.0 + noise * wobble(i)))
            .collect();
        let f = fit(ModelKind::PowerLaw, &xs, &ys);
        prop_assert!((f.b - b).abs() < 0.05 + 3.0 * noise, "planted {b}, got {}", f.b);
    }

    #[test]
    fn inversion_roundtrips_for_monotone_fits(
        slope_e8 in 0.5f64..5.0,
        intercept in 0.0f64..5.0,
        y in 10.0f64..10_000.0,
    ) {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 1.0e9).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| slope_e8 * 1e-8 * x + intercept + 0.001).collect();
        let f = fit(ModelKind::Affine, &xs, &ys);
        let x = f.invert(y).expect("positive-slope affine is invertible");
        prop_assert!((f.predict(x) - y).abs() / y < 1e-9);
    }

    #[test]
    fn weighted_fit_with_unit_weights_equals_plain(
        slope_e8 in 0.5f64..5.0,
        n in 5usize..30,
    ) {
        let xs: Vec<f64> = (1..=n).map(|i| i as f64 * 1.0e8).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| slope_e8 * 1e-8 * x + 1.0 + 0.01 * wobble(i))
            .collect();
        let plain = fit(ModelKind::Affine, &xs, &ys);
        let weighted = fit_weighted(ModelKind::Affine, &xs, &ys, &vec![2.5; n]);
        // Uniform weights of any magnitude match OLS.
        prop_assert!((plain.a - weighted.a).abs() < 1e-12 * plain.a.abs().max(1.0));
    }

    #[test]
    fn plain_fit_is_the_unit_weight_fit(
        seed in 0u64..u64::MAX,
        volumes in 2usize..8,
        n in 2usize..40,
    ) {
        // Probe-shaped data: `volumes` distinct volumes (the first two are
        // always both present), each measured one or more times, with
        // positive runtimes.
        let mut rng = StdRng::seed_from_u64(seed);
        let base = rng.random_range(1.0e3..1.0e9);
        let levels: Vec<f64> = (0..volumes).map(|k| base * (1.0 + k as f64) * rng.random_range(1.0..1.5)).collect();
        let xs: Vec<f64> = (0..n)
            .map(|i| if i < 2 { levels[i] } else { levels[rng.random_range(0..volumes)] })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| rng.random_range(1.0e-9..1.0e-7) * x.powf(rng.random_range(0.8..1.3)) + rng.random_range(0.01..10.0))
            .collect();
        assert_plain_is_unit_weighted(&xs, &ys, &format!("seed {seed}"));
    }

    #[test]
    fn volume_weights_favor_large_probes(
        n in 3usize..40,
    ) {
        let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let w = volume_weights(&xs);
        prop_assert!(w.windows(2).all(|p| p[0] <= p[1]));
        let mean = w.iter().sum::<f64>() / n as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adjusted_deadline_monotone_in_p_miss(
        mu in -0.05f64..0.2,
        sigma in 0.001f64..0.3,
        deadline in 100.0f64..10_000.0,
    ) {
        let res = ResidualStats { mu, sigma };
        let mut last = f64::NEG_INFINITY;
        // Tighter miss probability -> larger a -> earlier deadline.
        for p in [0.4, 0.2, 0.1, 0.05, 0.01] {
            let a = adjustment_factor(&res, p);
            prop_assert!(a > last);
            last = a;
        }
        let loose = adjusted_deadline(deadline, adjustment_factor(&res, 0.4));
        let tight = adjusted_deadline(deadline, adjustment_factor(&res, 0.01));
        prop_assert!(tight <= loose);
        prop_assert!(tight > 0.0);
    }

    #[test]
    fn logquad_inversion_roundtrips(
        a in -0.1f64..0.1,
        b in 0.3f64..1.5,
        x in 2.0f64..1.0e6,
    ) {
        let f = Fit {
            kind: ModelKind::LogQuad,
            a,
            b,
            r2: 1.0,
            residuals: Vec::new(),
            relative_residuals: Vec::new(),
        };
        let lx = x.ln();
        // invert() returns the increasing-branch root, so only points with
        // f'(ln x) > 0 round-trip to themselves; the other preimage of y
        // belongs to the decreasing branch.
        if 2.0 * a * lx + b > 1e-3 {
            let y = f.predict(x);
            let back = f.invert(y).expect("solvable quadratic in ln x");
            prop_assert!((back - x).abs() / x < 1e-6, "x = {x}, back = {back}");
        }
    }

    #[test]
    fn adjusted_deadline_saturates_at_raw(
        a in -3.0f64..3.0,
        deadline in 1.0f64..100_000.0,
    ) {
        let d = adjusted_deadline(deadline, a);
        prop_assert!(d > 0.0 && d <= deadline, "a = {a} gave {d}");
    }

    #[test]
    fn inverse_normal_cdf_is_monotone(
        a in 0.001f64..0.998,
        delta in 0.0005f64..0.001,
    ) {
        prop_assert!(inverse_normal_cdf(a + delta) > inverse_normal_cdf(a));
    }

    #[test]
    fn probe_chain_conserves_volume_at_every_unit(
        n_files in 10usize..200,
        file_kb in 1u64..20,
        s0_kb in 5u64..50,
    ) {
        let files: Vec<corpus::FileSpec> = (0..n_files as u64)
            .map(|i| corpus::FileSpec::new(i, file_kb * 1_000))
            .collect();
        let m = corpus::Manifest::new("p", files, 0);
        let chain = build_probe_chain(&m, s0_kb * 1_000, &[2, 10]);
        let expect = m.total_volume();
        for p in &chain {
            let total: u64 = p.files.iter().map(|f| f.size).sum();
            prop_assert_eq!(total, expect);
        }
    }

    #[test]
    fn parallel_probe_chain_equals_sequential(
        n_files in 10usize..200,
        seed in 0u64..1_000,
        s0_kb in 5u64..50,
    ) {
        // Mixed sizes and complexities derived from the seed; construction
        // must be a pure function of the manifest, not of the parallelism.
        let files: Vec<corpus::FileSpec> = (0..n_files as u64)
            .map(|i| {
                let mut f = corpus::FileSpec::new(i, (seed * 37 + i * 7919) % 20_000 + 1);
                f.complexity = 0.5 + ((seed + i) % 10) as f64 / 5.0;
                f
            })
            .collect();
        let m = corpus::Manifest::new("p", files, seed);
        let factors = [2usize, 5, 10, 50];
        let seq = build_probe_chain(&m, s0_kb * 1_000, &factors);
        for par in [Parallelism::Sequential, Parallelism::Rayon(0), Parallelism::Rayon(3)] {
            let got = build_probe_chain_par(&m, s0_kb * 1_000, &factors, par);
            prop_assert_eq!(&seq, &got, "probe chain diverged under {:?}", par);
        }
    }

    #[test]
    fn measurement_stats_shift_invariant(
        runs in prop::collection::vec(0.1f64..100.0, 2..10),
        shift in 0.0f64..50.0,
    ) {
        let m = Measurement::new(1, runs.clone());
        let shifted = Measurement::new(1, runs.iter().map(|r| r + shift).collect());
        prop_assert!((shifted.mean() - m.mean() - shift).abs() < 1e-9);
        prop_assert!((shifted.stddev() - m.stddev()).abs() < 1e-9);
    }
}
