//! Corpus-generator-vs-reference differential invariant.
//!
//! This file carries verbatim copies of the sequential loops that drew the
//! HTML_18mil and Text_400K presets: one seeded generator walked file by
//! file. `corpus::html_18mil` and `corpus::text_400k` must reproduce them
//! exactly, every file's id, size and complexity bits, under
//! `Parallelism::Sequential`, `Rayon(2)` and `Rayon(3)`: a manifest is a
//! pure function of `(scale, seed)`, never of the worker count.
//!
//! The file counts sit on both sides of 2^16 and 2^20, where a generator
//! that works in fixed chunks, or switches strategy by manifest size,
//! would show a seam. Release builds also compare all 18M files of seed 1.

use binpack::Parallelism;
use corpus::{FileSpec, LogNormal, Manifest, Pareto, SizeDistribution, KB, MB};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HTML_18MIL_FILES: u64 = 18_000_000;
const TEXT_400K_FILES: u64 = 400_000;

const SEEDS: [u64; 4] = [0, 1, 7, u64::MAX];

const SETTINGS: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Rayon(2),
    Parallelism::Rayon(3),
];

fn reference_html_18mil(scale: f64, seed: u64) -> Manifest {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let n = ((HTML_18MIL_FILES as f64 * scale).round() as u64).max(1);
    let body = LogNormal {
        mu: (20.0 * KB as f64).ln(),
        sigma: 1.1,
        min: KB,
        max: 43 * MB,
    };
    let tail = Pareto {
        x_min: 100.0 * KB as f64,
        alpha: 1.3,
        max: 43 * MB,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x48544d4c); // "HTML"
    let files = (0..n)
        .map(|id| {
            let size = if rng.random::<f64>() < 0.03 {
                tail.sample(&mut rng)
            } else {
                body.sample(&mut rng)
            };
            FileSpec {
                id,
                size,
                complexity: 1.0 + 0.05 * (rng.random::<f64>() - 0.5),
            }
        })
        .collect();
    Manifest::new(format!("HTML_18mil[scale={scale}]"), files, seed)
}

fn reference_text_400k(scale: f64, seed: u64) -> Manifest {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let n = ((TEXT_400K_FILES as f64 * scale).round() as u64).max(1);
    let body = LogNormal {
        mu: (1.3 * KB as f64).ln(),
        sigma: 1.15,
        min: 100,
        max: 705 * KB,
    };
    let tail = Pareto {
        x_min: 10.0 * KB as f64,
        alpha: 1.2,
        max: 705 * KB,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x54455854); // "TEXT"
    let files = (0..n)
        .map(|id| {
            let drift = 1.0 + 0.19 * (1.0 - 2.0 * id as f64 / n.max(1) as f64);
            let size = if rng.random::<f64>() < 0.002 {
                tail.sample(&mut rng)
            } else {
                body.sample(&mut rng)
            };
            FileSpec {
                id,
                size,
                complexity: drift * (1.0 + 0.1 * (rng.random::<f64>() - 0.5)),
            }
        })
        .collect();
    Manifest::new(format!("Text_400K[scale={scale}]"), files, seed)
}

/// Compare file by file and name only the first difference: a failing
/// 18M-file manifest must not be printed whole.
fn assert_same(got: &Manifest, want: &Manifest, case: &str) {
    assert_eq!(got.name, want.name, "{case}: name");
    assert_eq!(got.seed, want.seed, "{case}: seed");
    assert_eq!(got.len(), want.len(), "{case}: file count");
    let bits = |f: &FileSpec| (f.id, f.size, f.complexity.to_bits());
    if let Some(i) = (0..want.len()).find(|&i| bits(&got.files[i]) != bits(&want.files[i])) {
        panic!(
            "{case}: file {i} differs: got {:?}, want {:?}",
            got.files[i], want.files[i]
        );
    }
}

/// Check `generate` against `reference` at each file count, for every
/// seed and worker setting. The scale is derived from the count.
fn check_counts(
    full: u64,
    counts: &[u64],
    generate: fn(f64, u64) -> Manifest,
    reference: fn(f64, u64) -> Manifest,
) {
    for &count in counts {
        let scale = count as f64 / full as f64;
        for seed in SEEDS {
            let want = reference(scale, seed);
            assert_eq!(
                want.len() as u64,
                count,
                "scale {scale} draws {count} files"
            );
            for setting in SETTINGS {
                let got = setting.install(|| generate(scale, seed));
                assert_same(
                    &got,
                    &want,
                    &format!("count={count} seed={seed} {setting:?}"),
                );
            }
        }
    }
}

#[test]
fn html_18mil_matches_the_reference_loop() {
    check_counts(
        HTML_18MIL_FILES,
        &[
            1,
            (1 << 16) - 1,
            (1 << 16) + 1,
            (1 << 20) - 1,
            1 << 20,
            (1 << 20) + (1 << 16) + 1,
        ],
        corpus::html_18mil,
        reference_html_18mil,
    );
}

#[test]
fn text_400k_matches_the_reference_loop() {
    check_counts(
        TEXT_400K_FILES,
        &[1, (1 << 16) - 1, (1 << 16) + 1, TEXT_400K_FILES],
        corpus::text_400k,
        reference_text_400k,
    );
}

/// All 18M files of seed 1 on the default workers; about 0.9 GB for the
/// two manifests, so release builds only.
#[cfg(not(debug_assertions))]
#[test]
fn full_html_18mil_matches_the_reference_loop() {
    let want = reference_html_18mil(1.0, 1);
    let got = corpus::html_18mil(1.0, 1);
    assert_same(&got, &want, "full scale, seed 1");
}
