//! The two corpora of the paper, as seeded synthetic presets.
//!
//! The published facts we match:
//!
//! * **HTML_18mil** (Fig 1(a)): ~18 M files, ~900 GB total (mean ≈ 50 kB),
//!   majority < 50 kB, long tail, max 43 MB, histogram with 10 kB bins.
//! * **Text_400K** (Fig 1(b)): 400 K files, ~1 GB total (mean ≈ 2.5 kB),
//!   majority < 5 kB, > 40 % below 1 kB, max 705 kB, 1 kB bins.
//!
//! A `scale` in `(0, 1]` shrinks the *file count* while keeping the size
//! distribution; tests and examples use small scales, figure regenerators
//! use larger ones.

use crate::dist::{LogNormal, Pareto, SizeDistribution};
use crate::manifest::{FileSpec, Manifest};
use crate::{KB, MB};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;

/// Full file count of the HTML_18mil corpus.
pub const HTML_18MIL_FILES: u64 = 18_000_000;
/// Full file count of the Text_400K corpus.
pub const TEXT_400K_FILES: u64 = 400_000;

/// Share of HTML_18mil files drawn from the Pareto tail.
const HTML_TAIL_SHARE: f64 = 0.03;

/// Files per chunk of the parallel draw; each chunk starts from its own
/// snapshot of the one generator. No file's draws depend on it.
const CHUNK_FILES: usize = 1 << 16;

/// Manifests with fewer files are drawn by the plain sequential loop, as
/// are all manifests on one worker. Below it the parallel draw saves a few
/// milliseconds of set-up, and a 400K-file manifest drawn in parallel
/// slowed the pipeline that read it by 10 % (DESIGN.md §3 has the
/// measurements).
const PARALLEL_MIN_FILES: u64 = 1 << 20;

/// Generate the HTML_18mil-shaped corpus at `scale` (fraction of the 18 M
/// file count; `scale = 1e-3` → 18 000 files, ~0.9 GB).
///
/// Mixture: 97 % lognormal body (median ≈ 20 kB) + 3 % Pareto tail, both
/// clamped to [1 kB, 43 MB]. News articles have uniform language
/// complexity, so every file gets complexity ≈ 1 (±5 %).
pub fn html_18mil(scale: f64, seed: u64) -> Manifest {
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
    let draw = |id: u64, rng: &mut StdRng| {
        let size = if rng.random::<f64>() < HTML_TAIL_SHARE {
            tail.sample(rng)
        } else {
            body.sample(rng)
        };
        FileSpec {
            id,
            size,
            complexity: 1.0 + 0.05 * (rng.random::<f64>() - 0.5),
        }
    };
    let files = if n < PARALLEL_MIN_FILES || rayon::current_num_threads() < 2 {
        (0..n).map(|id| draw(id, &mut rng)).collect()
    } else {
        draw_in_chunks(n as usize, rng, draw, skip_html_file)
    };
    Manifest::new(format!("HTML_18mil[scale={scale}]"), files, seed)
}

/// Advance `rng` past one HTML_18mil file without its float math: the
/// body-or-tail uniform, then the sampler's words (one for the Pareto's
/// inverse CDF, two for the lognormal's Box–Muller), then the complexity
/// word. It must consume exactly the words `html_18mil`'s draw does.
fn skip_html_file(rng: &mut StdRng) {
    let sampler_words = if rng.random::<f64>() < HTML_TAIL_SHARE {
        1
    } else {
        2
    };
    for _ in 0..=sampler_words {
        rng.next_u64();
    }
}

/// Draw files `0..n` as the sequential loop `draw(id, &mut rng)` would,
/// bit for bit, on the current workers.
///
/// One sequential walk advances `rng` through every file with `skip` and
/// keeps a snapshot of it at each chunk start, while the one output array
/// is allocated beside it. Each worker then fills whole chunks of that
/// array in place, every chunk from its own snapshot. A file's draws thus
/// start from the generator state the loop would have reached, so the
/// manifest depends on neither the worker count nor the chunk size.
fn draw_in_chunks(
    n: usize,
    mut rng: StdRng,
    draw: impl Fn(u64, &mut StdRng) -> FileSpec + Sync,
    skip: fn(&mut StdRng),
) -> Vec<FileSpec> {
    let (snapshots, mut files) = rayon::join(
        || {
            (0..n)
                .step_by(CHUNK_FILES)
                .map(|start| {
                    let snapshot = rng.clone();
                    (start..n.min(start + CHUNK_FILES)).for_each(|_| skip(&mut rng));
                    snapshot
                })
                .collect::<Vec<_>>()
        },
        || vec![FileSpec::new(0, 0); n],
    );
    let chunk_starts = (0u64..).step_by(CHUNK_FILES);
    let chunks: Vec<_> = files
        .chunks_mut(CHUNK_FILES)
        .zip(snapshots)
        .zip(chunk_starts)
        .collect();
    chunks
        .into_par_iter()
        .for_each(|((chunk, mut rng), start)| {
            for (id, file) in (start..).zip(chunk) {
                *file = draw(id, &mut rng);
            }
        });
    files
}

/// Generate the Text_400K-shaped corpus at `scale` (fraction of 400 K
/// files). Lognormal with median ≈ 1.3 kB, clamped to [100 B, 705 kB]; over
/// 40 % of files land below 1 kB, mean ≈ 2.5 kB so the full set is ~1 GB.
///
/// Language complexity carries a mild front-loaded drift (±19 % across the
/// provided order, mean 1.0): text collections assembled over time are not
/// stationary, and this is what makes a model fitted on a corpus *prefix*
/// (the paper's probes) systematically steeper than one refit from random
/// samples — the paper's Eq (3) slope 0.865×10⁻⁴ vs Eq (4) slope
/// 0.725×10⁻⁴, a 19 % drop, which this drift reproduces.
pub fn text_400k(scale: f64, seed: u64) -> Manifest {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GB;

    #[test]
    fn html_shape_matches_published_facts() {
        let m = html_18mil(0.001, 1); // 18 000 files
        assert_eq!(m.len(), 18_000);
        // majority below 50 kB
        assert!(
            m.fraction_below(50 * KB) > 0.5,
            "only {:.2} below 50kB",
            m.fraction_below(50 * KB)
        );
        // long tail exists but max clamped at 43 MB
        assert!(m.max_file_size() <= 43 * MB);
        assert!(m.max_file_size() > MB, "no tail generated");
        // mean ≈ 50 kB -> full corpus ≈ 900 GB; allow 40 % slack
        let mean = m.mean_file_size();
        assert!(
            (25_000.0..75_000.0).contains(&mean),
            "mean file size {mean}"
        );
    }

    #[test]
    fn html_full_scale_volume_extrapolates_to_900gb_order() {
        let m = html_18mil(0.001, 1);
        let projected = m.mean_file_size() * HTML_18MIL_FILES as f64;
        assert!(
            (0.45e12..1.8e12).contains(&projected),
            "projected {projected:.3e} bytes"
        );
        let _ = GB; // silence unused import in cfg(test)
    }

    #[test]
    fn text_shape_matches_published_facts() {
        let m = text_400k(0.05, 2); // 20 000 files
        assert_eq!(m.len(), 20_000);
        // > 40 % of files below 1 kB
        assert!(
            m.fraction_below(KB) > 0.40,
            "only {:.2} below 1kB",
            m.fraction_below(KB)
        );
        // majority below 5 kB
        assert!(m.fraction_below(5 * KB) > 0.5);
        assert!(m.max_file_size() <= 705 * KB);
        // mean ≈ 2.5 kB -> full corpus ≈ 1 GB; allow slack
        let projected = m.mean_file_size() * TEXT_400K_FILES as f64;
        assert!(
            (0.4e9..2.5e9).contains(&projected),
            "projected {projected:.3e} bytes"
        );
    }

    #[test]
    fn presets_are_deterministic() {
        let a = html_18mil(0.0001, 9);
        let b = html_18mil(0.0001, 9);
        assert_eq!(a, b);
        let c = html_18mil(0.0001, 10);
        assert_ne!(a.files, c.files);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        html_18mil(0.0, 1);
    }
}
