//! Random sampling from a corpus — the paper's model-refit step draws
//! "random samples (without replacement)" of a target volume (§5.1: 10×2 GB
//! for grep; §5.2: 3×5 MB for POS).

use crate::manifest::Manifest;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Draw disjoint random samples, each of (at least) `volume` bytes, without
/// replacement across samples. Returns fewer than `k` samples if the corpus
/// runs out of bytes.
pub fn sample_by_volume(m: &Manifest, volume: u64, k: usize, seed: u64) -> Vec<Manifest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = m.files.clone();
    pool.shuffle(&mut rng);
    let mut out = Vec::with_capacity(k);
    let mut iter = pool.into_iter();
    for s in 0..k {
        let mut files = Vec::new();
        let mut acc = 0u64;
        for f in iter.by_ref() {
            acc += f.size;
            files.push(f);
            if acc >= volume {
                break;
            }
        }
        if acc < volume {
            // Pool exhausted before filling this sample; discard partial.
            break;
        }
        out.push(Manifest::new(
            format!("{}[sample {s} ≈{volume}B]", m.name),
            files,
            m.seed,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::FileSpec;
    use std::collections::HashSet;

    fn manifest(n: u64, size: u64) -> Manifest {
        let files = (0..n).map(|i| FileSpec::new(i, size)).collect();
        Manifest::new("t", files, 0)
    }

    #[test]
    fn samples_disjoint_across_draws() {
        let m = manifest(100, 10);
        let samples = sample_by_volume(&m, 100, 3, 2);
        assert_eq!(samples.len(), 3);
        let mut seen = HashSet::new();
        for s in &samples {
            assert!(s.total_volume() >= 100);
            for f in &s.files {
                assert!(seen.insert(f.id), "file {} drawn twice", f.id);
            }
        }
    }

    #[test]
    fn exhausted_pool_returns_fewer_samples() {
        let m = manifest(5, 10); // 50 bytes total
        let samples = sample_by_volume(&m, 30, 3, 3);
        assert!(samples.len() < 3);
        for s in &samples {
            assert!(s.total_volume() >= 30);
        }
    }
}
