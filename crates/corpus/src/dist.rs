//! Probability distributions implemented in-repo (no `rand_distr`
//! dependency): normal via Box–Muller, lognormal, Pareto via inverse CDF,
//! Zipf via rejection-free inverse CDF over a precomputed table, and an
//! empirical histogram sampler for matching published size distributions.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over file sizes in bytes.
pub trait SizeDistribution {
    /// Draw one size.
    fn sample(&self, rng: &mut impl Rng) -> u64;
}

/// Normal distribution `N(mean, sd²)` sampled with Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation (must be non-negative).
    pub sd: f64,
}

impl Normal {
    /// Construct; panics on negative `sd`.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        Normal { mean, sd }
    }

    /// Draw one value.
    pub fn sample_f64(&self, rng: &mut impl Rng) -> f64 {
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.sd * z
    }
}

/// Lognormal distribution: `exp(N(mu, sigma²))`, clamped to `[min, max]`.
///
/// This is the body of both corpora's size distributions — most text
/// collections are approximately lognormal in file size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    /// Location parameter of the underlying normal (of ln size).
    pub mu: f64,
    /// Scale parameter of the underlying normal.
    pub sigma: f64,
    /// Lower clamp in bytes (files are never empty in the corpora).
    pub min: u64,
    /// Upper clamp in bytes (e.g. 43 MB for HTML_18mil).
    pub max: u64,
}

impl SizeDistribution for LogNormal {
    fn sample(&self, rng: &mut impl Rng) -> u64 {
        let n = Normal::new(self.mu, self.sigma).sample_f64(rng);
        (n.exp() as u64).clamp(self.min, self.max)
    }
}

/// Pareto distribution with scale `x_min` and shape `alpha`, clamped above.
/// Used for the long tail of HTML_18mil.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    /// Scale: minimum value of the support.
    pub x_min: f64,
    /// Shape: smaller means heavier tail.
    pub alpha: f64,
    /// Upper clamp in bytes.
    pub max: u64,
}

impl SizeDistribution for Pareto {
    fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
        let x = self.x_min / u.powf(1.0 / self.alpha);
        (x as u64).min(self.max).max(self.x_min as u64)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`, sampled by
/// searching the precomputed CDF. Used for word frequencies in the text
/// generator.
///
/// A guide table splits `[0, 1)` into `B` equal buckets, `B` the power of
/// two at or above `n`, and records where each bucket's CDF entries start.
/// A draw `u` in bucket `b` searches only `guide[b]..guide[b + 1]`, a few
/// entries, and finds the rank a binary search of the whole CDF returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]` counts the CDF entries below `b / B`; `guide[B]` is `n`.
    guide: Vec<usize>,
}

impl Zipf {
    /// Build the sampler for `n` ranks with exponent `s` (s ≈ 1 for natural
    /// language).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // A power of two keeps `b / B` and `u * B` exact.
        let buckets = n.next_power_of_two();
        let mut guide: Vec<usize> = (0..buckets)
            .map(|b| cdf.partition_point(|p| *p < b as f64 / buckets as f64))
            .collect();
        guide.push(n);
        Zipf { cdf, guide }
    }

    /// Draw a rank in `0..n` (0 = most frequent).
    pub fn sample_rank(&self, rng: &mut impl Rng) -> usize {
        self.rank_of(rng.random())
    }

    /// The rank of the uniform draw `u`: the last entry equal to `u` if
    /// there is one, else the first entry above it, else the last rank.
    /// That is what `binary_search_by(total_cmp)` over the whole CDF
    /// returns (`Ok` or `Err`, clamped).
    fn rank_of(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let b = ((u * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.guide[b], self.guide[b + 1]);
        // Entries before `lo` lie below b / B <= u and entries from `hi`
        // on at or above (b + 1) / B > u, so `j` counts the entries <= u.
        let j = lo + self.cdf[lo..hi].partition_point(|p| p.total_cmp(&u).is_le());
        match j.checked_sub(1) {
            Some(i) if self.cdf[i].total_cmp(&u).is_eq() => i,
            _ => j.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_mean_and_sd_recovered() {
        let mut r = rng();
        let d = Normal::new(10.0, 2.0);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample_f64(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn lognormal_respects_clamps() {
        let mut r = rng();
        let d = LogNormal {
            mu: 9.0,
            sigma: 1.5,
            min: 100,
            max: 10_000,
        };
        for _ in 0..5_000 {
            let s = d.sample(&mut r);
            assert!((100..=10_000).contains(&s));
        }
    }

    #[test]
    fn lognormal_median_near_exp_mu() {
        let mut r = rng();
        let d = LogNormal {
            mu: 8.0,
            sigma: 1.0,
            min: 1,
            max: u64::MAX,
        };
        let mut xs: Vec<u64> = (0..10_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_unstable();
        let median = xs[5_000] as f64;
        let expected = 8.0f64.exp(); // ≈ 2981
        assert!(
            (median - expected).abs() / expected < 0.1,
            "median {median}, expected {expected}"
        );
    }

    #[test]
    fn pareto_tail_heavier_with_smaller_alpha() {
        let mut r = rng();
        let heavy = Pareto {
            x_min: 1_000.0,
            alpha: 0.8,
            max: u64::MAX,
        };
        let light = Pareto {
            x_min: 1_000.0,
            alpha: 3.0,
            max: u64::MAX,
        };
        let n = 10_000;
        let big_heavy = (0..n).filter(|_| heavy.sample(&mut r) > 100_000).count();
        let big_light = (0..n).filter(|_| light.sample(&mut r) > 100_000).count();
        assert!(big_heavy > big_light * 5, "{big_heavy} vs {big_light}");
    }

    #[test]
    fn pareto_never_below_x_min() {
        let mut r = rng();
        let d = Pareto {
            x_min: 500.0,
            alpha: 1.2,
            max: 1_000_000,
        };
        for _ in 0..2_000 {
            let s = d.sample(&mut r);
            assert!((500..=1_000_000).contains(&s));
        }
    }

    #[test]
    fn zipf_rank_zero_most_frequent() {
        let mut r = rng();
        let z = Zipf::new(1_000, 1.0);
        let mut counts = vec![0usize; 1_000];
        for _ in 0..50_000 {
            counts[z.sample_rank(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // Zipf law rough check: rank0/rank9 ≈ 10
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!(ratio > 5.0 && ratio < 20.0, "ratio {ratio}");
    }

    /// The rank a binary search of the whole CDF returns.
    fn full_search_rank(z: &Zipf, u: f64) -> usize {
        match z.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    #[test]
    fn guided_rank_matches_the_full_binary_search() {
        use crate::text::{VOCAB_SIZE, ZIPF_S};
        // s = 4 leaves thousands of tail entries equal at 1.0.
        for (n, s) in [(VOCAB_SIZE, ZIPF_S), (1_000, 1.0), (20_000, 4.0)] {
            let z = Zipf::new(n, s);
            let mut us = vec![0.0, 1.0f64.next_down()];
            for &p in &z.cdf {
                us.extend([p, p.next_up(), p.next_down()]);
            }
            let mut r = StdRng::seed_from_u64(n as u64);
            us.extend((0..1_000_000).map(|_| r.random::<f64>()));
            for u in us {
                assert_eq!(z.rank_of(u), full_search_rank(&z, u), "n={n} s={s} u={u:e}");
            }
        }
    }

    #[test]
    fn samplers_are_deterministic_in_seed() {
        let d = LogNormal {
            mu: 9.0,
            sigma: 1.0,
            min: 1,
            max: u64::MAX,
        };
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
