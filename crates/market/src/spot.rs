//! Seeded spot-price processes: one deterministic price path per
//! (seed, family).
//!
//! The process is a mean-reverting walk with exponential-tailed upward
//! jumps — the demand spikes that cross bids and reclaim a whole family's
//! spot capacity at once. Draws are **counter-based** (splitmix64 over a
//! `(base, step, lane)` key, the `netxfer` discipline) rather than
//! sequential, so a price at step `k` is a pure function of the seed and
//! `k`: same seed ⇒ byte-identical path, and reading a prefix of the path
//! never perturbs the rest.

use corpus::hash::{fnv1a, splitmix64};
use ec2sim::{FamilyId, InstanceFamily};
use serde::Serialize;

/// Default price-path resolution, seconds per step (5 simulated minutes).
pub const SPOT_STEP_SECS: f64 = 300.0;

/// Per-step mean-reversion strength: a jump decays back toward the mean
/// over roughly `1 / THETA` steps (~an hour at the default resolution).
const THETA: f64 = 0.12;

/// Uniform in [0, 1) from the high 53 bits of a counter hash.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The `lane`-th independent uniform draw of step `step`.
fn draw(base: u64, step: u64, lane: u64) -> f64 {
    unit(splitmix64(
        splitmix64(base ^ step) ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// Standard normal via Box–Muller from two uniform lanes.
fn gauss(u1: f64, u2: f64) -> f64 {
    let r = (-2.0 * u1.max(1e-12).ln()).sqrt();
    r * (std::f64::consts::TAU * u2).cos()
}

/// A deterministic spot-price path for one instance family.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpotPath {
    /// The family whose market this is.
    pub family: FamilyId,
    /// Seed the path derives from.
    pub seed: u64,
    /// Seconds per price step.
    pub step_secs: f64,
    /// The long-run mean the walk reverts to, dollars per hour.
    pub mean_rate: f64,
    prices: Vec<f64>,
}

/// What one bid buys inside one window of a [`SpotPath`]: the planner's
/// one question of the spot market.
#[derive(Debug, Clone, PartialEq)]
pub struct BidWindow {
    /// Seconds inside the window during which the price is at or below the
    /// bid — the time a spot instance bid at that level actually works.
    pub eligible_secs: f64,
    /// Step-start times inside the window where the price crosses **above**
    /// the bid — the instants the market reclaims every spot instance of
    /// the family bid at that level (the correlated whole-family event).
    pub reclaims: Vec<f64>,
    /// Time-weighted mean of the eligible prices — the expected dollars per
    /// hour a bid-capped spot instance pays; the bid itself when no step
    /// is eligible.
    pub mean_price: f64,
}

impl SpotPath {
    /// Generate `steps` prices. The per-family base key folds the family
    /// label into the seed, so every family sees an independent market
    /// under the same run seed.
    pub fn generate(seed: u64, family: &InstanceFamily, steps: usize, step_secs: f64) -> SpotPath {
        let base = splitmix64(seed ^ 0x5B07_FA11 ^ fnv1a(family.id.label().as_bytes()));
        let mean = family.spot_mean_rate;
        let mut p = mean;
        let mut prices = Vec::with_capacity(steps);
        for k in 0..steps as u64 {
            p += THETA * (mean - p)
                + family.spot_volatility * gauss(draw(base, k, 0), draw(base, k, 1));
            if draw(base, k, 2) < family.spot_jump_prob {
                // Demand spike with an exponential tail; reversion pulls
                // it back toward the mean over the next ~1/THETA steps.
                let u = draw(base, k, 3).min(1.0 - 1e-12);
                p += family.spot_jump_scale * -(1.0 - u).ln();
            }
            p = p.clamp(0.15 * mean, 10.0 * mean);
            prices.push(p);
        }
        SpotPath {
            family: family.id,
            seed,
            step_secs,
            mean_rate: mean,
            prices,
        }
    }

    /// The raw per-step prices.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Simulated seconds the path covers.
    pub fn horizon_secs(&self) -> f64 {
        self.prices.len() as f64 * self.step_secs
    }

    /// What `bid` buys inside `[t0, t1]`, read in one pass over the path:
    /// the eligible seconds, the reclaim instants and the mean price paid.
    pub fn window(&self, bid: f64, t0: f64, t1: f64) -> BidWindow {
        let (mut eligible_secs, mut weighted) = (0.0, 0.0);
        let mut reclaims = Vec::new();
        let mut prev_ok = true; // paths start at the mean; a bid below the mean crosses at step 0
        for (k, &p) in self.prices.iter().enumerate() {
            let s = k as f64 * self.step_secs;
            let e = s + self.step_secs;
            let overlap = (e.min(t1) - s.max(t0)).max(0.0);
            let ok = p <= bid;
            if overlap > 0.0 && ok {
                eligible_secs += overlap;
                weighted += p * overlap;
            }
            if prev_ok && !ok && s >= t0 && s <= t1 {
                reclaims.push(s);
            }
            prev_ok = ok;
        }
        let mean_price = if eligible_secs > 0.0 {
            weighted / eligible_secs
        } else {
            bid
        };
        BidWindow {
            eligible_secs,
            reclaims,
            mean_price,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(seed: u64) -> SpotPath {
        SpotPath::generate(seed, &InstanceFamily::standard(), 288, SPOT_STEP_SECS)
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = path(7);
        let b = path(7);
        assert_eq!(a, b);
        // Byte-identical, not merely approximately equal.
        let abytes: Vec<u64> = a.prices().iter().map(|p| p.to_bits()).collect();
        let bbytes: Vec<u64> = b.prices().iter().map(|p| p.to_bits()).collect();
        assert_eq!(abytes, bbytes);
    }

    #[test]
    fn different_seeds_and_families_differ() {
        assert_ne!(path(1).prices(), path(2).prices());
        let std = path(1);
        let hi = SpotPath::generate(1, &InstanceFamily::hi_cpu(), 288, SPOT_STEP_SECS);
        assert_ne!(std.prices()[..10], hi.prices()[..10]);
    }

    #[test]
    fn prices_stay_in_band_and_revert() {
        let p = path(3);
        let mean = InstanceFamily::standard().spot_mean_rate;
        for &x in p.prices() {
            assert!(x >= 0.15 * mean && x <= 10.0 * mean);
        }
        let avg: f64 = p.prices().iter().sum::<f64>() / p.prices().len() as f64;
        assert!(
            (avg - mean).abs() < mean,
            "long-run average {avg} strayed from mean {mean}"
        );
    }

    #[test]
    fn eligible_secs_is_monotone_in_bid() {
        let p = path(5);
        let eligible = |bid| p.window(bid, 0.0, p.horizon_secs()).eligible_secs;
        let (lo, mid, hi) = (eligible(0.02), eligible(0.04), eligible(1.0));
        assert!(lo <= mid && mid <= hi);
        assert!(
            (hi - p.horizon_secs()).abs() < 1e-9,
            "a huge bid is always eligible"
        );
    }

    #[test]
    fn reclaims_pair_with_eligibility_gaps() {
        // A bid below the long-run mean must be crossed at least once over
        // a day of any seed's market.
        let p = path(11);
        let bid = 0.9 * p.mean_rate;
        let times = p.window(bid, 0.0, p.horizon_secs()).reclaims;
        assert!(!times.is_empty());
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
