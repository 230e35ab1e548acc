//! `SpotPath::window`, the planner's one-pass bid query, against the three
//! passes it replaced, kept verbatim below. For every catalog family at two
//! step widths, bids from 0.1× to 3× the spot mean plus two path prices, and
//! windows past 0, past the horizon or empty, all three answers must match
//! bit for bit. Failures print the seed, family, bid and window.

use ec2sim::InstanceFamily;
use market::{SpotPath, SPOT_STEP_SECS};

/// The fields of a path the reference passes read.
struct Reference<'a> {
    prices: &'a [f64],
    step_secs: f64,
}

impl Reference<'_> {
    fn eligible_secs(&self, bid: f64, t0: f64, t1: f64) -> f64 {
        let mut total = 0.0;
        for (k, &p) in self.prices.iter().enumerate() {
            let s = k as f64 * self.step_secs;
            let e = s + self.step_secs;
            let overlap = (e.min(t1) - s.max(t0)).max(0.0);
            if overlap > 0.0 && p <= bid {
                total += overlap;
            }
        }
        total
    }

    fn mean_eligible_price(&self, bid: f64, t0: f64, t1: f64) -> f64 {
        let (mut weighted, mut secs) = (0.0, 0.0);
        for (k, &p) in self.prices.iter().enumerate() {
            let s = k as f64 * self.step_secs;
            let e = s + self.step_secs;
            let overlap = (e.min(t1) - s.max(t0)).max(0.0);
            if overlap > 0.0 && p <= bid {
                weighted += p * overlap;
                secs += overlap;
            }
        }
        if secs > 0.0 {
            weighted / secs
        } else {
            bid
        }
    }

    fn reclaim_times(&self, bid: f64, t0: f64, t1: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut prev_ok = true; // paths start at the mean; a bid below the mean crosses at step 0
        for (k, &p) in self.prices.iter().enumerate() {
            let s = k as f64 * self.step_secs;
            let ok = p <= bid;
            if prev_ok && !ok && s >= t0 && s <= t1 {
                out.push(s);
            }
            prev_ok = ok;
        }
        out
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn window_matches_the_three_passes_bit_for_bit() {
    let factors = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.3, 1.6, 2.0, 3.0];
    // Fractions of the horizon: whole, a planner's short deadline, inner,
    // past the end, wholly past it, empty on and between step boundaries.
    let windows = [
        (0.0, 1.0),
        (0.0, 0.04),
        (0.02, 0.6),
        (0.25, 1.5),
        (1.5, 2.0),
        (0.5, 0.5),
        (0.51, 0.51),
    ];
    let (mut checked, mut with_reclaims, mut partly_eligible) = (0usize, 0usize, 0usize);
    for seed in [0u64, 1, 7, 2010, u64::MAX] {
        for family in InstanceFamily::catalog() {
            for (steps, step_secs) in [(288, SPOT_STEP_SECS), (37, 97.5)] {
                let path = SpotPath::generate(seed, &family, steps, step_secs);
                let reference = Reference {
                    prices: path.prices(),
                    step_secs,
                };
                let h = path.horizon_secs();
                let on_path = [path.prices()[0], path.prices()[steps / 2]];
                for bid in factors
                    .map(|f| f * family.spot_mean_rate)
                    .into_iter()
                    .chain(on_path)
                {
                    for (t0, t1) in windows.map(|(a, b)| (a * h, b * h)) {
                        let at = format!(
                            "seed {seed}, {}, {steps} x {step_secs} s, bid {bid}, [{t0}, {t1}]",
                            family.id.label()
                        );
                        let w = path.window(bid, t0, t1);
                        let eligible = reference.eligible_secs(bid, t0, t1);
                        let mean = reference.mean_eligible_price(bid, t0, t1);
                        let reclaims = reference.reclaim_times(bid, t0, t1);
                        assert_eq!(w.eligible_secs.to_bits(), eligible.to_bits(), "{at}");
                        assert_eq!(w.mean_price.to_bits(), mean.to_bits(), "{at}");
                        assert_eq!(bits(&w.reclaims), bits(&reclaims), "{at}");
                        if w.eligible_secs > 0.0 {
                            assert!(w.mean_price <= bid, "{at}: {w:?}");
                        }
                        checked += 1;
                        with_reclaims += usize::from(!w.reclaims.is_empty());
                        partly_eligible +=
                            usize::from(w.eligible_secs > 0.0 && w.eligible_secs < t1.min(h) - t0);
                    }
                }
            }
        }
    }
    // The draw reaches the cases where the passes could part.
    assert!(with_reclaims > checked / 10, "{with_reclaims} of {checked}");
    assert!(
        partly_eligible > checked / 10,
        "{partly_eligible} of {checked}"
    );
}
