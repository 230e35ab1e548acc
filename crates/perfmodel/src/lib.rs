//! Empirical application performance modelling (paper §4–§5).
//!
//! The pipeline:
//!
//! 1. **Probes** ([`probe`]) — carve test inputs out of the corpus along two
//!    dimensions, total volume and unit file size, using the subset-sum
//!    first-fit packing plus the derived-multiples trick;
//! 2. **Measurements** ([`stats`]) — each probe is run 5 times; mean and
//!    standard deviation are kept, and unstable probe sets (tiny volumes
//!    whose coefficient of variation explodes, Fig 3) are discarded;
//! 3. **Unit-size choice** ([`probe::choose_unit_size`]) — the minimum (or
//!    plateau) of execution time over unit sizes, preferring later, more
//!    stable probe sets;
//! 4. **Regression** ([`regression`]) — fit runtime-vs-volume predictors:
//!    linear `y=ax` (log-space, as the paper describes), affine `y=ax+b`,
//!    power law `y=axᵇ`, `y=x^{a·ln x+b}` and exponential `y=a·eᵇˣ`;
//! 5. **Deadlines** ([`deadline`]) — invert the predictor to the volume
//!    processable by a deadline, and compute the paper's §5.2 *adjusted
//!    deadline* `D/(1+a)`, `a = z·σ+μ` over the relative residuals, which
//!    bounds the miss probability.

#![forbid(unsafe_code)]

pub mod crossval;
pub mod deadline;
pub mod probe;
pub mod regression;
pub mod stats;
pub mod weighted;

pub use crossval::{cross_validate, select_by_cross_validation, CvScore};
pub use deadline::{adjusted_deadline, adjustment_factor, inverse_normal_cdf, ResidualStats};
pub use probe::{
    build_probe_chain, build_probe_chain_par, choose_unit_size, unit_files, ProbeCampaign,
    ProbePoint, ProbeSetResult, UnitSize,
};
pub use regression::{fit, fit_all, select_best, try_fit, Fit, FitError, ModelKind};
pub use stats::Measurement;
pub use weighted::{fit_weighted, inverse_variance_weights, try_fit_weighted, volume_weights};
