//! Synthetic text corpora with controlled file-size distributions.
//!
//! The paper evaluates on two private data sets:
//!
//! * **HTML_18mil** — ~18 million English HTML news articles (~900 GB),
//!   majority below 50 kB, long-tailed, largest file 43 MB (Fig 1(a));
//! * **Text_400K** — 400,000 plain-text files (~1 GB), majority below 5 kB,
//!   over 40 % below 1 kB, largest 705 kB (Fig 1(b)).
//!
//! Neither is available, so this crate synthesizes corpora whose *size
//! distributions* match the published shapes (the only property every
//! algorithm in the paper consumes), and can materialize real bytes on
//! demand: Zipf-vocabulary text with controllable sentence complexity, and
//! HTML wrappers around it. Generation is fully deterministic in a seed.
//!
//! A corpus is a [`Manifest`]: virtual file metadata (id, size, language
//! complexity). The 900 GB set is never materialized wholesale; bytes are
//! produced per-file only when an example or test actually reads them.

#![forbid(unsafe_code)]

mod arrival;
mod books;
mod dist;
pub mod hash;
mod hist;
mod manifest;
mod presets;
mod sample;
mod text;

pub use arrival::{ArrivalConfig, ArrivalOrder, FileEvent, IngestTrace};
pub use books::{agnes_grey_like, dubliners_like, Book};
pub use dist::{LogNormal, Normal, Pareto, SizeDistribution, Zipf};
pub use hist::{histogram, HistogramBin};
pub use manifest::{FileSpec, Manifest};
pub use presets::{html_18mil, text_400k};
pub use sample::sample_by_volume;
pub use text::{html_bytes, text_bytes, TextGenerator};

/// Kilobyte, the paper's base unit for Fig 1(b) bins.
pub const KB: u64 = 1_000;
/// Megabyte.
pub const MB: u64 = 1_000_000;
/// Gigabyte.
pub const GB: u64 = 1_000_000_000;
