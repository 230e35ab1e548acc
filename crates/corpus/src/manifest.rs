//! Corpus manifests: virtual file metadata.
//!
//! A manifest lists every file's id, size and language complexity without
//! materializing content. All of the paper's algorithms (probing, packing,
//! modelling, provisioning) consume only this metadata; bytes are generated
//! lazily by [`crate::text_bytes`] when something actually reads a file.

use serde::{Deserialize, Serialize};

/// Metadata of one virtual file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileSpec {
    /// Stable identifier, unique within a manifest.
    pub id: u64,
    /// Size in bytes.
    pub size: u64,
    /// Language-complexity multiplier for CPU-bound apps (1.0 = corpus
    /// average; the Dubliners/Agnes Grey experiment uses ≈1.7 vs ≈0.95).
    /// Grep-like apps ignore it.
    pub complexity: f64,
}

/// The packing kernels read a file's size in place, so a manifest packs
/// as it is, with no item copy per file.
impl binpack::Size for FileSpec {
    fn size(&self) -> u64 {
        self.size
    }
}

impl FileSpec {
    /// A file with average complexity.
    pub fn new(id: u64, size: u64) -> Self {
        FileSpec {
            id,
            size,
            complexity: 1.0,
        }
    }
}

/// A corpus: an ordered list of virtual files plus the seed that generated
/// them (content generation reuses `seed` and the file id, so any file's
/// bytes can be re-derived independently).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Human-readable corpus name (e.g. "HTML_18mil[scale=0.01]").
    pub name: String,
    /// Files in their "provided order" — the order the paper's in-order
    /// first fit consumes them in.
    pub files: Vec<FileSpec>,
    /// Seed used for both metadata and content generation.
    pub seed: u64,
}

impl Manifest {
    /// Build a manifest from parts.
    pub fn new(name: impl Into<String>, files: Vec<FileSpec>, seed: u64) -> Self {
        Manifest {
            name: name.into(),
            files,
            seed,
        }
    }

    /// Total corpus volume in bytes.
    pub fn total_volume(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the manifest has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Largest file size in bytes (0 for an empty manifest).
    pub fn max_file_size(&self) -> u64 {
        self.files.iter().map(|f| f.size).max().unwrap_or(0)
    }

    /// Fraction of files strictly smaller than `bytes`.
    pub fn fraction_below(&self, bytes: u64) -> f64 {
        if self.files.is_empty() {
            return 0.0;
        }
        self.files.iter().filter(|f| f.size < bytes).count() as f64 / self.len() as f64
    }

    /// A sub-manifest with the first files whose cumulative volume reaches
    /// `volume` (at least one file if the manifest is non-empty). Used to
    /// carve probes of a target volume out of the corpus "as provided".
    pub fn prefix_by_volume(&self, volume: u64) -> Manifest {
        let mut acc = 0u64;
        let mut out = Vec::new();
        for &f in &self.files {
            if acc >= volume && !out.is_empty() {
                break;
            }
            acc += f.size;
            out.push(f);
        }
        Manifest::new(format!("{}[prefix≈{volume}B]", self.name), out, self.seed)
    }

    /// Mean file size (0 for empty).
    pub fn mean_file_size(&self) -> f64 {
        if self.files.is_empty() {
            0.0
        } else {
            self.total_volume() as f64 / self.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(sizes: &[u64]) -> Manifest {
        let files = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| FileSpec::new(i as u64, s))
            .collect();
        Manifest::new("t", files, 0)
    }

    #[test]
    fn volume_and_counts() {
        let m = manifest(&[10, 20, 30]);
        assert_eq!(m.total_volume(), 60);
        assert_eq!(m.len(), 3);
        assert_eq!(m.max_file_size(), 30);
        assert!((m.mean_file_size() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_counts_strictly() {
        let m = manifest(&[1, 5, 5, 10]);
        assert!((m.fraction_below(5) - 0.25).abs() < 1e-12);
        assert!((m.fraction_below(11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_by_volume_reaches_target() {
        let m = manifest(&[10, 10, 10, 10]);
        let p = m.prefix_by_volume(25);
        assert_eq!(p.len(), 3);
        assert_eq!(p.total_volume(), 30);
    }

    #[test]
    fn prefix_of_empty_is_empty() {
        let m = manifest(&[]);
        let p = m.prefix_by_volume(100);
        assert!(p.is_empty());
    }

    #[test]
    fn prefix_always_returns_at_least_one_file() {
        let m = manifest(&[50]);
        let p = m.prefix_by_volume(1);
        assert_eq!(p.len(), 1);
    }
}
