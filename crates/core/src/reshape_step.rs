//! The reshape step: merge a corpus's files into unit files of the chosen
//! size with subset-sum first fit.
//!
//! The packing route depends on the manifest size (see
//! [`pack_for_reshape`]): smaller manifests take one single-shot pack,
//! manifests at or above [`PAR_PACK_MIN_ITEMS`] take the sharded parallel
//! pack with a fixed shard count — so the packing is a pure function of the
//! manifest and unit size, never of the host's core count or the
//! [`Parallelism`] setting.

use binpack::{
    pack_sharded, Algorithm, MergePolicy, Packing, PackingStats, Parallelism, ShardedConfig, Size,
};
use corpus::{FileSpec, Manifest};
use perfmodel::{unit_files, UnitSize};
use serde::{Deserialize, Serialize};

/// Manifests with at least this many files take the sharded parallel pack;
/// smaller ones take one single-shot pack. A single-shot subset-sum first
/// fit of 10⁵ corpus-shaped items takes about 2 ms
/// (`results/BENCH_packing.json`), so below this size sharding has little
/// time to save and would only add part-filled bins at the shard cuts.
pub const PAR_PACK_MIN_ITEMS: usize = 65_536;

/// Shard count for the parallel reshape pack. Fixed (not derived from the
/// worker count) so the packing — and therefore every downstream unit file
/// — is byte-identical across machines and thread counts.
pub const RESHAPE_PACK_SHARDS: usize = 16;

/// The packing route every reshape uses: subset-sum first fit, one
/// single-shot pack below [`PAR_PACK_MIN_ITEMS`], sharded parallel pack
/// (fixed [`RESHAPE_PACK_SHARDS`] shards, tail-repack merge) at or above it.
/// `parallelism` only controls how many workers pack shards; the output
/// depends solely on `items` and `target`. Sizes are read in place, so the
/// reshape packs a manifest's files as they are.
pub fn pack_for_reshape<T: Size + Sync>(
    items: &[T],
    target: u64,
    parallelism: Parallelism,
) -> Packing {
    if items.len() < PAR_PACK_MIN_ITEMS {
        Algorithm::SubsetSumFirstFit.pack(items, target)
    } else {
        pack_sharded(
            Algorithm::SubsetSumFirstFit,
            items,
            target,
            ShardedConfig {
                shards: RESHAPE_PACK_SHARDS,
                merge: MergePolicy::RepackTails,
            },
            parallelism,
        )
    }
}

/// The result of reshaping a corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReshapeOutcome {
    /// The unit size that was applied.
    pub unit: UnitSize,
    /// The reshaped file list (merged unit files, or the original files
    /// when the chosen unit is `Original`).
    pub files: Vec<FileSpec>,
    /// Packing statistics (trivial for `Original`).
    pub stats: PackingStats,
    /// Input file count, for the compression ratio.
    pub original_files: usize,
}

impl ReshapeOutcome {
    /// How many input files map to one output file on average.
    pub fn merge_ratio(&self) -> f64 {
        if self.files.is_empty() {
            return 1.0;
        }
        self.original_files as f64 / self.files.len() as f64
    }
}

/// Reshape `manifest` to `unit`. Merged unit files carry the size-weighted
/// mean complexity of their members — concatenating documents preserves
/// per-byte tagging cost.
pub fn reshape_manifest(manifest: &Manifest, unit: UnitSize) -> ReshapeOutcome {
    reshape_manifest_par(manifest, unit, Parallelism::Sequential)
}

/// [`reshape_manifest`] with the pack and the unit files fanned out across
/// workers. The pack routes through [`pack_for_reshape`] — sharded above
/// [`PAR_PACK_MIN_ITEMS`], where `parallelism` packs the fixed shards
/// concurrently — and reads the manifest in place; the unit files come
/// from one pass over the packing's bins ([`perfmodel::unit_files`]),
/// gathered in bin order, so the outcome is identical for every
/// [`Parallelism`] setting.
pub fn reshape_manifest_par(
    manifest: &Manifest,
    unit: UnitSize,
    parallelism: Parallelism,
) -> ReshapeOutcome {
    let (files, stats) = match unit {
        // Each file is its own bin, at the largest file's size, for the
        // stats alone.
        UnitSize::Original => (
            manifest.files.clone(),
            PackingStats::of_bins(
                manifest.max_file_size().max(1),
                manifest.files.iter().map(|f| (f.size, 1)),
            ),
        ),
        UnitSize::Bytes(target) => {
            let packing = pack_for_reshape(&manifest.files, target, parallelism);
            (
                unit_files(&packing, &manifest.files, parallelism),
                PackingStats::of(&packing),
            )
        }
    };
    ReshapeOutcome {
        unit,
        files,
        stats,
        original_files: manifest.len(),
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
    fn merging_conserves_bytes() {
        let m = manifest(&[300, 700, 500, 500, 999, 1]);
        let out = reshape_manifest(&m, UnitSize::Bytes(1_000));
        let total: u64 = out.files.iter().map(|f| f.size).sum();
        assert_eq!(total, m.total_volume());
        assert_eq!(out.files.len(), 3);
        assert!((out.merge_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn original_is_identity() {
        let m = manifest(&[10, 20, 30]);
        let out = reshape_manifest(&m, UnitSize::Original);
        assert_eq!(out.files, m.files);
        assert_eq!(out.stats.bins, 3);
    }

    #[test]
    fn oversize_files_pass_through() {
        let m = manifest(&[5_000, 100]);
        let out = reshape_manifest(&m, UnitSize::Bytes(1_000));
        assert!(out.files.iter().any(|f| f.size == 5_000));
        assert_eq!(out.stats.oversize_bins, 1);
    }

    #[test]
    fn parallel_reshape_equals_sequential() {
        let mut m = manifest(&[300, 700, 500, 500, 999, 1, 5_000, 0, 250]);
        for (i, f) in m.files.iter_mut().enumerate() {
            f.complexity = 1.0 + (i % 4) as f64 * 0.25;
        }
        for unit in [UnitSize::Original, UnitSize::Bytes(1_000)] {
            let seq = reshape_manifest(&m, unit);
            for par in [
                Parallelism::Sequential,
                Parallelism::Rayon(0),
                Parallelism::Rayon(3),
            ] {
                assert_eq!(
                    seq,
                    reshape_manifest_par(&m, unit, par),
                    "diverged under {par:?}"
                );
            }
        }
    }

    #[test]
    fn sharded_route_is_parallelism_independent() {
        // Enough files to cross PAR_PACK_MIN_ITEMS and take the sharded
        // parallel pack; the outcome must not depend on the worker count.
        let sizes: Vec<u64> = (0..PAR_PACK_MIN_ITEMS as u64 + 5_000)
            .map(|i| (i * 131) % 900 + 1)
            .collect();
        let m = manifest(&sizes);
        let unit = UnitSize::Bytes(10_000);
        let seq = reshape_manifest(&m, unit);
        for par in [
            Parallelism::Sequential,
            Parallelism::Rayon(2),
            Parallelism::Rayon(7),
        ] {
            assert_eq!(seq, reshape_manifest_par(&m, unit, par), "{par:?}");
        }
        let total: u64 = seq.files.iter().map(|f| f.size).sum();
        assert_eq!(total, m.total_volume());
    }

    #[test]
    fn complexity_weighted_through_merge() {
        let mut m = manifest(&[400, 600]);
        m.files[0].complexity = 2.0;
        m.files[1].complexity = 1.0;
        let out = reshape_manifest(&m, UnitSize::Bytes(1_000));
        assert_eq!(out.files.len(), 1);
        assert!((out.files[0].complexity - 1.4).abs() < 1e-12);
    }
}
