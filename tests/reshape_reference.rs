//! Reshape-vs-reference differential invariant.
//!
//! This file carries the reshape route as it stood before the packing
//! became a flat member array: every file copied into an `{id, size}`
//! item, the quadratic subset-sum first fit, the sharded pack over
//! `Vec<Bin>` with the `RepackTails` merge, one unit file per nonempty
//! bin with the size-weighted mean complexity, and the packing
//! statistics. It uses its own types only, so it keeps compiling whatever
//! shape the library's packing takes.
//!
//! The library's `reshape_manifest_par`, under `Sequential` and
//! `Rayon(2)`, must reproduce it exactly: every unit file's id, size and
//! complexity bits, and every statistic by bits. The inputs are seeded
//! HTML_18mil slices on both sides of `PAR_PACK_MIN_ITEMS`, with
//! zero-size and oversize files, and a shard layout whose tail repack
//! would add a bin. The streaming sink is pinned by FNV-1a fingerprints
//! of its outcomes.

use corpus::{FileSpec, Manifest};
use obs::Obs;
use reshape::{
    reshape_manifest_par, reshape_streaming, ArrivalConfig, ArrivalOrder, IngestConfig,
    MergePolicy, PackingStats, Parallelism, ReshapeOutcome, SealPolicy, UnitSize,
    PAR_PACK_MIN_ITEMS, RESHAPE_PACK_SHARDS,
};

#[derive(Debug, Clone, Copy, PartialEq)]
struct RefItem {
    id: u64,
    size: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct RefBin {
    items: Vec<RefItem>,
    used: u64,
    capacity: u64,
}

impl RefBin {
    fn new(capacity: u64) -> Self {
        RefBin {
            items: Vec::new(),
            used: 0,
            capacity,
        }
    }

    fn push(&mut self, item: RefItem) {
        self.used += item.size;
        self.items.push(item);
    }

    fn is_oversize(&self) -> bool {
        self.used > self.capacity
    }

    fn fill(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        (self.used.min(self.capacity)) as f64 / self.capacity as f64
    }

    fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }
}

/// Subset-sum first fit, the quadratic form: oversize items first in
/// input order, then each bin takes the largest remaining item that fits
/// until it is full or nothing fits; members keep input order.
fn subset_sum_first_fit(items: &[RefItem], capacity: u64) -> Vec<RefBin> {
    let mut bins = Vec::new();
    for &item in items.iter().filter(|i| i.size > capacity) {
        let mut b = RefBin::new(capacity);
        b.push(item);
        bins.push(b);
    }
    let mut pos: Vec<(usize, RefItem)> = items
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, i)| i.size <= capacity)
        .collect();
    pos.sort_by(|a, b| b.1.size.cmp(&a.1.size).then(a.0.cmp(&b.0)));
    let mut taken = vec![false; pos.len()];
    let mut remaining = pos.len();
    while remaining > 0 {
        let mut members: Vec<(usize, RefItem)> = Vec::new();
        let mut free = capacity;
        for (k, &(orig, item)) in pos.iter().enumerate() {
            if taken[k] || item.size > free {
                continue;
            }
            taken[k] = true;
            remaining -= 1;
            free -= item.size;
            members.push((orig, item));
            if free == 0 {
                break;
            }
        }
        members.sort_by_key(|&(orig, _)| orig);
        let mut b = RefBin::new(capacity);
        for (_, item) in members {
            b.push(item);
        }
        bins.push(b);
    }
    bins
}

/// `n` items in at most `shards` contiguous, balanced ranges.
fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.min(n);
    let (base, extra) = (n / shards, n % shards);
    let mut start = 0;
    (0..shards)
        .map(|i| {
            let len = base + usize::from(i < extra);
            start += len;
            (start - len, start)
        })
        .collect()
}

/// Pack every shard on its own, concatenate the bins in shard order, and
/// repack each shard's last non-oversize bin together unless that needs
/// more bins than it pulled.
fn sharded(items: &[RefItem], capacity: u64, shards: usize) -> Vec<RefBin> {
    let mut bins = Vec::new();
    let mut tails = Vec::new();
    for (lo, hi) in shard_ranges(items.len(), shards) {
        let mut pack = subset_sum_first_fit(&items[lo..hi], capacity);
        if let Some(idx) = pack.iter().rposition(|b| !b.is_oversize()) {
            tails.push(pack.remove(idx));
        }
        bins.append(&mut pack);
    }
    if !tails.is_empty() {
        let loose: Vec<RefItem> = tails.iter().flat_map(|b| b.items.clone()).collect();
        let repacked = subset_sum_first_fit(&loose, capacity);
        if repacked.len() <= tails.len() {
            bins.extend(repacked);
        } else {
            bins.append(&mut tails);
        }
    }
    bins
}

fn bin_to_file(index: usize, bin: &RefBin, manifest: &Manifest) -> FileSpec {
    let mut weighted = 0.0f64;
    for it in &bin.items {
        let f = &manifest.files[it.id as usize];
        weighted += f.complexity * f.size as f64;
    }
    FileSpec {
        id: index as u64,
        size: bin.used,
        complexity: if bin.used > 0 {
            weighted / bin.used as f64
        } else {
            1.0
        },
    }
}

fn stats_of(bins: &[RefBin]) -> PackingStats {
    let regular: Vec<&RefBin> = bins.iter().filter(|b| !b.is_oversize()).collect();
    let (mean_fill, min_fill, waste_bytes) = if regular.is_empty() {
        (1.0, 1.0, 0)
    } else {
        let fills: Vec<f64> = regular.iter().map(|b| b.fill()).collect();
        let mean = fills.iter().sum::<f64>() / fills.len() as f64;
        let min = fills.iter().cloned().fold(f64::INFINITY, f64::min);
        (mean, min, regular.iter().map(|b| b.free()).sum())
    };
    let sizes: Vec<u64> = bins.iter().map(|b| b.used).collect();
    PackingStats {
        bins: bins.len(),
        oversize_bins: bins.len() - regular.len(),
        total_bytes: sizes.iter().sum(),
        total_items: bins.iter().map(|b| b.items.len()).sum(),
        mean_fill,
        min_fill,
        waste_bytes,
        max_bin_bytes: sizes.iter().copied().max().unwrap_or(0),
        min_bin_bytes: sizes.iter().copied().min().unwrap_or(0),
    }
}

/// The reference reshape: `(unit files, stats)`.
fn reference(manifest: &Manifest, unit: UnitSize) -> (Vec<FileSpec>, PackingStats) {
    match unit {
        UnitSize::Original => {
            let cap = manifest.max_file_size().max(1);
            let bins: Vec<RefBin> = manifest
                .files
                .iter()
                .map(|f| {
                    let mut b = RefBin::new(cap);
                    b.push(RefItem {
                        id: f.id,
                        size: f.size,
                    });
                    b
                })
                .collect();
            (manifest.files.clone(), stats_of(&bins))
        }
        UnitSize::Bytes(target) => {
            let items: Vec<RefItem> = manifest
                .files
                .iter()
                .enumerate()
                .map(|(i, f)| RefItem {
                    id: i as u64,
                    size: f.size,
                })
                .collect();
            let bins = if items.len() < PAR_PACK_MIN_ITEMS {
                subset_sum_first_fit(&items, target)
            } else {
                sharded(&items, target, RESHAPE_PACK_SHARDS)
            };
            let files = bins
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.items.is_empty())
                .map(|(i, b)| bin_to_file(i, b, manifest))
                .collect();
            (files, stats_of(&bins))
        }
    }
}

/// The stats as comparable bits: floats by `to_bits`.
fn stat_bits(s: &PackingStats) -> [u64; 9] {
    [
        s.bins as u64,
        s.oversize_bins as u64,
        s.total_bytes,
        s.total_items as u64,
        s.mean_fill.to_bits(),
        s.min_fill.to_bits(),
        s.waste_bytes,
        s.max_bin_bytes,
        s.min_bin_bytes,
    ]
}

fn file_bits(f: &FileSpec) -> [u64; 3] {
    [f.id, f.size, f.complexity.to_bits()]
}

/// Compare one library outcome with the reference; `what` names the case
/// (seed, size and unit) in every failure.
fn assert_matches(out: &ReshapeOutcome, manifest: &Manifest, unit: UnitSize, what: &str) {
    let (files, stats) = reference(manifest, unit);
    assert_eq!(out.unit, unit, "{what}: unit");
    assert_eq!(out.original_files, manifest.len(), "{what}: original_files");
    assert_eq!(
        out.files.len(),
        files.len(),
        "{what}: {} unit files, reference {}",
        out.files.len(),
        files.len()
    );
    if let Some(k) = (0..files.len()).find(|&k| file_bits(&out.files[k]) != file_bits(&files[k])) {
        panic!(
            "{what}: unit file {k} is {:?}, reference {:?}",
            out.files[k], files[k]
        );
    }
    assert_eq!(
        stat_bits(&out.stats),
        stat_bits(&stats),
        "{what}: stats {:?}, reference {:?}",
        out.stats,
        stats
    );
}

fn check_both_parallelisms(manifest: &Manifest, unit: UnitSize, what: &str) {
    for par in [Parallelism::Sequential, Parallelism::Rayon(2)] {
        let out = reshape_manifest_par(manifest, unit, par);
        assert_matches(&out, manifest, unit, &format!("{what}, {par:?}"));
    }
}

/// An `n`-file HTML_18mil slice whose every 997th file is empty.
fn html_slice(n: usize, seed: u64) -> Manifest {
    let mut m = corpus::html_18mil(n as f64 / 18_000_000.0, seed);
    assert_eq!(m.len(), n, "slice size");
    for f in m.files.iter_mut().step_by(997) {
        f.size = 0;
    }
    m
}

#[test]
fn html_slices_match_the_reference_on_both_routes() {
    // 5k files take the single-shot pack; 70k and 200k the sharded one.
    for (n, seeds) in [(5_000, 1..=3), (70_000, 1..=2), (200_000, 1..=1)] {
        assert!((n < PAR_PACK_MIN_ITEMS) == (n == 5_000));
        for seed in seeds {
            let m = html_slice(n, seed);
            let volume = m.total_volume();
            assert!(m.files.iter().any(|f| f.size == 0), "no zero-size file");
            // Units giving about 400 and about 60 bins.
            for bins in [400, 60] {
                let target = volume / bins;
                let unit = UnitSize::Bytes(target);
                let what = format!("seed {seed}, {n} files, unit {target} B");
                check_both_parallelisms(&m, unit, &what);
            }
        }
    }
}

#[test]
fn oversize_files_match_the_reference() {
    // A unit below the largest files: oversize bins on both routes.
    for (n, seed) in [(5_000, 4), (70_000, 5)] {
        let m = html_slice(n, seed);
        let target = 400_000;
        assert!(m.max_file_size() > target, "no oversize file");
        let what = format!("seed {seed}, {n} files, unit {target} B");
        check_both_parallelisms(&m, UnitSize::Bytes(target), &what);
    }
}

#[test]
fn original_unit_matches_the_reference() {
    for (n, seed) in [(5_000, 1), (70_000, 2)] {
        let m = html_slice(n, seed);
        let what = format!("seed {seed}, {n} files, unit Original");
        check_both_parallelisms(&m, UnitSize::Original, &what);
    }
}

/// Every shard packs into `{8, zeros…}` and a full `{4, 3, 2}` tail at a
/// 9-byte unit. Repacking the 16 tails largest-first needs 18 bins (8 of
/// 4+4, 8 of 3+3+2, 2 of 2+2+2+2), so the merge keeps them as they were.
#[test]
fn tails_stay_when_their_repack_would_add_a_bin() {
    let shard = PAR_PACK_MIN_ITEMS.div_ceil(RESHAPE_PACK_SHARDS);
    let n = shard * RESHAPE_PACK_SHARDS;
    let files: Vec<FileSpec> = (0..n)
        .map(|i| {
            let size = match i % shard {
                0 => 8,
                1 => 4,
                2 => 3,
                3 => 2,
                _ => 0,
            };
            FileSpec {
                id: i as u64,
                size,
                complexity: 1.0 + (i % 7) as f64 * 0.125,
            }
        })
        .collect();
    let m = Manifest::new("tails", files, 0);
    let unit = UnitSize::Bytes(9);
    let (ref_files, stats) = reference(&m, unit);
    assert_eq!(
        stats.bins,
        2 * RESHAPE_PACK_SHARDS,
        "the tails were repacked"
    );
    assert_eq!(ref_files.len(), 2 * RESHAPE_PACK_SHARDS);
    check_both_parallelisms(&m, unit, &format!("{n} files, unit 9 B, tails kept"));
}

/// FNV-1a over each unit file's id, size and complexity bits, then over
/// the stats by bits and the input file count.
fn fingerprint(out: &ReshapeOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &out.files {
        file_bits(f).into_iter().for_each(&mut eat);
    }
    stat_bits(&out.stats).into_iter().for_each(&mut eat);
    eat(out.original_files as u64);
    h
}

/// The streaming sink's policies: bin-full, aged, and bin-full with a
/// compaction pass.
fn ingest_config(policy: &str, seed: u64) -> IngestConfig {
    let (seal, compact_min_fill) = match policy {
        "bin_full" => (SealPolicy::bin_full(40_000_000), None),
        "aged" => (SealPolicy::aged(60.0), None),
        "compacting" => (SealPolicy::bin_full(25_000_000), Some(0.9)),
        _ => unreachable!("unknown policy {policy}"),
    };
    IngestConfig {
        arrival: ArrivalConfig {
            mean_interarrival_secs: 0.25,
            order: ArrivalOrder::Shuffled,
        },
        arrival_seed: seed ^ 0xA11,
        seal,
        merge: MergePolicy::RepackTails,
        compact_min_fill,
    }
}

/// `(policy, seed, files out, fingerprint)`, computed from the route this
/// file carries: 3,000-file HTML_18mil slices at a 4 MB unit.
const STREAMING_PINS: [(&str, u64, usize, u64); 9] = [
    ("bin_full", 1, 37, 0x6B2CDB5B1A656D48),
    ("bin_full", 2, 36, 0x26A1ED471737D40A),
    ("bin_full", 3, 35, 0x3C4550B5274B5A35),
    ("aged", 1, 37, 0xAC8721EC1DD03F6A),
    ("aged", 2, 36, 0x95D5BC9CFF5C8398),
    ("aged", 3, 35, 0xB7C8361A61D9F233),
    ("compacting", 1, 37, 0xB242C149561712AF),
    ("compacting", 2, 36, 0x447B5F831F0892BA),
    ("compacting", 3, 35, 0x5C348878896A718C),
];

#[test]
fn streaming_outcomes_keep_their_fingerprints() {
    let unit = UnitSize::Bytes(4_000_000);
    let mut seen = Vec::new();
    for (policy, seed, _, _) in STREAMING_PINS {
        let m = html_slice(3_000, seed);
        let out = reshape_streaming(&m, unit, &ingest_config(policy, seed), &Obs::noop());
        let total: u64 = out.files.iter().map(|f| f.size).sum();
        assert_eq!(total, m.total_volume(), "{policy}, seed {seed}: bytes lost");
        seen.push((policy, seed, out.files.len(), fingerprint(&out)));
    }
    assert_eq!(
        seen,
        STREAMING_PINS.to_vec(),
        "streaming outcomes moved (policy, seed, files, fingerprint)"
    );
}
