//! Storage tiers: EBS volumes with placement segments, and an S3-like
//! object store.
//!
//! The EBS model is what produces the paper's Fig 5 spikes: a logical
//! volume is divided into fixed-size *placement segments*, each with a
//! throughput multiplier. Most segments are clean (×1.0); a seeded minority
//! is consistently slow (down to ×1/3 — the paper verified "performance
//! variations of up to a factor of 3" between clones of the same
//! directory). A data set occupies a contiguous extent starting at a
//! placement offset, so its *effective* throughput is the harmonic mean of
//! the segments it spans — repeatable for the same placement, different
//! across placements.

use crate::error::CloudError;
use crate::instance::InstanceId;
use crate::types::AvailabilityZone;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// EBS placement segment width in bytes.
const SEGMENT_BYTES: u64 = 1_000_000_000;

/// Multiplier range for slow segments (the paper verified up to ×3
/// degradation, i.e. multipliers down to ≈0.33).
const SLOW_SEGMENT_MULTIPLIER: (f64, f64) = (0.33, 0.60);

/// Opaque EBS volume identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VolumeId(pub u64);

/// A persistent EBS volume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EbsVolume {
    /// Identifier.
    pub id: VolumeId,
    /// Placement zone; attachment requires the instance to be in the same
    /// zone.
    pub zone: AvailabilityZone,
    /// Volume size in bytes.
    pub size: u64,
    /// Instance currently holding the volume, if any.
    pub attached_to: Option<InstanceId>,
    /// Per-segment throughput multipliers (≤ 1.0).
    segments: Vec<f64>,
}

impl EbsVolume {
    /// Create a volume, sampling segment multipliers from the seed:
    /// `slow_fraction` of segments get a multiplier in
    /// `SLOW_SEGMENT_MULTIPLIER`, the rest are ×1.0.
    pub fn new(
        id: VolumeId,
        zone: AvailabilityZone,
        size: u64,
        slow_fraction: f64,
        seed: u64,
    ) -> Self {
        let n = size.div_ceil(SEGMENT_BYTES).max(1) as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ id.0.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let (lo, hi) = SLOW_SEGMENT_MULTIPLIER;
        let segments = (0..n)
            .map(|_| {
                if rng.random::<f64>() < slow_fraction {
                    rng.random_range(lo..hi)
                } else {
                    1.0
                }
            })
            .collect();
        EbsVolume {
            id,
            zone,
            size,
            attached_to: None,
            segments,
        }
    }

    /// Effective throughput multiplier for a read of `bytes` starting at
    /// `offset`: the harmonic mean of the spanned segments, weighted by the
    /// bytes read from each (harmonic, because time adds, not speed).
    pub fn throughput_multiplier(&self, offset: u64, bytes: u64) -> f64 {
        if bytes == 0 {
            return 1.0;
        }
        let mut remaining = bytes;
        let mut pos = offset % self.size.max(1);
        let mut time_units = 0.0f64;
        while remaining > 0 {
            let seg = ((pos / SEGMENT_BYTES) as usize) % self.segments.len();
            let seg_end = (pos / SEGMENT_BYTES + 1) * SEGMENT_BYTES;
            let chunk = remaining.min(seg_end - pos);
            time_units += chunk as f64 / self.segments[seg];
            pos = seg_end % self.size.max(1);
            remaining -= chunk;
        }
        bytes as f64 / time_units
    }

    /// Fraction of segments that are slow (multiplier < 1).
    pub fn slow_segment_fraction(&self) -> f64 {
        self.segments.iter().filter(|&&m| m < 1.0).count() as f64 / self.segments.len() as f64
    }
}

/// An S3-like object store: unlimited objects of up to 5 GB each (§1.1),
/// shared across zones, with higher per-object latency than EBS.
///
/// A store may carry an optional byte `capacity` (an NFS-style shared
/// filesystem export is exactly such a capped store); `put` enforces it
/// with replace-aware accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectStore {
    objects: BTreeMap<String, u64>,
    /// Total bytes stored.
    pub total_bytes: u64,
    /// Optional store-wide byte cap; `None` means unbounded (S3).
    pub capacity: Option<u64>,
}

impl ObjectStore {
    /// The 5 GB per-object limit.
    pub const MAX_OBJECT: u64 = 5_000_000_000;

    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty store with a byte capacity.
    pub fn with_capacity(capacity: u64) -> Self {
        ObjectStore {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Store an object of `size` bytes under `key` (metadata only — the
    /// simulator never moves real bytes). Replaces any existing object.
    ///
    /// Capacity is checked with the *replaced* object's bytes freed first:
    /// at a full store, overwriting a key with a smaller (or equal) object
    /// must succeed — the naive `total_bytes + size > capacity` check would
    /// reject it and wedge any at-cap store that only ever rewrites keys.
    pub fn put(&mut self, key: &str, size: u64) -> Result<(), CloudError> {
        if size > Self::MAX_OBJECT {
            return Err(CloudError::ObjectTooLarge {
                size,
                max: Self::MAX_OBJECT,
            });
        }
        if let Some(cap) = self.capacity {
            let freed = self.objects.get(key).copied().unwrap_or(0);
            let needed = self.total_bytes - freed + size;
            if needed > cap {
                return Err(CloudError::StoreFull {
                    needed,
                    capacity: cap,
                });
            }
        }
        if let Some(old) = self.objects.insert(key.to_string(), size) {
            self.total_bytes -= old;
        }
        self.total_bytes += size;
        Ok(())
    }

    /// Size of the object under `key`.
    pub fn get(&self, key: &str) -> Result<u64, CloudError> {
        self.objects
            .get(key)
            .copied()
            .ok_or_else(|| CloudError::NoSuchObject(key.to_string()))
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volume(seed: u64, slow_fraction: f64) -> EbsVolume {
        EbsVolume::new(
            VolumeId(1),
            AvailabilityZone::us_east_1a(),
            10_000_000_000, // 10 GB
            slow_fraction,
            seed,
        )
    }

    #[test]
    fn clean_volume_has_unit_multiplier() {
        let v = volume(1, 0.0);
        assert!((v.throughput_multiplier(0, 5_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slow_segments_reduce_throughput() {
        let v = volume(2, 1.0); // all segments slow
        let m = v.throughput_multiplier(0, 2_000_000_000);
        assert!(m < 0.61, "multiplier {m}");
        assert!(m > 0.32);
    }

    #[test]
    fn multiplier_repeatable_for_same_placement() {
        let v = volume(3, 0.3);
        let a = v.throughput_multiplier(1_500_000_000, 3_000_000_000);
        let b = v.throughput_multiplier(1_500_000_000, 3_000_000_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_placements_can_differ() {
        let v = EbsVolume::new(
            VolumeId(2),
            AvailabilityZone::us_east_1a(),
            40_000_000_000,
            0.4,
            4,
        );
        let ms: Vec<f64> = (0..40)
            .map(|i| v.throughput_multiplier(i * 1_000_000_000, 1_000_000_000))
            .collect();
        let distinct = ms.iter().any(|&m| (m - ms[0]).abs() > 1e-9);
        assert!(distinct, "all placements identical: {ms:?}");
    }

    #[test]
    fn zero_byte_read_is_free() {
        let v = volume(5, 0.5);
        assert_eq!(v.throughput_multiplier(0, 0), 1.0);
    }

    #[test]
    fn reads_wrap_around_volume_end() {
        let v = volume(6, 0.2);
        // Start near the end; must not panic and must stay in (0, 1].
        let m = v.throughput_multiplier(9_500_000_000, 2_000_000_000);
        assert!(m > 0.0 && m <= 1.0);
    }

    #[test]
    fn object_store_put_get_delete() {
        let mut s = ObjectStore::new();
        s.put("a", 100).unwrap();
        s.put("b", 200).unwrap();
        assert_eq!(s.get("a").unwrap(), 100);
        assert_eq!(s.total_bytes, 300);
        s.put("a", 50).unwrap(); // replace
        assert_eq!(s.total_bytes, 250);
    }

    #[test]
    fn object_cap_enforced() {
        let mut s = ObjectStore::new();
        let err = s.put("big", 5_000_000_001).unwrap_err();
        assert!(matches!(err, CloudError::ObjectTooLarge { .. }));
        assert!(s.is_empty());
    }

    #[test]
    fn store_capacity_enforced() {
        let mut s = ObjectStore::with_capacity(1_000);
        s.put("a", 600).unwrap();
        s.put("b", 400).unwrap(); // exactly full is fine
        assert_eq!(s.total_bytes, 1_000);
        let err = s.put("c", 1).unwrap_err();
        assert_eq!(
            err,
            CloudError::StoreFull {
                needed: 1_001,
                capacity: 1_000
            }
        );
        // Rejected put leaves the store untouched.
        assert_eq!(s.total_bytes, 1_000);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn replace_at_capacity_credits_freed_bytes_first() {
        // Regression: at a full store, replacing an existing key with a
        // smaller object must succeed — the freed bytes count before the
        // new size is charged. A naive `total + size > cap` check rejects
        // every rewrite of a full store.
        let mut s = ObjectStore::with_capacity(1_000);
        s.put("a", 1_000).unwrap();
        s.put("a", 700).unwrap();
        assert_eq!(s.total_bytes, 700);
        // Same-size rewrite at cap is also fine …
        s.put("b", 300).unwrap();
        s.put("b", 300).unwrap();
        assert_eq!(s.total_bytes, 1_000);
        // … and growing past the cap is still rejected, with the old
        // object intact.
        let err = s.put("b", 301).unwrap_err();
        assert!(matches!(err, CloudError::StoreFull { .. }));
        assert_eq!(s.get("b").unwrap(), 300);
        assert_eq!(s.total_bytes, 1_000);
    }

    #[test]
    fn uncapped_store_never_reports_full() {
        let mut s = ObjectStore::new();
        s.put("a", 4_000_000_000).unwrap();
        s.put("b", 4_000_000_000).unwrap();
        assert_eq!(s.total_bytes, 8_000_000_000);
    }
}
