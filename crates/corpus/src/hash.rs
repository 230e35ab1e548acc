//! The seeded hashes every simulator draw and partitioner is keyed on.
//!
//! One home for both, so a seeded path cannot drift by editing a private
//! copy. `tests/seeded_hashes.rs` at the workspace root pins their values,
//! along with the two crates that keep their own bodies because they have
//! no workspace dependency (`obs::run_id_from_seed`,
//! `binpack::member_name_hash`).

/// splitmix64 finaliser (Steele, Lea & Flood): a bijective 64-bit scramble,
/// used as a counter-based random draw.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a of a byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
