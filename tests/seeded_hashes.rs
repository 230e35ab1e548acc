//! Pins the seeded hashes. `corpus::hash` is their one home; `obs` and
//! `binpack` keep their own bodies because neither depends on another
//! workspace crate, so this test holds those copies to the corpus ones.
//! The literal values were computed independently of this code, so a
//! change to the shared functions fails here too.

use corpus::hash::{fnv1a, splitmix64};

#[test]
fn splitmix64_and_fnv1a_keep_their_reference_values() {
    assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(binpack::member_name_hash("file-7"), 0x222e_b0a8_e6f1_bce7);
}

#[test]
fn run_id_is_the_corpus_splitmix64() {
    for seed in [0, 1, 42, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
        assert_eq!(
            obs::run_id_from_seed(seed),
            format!("{:016x}", splitmix64(seed)),
            "seed {seed}"
        );
    }
}

#[test]
fn member_name_hash_is_the_corpus_fnv1a() {
    for name in ["", "a", "file-7", "dir/unit-000042.txt", "ÉCOLE"] {
        assert_eq!(
            binpack::member_name_hash(name),
            fnv1a(name.as_bytes()),
            "{name:?}"
        );
    }
}
