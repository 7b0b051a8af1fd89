//! Property suite pinning the AVX2 tier to the scalar reference
//! bit-for-bit, over match-dense inputs: small alphabets so matches land in
//! both vector-body and scalar-tail positions constantly, at lengths up to
//! and past the production widths (16-way L2 sets, GHB chains of up to 64
//! deltas).

use proptest::prelude::*;
use semloc_accel::{available_tiers, Tier};

/// Every tier the host can execute, asserted against scalar.
fn tiers() -> Vec<Tier> {
    let t = available_tiers();
    assert!(t.contains(&Tier::Scalar));
    t
}

proptest! {
    #[test]
    fn find_valid_tag_matches_scalar_on_every_tier(
        ways in collection::vec((0u64..5, any::<bool>()), 0..67),
        needle in 0u64..5,
    ) {
        let tags: Vec<u64> = ways.iter().map(|w| w.0).collect();
        let valid: Vec<bool> = ways.iter().map(|w| w.1).collect();
        let want = semloc_accel::find_valid_tag_with(Tier::Scalar, &tags, &valid, needle);
        for t in tiers() {
            prop_assert_eq!(
                semloc_accel::find_valid_tag_with(t, &tags, &valid, needle),
                want,
                "tier {:?}", t
            );
        }
        prop_assert_eq!(semloc_accel::find_valid_tag(&tags, &valid, needle), want);
    }

    #[test]
    fn find_pair_i64_matches_scalar_on_every_tier(
        deltas in collection::vec(-2i64..3, 0..67),
        d1 in -2i64..3,
        d2 in -2i64..3,
    ) {
        let want = semloc_accel::find_pair_i64_with(Tier::Scalar, &deltas, d1, d2);
        for t in tiers() {
            prop_assert_eq!(
                semloc_accel::find_pair_i64_with(t, &deltas, d1, d2),
                want,
                "tier {:?}", t
            );
        }
        prop_assert_eq!(semloc_accel::find_pair_i64(&deltas, d1, d2), want);
    }
}

/// The edge lengths the random vectors may under-sample: exactly at, one
/// below, and one above each vector width and the dispatch crossover.
#[test]
fn boundary_lengths_agree_on_every_tier() {
    for n in [
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
    ] {
        let u64s: Vec<u64> = (0..n).map(|i| ((i * 13) % 5) as u64).collect();
        let valid: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let i64s: Vec<i64> = (0..n).map(|i| ((i * 7) % 5) as i64 - 2).collect();
        for t in available_tiers() {
            for needle in 0..6 {
                assert_eq!(
                    semloc_accel::find_valid_tag_with(t, &u64s, &valid, needle),
                    semloc_accel::find_valid_tag_with(Tier::Scalar, &u64s, &valid, needle),
                    "find_valid_tag len {n} needle {needle} tier {t:?}"
                );
            }
            for d1 in -3..4 {
                for d2 in -3..4 {
                    assert_eq!(
                        semloc_accel::find_pair_i64_with(t, &i64s, d1, d2),
                        semloc_accel::find_pair_i64_with(Tier::Scalar, &i64s, d1, d2),
                        "find_pair_i64 len {n} pair ({d1}, {d2}) tier {t:?}"
                    );
                }
            }
        }
    }
}
