//! 256-bit AVX2 implementations: native 64-bit lane equality
//! (`vpcmpeqq`) checks four ways or four delta positions per compare.
//! Both kernels are pinned bit-identical to [`crate::scalar`] by the
//! equivalence property suite.
//!
//! # Safety
//!
//! Every `pub fn` here carries `#[target_feature(enable = "avx2")]`, so
//! calling one from a context without that feature statically enabled is
//! `unsafe`; the sole obligation is that the CPU actually supports AVX2,
//! which [`crate::supported`] checks via `is_x86_feature_detected!` before
//! the dispatcher ever selects this tier. That shared contract is
//! documented here once rather than per function.

#![allow(clippy::missing_safety_doc)] // the uniform contract is in the module docs above

use std::arch::x86_64::*;

/// Load the first four 64-bit lanes of `p`.
#[inline]
#[target_feature(enable = "avx2")]
fn load4<T: Copy>(p: &[T]) -> __m256i {
    const { assert!(size_of::<T>() == 8) };
    assert!(p.len() >= 4);
    // semloc-lint: allow(unsafe-audit): unaligned 32-byte read from a slice just asserted to hold >= 4 lanes of 8 bytes
    unsafe { _mm256_loadu_si256(p.as_ptr() as *const __m256i) }
}

/// See [`crate::scalar::find_valid_tag`].
#[target_feature(enable = "avx2")]
pub fn find_valid_tag(tags: &[u64], valid: &[bool], needle: u64) -> Option<usize> {
    let splat = _mm256_set1_epi64x(needle as i64);
    let mut i = 0;
    while i + 4 <= tags.len() {
        let eq = _mm256_cmpeq_epi64(load4(&tags[i..]), splat);
        let mut m = _mm256_movemask_epi8(eq) as u32;
        while m != 0 {
            let lane = m.trailing_zeros() as usize / 8;
            if valid[i + lane] {
                return Some(i + lane);
            }
            m &= !(0xffu32 << (lane * 8));
        }
        i += 4;
    }
    (i..tags.len()).find(|&j| valid[j] && tags[j] == needle)
}

/// See [`crate::scalar::find_pair_i64`]: four candidate positions per
/// iteration via two shifted 64-bit equality compares.
#[target_feature(enable = "avx2")]
pub fn find_pair_i64(deltas: &[i64], d1: i64, d2: i64) -> Option<usize> {
    if deltas.len() < 3 {
        return None;
    }
    let s1 = _mm256_set1_epi64x(d1);
    let s2 = _mm256_set1_epi64x(d2);
    let mut i = 1;
    while i + 5 <= deltas.len() {
        let eq1 = _mm256_cmpeq_epi64(load4(&deltas[i..]), s1);
        let eq2 = _mm256_cmpeq_epi64(load4(&deltas[i + 1..]), s2);
        let m = _mm256_movemask_epi8(_mm256_and_si256(eq1, eq2)) as u32;
        if m != 0 {
            return Some(i + m.trailing_zeros() as usize / 8);
        }
        i += 4;
    }
    (i..deltas.len() - 1).find(|&j| deltas[j] == d1 && deltas[j + 1] == d2)
}
