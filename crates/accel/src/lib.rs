//! Runtime-dispatched SIMD kernels for the two simulator scans that are
//! long enough to pay for a vector call:
//!
//! * [`find_valid_tag`] — the cache tag probe over a set-major SoA array
//!   (the 16-way L2 of Table 2);
//! * [`find_pair_i64`] — the GHB delta-correlation pair scan over chains of
//!   up to 64 deltas.
//!
//! Every other scan the simulator runs (4-link CST entries, 8-way L1 sets,
//! victim selection, hash mixing, reward lookups) stays below the
//! scalar→SIMD crossover at the paper's widths and is a plain loop in its
//! caller.
//!
//! Each kernel has two implementations — portable scalar and AVX2 —
//! selected once per process by [`tier`]: the `SEMLOC_ACCEL` environment
//! variable (`scalar`, `avx2` or `auto`, the default) names the tier, and
//! requesting one the host cannot run panics at startup, so a pinned tier
//! always means what it says. Both paths are **bit-identical** for every
//! input (first-match tie-break); the property suite in
//! `tests/equivalence.rs` pins this, and the golden-digest CI job runs the
//! full harness under `scalar`, `avx2` and `auto` asserting one digest.
//!
//! The per-tier entry points ([`find_valid_tag_with`],
//! [`find_pair_i64_with`]) are public so tests and benchmarks can compare
//! tiers directly; production callers use the auto-dispatched forms.

// Mirror of semloc-lint rule D3 (no-unwrap); D1/D2 are mirrored via clippy.toml.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

/// One implementation tier. Ordered: the later tier requires strictly more
/// CPU features.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable scalar Rust — always available, the reference semantics.
    Scalar,
    /// 256-bit AVX2.
    Avx2,
}

impl Tier {
    /// The `SEMLOC_ACCEL` spelling of this tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
        }
    }
}

/// Whether this host can execute `t`'s instructions.
pub fn supported(t: Tier) -> bool {
    match t {
        Tier::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 => false,
    }
}

/// The best tier this host supports.
pub fn best_supported() -> Tier {
    if supported(Tier::Avx2) {
        Tier::Avx2
    } else {
        Tier::Scalar
    }
}

/// The tier a `SEMLOC_ACCEL` value selects on a host whose best tier is
/// `best`: unset, empty and `auto` pick `best`; `scalar` and `avx2` pick
/// themselves if the host can run them. Anything else — a typo, a retired
/// tier, a tier above `best` — is an error naming the variable, the value
/// and the host's best tier.
fn tier_from(value: Option<&str>, best: Tier) -> Result<Tier, String> {
    match value {
        None | Some("" | "auto") => Ok(best),
        Some("scalar") => Ok(Tier::Scalar),
        Some("avx2") if best == Tier::Avx2 => Ok(Tier::Avx2),
        Some(v) => Err(format!(
            "SEMLOC_ACCEL={v:?}: expected scalar|avx2|auto, at most this host's best tier {}",
            best.name()
        )),
    }
}

/// The process-wide dispatch tier (resolved once from `SEMLOC_ACCEL` and
/// CPU feature detection).
///
/// # Panics
///
/// When `SEMLOC_ACCEL` names a tier this host cannot run or is not one of
/// `scalar|avx2|auto`; the message names the variable, its value and the
/// host's best tier.
pub fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let value = std::env::var("SEMLOC_ACCEL").ok();
        match tier_from(value.as_deref(), best_supported()) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    })
}

/// Minimum input length (lanes) at which an auto-dispatched wrapper hands
/// a scan to the resolved [`tier`].
///
/// `#[target_feature]` functions cannot be inlined into callers compiled
/// without that feature, so every SIMD call pays an outlined call plus
/// vector setup (~a dozen ns). A branchy scalar loop over a handful of
/// elements beats that by a wide margin, so below the crossover the
/// wrappers run the (inlinable) scalar kernel directly. `calibrate_crossover`
/// (semloc-bench) measures the stable crossover of both kernels below 16
/// lanes (`BENCH_crossover.json`); 16 keeps the paper-default 8-way L1
/// probe and 8-deep GHB chains on the scalar loop while the 16-way L2
/// probe and longer chains vectorize. The explicit `*_with` entry points bypass the crossover —
/// the equivalence suite uses them to pin both tiers bit-identical at
/// every length, so the cutover is a pure performance choice.
pub const SIMD_CROSSOVER_LANES: usize = 16;

macro_rules! dispatch {
    ($t:expr, $f:ident ( $($arg:expr),* )) => {{
        match $t {
            #[cfg(target_arch = "x86_64")]
            // semloc-lint: allow(unsafe-audit): callers pass tier() or a tier checked by `supported`, so AVX2 was detected before this path is taken
            Tier::Avx2 => unsafe { avx2::$f($($arg),*) },
            _ => scalar::$f($($arg),*),
        }
    }};
}

/// Index of the first way with `valid[i] && tags[i] == needle`.
/// `tags` and `valid` must have equal lengths.
#[inline]
pub fn find_valid_tag(tags: &[u64], valid: &[bool], needle: u64) -> Option<usize> {
    assert_eq!(tags.len(), valid.len(), "tag/valid arrays must pair up");
    if tags.len() < SIMD_CROSSOVER_LANES {
        return scalar::find_valid_tag(tags, valid, needle);
    }
    dispatch!(tier(), find_valid_tag(tags, valid, needle))
}

/// [`find_valid_tag`] at an explicit tier.
///
/// # Panics
///
/// When this host cannot run `t`.
#[inline]
pub fn find_valid_tag_with(t: Tier, tags: &[u64], valid: &[bool], needle: u64) -> Option<usize> {
    assert!(supported(t), "tier {} is not supported here", t.name());
    assert_eq!(tags.len(), valid.len(), "tag/valid arrays must pair up");
    dispatch!(t, find_valid_tag(tags, valid, needle))
}

/// First `i` in `1..deltas.len()-1` with `deltas[i] == d1 &&
/// deltas[i+1] == d2` — the GHB delta-correlation scan (its search starts
/// at 1 because index 0 is the pair being correlated).
#[inline]
pub fn find_pair_i64(deltas: &[i64], d1: i64, d2: i64) -> Option<usize> {
    if deltas.len() < SIMD_CROSSOVER_LANES {
        return scalar::find_pair_i64(deltas, d1, d2);
    }
    dispatch!(tier(), find_pair_i64(deltas, d1, d2))
}

/// [`find_pair_i64`] at an explicit tier.
///
/// # Panics
///
/// When this host cannot run `t`.
#[inline]
pub fn find_pair_i64_with(t: Tier, deltas: &[i64], d1: i64, d2: i64) -> Option<usize> {
    assert!(supported(t), "tier {} is not supported here", t.name());
    dispatch!(t, find_pair_i64(deltas, d1, d2))
}

/// Every tier this host can run, scalar first (test helper: equivalence
/// suites iterate it).
pub fn available_tiers() -> Vec<Tier> {
    [Tier::Scalar, Tier::Avx2]
        .into_iter()
        .filter(|&t| supported(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        assert!(supported(Tier::Scalar));
        assert!(available_tiers().contains(&Tier::Scalar));
    }

    #[test]
    fn tier_is_stable_across_calls() {
        assert_eq!(tier(), tier());
        assert!(supported(tier()), "resolved tier must be executable");
    }

    #[test]
    fn tier_knob_accepts_the_documented_values() {
        for best in [Tier::Scalar, Tier::Avx2] {
            for auto in [None, Some(""), Some("auto")] {
                assert_eq!(tier_from(auto, best), Ok(best));
            }
            assert_eq!(tier_from(Some("scalar"), best), Ok(Tier::Scalar));
        }
        assert_eq!(tier_from(Some("avx2"), Tier::Avx2), Ok(Tier::Avx2));
    }

    #[test]
    fn tier_knob_fails_loudly() {
        // A tier the host cannot run, a retired tier, and typos all fail
        // the same way: variable, value, accepted values, host's best tier.
        let cases = [
            ("avx2", Tier::Scalar),
            ("sse2", Tier::Avx2),
            ("avx512", Tier::Avx2),
            ("AVX2", Tier::Avx2),
            ("neon", Tier::Scalar),
            (" auto", Tier::Avx2),
        ];
        for (bad, best) in cases {
            let err = tier_from(Some(bad), best).expect_err(bad);
            for want in [
                format!("SEMLOC_ACCEL={bad:?}"),
                "scalar|avx2|auto".into(),
                format!("best tier {}", best.name()),
            ] {
                assert!(err.contains(&want), "{err:?} lacks {want:?}");
            }
        }
    }

    #[test]
    fn dispatched_forms_match_scalar_on_a_smoke_input() {
        let tags: Vec<u64> = (0..20).map(|i| i % 5).collect();
        let valid: Vec<bool> = (0..20).map(|i| i != 3).collect();
        assert_eq!(find_valid_tag(&tags, &valid, 3), Some(8));
        let deltas: Vec<i64> = (0..20).map(|i| i % 4).collect();
        assert_eq!(find_pair_i64(&deltas, 0, 1), Some(4));
    }
}
