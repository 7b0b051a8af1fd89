//! `semloc-perf`: one end-to-end and per-layer host-cost ledger for the
//! semloc simulator.
//!
//! The benchmark runs one named workload per invocation (`matrix`,
//! `mc-shared` or `arena`, see [`workload`]), checks every simulated
//! result against reference digests, and reports host time per simulated
//! instruction. A traced invocation adds the per-layer view: each cell is
//! re-run through recording wrappers placed at the simulator's public
//! seams ([`record`]), and the recorded calls are replayed through fresh
//! instances in one timed loop per layer, so no clock sits inside a
//! simulated access.
//!
//! Only public functions of the simulator crates are called; nothing here
//! changes what they compute.

pub mod names;
pub mod probe;
pub mod record;
pub mod spans;
pub mod stats;
pub mod workload;

/// Monotonic host time in nanoseconds since the first call. The only
/// wall-clock read of the benchmark: every timing goes through it.
#[allow(clippy::disallowed_methods)] // host time is what the benchmark measures; it never feeds a simulated result
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    // semloc-lint: allow(no-wall-clock): the benchmark measures host time; nothing it reads feeds a simulated result
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    // semloc-lint: allow(no-wall-clock): see above
    let start = START.get_or_init(std::time::Instant::now);
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a fold of one word, the accumulator the replay checks use to
/// compare recorded and replayed outputs.
#[inline]
pub fn fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis: the starting value of every [`fold`] chain.
pub const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;
