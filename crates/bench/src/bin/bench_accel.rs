//! Before/after measurement of the acceleration layer (written to
//! `BENCH_accel.json`): scalar-vs-SIMD rows for both `semloc_accel`
//! kernels, component rows against the pre-acceleration replicas in
//! [`semloc_bench::legacy`], and the end-to-end 16-kernel × 6-prefetcher ×
//! sweep grid under the old fixed-count work queue vs the work-stealing
//! shard pool.
//!
//! "Before" numbers are live code: the portable scalar kernels (the exact
//! loops the AVX2 tier replaces), the legacy replicas, and
//! [`legacy_parallel_map`] (the original atomic-counter queue). Every
//! before/after pair is digest-asserted bit-identical before timing.
//! Run with `cargo run --release -p semloc-bench --bin bench_accel
//! [accel.json]`; `SEMLOC_BUDGET` overrides the grid's 1M-instruction
//! per-cell budget.

// Wall-clock timing is this binary's purpose (semloc-lint rule D2 exempts the bench crate).
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use semloc_accel::{best_supported, Tier};
use semloc_bandit::{BellReward, RewardFunction, RewardLut, ScoredSet};
use semloc_bench::legacy::{
    legacy_ghb_correlate, legacy_parallel_map, sharded_ghb_correlate, LegacyScoredSet,
};
use semloc_harness::{
    run_kernel_with_store, run_sharded, storage_sweep_parallel_with_store,
    storage_sweep_with_store, PrefetcherKind, SimConfig, TraceStore,
};
use semloc_workloads::all_kernels;

/// xorshift64 — deterministic input streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Best-of-`reps` ns/element for `f` (each run processing `elems`
/// elements); minimum over repetitions, as in `bench_compare`.
fn time_per(reps: usize, elems: u64, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f()); // warm-up
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64 / elems as f64
        })
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// Per-kernel scalar vs SIMD rows
// ---------------------------------------------------------------------------

/// Lane counts at and above the production shapes: GHB chains run up to
/// 64 deltas, and 64 ways is the sweep-widened cache stripe (the
/// paper-default 8-way L1 probe stays on the scalar side of the
/// crossover). Needles are absent (full-scan worst case) so both sides do
/// identical work.
fn bench_simd_rows(row: &mut impl FnMut(&str, &str, f64, f64) -> f64) -> Vec<(String, f64)> {
    const ITERS: usize = 40_000;
    /// ns/lane of `call` at the scalar tier and at `best`.
    fn scalar_vs(best: Tier, lanes: usize, call: impl Fn(Tier) -> u64) -> (f64, f64) {
        let time = |t: Tier| {
            time_per(9, (lanes * ITERS) as u64, || {
                (0..ITERS).fold(0u64, |acc, _| acc.wrapping_add(call(t)))
            })
        };
        (time(Tier::Scalar), time(best))
    }
    let best = best_supported();
    let bn = best.name();
    let mut rng = Rng(0x5eed_0acc);

    let deltas: Vec<i64> = (0..48).map(|_| (rng.next() % 13) as i64).collect();
    let (before, after) = scalar_vs(best, deltas.len(), |t| {
        semloc_accel::find_pair_i64_with(t, black_box(&deltas), 14, 14).map_or(0, |i| i as u64)
    });
    let pair = row(
        "find_pair_i64 (48 lanes)",
        &format!("simd/find_pair_i64_48/scalar_vs_{bn}"),
        before,
        after,
    );

    let tags: Vec<u64> = (0..64).map(|_| rng.next() | 1).collect();
    let valid: Vec<bool> = (0..64).map(|i| i % 7 != 0).collect();
    let (before, after) = scalar_vs(best, tags.len(), |t| {
        semloc_accel::find_valid_tag_with(t, black_box(&tags), &valid, 2).map_or(0, |i| i as u64)
    });
    let tag = row(
        "find_valid_tag (64 ways)",
        &format!("simd/find_valid_tag_64/scalar_vs_{bn}"),
        before,
        after,
    );

    vec![
        ("find_pair_i64".into(), pair),
        ("find_valid_tag".into(), tag),
    ]
}

// ---------------------------------------------------------------------------
// Component rows (legacy replicas vs shipped implementations)
// ---------------------------------------------------------------------------

/// Bell-window reward evaluation: two `exp()` calls per hit vs one clamped
/// load from the exact [`RewardLut`] tabulation.
fn bench_bell_reward() -> (f64, f64) {
    let bell = BellReward::paper_default();
    let lut = RewardLut::new(&bell);
    let mut rng = Rng(0xbe11);
    let depths: Vec<u32> = (0..4096).map(|_| (rng.next() % 160) as u32).collect();

    // Equality first (untimed).
    for &d in &depths {
        assert_eq!(
            lut.reward(d),
            bell.reward(d),
            "LUT must be exact at depth {d}"
        );
    }

    let before = time_per(15, depths.len() as u64, || {
        depths.iter().map(|&d| bell.reward(d) as i64).sum::<i64>() as u64
    });
    let after = time_per(15, depths.len() as u64, || {
        depths.iter().map(|&d| lut.reward(d) as i64).sum::<i64>() as u64
    });
    (before, after)
}

/// CST link maintenance: interleaved `Vec<Slot>` vs split-lane SoA, at the
/// paper's 4-links-per-entry shape, over a mixed insert/reward/best stream.
fn bench_scored_set(ops: usize) -> (f64, f64) {
    fn drive<F: FnMut(u64, i16, i32) -> u64>(ops: usize, mut f: F) -> u64 {
        let mut rng = Rng(0x5c0);
        let mut acc = 0u64;
        for _ in 0..ops {
            let r = rng.next();
            let action = (r % 23) as i16 - 11;
            let delta = ((r >> 8) % 33) as i32 - 16;
            acc = acc.wrapping_add(f(r, action, delta));
        }
        acc
    }
    let before = time_per(9, ops as u64, || {
        let mut set = LegacyScoredSet::<i16, 4>::default();
        drive(ops, |r, action, delta| match r % 3 {
            0 => set
                .insert(action)
                .map_or(0, |(a, s)| (a as i64 + s as i64) as u64),
            1 => set.reward_capped(action, delta, 32) as u64,
            _ => set.best().map_or(0, |(a, s)| (a as i64 + s as i64) as u64),
        })
    });
    let after = time_per(9, ops as u64, || {
        let mut set = ScoredSet::<i16, 4>::default();
        drive(ops, |r, action, delta| match r % 3 {
            0 => set
                .insert(action)
                .map_or(0, |(a, s)| (a as i64 + s as i64) as u64),
            1 => set.reward_capped(action, delta, 32) as u64,
            _ => set.best().map_or(0, |(a, s)| (a as i64 + s as i64) as u64),
        })
    });
    (before, after)
}

/// GHB delta correlation: fresh chain/delta `Vec`s + scalar pair scan per
/// trigger vs reusable scratch + the accelerated pair scan.
fn bench_ghb_correlate(iters: usize) -> (f64, f64) {
    let mut rng = Rng(0x6bb);
    let chains: Vec<Vec<u64>> = (0..64)
        .map(|_| {
            let len = 8 + (rng.next() % 57) as usize; // 8..=64, GHB chain scale
            (0..len).map(|_| 0x4_0000 + rng.next() % 11).collect()
        })
        .collect();
    let total: u64 = (iters * chains.len()) as u64;
    let before = time_per(9, total, || {
        let mut acc = 0u64;
        for _ in 0..iters {
            for c in &chains {
                acc = acc.wrapping_add(legacy_ghb_correlate(c, 4));
            }
        }
        acc
    });
    let mut scratch = Vec::new();
    let after = time_per(9, total, || {
        let mut acc = 0u64;
        for _ in 0..iters {
            for c in &chains {
                acc = acc.wrapping_add(sharded_ghb_correlate(c, 4, &mut scratch));
            }
        }
        acc
    });
    (before, after)
}

// ---------------------------------------------------------------------------
// End-to-end: the 16-kernel × 6-prefetcher × sweep grid
// ---------------------------------------------------------------------------

fn grid_lineup() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::context(),
    ]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_accel.json".into());
    let budget: u64 = std::env::var("SEMLOC_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);

    println!("component                       before (ns)   after (ns)   speedup");
    println!("-----------------------------------------------------------------");
    let mut json = String::from("{\n");
    let mut row = |name: &str, bench: &str, before: f64, after: f64| {
        let speedup = before / after;
        println!("{name:<30} {before:>12.2} {after:>12.2} {speedup:>8.2}x");
        let _ = writeln!(
            json,
            "  \"{bench}\": {{\"before_ns\": {before:.2}, \"after_ns\": {after:.2}, \"speedup\": {speedup:.3}}},"
        );
        speedup
    };

    // ---- per-kernel SIMD rows -----------------------------------------
    let simd = bench_simd_rows(&mut row);

    // ---- component rows ------------------------------------------------
    let (bell_before, bell_after) = bench_bell_reward();
    let bell_speedup = row(
        "bell reward (per hit)",
        "component/bell_reward/exp_vs_lut",
        bell_before,
        bell_after,
    );
    let (ss_before, ss_after) = bench_scored_set(200_000);
    let ss_speedup = row(
        "scored set 4-link (per op)",
        "component/scored_set/interleaved_vs_soa",
        ss_before,
        ss_after,
    );
    let (ghb_before, ghb_after) = bench_ghb_correlate(400);
    let ghb_speedup = row(
        "ghb delta correlate (per blk)",
        "component/ghb_dc/alloc_vs_scratch_simd",
        ghb_before,
        ghb_after,
    );

    // ---- end-to-end grid: old queue vs shard pool ----------------------
    let kernels: Vec<_> = all_kernels().into_iter().take(16).collect();
    let lineup = grid_lineup();
    let cfg = SimConfig::default().with_budget(budget);
    let threads = semloc_harness::pool_threads();
    // Streams are shared and warm; the per-run result memo is disabled so
    // repeated grid passes actually simulate.
    let store = TraceStore::without_result_memo();

    let cells: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|ki| (0..lineup.len()).map(move |pi| (ki, pi)))
        .collect();
    let run_cell = |&(ki, pi): &(usize, usize)| {
        run_kernel_with_store(&store, kernels[ki].as_ref(), &lineup[pi], &cfg)
    };

    // Correctness first (also warms the stream cache): both runners must
    // produce bit-identical per-cell statistics, in job order.
    eprintln!(
        "[grid] digest check + stream warm-up ({} cells)...",
        cells.len()
    );
    let old: Vec<_> = legacy_parallel_map(threads, &cells, run_cell);
    let new: Vec<_> = run_sharded(threads, cells.clone(), |c| run_cell(&c));
    assert_eq!(old.len(), new.len());
    for (o, n) in old.iter().zip(&new) {
        assert_eq!(
            o.stats_digest(),
            n.stats_digest(),
            "shard pool diverged on {}/{}",
            o.kernel,
            o.prefetcher
        );
    }
    let grid_digest = new
        .iter()
        .fold(0u64, |acc, r| acc ^ r.stats_digest().rotate_left(9));

    let sweep_sizes = [512usize, 2048];
    let sweep_seq = storage_sweep_with_store(&store, &kernels, &sweep_sizes, &cfg, |_| {});
    let sweep_par =
        storage_sweep_parallel_with_store(&store, &kernels, &sweep_sizes, &cfg, threads, |_| {});
    assert_eq!(sweep_seq.len(), sweep_par.len());
    for (s, p) in sweep_seq.iter().zip(&sweep_par) {
        assert_eq!(s.all.to_bits(), p.all.to_bits(), "sweep geomean diverged");
        assert_eq!(s.top10.to_bits(), p.top10.to_bits(), "sweep top10 diverged");
    }

    eprintln!("[grid] timing old queue vs shard pool (budget {budget})...");
    let grid_elems = (cells.len() as u64) * budget;
    let grid_before = time_per(2, grid_elems, || {
        let rs = legacy_parallel_map(threads, &cells, run_cell);
        let _ = storage_sweep_with_store(&store, &kernels, &sweep_sizes, &cfg, |_| {});
        rs.iter()
            .fold(0u64, |acc, r| acc ^ r.stats_digest().rotate_left(9))
    });
    let grid_after = time_per(2, grid_elems, || {
        let rs = run_sharded(threads, cells.clone(), |c| run_cell(&c));
        let _ = storage_sweep_parallel_with_store(
            &store,
            &kernels,
            &sweep_sizes,
            &cfg,
            threads,
            |_| {},
        );
        rs.iter()
            .fold(0u64, |acc, r| acc ^ r.stats_digest().rotate_left(9))
    });
    let grid_speedup = row(
        "grid 16k x 6pf + sweep (ns/instr)",
        "grid/old_queue_vs_shard_pool",
        grid_before,
        grid_after,
    );

    let simd_list = simd
        .iter()
        .map(|(n, s)| format!("\"{n}\": {s:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(
        json,
        "  \"meta\": {{\"instr_budget\": {budget}, \"threads\": {threads}, \"best_tier\": \"{}\", \
         \"grid\": \"16 kernels x [none, stride, ghb-g/dc, ghb-pc/dc, sms, context] + storage sweep {:?}\", \
         \"grid_digest\": \"{grid_digest:#018x}\", \
         \"note\": \"before = live legacy code (scalar kernels, interleaved replicas, atomic-counter queue); every pair digest-asserted bit-identical before timing; pool speedup scales with available cores ({} here)\"}}\n}}\n",
        best_supported().name(),
        sweep_sizes,
        threads,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_accel.json");
    println!("\nwrote {out_path}");
    println!("simd rows: {simd_list}");

    // ---- floors --------------------------------------------------------
    // Floors sit at roughly half the steady-state measurements so CI
    // noise cannot flake them; the grid floor is a no-regression guard
    // (the pool's win is parallelism, and CI boxes may expose one core).
    let geo = (simd.iter().map(|(_, s)| s.ln()).sum::<f64>() / simd.len() as f64).exp();
    assert!(
        geo >= 1.5,
        "SIMD rows must average >= 1.5x over scalar (got {geo:.2}x)"
    );
    for (name, s) in &simd {
        assert!(*s >= 0.8, "SIMD row {name} regressed vs scalar ({s:.2}x)");
    }
    assert!(
        bell_speedup >= 3.0,
        "bell reward LUT must deliver >= 3x over exp() evaluation (got {bell_speedup:.2}x)"
    );
    assert!(
        ghb_speedup >= 1.2,
        "GHB scratch + pair scan must deliver >= 1.2x (got {ghb_speedup:.2}x)"
    );
    assert!(
        ss_speedup >= 0.8,
        "SoA scored set must not regress (got {ss_speedup:.2}x)"
    );
    assert!(
        grid_speedup >= 0.85,
        "shard-pool grid must not regress vs the old queue (got {grid_speedup:.2}x)"
    );
}
