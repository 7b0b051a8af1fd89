//! Scalar→SIMD crossover calibration (written to `BENCH_crossover.json`).
//!
//! The auto-dispatched wrappers in `semloc_accel` route short inputs to the
//! inlinable scalar kernels because an outlined `#[target_feature]` call
//! plus vector setup costs more than a branchy loop over a handful of
//! elements. The dispatch cut is [`semloc_accel::SIMD_CROSSOVER_LANES`],
//! and this binary is the instrument that checks it: for both kernels it
//! sweeps input lengths, times the scalar loop against the best supported
//! tier at each length, and reports the smallest length from which the
//! SIMD tier never loses again (the *stable* crossover, not the first
//! lucky win).
//!
//! Inputs are needle-absent full scans — the shape the wrapper is tuned
//! for, matching `bench_accel`'s rows. Run with
//! `cargo run --release -p semloc-bench --bin calibrate_crossover
//! [crossover.json]` and compare the printed table against the committed
//! constant when bringing up a new host class.

// Wall-clock timing is this binary's purpose (semloc-lint rule D2 exempts the bench crate).
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use semloc_accel::{best_supported, scalar, Tier, SIMD_CROSSOVER_LANES};

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

/// Best-of-`reps` ns per call over `iters` calls.
fn time_call(reps: usize, iters: usize, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f()); // warm-up
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..iters {
                acc = acc.wrapping_add(f());
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The lane counts swept: production shapes (8- and 16-way probes, GHB
/// chains of 8–64 deltas) plus the sweep-widened tail.
const LENGTHS: &[usize] = &[4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128];

/// One kernel's sweep: `(length, scalar_ns, simd_ns)` rows plus the stable
/// crossover — the smallest swept length from which SIMD never loses.
struct Sweep {
    name: &'static str,
    rows: Vec<(usize, f64, f64)>,
}

impl Sweep {
    fn stable_crossover(&self) -> Option<usize> {
        // Walk from the largest length down; the crossover is the smallest
        // length where this and every longer measurement favors SIMD.
        let mut cross = None;
        for &(n, scalar_ns, simd_ns) in self.rows.iter().rev() {
            if simd_ns <= scalar_ns {
                cross = Some(n);
            } else {
                break;
            }
        }
        cross
    }
}

/// Calls per timed repetition, and repetitions per (kernel, length, side).
const ITERS: usize = 30_000;
const REPS: usize = 9;

fn sweep(name: &'static str, mut run: impl FnMut(Option<Tier>, usize) -> u64) -> Sweep {
    let best = best_supported();
    let rows = LENGTHS
        .iter()
        .map(|&n| {
            let scalar_ns = time_call(REPS, ITERS, || run(None, n));
            let simd_ns = time_call(REPS, ITERS, || run(Some(best), n));
            (n, scalar_ns, simd_ns)
        })
        .collect();
    Sweep { name, rows }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_crossover.json".into());
    let best = best_supported();
    let mut rng = Rng(0xc0_55_0e_12);

    let max_n = *LENGTHS.last().expect("length table is non-empty");
    let tags: Vec<u64> = (0..max_n).map(|_| rng.next() | 1).collect();
    let valid: Vec<bool> = (0..max_n).map(|i| i % 7 != 0).collect();
    let i64s: Vec<i64> = (0..max_n).map(|_| (rng.next() % 13) as i64).collect();

    // Each closure runs the *scalar module* directly for `None` (the code
    // the wrapper inlines below the crossover) and the dispatched tier for
    // `Some(best)` — exactly the two sides the constant arbitrates.
    let sweeps = [
        sweep("find_valid_tag", |t, n| {
            let (tg, vl) = (black_box(&tags[..n]), black_box(&valid[..n]));
            match t {
                None => scalar::find_valid_tag(tg, vl, 2),
                Some(t) => semloc_accel::find_valid_tag_with(t, tg, vl, 2),
            }
            .map_or(0, |i| i as u64)
        }),
        sweep("find_pair_i64", |t, n| {
            let d = black_box(&i64s[..n]);
            match t {
                None => scalar::find_pair_i64(d, 14, 14),
                Some(t) => semloc_accel::find_pair_i64_with(t, d, 14, 14),
            }
            .map_or(0, |i| i as u64)
        }),
    ];

    println!(
        "kernel              committed   measured   (lengths where SIMD wins, best tier: {})",
        best.name()
    );
    println!("--------------------------------------------------------------------------------");
    let mut json = String::from("{\n");
    for s in &sweeps {
        let measured = s.stable_crossover();
        println!(
            "{:<19} {SIMD_CROSSOVER_LANES:>9} {:>10}",
            s.name,
            measured.map_or("never".into(), |n| n.to_string())
        );
        let rows = s
            .rows
            .iter()
            .map(|(n, sc, si)| {
                format!("{{\"lanes\": {n}, \"scalar_ns\": {sc:.2}, \"simd_ns\": {si:.2}}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "  \"{}\": {{\"committed\": {SIMD_CROSSOVER_LANES}, \"measured\": {}, \"rows\": [{rows}]}},",
            s.name,
            measured.map_or("null".into(), |n| n.to_string()),
        );
    }
    let _ = writeln!(
        json,
        "  \"meta\": {{\"best_tier\": \"{}\", \"lengths\": {LENGTHS:?}, \"iters\": {ITERS}, \"reps\": {REPS}, \
         \"note\": \"committed = semloc_accel::SIMD_CROSSOVER_LANES; measured = smallest swept length from which the best tier never loses to scalar on this host (needle-absent full scans); each cell is the best of reps runs of iters calls\"}}\n}}",
        best.name()
    );
    std::fs::write(&out_path, &json).expect("write BENCH_crossover.json");
    println!("\nwrote {out_path}");
}
