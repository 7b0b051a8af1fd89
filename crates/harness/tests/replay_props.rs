//! Property tests for the zero-decode block replay path.
//!
//! The decoded-lane cache must be a *pure* performance optimization: for
//! random kernels, prefetchers and budgets — emphatically including
//! budgets that stop in the middle of a 256-instruction block — a store
//! with decoding enabled and a store forced onto the streaming varint
//! path must produce bit-identical statistics. Alongside, the capture
//! prefix property ([`CapturedTrace::covers`]) and the chunked lane
//! decoder's independence from chunk geometry are pinned over random
//! kernel captures (random instruction mixes are covered in the trace
//! crate's `lane_decode_props`), because all three are what the golden-digest test's stability
//! under `SEMLOC_DECODE_CACHE_MB` / thread-count changes rests on.

use proptest::prelude::*;

use semloc_harness::{run_kernel_with_store, PrefetcherKind, SimConfig, TraceStore};
use semloc_trace::{DecodedTrace, LaneChunk, BLOCK_LEN};
use semloc_workloads::{all_kernels, capture_kernel};

proptest! {
    /// Decoded block replay and streaming decode are bit-identical for any
    /// (kernel, prefetcher, budget) cell, and the decoded store performs at
    /// most one decode for it (the decode-once property).
    #[test]
    fn decoded_replay_matches_streaming(
        kidx in 0usize..64,
        pf_pick in 0usize..4,
        blocks in 0u64..24,
        offset in 1u64..=256,
    ) {
        let kernels = all_kernels();
        let kernel = kernels[kidx % kernels.len()].as_ref();
        // offset=256 lands exactly on a block boundary; everything else
        // stops the run mid-block.
        let budget = blocks * BLOCK_LEN as u64 + offset;
        let pf = match pf_pick {
            0 => PrefetcherKind::Stride,
            1 => PrefetcherKind::GhbGdc,
            2 => PrefetcherKind::NextLine,
            _ => PrefetcherKind::context(),
        };
        let cfg = SimConfig::default().with_budget(budget);
        let decoded = TraceStore::new();
        let streaming = TraceStore::new().with_decode_budget_mb(0);
        let a = run_kernel_with_store(&decoded, kernel, &pf, &cfg);
        let b = run_kernel_with_store(&streaming, kernel, &pf, &cfg);
        prop_assert_eq!(
            a.stats_digest(), b.stats_digest(),
            "decoded vs streaming replay diverged: {} / {:?} @ {budget}",
            kernel.name(), pf
        );
        let s = decoded.decode_stats();
        prop_assert!(
            s.misses <= 1,
            "{} decoded {} times for one cell", kernel.name(), s.misses
        );
        prop_assert_eq!(
            streaming.decode_stats(),
            Default::default(),
            "a zero-budget store must never touch the decode cache"
        );
    }

    /// A capture taken at budget `b1` covers every smaller non-zero budget
    /// (the prefix property the whole store design rests on), and a
    /// claimed cover really holds enough instructions to serve it.
    #[test]
    fn capture_covers_is_the_prefix_property(
        kidx in 0usize..64,
        b1 in 1u64..4_000,
        b2 in 1u64..4_000,
    ) {
        let kernels = all_kernels();
        let kernel = kernels[kidx % kernels.len()].as_ref();
        let t = capture_kernel(kernel, b1);
        if b2 <= b1 {
            prop_assert!(
                t.covers(b2),
                "{}: capture at {b1} must cover {b2}", kernel.name()
            );
        }
        if t.covers(b2) && !t.complete {
            prop_assert!(
                t.buf.len() as u64 >= b2,
                "{}: claimed cover of {b2} with only {} instructions",
                kernel.name(), t.buf.len()
            );
        }
    }

    /// Lane decode is bit-identical to the streaming varint decode
    /// regardless of chunk geometry: the serial decode and a chunked decode
    /// (block-aligned chunks filled in reverse order) match every streamed
    /// [`Instr`], and the op lane is the buffer's op column, for random
    /// kernels, budgets and chunk sizes.
    #[test]
    fn chunked_decode_matches_streaming_for_any_geometry(
        kidx in 0usize..64,
        budget in 1u64..5_000,
        chunk_blocks in 1usize..9,
    ) {
        let kernels = all_kernels();
        let kernel = kernels[kidx % kernels.len()].as_ref();
        let t = capture_kernel(kernel, budget);
        let chunk = chunk_blocks * BLOCK_LEN;
        let serial = DecodedTrace::decode(&t.buf);
        let chunked = DecodedTrace::decode_chunked(&t.buf, chunk, |chunks| {
            chunks.into_iter().rev().map(LaneChunk::fill).collect()
        });
        for d in [&serial, &chunked] {
            prop_assert_eq!(d.len(), t.buf.len());
            prop_assert_eq!(d.block(0, d.len()).ops, t.buf.op_bytes());
            for (i, streamed) in t.buf.iter().enumerate() {
                prop_assert_eq!(
                    d.instr(i), streamed,
                    "{}: lane mismatch at instruction {i} (chunk={chunk})",
                    kernel.name()
                );
            }
        }
    }
}
