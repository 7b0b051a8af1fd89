//! Property tests pinning lane decode to the streaming decoder.
//!
//! [`DecodedTrace`] fills its lanes straight from the varint columns of a
//! [`TraceBuffer`]. Over random instruction mixes that reach every branch
//! of the encoding (every kind, hinted and plain loads, taken and
//! not-taken branches, zero and non-zero results, all eight
//! register-presence combinations, multi-byte and negative deltas in every
//! column), the serial decode, a chunked decode at 1–8 blocks per chunk
//! and [`TraceBuffer::iter`] must agree instruction for instruction, and
//! the op lane must be the buffer's op column byte for byte. Lengths sit
//! on and around the block boundaries the chunk seeks use.

use proptest::prelude::*;

use semloc_trace::{
    DecodedTrace, Instr, InstrKind, LaneChunk, Reg, SemanticHints, TraceBuffer, BLOCK_LEN,
};

/// Trace lengths around the block boundaries: empty, one instruction, one
/// block either side of full, and a multi-block trace with a partial tail.
const LENGTHS: [usize; 6] = [
    0,
    1,
    BLOCK_LEN - 1,
    BLOCK_LEN,
    BLOCK_LEN + 1,
    3 * BLOCK_LEN + 5,
];

/// SplitMix64 stream: the mixes are a pure function of their seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A signed step that is small forward, small backward, or far enough
    /// to need a multi-byte varint in either direction.
    fn step(&mut self) -> u64 {
        let r = self.next();
        match r % 4 {
            0 => r >> 60,                  // 0..16 forward
            1 => (r >> 60).wrapping_neg(), // 0..16 backward
            2 => r >> 20,                  // far forward (44 bits)
            _ => (r >> 20).wrapping_neg(), // far backward
        }
    }

    fn reg(&mut self, present: bool) -> Option<Reg> {
        let r = (self.next() % 32) as u8;
        present.then_some(Reg(r))
    }
}

/// `n` instructions from `seed`, mixing every kind with random operand
/// presence, results, hints, latencies and PC/address/target motion.
fn mix(seed: u64, n: usize) -> Vec<Instr> {
    let mut m = Mix(seed);
    let mut pc = m.next();
    let mut addr = m.next();
    (0..n)
        .map(|_| {
            let sel = m.next();
            pc = pc.wrapping_add(m.step());
            let kind = match sel % 5 {
                0 => InstrKind::Alu {
                    latency: match sel >> 8 & 3 {
                        0 => 1,
                        1 => (m.next() % 64) as u32 + 1,
                        _ => m.next() as u32, // usually multi-byte
                    },
                },
                1 | 2 => {
                    addr = addr.wrapping_add(m.step());
                    let size = 1u8 << (sel >> 8 & 3);
                    if sel % 5 == 1 {
                        let hints =
                            (sel >> 10 & 1 == 1).then(|| SemanticHints::unpack(m.next() as u32));
                        InstrKind::Load { addr, size, hints }
                    } else {
                        InstrKind::Store { addr, size }
                    }
                }
                3 => InstrKind::Branch {
                    taken: sel >> 8 & 1 == 1,
                    target: pc.wrapping_add(m.step()),
                },
                _ => InstrKind::Nop,
            };
            let regs = sel >> 12;
            Instr {
                pc,
                kind,
                src1: m.reg(regs & 1 != 0),
                src2: m.reg(regs & 2 != 0),
                dst: m.reg(regs & 4 != 0),
                result: match sel >> 16 & 3 {
                    0 | 1 => 0,
                    2 => m.next() >> 57, // one byte
                    _ => m.next(),
                },
            }
        })
        .collect()
}

fn buffer_of(instrs: &[Instr]) -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    for i in instrs {
        buf.push(i);
    }
    buf
}

/// Assert every lane of `d` agrees with the streaming decode of `buf`.
fn assert_lanes_match(d: &DecodedTrace, buf: &TraceBuffer, what: &str) {
    assert_eq!(d.len(), buf.len(), "{what}: length");
    let all = d.block(0, d.len());
    assert_eq!(all.ops, buf.op_bytes(), "{what}: op lane vs op column");
    for (i, streamed) in buf.iter().enumerate() {
        assert_eq!(d.instr(i), streamed, "{what}: instr {i}");
    }
}

proptest! {
    /// Serial decode, chunked decode at every chunk size of 1–8 blocks and
    /// the streaming iterator agree on random mixes of every length in
    /// [`LENGTHS`], and both decodes reproduce the pushed stream.
    #[test]
    fn lane_decode_matches_streaming(seed in any::<u64>()) {
        for n in LENGTHS {
            let instrs = mix(seed, n);
            let buf = buffer_of(&instrs);
            prop_assert_eq!(buf.iter().collect::<Vec<_>>(), instrs.clone());
            let serial = DecodedTrace::decode(&buf);
            assert_lanes_match(&serial, &buf, &format!("serial, len {n}"));
            for blocks in 1..=8 {
                let chunked = DecodedTrace::decode_chunked(&buf, blocks * BLOCK_LEN, |chunks| {
                    chunks.into_iter().map(LaneChunk::fill).collect()
                });
                assert_lanes_match(&chunked, &buf, &format!("{blocks} blocks, len {n}"));
            }
        }
    }
}

/// The mixes reach every case the varint encoding distinguishes, so the
/// property above exercises each decode branch rather than a few common
/// ones.
#[test]
fn mixes_cover_every_encoding_case() {
    let instrs = mix(1, 3 * BLOCK_LEN + 5);
    let far = |d: u64| d.min(d.wrapping_neg()) >= 1 << 14; // ≥ 3 varint bytes zigzagged
    let neg = |d: u64| (d as i64) < 0;
    let mut seen = std::collections::BTreeSet::new();
    let mut prev_pc = None::<u64>;
    let mut prev_addr = None::<u64>;
    for i in &instrs {
        let regs =
            i.src1.is_some() as u8 | (i.src2.is_some() as u8) << 1 | (i.dst.is_some() as u8) << 2;
        seen.insert(format!("regs {regs}"));
        seen.insert(format!("result zero {}", i.result == 0));
        seen.insert(format!("result multi-byte {}", i.result >= 1 << 7));
        if let Some(p) = prev_pc {
            let d = i.pc.wrapping_sub(p);
            seen.insert(format!("pc far {} neg {}", far(d), neg(d)));
        }
        prev_pc = Some(i.pc);
        if let Some(addr) = i.mem_addr() {
            if let Some(p) = prev_addr {
                let d = addr.wrapping_sub(p);
                seen.insert(format!("addr far {} neg {}", far(d), neg(d)));
            }
            prev_addr = Some(addr);
        }
        match i.kind {
            InstrKind::Alu { latency } => {
                seen.insert(format!("alu multi-byte {}", latency >= 1 << 7));
            }
            InstrKind::Load { hints, .. } => {
                seen.insert(format!("load hinted {}", hints.is_some()));
            }
            InstrKind::Store { .. } => {
                seen.insert("store".into());
            }
            InstrKind::Branch { taken, target } => {
                let d = target.wrapping_sub(i.pc);
                seen.insert(format!("branch taken {taken}"));
                seen.insert(format!("target far {} neg {}", far(d), neg(d)));
            }
            InstrKind::Nop => {
                seen.insert("nop".into());
            }
        }
    }
    let mut want: Vec<String> = (0..8).map(|r| format!("regs {r}")).collect();
    for b in [false, true] {
        want.push(format!("result zero {b}"));
        want.push(format!("result multi-byte {b}"));
        want.push(format!("alu multi-byte {b}"));
        want.push(format!("load hinted {b}"));
        want.push(format!("branch taken {b}"));
        for n in [false, true] {
            for col in ["pc", "addr", "target"] {
                want.push(format!("{col} far {b} neg {n}"));
            }
        }
    }
    want.push("store".into());
    want.push("nop".into());
    for w in &want {
        assert!(seen.contains(w), "mix never produced: {w}");
    }
}
