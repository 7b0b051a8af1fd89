//! Fully-decoded trace lanes for zero-decode block replay.
//!
//! [`DecodedTrace`] is the flat struct-of-arrays twin of [`TraceBuffer`]:
//! every varint is expanded once into fixed-width parallel lanes (op byte,
//! absolute PC, a kind-dependent 64-bit auxiliary word, access size,
//! packed hints, the three register operands, and the architectural
//! result), so replay becomes pure sequential lane reads with no
//! per-instruction decode work. The layout costs ~33 B/instr — a
//! deliberate space-for-time trade against the ~6-10 B/instr varint
//! encoding — which is why callers cache these behind a byte-budgeted LRU
//! rather than keeping one per capture forever.
//!
//! Decoding is one pass: every lane is allocated once at its final length
//! and [`LaneChunk::fill`] writes an instruction range straight from the
//! varint columns into its slices, with the op column copied as is (the
//! buffer's op byte already is the lane format). The other words come
//! from [`TraceCursor`](crate::TraceCursor), the crate's only decoder, so
//! the lanes are bit-identical to [`TraceBuffer::iter`] — pinned by
//! property tests over random mixes and kernel captures.
//! [`DecodedTrace::decode_chunked`] hands the chunk views to any executor
//! (a worker pool, say); [`DecodedTrace::decode`] is the serial form.
//!
//! Replay consumers step whole [`BLOCK_LEN`](crate::BLOCK_LEN)-instruction
//! blocks at a time through [`InstrBlock`] views (see `Cpu::step_block` in
//! the cpu crate), which keeps the engine loop free of per-instruction
//! bounds/budget checks and lets it prefetch the next block's lanes while
//! the current one executes.

use crate::buffer::{
    TraceBuffer, F_AUX, F_DST, F_RESULT, F_SRC1, F_SRC2, KIND_MASK, K_ALU, K_BRANCH, K_LOAD,
    K_STORE,
};
use crate::hints::SemanticHints;
use crate::instr::{Instr, InstrKind, Reg};

/// A fully-decoded trace: fixed-width parallel lanes over the whole
/// captured stream, replayable in [`BLOCK_LEN`](crate::BLOCK_LEN)-instruction
/// blocks with zero per-instruction decode work.
pub struct DecodedTrace {
    ops: Box<[u8]>,
    pcs: Box<[u64]>,
    aux: Box<[u64]>,
    sizes: Box<[u8]>,
    hints: Box<[u32]>,
    src1: Box<[u8]>,
    src2: Box<[u8]>,
    dst: Box<[u8]>,
    results: Box<[u64]>,
}

impl DecodedTrace {
    /// Serially decode an entire buffer (one chunk of
    /// [`DecodedTrace::decode_chunked`]).
    pub fn decode(buf: &TraceBuffer) -> Self {
        Self::decode_chunked(buf, buf.len().max(1), |chunks| {
            chunks.into_iter().map(LaneChunk::fill).collect()
        })
    }

    /// Decode `buf` in pieces of `chunk_len` instructions: allocate every
    /// lane once at its final length, split the lanes into one
    /// [`LaneChunk`] view per piece and hand them to `run`, which fills
    /// each (in any order, on any thread) and returns what every
    /// [`LaneChunk::fill`] returned. Multiples of
    /// [`BLOCK_LEN`](crate::BLOCK_LEN) let each chunk seek in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero or if `run` leaves instructions
    /// unfilled — both caller bugs, not recoverable conditions.
    pub fn decode_chunked<F>(buf: &TraceBuffer, chunk_len: usize, run: F) -> Self
    where
        F: for<'a> FnOnce(Vec<LaneChunk<'a>>) -> Vec<usize>,
    {
        assert!(chunk_len > 0, "decode chunks must hold instructions");
        let len = buf.len();
        let mut t = DecodedTrace {
            ops: vec![0; len].into_boxed_slice(),
            pcs: vec![0; len].into_boxed_slice(),
            aux: vec![0; len].into_boxed_slice(),
            sizes: vec![0; len].into_boxed_slice(),
            hints: vec![0; len].into_boxed_slice(),
            src1: vec![0; len].into_boxed_slice(),
            src2: vec![0; len].into_boxed_slice(),
            dst: vec![0; len].into_boxed_slice(),
            results: vec![0; len].into_boxed_slice(),
        };
        let mut ops = t.ops.chunks_mut(chunk_len);
        let mut pcs = t.pcs.chunks_mut(chunk_len);
        let mut aux = t.aux.chunks_mut(chunk_len);
        let mut sizes = t.sizes.chunks_mut(chunk_len);
        let mut hints = t.hints.chunks_mut(chunk_len);
        let mut src1 = t.src1.chunks_mut(chunk_len);
        let mut src2 = t.src2.chunks_mut(chunk_len);
        let mut dst = t.dst.chunks_mut(chunk_len);
        let mut results = t.results.chunks_mut(chunk_len);
        let mut start = 0;
        let chunks = std::iter::from_fn(|| {
            let c = LaneChunk {
                buf,
                start,
                ops: ops.next()?,
                pcs: pcs.next()?,
                aux: aux.next()?,
                sizes: sizes.next()?,
                hints: hints.next()?,
                src1: src1.next()?,
                src2: src2.next()?,
                dst: dst.next()?,
                results: results.next()?,
            };
            start += c.ops.len();
            Some(c)
        })
        .collect();
        let filled: usize = run(chunks).into_iter().sum();
        assert_eq!(filled, len, "every decode chunk must be filled");
        t
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Resident lane bytes (the quantity the decode-cache byte budget
    /// accounts).
    pub fn bytes(&self) -> usize {
        Self::bytes_for(self.len())
    }

    /// Decoded footprint of a trace with `len` instructions — a pure
    /// function of the length, so cache admission can be decided before
    /// paying for the decode.
    pub fn bytes_for(len: usize) -> usize {
        // u8 ops + sizes + 3 reg lanes, u32 hints, u64 pcs + aux + results.
        len * (1 + 1 + 3 + 4 + 8 + 8 + 8)
    }

    /// Borrow the instruction range `[start, end)` as lane slices for
    /// batched stepping. Callers walk block boundaries
    /// ([`BLOCK_LEN`](crate::BLOCK_LEN)); partial first/last blocks are
    /// fine.
    pub fn block(&self, start: usize, end: usize) -> InstrBlock<'_> {
        InstrBlock {
            ops: &self.ops[start..end],
            pcs: &self.pcs[start..end],
            aux: &self.aux[start..end],
            sizes: &self.sizes[start..end],
            hints: &self.hints[start..end],
            src1: &self.src1[start..end],
            src2: &self.src2[start..end],
            dst: &self.dst[start..end],
            results: &self.results[start..end],
        }
    }

    /// Reconstruct the full [`Instr`] at index `i` (bit-identical to the
    /// streaming decoder's output).
    pub fn instr(&self, i: usize) -> Instr {
        self.block(i, i + 1).instr(0)
    }

    /// Hint the hardware prefetcher at the lanes for the block starting at
    /// `start`, so the next block's lanes are warming while the current one
    /// executes. A no-op off x86_64 or past the end of the trace.
    #[inline]
    pub fn prefetch_block(&self, start: usize) {
        #[cfg(target_arch = "x86_64")]
        if start < self.ops.len() {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // semloc-lint: allow(unsafe-audit): _mm_prefetch is a pure cache hint with no memory-safety obligations; the pointers derive from in-bounds indices into live slices
            unsafe {
                _mm_prefetch(self.ops.as_ptr().add(start) as *const i8, _MM_HINT_T0);
                _mm_prefetch(self.pcs.as_ptr().add(start) as *const i8, _MM_HINT_T0);
                _mm_prefetch(self.aux.as_ptr().add(start) as *const i8, _MM_HINT_T0);
                _mm_prefetch(self.results.as_ptr().add(start) as *const i8, _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = start;
    }
}

impl std::fmt::Debug for DecodedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedTrace")
            .field("instrs", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Mutable views of every lane over one instruction range of a
/// [`DecodedTrace`] under construction: the unit of work
/// [`DecodedTrace::decode_chunked`] hands out.
#[derive(Debug)]
pub struct LaneChunk<'a> {
    buf: &'a TraceBuffer,
    start: usize,
    ops: &'a mut [u8],
    pcs: &'a mut [u64],
    aux: &'a mut [u64],
    sizes: &'a mut [u8],
    hints: &'a mut [u32],
    src1: &'a mut [u8],
    src2: &'a mut [u8],
    dst: &'a mut [u8],
    results: &'a mut [u64],
}

impl LaneChunk<'_> {
    /// Decode this chunk's instruction range into its lanes and return the
    /// number of instructions written.
    pub fn fill(self) -> usize {
        let n = self.ops.len();
        let start = self.start;
        self.ops
            .copy_from_slice(&self.buf.op_bytes()[start..start + n]);
        let mut cur = self.buf.cursor_at(start);
        for (i, &op) in self.ops.iter().enumerate() {
            let w = cur.words(self.buf, op);
            self.pcs[i] = w.pc;
            self.aux[i] = w.aux;
            self.sizes[i] = w.size;
            self.hints[i] = w.hints;
            self.src1[i] = w.src1;
            self.src2[i] = w.src2;
            self.dst[i] = w.dst;
            self.results[i] = w.result;
        }
        n
    }
}

/// A borrowed lane view over a contiguous instruction range of a
/// [`DecodedTrace`], the unit consumed by `Cpu::step_block`.
#[derive(Clone, Copy, Debug)]
pub struct InstrBlock<'a> {
    /// Op bytes (kind tag + presence flags), as in the varint encoding.
    pub ops: &'a [u8],
    /// Absolute program counters.
    pub pcs: &'a [u64],
    /// Kind-dependent word: ALU latency, load/store address, branch target.
    pub aux: &'a [u64],
    /// Memory access sizes (zero for non-memory ops).
    pub sizes: &'a [u8],
    /// Packed semantic hints (valid only for loads flagged `F_AUX`).
    pub hints: &'a [u32],
    /// First source register (valid iff flagged).
    pub src1: &'a [u8],
    /// Second source register (valid iff flagged).
    pub src2: &'a [u8],
    /// Destination register (valid iff flagged).
    pub dst: &'a [u8],
    /// Architectural results.
    pub results: &'a [u64],
}

impl InstrBlock<'_> {
    /// Instructions in the block.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reconstruct the full [`Instr`] at block-relative index `i`.
    #[inline]
    pub fn instr(&self, i: usize) -> Instr {
        let op = self.ops[i];
        let kind = match op & KIND_MASK {
            K_ALU => InstrKind::Alu {
                latency: self.aux[i] as u32,
            },
            K_LOAD => InstrKind::Load {
                addr: self.aux[i],
                size: self.sizes[i],
                hints: (op & F_AUX != 0).then(|| SemanticHints::unpack(self.hints[i])),
            },
            K_STORE => InstrKind::Store {
                addr: self.aux[i],
                size: self.sizes[i],
            },
            K_BRANCH => InstrKind::Branch {
                taken: op & F_AUX != 0,
                target: self.aux[i],
            },
            _ => InstrKind::Nop,
        };
        Instr {
            pc: self.pcs[i],
            kind,
            src1: (op & F_SRC1 != 0).then(|| Reg(self.src1[i])),
            src2: (op & F_SRC2 != 0).then(|| Reg(self.src2[i])),
            dst: (op & F_DST != 0).then(|| Reg(self.dst[i])),
            result: if op & F_RESULT != 0 {
                self.results[i]
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BLOCK_LEN;
    use crate::instr::Reg;

    fn random_stream(n: u64) -> Vec<Instr> {
        let mut state = 0xdec0de_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        (0..n)
            .map(|i| {
                let r = next();
                match r % 5 {
                    0 => Instr::load(
                        i * 8,
                        next(),
                        (1 << (r % 4)) as u8,
                        Reg((r % 32) as u8),
                        (r & 32 != 0).then(|| Reg((next() % 32) as u8)),
                        (r & 64 != 0)
                            .then(|| SemanticHints::link((r >> 8) as u16, (r % 0x4000) as u16)),
                        next(),
                    ),
                    1 => Instr::alu(
                        next(),
                        Some(Reg((r % 32) as u8)),
                        None,
                        Some(Reg((next() % 32) as u8)),
                        next(),
                    ),
                    2 => Instr::store(i * 8, next(), 8, Some(Reg((r % 32) as u8)), None),
                    3 => Instr::branch(next(), r & 8 != 0, next(), None),
                    _ => Instr::nop(next()),
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

    #[test]
    fn serial_decode_matches_streaming() {
        // 5 full blocks plus a partial tail.
        let instrs = random_stream(5 * BLOCK_LEN as u64 + 37);
        let buf = buffer_of(&instrs);
        let d = DecodedTrace::decode(&buf);
        assert_eq!(d.len(), instrs.len());
        for (i, want) in instrs.iter().enumerate() {
            assert_eq!(&d.instr(i), want, "instr {i}");
        }
    }

    #[test]
    fn chunked_decode_matches_serial() {
        let instrs = random_stream(4 * BLOCK_LEN as u64 + 100);
        let buf = buffer_of(&instrs);
        // Unaligned chunks seek mid-block; filling them in reverse order
        // shows the chunks are independent.
        for chunk_len in [1, 300, BLOCK_LEN, 2 * BLOCK_LEN + 1, buf.len() + 7] {
            let d = DecodedTrace::decode_chunked(&buf, chunk_len, |chunks| {
                chunks.into_iter().rev().map(LaneChunk::fill).collect()
            });
            for (i, want) in instrs.iter().enumerate() {
                assert_eq!(&d.instr(i), want, "instr {i} (chunk {chunk_len})");
            }
        }
    }

    #[test]
    fn block_views_cover_partial_tails() {
        let instrs = random_stream(BLOCK_LEN as u64 + 3);
        let buf = buffer_of(&instrs);
        let d = DecodedTrace::decode(&buf);
        let tail = d.block(BLOCK_LEN, d.len());
        assert_eq!(tail.len(), 3);
        for i in 0..tail.len() {
            assert_eq!(tail.instr(i), instrs[BLOCK_LEN + i]);
        }
        d.prefetch_block(0);
        d.prefetch_block(d.len()); // past-the-end is a no-op
    }

    #[test]
    #[should_panic(expected = "every decode chunk must be filled")]
    fn unfilled_chunks_are_rejected() {
        let buf = buffer_of(&random_stream(3 * BLOCK_LEN as u64));
        let _ = DecodedTrace::decode_chunked(&buf, BLOCK_LEN, |chunks| {
            chunks.into_iter().skip(1).map(LaneChunk::fill).collect()
        });
    }

    #[test]
    fn empty_trace_decodes_empty() {
        let d = DecodedTrace::decode(&TraceBuffer::new());
        assert!(d.is_empty());
        assert_eq!(d.bytes(), 0);
    }
}
