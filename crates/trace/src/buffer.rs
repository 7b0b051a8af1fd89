//! Compact in-memory trace storage: the record-once / replay-many buffer.
//!
//! [`TraceBuffer`] stores a captured instruction stream in struct-of-arrays
//! form with delta-encoded program counters and data addresses, so a
//! 400k-instruction trace costs a few megabytes and decodes with purely
//! sequential reads. It is the in-memory twin of the `SEMLOC02` on-disk
//! format in [`record`](crate::record): both round-trip every [`Instr`]
//! field bit-exactly, and [`TraceBuffer::write_semloc`] /
//! [`TraceBuffer::read_semloc`] convert between them.
//!
//! Layout per instruction:
//!
//! * one *op byte* (kind tag + presence flags) in the `ops` column,
//! * a zigzag-varint PC delta against the previous instruction's PC,
//! * for memory ops: a zigzag-varint address delta against the previous
//!   memory address, followed by the access size byte,
//! * register names for each present operand in the `regs` column,
//! * everything else (ALU latency, branch target delta, packed semantic
//!   hints, the architectural result) as varints in the `aux` column.
//!
//! Deltas make the common cases tiny: straight-line code has PC deltas of
//! +8, streaming kernels have constant address strides, and loop branches
//! have small target offsets.

use crate::hints::SemanticHints;
use crate::instr::{Instr, InstrKind, Reg};
use crate::sink::TraceSink;
use std::io::{self, Read, Write};

/// Kind tag in the low three bits of the op byte.
pub(crate) const KIND_MASK: u8 = 0b0000_0111;
pub(crate) const K_ALU: u8 = 0;
pub(crate) const K_LOAD: u8 = 1;
pub(crate) const K_STORE: u8 = 2;
pub(crate) const K_BRANCH: u8 = 3;
pub(crate) const K_NOP: u8 = 4;

/// Presence flags in the high five bits of the op byte.
pub(crate) const F_SRC1: u8 = 0x08;
pub(crate) const F_SRC2: u8 = 0x10;
pub(crate) const F_DST: u8 = 0x20;
/// Branch: taken. Load: carries semantic hints.
pub(crate) const F_AUX: u8 = 0x40;
pub(crate) const F_RESULT: u8 = 0x80;

/// Instructions per block: the granularity of [`TraceBuffer`] seek marks
/// and of [`DecodedTrace`](crate::decoded::DecodedTrace) batched stepping.
pub const BLOCK_LEN: usize = 256;

/// Decoder state at a block boundary: column positions plus the delta
/// baselines, captured every [`BLOCK_LEN`] pushes. 32 bytes per 256
/// instructions (~0.1 B/instr) buys O(1) mid-trace seeks and
/// chunk-parallel decoding.
#[derive(Clone, Copy, Debug, Default)]
struct Mark {
    p_pcs: u32,
    p_addrs: u32,
    p_regs: u32,
    p_aux: u32,
    prev_pc: u64,
    prev_addr: u64,
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// A captured dynamic instruction stream in compact struct-of-arrays form.
///
/// ```rust
/// use semloc_trace::{Instr, Reg, TraceBuffer};
///
/// let mut buf = TraceBuffer::new();
/// buf.push(&Instr::load(0x400, 0x1000, 8, Reg(1), None, None, 7));
/// buf.push(&Instr::alu(0x408, Some(Reg(2)), Some(Reg(1)), None, 9));
/// let decoded: Vec<Instr> = buf.iter().collect();
/// assert_eq!(decoded.len(), 2);
/// assert_eq!(decoded[0].mem_addr(), Some(0x1000));
/// ```
#[derive(Clone, Default)]
pub struct TraceBuffer {
    ops: Vec<u8>,
    pcs: Vec<u8>,
    addrs: Vec<u8>,
    regs: Vec<u8>,
    aux: Vec<u8>,
    // Decoder state at each block boundary; marks[k] describes the state
    // right before instruction (k+1)*BLOCK_LEN (block 0 starts from zero).
    marks: Vec<Mark>,
    // Encoder state (the decoder keeps its own copy in a TraceCursor).
    prev_pc: u64,
    prev_addr: u64,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions stored.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the buffer holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total encoded size in bytes across all columns.
    pub fn encoded_bytes(&self) -> usize {
        self.ops.len() + self.pcs.len() + self.addrs.len() + self.regs.len() + self.aux.len()
    }

    /// The op column: one byte per instruction, kind tag plus presence
    /// flags. It is already the op lane of a
    /// [`DecodedTrace`](crate::DecodedTrace), which copies it as is.
    pub fn op_bytes(&self) -> &[u8] {
        &self.ops
    }

    /// Append one instruction.
    pub fn push(&mut self, i: &Instr) {
        if self.ops.len().is_multiple_of(BLOCK_LEN) && !self.ops.is_empty() {
            self.marks.push(Mark {
                p_pcs: self.pcs.len() as u32,
                p_addrs: self.addrs.len() as u32,
                p_regs: self.regs.len() as u32,
                p_aux: self.aux.len() as u32,
                prev_pc: self.prev_pc,
                prev_addr: self.prev_addr,
            });
        }
        let mut op = match i.kind {
            InstrKind::Alu { .. } => K_ALU,
            InstrKind::Load { .. } => K_LOAD,
            InstrKind::Store { .. } => K_STORE,
            InstrKind::Branch { .. } => K_BRANCH,
            InstrKind::Nop => K_NOP,
        };
        if i.src1.is_some() {
            op |= F_SRC1;
        }
        if i.src2.is_some() {
            op |= F_SRC2;
        }
        if i.dst.is_some() {
            op |= F_DST;
        }
        if i.result != 0 {
            op |= F_RESULT;
        }
        match i.kind {
            InstrKind::Branch { taken: true, .. } => op |= F_AUX,
            InstrKind::Load { hints: Some(_), .. } => op |= F_AUX,
            _ => {}
        }
        self.ops.push(op);

        put_varint(
            &mut self.pcs,
            zigzag(i.pc.wrapping_sub(self.prev_pc) as i64),
        );
        self.prev_pc = i.pc;

        for r in [i.src1, i.src2, i.dst].into_iter().flatten() {
            self.regs.push(r.0);
        }

        match i.kind {
            InstrKind::Alu { latency } => put_varint(&mut self.aux, latency as u64),
            InstrKind::Load { addr, size, hints } => {
                put_varint(
                    &mut self.addrs,
                    zigzag(addr.wrapping_sub(self.prev_addr) as i64),
                );
                self.addrs.push(size);
                self.prev_addr = addr;
                if let Some(h) = hints {
                    put_varint(&mut self.aux, h.pack() as u64);
                }
            }
            InstrKind::Store { addr, size } => {
                put_varint(
                    &mut self.addrs,
                    zigzag(addr.wrapping_sub(self.prev_addr) as i64),
                );
                self.addrs.push(size);
                self.prev_addr = addr;
            }
            InstrKind::Branch { target, .. } => {
                put_varint(&mut self.aux, zigzag(target.wrapping_sub(i.pc) as i64));
            }
            InstrKind::Nop => {}
        }

        if i.result != 0 {
            put_varint(&mut self.aux, i.result);
        }
    }

    /// Iterate the stored instructions in push order.
    pub fn iter(&self) -> TraceIter<'_> {
        self.iter_from(0)
    }

    /// Iterate the stored instructions starting at index `start`, seeking
    /// via the block marks: O(1) to the enclosing block boundary plus at
    /// most [`BLOCK_LEN`]`-1` decode-skips, instead of decoding the whole
    /// prefix. Starting at or past the end yields an exhausted iterator.
    pub fn iter_from(&self, start: usize) -> TraceIter<'_> {
        TraceIter {
            buf: self,
            cursor: self.cursor_at(start),
        }
    }

    /// A [`TraceCursor`] placed before instruction `start` (clamped to the
    /// end), found the way [`TraceBuffer::iter_from`] seeks.
    pub fn cursor_at(&self, start: usize) -> TraceCursor {
        let start = start.min(self.ops.len());
        // No mark follows the last instruction, so the end of a buffer
        // whose length is a multiple of BLOCK_LEN seeks from the mark
        // before it.
        let block = (start / BLOCK_LEN).min(self.marks.len());
        let mut cur = match block.checked_sub(1).and_then(|k| self.marks.get(k)) {
            Some(m) => TraceCursor {
                i: block * BLOCK_LEN,
                p_pcs: m.p_pcs as usize,
                p_addrs: m.p_addrs as usize,
                p_regs: m.p_regs as usize,
                p_aux: m.p_aux as usize,
                prev_pc: m.prev_pc,
                prev_addr: m.prev_addr,
            },
            None => TraceCursor::default(),
        };
        while cur.i < start {
            cur.next(self);
        }
        cur
    }

    /// Serialize to the `SEMLOC02` on-disk format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer; a short write is reported as
    /// [`io::ErrorKind::WriteZero`].
    pub fn write_semloc<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = crate::record::TraceWriter::new(out, 0)?;
        for i in self.iter() {
            w.instr(i);
        }
        if w.count() != self.len() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "trace serialization stopped early",
            ));
        }
        w.finish()?;
        Ok(())
    }

    /// Deserialize a buffer from the `SEMLOC02` on-disk format, validating
    /// the trailer.
    ///
    /// # Errors
    ///
    /// Returns any decoding error from [`TraceReader`](crate::TraceReader).
    pub fn read_semloc<R: Read>(input: R) -> io::Result<Self> {
        let mut r = crate::record::TraceReader::new(input)?;
        let mut buf = TraceBuffer::new();
        while let Some(i) = r.next_instr()? {
            buf.push(&i);
        }
        Ok(buf)
    }
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("instrs", &self.len())
            .field("encoded_bytes", &self.encoded_bytes())
            .finish()
    }
}

/// Resumable decoder state over a [`TraceBuffer`]: the index of the next
/// instruction, the column positions and the delta baselines.
///
/// A cursor holds no borrow, so a long-lived owner (a simulated core
/// stepping one quantum at a time) can keep it across calls and resume
/// exactly where it stopped, without re-seeking. It must only be used
/// with the buffer that placed it ([`TraceBuffer::cursor_at`]).
///
/// ```rust
/// use semloc_trace::{Instr, TraceBuffer};
///
/// let mut buf = TraceBuffer::new();
/// for pc in [0x400, 0x408, 0x410] {
///     buf.push(&Instr::nop(pc));
/// }
/// let mut cur = buf.cursor_at(0);
/// assert_eq!(cur.next(&buf).map(|i| i.pc), Some(0x400));
/// let saved = cur; // Copy: a saved resume point
/// assert_eq!(cur.next(&buf).map(|i| i.pc), Some(0x408));
/// assert_eq!(saved, buf.cursor_at(1));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCursor {
    i: usize,
    p_pcs: usize,
    p_addrs: usize,
    p_regs: usize,
    p_aux: usize,
    prev_pc: u64,
    prev_addr: u64,
}

impl TraceCursor {
    /// Index of the next instruction this cursor decodes.
    pub fn position(&self) -> usize {
        self.i
    }

    #[inline]
    fn reg(&mut self, buf: &TraceBuffer, present: bool) -> u8 {
        if present {
            let r = buf.regs[self.p_regs];
            self.p_regs += 1;
            r
        } else {
            0
        }
    }

    #[inline]
    fn mem_operand(&mut self, buf: &TraceBuffer) -> (u64, u8) {
        let delta = unzigzag(get_varint(&buf.addrs, &mut self.p_addrs));
        let addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_addr = addr;
        let size = buf.addrs[self.p_addrs];
        self.p_addrs += 1;
        (addr, size)
    }

    /// Decode the varint fields of the next instruction, whose op byte is
    /// `op`, and advance. This is the one place the column encoding is
    /// read back: [`TraceCursor::next`] builds an [`Instr`] from the words
    /// and [`DecodedTrace`](crate::DecodedTrace) stores them as lanes.
    #[inline(always)]
    pub(crate) fn words(&mut self, buf: &TraceBuffer, op: u8) -> LaneWords {
        self.i += 1;

        let delta = unzigzag(get_varint(&buf.pcs, &mut self.p_pcs));
        let pc = self.prev_pc.wrapping_add(delta as u64);
        self.prev_pc = pc;

        let src1 = self.reg(buf, op & F_SRC1 != 0);
        let src2 = self.reg(buf, op & F_SRC2 != 0);
        let dst = self.reg(buf, op & F_DST != 0);

        let (aux, size, hints) = match op & KIND_MASK {
            K_ALU => (get_varint(&buf.aux, &mut self.p_aux) as u32 as u64, 0, 0),
            K_LOAD => {
                let (addr, size) = self.mem_operand(buf);
                let hints = if op & F_AUX != 0 {
                    get_varint(&buf.aux, &mut self.p_aux) as u32
                } else {
                    0
                };
                (addr, size, hints)
            }
            K_STORE => {
                let (addr, size) = self.mem_operand(buf);
                (addr, size, 0)
            }
            K_BRANCH => {
                let tdelta = unzigzag(get_varint(&buf.aux, &mut self.p_aux));
                (pc.wrapping_add(tdelta as u64), 0, 0)
            }
            _ => (0, 0, 0),
        };

        let result = if op & F_RESULT != 0 {
            get_varint(&buf.aux, &mut self.p_aux)
        } else {
            0
        };

        LaneWords {
            pc,
            aux,
            size,
            hints,
            src1,
            src2,
            dst,
            result,
        }
    }

    /// Decode the next instruction of `buf` and advance, or `None` at the
    /// end of the buffer.
    #[inline]
    pub fn next(&mut self, buf: &TraceBuffer) -> Option<Instr> {
        let &op = buf.ops.get(self.i)?;
        let w = self.words(buf, op);
        let kind = match op & KIND_MASK {
            K_ALU => InstrKind::Alu {
                latency: w.aux as u32,
            },
            K_LOAD => InstrKind::Load {
                addr: w.aux,
                size: w.size,
                hints: (op & F_AUX != 0).then(|| SemanticHints::unpack(w.hints)),
            },
            K_STORE => InstrKind::Store {
                addr: w.aux,
                size: w.size,
            },
            K_BRANCH => InstrKind::Branch {
                taken: op & F_AUX != 0,
                target: w.aux,
            },
            _ => InstrKind::Nop,
        };
        Some(Instr {
            pc: w.pc,
            kind,
            src1: (op & F_SRC1 != 0).then_some(Reg(w.src1)),
            src2: (op & F_SRC2 != 0).then_some(Reg(w.src2)),
            dst: (op & F_DST != 0).then_some(Reg(w.dst)),
            result: w.result,
        })
    }
}

/// One instruction's fixed-width fields as [`TraceCursor::words`] decodes
/// them: the per-instruction words of every
/// [`DecodedTrace`](crate::DecodedTrace) lane except the op byte. Absent
/// operands and fields read zero.
pub(crate) struct LaneWords {
    pub(crate) pc: u64,
    /// ALU latency, load/store address or branch target.
    pub(crate) aux: u64,
    pub(crate) size: u8,
    /// Packed semantic hints of a hinted load.
    pub(crate) hints: u32,
    pub(crate) src1: u8,
    pub(crate) src2: u8,
    pub(crate) dst: u8,
    pub(crate) result: u64,
}

/// Sequential decoder over a [`TraceBuffer`]: a [`TraceCursor`] bound to
/// its buffer.
#[derive(Clone, Debug)]
pub struct TraceIter<'a> {
    buf: &'a TraceBuffer,
    cursor: TraceCursor,
}

impl Iterator for TraceIter<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        self.cursor.next(self.buf)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.buf.ops.len() - self.cursor.i;
        (rem, Some(rem))
    }
}

/// A [`TraceSink`] that captures into a [`TraceBuffer`], mirroring the
/// budget gating of the simulated core: instructions are accepted while the
/// count is below `limit` and silently dropped after, and `done()` flips
/// exactly when the limit is reached (`limit == 0` is unbounded). This
/// makes a capture see the *same* `done()` transitions a budgeted
/// [`Cpu`](crate::TraceSink)-driven run would, so the captured stream is
/// bit-identical to what the simulator consumed.
#[derive(Debug, Default)]
pub struct BufferSink {
    buf: TraceBuffer,
    limit: u64,
}

impl BufferSink {
    /// Capture at most `limit` instructions (0 = unbounded).
    pub fn with_limit(limit: u64) -> Self {
        BufferSink {
            buf: TraceBuffer::new(),
            limit,
        }
    }

    /// Instructions captured so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the sink, returning the captured buffer.
    pub fn into_buffer(self) -> TraceBuffer {
        self.buf
    }
}

impl TraceSink for BufferSink {
    fn instr(&mut self, instr: Instr) {
        if !self.done() {
            self.buf.push(&instr);
        }
    }

    fn done(&self) -> bool {
        self.limit != 0 && self.buf.len() as u64 >= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RecordingSink;

    fn sample() -> Vec<Instr> {
        vec![
            Instr::load(
                0x400,
                0x1234,
                8,
                Reg(3),
                Some(Reg(1)),
                Some(SemanticHints::link(7, 16)),
                0xAB,
            ),
            Instr::alu(0x408, Some(Reg(4)), Some(Reg(3)), None, 99),
            Instr::store(0x410, 0x5678, 8, Some(Reg(4)), Some(Reg(3))),
            Instr::branch(0x418, true, 0x400, Some(Reg(4))),
            Instr::branch(0x420, false, 0x500, None),
            Instr::nop(0x428),
            // Backwards-moving PC and address exercise negative deltas.
            Instr::load(0x200, 0x100, 4, Reg(1), None, None, 0),
        ]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let mut buf = TraceBuffer::new();
        for i in sample() {
            buf.push(&i);
        }
        let decoded: Vec<Instr> = buf.iter().collect();
        assert_eq!(decoded, sample());
    }

    #[test]
    fn large_random_stream_roundtrips() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut instrs = Vec::new();
        for i in 0..20_000u64 {
            let r = next();
            instrs.push(match r % 5 {
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
            });
        }
        let mut buf = TraceBuffer::new();
        for i in &instrs {
            buf.push(i);
        }
        let decoded: Vec<Instr> = buf.iter().collect();
        assert_eq!(decoded, instrs);
        assert!(
            buf.encoded_bytes() < instrs.len() * 34,
            "SoA encoding must beat the ~34-byte flat Instr struct (got {} bytes for {} instrs)",
            buf.encoded_bytes(),
            instrs.len()
        );
    }

    #[test]
    fn sequential_stream_is_compact() {
        // A streaming loop (fixed pc step, fixed stride) should cost only a
        // few bytes per instruction once deltas kick in.
        let mut buf = TraceBuffer::new();
        for i in 0..10_000u64 {
            buf.push(&Instr::load(
                0x400,
                0x10_0000 + i * 64,
                8,
                Reg(1),
                None,
                None,
                0,
            ));
        }
        // op 1 + pc-delta 1 + addr-delta 2 + size 1 + dst reg 1 = 6 bytes,
        // vs ~34 for the flat struct and ~30 for SEMLOC02.
        let per_instr = buf.encoded_bytes() as f64 / buf.len() as f64;
        assert!(
            per_instr < 6.5,
            "streaming loads should encode near 6 B/instr, got {per_instr:.1}"
        );
    }

    #[test]
    fn semloc_format_roundtrip_matches() {
        let mut buf = TraceBuffer::new();
        for i in sample() {
            buf.push(&i);
        }
        let mut bytes = Vec::new();
        buf.write_semloc(&mut bytes).unwrap();
        // The serialized form is a valid SEMLOC02 trace...
        let mut sink = RecordingSink::new();
        crate::record::TraceReader::new(&bytes[..])
            .unwrap()
            .replay(&mut sink)
            .unwrap();
        assert_eq!(sink.instrs(), sample().as_slice());
        // ...and reading it back into a buffer preserves the stream.
        let back = TraceBuffer::read_semloc(&bytes[..]).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), sample());
    }

    #[test]
    fn read_semloc_rejects_garbage() {
        assert!(TraceBuffer::read_semloc(&b"NOTATRACE"[..]).is_err());
    }

    #[test]
    fn buffer_sink_gates_like_the_core() {
        let mut s = BufferSink::with_limit(3);
        for i in sample() {
            s.instr(i);
        }
        assert!(s.done());
        let buf = s.into_buffer();
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.iter().collect::<Vec<_>>(), sample()[..3].to_vec());
    }

    #[test]
    fn unbounded_sink_captures_everything() {
        let mut s = BufferSink::with_limit(0);
        for i in sample() {
            s.instr(i);
        }
        assert!(!s.done());
        assert_eq!(s.len(), sample().len());
    }

    #[test]
    fn iter_from_matches_skip_everywhere() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut buf = TraceBuffer::new();
        let n = 3 * BLOCK_LEN + 17;
        for i in 0..n as u64 {
            let r = next();
            buf.push(&match r % 3 {
                0 => Instr::load(i * 8, next(), 8, Reg((r % 32) as u8), None, None, next()),
                1 => Instr::branch(next(), r & 8 != 0, next(), None),
                _ => Instr::alu(next(), Some(Reg(1)), None, None, next()),
            });
        }
        let all: Vec<Instr> = buf.iter().collect();
        // Boundaries, mid-block, the very end, and past the end.
        for start in [0, 1, 255, 256, 257, 511, 512, 700, n - 1, n, n + 5] {
            let got: Vec<Instr> = buf.iter_from(start).collect();
            assert_eq!(got, all[start.min(n)..], "start {start}");
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 8, -8] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX);
        let mut pos = 0;
        assert_eq!(get_varint(&bytes, &mut pos), u64::MAX);
        assert_eq!(pos, bytes.len());
    }
}
