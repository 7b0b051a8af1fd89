//! Property tests over the trace encodings: the `SEMLOC02` stream format
//! (`record.rs`) and the struct-of-arrays [`TraceBuffer`] must round-trip
//! every [`InstrKind`] variant — including absent registers and
//! `SemanticHints` edge values — bit-exactly, and the reader must reject
//! malformed inputs (bad magic, truncation, count mismatch) cleanly.

use std::io::ErrorKind;

use proptest::prelude::*;

use semloc_trace::{
    Instr, InstrKind, RecordingSink, RefForm, Reg, SemanticHints, TraceBuffer, TraceReader,
    TraceSink, TraceWriter, BLOCK_LEN,
};

/// Build one instruction from raw entropy, covering every variant and the
/// interesting boundary values (absent registers, zero/huge results,
/// hint fields at their packed-format limits, negative PC/address motion).
fn instr_from(raw: (u64, u64, u64, u64)) -> Instr {
    let (sel, pc_bits, addr_bits, misc) = raw;
    let pc = match sel >> 8 & 0b11 {
        0 => pc_bits,                  // anywhere in the address space
        1 => pc_bits % 0x10_000,       // low, loop-like
        2 => u64::MAX - (pc_bits % 9), // wraparound deltas
        _ => 0,
    };
    let reg = |bits: u64, present: u64| (present & 1 == 1).then_some(Reg((bits % 32) as u8));
    let result = match sel >> 12 & 0b11 {
        0 => 0,
        1 => u64::MAX,
        _ => misc,
    };
    let hints = (sel >> 16 & 1 == 1).then(|| {
        let mut h = SemanticHints {
            type_id: match sel >> 20 & 0b11 {
                0 => 0,
                1 => u16::MAX,
                _ => (misc >> 16) as u16,
            },
            // pack() keeps 14 bits of link_offset; stay in-range so the
            // round-trip is exact (the mask is its own unit-tested
            // behaviour).
            link_offset: match sel >> 24 & 0b11 {
                0 => 0,
                1 => 0x3fff,
                _ => (misc % 0x4000) as u16,
            },
            ref_form: RefForm::ALL[(sel >> 28 & 0b11) as usize],
        };
        // The all-ones packing is SEMLOC02's "no hints" sentinel (see
        // `reserved_hint_packing_decodes_as_none`); representable hints
        // must avoid it.
        if h.pack() == u32::MAX {
            h.link_offset = 0;
        }
        h
    });
    let size = 1u8 << (sel >> 4 & 0b11); // 1/2/4/8 bytes
    match sel % 5 {
        0 => Instr {
            pc,
            kind: InstrKind::Alu {
                latency: (misc as u32) % 64 + 1,
            },
            src1: reg(misc, sel >> 32),
            src2: reg(misc >> 8, sel >> 33),
            dst: reg(misc >> 16, sel >> 34),
            result,
        },
        1 => Instr {
            pc,
            kind: InstrKind::Load {
                addr: addr_bits,
                size,
                hints,
            },
            src1: reg(misc, sel >> 32),
            src2: None,
            dst: reg(misc >> 16, sel >> 34),
            result,
        },
        2 => Instr {
            pc,
            kind: InstrKind::Store {
                addr: addr_bits,
                size,
            },
            src1: reg(misc, sel >> 32),
            src2: reg(misc >> 8, sel >> 33),
            dst: None,
            result,
        },
        3 => Instr {
            pc,
            kind: InstrKind::Branch {
                taken: sel >> 40 & 1 == 1,
                target: addr_bits,
            },
            src1: reg(misc, sel >> 32),
            src2: None,
            dst: None,
            result,
        },
        _ => Instr {
            pc,
            kind: InstrKind::Nop,
            src1: None,
            src2: None,
            dst: None,
            result,
        },
    }
}

fn encode(instrs: &[Instr]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), 0).expect("vec write");
    for &i in instrs {
        w.instr(i);
    }
    w.finish().expect("vec write")
}

proptest! {
    /// SEMLOC02 round-trips arbitrary streams field-for-field.
    #[test]
    fn semloc_format_roundtrips(raws in proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..200))
    {
        let instrs: Vec<Instr> = raws.into_iter().map(instr_from).collect();
        let bytes = encode(&instrs);
        let mut sink = RecordingSink::new();
        let n = TraceReader::new(&bytes[..]).expect("valid header")
            .replay(&mut sink).expect("valid stream");
        prop_assert_eq!(n, instrs.len() as u64);
        prop_assert_eq!(sink.instrs(), instrs.as_slice());
    }

    /// The SoA buffer round-trips the same streams, and converting through
    /// the SEMLOC02 format preserves them too.
    #[test]
    fn trace_buffer_roundtrips(raws in proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..200))
    {
        let instrs: Vec<Instr> = raws.into_iter().map(instr_from).collect();
        let mut buf = TraceBuffer::new();
        for i in &instrs {
            buf.push(i);
        }
        prop_assert_eq!(buf.len(), instrs.len());
        prop_assert_eq!(buf.iter().collect::<Vec<_>>(), instrs.clone());

        let mut bytes = Vec::new();
        buf.write_semloc(&mut bytes).expect("vec write");
        let back = TraceBuffer::read_semloc(&bytes[..]).expect("own output");
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), instrs);
    }

    /// A cursor saved at any split point and resumed from the saved copy
    /// reproduces `iter()`'s stream exactly, and equals the cursor
    /// `cursor_at` seeks to. Splits cover random points, 0, the end, and
    /// every multiple of BLOCK_LEN.
    #[test]
    fn cursor_resume_reproduces_iter(raws in proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..1100),
        cuts in proptest::collection::vec(any::<u64>(), 0..8))
    {
        let mut buf = TraceBuffer::new();
        for raw in raws {
            buf.push(&instr_from(raw));
        }
        let want: Vec<Instr> = buf.iter().collect();
        let n = buf.len();
        let mut splits: Vec<usize> = cuts.iter().map(|&c| (c % (n as u64 + 1)) as usize).collect();
        splits.extend((0..=n).step_by(BLOCK_LEN));
        splits.push(n);
        splits.sort_unstable();
        splits.dedup();

        let mut cur = buf.cursor_at(0);
        let mut got = Vec::with_capacity(n);
        for &split in &splits {
            while cur.position() < split {
                got.push(cur.next(&buf).expect("split is within the buffer"));
            }
            let saved = cur;
            prop_assert_eq!(saved, buf.cursor_at(split));
            // Decoding ahead on the live copy leaves the saved one intact.
            let ahead = cur.next(&buf);
            prop_assert_eq!(ahead, want.get(split).copied());
            cur = saved;
        }
        prop_assert_eq!(cur.next(&buf), None);
        prop_assert_eq!(got, want);
    }

    /// Truncating a valid stream anywhere inside the payload fails cleanly
    /// (an I/O or data error — never a panic, never silent success).
    #[test]
    fn truncation_is_detected(raws in proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..40),
        cut in any::<u64>())
    {
        let instrs: Vec<Instr> = raws.into_iter().map(instr_from).collect();
        let bytes = encode(&instrs);
        // Cut somewhere after the header but before the final trailer byte.
        let cut = 8 + (cut as usize) % (bytes.len() - 8 - 1);
        let mut sink = RecordingSink::new();
        let res = TraceReader::new(&bytes[..cut]).and_then(|mut r| r.replay(&mut sink));
        prop_assert!(res.is_err(), "truncation at {cut}/{} must error", bytes.len());
    }
}

#[test]
fn bad_magic_is_invalid_data() {
    for junk in [
        &b"SEMLOC00"[..],
        &b"\0\0\0\0\0\0\0\0"[..],
        &b"SEMLOC02"[..8 - 1],
    ] {
        let err = TraceReader::new(junk).unwrap_err();
        assert!(
            err.kind() == ErrorKind::InvalidData || err.kind() == ErrorKind::UnexpectedEof,
            "got {err:?}"
        );
    }
}

#[test]
fn trailer_count_mismatch_is_invalid_data() {
    let instrs: Vec<Instr> = (0..5u64)
        .map(|i| instr_from((i, i * 8, i * 64, i)))
        .collect();
    let mut bytes = encode(&instrs);
    // The trailer is MAX marker + little-endian count + checksum: the
    // count's low byte sits 16 bytes from the end. Tamper it.
    let n = bytes.len();
    bytes[n - 16] = bytes[n - 16].wrapping_add(1);
    let mut sink = RecordingSink::new();
    let err = TraceReader::new(&bytes[..])
        .unwrap()
        .replay(&mut sink)
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("count mismatch"), "got {err}");
}

#[test]
fn unknown_record_kind_is_invalid_data() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SEMLOC02");
    bytes.push(0x7b); // neither a kind tag nor the trailer marker
    let err = TraceReader::new(&bytes[..])
        .unwrap()
        .next_instr()
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("bad record kind"), "got {err}");
}

#[test]
fn reserved_hint_packing_decodes_as_none() {
    // SEMLOC02 encodes "no hints" as an all-ones u32; the one hint value
    // that packs to the same bits (type 0xffff, link 0x3fff, Index) is
    // therefore unrepresentable in the stream format and reads back as
    // `None`. The SoA `TraceBuffer` uses a presence flag instead and
    // round-trips it exactly.
    let edge = SemanticHints {
        type_id: u16::MAX,
        link_offset: 0x3fff,
        ref_form: RefForm::Index,
    };
    assert_eq!(edge.pack(), u32::MAX);
    let i = Instr::load(0x400, 0x1000, 8, Reg(1), None, Some(edge), 7);

    let bytes = encode(&[i]);
    let mut sink = RecordingSink::new();
    TraceReader::new(&bytes[..])
        .unwrap()
        .replay(&mut sink)
        .unwrap();
    match sink.instrs()[0].kind {
        InstrKind::Load { hints, .. } => assert_eq!(hints, None, "sentinel collision"),
        _ => unreachable!(),
    }

    let mut buf = TraceBuffer::new();
    buf.push(&i);
    assert_eq!(buf.iter().next().unwrap(), i, "SoA buffer is exact");
}

#[test]
fn empty_trace_roundtrips() {
    let bytes = encode(&[]);
    let mut sink = RecordingSink::new();
    let n = TraceReader::new(&bytes[..])
        .unwrap()
        .replay(&mut sink)
        .unwrap();
    assert_eq!(n, 0);
    assert!(sink.instrs().is_empty());
    assert!(TraceBuffer::read_semloc(&bytes[..]).unwrap().is_empty());
}

#[test]
fn cursor_at_the_end_of_whole_blocks_is_exhausted() {
    // A buffer of whole blocks has no seek mark after its last
    // instruction; seeking to its end must still land there.
    for n in [0, 1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 2 * BLOCK_LEN] {
        let instrs: Vec<Instr> = (0..n as u64)
            .map(|i| instr_from((i * 7, i * 8, i * 64, i)))
            .collect();
        let mut buf = TraceBuffer::new();
        for i in &instrs {
            buf.push(i);
        }
        let mut end = buf.cursor_at(n);
        assert_eq!(end.position(), n);
        assert_eq!(end.next(&buf), None, "len {n}");
        assert_eq!(
            buf.cursor_at(n + 3),
            buf.cursor_at(n),
            "past the end clamps"
        );
        for start in [0, n / 2, n.saturating_sub(1)] {
            let got: Vec<Instr> = buf.iter_from(start).collect();
            assert_eq!(got, instrs[start..], "len {n} start {start}");
        }
    }
}
