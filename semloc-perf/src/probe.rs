//! The host-speed probe: a fixed reference computation timed between
//! cells, so host times can be read at a reference host speed.
//!
//! The host this benchmark runs on is shared, and its speed drifts by up
//! to ±25% over seconds to minutes. Every cell of a run is followed by one
//! probe sample, so the probe sees the same drift the cells see, and a run
//! scales its host times by the reference speed over the probe's measured
//! speed. A slower simulator still reads slower; a slower host does not.
//!
//! The probe is the benchmark's own code and calls no simulator crate, so
//! a change to the simulator cannot change what it costs. It resembles the
//! simulator's inner loop: it streams fixed-size records from a buffer
//! larger than the host's L2, as a core replays a decoded trace, and looks
//! each one up in a set-associative tag table with LRU update, as a cache
//! model does. About half the lookups hit, so its branches are as
//! unpredictable as a cache model's.

use crate::now_ns;

/// Ways per set of the probe's table.
const WAYS: usize = 8;
/// Sets of the probe's table: 4096 x 8 ways x 8 bytes = 256 KiB.
const SETS: usize = 4096;
/// Words per streamed record: 32 bytes, about a decoded instruction.
const RECORD: usize = 4;
/// Words of the streamed buffer: 16 MiB.
const STREAM: usize = 2 << 20;
/// Records per timed sample.
const SAMPLE_RECORDS: u32 = 32_768;
/// Records run untimed before each sample.
const WARM_RECORDS: u32 = 4096;
/// The probe's ns per record at the reference host speed: about its
/// median on the 2-vCPU 2.1 GHz Xeon VM the benchmark was tuned on. It
/// fixes the unit of a scaled time and nothing else.
pub const REFERENCE_NS_PER_RECORD: f64 = 20.0;

/// The probe's table, its stream and the stream's cursor.
pub struct Probe {
    table: Vec<u64>,
    stream: Vec<u64>,
    at: usize,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    pub fn new() -> Self {
        let mut x = 0x5eed_0f_9a0bu64;
        let stream = (0..STREAM)
            .map(|_| {
                x = x
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(0x1405_7b7e_f767_814f);
                x
            })
            .collect();
        Probe {
            table: vec![u64::MAX; SETS * WAYS],
            stream,
            at: 0,
        }
    }

    /// Look up the next `records` streamed records; returns the hits.
    fn run(&mut self, records: u32) -> u64 {
        let mut hits = 0;
        for _ in 0..records {
            let r = &self.stream[self.at..self.at + RECORD];
            self.at = (self.at + RECORD) % STREAM;
            let x = r[0] ^ r[1].rotate_left(17) ^ r[2].rotate_left(31) ^ r[3].rotate_left(47);
            let set = (x as usize >> 7) % SETS;
            // Sixteen tags per set over eight ways: about half the
            // lookups hit.
            let tag = x >> 60;
            let ways = &mut self.table[set * WAYS..(set + 1) * WAYS];
            let pos = ways.iter().position(|&t| t == tag).unwrap_or(WAYS - 1);
            hits += u64::from(ways[pos] == tag);
            // Move to the front: the LRU way falls out on a miss.
            ways.copy_within(0..pos, 1);
            ways[0] = tag;
        }
        hits
    }

    /// One warmed, timed sample; returns its host ns.
    pub fn sample(&mut self) -> u64 {
        // Bring the table and the loop back into the host's caches and
        // predictors first. Otherwise the first records would time the
        // refill after the cell before them (about 5% of a sample), and a
        // simulator that touched less memory would make the probe faster.
        std::hint::black_box(self.table.iter().fold(0, |a, &t| a ^ t));
        std::hint::black_box(self.run(WARM_RECORDS));
        let t0 = now_ns();
        std::hint::black_box(self.run(SAMPLE_RECORDS));
        now_ns() - t0
    }
}

/// Host-time scale of a phase whose `samples` probe samples took `ns` in
/// all: the reference speed over the measured one. A host time measured
/// in that phase times the scale is the time at the reference speed.
pub fn scale(ns: u64, samples: u64) -> f64 {
    if ns == 0 {
        return 1.0;
    }
    REFERENCE_NS_PER_RECORD * (samples * u64::from(SAMPLE_RECORDS)) as f64 / ns as f64
}

/// The probe's measured ns per record over `samples` samples taking `ns`.
pub fn ns_per_record(ns: u64, samples: u64) -> f64 {
    ns as f64 / (samples * u64::from(SAMPLE_RECORDS)).max(1) as f64
}
