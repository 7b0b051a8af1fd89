//! In-memory span recorder for the traced run.
//!
//! One span per workload, per cell and per layer call site, each with a
//! name, start, end, parent and the cell it belongs to. Spans stay in
//! memory until the run ends; [`Tracer::self_times`] then folds them into
//! self time per layer (a span's duration minus what its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::now_ns;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or call-site name.
    pub name: &'static str,
    /// The cell this span belongs to (`u32::MAX` outside any cell).
    pub cell: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time (0 while open).
    pub end: u64,
}

/// Span sink; disabled tracers record nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Marker for a span outside any cell.
pub const NO_CELL: u32 = u32::MAX;

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, cell: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start: now_ns(),
            end: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end = now_ns();
    }

    /// Time `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        self.begin(name, cell);
        let out = f();
        self.end();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.end.saturating_sub(s.start).saturating_sub(c);
        }
        out
    }

    /// The spans as JSON lines: `{"id", "name", "cell", "parent", "start_ns", "end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = if s.cell == NO_CELL {
                "null".to_string()
            } else {
                s.cell.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"cell\": {cell}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}
