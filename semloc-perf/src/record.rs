//! Recording wrappers at the simulator's seams, and the replays that time
//! them.
//!
//! Clocking each call would cost more than many of the calls themselves
//! (a context cell makes about ten policy calls per access). Instead the
//! traced run records every call a wrapper sees, with its inputs and a
//! fold of its outputs, and afterwards replays the log through a fresh
//! instance in one timed loop. A replay must reproduce the recorded output
//! fold exactly, otherwise the cell fails.

use std::cell::{Cell, RefCell};

use semloc_context::cst::AddOutcome;
use semloc_context::{ContextKey, FeatureExtractor, FeatureSet, LearnedPolicy};
use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::{AccessContext, Addr, SnapReader, SnapWriter, Snapshot};

use crate::{fold, now_ns, FOLD_SEED};

/// One call the memory hierarchy made on a prefetcher.
#[derive(Clone, Debug)]
pub enum PfCall {
    /// `on_access` with its context and the pressure it saw.
    Access(Box<AccessContext>, MemPressure),
    /// `on_issue_result`.
    Issue(u64, bool),
    /// `was_predicted` (a query; replayed for its cost and its answer).
    WasPredicted(Addr),
    /// End-of-run `finish`.
    Finish,
}

fn fold_reqs(h: u64, reqs: &[PrefetchReq]) -> u64 {
    let mut h = fold(h, reqs.len() as u64);
    for r in reqs {
        h = fold(fold(fold(h, r.addr), r.shadow as u64), r.tag);
    }
    h
}

/// A prefetcher wrapper that logs every call it forwards.
pub struct Recorder<P: Prefetcher> {
    inner: P,
    log: RefCell<Vec<PfCall>>,
    outputs: Cell<u64>,
}

impl<P: Prefetcher> Recorder<P> {
    /// Wrap `inner` with an empty log.
    pub fn new(inner: P) -> Self {
        Recorder {
            inner,
            log: RefCell::new(Vec::new()),
            outputs: Cell::new(FOLD_SEED),
        }
    }

    /// Take the log and the fold of every output the wrapper forwarded.
    pub fn take_log(&self) -> (Vec<PfCall>, u64) {
        (self.log.take(), self.outputs.replace(FOLD_SEED))
    }

    /// Continue a log taken from another wrapper (a forked run).
    pub fn resume(&self, (log, outputs): (Vec<PfCall>, u64)) {
        self.log.replace(log);
        self.outputs.set(outputs);
    }
}

impl<P: Prefetcher> Prefetcher for Recorder<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        self.inner.on_access(ctx, pressure, out);
        self.outputs.set(fold_reqs(self.outputs.get(), out));
        self.log
            .get_mut()
            .push(PfCall::Access(Box::new(ctx.clone()), pressure));
    }

    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        self.inner.on_issue_result(tag, issued);
        self.log.get_mut().push(PfCall::Issue(tag, issued));
    }

    fn was_predicted(&self, addr: Addr) -> bool {
        let answer = self.inner.was_predicted(addr);
        self.outputs.set(fold(self.outputs.get(), answer as u64));
        self.log.borrow_mut().push(PfCall::WasPredicted(addr));
        answer
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn stats(&self) -> PrefetcherStats {
        self.inner.stats()
    }

    fn finish(&mut self) {
        self.inner.finish();
        self.log.get_mut().push(PfCall::Finish);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
        self.inner.restore_state(r)
    }
}

/// Outcome of one replay loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// Host time of the loop.
    pub ns: u64,
    /// Calls replayed.
    pub calls: u64,
    /// Fold of every output the replayed instance produced.
    pub outputs: u64,
}

/// Replay a prefetcher log through `fresh` in one timed loop.
pub fn replay_prefetcher(fresh: &mut dyn Prefetcher, log: &[PfCall]) -> Replay {
    let mut out = Vec::with_capacity(16);
    let mut h = FOLD_SEED;
    let t0 = now_ns();
    for call in log {
        match call {
            PfCall::Access(ctx, pressure) => {
                out.clear();
                fresh.on_access(ctx, *pressure, &mut out);
                h = fold_reqs(h, &out);
            }
            PfCall::Issue(tag, issued) => fresh.on_issue_result(*tag, *issued),
            PfCall::WasPredicted(addr) => h = fold(h, fresh.was_predicted(*addr) as u64),
            PfCall::Finish => fresh.finish(),
        }
    }
    Replay {
        ns: now_ns() - t0,
        calls: log.len() as u64,
        outputs: h,
    }
}

/// Demand accesses (`on_access` calls) in a prefetcher log.
pub fn accesses(log: &[PfCall]) -> u64 {
    log.iter()
        .filter(|c| matches!(c, PfCall::Access(..)))
        .count() as u64
}

/// One call the context prefetcher made on its learning backend.
#[derive(Clone, Copy, Debug)]
pub enum PolicyCall {
    /// `add_candidate`.
    Add(ContextKey, i16),
    /// `reward`.
    Reward(ContextKey, i16, i32),
    /// `reward_capped`.
    RewardCapped(ContextKey, i16, i32, i8),
    /// `note_shared_weak` with the full-context hash.
    NoteSharedWeak(ContextKey, u16, i8),
    /// `ranked_into`.
    Ranked(ContextKey),
}

fn fold_outcome(h: u64, o: AddOutcome) -> u64 {
    match o {
        AddOutcome::Stored => fold(h, 1),
        AddOutcome::Allocated => fold(h, 2),
        AddOutcome::Evicted(s) => fold(fold(h, 3), s as u8 as u64),
    }
}

fn fold_ranked(h: u64, found: bool, out: &[(i16, i8)]) -> u64 {
    let mut h = fold(h, found as u64);
    if found {
        h = fold(h, out.len() as u64);
        for &(d, s) in out {
            h = fold(fold(h, d as u16 as u64), s as u8 as u64);
        }
    }
    h
}

/// A [`LearnedPolicy`] wrapper that logs every call it forwards.
pub struct RecordingPolicy<P: LearnedPolicy> {
    inner: P,
    log: RefCell<Vec<PolicyCall>>,
    outputs: Cell<u64>,
}

impl<P: LearnedPolicy> RecordingPolicy<P> {
    /// Wrap `inner` with an empty log.
    pub fn new(inner: P) -> Self {
        RecordingPolicy {
            inner,
            log: RefCell::new(Vec::new()),
            outputs: Cell::new(FOLD_SEED),
        }
    }

    /// Take the log and the fold of every output the wrapper forwarded.
    pub fn take_log(&self) -> (Vec<PolicyCall>, u64) {
        (self.log.take(), self.outputs.replace(FOLD_SEED))
    }

    /// Continue a log taken from another wrapper (a forked run).
    pub fn resume(&self, (log, outputs): (Vec<PolicyCall>, u64)) {
        self.log.replace(log);
        self.outputs.set(outputs);
    }
}

impl<P: LearnedPolicy> Snapshot for RecordingPolicy<P> {
    fn save(&self, w: &mut SnapWriter) {
        self.inner.save(w)
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
        self.inner.restore(r)
    }
}

impl<P: LearnedPolicy> LearnedPolicy for RecordingPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn add_candidate(&mut self, key: ContextKey, delta: i16) -> AddOutcome {
        let o = self.inner.add_candidate(key, delta);
        self.outputs.set(fold_outcome(self.outputs.get(), o));
        self.log.get_mut().push(PolicyCall::Add(key, delta));
        o
    }

    fn reward(&mut self, key: ContextKey, delta: i16, reward: i32) -> bool {
        let o = self.inner.reward(key, delta, reward);
        self.outputs.set(fold(self.outputs.get(), o as u64));
        self.log
            .get_mut()
            .push(PolicyCall::Reward(key, delta, reward));
        o
    }

    fn reward_capped(&mut self, key: ContextKey, delta: i16, reward: i32, cap: i8) -> bool {
        let o = self.inner.reward_capped(key, delta, reward, cap);
        self.outputs.set(fold(self.outputs.get(), o as u64));
        self.log
            .get_mut()
            .push(PolicyCall::RewardCapped(key, delta, reward, cap));
        o
    }

    fn note_shared_weak(&mut self, key: ContextKey, full: u16, strength_bar: i8) -> bool {
        let o = self.inner.note_shared_weak(key, full, strength_bar);
        self.outputs.set(fold(self.outputs.get(), o as u64));
        self.log
            .get_mut()
            .push(PolicyCall::NoteSharedWeak(key, full, strength_bar));
        o
    }

    fn ranked_into(&self, key: ContextKey, out: &mut Vec<(i16, i8)>) -> bool {
        let found = self.inner.ranked_into(key, out);
        self.outputs
            .set(fold_ranked(self.outputs.get(), found, out));
        self.log.borrow_mut().push(PolicyCall::Ranked(key));
        found
    }

    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
}

/// Replay a policy log through `fresh` in one timed loop.
pub fn replay_policy<P: LearnedPolicy>(fresh: &mut P, log: &[PolicyCall]) -> Replay {
    let mut out = Vec::with_capacity(16);
    let mut h = FOLD_SEED;
    let t0 = now_ns();
    for &call in log {
        h = match call {
            PolicyCall::Add(k, d) => fold_outcome(h, fresh.add_candidate(k, d)),
            PolicyCall::Reward(k, d, r) => fold(h, fresh.reward(k, d, r) as u64),
            PolicyCall::RewardCapped(k, d, r, c) => fold(h, fresh.reward_capped(k, d, r, c) as u64),
            PolicyCall::NoteSharedWeak(k, f, b) => fold(h, fresh.note_shared_weak(k, f, b) as u64),
            PolicyCall::Ranked(k) => {
                let found = fresh.ranked_into(k, &mut out);
                fold_ranked(h, found, &out)
            }
        };
    }
    Replay {
        ns: now_ns() - t0,
        calls: log.len() as u64,
        outputs: h,
    }
}

/// The feature-extraction stage's inputs: every access context paired
/// with the active-prefix length the reducer chose for it, plus the fold
/// of the `(full hash, key)` pairs the pipeline used.
pub struct FeatureLog {
    /// `(context, active prefix length)` per access, in order.
    pub inputs: Vec<(AccessContext, usize)>,
    /// Fold of the recorded `(full hash, key)` outputs.
    pub outputs: u64,
}

/// Rebuild the feature stage's inputs from a cell's two logs: each
/// `on_access` makes exactly one `note_shared_weak` call carrying the full
/// hash and the reduced key. The active length is recovered by matching
/// the key against every prefix (untimed). `None` when the logs do not
/// pair up, which fails the cell.
pub fn feature_log(
    features: FeatureSet,
    block_shift: u32,
    pf_log: &[PfCall],
    policy_log: &[PolicyCall],
) -> Option<FeatureLog> {
    let ctxs = pf_log.iter().filter_map(|c| match c {
        PfCall::Access(ctx, _) => Some(ctx),
        _ => None,
    });
    let notes: Vec<(ContextKey, u16)> = policy_log
        .iter()
        .filter_map(|c| match *c {
            PolicyCall::NoteSharedWeak(k, f, _) => Some((k, f)),
            _ => None,
        })
        .collect();
    let mut inputs = Vec::with_capacity(notes.len());
    let mut h = FOLD_SEED;
    let mut ctxs = ctxs.peekable();
    for &(key, full) in &notes {
        let ctx = ctxs.next()?;
        let f = features.extract(ctx, block_shift);
        if f.full_hash().0 != full {
            return None;
        }
        let active = (1..=features.attr_count()).find(|&a| f.key(a) == key)?;
        inputs.push(((**ctx).clone(), active));
        h = fold(fold(h, full as u64), key.0 as u64);
    }
    if ctxs.peek().is_some() {
        return None;
    }
    Some(FeatureLog { inputs, outputs: h })
}

/// Replay the feature stage: extract, full hash and reduced key per
/// access, in one timed loop.
pub fn replay_features(features: FeatureSet, block_shift: u32, log: &FeatureLog) -> Replay {
    let mut h = FOLD_SEED;
    let t0 = now_ns();
    for (ctx, active) in &log.inputs {
        let f = features.extract(ctx, block_shift);
        h = fold(fold(h, f.full_hash().0 as u64), f.key(*active).0 as u64);
    }
    Replay {
        ns: now_ns() - t0,
        calls: log.inputs.len() as u64,
        outputs: h,
    }
}
