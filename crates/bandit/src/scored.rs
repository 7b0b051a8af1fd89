//! A fixed-capacity set of actions with saturating integer scores.
//!
//! This is the policy core of a context-states-table entry: each stored
//! context keeps up to `N` candidate actions (address deltas, in the
//! prefetcher), each with a 1-byte score updated by rewards. Insertion
//! evicts the lowest-scoring candidate — "a score-based replacement policy,
//! which benefits pairs that gained positive rewards" (§5) — expanding the
//! exploration space while protecting proven actions.

use rand::{Rng, RngExt};

/// Replacement policy used when inserting into a full [`ScoredSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Evict the candidate with the lowest score (the paper's policy).
    #[default]
    LowestScore,
    /// Evict the oldest candidate (ablation baseline).
    Fifo,
}

/// Up to `N` scored candidate actions.
///
/// Stored structure-of-arrays: the score scan of an eviction or a
/// best-candidate probe touches one small contiguous array instead of
/// striding over interleaved slots. The scans are plain loops: at the
/// paper's 4 links per entry they sit far below any SIMD crossover.
/// `Default` supplies the filler for unused action slots — never
/// observable, since every read is bounded by the live length.
///
/// ```rust
/// use semloc_bandit::ScoredSet;
///
/// let mut actions: ScoredSet<u64, 4> = ScoredSet::default();
/// actions.insert(0xA0);
/// actions.insert(0xB0);
/// actions.reward(0xB0, 16);
/// assert_eq!(actions.best(), Some((0xB0, 16)));
/// ```
#[derive(Clone, Debug)]
pub struct ScoredSet<A, const N: usize> {
    actions: [A; N],
    scores: [i8; N],
    inserted_at: [u32; N],
    len: u8,
    policy: Replacement,
    clock: u32,
}

impl<A: Copy + Eq + Default, const N: usize> Default for ScoredSet<A, N> {
    fn default() -> Self {
        Self::new(Replacement::default())
    }
}

impl<A: Copy + Eq + Default, const N: usize> ScoredSet<A, N> {
    /// An empty set with the given replacement policy.
    pub fn new(policy: Replacement) -> Self {
        ScoredSet {
            actions: [A::default(); N],
            scores: [0; N],
            inserted_at: [0; N],
            len: 0,
            policy,
            clock: 0,
        }
    }

    /// Number of stored candidates.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of `action` among the live slots, if stored.
    #[inline]
    fn position(&self, action: A) -> Option<usize> {
        self.actions[..self.len()].iter().position(|&a| a == action)
    }

    /// Insert `action` with score 0 if not already present. When full, the
    /// replacement policy selects a victim. Returns the evicted action and
    /// its score, if any.
    #[allow(clippy::expect_used)]
    pub fn insert(&mut self, action: A) -> Option<(A, i8)> {
        self.clock = self.clock.wrapping_add(1);
        if self.position(action).is_some() {
            return None;
        }
        let len = self.len();
        if len < N {
            self.actions[len] = action;
            self.scores[len] = 0;
            self.inserted_at[len] = self.clock;
            self.len += 1;
            return None;
        }
        // First minimum of the policy's key (the `min_by_key` tie-break).
        let victim = match self.policy {
            Replacement::LowestScore => (0..N).min_by_key(|&i| self.scores[i]),
            Replacement::Fifo => (0..N).min_by_key(|&i| self.inserted_at[i]),
        }
        // semloc-lint: allow(no-unwrap): eviction path only runs when the set is full
        .expect("full set is non-empty");
        let evicted = (self.actions[victim], self.scores[victim]);
        self.actions[victim] = action;
        self.scores[victim] = 0;
        self.inserted_at[victim] = self.clock;
        Some(evicted)
    }

    /// Apply a saturating score delta to `action`. Returns `false` when the
    /// action is not stored.
    pub fn reward(&mut self, action: A, delta: i32) -> bool {
        self.reward_capped(action, delta, i8::MAX)
    }

    /// Like [`ScoredSet::reward`], but positive deltas cannot raise the
    /// score above `cap` (scores already above `cap` are left untouched).
    /// Used for *partial credit* — e.g. late prefetch hits that only
    /// shortened a wait — so such credit saturates early and can never
    /// outrank fully timely candidates.
    pub fn reward_capped(&mut self, action: A, delta: i32, cap: i8) -> bool {
        match self.position(action) {
            Some(i) => {
                let old = self.scores[i];
                let mut new = (old as i32 + delta).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
                if delta > 0 {
                    new = new.min(cap.max(old));
                }
                self.scores[i] = new;
                true
            }
            None => false,
        }
    }

    /// The stored score of `action`, if present.
    pub fn score_of(&self, action: A) -> Option<i8> {
        self.position(action).map(|i| self.scores[i])
    }

    /// The highest-scoring candidate; ties go to the last slot (the
    /// `max_by_key` tie-break).
    pub fn best(&self) -> Option<(A, i8)> {
        (0..self.len())
            .max_by_key(|&i| self.scores[i])
            .map(|i| (self.actions[i], self.scores[i]))
    }

    /// All candidates, highest score first.
    pub fn ranked(&self) -> Vec<(A, i8)> {
        let mut v: Vec<(A, i8)> = (0..self.len())
            .map(|i| (self.actions[i], self.scores[i]))
            .collect();
        v.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
        v
    }

    /// Copy all candidates into `out` (cleared first) in slot order,
    /// *unsorted*. Lets callers rank with their own tie-break in one stable
    /// sort without an allocation per lookup; sorting `out` by score
    /// descending reproduces [`ScoredSet::ranked`] exactly (both sorts are
    /// stable over the same slot order).
    pub fn ranked_into(&self, out: &mut Vec<(A, i8)>) {
        out.clear();
        out.extend((0..self.len()).map(|i| (self.actions[i], self.scores[i])));
    }

    /// A uniformly random stored candidate (the ε-greedy exploration draw:
    /// "choosing a random address from the set of previously correlated
    /// ones").
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<A> {
        if self.is_empty() {
            None
        } else {
            Some(self.actions[rng.random_range(0..self.len())])
        }
    }

    /// The insertion clock driving FIFO eviction ages (checkpoint state:
    /// restoring it preserves future eviction order exactly).
    pub fn clock(&self) -> u32 {
        self.clock
    }

    /// Every slot as `(action, score, inserted_at)` in internal slot order,
    /// for checkpointing. Slot order matters: lookup tie-breaks and the
    /// stable ranking walk slots in this order.
    pub fn slots_raw(&self) -> impl Iterator<Item = (A, i8, u32)> + '_ {
        (0..self.len()).map(|i| (self.actions[i], self.scores[i], self.inserted_at[i]))
    }

    /// Rebuild the set from raw checkpoint state captured by
    /// [`ScoredSet::clock`] + [`ScoredSet::slots_raw`]. The replacement
    /// policy is construction configuration and is kept as-is.
    ///
    /// Fails when `slots` exceeds the set's capacity `N`.
    pub fn restore_raw(&mut self, clock: u32, slots: &[(A, i8, u32)]) -> std::io::Result<()> {
        if slots.len() > N {
            return Err(semloc_trace::snap_err(format!(
                "scored-set snapshot has {} slots, capacity is {N}",
                slots.len()
            )));
        }
        self.clock = clock;
        self.actions = [A::default(); N];
        self.scores = [0; N];
        self.inserted_at = [0; N];
        self.len = slots.len() as u8;
        for (i, &(action, score, inserted_at)) in slots.iter().enumerate() {
            self.actions[i] = action;
            self.scores[i] = score;
            self.inserted_at[i] = inserted_at;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Set = ScoredSet<u64, 4>;

    #[test]
    fn fills_then_evicts_lowest() {
        let mut s = Set::default();
        for a in 1..=4u64 {
            assert_eq!(s.insert(a), None);
        }
        s.reward(1, 10);
        s.reward(2, 5);
        s.reward(3, -5);
        s.reward(4, 1);
        let evicted = s.insert(99);
        assert_eq!(evicted, Some((3, -5)), "lowest-scoring candidate must go");
        assert_eq!(s.len(), 4);
        assert_eq!(s.score_of(99), Some(0));
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut s = Set::default();
        s.insert(7);
        s.reward(7, 20);
        assert_eq!(s.insert(7), None);
        assert_eq!(
            s.score_of(7),
            Some(20),
            "reinsertion must not reset the score"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fifo_policy_evicts_oldest() {
        let mut s: ScoredSet<u64, 2> = ScoredSet::new(Replacement::Fifo);
        s.insert(1);
        s.insert(2);
        s.reward(1, 100); // high score should NOT protect under FIFO
        assert_eq!(s.insert(3), Some((1, 100)));
    }

    #[test]
    fn scores_saturate() {
        let mut s = Set::default();
        s.insert(1);
        for _ in 0..100 {
            s.reward(1, 50);
        }
        assert_eq!(s.score_of(1), Some(i8::MAX));
        for _ in 0..100 {
            s.reward(1, -50);
        }
        assert_eq!(s.score_of(1), Some(i8::MIN));
    }

    #[test]
    fn best_and_ranked_agree() {
        let mut s = Set::default();
        s.insert(10);
        s.insert(20);
        s.insert(30);
        s.reward(20, 9);
        s.reward(30, 3);
        assert_eq!(s.best(), Some((20, 9)));
        let ranked = s.ranked();
        assert_eq!(ranked[0], (20, 9));
        assert_eq!(ranked[1], (30, 3));
        assert_eq!(ranked[2], (10, 0));
    }

    #[test]
    fn random_draws_only_stored_actions() {
        let mut s = Set::default();
        assert!(s.random(&mut StdRng::seed_from_u64(0)).is_none());
        s.insert(5);
        s.insert(6);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(s.random(&mut rng).unwrap());
        }
        assert_eq!(seen, [5u64, 6].into_iter().collect());
    }

    #[test]
    fn ranked_into_sorted_matches_ranked() {
        let mut s = Set::default();
        s.insert(10);
        s.insert(20);
        s.insert(30);
        s.insert(40);
        s.reward(20, 9);
        s.reward(40, 9); // tie with 20: stability must keep slot order
        s.reward(30, 3);
        let mut buf = Vec::new();
        s.ranked_into(&mut buf);
        buf.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
        assert_eq!(buf, s.ranked());
    }

    #[test]
    fn reward_on_missing_action_reports_false() {
        let mut s = Set::default();
        assert!(!s.reward(42, 1));
    }

    #[test]
    fn raw_round_trip_preserves_eviction_order() {
        let mut s: ScoredSet<u64, 2> = ScoredSet::new(Replacement::Fifo);
        s.insert(1);
        s.insert(2);
        let raw: Vec<_> = s.slots_raw().collect();
        let mut t: ScoredSet<u64, 2> = ScoredSet::new(Replacement::Fifo);
        t.restore_raw(s.clock(), &raw).unwrap();
        // Under FIFO, the restored set must evict the same (oldest) victim.
        assert_eq!(s.insert(3), t.insert(3));
        assert_eq!(s.clock(), t.clock());
        assert_eq!(
            s.slots_raw().collect::<Vec<_>>(),
            t.slots_raw().collect::<Vec<_>>()
        );
    }

    #[test]
    fn raw_restore_rejects_overflow() {
        let mut t: ScoredSet<u64, 2> = ScoredSet::default();
        let too_many = [(1u64, 0i8, 1u32), (2, 0, 2), (3, 0, 3)];
        assert!(t.restore_raw(9, &too_many).is_err());
    }
}
