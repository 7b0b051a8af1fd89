//! Tie-break properties of the `ScoredSet` scans, checked against naive
//! `Iterator` references over tie-dense inputs: eviction under
//! `LowestScore` takes the first minimum score, under `Fifo` the first
//! minimum insertion stamp, and `best()` the last maximum score.

use proptest::prelude::*;
use semloc_bandit::scored::Replacement;
use semloc_bandit::ScoredSet;

/// Scores crowded onto the rails and a tiny alphabet, so equal minima and
/// maxima (where tie-break order matters) occur constantly.
fn score_i8() -> impl Strategy<Value = i8> {
    prop_oneof![Just(i8::MIN), Just(i8::MAX), -2i8..3, any::<i8>(),]
}

fn stamp_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..4, any::<u32>()]
}

/// A set restored to hold `slots` (action `i` in slot `i`).
fn set_of<const N: usize>(policy: Replacement, slots: &[(i8, u32)]) -> ScoredSet<u64, N> {
    let raw: Vec<(u64, i8, u32)> = slots
        .iter()
        .enumerate()
        .map(|(i, &(score, at))| (i as u64, score, at))
        .collect();
    let mut set = ScoredSet::new(policy);
    set.restore_raw(7, &raw).expect("slots fit the capacity");
    set
}

/// The slot a full set of capacity `N` evicts on inserting a new action.
fn evicted_slot<const N: usize>(policy: Replacement, slots: &[(i8, u32)]) -> Option<u64> {
    let mut set = set_of::<N>(policy, &slots[..N]);
    let evicted = set.insert(u64::MAX);
    evicted.map(|(action, score)| {
        assert_eq!(score, slots[action as usize].0, "evicted score");
        action
    })
}

fn first_min<T: Ord + Copy>(v: impl Iterator<Item = T>) -> Option<u64> {
    v.enumerate().min_by_key(|(_, k)| *k).map(|(i, _)| i as u64)
}

proptest! {
    #[test]
    fn lowest_score_evicts_the_first_minimum(
        slots in collection::vec((score_i8(), stamp_u32()), 16..17),
    ) {
        for n in [4usize, 16] {
            let got = match n {
                4 => evicted_slot::<4>(Replacement::LowestScore, &slots),
                _ => evicted_slot::<16>(Replacement::LowestScore, &slots),
            };
            prop_assert_eq!(got, first_min(slots[..n].iter().map(|s| s.0)), "N = {}", n);
        }
    }

    #[test]
    fn fifo_evicts_the_first_minimum_stamp(
        slots in collection::vec((score_i8(), stamp_u32()), 16..17),
    ) {
        for n in [4usize, 16] {
            let got = match n {
                4 => evicted_slot::<4>(Replacement::Fifo, &slots),
                _ => evicted_slot::<16>(Replacement::Fifo, &slots),
            };
            prop_assert_eq!(got, first_min(slots[..n].iter().map(|s| s.1)), "N = {}", n);
        }
    }

    #[test]
    fn best_is_the_last_maximum(
        slots in collection::vec((score_i8(), stamp_u32()), 0..17),
    ) {
        let set = set_of::<16>(Replacement::LowestScore, &slots);
        let want = slots
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.0)
            .map(|(i, s)| (i as u64, s.0));
        prop_assert_eq!(set.best(), want);
    }
}
