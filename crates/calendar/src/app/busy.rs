//! The slot ordinals a device holds a `slots` row for, as packed bits.
//!
//! Meeting setup asks every member for its free slots over a window (§5).
//! A member answers from these words — one complement per 64 slots —
//! and reads no row. [`CalendarApp`](super::CalendarApp) keeps them in
//! step with its rows: the only two writers of a `slots` row change the
//! bit under the same guard as the row.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use syd_types::{SlotBitmap, SlotRange, TimeSlot};

/// A set of slot ordinals as the non-zero words of one bitset: word `k`
/// holds ordinals `64k .. 64k + 64`, bit `o % 64` for ordinal `o`. Only
/// non-zero words are kept, so a far-future ordinal costs one word and
/// not a vector up to it.
#[derive(Default)]
pub(crate) struct BusyWords(BTreeMap<u64, u64>);

impl BusyWords {
    pub(crate) fn contains(&self, ordinal: u64) -> bool {
        self.word(ordinal / 64) & bit(ordinal) != 0
    }

    pub(crate) fn insert(&mut self, ordinal: u64) {
        *self.0.entry(ordinal / 64).or_insert(0) |= bit(ordinal);
    }

    pub(crate) fn remove(&mut self, ordinal: u64) {
        if let Entry::Occupied(mut word) = self.0.entry(ordinal / 64) {
            *word.get_mut() &= !bit(ordinal);
            if *word.get() == 0 {
                word.remove();
            }
        }
    }

    /// Availability over `[start, end)` (empty when `end <= start`): a
    /// slot is free iff its ordinal is not in the set.
    pub(crate) fn free_bitmap(&self, start: u64, end: u64) -> SlotBitmap {
        let range = SlotRange::new(
            TimeSlot::from_ordinal(start),
            TimeSlot::from_ordinal(end.max(start)),
        );
        SlotBitmap::from_busy(range, |from| self.bits_from(from))
    }

    /// The 64 membership bits from ordinal `from`: bit `j` is `from + j`.
    fn bits_from(&self, from: u64) -> u64 {
        let (k, r) = (from / 64, from % 64);
        let lo = self.word(k) >> r;
        if r == 0 {
            lo
        } else {
            lo | self.word(k + 1) << (64 - r)
        }
    }

    fn word(&self, k: u64) -> u64 {
        self.0.get(&k).copied().unwrap_or(0)
    }
}

fn bit(ordinal: u64) -> u64 {
    1 << (ordinal % 64)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn set(ordinals: &[u64]) -> BusyWords {
        let mut busy = BusyWords::default();
        for &o in ordinals {
            busy.insert(o);
        }
        busy
    }

    /// The reference: every ordinal of the window, one at a time.
    fn by_slot(busy: &BusyWords, start: u64, end: u64) -> Vec<u64> {
        (start..end).filter(|&o| !busy.contains(o)).collect()
    }

    fn free(bm: &SlotBitmap) -> Vec<u64> {
        bm.free_slots().map(TimeSlot::ordinal).collect()
    }

    #[test]
    fn windows_at_every_word_edge_agree_with_the_slots() {
        let busy = set(&[0, 62, 63, 64, 65, 127, 128, 129, 200, 1000]);
        for start in [0, 1, 62, 63, 64, 65, 127, 128, 129, 190] {
            for len in [0, 1, 63, 64, 65, 127, 128, 129, 300] {
                let bm = busy.free_bitmap(start, start + len);
                assert_eq!(bm.len() as u64, len);
                assert_eq!(
                    free(&bm),
                    by_slot(&busy, start, start + len),
                    "[{start}, +{len})"
                );
            }
        }
    }

    #[test]
    fn a_window_past_the_last_word_is_all_free_and_a_reversed_one_empty() {
        let busy = set(&[5, 70]);
        assert_eq!(busy.free_bitmap(500, 600).count_free(), 100);
        assert!(busy.free_bitmap(80, 10).is_empty());
        assert!(busy.free_bitmap(64, 64).is_empty());
    }

    #[test]
    fn a_far_ordinal_costs_one_word_and_an_emptied_word_goes() {
        let far = 24 * 366 * 1000;
        let mut busy = set(&[3, far]);
        assert_eq!(busy.0.len(), 2);
        assert!(busy.contains(far) && !busy.contains(far + 1));
        busy.remove(far);
        busy.remove(far); // removing an absent ordinal is a no-op
        busy.remove(4);
        assert_eq!(busy.0.len(), 1);
        busy.remove(3);
        assert!(busy.0.is_empty());
    }
}
