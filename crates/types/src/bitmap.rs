//! Availability bitmaps: a calendar window's free slots as packed bits.
//!
//! The paper's meeting-setup scenario asks every attendee for "available
//! time slots between dates d1 and d2" (§5). Shipping that answer as a
//! list of slot ordinals costs a varint per free slot — tens of bytes per
//! mostly-free day — and intersecting `n` replies is an `O(n·m)`
//! membership scan. A [`SlotBitmap`] packs the same window into one bit
//! per slot (a whole [`SLOTS_PER_DAY`](crate::time::SLOTS_PER_DAY)-slot day fits comfortably in a
//! single 64-bit word), so a fortnight's availability is ≈ 51 bytes on the
//! wire regardless of density, and intersection is a bitwise AND.
//!
//! Bit `i` covers slot ordinal `start + i`; a **set** bit means *free*.
//! Bits outside the window read as busy, which makes intersection over
//! mismatched windows conservative — exactly what a scheduler wants.

use core::fmt;

use crate::error::{SydError, SydResult};
use crate::time::{SlotRange, TimeSlot};

/// Packed free/busy availability over a half-open slot window.
///
/// Invariants: `words.len() == len.div_ceil(64)` and every bit at index
/// `>= len` is zero, so whole-word operations never leak phantom slots.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SlotBitmap {
    /// Ordinal of the first covered slot (bit 0).
    start: u64,
    /// Number of covered slots (bits).
    len: u32,
    /// Packed bits, least-significant bit first within each word.
    words: Vec<u64>,
}

impl SlotBitmap {
    /// An all-busy bitmap over `range` (no bit set).
    pub fn empty(range: SlotRange) -> SlotBitmap {
        let (start, len) = range_bounds(range);
        SlotBitmap {
            start,
            len,
            words: vec![0; word_count(len)],
        }
    }

    /// An all-free bitmap over `range` (every in-window bit set).
    pub fn all_free(range: SlotRange) -> SlotBitmap {
        let (start, len) = range_bounds(range);
        let mut words = vec![u64::MAX; word_count(len)];
        mask_trailing(&mut words, len);
        SlotBitmap { start, len, words }
    }

    /// A bitmap over `range` in which a slot is free unless `busy_from`
    /// marks it busy. `busy_from(o)` returns the busy bits of the 64
    /// slots from ordinal `o` (bit `j` is slot `o + j`); it is asked once
    /// per word, for `o` = the window's start, then every 64 slots on.
    pub fn from_busy(range: SlotRange, mut busy_from: impl FnMut(u64) -> u64) -> SlotBitmap {
        let (start, len) = range_bounds(range);
        let mut words: Vec<u64> = (0..word_count(len) as u64)
            .map(|w| !busy_from(start + w * 64))
            .collect();
        mask_trailing(&mut words, len);
        SlotBitmap { start, len, words }
    }

    /// Builds a bitmap over `range` with exactly `free` marked free.
    /// Slots outside the window are ignored.
    pub fn from_free_slots<I>(range: SlotRange, free: I) -> SlotBitmap
    where
        I: IntoIterator<Item = TimeSlot>,
    {
        let mut bm = SlotBitmap::empty(range);
        for slot in free {
            bm.set_free(slot);
        }
        bm
    }

    /// Ordinal of the first covered slot.
    pub fn start_ordinal(&self) -> u64 {
        self.start
    }

    /// Number of covered slots.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True iff the window covers no slots at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The covered window as a half-open [`SlotRange`].
    pub fn range(&self) -> SlotRange {
        SlotRange::new(
            TimeSlot::from_ordinal(self.start),
            TimeSlot::from_ordinal(self.start + self.len as u64),
        )
    }

    /// Marks `slot` free. Out-of-window slots are ignored.
    pub fn set_free(&mut self, slot: TimeSlot) {
        if let Some((w, b)) = self.position(slot) {
            self.words[w] |= 1 << b;
        }
    }

    /// Marks `slot` busy. Out-of-window slots are ignored.
    pub fn set_busy(&mut self, slot: TimeSlot) {
        if let Some((w, b)) = self.position(slot) {
            self.words[w] &= !(1 << b);
        }
    }

    /// True iff `slot` is inside the window and marked free.
    pub fn is_free(&self, slot: TimeSlot) -> bool {
        self.position(slot)
            .is_some_and(|(w, b)| self.words[w] & (1 << b) != 0)
    }

    /// Number of free slots in the window.
    pub fn count_free(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Intersects in place: a slot stays free only if free in **both**
    /// maps. `other` may cover a different window — its out-of-window
    /// slots read as busy, so the result is conservative. One AND per
    /// 64 slots, however dense the calendars.
    pub fn and_assign(&mut self, other: &SlotBitmap) {
        for (w, word) in self.words.iter_mut().enumerate() {
            *word &= other.window(self.start + (w as u64) * 64);
        }
    }

    /// The 64 bits starting at `from_ordinal`: bit `j` of the result is
    /// this map's free bit for slot `from_ordinal + j` (busy if outside
    /// the window).
    fn window(&self, from_ordinal: u64) -> u64 {
        if from_ordinal < self.start {
            let lead = self.start - from_ordinal;
            if lead >= 64 {
                return 0;
            }
            // The first `lead` result bits precede the window.
            return self.window(self.start) << lead;
        }
        let off = from_ordinal - self.start;
        let k = (off / 64) as usize;
        let r = (off % 64) as u32;
        let lo = self.words.get(k).copied().unwrap_or(0) >> r;
        let hi = if r == 0 {
            0
        } else {
            self.words.get(k + 1).copied().unwrap_or(0) << (64 - r)
        };
        lo | hi
    }

    /// Iterates the free slots in ascending order.
    pub fn free_slots(&self) -> impl Iterator<Item = TimeSlot> + '_ {
        let start = self.start;
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let base = start + (w as u64) * 64;
            BitIter(word).map(move |b| TimeSlot::from_ordinal(base + b as u64))
        })
    }

    /// The free slots collected into a vector, ascending.
    pub fn to_slots(&self) -> Vec<TimeSlot> {
        self.free_slots().collect()
    }

    /// The packed words, least-significant bit first (for codecs).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from its raw parts, enforcing the invariants:
    /// the word count must match `len` and no bit at index `>= len` may
    /// be set (the representation is canonical).
    pub fn from_raw_parts(start: u64, len: u32, words: Vec<u64>) -> SydResult<SlotBitmap> {
        let err = |what: &str| SydError::Protocol(format!("slot bitmap: {what}"));
        if words.len() != word_count(len) {
            return Err(err("word count mismatch"));
        }
        let mut masked = words.clone();
        mask_trailing(&mut masked, len);
        if masked != words {
            return Err(err("set bits beyond window"));
        }
        Ok(SlotBitmap { start, len, words })
    }

    fn position(&self, slot: TimeSlot) -> Option<(usize, u32)> {
        let ord = slot.ordinal();
        if ord < self.start || ord - self.start >= self.len as u64 {
            return None;
        }
        let off = ord - self.start;
        Some(((off / 64) as usize, (off % 64) as u32))
    }
}

impl fmt::Debug for SlotBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SlotBitmap({}, {} free of {})",
            self.range(),
            self.count_free(),
            self.len
        )
    }
}

/// `(start ordinal, slot count)` of a half-open range, saturating the
/// count at `u32::MAX` (a window that large is ~490k years of hours).
fn range_bounds(range: SlotRange) -> (u64, u32) {
    let start = range.start.ordinal();
    let len = range.end.ordinal().saturating_sub(start);
    (start, u32::try_from(len).unwrap_or(u32::MAX))
}

/// Words needed for `len` bits.
fn word_count(len: u32) -> usize {
    (len as usize).div_ceil(64)
}

/// Zeroes every bit at index `>= len` in the final word.
fn mask_trailing(words: &mut [u64], len: u32) {
    let tail = len % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Iterator over the set-bit indices of one word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::time::SLOTS_PER_DAY;

    fn day_range(from: u32, to: u32) -> SlotRange {
        SlotRange::days(from, to)
    }

    #[test]
    fn all_free_and_empty_bounds() {
        let r = day_range(1, 3);
        let free = SlotBitmap::all_free(r);
        assert_eq!(free.count_free(), 2 * SLOTS_PER_DAY as u32);
        assert!(free.is_free(TimeSlot::new(1, 0)));
        assert!(free.is_free(TimeSlot::new(2, SLOTS_PER_DAY - 1)));
        assert!(!free.is_free(TimeSlot::new(0, SLOTS_PER_DAY - 1)));
        assert!(!free.is_free(TimeSlot::new(3, 0)));
        let empty = SlotBitmap::empty(r);
        assert_eq!(empty.count_free(), 0);
        assert_eq!(empty.range(), r);
    }

    #[test]
    fn set_and_clear_round_trip() {
        let mut bm = SlotBitmap::empty(day_range(0, 2));
        let slot = TimeSlot::new(1, 5);
        bm.set_free(slot);
        assert!(bm.is_free(slot));
        assert_eq!(bm.to_slots(), vec![slot]);
        bm.set_busy(slot);
        assert!(!bm.is_free(slot));
        // Out-of-window writes are ignored, not panics.
        bm.set_free(TimeSlot::new(9, 0));
        assert_eq!(bm.count_free(), 0);
    }

    #[test]
    fn intersection_matches_set_semantics() {
        let r = day_range(0, 4);
        let a_free = [
            TimeSlot::new(0, 3),
            TimeSlot::new(1, 10),
            TimeSlot::new(3, 23),
        ];
        let b_free = [
            TimeSlot::new(1, 10),
            TimeSlot::new(3, 23),
            TimeSlot::new(2, 0),
        ];
        let mut a = SlotBitmap::from_free_slots(r, a_free);
        let b = SlotBitmap::from_free_slots(r, b_free);
        a.and_assign(&b);
        assert_eq!(
            a.to_slots(),
            vec![TimeSlot::new(1, 10), TimeSlot::new(3, 23)]
        );
    }

    #[test]
    fn intersection_over_mismatched_windows_is_conservative() {
        // a covers days 0..4, b only day 1 — everything outside b's
        // window must come out busy, whatever a says.
        let mut a = SlotBitmap::all_free(day_range(0, 4));
        let b = SlotBitmap::all_free(day_range(1, 2));
        a.and_assign(&b);
        let expect: Vec<TimeSlot> = day_range(1, 2).iter().collect();
        assert_eq!(a.to_slots(), expect);

        // And the offset case: b starts *before* a.
        let mut c = SlotBitmap::all_free(day_range(2, 5));
        let d = SlotBitmap::all_free(day_range(0, 3));
        c.and_assign(&d);
        let expect: Vec<TimeSlot> = day_range(2, 3).iter().collect();
        assert_eq!(c.to_slots(), expect);
    }

    /// `words` packs, `from_raw_parts` unpacks: the pair every codec of
    /// a bitmap is built on.
    #[test]
    fn pack_unpack_round_trip() {
        let r = day_range(3, 17);
        let mut bm = SlotBitmap::all_free(r);
        bm.set_busy(TimeSlot::new(5, 9));
        bm.set_busy(TimeSlot::new(16, 0));
        // 14 days of hourly slots: 6 words.
        assert_eq!(bm.words().len(), (14 * SLOTS_PER_DAY as usize).div_ceil(64));
        let back =
            SlotBitmap::from_raw_parts(bm.start_ordinal(), bm.len(), bm.words().to_vec()).unwrap();
        assert_eq!(back, bm);
        assert_eq!(back.words(), bm.words());
        assert!(!back.is_free(TimeSlot::new(5, 9)));
        assert!(back.is_free(TimeSlot::new(5, 10)));
    }

    #[test]
    fn unpack_rejects_malformed_buffers() {
        let bm = SlotBitmap::all_free(day_range(0, 1));
        let (start, len) = (bm.start_ordinal(), bm.len());
        // A word too few, and a word too many.
        assert!(SlotBitmap::from_raw_parts(start, len, Vec::new()).is_err());
        assert!(SlotBitmap::from_raw_parts(start, len, vec![bm.words()[0], 0]).is_err());
        // A set bit beyond `len` breaks canonicality.
        assert!(SlotBitmap::from_raw_parts(start, len, vec![1 << 63]).is_err());
        assert!(SlotBitmap::from_raw_parts(start, len, vec![bm.words()[0] | 1 << 24]).is_err());
    }

    #[test]
    fn fixed_size_beats_ordinal_lists_when_dense() {
        // The win the paper's scenario cares about: a mostly-free
        // fortnight costs the same words as an empty one (the codec
        // writes the window and the words, nothing else).
        let r = day_range(0, 14);
        let dense = SlotBitmap::all_free(r);
        let sparse = SlotBitmap::empty(r);
        assert_eq!(dense.words().len(), sparse.words().len());
        assert_eq!(
            dense.words().len(),
            (14 * SLOTS_PER_DAY as usize).div_ceil(64)
        );
    }
}
