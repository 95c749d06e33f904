//! The workspace's one pseudo-random generator and the property-test
//! runner built on it.
//!
//! [`Rng`] is a seeded xorshift64\*: the same seed gives the same stream
//! on every platform, which is what the simulated network's loss and
//! jitter draws, the stress drivers and `syd_check::synth` rely on when
//! a bug report cites a seed. Not for anything an adversary must not
//! predict — credential IVs are drawn elsewhere (`syd_core::env`).

use std::panic::{catch_unwind, AssertUnwindSafe, Location};

/// Deterministic xorshift64* generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (zero is remapped to a fixed odd constant).
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Any `u64`; every fourth draw is within one of a power of two
    /// (0, 1, 127, 128, 2⁶³, `u64::MAX`, …), where encodings change
    /// length and arithmetic wraps. Cast for edge-biased `i64`s.
    pub fn any_u64(&mut self) -> u64 {
        if self.below(4) > 0 {
            return self.next_u64();
        }
        let power = 1u64.checked_shl(self.below(65) as u32).unwrap_or(0);
        power.wrapping_add(self.below(3)).wrapping_sub(1)
    }

    /// Up to `max_len` arbitrary bytes.
    pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len as u64 + 1);
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Up to `max_chars` arbitrary scalars: printable ASCII mixed with
    /// control characters (NUL, newline, DEL), quotes and backslashes,
    /// multi-byte and astral code points — what escaping code gets wrong.
    pub fn string(&mut self, max_chars: usize) -> String {
        let len = self.below(max_chars as u64 + 1);
        (0..len).map(|_| self.any_char()).collect()
    }

    fn any_char(&mut self) -> char {
        let code = match self.below(8) {
            0 => [0x00, 0x09, 0x0a, 0x0d, 0x1b, 0x1f, 0x7f][self.below(7) as usize],
            1 => return ['"', '\\', '\'', '/'][self.below(4) as usize],
            2 => 0x80 + self.below(0xd800 - 0x80),
            3 => 0x1_0000 + self.below(0x11_0000 - 0x1_0000),
            _ => 0x20 + self.below(0x7f - 0x20),
        };
        // Every range above avoids the surrogates, so this never falls back.
        char::from_u32(code as u32).unwrap_or(char::REPLACEMENT_CHARACTER)
    }
}

/// Runs `property` on `n` generated cases (8 under Miri).
///
/// Each case gets an [`Rng`] whose seed derives from the caller's source
/// location and the case index, so every property explores its own
/// inputs and a failure repeats on every run. A failing case panics
/// again with its index and seed after the property's own message.
#[track_caller]
pub fn cases(n: u32, mut property: impl FnMut(&mut Rng)) {
    let at = Location::caller();
    let mut base = 0xcbf2_9ce4_8422_2325u64; // FNV-1a of file ‖ line
    for byte in at.file().bytes().chain(at.line().to_le_bytes()) {
        base = (base ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut seeds = Rng::new(base);
    let n = if cfg!(miri) { n.min(8) } else { n };
    for case in 0..n {
        let seed = seeds.next_u64();
        let mut rng = Rng::new(seed);
        if catch_unwind(AssertUnwindSafe(|| property(&mut rng))).is_err() {
            panic!("property at {at} failed on case {case} of {n}, seed {seed:#018x}");
        }
    }
}
