//! The Tiny Encryption Algorithm (Wheeler & Needham, FSE 1994) — the
//! paper's reference \[22\].
//!
//! TEA encrypts a 64-bit block (two `u32` halves) under a 128-bit key
//! (four `u32` words) with 32 cycles of a Feistel-like mix using the
//! magic constant `DELTA = 0x9E3779B9` (derived from the golden ratio).

/// TEA block size in bytes.
pub const BLOCK_SIZE: usize = 8;

/// The golden-ratio-derived round constant.
const DELTA: u32 = 0x9E37_79B9;

/// Number of cycles (each cycle is two Feistel rounds).
const CYCLES: u32 = 32;

/// A 128-bit TEA key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TeaKey(pub [u32; 4]);

impl TeaKey {
    /// Builds a key from four words.
    pub const fn new(k: [u32; 4]) -> Self {
        TeaKey(k)
    }

    /// Builds a key from 16 little-endian bytes.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        let mut k = [0u32; 4];
        for (i, word) in k.iter_mut().enumerate() {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[i * 4..i * 4 + 4]);
            *word = u32::from_le_bytes(b);
        }
        TeaKey(k)
    }

    /// Encrypts one 64-bit block in place.
    pub fn encrypt_block(&self, block: &mut [u32; 2]) {
        let [k0, k1, k2, k3] = self.0;
        let [mut v0, mut v1] = *block;
        let mut sum: u32 = 0;
        for _ in 0..CYCLES {
            sum = sum.wrapping_add(DELTA);
            v0 = v0.wrapping_add(
                (v1 << 4).wrapping_add(k0) ^ v1.wrapping_add(sum) ^ (v1 >> 5).wrapping_add(k1),
            );
            v1 = v1.wrapping_add(
                (v0 << 4).wrapping_add(k2) ^ v0.wrapping_add(sum) ^ (v0 >> 5).wrapping_add(k3),
            );
        }
        *block = [v0, v1];
    }

    /// Decrypts one 64-bit block in place.
    pub fn decrypt_block(&self, block: &mut [u32; 2]) {
        let [k0, k1, k2, k3] = self.0;
        let [mut v0, mut v1] = *block;
        let mut sum: u32 = DELTA.wrapping_mul(CYCLES);
        for _ in 0..CYCLES {
            v1 = v1.wrapping_sub(
                (v0 << 4).wrapping_add(k2) ^ v0.wrapping_add(sum) ^ (v0 >> 5).wrapping_add(k3),
            );
            v0 = v0.wrapping_sub(
                (v1 << 4).wrapping_add(k0) ^ v1.wrapping_add(sum) ^ (v1 >> 5).wrapping_add(k1),
            );
            sum = sum.wrapping_sub(DELTA);
        }
        *block = [v0, v1];
    }

    /// Encrypts an 8-byte block (little-endian halves) in place.
    pub fn encrypt_bytes(&self, bytes: &mut [u8; BLOCK_SIZE]) {
        let mut block = bytes_to_block(bytes);
        self.encrypt_block(&mut block);
        *bytes = block_to_bytes(block);
    }

    /// Decrypts an 8-byte block (little-endian halves) in place.
    pub fn decrypt_bytes(&self, bytes: &mut [u8; BLOCK_SIZE]) {
        let mut block = bytes_to_block(bytes);
        self.decrypt_block(&mut block);
        *bytes = block_to_bytes(block);
    }
}

fn bytes_to_block(bytes: &[u8; BLOCK_SIZE]) -> [u32; 2] {
    let mut a = [0u8; 4];
    let mut b = [0u8; 4];
    a.copy_from_slice(&bytes[..4]);
    b.copy_from_slice(&bytes[4..]);
    [u32::from_le_bytes(a), u32::from_le_bytes(b)]
}

fn block_to_bytes(block: [u32; 2]) -> [u8; BLOCK_SIZE] {
    let mut out = [0u8; BLOCK_SIZE];
    out[..4].copy_from_slice(&block[0].to_le_bytes());
    out[4..].copy_from_slice(&block[1].to_le_bytes());
    out
}

/// Derives a 128-bit key from an arbitrary passphrase by Davies–Meyer-style
/// chaining of TEA over the passphrase blocks. Deterministic; collisions
/// are as cheap as TEA allows — adequate for the paper's threat model
/// (shared-secret device enrolment), not for password storage at large.
pub fn key_from_passphrase(passphrase: &str) -> TeaKey {
    let mut state = [0x6a09_e667u32, 0xbb67_ae85, 0x3c6e_f372, 0xa54f_f53a];
    let bytes = passphrase.as_bytes();
    let mut chunks = bytes.chunks_exact(8);
    let absorb = |chunk: [u8; 8], state: &mut [u32; 4]| {
        let key = TeaKey::new(*state);
        let mut block = bytes_to_block(&chunk);
        let input = block;
        key.encrypt_block(&mut block);
        // Davies–Meyer feed-forward, spread across all four state words.
        state[0] ^= block[0].wrapping_add(input[0]);
        state[1] ^= block[1].wrapping_add(input[1]);
        state[2] = state[2].wrapping_add(block[0].rotate_left(16));
        state[3] = state[3].wrapping_add(block[1].rotate_left(16));
    };
    for chunk in &mut chunks {
        let mut c = [0u8; 8];
        c.copy_from_slice(chunk);
        absorb(c, &mut state);
    }
    // Final padded block: remainder + length, so "a" and "a\0" differ.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = bytes.len() as u8;
    absorb(last, &mut state);
    TeaKey::new(state)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    /// Published TEA reference vector (all-zero key and plaintext).
    #[test]
    fn reference_vector_zero() {
        let key = TeaKey::new([0, 0, 0, 0]);
        let mut block = [0u32, 0u32];
        key.encrypt_block(&mut block);
        assert_eq!(block, [0x41EA_3A0A, 0x94BA_A940]);
        key.decrypt_block(&mut block);
        assert_eq!(block, [0, 0]);
    }

    #[test]
    fn encrypt_decrypt_inverse() {
        let key = TeaKey::new([0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210]);
        for v0 in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            for v1 in [0u32, 42, 0xCAFE_BABE, u32::MAX] {
                let mut block = [v0, v1];
                key.encrypt_block(&mut block);
                assert_ne!(block, [v0, v1], "cipher must change the block");
                key.decrypt_block(&mut block);
                assert_eq!(block, [v0, v1]);
            }
        }
    }

    #[test]
    fn byte_interface_round_trips() {
        let key = TeaKey::from_bytes(&[7u8; 16]);
        let original = *b"calendar";
        let mut bytes = original;
        key.encrypt_bytes(&mut bytes);
        assert_ne!(bytes, original);
        key.decrypt_bytes(&mut bytes);
        assert_eq!(bytes, original);
    }

    #[test]
    fn different_keys_differ() {
        let k1 = TeaKey::new([1, 2, 3, 4]);
        let k2 = TeaKey::new([1, 2, 3, 5]);
        let mut b1 = [99u32, 100];
        let mut b2 = [99u32, 100];
        k1.encrypt_block(&mut b1);
        k2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn key_from_bytes_layout() {
        let mut bytes = [0u8; 16];
        bytes[0] = 1; // little-endian word 0
        bytes[15] = 0x80;
        let key = TeaKey::from_bytes(&bytes);
        assert_eq!(key.0[0], 1);
        assert_eq!(key.0[3], 0x8000_0000);
    }

    #[test]
    fn passphrase_key_is_deterministic_and_sensitive() {
        let a = key_from_passphrase("correct horse battery staple");
        let b = key_from_passphrase("correct horse battery staple");
        let c = key_from_passphrase("correct horse battery stapl3");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(key_from_passphrase(""), key_from_passphrase("\0"));
        // Length extension of the trailing block matters.
        assert_ne!(key_from_passphrase("a"), key_from_passphrase("a\0"));
        // Longer-than-one-block passphrases absorb every chunk.
        assert_ne!(
            key_from_passphrase("0123456789abcdefX"),
            key_from_passphrase("0123456789abcdefY")
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use super::*;
    use syd_types::rng::cases;

    #[test]
    fn block_round_trip() {
        cases(256, |rng| {
            let plain = [rng.any_u64() as u32, rng.any_u64() as u32];
            let key = TeaKey::new(std::array::from_fn(|_| rng.any_u64() as u32));
            let mut block = plain;
            key.encrypt_block(&mut block);
            key.decrypt_block(&mut block);
            assert_eq!(block, plain);
        });
    }

    #[test]
    fn bytes_round_trip() {
        cases(256, |rng| {
            let bytes = rng.next_u64().to_le_bytes();
            let k: [u8; 16] = std::array::from_fn(|_| rng.next_u64() as u8);
            let key = TeaKey::from_bytes(&k);
            let mut buf = bytes;
            key.encrypt_bytes(&mut buf);
            key.decrypt_bytes(&mut buf);
            assert_eq!(buf, bytes);
        });
    }
}
