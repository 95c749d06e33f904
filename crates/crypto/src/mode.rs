//! CBC mode with PKCS#7 padding over TEA blocks.
//!
//! Credentials vary in length (user id + password), so the §5.4 envelope
//! needs a chaining mode. The ciphertext layout is `IV (8 bytes) ‖ blocks`;
//! the IV is drawn by the caller. A deployment seals each device's
//! credentials once, when it enrols the device, and the device attaches
//! that one blob to every request it sends: two devices with the same
//! credentials send different blobs, but one device's requests all carry
//! the same bytes. A replayed blob is therefore not detected, as in the
//! paper's prototype.

use syd_types::{SydError, SydResult};

use crate::tea::{TeaKey, BLOCK_SIZE};

/// Encrypts `plaintext` under `key` with the given 8-byte IV.
/// Output = IV ‖ CBC ciphertext (PKCS#7-padded, so always ≥ 16 bytes).
pub fn cbc_encrypt(key: &TeaKey, iv: [u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    let pad = BLOCK_SIZE - (plaintext.len() % BLOCK_SIZE);
    let mut out = Vec::with_capacity(BLOCK_SIZE + plaintext.len() + pad);
    out.extend_from_slice(&iv);

    let mut prev = iv;
    let mut offset = 0;
    while offset <= plaintext.len() {
        let mut block = [0u8; BLOCK_SIZE];
        let remaining = plaintext.len() - offset;
        if remaining >= BLOCK_SIZE {
            block.copy_from_slice(&plaintext[offset..offset + BLOCK_SIZE]);
        } else {
            // Final (possibly empty) block: PKCS#7 pad.
            block[..remaining].copy_from_slice(&plaintext[offset..]);
            for b in block.iter_mut().skip(remaining) {
                *b = pad as u8;
            }
        }
        for (b, p) in block.iter_mut().zip(prev.iter()) {
            *b ^= p;
        }
        key.encrypt_bytes(&mut block);
        out.extend_from_slice(&block);
        prev = block;
        offset += BLOCK_SIZE;
    }
    out
}

/// Decrypts a blob produced by [`cbc_encrypt`]. Fails on truncated input,
/// non-block-aligned length or corrupt padding.
pub fn cbc_decrypt(key: &TeaKey, ciphertext: &[u8]) -> SydResult<Vec<u8>> {
    let mut out = vec![0; ciphertext.len().saturating_sub(BLOCK_SIZE)];
    let len = cbc_decrypt_into(key, ciphertext, &mut out)?;
    out.truncate(len);
    Ok(out)
}

/// [`cbc_decrypt`] into the caller's `out`, which must hold the
/// ciphertext's body (`ciphertext.len() - BLOCK_SIZE` bytes; a shorter
/// `out` panics): returns the plaintext's length, the padding stripped.
/// Allocates only on failure.
pub(crate) fn cbc_decrypt_into(
    key: &TeaKey,
    ciphertext: &[u8],
    out: &mut [u8],
) -> SydResult<usize> {
    if ciphertext.len() < 2 * BLOCK_SIZE || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
        return Err(SydError::Codec(format!(
            "ciphertext length {} is not IV + non-empty block multiple",
            ciphertext.len()
        )));
    }
    let body = ciphertext.len() - BLOCK_SIZE;
    let out = &mut out[..body];
    let (iv, blocks) = ciphertext.split_at(BLOCK_SIZE);
    let mut prev = [0u8; BLOCK_SIZE];
    prev.copy_from_slice(iv);
    for (chunk, plain) in blocks
        .chunks_exact(BLOCK_SIZE)
        .zip(out.chunks_exact_mut(BLOCK_SIZE))
    {
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(chunk);
        key.decrypt_bytes(&mut block);
        for ((p, b), c) in plain.iter_mut().zip(block).zip(prev) {
            *p = b ^ c;
        }
        prev.copy_from_slice(chunk);
    }
    // Strip and validate PKCS#7 padding (the body is at least one block).
    let pad = out[body - 1] as usize;
    if pad == 0 || pad > BLOCK_SIZE || out[body - pad..].iter().any(|&b| b as usize != pad) {
        return Err(SydError::Codec("corrupt padding".into()));
    }
    Ok(body - pad)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn key() -> TeaKey {
        TeaKey::new([0xA5A5_A5A5, 0x5A5A_5A5A, 0x0F0F_0F0F, 0xF0F0_F0F0])
    }

    #[test]
    fn round_trip_various_lengths() {
        for len in 0..40 {
            let plaintext: Vec<u8> = (0..len as u8).collect();
            let blob = cbc_encrypt(&key(), [9; BLOCK_SIZE], &plaintext);
            assert_eq!(blob.len() % BLOCK_SIZE, 0);
            assert!(blob.len() >= 2 * BLOCK_SIZE);
            let back = cbc_decrypt(&key(), &blob).unwrap();
            assert_eq!(back, plaintext, "len={len}");
        }
    }

    #[test]
    fn different_ivs_give_different_ciphertexts() {
        let pt = b"phil:secret";
        let a = cbc_encrypt(&key(), [0; 8], pt);
        let b = cbc_encrypt(&key(), [1; 8], pt);
        assert_ne!(a, b);
        assert_eq!(cbc_decrypt(&key(), &a).unwrap(), pt);
        assert_eq!(cbc_decrypt(&key(), &b).unwrap(), pt);
    }

    #[test]
    fn wrong_key_fails_or_garbles() {
        let pt = b"phil:secret";
        let blob = cbc_encrypt(&key(), [3; 8], pt);
        let wrong = TeaKey::new([1, 2, 3, 4]);
        match cbc_decrypt(&wrong, &blob) {
            Err(_) => {}                            // padding check caught it
            Ok(garbled) => assert_ne!(garbled, pt), // or plaintext is garbage
        }
    }

    #[test]
    fn truncated_and_misaligned_rejected() {
        let blob = cbc_encrypt(&key(), [0; 8], b"hello");
        assert!(cbc_decrypt(&key(), &blob[..8]).is_err());
        assert!(cbc_decrypt(&key(), &blob[..blob.len() - 3]).is_err());
        assert!(cbc_decrypt(&key(), &[]).is_err());
    }

    #[test]
    fn tampered_padding_rejected() {
        let blob = cbc_encrypt(&key(), [0; 8], b"x");
        // Flipping last-block bytes corrupts padding with high probability;
        // accept either a padding error or a garbled (non-equal) result.
        let mut tampered = blob.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0xFF;
        match cbc_decrypt(&key(), &tampered) {
            Err(_) => {}
            Ok(pt) => assert_ne!(pt, b"x"),
        }
    }

    #[test]
    fn cbc_chains_blocks() {
        // Two identical plaintext blocks must encrypt differently.
        let pt = [7u8; 16];
        let blob = cbc_encrypt(&key(), [0; 8], &pt);
        let b1 = &blob[8..16];
        let b2 = &blob[16..24];
        assert_ne!(b1, b2);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use super::*;
    use syd_types::rng::cases;

    #[test]
    fn round_trip() {
        cases(256, |rng| {
            let pt = rng.bytes(255);
            let iv = rng.next_u64().to_le_bytes();
            let key = TeaKey::new(std::array::from_fn(|_| rng.any_u64() as u32));
            let blob = cbc_encrypt(&key, iv, &pt);
            assert_eq!(cbc_decrypt(&key, &blob).unwrap(), pt);
        });
    }

    #[test]
    fn decrypt_never_panics() {
        cases(256, |rng| {
            let _ = cbc_decrypt(&TeaKey::new([1, 2, 3, 4]), &rng.bytes(127));
        });
    }
}
