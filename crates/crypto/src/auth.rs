//! Credential envelopes and the per-device authorized-user table (§5.4).
//!
//! Flow, exactly as the paper describes it:
//!
//! 1. Each user has a unique id and password; each device's database has a
//!    table of authorized users ([`AuthTable`]).
//! 2. The client encrypts `user id ‖ password` with TEA and attaches the
//!    blob to every request ([`Authenticator::seal`]).
//! 3. The server decrypts, looks the user up, compares the password, and
//!    only then processes the request ([`Authenticator::verify`]).
//!
//! The TEA key is a pre-shared deployment secret (derived from a
//! passphrase); the prototype did the same with a hard-coded key. Every
//! request is decrypted and checked afresh, with no cache of verified
//! blobs, so a revoked user is refused on their next request; a blob
//! replayed by an eavesdropper is accepted, as in the prototype.

use std::collections::HashMap;

use syd_types::sync::{Rank, RwLock};
use syd_types::{Blob, SydError, SydResult, UserId};

use crate::mode::{cbc_decrypt_into, cbc_encrypt};
use crate::tea::{TeaKey, BLOCK_SIZE};

/// A user's clear-text credentials.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Credentials {
    /// The user.
    pub user: UserId,
    /// The shared password.
    pub password: String,
}

impl Credentials {
    /// Builds credentials.
    pub fn new(user: UserId, password: impl Into<String>) -> Self {
        Credentials {
            user,
            password: password.into(),
        }
    }

    /// Canonical byte layout: `user id (8 LE bytes) ‖ password utf-8`.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.password.len());
        out.extend_from_slice(&self.user.raw().to_le_bytes());
        out.extend_from_slice(self.password.as_bytes());
        out
    }

    /// Reads [`Credentials::to_bytes`]'s layout in place: `None` when it
    /// is too short or the password is not utf-8.
    fn parse(bytes: &[u8]) -> Option<(UserId, &str)> {
        let (id, password) = bytes.split_first_chunk::<8>()?;
        let password = std::str::from_utf8(password).ok()?;
        Some((UserId::new(u64::from_le_bytes(*id)), password))
    }
}

/// The per-device table of authorized users and their passwords — the
/// "table containing the user id and password of authorized users" of §5.4.
#[derive(Debug)]
pub struct AuthTable {
    users: RwLock<HashMap<UserId, String>>,
}

impl Default for AuthTable {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AuthTable {
            users: RwLock::new(Rank::Engine, HashMap::new()),
        }
    }

    /// Adds (or replaces) an authorized user.
    pub fn authorize(&self, user: UserId, password: impl Into<String>) {
        self.users.write().insert(user, password.into());
    }

    /// Removes a user's access.
    pub fn revoke(&self, user: UserId) {
        self.users.write().remove(&user);
    }

    /// Checks a clear-text credential pair.
    pub fn check(&self, creds: &Credentials) -> bool {
        self.accepts(creds.user, &creds.password)
    }

    fn accepts(&self, user: UserId, password: &str) -> bool {
        self.users
            .read()
            .get(&user)
            .is_some_and(|stored| stored == password)
    }

    /// Number of authorized users.
    pub fn len(&self) -> usize {
        self.users.read().len()
    }

    /// True iff no user is authorized.
    pub fn is_empty(&self) -> bool {
        self.users.read().is_empty()
    }
}

/// The largest ciphertext body [`Authenticator::verify`] decrypts on the
/// stack: a user id and a password of up to 55 bytes.
const STACK_BODY: usize = 64;

/// Seals and verifies credential blobs under the deployment's shared key.
pub struct Authenticator {
    key: TeaKey,
    table: AuthTable,
}

impl Authenticator {
    /// Builds an authenticator with an explicit key.
    pub fn new(key: TeaKey) -> Self {
        Authenticator {
            key,
            table: AuthTable::new(),
        }
    }

    /// Builds an authenticator from a deployment passphrase.
    pub fn from_passphrase(passphrase: &str) -> Self {
        Self::new(crate::tea::key_from_passphrase(passphrase))
    }

    /// The authorized-user table.
    pub fn table(&self) -> &AuthTable {
        &self.table
    }

    /// Encrypts credentials into the blob attached to every request.
    /// `iv` should be fresh random bytes per call: a deployment seals once
    /// per device, and the device sends that one blob with every request.
    /// A password of up to 55 bytes seals into an inline [`Blob`], which
    /// every request copies without an allocation.
    pub fn seal(&self, creds: &Credentials, iv: [u8; BLOCK_SIZE]) -> Blob {
        Blob::from(cbc_encrypt(&self.key, iv, &creds.to_bytes()))
    }

    /// Decrypts a blob and checks it against the authorized-user table.
    /// Returns the authenticated user on success; [`SydError::AuthFailed`]
    /// carries the claimed user id (or user 0 when the blob is garbage).
    ///
    /// A body of up to 64 bytes (a password of up to 55) decrypts on the
    /// stack, so a device's request is checked without allocating.
    pub fn verify(&self, blob: &[u8]) -> SydResult<UserId> {
        let garbage = || SydError::AuthFailed(UserId::new(0));
        let body = blob.len().saturating_sub(BLOCK_SIZE);
        let (mut stack, mut heap) = ([0u8; STACK_BODY], Vec::new());
        let buf = if body <= STACK_BODY {
            &mut stack[..]
        } else {
            heap.resize(body, 0);
            &mut heap[..]
        };
        let len = cbc_decrypt_into(&self.key, blob, buf).map_err(|_| garbage())?;
        let (user, password) = Credentials::parse(&buf[..len]).ok_or_else(garbage)?;
        if self.table.accepts(user, password) {
            Ok(user)
        } else {
            Err(SydError::AuthFailed(user))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn authenticator() -> Authenticator {
        let auth = Authenticator::from_passphrase("yamacraw embedded software");
        auth.table().authorize(UserId::new(1), "phils-password");
        auth.table().authorize(UserId::new(2), "andys-password");
        auth
    }

    #[test]
    fn seal_verify_round_trip() {
        let auth = authenticator();
        let blob = auth.seal(&Credentials::new(UserId::new(1), "phils-password"), [7; 8]);
        assert_eq!(auth.verify(&blob).unwrap(), UserId::new(1));
    }

    #[test]
    fn wrong_password_rejected_with_claimed_user() {
        let auth = authenticator();
        let blob = auth.seal(&Credentials::new(UserId::new(1), "guess"), [7; 8]);
        assert_eq!(
            auth.verify(&blob).unwrap_err(),
            SydError::AuthFailed(UserId::new(1))
        );
    }

    #[test]
    fn unknown_user_rejected() {
        let auth = authenticator();
        let blob = auth.seal(&Credentials::new(UserId::new(99), "pw"), [7; 8]);
        assert!(matches!(
            auth.verify(&blob).unwrap_err(),
            SydError::AuthFailed(u) if u == UserId::new(99)
        ));
    }

    #[test]
    fn revoked_user_rejected() {
        let auth = authenticator();
        let blob = auth.seal(&Credentials::new(UserId::new(2), "andys-password"), [1; 8]);
        assert_eq!(auth.verify(&blob).unwrap(), UserId::new(2));
        auth.table().revoke(UserId::new(2));
        assert!(auth.verify(&blob).is_err());
    }

    #[test]
    fn garbage_blob_rejected() {
        let auth = authenticator();
        assert!(auth.verify(&[]).is_err());
        assert!(auth.verify(&[1, 2, 3]).is_err());
        assert!(auth.verify(&[0; 64]).is_err());
    }

    #[test]
    fn blob_from_different_key_rejected() {
        let auth = authenticator();
        let other = Authenticator::from_passphrase("different deployment");
        other.table().authorize(UserId::new(1), "phils-password");
        let blob = other.seal(&Credentials::new(UserId::new(1), "phils-password"), [7; 8]);
        assert!(auth.verify(&blob).is_err());
    }

    #[test]
    fn fresh_ivs_change_the_blob_but_not_the_outcome() {
        let auth = authenticator();
        let creds = Credentials::new(UserId::new(1), "phils-password");
        let a = auth.seal(&creds, [1; 8]);
        let b = auth.seal(&creds, [2; 8]);
        assert_ne!(a, b);
        assert_eq!(auth.verify(&a).unwrap(), auth.verify(&b).unwrap());
    }

    #[test]
    fn empty_password_supported() {
        let auth = Authenticator::from_passphrase("k");
        auth.table().authorize(UserId::new(5), "");
        let blob = auth.seal(&Credentials::new(UserId::new(5), ""), [0; 8]);
        assert_eq!(auth.verify(&blob).unwrap(), UserId::new(5));
    }

    #[test]
    fn a_password_of_56_bytes_or_more_seals_past_the_inline_blob() {
        let auth = Authenticator::from_passphrase("k");
        let user = UserId::new(9);
        for len in [55, 56, 120] {
            let password = "p".repeat(len);
            auth.table().authorize(user, password.as_str());
            let blob = auth.seal(&Credentials::new(user, password.as_str()), [5; 8]);
            assert_eq!(blob.is_inline(), len <= 55, "a {len}-byte password");
            assert_eq!(auth.verify(&blob).unwrap(), user);
            let wrong = auth.seal(&Credentials::new(user, &password[1..]), [5; 8]);
            assert_eq!(auth.verify(&wrong).unwrap_err(), SydError::AuthFailed(user));
        }
    }

    #[test]
    fn auth_table_management() {
        let table = AuthTable::new();
        assert!(table.is_empty());
        table.authorize(UserId::new(1), "a");
        table.authorize(UserId::new(1), "b"); // replace
        assert_eq!(table.len(), 1);
        assert!(!table.check(&Credentials::new(UserId::new(1), "a")));
        assert!(table.check(&Credentials::new(UserId::new(1), "b")));
    }

    #[test]
    fn unicode_password_round_trips() {
        let auth = Authenticator::from_passphrase("k");
        auth.table().authorize(UserId::new(7), "pässwörd–日本語");
        let blob = auth.seal(&Credentials::new(UserId::new(7), "pässwörd–日本語"), [3; 8]);
        assert_eq!(auth.verify(&blob).unwrap(), UserId::new(7));
    }

    /// The check as it ran before `verify` decrypted in place: decrypt
    /// to a `Vec`, parse into owned credentials, look them up.
    fn reference_verify(auth: &Authenticator, blob: &[u8]) -> SydResult<UserId> {
        let garbage = SydError::AuthFailed(UserId::new(0));
        let plain = crate::mode::cbc_decrypt(&auth.key, blob).map_err(|_| garbage.clone())?;
        if plain.len() < 8 {
            return Err(garbage);
        }
        let user = UserId::new(u64::from_le_bytes(plain[..8].try_into().unwrap()));
        let password = String::from_utf8(plain[8..].to_vec()).map_err(|_| garbage)?;
        if auth.table().check(&Credentials::new(user, password)) {
            Ok(user)
        } else {
            Err(SydError::AuthFailed(user))
        }
    }

    #[test]
    fn verify_agrees_with_the_allocating_reference() {
        let auth = authenticator();
        let long = "x".repeat(70); // an 80-byte body: past the stack buffer
        auth.table().authorize(UserId::new(3), long.as_str());
        let seal = |plain: &[u8]| cbc_encrypt(&auth.key, [plain.len() as u8; 8], plain);
        let creds = |user: u64, password: &[u8]| {
            let mut plain = user.to_le_bytes().to_vec();
            plain.extend_from_slice(password);
            plain
        };
        let mut blobs = Vec::new();
        for len in 0..=80 {
            // User 1's id cut or padded to `len` bytes, then a non-utf-8 byte.
            let mut plain = creds(1, &b"phils-password".repeat(6));
            plain.resize(len, b'p');
            blobs.push(seal(&plain));
            plain.push(0xFF);
            blobs.push(seal(&plain));
        }
        // Every truncation of a valid 88-byte blob: body lengths 0–80,
        // block-aligned or not.
        let valid = seal(&creds(3, long.as_bytes()));
        blobs.extend((0..=valid.len()).map(|len| valid[..len].to_vec()));
        // Bodies without a padding block: the last byte is the pad.
        for tail in [[0u8, 0], [7, 9], [0xFF, 0xFF], [1, 2], [8, 8]] {
            let mut plain = creds(1, b"pass");
            plain.extend_from_slice(&[7, 7]);
            plain.extend_from_slice(&tail);
            let mut blob = seal(&plain);
            blob.truncate(blob.len() - BLOCK_SIZE);
            blobs.push(blob);
        }
        for (user, password) in [(1, "phils-password"), (1, "guess"), (2, "andys-password")] {
            blobs.push(seal(&creds(user, password.as_bytes())));
        }
        blobs.push(seal(&creds(99, b"pw")));

        let check = |blobs: &[Vec<u8>]| {
            for blob in blobs {
                let got = auth.verify(blob);
                assert_eq!(
                    got,
                    reference_verify(&auth, blob),
                    "a {}-byte blob",
                    blob.len()
                );
                let mut buf = vec![0xAA; blob.len().saturating_sub(BLOCK_SIZE)];
                let into = cbc_decrypt_into(&auth.key, blob, &mut buf).map(|n| buf[..n].to_vec());
                assert_eq!(into.ok(), crate::mode::cbc_decrypt(&auth.key, blob).ok());
            }
        };
        check(&blobs);
        let accepted = |blobs: &[Vec<u8>]| blobs.iter().filter(|b| auth.verify(b).is_ok()).count();
        assert_eq!(accepted(&blobs), 4, "user 1 twice, users 2 and 3 once");
        auth.table().revoke(UserId::new(1));
        auth.table().revoke(UserId::new(3));
        check(&blobs);
        assert_eq!(accepted(&blobs), 1, "only user 2 is left");
    }
}
