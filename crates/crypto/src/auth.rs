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
//! passphrase); the prototype did the same with a hard-coded key.

use std::collections::HashMap;

use syd_types::sync::{Rank, RwLock};
use syd_types::{SydError, SydResult, UserId};

use crate::mode::{cbc_decrypt, cbc_encrypt};
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

    fn from_bytes(bytes: &[u8]) -> SydResult<Credentials> {
        if bytes.len() < 8 {
            return Err(SydError::Codec("credential envelope too short".into()));
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&bytes[..8]);
        let password = String::from_utf8(bytes[8..].to_vec())
            .map_err(|_| SydError::Codec("credential password is not utf-8".into()))?;
        Ok(Credentials {
            user: UserId::new(u64::from_le_bytes(id)),
            password,
        })
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
        self.users
            .read()
            .get(&creds.user)
            .is_some_and(|stored| stored == &creds.password)
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
    /// `iv` should be fresh random bytes per call.
    pub fn seal(&self, creds: &Credentials, iv: [u8; BLOCK_SIZE]) -> Vec<u8> {
        cbc_encrypt(&self.key, iv, &creds.to_bytes())
    }

    /// Decrypts a blob and checks it against the authorized-user table.
    /// Returns the authenticated user on success; [`SydError::AuthFailed`]
    /// carries the claimed user id (or user 0 when the blob is garbage).
    pub fn verify(&self, blob: &[u8]) -> SydResult<UserId> {
        let plain =
            cbc_decrypt(&self.key, blob).map_err(|_| SydError::AuthFailed(UserId::new(0)))?;
        let creds =
            Credentials::from_bytes(&plain).map_err(|_| SydError::AuthFailed(UserId::new(0)))?;
        if self.table.check(&creds) {
            Ok(creds.user)
        } else {
            Err(SydError::AuthFailed(creds.user))
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
}
