//! E6 (§5.4): TEA cipher throughput, credential sealing/verification, and
//! the per-request cost of authentication.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

#[path = "../tests/support/mod.rs"]
mod support;

use std::sync::Arc;

use support::timing::Group;
use support::{devices, env_ideal, env_secure};
use syd_core::{Method, Methods, Verb};
use syd_crypto::{cbc_decrypt, cbc_encrypt, Authenticator, Credentials, TeaKey};
use syd_types::{ServiceName, UserId, Value};

fn main() {
    let group = Group("e6_security");
    let key = TeaKey::new([0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210]);

    // Raw block cipher.
    group.bench_function("tea_block", |b| {
        let mut block = [0x1234_5678u32, 0x9ABC_DEF0];
        b.iter(|| {
            key.encrypt_block(&mut block);
            block
        });
    });

    // CBC over realistic payload sizes.
    for size in [16usize, 64, 256, 1024] {
        let plaintext = vec![0xA5u8; size];
        group.bench_function(format!("cbc_encrypt/{size}"), |b| {
            b.iter(|| cbc_encrypt(&key, [7; 8], &plaintext));
        });
        let blob = cbc_encrypt(&key, [7; 8], &plaintext);
        group.bench_function(format!("cbc_decrypt/{size}"), |b| {
            b.iter(|| cbc_decrypt(&key, &blob).unwrap());
        });
    }

    // Credential envelope: seal on the client, verify on the server.
    let auth = Authenticator::from_passphrase("bench passphrase");
    auth.table().authorize(UserId::new(7), "password");
    let creds = Credentials::new(UserId::new(7), "password");
    group.bench_function("seal_credentials", |b| {
        b.iter(|| auth.seal(&creds, [3; 8]));
    });
    let blob = auth.seal(&creds, [3; 8]);
    group.bench_function("verify_credentials", |b| {
        b.iter(|| auth.verify(&blob).unwrap());
    });

    // Per-request overhead: the same remote echo with and without §5.4
    // authentication.
    let svc = ServiceName::new("echo");
    const ECHO_SERVICE: &ServiceName = &ServiceName::constant("echo");
    const ECHO_VERB: Verb<Vec<Value>, Value> = Verb::new(ECHO_SERVICE, "echo");
    static ECHO: &Methods<()> = &[&Method::verb(ECHO_VERB, |(), _, args: &[Value]| {
        Ok(Value::list(args.to_vec()))
    })];
    let no_state = Arc::new(());

    let insecure = env_ideal();
    let devs = devices(&insecure, 2);
    devs[1].serve(&svc, &no_state, ECHO);
    let target = devs[1].user();
    group.bench_function("request_no_auth", |b| {
        b.iter(|| {
            devs[0]
                .engine()
                .call(target, ECHO_VERB, vec![Value::I64(1)])
                .unwrap()
        });
    });

    let secure = env_secure();
    let sdevs = devices(&secure, 2);
    sdevs[1].serve(&svc, &no_state, ECHO);
    let starget = sdevs[1].user();
    group.bench_function("request_with_auth", |b| {
        b.iter(|| {
            sdevs[0]
                .engine()
                .call(starget, ECHO_VERB, vec![Value::I64(1)])
                .unwrap()
        });
    });
}
