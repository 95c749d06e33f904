//! The coordination-boundary fixture: a program outside the kernel that
//! sends §4.3's `mark` to a group itself. The public engine refuses the
//! verb before anything is sent, so no peer's entity is ever locked by
//! a caller that would not also commit or abort it.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_core::negotiate::link_service;
use syd_core::SydEnv;
use syd_net::NetConfig;
use syd_types::{SydError, Value};

#[test]
fn boundary_fixture_fires_once() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let (a, b) = (env.device("a", "").unwrap(), env.device("b", "").unwrap());
    let group = a.engine().invoke_group(
        &[b.user()],
        &link_service(),
        "mark",
        vec![Value::from(1u64)],
    );
    assert_eq!(group.outcomes.len(), 1);
    let (user, outcome) = &group.outcomes[0];
    assert_eq!(*user, b.user());
    assert!(matches!(outcome, Err(SydError::Protocol(_))), "{outcome:?}");
    assert_eq!(b.store().locks().held_count(), 0);
}
