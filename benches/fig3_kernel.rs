//! F3 (Figure 3): kernel module interactions — directory lookups, single
//! invocation through the listener, and group invocation/aggregation as
//! the group grows.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

#[path = "../tests/support/mod.rs"]
mod support;

use std::sync::Arc;

use support::timing::Group;
use support::{devices, env_ideal};
use syd_core::directory::{DESCRIBE, LOOKUP_MANY};
use syd_core::{Method, Methods, Verb};
use syd_types::{ServiceName, UserId, Value};

fn main() {
    let env = env_ideal();
    let devs = devices(&env, 33);
    let svc = ServiceName::new("echo");
    const ECHO_SERVICE: &ServiceName = &ServiceName::constant("echo");
    const ECHO_VERB: Verb<Vec<Value>, Value> = Verb::new(ECHO_SERVICE, "echo");
    static ECHO: &Methods<()> = &[&Method::verb(ECHO_VERB, |(), _, args: &[Value]| {
        Ok(Value::list(args.to_vec()))
    })];
    let no_state = Arc::new(());
    for dev in &devs {
        dev.serve(&svc, &no_state, ECHO);
    }
    let caller = &devs[0];

    // Directory lookup (uncached: fresh client each time would measure
    // node spawn; instead measure the directory round trip itself): a
    // batch of one, the engine's resolution of a single cache miss.
    let group = Group("fig3_kernel");
    let dirc = env.directory_client();
    let target_user = devs[1].user();
    group.bench_function("directory_lookup", |b| {
        b.iter(|| dirc.call(LOOKUP_MANY, (vec![target_user],)).unwrap());
    });
    group.bench_function("directory_describe", |b| {
        b.iter(|| dirc.call(DESCRIBE, (target_user,)).unwrap());
    });

    // Single invocation (engine + listener, cached resolution).
    group.bench_function("single_invoke", |b| {
        b.iter(|| {
            caller
                .engine()
                .call(target_user, ECHO_VERB, vec![Value::I64(1)])
                .unwrap()
        });
    });

    // Group invocation and aggregation vs group size.
    for n in [2usize, 4, 8, 16, 32] {
        let users: Vec<UserId> = devs[1..=n]
            .iter()
            .map(syd_core::device::DeviceRuntime::user)
            .collect();
        group.bench_function(format!("group_invoke/{n}"), |b| {
            b.iter(|| {
                let result = caller
                    .engine()
                    .call_group(&users, ECHO_VERB, vec![Value::I64(7)]);
                assert!(result.all_ok());
                result.aggregate()
            });
        });
    }
}
