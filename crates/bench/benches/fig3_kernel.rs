//! F3 (Figure 3): kernel module interactions — directory lookups, single
//! invocation through the listener, and group invocation/aggregation as
//! the group grows.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;

use syd_bench::timing::Group;
use syd_bench::{devices, env_ideal};
use syd_types::{ServiceName, UserId, Value};

fn main() {
    let env = env_ideal();
    let devs = devices(&env, 33);
    let svc = ServiceName::new("echo");
    for dev in &devs {
        dev.register_service(
            &svc,
            "echo",
            Arc::new(|_ctx, args: &[Value]| Ok(Value::list(args.to_vec()))),
        )
        .unwrap();
    }
    let caller = &devs[0];

    // Directory lookup (uncached: fresh client each time would measure
    // node spawn; instead measure the directory round trip itself).
    let group = Group("fig3_kernel");
    let dirc = env.directory_client();
    let target_user = devs[1].user();
    group.bench_function("directory_lookup", |b| {
        b.iter(|| dirc.lookup(target_user).unwrap());
    });
    group.bench_function("directory_describe", |b| {
        b.iter(|| dirc.describe(target_user).unwrap());
    });

    // Single invocation (engine + listener, cached resolution).
    group.bench_function("single_invoke", |b| {
        b.iter(|| {
            caller
                .engine()
                .invoke(target_user, &svc, "echo", vec![Value::I64(1)])
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
                let result =
                    caller
                        .engine()
                        .invoke_group(&users, &svc, "echo", vec![Value::I64(7)]);
                assert!(result.all_ok());
                result.aggregate()
            });
        });
    }
}
