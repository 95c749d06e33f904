//! What a request costs, counted: every remote invocation crosses the
//! sender's node, the wire codec, the receiver's §5.4 check, its listener
//! and both RPC span records, so an allocation that creeps into any of
//! them is paid once per member of every group call. A counting allocator
//! counts every allocation of the process over a batch of authenticated
//! invocations between two devices on an ideal network (DESIGN.md §19,
//! "What a request allocates"), and those of the test's own thread where
//! the work never leaves it.

#![allow(unsafe_code)] // the counting allocator
#![allow(clippy::unwrap_used)] // test code

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use syd_core::{DeviceRuntime, Method, Methods, SydEnv, Verb};
use syd_crypto::Credentials;
use syd_net::NetConfig;
use syd_types::{ServiceName, Value};

/// Allocations made since the process started, reallocations included.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations this thread made, counted the same way: an idle
    /// deployment's threads keep running beside a test and never add to
    /// it. `const` and without a destructor, so counting allocates
    /// nothing and works until the thread is gone.
    static OWN: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        OWN.with(|own| own.set(own.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is process-wide: one test counts at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Invocations counted, after as many to warm up.
const CALLS: u64 = 400;

/// Allocations a remote invocation may make: the measured 10.0 + 10 %.
/// The 10 are the wave's bookkeeping in `SydEngine::batch` and
/// `Node::call_many` (7: results, indices, routes, resolutions, sends,
/// outcomes), the untyped caller's own `Vec` of values (1; their encoded
/// list is inline) and the two frames (request and reply). It made 11
/// while a caller's `Args` kept its values behind a shared inner of its
/// own, 15 while the sender cloned its credential `Vec` into each
/// request, the receiver decoded the credentials into a `Vec` and its
/// arguments into an `Arc` of their own, and the pool boxed the job that
/// serves the request; 21 before that, while the receiver also parsed
/// the credentials into a `String` (1), decoded its arguments into a
/// second `Vec` (1) and each of the call's three one-attribute spans
/// kept its attribute on the heap (3).
const CEILING: f64 = 11.0;

/// Allocations a member of a 32-member group call may cost: the measured
/// 2.19 + 10 %. Each remote member costs its two frames; the wave's
/// bookkeeping, the one shared argument list and its one encoding are
/// paid once for all 32, and the caller's own member sends no frame.
const GROUP_CEILING: f64 = 2.41;

/// Counts the allocations every thread makes while `f` runs.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Counts the allocations `f` makes on this thread.
fn own_allocs(f: impl FnOnce()) -> u64 {
    let before = OWN.with(Cell::get);
    f();
    OWN.with(Cell::get) - before
}

#[test]
fn a_remote_invocation_makes_a_bounded_number_of_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let env = SydEnv::new(NetConfig::ideal(), "pw");
    let (a, b) = (
        env.device("a", "pw").unwrap(),
        env.device("b", "pw").unwrap(),
    );
    let svc = ServiceName::new("echo");
    const SVC: &ServiceName = &ServiceName::constant("echo");
    const ECHO_VERB: Verb<(Value,), Value> = Verb::new(SVC, "echo");
    static ECHO: &Methods<()> = &[&Method::verb(ECHO_VERB, |(), _, (arg,)| Ok(arg.clone()))];
    let state = Arc::new(());
    b.serve(&svc, &state, ECHO);
    let call = || {
        let out = a
            .engine()
            .invoke(b.user(), &svc, "echo", vec![Value::I64(7)]);
        assert_eq!(out.unwrap(), Value::I64(7));
    };
    // The first calls resolve `b`, start pool workers and reserve the
    // span rings.
    (0..CALLS).for_each(|_| call());
    let per_call = allocs(|| (0..CALLS).for_each(|_| call())) as f64 / CALLS as f64;
    println!("allocations per remote invocation: {per_call:.2}");
    assert!(
        per_call <= CEILING,
        "a remote invocation makes {per_call:.2} allocations, over {CEILING}"
    );
}

#[test]
fn a_group_call_makes_a_bounded_number_of_allocations_per_member() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let env = SydEnv::new(NetConfig::ideal(), "pw");
    let devices: Vec<_> = (0..32)
        .map(|i| env.device(&format!("m{i}"), "pw").unwrap())
        .collect();
    const SVC: &ServiceName = &ServiceName::constant("echo");
    const ECHO_VERB: Verb<(Value,), Value> = Verb::new(SVC, "echo");
    static ECHO: &Methods<()> = &[&Method::verb(ECHO_VERB, |(), _, (arg,)| Ok(arg.clone()))];
    let state = Arc::new(());
    for device in &devices {
        device.serve(SVC, &state, ECHO);
    }
    let members: Vec<_> = devices.iter().map(DeviceRuntime::user).collect();
    let engine = devices[0].engine();
    let wave = || {
        let round = engine.call_group(&members, ECHO_VERB, (Value::I64(7),));
        assert_eq!(round.ok_count(), members.len());
    };
    const WAVES: u64 = 40;
    (0..WAVES).for_each(|_| wave());
    let made = allocs(|| (0..WAVES).for_each(|_| wave()));
    let per_member = made as f64 / (WAVES * members.len() as u64) as f64;
    println!("allocations per member of a 32-member group call: {per_member:.2}");
    assert!(
        per_member <= GROUP_CEILING,
        "a group call costs {per_member:.2} allocations per member, over {GROUP_CEILING}"
    );
}

#[test]
fn verifying_a_device_blob_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let env = SydEnv::new(NetConfig::ideal(), "pw");
    let device = env.device("phil", "phils-password").unwrap();
    let auth = env.authenticator().unwrap();
    let blob = auth.seal(&Credentials::new(device.user(), "phils-password"), [7; 8]);
    assert_eq!(auth.verify(&blob).unwrap(), device.user());
    // The thread's own counter sees this thread's allocations.
    let boxed = own_allocs(|| drop(std::hint::black_box(Box::new(7u8))));
    assert_eq!(boxed, 1);
    let made = own_allocs(|| {
        for _ in 0..CALLS {
            assert!(auth.verify(&blob).is_ok());
        }
    });
    assert_eq!(
        made, 0,
        "{CALLS} checks of a device's blob allocated {made} times"
    );
}
