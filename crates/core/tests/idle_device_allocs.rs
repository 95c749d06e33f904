//! What an idle device holds, counted: a device that joins and then waits
//! (`wlan_fleet`'s 4 000) keeps a bounded number of live allocations.
//! A counting allocator tracks the live count over a batch of devices
//! spawned by `SydEnv::device`, on an authenticated ideal network with
//! scoped metrics, as the benchmark's idle fleet is (DESIGN.md §13).
//! A per-device closure, map or copy that creeps back fails here before
//! it shows in `rss_kib_per_device`.

#![allow(unsafe_code)] // the counting allocator
#![allow(clippy::unwrap_used)] // test code

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use syd_core::SydEnv;
use syd_net::NetConfig;

/// Allocations made and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Devices counted; enough that the amortised growth of shared maps (the
/// directory's, the device-log registry) is a fraction of an allocation.
const DEVICES: usize = 600;

/// Live allocations an idle device may hold: the measured 38.0 + 10 %.
/// It held 39 while its journal was an `Arc` of its own beside the
/// node's span ring, and 58 while every device built one handler closure
/// per kernel method.
const CEILING: f64 = 41.8;

#[test]
fn an_idle_device_holds_a_bounded_number_of_allocations() {
    let env = SydEnv::new(NetConfig::ideal(), "pw");
    env.runtime().set_scoped_metrics(true);
    // The first devices build what the process shares: schemas, pool
    // workers, registries.
    let warm: Vec<_> = (0..16)
        .map(|i| env.device(&format!("warm{i}"), "pw").unwrap())
        .collect();
    let mut idle = Vec::with_capacity(DEVICES);
    let before = LIVE.load(Ordering::Relaxed);
    for i in 0..DEVICES {
        idle.push(env.device(&format!("idle{i}"), "pw").unwrap());
    }
    let per_device = (LIVE.load(Ordering::Relaxed) - before) as f64 / DEVICES as f64;
    println!("live allocations per idle device: {per_device:.2}");
    assert!(
        per_device <= CEILING,
        "an idle device holds {per_device:.2} live allocations, over {CEILING}"
    );
    drop((warm, idle));
}
