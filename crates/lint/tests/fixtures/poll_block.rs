//! Seeded violation: blocking call inside a node's drain callback, which
//! the shared runtime loop runs for every device.
//! Expected: exactly one `no-blocking-in-poll-loop` diagnostic.

fn drain_events(tick: Duration) {
    loop {
        std::thread::sleep(tick); // <- fires here
    }
}
