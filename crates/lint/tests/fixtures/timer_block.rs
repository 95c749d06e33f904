//! Seeded violation: sleeping on the shared timer wheel's dispatch
//! thread delays every periodic task in the process.
//! Expected: exactly one `no-blocking-in-poll-loop` diagnostic.

fn timer_loop(tick: Duration) {
    loop {
        std::thread::sleep(tick); // <- fires here
    }
}
