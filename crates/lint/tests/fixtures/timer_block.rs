//! Seeded violation: a periodic tick that sleeps on the shared runtime
//! loop delays every device's frames and every other tick in the process.
//! Expected: exactly one `no-blocking-in-poll-loop` diagnostic.

fn expiry_tick(backoff: Duration) {
    std::thread::sleep(backoff); // <- fires here
}
