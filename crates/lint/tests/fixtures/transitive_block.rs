//! Seeded violation: a poll loop that blocks two hops down its call
//! chain — the body itself never names a forbidden callee.
//! Expected: exactly one `transitive-blocking` diagnostic.

fn reactor_loop(rx: &Receiver<Event>) {
    loop {
        drain_backlog(rx); // <- fires here: chain reaches rx.recv()
    }
}

fn drain_backlog(rx: &Receiver<Event>) {
    wait_for_event(rx);
}

fn wait_for_event(rx: &Receiver<Event>) {
    let _ = rx.recv();
}
