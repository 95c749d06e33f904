//! Seeded violation: the pre-fix shape of
//! `DeviceRuntime::register_periodic_tasks` — a strong `Arc<DeviceInner>`
//! captured by a closure registered on the shared runtime loop. The loop
//! outlives every device, so the capture pins device + runtime after the
//! last external handle drops (the real fix captures `Arc::downgrade`
//! and upgrades inside the closure).
//! Expected: exactly one `strong-capture-cycle` diagnostic.

struct DeviceRuntime {
    inner: Arc<DeviceInner>,
}

impl DeviceRuntime {
    fn register_periodic_tasks(&self) {
        let inner = Arc::clone(&self.inner);
        self.events
            .register_periodic("link-expiry", EXPIRY_TICK, move || {
                // <- fires on the register_periodic call above
                let _ = inner.links.expire_scan();
            });
    }
}
