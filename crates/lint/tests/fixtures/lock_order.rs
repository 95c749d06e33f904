//! Seeded violation: re-acquiring a held `std::sync`-backed Mutex.
//! Expected: exactly one `lock-order` diagnostic (self-deadlock).

struct Ledger {
    state: Mutex<u8>,
}

impl Ledger {
    fn double_lock(&self) {
        let outer = self.state.lock();
        let inner = self.state.lock(); // <- fires here
        let _ = (*outer, *inner);
    }
}
