//! Seeded violation: a periodic tick that runs a remote call on the
//! shared runtime loop. The tick never names a blocking callee: the wait
//! is the wave's collect loop, a condvar wait on the reply table two hops
//! down (`expiry_tick` → `call_many` → `collect`).
//! Expected: exactly one `transitive-blocking` diagnostic.

struct NodeShared {
    pending: Mutex<HashMap<u64, Option<u64>>>,
    answered: Condvar,
}

impl NodeShared {
    fn expiry_tick(&self) {
        let _ = self.call_many(&[1, 2]); // <- fires here
    }

    fn call_many(&self, ids: &[u64]) -> Vec<Option<u64>> {
        self.collect(ids, Instant::now() + Duration::from_secs(2))
    }

    fn collect(&self, ids: &[u64], deadline: Instant) -> Vec<Option<u64>> {
        let mut table = self.pending.lock();
        for id in ids {
            while matches!(table.get(id), Some(None)) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                table = self.answered.wait_timeout(table, left).0;
            }
        }
        ids.iter().map(|id| table.remove(id).flatten()).collect()
    }
}
