//! SyDEventHandler: local/global events and periodic tasks (§3.1d).
//!
//! "This module handles local and global event registration, monitoring,
//! and triggering." Locally it is a topic-prefix-matched callback bus;
//! globally, events arrive from the network as fire-and-forget
//! [`syd_wire::EventMsg`]s and are re-published locally. The handler also
//! runs the kernel's periodic work — most importantly the link-expiry scan
//! of §4.2 op. 6 ("Periodically, the local event handler triggers a method
//! which checks for links whose expiration times have been surpassed").
//!
//! This module is also where *middleware triggers* (§5.3's stated future
//! direction) live: [`EventHandler::bridge_store`] installs a store-level
//! after-trigger that republishes every row change as a local event
//! (`store.<table>.insert|update|delete`), so application logic can react
//! to database changes without any Oracle-specific machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use syd_net::{SharedRuntime, TimerId};
use syd_store::{Store, Trigger, TriggerEvent};
use syd_types::sync::{Mutex, RwLock};
use syd_types::{SydResult, Value};

/// Callback invoked with `(topic, payload)`.
pub type EventCallback = Arc<dyn Fn(&str, &Value) + Send + Sync>;

/// A named periodic task: the runtime entry that fires it and the action
/// itself (kept so [`EventHandler::run_periodic_now`] can run it).
struct PeriodicTask {
    name: String,
    id: TimerId,
    action: Arc<dyn Fn() + Send + Sync>,
}

struct Inner {
    subs: RwLock<Vec<(String, EventCallback)>>,
    /// In registration order, which is the order `run_periodic_now` runs.
    tasks: Mutex<Vec<PeriodicTask>>,
    /// The runtime whose loop fires the tasks; this handler owns only its
    /// entries.
    runtime: SharedRuntime,
    published: AtomicU64,
    delivered: AtomicU64,
}

/// The event handler. Cloning shares it.
#[derive(Clone)]
pub struct EventHandler {
    inner: Arc<Inner>,
}

impl EventHandler {
    /// Creates an event handler whose periodic tasks run on `runtime`'s
    /// loop — shared with the rest of the fleet — so the handler costs no
    /// thread of its own.
    pub fn new(runtime: SharedRuntime) -> EventHandler {
        EventHandler {
            inner: Arc::new(Inner {
                subs: RwLock::new(Vec::new()),
                tasks: Mutex::new(Vec::new()),
                runtime,
                published: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
            }),
        }
    }

    /// Subscribes `callback` to every topic starting with `prefix`
    /// (empty prefix = everything).
    pub fn subscribe(&self, prefix: &str, callback: EventCallback) {
        self.inner.subs.write().push((prefix.to_owned(), callback));
    }

    /// Publishes an event to local subscribers, synchronously. `payload`
    /// builds the event's payload and is called only if some subscriber's
    /// prefix matches `topic`: an event nobody listens to costs a counter.
    pub fn publish_local(&self, topic: &str, payload: impl FnOnce() -> Value) {
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        let subs = self.inner.subs.read();
        let mut matching = subs
            .iter()
            .filter(|(prefix, _)| topic.starts_with(prefix.as_str()))
            .peekable();
        if matching.peek().is_none() {
            return;
        }
        let payload = payload();
        for (_, callback) in matching {
            self.inner.delivered.fetch_add(1, Ordering::Relaxed);
            callback(topic, &payload);
        }
    }

    /// Registers (or replaces) a periodic task. It runs on the runtime's
    /// loop and must not block: slow work goes to the pool.
    ///
    /// The registrar's trace context (if any) is captured and restored
    /// around every firing, so periodic work stays attributed to the
    /// trace that set it up.
    pub fn register_periodic(
        &self,
        name: &str,
        interval: Duration,
        action: impl Fn() + Send + Sync + 'static,
    ) {
        let ctx = syd_telemetry::trace::current();
        let action: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            let _span = ctx.map(syd_telemetry::trace::enter);
            action();
        });
        let loop_action = Arc::clone(&action);
        let mut tasks = self.inner.tasks.lock();
        self.cancel_locked(&mut tasks, name);
        tasks.push(PeriodicTask {
            name: name.to_owned(),
            id: self
                .inner
                .runtime
                .schedule_periodic(interval, move || loop_action()),
            action,
        });
    }

    /// Cancels a periodic task by name.
    pub fn cancel_periodic(&self, name: &str) {
        self.cancel_locked(&mut self.inner.tasks.lock(), name);
    }

    fn cancel_locked(&self, tasks: &mut Vec<PeriodicTask>, name: &str) {
        if let Some(at) = tasks.iter().position(|task| task.name == name) {
            self.inner.runtime.cancel_periodic(tasks.remove(at).id);
        }
    }

    /// Runs every periodic task once, immediately — used by tests and by
    /// deterministic benches instead of waiting for wall-clock intervals.
    pub fn run_periodic_now(&self) {
        let actions: Vec<Arc<dyn Fn() + Send + Sync>> = self
            .inner
            .tasks
            .lock()
            .iter()
            .map(|task| Arc::clone(&task.action))
            .collect();
        for action in actions {
            action();
        }
    }

    /// `(published, delivered)` local event counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.inner.published.load(Ordering::Relaxed),
            self.inner.delivered.load(Ordering::Relaxed),
        )
    }

    /// Installs middleware triggers: every row change on `table` in
    /// `store` is republished as a local event with topic
    /// `store.<table>.<insert|update|delete>` and a payload carrying the
    /// old/new row values.
    pub fn bridge_store(&self, store: &Store, table: &str) -> SydResult<()> {
        let handler = self.clone();
        let table_name = table.to_owned();
        store.add_trigger(Trigger::after(
            format!("syd-events-bridge-{table}"),
            table,
            vec![
                TriggerEvent::Insert,
                TriggerEvent::Update,
                TriggerEvent::Delete,
            ],
            move |ctx| {
                let kind = match ctx.event {
                    TriggerEvent::Insert => "insert",
                    TriggerEvent::Update => "update",
                    TriggerEvent::Delete => "delete",
                };
                let rows =
                    |row: Option<&[Value]>| row.map_or(Value::Null, |r| Value::list(r.to_vec()));
                handler.publish_local(&format!("store.{table_name}.{kind}"), || {
                    Value::map([("old", rows(ctx.old)), ("new", rows(ctx.new))])
                });
                Ok(())
            },
        ))
    }

    /// Stops timed work: cancels this handler's entries on the runtime
    /// (whose loop keeps running for everyone else).
    pub fn shutdown(&self) {
        for task in self.inner.tasks.lock().drain(..) {
            self.inner.runtime.cancel_periodic(task.id);
        }
    }
}

impl Drop for EventHandler {
    fn drop(&mut self) {
        // Last handle: cancel the runtime entries, whose actions would
        // otherwise keep capturing device internals forever.
        if Arc::strong_count(&self.inner) <= 1 {
            self.shutdown();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Instant;
    use syd_store::{Column, ColumnType, Predicate, Schema};

    /// A handler on a runtime of its own.
    fn handler(name: &str) -> (SharedRuntime, EventHandler) {
        let runtime = SharedRuntime::new(name);
        (runtime.clone(), EventHandler::new(runtime))
    }

    #[test]
    fn prefix_subscription_filters_topics() {
        let (_runtime, events) = handler("events-prefix");
        let link_events = Arc::new(AtomicU32::new(0));
        let all_events = Arc::new(AtomicU32::new(0));
        let lc = Arc::clone(&link_events);
        events.subscribe(
            "link.",
            Arc::new(move |_t, _p| {
                lc.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let ac = Arc::clone(&all_events);
        events.subscribe(
            "",
            Arc::new(move |_t, _p| {
                ac.fetch_add(1, Ordering::SeqCst);
            }),
        );
        events.publish_local("link.deleted", || Value::Null);
        events.publish_local("calendar.changed", || Value::Null);
        assert_eq!(link_events.load(Ordering::SeqCst), 1);
        assert_eq!(all_events.load(Ordering::SeqCst), 2);
        assert_eq!(events.counters(), (2, 3));
    }

    #[test]
    fn a_payload_is_built_once_and_only_for_a_subscriber() {
        let (_runtime, events) = handler("events-lazy");
        let built = AtomicU32::new(0);
        let build = || {
            built.fetch_add(1, Ordering::SeqCst);
            Value::from(7u64)
        };
        events.publish_local("link.created", build);
        assert_eq!(built.load(Ordering::SeqCst), 0, "nobody subscribed");
        let seen = Arc::new(Mutex::new(Vec::new()));
        for prefix in ["link.", ""] {
            let sink = Arc::clone(&seen);
            events.subscribe(
                prefix,
                Arc::new(move |_t, payload| sink.lock().push(payload.clone())),
            );
        }
        events.subscribe("calendar.", Arc::new(|_t, _p| panic!("wrong prefix")));
        events.publish_local("link.created", build);
        assert_eq!(
            built.load(Ordering::SeqCst),
            1,
            "two subscribers, one payload"
        );
        assert_eq!(*seen.lock(), vec![Value::from(7u64); 2]);
        assert_eq!(events.counters(), (2, 2));
    }

    #[test]
    fn periodic_task_runs_on_schedule() {
        let (_runtime, events) = handler("events-schedule");
        let runs = Arc::new(AtomicU32::new(0));
        let rc = Arc::clone(&runs);
        events.register_periodic("tick", Duration::from_millis(20), move || {
            rc.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(3);
        while runs.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "periodic task did not run");
            std::thread::sleep(Duration::from_millis(5));
        }
        events.cancel_periodic("tick");
        let after_cancel = runs.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(80));
        // Allow one in-flight run that raced the cancel.
        assert!(runs.load(Ordering::SeqCst) <= after_cancel + 1);
    }

    #[test]
    fn periodic_tasks_inherit_the_registrars_trace_context() {
        use syd_telemetry::trace;
        let (_runtime, events) = handler("events-trace");
        let ctx = trace::root_span();
        let seen = Arc::new(Mutex::new(None));
        {
            let _g = trace::enter(ctx);
            let sc = Arc::clone(&seen);
            events.register_periodic("probe", Duration::from_millis(10), move || {
                *sc.lock() = Some(trace::current());
            });
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        while seen.lock().is_none() {
            assert!(Instant::now() < deadline, "periodic task did not run");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*seen.lock(), Some(Some(ctx)), "the loop lost the ctx");
    }

    #[test]
    fn run_periodic_now_is_deterministic() {
        let (_runtime, events) = handler("events-now");
        let runs = Arc::new(AtomicU32::new(0));
        let rc = Arc::clone(&runs);
        events.register_periodic("scan", Duration::from_secs(3600), move || {
            rc.fetch_add(1, Ordering::SeqCst);
        });
        events.run_periodic_now();
        events.run_periodic_now();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn replacing_a_periodic_task_keeps_one_instance() {
        let (runtime, events) = handler("events-replace");
        let a = Arc::new(AtomicU32::new(0));
        let b = Arc::new(AtomicU32::new(0));
        let ac = Arc::clone(&a);
        events.register_periodic("job", Duration::from_secs(3600), move || {
            ac.fetch_add(1, Ordering::SeqCst);
        });
        let bc = Arc::clone(&b);
        events.register_periodic("job", Duration::from_secs(3600), move || {
            bc.fetch_add(1, Ordering::SeqCst);
        });
        events.run_periodic_now();
        assert_eq!(a.load(Ordering::SeqCst), 0, "old task should be replaced");
        assert_eq!(b.load(Ordering::SeqCst), 1);
        // The runtime's own watchdog, and one task.
        assert_eq!(runtime.periodic_tasks(), 2, "replaced entry still armed");
    }

    #[test]
    fn wheel_mode_runs_periodic_tasks_and_releases_the_shared_wheel() {
        let (runtime, events) = handler("events-shutdown");
        let runs = Arc::new(AtomicU32::new(0));
        let rc = Arc::clone(&runs);
        events.register_periodic("tick", Duration::from_millis(10), move || {
            rc.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(3);
        while runs.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "the task did not run");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Replacing a task must not leave the old entry firing.
        events.register_periodic("tick", Duration::from_secs(3600), || {});
        let after_replace = runs.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(60));
        assert!(runs.load(Ordering::SeqCst) <= after_replace + 1);
        events.shutdown();
        assert_eq!(runtime.periodic_tasks(), 1, "entries leaked on the runtime");
    }

    #[test]
    fn store_bridge_republishes_row_changes() {
        let (_runtime, events) = handler("events-bridge");
        let store = Store::new();
        store
            .create_table(
                Schema::new(
                    "slots",
                    vec![Column::required("day", ColumnType::I64)],
                    &["day"],
                )
                .unwrap(),
            )
            .unwrap();
        events.bridge_store(&store, "slots").unwrap();

        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sc = Arc::clone(&seen);
        events.subscribe(
            "store.slots.",
            Arc::new(move |topic, payload| {
                // Payload carries rows.
                assert!(payload.as_map().is_ok());
                sc.lock().push(topic.to_owned());
            }),
        );

        store.insert("slots", vec![Value::I64(1)]).unwrap();
        store
            .update(
                "slots",
                &Predicate::Eq("day".into(), Value::I64(1)),
                &[("day".into(), Value::I64(2))],
            )
            .unwrap();
        store
            .delete("slots", &Predicate::Eq("day".into(), Value::I64(2)))
            .unwrap();
        assert_eq!(
            *seen.lock(),
            vec![
                "store.slots.insert".to_owned(),
                "store.slots.update".to_owned(),
                "store.slots.delete".to_owned(),
            ]
        );
    }
}
