//! Simulated e-mail: "the users involved in the meeting are notified about
//! the details of the meeting using an e-mail message" (§5.1).
//!
//! Each device serves a `mailbox` service whose `deliver` method appends
//! to a local `mail` table; [`Mailbox::send`] (one recipient) and
//! [`Mailbox::send_group`] (many, one round) are the SMTP stand-in. Mail is
//! best-effort, exactly like the prototype's SMTP: delivery failures are
//! reported but never block calendar operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syd_core::DeviceRuntime;
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_types::{ServiceName, SydResult, Timestamp, UserId, Value};

/// The mailbox service name.
pub fn mailbox_service() -> ServiceName {
    ServiceName::new("mailbox")
}

const T_MAIL: &str = "mail";

/// One delivered message.
#[derive(Clone, Debug, PartialEq)]
pub struct Mail {
    /// Local delivery id.
    pub id: u64,
    /// Sender.
    pub from: UserId,
    /// Subject line.
    pub subject: String,
    /// Body text.
    pub body: String,
    /// Delivery time (device clock).
    pub received: Timestamp,
}

/// A device's mailbox: local inbox plus outgoing delivery.
pub struct Mailbox {
    device: DeviceRuntime,
    store: Store,
    next_id: AtomicU64,
}

impl Mailbox {
    /// Installs the mailbox on a device: creates the `mail` table and
    /// registers `mailbox/deliver`.
    pub fn install(device: &DeviceRuntime) -> SydResult<Arc<Mailbox>> {
        let store = device.store().clone();
        store.create_table(Schema::new(
            T_MAIL,
            vec![
                Column::required("id", ColumnType::I64),
                Column::required("from", ColumnType::I64),
                Column::required("subject", ColumnType::Str),
                Column::required("body", ColumnType::Str),
                Column::required("received", ColumnType::I64),
            ],
            &["id"],
        )?)?;
        let mailbox = Arc::new(Mailbox {
            device: device.clone(),
            store,
            next_id: AtomicU64::new(1),
        });
        let weak = Arc::downgrade(&mailbox);
        device.register_service(
            &mailbox_service(),
            "deliver",
            Arc::new(move |ctx, args: &[Value]| {
                let mailbox = weak.upgrade().ok_or(syd_types::SydError::Shutdown)?;
                let subject = args
                    .first()
                    .ok_or_else(|| syd_types::SydError::Protocol("deliver needs subject".into()))?
                    .as_str()?;
                let body = args.get(1).map(|v| v.as_str()).transpose()?.unwrap_or("");
                mailbox.deliver_local(ctx.caller, subject, body)?;
                Ok(Value::Null)
            }),
        )?;
        Ok(mailbox)
    }

    pub(crate) fn deliver_local(&self, from: UserId, subject: &str, body: &str) -> SydResult<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.store.insert(
            T_MAIL,
            vec![
                Value::from(id),
                Value::from(from.raw()),
                Value::str(subject),
                Value::str(body),
                Value::from(self.device.clock().now().as_micros()),
            ],
        )?;
        self.device
            .events()
            .publish_local("mailbox.delivered", || Value::str(subject));
        Ok(id)
    }

    /// The argument list of `mailbox/deliver`.
    pub(crate) fn deliver_args(subject: &str, body: &str) -> Vec<Value> {
        vec![Value::str(subject), Value::str(body)]
    }

    /// Sends a message to `to`'s mailbox. Best effort.
    pub fn send(&self, to: UserId, subject: &str, body: &str) -> SydResult<()> {
        self.device
            .engine()
            .invoke(
                to,
                &mailbox_service(),
                "deliver",
                Self::deliver_args(subject, body),
            )
            .map(|_| ())
    }

    /// Sends the same message to every mailbox of `to` in one round.
    /// Best effort per recipient: the outcomes come back in the order
    /// given, and one recipient's failure fails nobody else.
    pub fn send_group(
        &self,
        to: &[UserId],
        subject: &str,
        body: &str,
    ) -> Vec<(UserId, SydResult<()>)> {
        self.device
            .engine()
            .invoke_group(
                to,
                &mailbox_service(),
                "deliver",
                Self::deliver_args(subject, body),
            )
            .outcomes
            .into_iter()
            .map(|(user, outcome)| (user, outcome.map(|_| ())))
            .collect()
    }

    /// The local inbox, oldest first.
    pub fn inbox(&self) -> SydResult<Vec<Mail>> {
        self.store
            .query(T_MAIL)
            .order_by("id", true)
            .run()?
            .into_iter()
            .map(|row| {
                Ok(Mail {
                    id: row.values[0].as_i64()? as u64,
                    from: UserId::new(row.values[1].as_i64()? as u64),
                    subject: row.values[2].as_str()?.to_owned(),
                    body: row.values[3].as_str()?.to_owned(),
                    received: Timestamp::from_micros(row.values[4].as_i64()? as u64),
                })
            })
            .collect()
    }

    /// Number of messages in the inbox.
    pub fn unread(&self) -> SydResult<usize> {
        self.store.count(T_MAIL, &Predicate::True)
    }

    /// Deletes everything in the inbox.
    pub fn clear(&self) -> SydResult<usize> {
        self.store.delete(T_MAIL, &Predicate::True)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_core::SydEnv;
    use syd_net::NetConfig;

    #[test]
    fn send_and_receive() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let a = env.device("alice", "").unwrap();
        let b = env.device("bob", "").unwrap();
        let ma = Mailbox::install(&a).unwrap();
        let mb = Mailbox::install(&b).unwrap();

        ma.send(b.user(), "meeting confirmed", "day 3 14:00")
            .unwrap();
        ma.send(b.user(), "meeting cancelled", "sorry").unwrap();

        let inbox = mb.inbox().unwrap();
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].subject, "meeting confirmed");
        assert_eq!(inbox[0].from, a.user());
        assert_eq!(inbox[1].subject, "meeting cancelled");
        assert_eq!(mb.unread().unwrap(), 2);
        assert_eq!(ma.unread().unwrap(), 0);

        mb.clear().unwrap();
        assert_eq!(mb.unread().unwrap(), 0);
    }

    #[test]
    fn send_to_unknown_user_fails_cleanly() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let a = env.device("alice", "").unwrap();
        let ma = Mailbox::install(&a).unwrap();
        assert!(ma.send(UserId::new(999), "hi", "x").is_err());
    }

    #[test]
    fn send_group_delivers_one_mail_each_and_reports_failures_per_recipient() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let a = env.device("alice", "").unwrap();
        let b = env.device("bob", "").unwrap();
        let c = env.device("carol", "").unwrap();
        let ma = Mailbox::install(&a).unwrap();
        let mb = Mailbox::install(&b).unwrap();
        let mc = Mailbox::install(&c).unwrap();

        let nobody = UserId::new(999);
        let outcomes = ma.send_group(&[b.user(), nobody, c.user()], "moved", "to day 4");
        let users: Vec<UserId> = outcomes.iter().map(|(u, _)| *u).collect();
        assert_eq!(users, vec![b.user(), nobody, c.user()]);
        assert!(outcomes[0].1.is_ok());
        assert!(outcomes[1].1.is_err(), "an unknown recipient must fail");
        assert!(outcomes[2].1.is_ok(), "…without failing the others");

        for inbox in [mb.inbox().unwrap(), mc.inbox().unwrap()] {
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox[0].subject, "moved");
            assert_eq!(inbox[0].body, "to day 4");
            assert_eq!(inbox[0].from, a.user());
        }
        assert_eq!(ma.unread().unwrap(), 0);
    }

    #[test]
    fn delivery_publishes_local_event() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let a = env.device("alice", "").unwrap();
        let b = env.device("bob", "").unwrap();
        let ma = Mailbox::install(&a).unwrap();
        let _mb = Mailbox::install(&b).unwrap();
        let seen = Arc::new(syd_types::sync::Mutex::new(Vec::<String>::new()));
        let sc = Arc::clone(&seen);
        b.events().subscribe(
            "mailbox.",
            Arc::new(move |_t, payload| {
                sc.lock().push(payload.as_str().unwrap_or("?").to_owned());
            }),
        );
        ma.send(b.user(), "ping", "").unwrap();
        assert_eq!(*seen.lock(), vec!["ping".to_owned()]);
    }
}
