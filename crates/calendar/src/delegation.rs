//! Delegation (§5): "an executive may want to delegate the task of
//! scheduling a meeting to a staff who would be able to call the meeting
//! with the transferred authority of his boss."
//!
//! A grant lives in the *delegator's* database (their device is the
//! authority on what they delegated) and is checked over the network at
//! scheduling time: the staff member schedules with the executive's
//! priority, and the executive is recorded as a must-attendee unless the
//! grant says otherwise. Grants can be revoked at any time and may expire.

use syd_store::{Column, ColumnType, Predicate, Schema};
use syd_types::{Priority, SydError, SydResult, Timestamp, UserId, Value};

use syd_core::{InvokeCtx, Verb};
use syd_wire::AsValue;

use crate::app::{CalendarApp, CALENDAR};
use crate::model::{MeetingSpec, ScheduleOutcome};

const T_DELEGATIONS: &str = "delegations";

/// The priority a delegate may schedule with, or an error: served by the
/// delegator's device, so authority is always checked against the live
/// grant, not a stale copy.
pub const AUTHORITY_CHECK: Verb<(UserId,), Priority> = Verb::new(CALENDAR, "authority_check");

/// [`AUTHORITY_CHECK`]'s handler.
pub(crate) fn authority_check(
    app: &CalendarApp,
    ctx: &InvokeCtx,
    (delegate,): (UserId,),
) -> SydResult<Priority> {
    // When authenticated, only the delegate themself can exercise the
    // grant.
    if ctx.authenticated && ctx.caller != delegate {
        return Err(SydError::AuthFailed(ctx.caller));
    }
    let grant = app
        .delegation_for(delegate)?
        .ok_or_else(|| SydError::App(format!("{delegate} holds no delegation")))?;
    if let Some(expires) = grant.expires {
        if app.device.clock().now() > expires {
            return Err(SydError::App("delegation expired".into()));
        }
    }
    Ok(grant.priority)
}

/// A delegation grant as seen by the grantee.
#[derive(Clone, Debug, PartialEq)]
pub struct Delegation {
    /// Who granted the authority.
    pub delegator: UserId,
    /// Who may exercise it.
    pub delegate: UserId,
    /// The priority the delegate may schedule with.
    pub priority: Priority,
    /// Optional expiry.
    pub expires: Option<Timestamp>,
}

impl CalendarApp {
    /// Installs the delegation table. Called from `CalendarApp::install`,
    /// which serves [`authority_check`] in the `calendar` table.
    pub(crate) fn install_delegation(&self) -> SydResult<()> {
        self.store.create_table(Schema::new(
            T_DELEGATIONS,
            vec![
                Column::required("delegate", ColumnType::I64),
                Column::required("priority", ColumnType::I64),
                Column::nullable("expires", ColumnType::I64),
            ],
            &["delegate"],
        )?)?;

        Ok(())
    }

    /// Grants `delegate` the authority to schedule with `priority` on this
    /// user's behalf.
    pub fn delegate_authority(
        &self,
        delegate: UserId,
        priority: Priority,
        expires: Option<Timestamp>,
    ) -> SydResult<()> {
        let row = vec![
            Value::from(delegate.raw()),
            Value::from(priority.level() as u32),
            expires.map_or(Value::Null, |t| Value::from(t.as_micros())),
        ];
        if self
            .store
            .get_by_key(T_DELEGATIONS, &[Value::from(delegate.raw())])?
            .is_some()
        {
            self.store.update(
                T_DELEGATIONS,
                &Predicate::Eq("delegate".into(), Value::from(delegate.raw())),
                &[
                    ("priority".into(), row[1].clone()),
                    ("expires".into(), row[2].clone()),
                ],
            )?;
        } else {
            self.store.insert(T_DELEGATIONS, row)?;
        }
        Ok(())
    }

    /// Revokes a delegation.
    pub fn revoke_delegation(&self, delegate: UserId) -> SydResult<()> {
        self.store.delete(
            T_DELEGATIONS,
            &Predicate::Eq("delegate".into(), Value::from(delegate.raw())),
        )?;
        Ok(())
    }

    /// The grant this user holds for `delegate`, if any (delegator side).
    pub fn delegation_for(&self, delegate: UserId) -> SydResult<Option<Delegation>> {
        match self
            .store
            .get_by_key(T_DELEGATIONS, &[Value::from(delegate.raw())])?
        {
            None => Ok(None),
            Some(row) => Ok(Some(Delegation {
                delegator: self.user(),
                delegate,
                priority: Priority::view(&row.values[1])?,
                expires: match &row.values[2] {
                    Value::Null => None,
                    v => Some(Timestamp::from_micros(v.as_i64()? as u64)),
                },
            })),
        }
    }

    /// Schedules a meeting *with the transferred authority* of `boss`:
    /// the boss's device is asked to confirm the grant, the meeting runs
    /// at the granted priority, and the boss is added as a must-attendee.
    pub fn schedule_on_behalf_of(
        &self,
        boss: UserId,
        mut spec: MeetingSpec,
    ) -> SydResult<ScheduleOutcome> {
        let engine = self.device.engine();
        spec.priority = engine.call(boss, AUTHORITY_CHECK, (self.user(),))?;
        if !spec.must_attend.contains(&boss) {
            spec.must_attend.push(boss);
        }
        self.schedule(spec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::model::MeetingStatus;
    use crate::CalendarApp;
    use std::sync::Arc;
    use syd_core::SydEnv;
    use syd_net::NetConfig;
    use syd_types::TimeSlot;

    fn rig() -> (SydEnv, Vec<Arc<CalendarApp>>) {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let apps = (0..3)
            .map(|i| CalendarApp::install(&env.device(&format!("u{i}"), "").unwrap()).unwrap())
            .collect();
        (env, apps)
    }

    #[test]
    fn staff_schedules_with_boss_authority() {
        let (_env, apps) = rig();
        let boss = &apps[0];
        let staff = &apps[1];
        let third = &apps[2];

        boss.delegate_authority(staff.user(), Priority::new(210), None)
            .unwrap();

        // A low-priority meeting already holds the slot.
        let slot = TimeSlot::new(1, 10);
        let low = third
            .schedule(
                MeetingSpec::plain("low", slot, vec![staff.user()])
                    .with_priority(Priority::new(50)),
            )
            .unwrap();
        assert_eq!(low.status, MeetingStatus::Confirmed);

        // The staff member schedules on the boss's behalf: executive
        // priority bumps the low meeting.
        let outcome = staff
            .schedule_on_behalf_of(
                boss.user(),
                MeetingSpec::plain("exec sync", slot, vec![third.user()]),
            )
            .unwrap();
        assert_eq!(outcome.status, MeetingStatus::Confirmed);
        let rec = staff.meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.priority, Priority::new(210));
        assert!(rec.musts.contains(&boss.user()), "boss is a must-attendee");
        assert_eq!(
            staff.slot_state(slot.ordinal()).unwrap().meeting(),
            Some(outcome.meeting)
        );
    }

    #[test]
    fn no_grant_no_authority() {
        let (_env, apps) = rig();
        let err = apps[1]
            .schedule_on_behalf_of(
                apps[0].user(),
                MeetingSpec::plain("m", TimeSlot::new(1, 9), vec![]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("no delegation"), "{err}");
    }

    #[test]
    fn revocation_takes_effect_immediately() {
        let (_env, apps) = rig();
        apps[0]
            .delegate_authority(apps[1].user(), Priority::HIGH, None)
            .unwrap();
        assert!(apps[0].delegation_for(apps[1].user()).unwrap().is_some());
        apps[0].revoke_delegation(apps[1].user()).unwrap();
        assert!(apps[0].delegation_for(apps[1].user()).unwrap().is_none());
        assert!(apps[1]
            .schedule_on_behalf_of(
                apps[0].user(),
                MeetingSpec::plain("m", TimeSlot::new(1, 9), vec![]),
            )
            .is_err());
    }

    #[test]
    fn expired_grant_is_refused() {
        use syd_net::Network;
        use syd_types::SimClock;
        let clock = SimClock::new();
        let net = Network::with_clock(NetConfig::ideal(), Arc::new(clock.clone()));
        let env = SydEnv::on_network(net, None);
        let boss = CalendarApp::install(&env.device("boss", "").unwrap()).unwrap();
        let staff = CalendarApp::install(&env.device("staff", "").unwrap()).unwrap();
        boss.delegate_authority(
            staff.user(),
            Priority::HIGH,
            Some(Timestamp::from_micros(1_000)),
        )
        .unwrap();
        // Valid before expiry…
        staff
            .schedule_on_behalf_of(
                boss.user(),
                MeetingSpec::plain("m", TimeSlot::new(1, 9), vec![]),
            )
            .unwrap();
        // …refused after.
        clock.advance(std::time::Duration::from_millis(5));
        let err = staff
            .schedule_on_behalf_of(
                boss.user(),
                MeetingSpec::plain("m", TimeSlot::new(2, 9), vec![]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("expired"), "{err}");
    }

    #[test]
    fn grants_can_be_updated() {
        let (_env, apps) = rig();
        apps[0]
            .delegate_authority(apps[1].user(), Priority::new(100), None)
            .unwrap();
        apps[0]
            .delegate_authority(apps[1].user(), Priority::new(250), None)
            .unwrap();
        let grant = apps[0].delegation_for(apps[1].user()).unwrap().unwrap();
        assert_eq!(grant.priority, Priority::new(250));
    }
}
