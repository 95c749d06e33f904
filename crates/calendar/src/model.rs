//! Calendar data model: slots, meetings, scheduling specs.

use syd_types::{Priority, SydError, SydResult, TimeSlot, UserId, Value};
use syd_wire::{decode_from_slice, encode_to_vec, Decode, Encode, Reader};

pub use syd_types::MeetingId;

/// Name of the SyD entity representing one calendar slot on a device.
/// Entities are device-local, so every participant's copy of "day 3,
/// 14:00" has the same name on their own device.
pub fn slot_entity(ordinal: u64) -> String {
    format!("slot:{ordinal}")
}

/// Parses a slot entity name back to its ordinal.
pub fn parse_slot_entity(entity: &str) -> SydResult<u64> {
    entity
        .strip_prefix("slot:")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SydError::App(format!("not a slot entity: `{entity}`")))
}

/// State of one slot in a user's calendar. Absent row = free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// Nothing scheduled.
    Free,
    /// Personal (non-meeting) engagement.
    Busy,
    /// Held tentatively for a meeting.
    Tentative(MeetingId),
    /// Committed to a meeting.
    Reserved(MeetingId),
}

impl SlotState {
    /// The meeting holding this slot, if any.
    pub fn meeting(&self) -> Option<MeetingId> {
        match self {
            SlotState::Tentative(m) | SlotState::Reserved(m) => Some(*m),
            _ => None,
        }
    }

    /// True iff the slot has no occupant at all.
    pub fn is_free(&self) -> bool {
        matches!(self, SlotState::Free)
    }
}

/// Meeting lifecycle status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeetingStatus {
    /// Some participants could not be reserved; waiting on availability.
    Tentative = 0,
    /// Every required participant holds the slot.
    Confirmed = 1,
    /// Cancelled by the initiator.
    Cancelled = 2,
    /// Lost its slot to a higher-priority meeting; being rescheduled.
    Bumped = 3,
}

impl MeetingStatus {
    /// Stable storage string.
    pub fn as_str(self) -> &'static str {
        match self {
            MeetingStatus::Tentative => "tent",
            MeetingStatus::Confirmed => "conf",
            MeetingStatus::Cancelled => "cancelled",
            MeetingStatus::Bumped => "bumped",
        }
    }

    /// Inverse of [`MeetingStatus::as_str`].
    pub fn parse(s: &str) -> SydResult<MeetingStatus> {
        Ok(match s {
            "tent" => MeetingStatus::Tentative,
            "conf" => MeetingStatus::Confirmed,
            "cancelled" => MeetingStatus::Cancelled,
            "bumped" => MeetingStatus::Bumped,
            other => return Err(SydError::App(format!("bad meeting status `{other}`"))),
        })
    }

    /// The status's byte in an encoded [`Meeting`] (and the `status`
    /// attribute of the `calendar.*_op` spans).
    pub fn tag(self) -> u8 {
        self as u8
    }

    fn from_tag(tag: u8) -> SydResult<MeetingStatus> {
        use MeetingStatus::{Bumped, Cancelled, Confirmed, Tentative};
        let known = [Tentative, Confirmed, Cancelled, Bumped];
        let status = known.get(usize::from(tag)).copied();
        status.ok_or_else(|| SydError::Codec(format!("bad meeting status {tag}")))
    }
}

/// An OR-group in a meeting spec: at least `k` of `members` must attend
/// (§5's "50% among the faculty of Biology and at least two … from
/// Physics"; §6's "multiple 'OR' groups").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSpec {
    /// Candidate members.
    pub members: Vec<UserId>,
    /// Quorum: minimum attendees from this group.
    pub k: u32,
}

impl GroupSpec {
    /// Builds a group spec.
    pub fn new(members: Vec<UserId>, k: u32) -> Self {
        GroupSpec { members, k }
    }
}

impl Encode for GroupSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.members.encode(buf);
        self.k.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.members.encoded_len() + self.k.encoded_len()
    }
}

impl Decode for GroupSpec {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(GroupSpec {
            members: Decode::decode(r)?,
            k: Decode::decode(r)?,
        })
    }
}

/// What the initiator asks for when setting up a meeting.
#[derive(Clone, Debug)]
pub struct MeetingSpec {
    /// Meeting title (also the mailbox subject).
    pub title: String,
    /// The slot to schedule into.
    pub slot: TimeSlot,
    /// Users that must attend (the initiator is always required and is
    /// added automatically).
    pub must_attend: Vec<UserId>,
    /// OR-groups with quorums; group members attend when available.
    pub groups: Vec<GroupSpec>,
    /// Participants whose schedule may change at will (supervisors, §5):
    /// they get subscription back links instead of negotiation back links.
    pub supervisors: Vec<UserId>,
    /// Meeting priority — a strictly higher priority may bump existing
    /// reservations (§6).
    pub priority: Priority,
}

impl MeetingSpec {
    /// A plain meeting: everyone listed must attend.
    pub fn plain(title: impl Into<String>, slot: TimeSlot, attendees: Vec<UserId>) -> Self {
        MeetingSpec {
            title: title.into(),
            slot,
            must_attend: attendees,
            groups: Vec::new(),
            supervisors: Vec::new(),
            priority: Priority::NORMAL,
        }
    }

    /// Builder: sets the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder: adds an OR-group.
    pub fn with_group(mut self, group: GroupSpec) -> Self {
        self.groups.push(group);
        self
    }

    /// Builder: marks users as supervisors.
    pub fn with_supervisors(mut self, supervisors: Vec<UserId>) -> Self {
        self.supervisors = supervisors;
        self
    }

    /// Every user that may participate (musts + group members), deduped,
    /// preserving first-occurrence order.
    pub fn all_participants(&self, initiator: UserId) -> Vec<UserId> {
        let mut out = vec![initiator];
        for &u in self
            .must_attend
            .iter()
            .chain(self.groups.iter().flat_map(|g| g.members.iter()))
        {
            if !out.contains(&u) {
                out.push(u);
            }
        }
        out
    }
}

/// A meeting record, as stored in every participant's database.
#[derive(Clone, Debug, PartialEq)]
pub struct Meeting {
    /// Meeting id (globally unique: initiator-scoped).
    pub id: MeetingId,
    /// Title.
    pub title: String,
    /// The user who called the meeting (only they may cancel it).
    pub initiator: UserId,
    /// The slot (ordinal) the meeting occupies.
    pub ordinal: u64,
    /// Lifecycle status.
    pub status: MeetingStatus,
    /// Priority.
    pub priority: Priority,
    /// Link correlation id tying all this meeting's links together.
    pub corr: String,
    /// Users currently holding the slot for this meeting.
    pub reserved: Vec<UserId>,
    /// Users that must attend (including the initiator).
    pub musts: Vec<UserId>,
    /// OR-groups.
    pub groups: Vec<GroupSpec>,
    /// Supervisors.
    pub supervisors: Vec<UserId>,
}

impl Meeting {
    /// All users that may participate.
    pub fn all_participants(&self) -> Vec<UserId> {
        let mut out = self.musts.clone();
        for g in &self.groups {
            for &u in &g.members {
                if !out.contains(&u) {
                    out.push(u);
                }
            }
        }
        out
    }

    /// Users not currently reserved.
    pub fn missing(&self) -> Vec<UserId> {
        self.all_participants()
            .into_iter()
            .filter(|u| !self.reserved.contains(u))
            .collect()
    }

    /// True iff the reserved set satisfies musts + every group quorum.
    pub fn constraints_satisfied_by(&self, reserved: &[UserId]) -> bool {
        self.musts.iter().all(|m| reserved.contains(m))
            && self
                .groups
                .iter()
                .all(|g| g.members.iter().filter(|m| reserved.contains(m)).count() >= g.k as usize)
    }

    /// True iff the current reserved set satisfies the constraints.
    pub fn constraints_satisfied(&self) -> bool {
        self.constraints_satisfied_by(&self.reserved)
    }

    /// Wire/storage form: the record's [`Encode`]d bytes in one
    /// [`Value::Bytes`] (DESIGN.md §18).
    pub fn to_value(&self) -> Value {
        Value::Bytes(encode_to_vec(self))
    }

    /// Inverse of [`Meeting::to_value`]; anything but well-formed bytes of
    /// the current version is refused.
    pub fn from_value(v: &Value) -> SydResult<Meeting> {
        decode_from_slice(v.as_bytes()?)
    }

    /// The status inside an encoded record, for a reader that wants
    /// nothing else: the fields before it are stepped over, the ones after
    /// it not looked at, and nothing is allocated.
    pub fn status_of(encoded: &[u8]) -> SydResult<MeetingStatus> {
        let r = &mut Reader::new(encoded);
        let version = r.u8()?;
        if version != MEETING_VERSION {
            return Err(SydError::Codec(format!("meeting record version {version}")));
        }
        MeetingId::decode(r)?;
        let title = r.len_prefix()?;
        r.bytes(title)?;
        UserId::decode(r)?;
        u64::decode(r)?;
        MeetingStatus::from_tag(r.u8()?)
    }
}

/// Leading byte of an encoded [`Meeting`]; a decoder refuses any other.
const MEETING_VERSION: u8 = 1;

impl Encode for Meeting {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(MEETING_VERSION);
        self.id.encode(buf);
        self.title.encode(buf);
        self.initiator.encode(buf);
        self.ordinal.encode(buf);
        buf.push(self.status.tag());
        self.priority.encode(buf);
        self.corr.encode(buf);
        self.reserved.encode(buf);
        self.musts.encode(buf);
        (self.groups.len() as u64).encode(buf);
        self.groups.iter().for_each(|g| g.encode(buf));
        self.supervisors.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        2 + self.id.encoded_len()
            + self.title.encoded_len()
            + self.initiator.encoded_len()
            + self.ordinal.encoded_len()
            + self.priority.encoded_len()
            + self.corr.encoded_len()
            + self.reserved.encoded_len()
            + self.musts.encoded_len()
            + (self.groups.len() as u64).encoded_len()
            + self.groups.iter().map(Encode::encoded_len).sum::<usize>()
            + self.supervisors.encoded_len()
    }
}

impl Decode for Meeting {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let version = r.u8()?;
        if version != MEETING_VERSION {
            return Err(SydError::Codec(format!("meeting record version {version}")));
        }
        Ok(Meeting {
            id: Decode::decode(r)?,
            title: Decode::decode(r)?,
            initiator: Decode::decode(r)?,
            ordinal: Decode::decode(r)?,
            status: MeetingStatus::from_tag(r.u8()?)?,
            priority: Decode::decode(r)?,
            corr: Decode::decode(r)?,
            reserved: Decode::decode(r)?,
            musts: Decode::decode(r)?,
            groups: {
                let groups = (0..r.len_prefix()?).map(|_| GroupSpec::decode(r));
                groups.collect::<SydResult<_>>()?
            },
            supervisors: Decode::decode(r)?,
        })
    }
}

/// What [`crate::CalendarApp::schedule`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleOutcome {
    /// The new meeting's id.
    pub meeting: MeetingId,
    /// Confirmed or tentative.
    pub status: MeetingStatus,
    /// Users holding the slot.
    pub reserved: Vec<UserId>,
    /// Users the meeting is still waiting on.
    pub pending: Vec<UserId>,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_types::rng::{cases, Rng};

    fn u(n: u64) -> UserId {
        UserId::new(n)
    }

    #[test]
    fn slot_entity_round_trip() {
        for ordinal in [0u64, 1, 99, 100_000] {
            assert_eq!(parse_slot_entity(&slot_entity(ordinal)).unwrap(), ordinal);
        }
        assert!(parse_slot_entity("meeting:4").is_err());
        assert!(parse_slot_entity("slot:abc").is_err());
    }

    #[test]
    fn slot_state_accessors() {
        assert!(SlotState::Free.is_free());
        assert!(!SlotState::Busy.is_free());
        assert_eq!(
            SlotState::Tentative(MeetingId::new(3)).meeting(),
            Some(MeetingId::new(3))
        );
        assert_eq!(SlotState::Busy.meeting(), None);
    }

    #[test]
    fn status_round_trip() {
        for s in [
            MeetingStatus::Tentative,
            MeetingStatus::Confirmed,
            MeetingStatus::Cancelled,
            MeetingStatus::Bumped,
        ] {
            assert_eq!(MeetingStatus::parse(s.as_str()).unwrap(), s);
        }
        assert!(MeetingStatus::parse("zzz").is_err());
    }

    #[test]
    fn spec_participants_dedupe_and_include_initiator() {
        let spec = MeetingSpec::plain("m", TimeSlot::new(1, 9), vec![u(2), u(3)])
            .with_group(GroupSpec::new(vec![u(3), u(4)], 1));
        let all = spec.all_participants(u(1));
        assert_eq!(all, vec![u(1), u(2), u(3), u(4)]);
    }

    fn meeting() -> Meeting {
        Meeting {
            id: MeetingId::new(7),
            title: "standup".into(),
            initiator: u(1),
            ordinal: 33,
            status: MeetingStatus::Tentative,
            priority: Priority::NORMAL,
            corr: "corr:1:5".into(),
            reserved: vec![u(1), u(2)],
            musts: vec![u(1), u(2)],
            groups: vec![GroupSpec::new(vec![u(3), u(4), u(5)], 2)],
            supervisors: vec![u(2)],
        }
    }

    fn users(rng: &mut Rng, max: u64) -> Vec<UserId> {
        // Empty and full lists are the edges; draw them often.
        let n = match rng.below(4) {
            0 => 0,
            1 => max,
            _ => rng.below(max + 1),
        };
        (0..n).map(|_| UserId::new(rng.any_u64())).collect()
    }

    fn generated(rng: &mut Rng) -> Meeting {
        Meeting {
            id: MeetingId::new(rng.any_u64()),
            title: rng.string(12),
            initiator: UserId::new(rng.any_u64()),
            ordinal: rng.any_u64(),
            status: [
                MeetingStatus::Tentative,
                MeetingStatus::Confirmed,
                MeetingStatus::Cancelled,
                MeetingStatus::Bumped,
            ][rng.below(4) as usize],
            priority: Priority::new(rng.any_u64() as u8),
            corr: rng.string(20),
            reserved: users(rng, 32),
            musts: users(rng, 32),
            groups: (0..rng.below(4))
                .map(|_| GroupSpec::new(users(rng, 32), rng.any_u64() as u32))
                .collect(),
            supervisors: users(rng, 32),
        }
    }

    #[test]
    fn meeting_value_round_trip() {
        cases(256, |rng| {
            let m = generated(rng);
            let bytes = encode_to_vec(&m);
            assert_eq!(bytes.len(), m.encoded_len());
            assert_eq!(decode_from_slice::<Meeting>(&bytes).unwrap(), m);
            assert_eq!(Meeting::from_value(&m.to_value()).unwrap(), m);
            assert_eq!(Meeting::status_of(&bytes).unwrap(), m.status);
        });
    }

    #[test]
    fn status_of_refuses_what_the_decoder_refuses() {
        let good = encode_to_vec(&meeting());
        let mut bytes = good.clone();
        bytes[0] = MEETING_VERSION + 1;
        assert!(matches!(
            Meeting::status_of(&bytes),
            Err(SydError::Codec(_))
        ));
        // Layout: version, id 7, "standup" behind its length, initiator 1,
        // ordinal 33, status.
        let at = 1 + 1 + 8 + 1 + 1;
        assert_eq!(good[at], MeetingStatus::Tentative.tag());
        for cut in 0..=at {
            let err = Meeting::status_of(&good[..cut]).unwrap_err();
            assert!(matches!(err, SydError::Codec(_)), "prefix {cut}: {err}");
        }
        bytes = good;
        bytes[at] = 4;
        assert!(matches!(
            Meeting::status_of(&bytes),
            Err(SydError::Codec(_))
        ));
    }

    #[test]
    fn truncated_and_extended_records_are_codec_errors() {
        cases(32, |rng| {
            let mut bytes = encode_to_vec(&generated(rng));
            for cut in 0..bytes.len() {
                let err = decode_from_slice::<Meeting>(&bytes[..cut]).unwrap_err();
                assert!(matches!(err, SydError::Codec(_)), "prefix {cut}: {err}");
            }
            bytes.push(rng.next_u64() as u8);
            let err = decode_from_slice::<Meeting>(&bytes).unwrap_err();
            assert!(
                matches!(err, SydError::Codec(_)),
                "one byte appended: {err}"
            );
        });
    }

    #[test]
    fn unknown_version_and_map_form_are_refused() {
        let mut bytes = encode_to_vec(&meeting());
        bytes[0] = MEETING_VERSION + 1;
        let err = Meeting::from_value(&Value::Bytes(bytes)).unwrap_err();
        assert!(matches!(err, SydError::Codec(_)), "{err}");

        // What a peer of the map era would send: refused, not half-read.
        let map = Value::map([("id", Value::from(7u64)), ("title", Value::str("standup"))]);
        let err = Meeting::from_value(&map).unwrap_err();
        assert!(
            matches!(&err, SydError::Protocol(m) if m.contains("type mismatch")),
            "{err}"
        );
    }

    /// The map form read numbers with `as`: a priority of 511 came back as
    /// 255 (`Priority::MAX`, which outranks everything) and a negative id
    /// as a huge one. The typed fields cannot hold such values, and what
    /// is out of a field's range on the wire is refused.
    #[test]
    fn out_of_range_fields_are_refused_not_wrapped() {
        let m = meeting();
        let bytes = encode_to_vec(&m);
        // Layout up to the status byte: version, id, title, initiator, ordinal.
        let status_at = 1
            + m.id.encoded_len()
            + m.title.encoded_len()
            + m.initiator.encoded_len()
            + m.ordinal.encoded_len();
        assert_eq!(bytes[status_at], m.status.tag());
        assert_eq!(
            bytes[status_at + 1],
            m.priority.level(),
            "one byte: 511 does not fit"
        );
        let mut bad = bytes.clone();
        bad[status_at] = 4;
        let err = decode_from_slice::<Meeting>(&bad).unwrap_err();
        assert!(matches!(err, SydError::Codec(_)), "status tag 4: {err}");

        // A quorum above `u32::MAX` in the one group: with no supervisors
        // the encoding ends `… k, 0`.
        let mut wide = m.clone();
        wide.supervisors.clear();
        let mut bad = encode_to_vec(&wide);
        let k_at = bad.len() - 2;
        assert_eq!(bad[k_at], 2);
        bad.splice(k_at..=k_at, [0xff, 0xff, 0xff, 0xff, 0x1f]); // 2³³ − 1
        let err = decode_from_slice::<Meeting>(&bad).unwrap_err();
        assert!(matches!(err, SydError::Codec(_)), "k over u32: {err}");
    }

    /// The record of `benchmark/src/probes.rs::wire`: what every mark and
    /// commit frame of an 8-member meeting carries.
    #[test]
    fn eight_member_record_fits_64_bytes() {
        let members: Vec<UserId> = (1..=8).map(UserId::new).collect();
        let record = Meeting {
            id: MeetingId::new((1 << 24) | 1),
            title: "a-0".into(),
            initiator: members[0],
            ordinal: 100,
            status: MeetingStatus::Tentative,
            priority: Priority::NORMAL,
            corr: format!("meeting:{}", (1u64 << 24) | 1),
            reserved: Vec::new(),
            musts: members,
            groups: Vec::new(),
            supervisors: Vec::new(),
        };
        let bytes = encode_to_vec(&record);
        assert_eq!(bytes.len(), record.encoded_len());
        assert!(bytes.len() <= 64, "{} B", bytes.len());
    }

    #[test]
    fn constraint_evaluation() {
        let m = meeting();
        // musts ok but group quorum (2 of {3,4,5}) unmet.
        assert!(!m.constraints_satisfied());
        assert!(m.constraints_satisfied_by(&[u(1), u(2), u(3), u(5)]));
        assert!(!m.constraints_satisfied_by(&[u(1), u(3), u(4)])); // must 2 missing
        assert!(!m.constraints_satisfied_by(&[u(1), u(2), u(3)])); // quorum 1 < 2
    }

    #[test]
    fn missing_lists_unreserved_participants() {
        let m = meeting();
        assert_eq!(m.missing(), vec![u(3), u(4), u(5)]);
        assert_eq!(m.all_participants(), vec![u(1), u(2), u(3), u(4), u(5)]);
    }
}
