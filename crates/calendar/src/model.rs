//! Calendar data model: slots, meetings, scheduling specs.

use std::ops::Range;

use syd_types::{Bytes, Priority, SydError, SydResult, Text, TimeSlot, UserId, Value};
use syd_wire::{read_owned, AsValue, Decode, Encode, InPlace, Reader, Record, Sink};

pub use syd_types::MeetingId;

/// Name of the SyD entity representing one calendar slot on a device.
/// Entities are device-local, so every participant's copy of "day 3,
/// 14:00" has the same name on their own device.
pub fn slot_entity(ordinal: u64) -> Text {
    Text::format(format_args!("slot:{ordinal}"))
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
    /// The status's only encoding: its byte in an encoded [`Meeting`],
    /// its number as a `release_slot` argument or a `slots` cell, and the
    /// `status` attribute of the `calendar.*_op` spans.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The status whose [`tag`](MeetingStatus::tag) is `tag`; any other
    /// number is a codec error.
    pub fn from_tag(tag: i64) -> SydResult<MeetingStatus> {
        use MeetingStatus::{Bumped, Cancelled, Confirmed, Tentative};
        let known = [Tentative, Confirmed, Cancelled, Bumped];
        let status = usize::try_from(tag).ok().and_then(|i| known.get(i));
        status
            .copied()
            .ok_or_else(|| SydError::Codec(format!("bad meeting status {tag}")))
    }
}

impl From<MeetingStatus> for Value {
    fn from(status: MeetingStatus) -> Value {
        Value::from(u32::from(status.tag()))
    }
}

/// A status argument is its tag; an unknown one is a protocol error.
impl AsValue for MeetingStatus {
    type View<'a> = MeetingStatus;

    fn view(r: &mut Reader<'_>) -> SydResult<MeetingStatus> {
        read_owned(r)
    }

    fn from_value(value: Value) -> SydResult<MeetingStatus> {
        let status = MeetingStatus::from_tag(value.as_i64()?);
        status.map_err(|err| SydError::Protocol(err.to_string()))
    }

    fn into_value(self) -> Value {
        Value::from(self)
    }
}

/// A slot's state travels as its status name and holding meeting.
impl AsValue for SlotState {
    type View<'a> = SlotState;

    fn view(r: &mut Reader<'_>) -> SydResult<SlotState> {
        read_owned(r)
    }

    fn from_value(value: Value) -> SydResult<SlotState> {
        let (status, meeting) = <(Text, Option<MeetingId>)>::from_value(value)?;
        match (status.as_str(), meeting) {
            ("free", None) => Ok(SlotState::Free),
            ("busy", None) => Ok(SlotState::Busy),
            ("tent", Some(m)) => Ok(SlotState::Tentative(m)),
            ("conf", Some(m)) => Ok(SlotState::Reserved(m)),
            (status, meeting) => Err(SydError::Protocol(format!(
                "bad slot state {status} of {meeting:?}"
            ))),
        }
    }

    fn into_value(self) -> Value {
        let (status, meeting) = match self {
            SlotState::Free => ("free", None),
            SlotState::Busy => ("busy", None),
            SlotState::Tentative(m) => ("tent", Some(m)),
            SlotState::Reserved(m) => ("conf", Some(m)),
        };
        (Text::from(status), meeting).into_value()
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
    fn encode(&self, buf: &mut impl Sink) {
        self.members.encode(buf);
        self.k.encode(buf);
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
    pub title: Text,
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
    pub fn plain(title: impl Into<Text>, slot: TimeSlot, attendees: Vec<UserId>) -> Self {
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
    pub title: Text,
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
    /// [`Value::Bytes`] (DESIGN.md §18), as [`Record::new`] encodes it.
    pub fn to_value(&self) -> Value {
        Record::new(self).into_value()
    }
}

/// Leading byte of an encoded [`Meeting`]; a decoder refuses any other.
const MEETING_VERSION: u8 = 1;

impl Encode for Meeting {
    fn encode(&self, buf: &mut impl Sink) {
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
            status: MeetingStatus::from_tag(r.u8()?.into())?,
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

/// A meeting record read in place ([`syd_wire::Encoded`]): what a member
/// reads of the record it was sent or stores, found in the bytes.
pub struct MeetingFields<'a> {
    /// Meeting id.
    pub id: MeetingId,
    /// Title.
    pub title: &'a str,
    /// The user who called the meeting.
    pub initiator: UserId,
    /// The slot (ordinal) the meeting occupies.
    pub ordinal: u64,
    /// Lifecycle status.
    pub status: MeetingStatus,
    /// Priority.
    pub priority: Priority,
    /// Link correlation id.
    pub corr: &'a str,
    bytes: &'a [u8],
    /// Where the status byte and the `reserved` list sit in `bytes`.
    status_at: usize,
    reserved: Range<usize>,
    /// `musts` and `groups`, from the former's count on, and the number
    /// of musts.
    members: &'a [u8],
    musts: usize,
}

impl<'a> MeetingFields<'a> {
    /// Every user that may participate, as [`Meeting::all_participants`]
    /// lists them: the musts, then each group member not listed before.
    pub fn roster(&self) -> impl Iterator<Item = UserId> + Clone + 'a {
        let listed = members(self.members);
        let musts = self.musts;
        let roster = listed.clone().enumerate();
        roster.filter_map(move |(i, user)| {
            (i < musts || !listed.clone().take(i).any(|u| u == user)).then_some(user)
        })
    }

    /// The record with `status` written in, and with its `reserved` list
    /// emptied when `clear_reserved`; the rest of the bytes as they are.
    pub fn with_status(
        &self,
        status: MeetingStatus,
        clear_reserved: bool,
    ) -> SydResult<Record<Meeting>> {
        let b = self.bytes;
        let (cut, with): (Range<usize>, &[u8]) = match clear_reserved {
            true => (self.reserved.clone(), &[0]),
            false => (b.len()..b.len(), &[]),
        };
        let status = [status.tag()];
        let (head, after) = (&b[..self.status_at], &b[self.status_at + 1..cut.start]);
        let bytes = Bytes::concat(&[head, &status, after, with, &b[cut.end..]]);
        Record::from_value(Value::Bytes(bytes))
    }
}

/// The users of an encoded `musts` list and of each group after it, in
/// their order, duplicates included. The bytes were checked when read.
fn members(bytes: &[u8]) -> impl Iterator<Item = UserId> + Clone + '_ {
    let mut r = Reader::new(bytes);
    // Users left in the list read, groups not yet read (none while the
    // musts are), and whether a group's quorum follows its list.
    let mut left = r.len_prefix().unwrap_or(0);
    let (mut groups, mut quorum) = (None, false);
    std::iter::from_fn(move || {
        while left == 0 {
            if quorum {
                u32::decode(&mut r).ok()?;
            }
            let n = match groups {
                None => r.len_prefix().ok()?,
                Some(n) => n,
            };
            (groups, quorum) = (Some(n.saturating_sub(1)), n > 0);
            if n == 0 {
                return None;
            }
            left = r.len_prefix().ok()?;
        }
        left -= 1;
        UserId::decode(&mut r).ok()
    })
}

/// Steps over [`Meeting`]'s layout as its decoder reads it, refusing what
/// it refuses, and keeps the fields a member reads.
impl InPlace for Meeting {
    type Fields<'a> = MeetingFields<'a>;

    fn read(bytes: &[u8]) -> SydResult<MeetingFields<'_>> {
        let r = &mut Reader::new(bytes);
        let at = |r: &Reader<'_>| bytes.len() - r.remaining();
        let version = r.u8()?;
        if version != MEETING_VERSION {
            return Err(SydError::Codec(format!("meeting record version {version}")));
        }
        let id = MeetingId::decode(r)?;
        let title = r.str()?;
        let initiator = UserId::decode(r)?;
        let ordinal = u64::decode(r)?;
        let status_at = at(r);
        let status = MeetingStatus::from_tag(r.u8()?.into())?;
        let priority = Priority::decode(r)?;
        let corr = r.str()?;
        let users = |r: &mut Reader<'_>| {
            let n = r.len_prefix()?;
            (0..n).try_for_each(|_| UserId::decode(r).map(drop))?;
            Ok::<_, SydError>(n)
        };
        let reserved = at(r);
        users(r)?;
        let reserved = reserved..at(r);
        let members = at(r);
        let musts = users(r)?;
        for _ in 0..r.len_prefix()? {
            users(r)?;
            u32::decode(r)?;
        }
        let members = &bytes[members..at(r)];
        users(r)?;
        r.end()?;
        Ok(MeetingFields {
            id,
            title,
            initiator,
            ordinal,
            status,
            priority,
            corr,
            bytes,
            status_at,
            reserved,
            members,
            musts,
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
    use syd_wire::encoded_len;
    use syd_wire::{decode_from_slice, encode_to_vec};

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
            assert_eq!(MeetingStatus::from_tag(s.tag().into()).unwrap(), s);
            assert_eq!(Value::from(s), Value::I64(s.tag().into()));
        }
        for tag in [-1, 4, 256] {
            assert!(matches!(
                MeetingStatus::from_tag(tag),
                Err(SydError::Codec(_))
            ));
        }
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
            title: rng.string(12).into(),
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
            assert_eq!(bytes.len(), encoded_len(&m));
            assert_eq!(decode_from_slice::<Meeting>(&bytes).unwrap(), m);
            let value = m.to_value();
            assert_eq!(
                decode_from_slice::<Meeting>(value.as_bytes().unwrap()).unwrap(),
                m
            );
        });
    }

    /// A record read in place reads what the decoder reads, lists the
    /// roster `all_participants` lists, and a status written into its
    /// bytes is the record re-encoded with that status.
    #[test]
    fn a_record_read_in_place_is_the_decoded_record() {
        cases(256, |rng| {
            let mut m = generated(rng);
            if rng.below(2) == 0 {
                // Group members that are musts, or in two groups.
                let g = GroupSpec::new(m.musts.iter().chain(&m.reserved).copied().collect(), 1);
                m.groups.push(g);
            }
            let bytes = encode_to_vec(&m);
            let f = Meeting::read(&bytes).unwrap();
            let head = (
                f.id,
                f.title,
                f.initiator,
                f.ordinal,
                f.status,
                f.priority,
                f.corr,
            );
            let want = (m.id, m.title.as_str(), m.initiator, m.ordinal, m.status);
            assert_eq!(
                head,
                (
                    want.0,
                    want.1,
                    want.2,
                    want.3,
                    want.4,
                    m.priority,
                    &m.corr[..]
                )
            );
            assert_eq!(f.roster().collect::<Vec<_>>(), m.all_participants());
            for (status, clear) in [
                (MeetingStatus::Cancelled, true),
                (MeetingStatus::Bumped, false),
            ] {
                let mut expected = m.clone();
                expected.status = status;
                if clear {
                    expected.reserved.clear();
                }
                let rewritten = f.with_status(status, clear).unwrap();
                assert_eq!(rewritten.value(), Record::new(&expected).value());
            }
        });
    }

    /// The in-place read refuses every malformed record the decoder
    /// refuses, with the same error: every strict prefix, a byte
    /// appended, an unknown version, an unknown status tag.
    #[test]
    fn the_in_place_read_refuses_what_the_decoder_refuses() {
        let same = |bytes: &[u8]| {
            let read = Meeting::read(bytes).err().map(|e| e.to_string());
            let decoded = decode_from_slice::<Meeting>(bytes)
                .err()
                .map(|e| e.to_string());
            assert_eq!(read, decoded, "{bytes:?}");
            assert!(read.is_some());
        };
        cases(32, |rng| {
            let good = encode_to_vec(&generated(rng));
            (0..good.len()).for_each(|cut| same(&good[..cut]));
            let mut bytes = good.clone();
            bytes.push(rng.next_u64() as u8);
            same(&bytes);
            bytes = good.clone();
            bytes[0] = MEETING_VERSION + 1;
            same(&bytes);
            let mut record = decode_from_slice::<Meeting>(&good).unwrap();
            record.title = "t".into(); // status after 1 + id + 2 + initiator + ordinal
            let mut bytes = encode_to_vec(&record);
            let at = 1 + encoded_len(&record.id) + 2;
            let at = at + encoded_len(&record.initiator) + encoded_len(&record.ordinal);
            assert_eq!(bytes[at], record.status.tag());
            bytes[at] = 4;
            same(&bytes);
        });
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
        let err = Record::<Meeting>::from_value(Value::from(bytes))
            .err()
            .unwrap();
        assert!(matches!(err, SydError::Codec(_)), "{err}");

        // What a peer of the map era would send: refused, not half-read.
        let map = Value::map([("id", Value::from(7u64)), ("title", Value::str("standup"))]);
        let err = Record::<Meeting>::from_value(map).err().unwrap();
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
            + encoded_len(&m.id)
            + encoded_len(&m.title)
            + encoded_len(&m.initiator)
            + encoded_len(&m.ordinal);
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
        assert_eq!(bytes.len(), encoded_len(&record));
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
