//! SyDLinks: coordination links (§4) — the paper's central contribution.
//!
//! A coordination link is "an abstract relationship among a group of
//! objects/databases with an underlying constraint and a set of
//! event-triggered actions" (§4). Concretely (§4.1), a link is an entry in
//! a data store associated with an entity, specified by:
//!
//! * its **type** — subscription or negotiation ([`LinkKind`]),
//! * its **subtype** — permanent or tentative ([`LinkStatus`]),
//! * **references** to one or more entities with a trigger action each
//!   ([`LinkRef`]),
//! * a **priority**, a **constraint** (and / or / xor, generalized to
//!   k-of-n, [`Constraint`]), a **creation time** and an **expiry time**.
//!
//! Link state lives in the device's own store, in the tables the paper
//! names: `SyD_Link` — one row per link, its references encoded in the
//! `refs` cell, so a link is written and read in one statement —
//! `SyD_WaitingLink` for tentative links queued behind a permanent one
//! (§4.2 op. 3), and `SyD_LinkMethod` for method coupling (§4.2 op. 5).
//! On the wire a link is its [`Encode`]d bytes (DESIGN.md §18).
//!
//! The six operations of §4.2 map to:
//!
//! 1. link database creation → [`LinksModule::new`] (creates the tables)
//! 2. link creation → [`LinksModule::create_negotiated`] /
//!    [`LinksModule::add_local`]
//! 3. tentative → permanent: waiting-link promotion inside
//!    [`LinksModule::delete`]
//! 4. link deletion → [`LinksModule::delete`] (cascades via
//!    `syd.link/delete_by_corr` on peers)
//! 5. method invocation → [`LinksModule::couple_method`] +
//!    [`LinksModule::invoke_coupled`]
//! 6. link expiry → [`LinksModule::expired`], found by the event
//!    handler's periodic task, and [`LinksModule::expire`], which it
//!    hands to the pool

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_telemetry::{Event, Journal};
use syd_types::sync::RwLock;
pub use syd_types::Constraint;
use syd_types::{
    Clock, LinkId, Priority, ServiceName, SydError, SydResult, Timestamp, UserId, Value,
};
use syd_wire::{decode_from_slice, encode_to_vec, Args, Decode, Encode, Reader};

use crate::engine::{Call, SydEngine};
use crate::events::EventHandler;
use crate::negotiate::{link_service, NegotiationOutcome, Negotiator, Participant};

pub mod lifecycle;

/// Link type (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Automatic information flow from the entity to the references.
    Subscription,
    /// Constraint-checked atomic group change across the references.
    Negotiation(Constraint),
}

/// What the `kind` and `status` cells of a `SyD_Link` row may hold; a
/// name's index is the value's tag in an encoded [`Link`].
const KIND_NAMES: [&str; 4] = ["sub", "and", "atleast", "exactly"];
const STATUS_NAMES: [&str; 2] = ["perm", "tent"];

impl LinkKind {
    /// The kind's tag and its `k` (0 where the kind has none).
    fn tag(self) -> (usize, u32) {
        match self {
            LinkKind::Subscription => (0, 0),
            LinkKind::Negotiation(Constraint::And) => (1, 0),
            LinkKind::Negotiation(Constraint::AtLeast(k)) => (2, k),
            LinkKind::Negotiation(Constraint::Exactly(k)) => (3, k),
        }
    }

    fn from_tag(tag: usize, k: u32) -> SydResult<LinkKind> {
        Ok(match (tag, k) {
            (0, 0) => LinkKind::Subscription,
            (1, 0) => LinkKind::Negotiation(Constraint::And),
            (2, k) => LinkKind::Negotiation(Constraint::AtLeast(k)),
            (3, k) => LinkKind::Negotiation(Constraint::Exactly(k)),
            _ => return Err(SydError::Codec(format!("bad link kind {tag} (k = {k})"))),
        })
    }
}

/// Link subtype (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkStatus {
    /// In force.
    Permanent = 0,
    /// Queued, waiting on a permanent link (see `SyD_WaitingLink`).
    Tentative = 1,
}

impl LinkStatus {
    fn from_tag(tag: usize) -> SydResult<LinkStatus> {
        let known = [LinkStatus::Permanent, LinkStatus::Tentative];
        let status = known.get(tag).copied();
        status.ok_or_else(|| SydError::Codec(format!("bad link status {tag}")))
    }
}

/// One reference of a link: a peer entity and the trigger action to run
/// there (an ECA rule: the event is "the local entity changed", the
/// condition is evaluated by the peer, the action is `action`).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkRef {
    /// Peer user.
    pub user: UserId,
    /// Peer entity (e.g. the matching slot in the peer's calendar).
    pub entity: String,
    /// Action name delivered to the peer's subscription handler (for
    /// subscription links) or change payload discriminator (negotiation).
    pub action: String,
}

impl LinkRef {
    /// Builds a reference.
    pub fn new(user: UserId, entity: impl Into<String>, action: impl Into<String>) -> Self {
        LinkRef {
            user,
            entity: entity.into(),
            action: action.into(),
        }
    }
}

impl Encode for LinkRef {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.user.encode(buf);
        self.entity.encode(buf);
        self.action.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.user.encoded_len() + self.entity.encoded_len() + self.action.encoded_len()
    }
}

impl Decode for LinkRef {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(LinkRef {
            user: Decode::decode(r)?,
            entity: Decode::decode(r)?,
            action: Decode::decode(r)?,
        })
    }
}

/// A link's references as they travel inside an encoded [`Link`] and rest
/// in the `refs` cell of its row: a count, then each [`LinkRef`].
struct Refs<T>(T);

impl Encode for Refs<&[LinkRef]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.0.len() as u64).encode(buf);
        self.0.iter().for_each(|r| r.encode(buf));
    }
    fn encoded_len(&self) -> usize {
        (self.0.len() as u64).encoded_len() + self.0.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl Decode for Refs<Vec<LinkRef>> {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let refs = (0..r.len_prefix()?).map(|_| LinkRef::decode(r));
        refs.collect::<SydResult<_>>().map(Refs)
    }
}

/// A coordination link record.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Local link id.
    pub id: LinkId,
    /// Subscription or negotiation(+constraint).
    pub kind: LinkKind,
    /// Permanent or tentative.
    pub status: LinkStatus,
    /// The local entity the link is anchored on.
    pub entity: String,
    /// References with their trigger actions.
    pub refs: Vec<LinkRef>,
    /// Priority (drives waiting-link promotion and bumping).
    pub priority: Priority,
    /// Creation time.
    pub created: Timestamp,
    /// Expiry time; `None` = never.
    pub expires: Option<Timestamp>,
    /// Correlation id shared by all links of one logical connection —
    /// cascade deletion follows it across devices.
    pub corr: String,
}

impl Link {
    /// Wire form (`syd.link/install_link`, the commit's back link): the
    /// link's [`Encode`]d bytes in one [`Value::Bytes`] (DESIGN.md §18).
    pub fn to_value(&self) -> Value {
        Value::Bytes(encode_to_vec(self))
    }

    /// Inverse of [`Link::to_value`]; anything but well-formed bytes of
    /// the current version is refused. The receiving device assigns its
    /// own local id when it installs the link.
    pub fn from_value(value: &Value) -> SydResult<Link> {
        decode_from_slice(value.as_bytes()?)
    }
}

/// Leading byte of an encoded [`Link`]; a decoder refuses any other.
const LINK_VERSION: u8 = 1;

impl Encode for Link {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (kind, k) = self.kind.tag();
        buf.push(LINK_VERSION);
        self.id.encode(buf);
        buf.push(kind as u8);
        k.encode(buf);
        buf.push(self.status as u8);
        self.entity.encode(buf);
        Refs(&self.refs[..]).encode(buf);
        self.priority.encode(buf);
        self.created.encode(buf);
        self.expires.encode(buf);
        self.corr.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        3 + self.id.encoded_len()
            + self.kind.tag().1.encoded_len()
            + self.entity.encoded_len()
            + Refs(&self.refs[..]).encoded_len()
            + self.priority.encoded_len()
            + self.created.encoded_len()
            + self.expires.encoded_len()
            + self.corr.encoded_len()
    }
}

impl Decode for Link {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let version = r.u8()?;
        if version != LINK_VERSION {
            return Err(SydError::Codec(format!("link record version {version}")));
        }
        Ok(Link {
            id: Decode::decode(r)?,
            kind: LinkKind::from_tag(r.u8()?.into(), Decode::decode(r)?)?,
            status: LinkStatus::from_tag(r.u8()?.into())?,
            entity: Decode::decode(r)?,
            refs: Refs::decode(r)?.0,
            priority: Decode::decode(r)?,
            created: Decode::decode(r)?,
            expires: Decode::decode(r)?,
            corr: Decode::decode(r)?,
        })
    }
}

/// Specification for creating a link (the id and timestamps are assigned
/// by the module).
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Link type.
    pub kind: LinkKind,
    /// Initial status.
    pub status: LinkStatus,
    /// Local anchor entity.
    pub entity: String,
    /// References.
    pub refs: Vec<LinkRef>,
    /// Priority.
    pub priority: Priority,
    /// Optional expiry.
    pub expires: Option<Timestamp>,
    /// Correlation id; empty = assign a fresh one.
    pub corr: String,
    /// If tentative: the permanent link this one waits on, plus a waiting
    /// group id (links promoted together share a group).
    pub waits_on: Option<(LinkId, u64)>,
}

impl LinkSpec {
    /// A permanent subscription link from `entity` to `refs`.
    pub fn subscription(entity: impl Into<String>, refs: Vec<LinkRef>) -> LinkSpec {
        LinkSpec {
            kind: LinkKind::Subscription,
            status: LinkStatus::Permanent,
            entity: entity.into(),
            refs,
            priority: Priority::NORMAL,
            expires: None,
            corr: String::new(),
            waits_on: None,
        }
    }

    /// A permanent negotiation link from `entity` to `refs`.
    pub fn negotiation(
        entity: impl Into<String>,
        constraint: Constraint,
        refs: Vec<LinkRef>,
    ) -> LinkSpec {
        LinkSpec {
            kind: LinkKind::Negotiation(constraint),
            ..LinkSpec::subscription(entity, refs)
        }
    }

    /// Builder: sets priority.
    pub fn with_priority(mut self, priority: Priority) -> LinkSpec {
        self.priority = priority;
        self
    }

    /// Builder: sets expiry.
    pub fn with_expiry(mut self, expires: Timestamp) -> LinkSpec {
        self.expires = Some(expires);
        self
    }

    /// Builder: sets the correlation id (to join an existing connection).
    pub fn with_corr(mut self, corr: impl Into<String>) -> LinkSpec {
        self.corr = corr.into();
        self
    }

    /// Builder: makes the link tentative, waiting on `link` in group
    /// `group`.
    pub fn waiting_on(mut self, link: LinkId, group: u64) -> LinkSpec {
        self.status = LinkStatus::Tentative;
        self.waits_on = Some((link, group));
        self
    }
}

/// One entry of the `SyD_WaitingLink` table: a tentative link queued
/// behind a permanent one (§4.2 op. 3). Exposed for the invariant
/// checker's waiting-queue audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitingEntry {
    /// The tentative link that is waiting.
    pub link: LinkId,
    /// The link it waits on.
    pub waits_on: LinkId,
    /// Promotion priority.
    pub priority: Priority,
    /// Waiting group (links promoted together share a group).
    pub group: u64,
}

/// Report from a link deletion.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeleteReport {
    /// Links deleted locally.
    pub deleted: Vec<LinkId>,
    /// Waiting links promoted to permanent (§4.2 op. 3).
    pub promoted: Vec<LinkId>,
    /// Peers the cascade reached.
    pub cascaded_to: Vec<UserId>,
}

/// Result of firing the links anchored on an entity.
#[derive(Debug)]
pub enum FireResult {
    /// A subscription link delivered notifications: `(delivered, failed)`.
    /// Failures are expected ("a try may not succeed", §4.3).
    Notified {
        /// The link that fired.
        link: LinkId,
        /// Successful deliveries.
        delivered: usize,
        /// Failed deliveries.
        failed: usize,
    },
    /// A negotiation link ran the §4.3 protocol.
    Negotiated {
        /// The link that fired.
        link: LinkId,
        /// Protocol outcome.
        outcome: NegotiationOutcome,
    },
}

/// Callback invoked when a waiting link is promoted to permanent.
pub type PromotionHandler = Arc<dyn Fn(&Link) + Send + Sync>;

/// The SyDLinks module of one device.
pub struct LinksModule {
    store: Store,
    engine: SydEngine,
    user: UserId,
    clock: Arc<dyn Clock>,
    events: EventHandler,
    /// The device's journal: promotions and deletions are recorded here as
    /// they happen, which is what `syd-check` replays.
    journal: Arc<Journal>,
    next_link: AtomicU64,
    next_corr: AtomicU64,
    promotion: RwLock<Option<PromotionHandler>>,
}

const T_LINK: &str = "SyD_Link";
const T_WAIT: &str = "SyD_WaitingLink";
const T_METHOD: &str = "SyD_LinkMethod";

fn corr_is(corr: &str) -> Predicate {
    Predicate::Eq("corr".into(), Value::str(corr))
}

/// An integer cell of a link table as its field's own type: a number out
/// of the field's range is an error, not a wrapped value.
fn int<T: TryFrom<i64>>(cell: &Value) -> SydResult<T> {
    let n = cell.as_i64()?;
    T::try_from(n).map_err(|_| SydError::Protocol(format!("stored link field holds {n}")))
}

impl LinksModule {
    /// §4.2 op. 1: creates the link database for this user ("this link
    /// database is created for a user when he/she installs a SyD
    /// application with link-enabled features").
    pub fn new(
        store: Store,
        engine: SydEngine,
        user: UserId,
        clock: Arc<dyn Clock>,
        events: EventHandler,
        journal: Arc<Journal>,
    ) -> SydResult<LinksModule> {
        store.create_table(Schema::new(
            T_LINK,
            vec![
                Column::required("id", ColumnType::I64),
                Column::required("kind", ColumnType::Str),
                Column::required("k", ColumnType::I64),
                Column::required("status", ColumnType::Str),
                Column::required("entity", ColumnType::Str),
                Column::required("priority", ColumnType::I64),
                Column::required("created", ColumnType::I64),
                Column::nullable("expires", ColumnType::I64),
                Column::required("corr", ColumnType::Str),
                Column::required("refs", ColumnType::Bytes),
            ],
            &["id"],
        )?)?;
        store.create_index(T_LINK, "entity")?;
        store.create_index(T_LINK, "corr")?;
        store.create_table(Schema::new(
            T_WAIT,
            vec![
                Column::required("link_id", ColumnType::I64),
                Column::required("waits_on", ColumnType::I64),
                Column::required("priority", ColumnType::I64),
                Column::required("group_id", ColumnType::I64),
            ],
            &["link_id"],
        )?)?;
        store.create_index(T_WAIT, "waits_on")?;
        store.create_table(Schema::new(
            T_METHOD,
            vec![
                Column::required("id", ColumnType::I64),
                Column::required("service", ColumnType::Str),
                Column::required("src_method", ColumnType::Str),
                Column::required("dst_user", ColumnType::I64),
                Column::required("dst_service", ColumnType::Str),
                Column::required("dst_method", ColumnType::Str),
            ],
            &["id"],
        )?)?;
        store.create_index(T_METHOD, "src_method")?;
        Ok(LinksModule {
            store,
            engine,
            user,
            clock,
            events,
            journal,
            next_link: AtomicU64::new(1),
            next_corr: AtomicU64::new(1),
            promotion: RwLock::new(None),
        })
    }

    /// The user owning this link database.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Installs the handler invoked when a waiting link is promoted.
    pub fn set_promotion_handler(&self, handler: PromotionHandler) {
        *self.promotion.write() = Some(handler);
    }

    fn fresh_corr(&self) -> String {
        format!(
            "corr:{}:{}",
            self.user.raw(),
            self.next_corr.fetch_add(1, Ordering::Relaxed)
        )
    }

    // ---- local CRUD --------------------------------------------------------

    /// Installs a link locally (no peer interaction). Returns the stored
    /// link with its assigned id and correlation id.
    pub fn add_local(&self, spec: LinkSpec) -> SydResult<Link> {
        let id = LinkId::new(self.next_link.fetch_add(1, Ordering::Relaxed));
        let corr = if spec.corr.is_empty() {
            self.fresh_corr()
        } else {
            spec.corr.clone()
        };
        let created = self.clock.now();
        let (kind, k) = spec.kind.tag();
        // One row, one statement: nobody reads a link without its refs.
        self.store.insert(
            T_LINK,
            vec![
                Value::from(id.raw()),
                Value::str(KIND_NAMES[kind]),
                Value::from(k),
                Value::str(STATUS_NAMES[spec.status as usize]),
                Value::str(spec.entity.clone()),
                Value::from(spec.priority.level() as u32),
                Value::from(created.as_micros()),
                spec.expires
                    .map_or(Value::Null, |t| Value::from(t.as_micros())),
                Value::str(corr.clone()),
                Value::Bytes(encode_to_vec(&Refs(&spec.refs[..]))),
            ],
        )?;
        if let Some((waits_on, group)) = spec.waits_on {
            self.store.insert(
                T_WAIT,
                vec![
                    Value::from(id.raw()),
                    Value::from(waits_on.raw()),
                    Value::from(spec.priority.level() as u32),
                    Value::from(group),
                ],
            )?;
        }
        self.events.publish_local("link.created", || {
            Value::map([
                ("id", Value::from(id.raw())),
                ("corr", Value::str(corr.clone())),
            ])
        });
        Ok(Link {
            id,
            kind: spec.kind,
            status: spec.status,
            entity: spec.entity,
            refs: spec.refs,
            priority: spec.priority,
            created,
            expires: spec.expires,
            corr,
        })
    }

    /// Parses one `SyD_Link` row. An unknown kind or status, a number out
    /// of its field's range and malformed `refs` are errors, never defaults.
    fn link_from_row(row: &[Value]) -> SydResult<Link> {
        let tag = |names: &[&str], cell: &Value| {
            let name = cell.as_str()?;
            let tag = names.iter().position(|n| *n == name);
            tag.ok_or_else(|| SydError::Protocol(format!("stored link is `{name}`")))
        };
        Ok(Link {
            id: LinkId::new(int(&row[0])?),
            kind: LinkKind::from_tag(tag(&KIND_NAMES, &row[1])?, int(&row[2])?)?,
            status: LinkStatus::from_tag(tag(&STATUS_NAMES, &row[3])?)?,
            entity: row[4].as_str()?.to_owned(),
            priority: Priority::new(int(&row[5])?),
            created: Timestamp::from_micros(int(&row[6])?),
            expires: match &row[7] {
                Value::Null => None,
                v => Some(Timestamp::from_micros(int(v)?)),
            },
            corr: row[8].as_str()?.to_owned(),
            refs: decode_from_slice::<Refs<Vec<LinkRef>>>(row[9].as_bytes()?)?.0,
        })
    }

    /// Fetches one link.
    pub fn get(&self, id: LinkId) -> SydResult<Option<Link>> {
        match self.store.get_by_key(T_LINK, &[Value::from(id.raw())])? {
            Some(row) => Ok(Some(Self::link_from_row(&row.values)?)),
            None => Ok(None),
        }
    }

    fn links_where(&self, pred: &Predicate) -> SydResult<Vec<Link>> {
        let rows = self.store.select(T_LINK, pred)?;
        rows.iter()
            .map(|r| Self::link_from_row(&r.values))
            .collect()
    }

    /// All links in the database.
    pub fn all(&self) -> SydResult<Vec<Link>> {
        self.links_where(&Predicate::True)
    }

    /// Links anchored on `entity`.
    pub fn on_entity(&self, entity: &str) -> SydResult<Vec<Link>> {
        self.links_where(&Predicate::Eq("entity".into(), Value::str(entity)))
    }

    /// Links sharing a correlation id.
    pub fn by_corr(&self, corr: &str) -> SydResult<Vec<Link>> {
        self.links_where(&corr_is(corr))
    }

    /// Ids of the links sharing a correlation id, for callers that ask
    /// whether a link exists or which to delete: no link is parsed.
    pub fn ids_by_corr(&self, corr: &str) -> SydResult<Vec<LinkId>> {
        let rows = self.store.select(T_LINK, &corr_is(corr))?;
        rows.iter()
            .map(|r| int(&r.values[0]).map(LinkId::new))
            .collect()
    }

    /// Id of the link of `corr` anchored on `entity`, if there is one.
    pub fn find(&self, corr: &str, entity: &str) -> SydResult<Option<LinkId>> {
        let rows = self.store.select(T_LINK, &corr_is(corr))?;
        let on_entity = |r: &&syd_store::Row| r.values[4].as_str().is_ok_and(|e| e == entity);
        let found = rows.iter().find(on_entity);
        found
            .map(|r| int(&r.values[0]).map(LinkId::new))
            .transpose()
    }

    /// Number of stored links.
    pub fn count(&self) -> SydResult<usize> {
        self.store.count(T_LINK, &Predicate::True)
    }

    /// Snapshot of the `SyD_WaitingLink` table, for the invariant
    /// checker's waiting-queue audit (no lost or duplicate waiter).
    pub fn waiting(&self) -> SydResult<Vec<WaitingEntry>> {
        self.waiting_where(&Predicate::True)
    }

    fn waiting_where(&self, pred: &Predicate) -> SydResult<Vec<WaitingEntry>> {
        let parse = |row: &syd_store::Row| {
            Ok(WaitingEntry {
                link: LinkId::new(int(&row.values[0])?),
                waits_on: LinkId::new(int(&row.values[1])?),
                priority: Priority::new(int(&row.values[2])?),
                group: int(&row.values[3])?,
            })
        };
        self.store.select(T_WAIT, pred)?.iter().map(parse).collect()
    }

    // ---- §4.2 op. 2: negotiated creation -----------------------------------

    /// Creates a link after negotiating availability with every referenced
    /// peer: "if and only if all the users are available … links will be
    /// created between the users; if any user is not available … no links
    /// will be created."
    ///
    /// Each peer's `syd.link/offer_link` consults its application-installed
    /// acceptor; on unanimous acceptance the forward link is installed
    /// locally and a back subscription link (entity → this user, action
    /// `back_action`) is installed at each peer under the same correlation
    /// id.
    pub fn create_negotiated(&self, spec: LinkSpec, back_action: &str) -> SydResult<Link> {
        let svc = link_service();
        // Phase 1: ask everyone.
        let offers: Vec<Call<'_>> = spec
            .refs
            .iter()
            .map(|r| {
                Call::new(
                    r.user,
                    &svc,
                    "offer_link",
                    vec![
                        Value::str(r.entity.clone()),
                        Value::str(r.action.clone()),
                        Value::from(self.user.raw()),
                    ],
                )
            })
            .collect();
        let answers = self.engine.invoke_batch(&offers);
        let all_accept = answers
            .outcomes
            .iter()
            .all(|(_, r)| matches!(r, Ok(Value::Bool(true))));
        if !all_accept {
            let decliners: Vec<String> = answers
                .outcomes
                .iter()
                .filter(|(_, r)| !matches!(r, Ok(Value::Bool(true))))
                .map(|(u, _)| u.to_string())
                .collect();
            return Err(SydError::ConstraintFailed(format!(
                "link offer declined by {}",
                decliners.join(", ")
            )));
        }

        // Phase 2: install forward link locally…
        let mut spec = spec;
        if spec.corr.is_empty() {
            spec.corr = self.fresh_corr();
        }
        let refs = spec.refs.clone();
        let corr = spec.corr.clone();
        let forward = self.add_local(spec)?;

        // …and back subscription links at every peer, in one round.
        let installs: Vec<Call<'_>> = refs
            .iter()
            .map(|r| {
                let back = Link {
                    id: LinkId::new(0),
                    kind: LinkKind::Subscription,
                    status: LinkStatus::Permanent,
                    entity: r.entity.clone(),
                    refs: vec![LinkRef::new(self.user, forward.entity.clone(), back_action)],
                    priority: forward.priority,
                    created: forward.created,
                    expires: forward.expires,
                    corr: corr.clone(),
                };
                Call::new(r.user, &svc, "install_link", vec![back.to_value()])
            })
            .collect();
        let installed = self.engine.invoke_batch(&installs);
        if let Some(err) = installed.outcomes.into_iter().find_map(|(_, r)| r.err()) {
            return Err(err);
        }
        Ok(forward)
    }

    /// Installs a link received from a peer (`syd.link/install_link`).
    pub fn install_remote(&self, value: &Value) -> SydResult<LinkId> {
        let link = Link::from_value(value)?;
        let stored = self.add_local(LinkSpec {
            kind: link.kind,
            status: link.status,
            entity: link.entity,
            refs: link.refs,
            priority: link.priority,
            expires: link.expires,
            corr: link.corr,
            waits_on: None,
        })?;
        Ok(stored.id)
    }

    // ---- §4.2 ops 3 & 4: deletion with promotion and cascade ---------------

    /// Deletes a link: promotes the highest-priority waiting group, removes
    /// the local record, and cascades the deletion to every peer sharing
    /// the correlation id (§4.4 steps 1–7).
    pub fn delete(&self, id: LinkId, cascade: bool) -> SydResult<DeleteReport> {
        let Some(link) = self.get(id)? else {
            return Err(SydError::NoSuchLink(id));
        };
        // Step 1–2: promote waiting links.
        let mut report = DeleteReport {
            promoted: self.promote_waiters(id)?,
            ..DeleteReport::default()
        };

        // Step 3: delete the local link.
        self.delete_local_only(id)?;
        report.deleted.push(id);

        // Steps 4–7: cascade along the correlation id. The deleted link's
        // own refs seed the peer set (its local record is already gone).
        if cascade {
            report.cascaded_to =
                self.cascade_corr(&link.corr, vec![self.user.raw()], &link.refs)?;
        }

        self.note_deleted(id, &link.corr, cascade);
        Ok(report)
    }

    /// Journals one deletion (§4.4) and publishes `link.deleted`.
    fn note_deleted(&self, id: LinkId, corr: &str, cascade: bool) {
        self.journal.emit(Event::LinkDeleted {
            id: id.raw(),
            corr: corr.to_owned(),
            cascade,
        });
        self.events.publish_local("link.deleted", || {
            Value::map([
                ("id", Value::from(id.raw())),
                ("corr", Value::str(corr)),
                ("cascade", Value::from(cascade)),
            ])
        });
    }

    fn delete_local_only(&self, id: LinkId) -> SydResult<()> {
        self.store
            .delete(T_LINK, &Predicate::Eq("id".into(), Value::from(id.raw())))?;
        self.store.delete(
            T_WAIT,
            &Predicate::Eq("link_id".into(), Value::from(id.raw())),
        )?;
        Ok(())
    }

    /// Deletes every local link with `corr` (without re-cascading to the
    /// users in `visited`) and forwards the cascade to remaining peers.
    pub fn delete_by_corr(&self, corr: &str, mut visited: Vec<u64>) -> SydResult<DeleteReport> {
        let mut report = DeleteReport::default();
        if !visited.contains(&self.user.raw()) {
            visited.push(self.user.raw());
        }
        let links = self.by_corr(corr)?;
        for link in &links {
            report.promoted.extend(self.promote_waiters(link.id)?);
            self.delete_local_only(link.id)?;
            report.deleted.push(link.id);
            // These deletions arrived over a cascade (§4.4) and are
            // forwarded below, so they count as cascading themselves.
            self.note_deleted(link.id, corr, true);
        }
        // Forward the cascade to peers we haven't visited.
        let peers = lifecycle::cascade_peers(
            links.iter().flat_map(|l| l.refs.iter().map(|r| r.user)),
            &visited,
        );
        report.cascaded_to = self.forward_cascade(corr, visited, &peers);
        Ok(report)
    }

    /// Cascade half of [`LinksModule::delete`]: contacts every peer of the
    /// correlation group — `seed_refs` (the refs of the already-deleted
    /// local link) plus the refs of any remaining local links with the
    /// same correlation id.
    fn cascade_corr(
        &self,
        corr: &str,
        visited: Vec<u64>,
        seed_refs: &[LinkRef],
    ) -> SydResult<Vec<UserId>> {
        let mut cascade_span = self
            .engine
            .node()
            .tracer()
            .span(syd_telemetry::names::SPAN_CASCADE);
        let mut all_refs: Vec<UserId> = seed_refs.iter().map(|r| r.user).collect();
        for link in self.by_corr(corr)? {
            all_refs.extend(link.refs.iter().map(|r| r.user));
        }
        let peers = lifecycle::cascade_peers(all_refs, &visited);
        let reached = self.forward_cascade(corr, visited, &peers);
        cascade_span.attr("reached", reached.len() as u64);
        Ok(reached)
    }

    /// Sends `delete_by_corr` to every peer of `peers` in one parallel
    /// round and returns the peers that answered. Each message carries
    /// `visited` extended by the **whole** peer set, so no receiver
    /// forwards the cascade to a sibling this round already covers; the
    /// deletions are idempotent and need no order among themselves.
    ///
    /// An unreachable peer keeps its links; its own expiry scan will
    /// eventually collect them (the paper's mobile devices tolerate
    /// exactly this kind of stale state).
    fn forward_cascade(&self, corr: &str, mut visited: Vec<u64>, peers: &[UserId]) -> Vec<UserId> {
        visited.extend(peers.iter().map(|p| p.raw()));
        let round = self.engine.invoke_group(
            peers,
            &link_service(),
            "delete_by_corr",
            vec![
                Value::str(corr),
                Value::list(visited.into_iter().map(Value::from)),
            ],
        );
        round.oks().map(|(peer, _)| peer).collect()
    }

    /// §4.2 op. 3: "once L0 is deleted, the waiting link (or group of
    /// waiting links) with the highest priority is converted from tentative
    /// to permanent." Remaining waiters are re-anchored to the first
    /// promoted link so the queue survives.
    fn promote_waiters(&self, deleted: LinkId) -> SydResult<Vec<LinkId>> {
        let on_deleted = Predicate::Eq("waits_on".into(), Value::from(deleted.raw()));
        let waiting = self.waiting_where(&on_deleted)?;
        let Some(plan) = lifecycle::promotion_plan(&waiting) else {
            return Ok(Vec::new());
        };
        // §4.2 op. 3 invariant: the chosen group's priority is the maximum
        // over the whole waiting set — a lower-priority promotion means the
        // queue ordering broke.
        debug_assert!(
            {
                let best = plan
                    .promoted
                    .iter()
                    .map(|e| e.priority)
                    .max()
                    .unwrap_or(Priority::MIN);
                waiting.iter().all(|e| e.priority <= best)
            },
            "waiting-link promotion skipped a higher-priority waiter (anchor {deleted})"
        );

        let mut promoted = Vec::with_capacity(plan.promoted.len());
        for entry in &plan.promoted {
            let link_id = entry.link;
            self.store.update(
                T_LINK,
                &Predicate::Eq("id".into(), Value::from(link_id.raw())),
                &[(
                    "status".into(),
                    Value::str(STATUS_NAMES[LinkStatus::Permanent as usize]),
                )],
            )?;
            self.store.delete(
                T_WAIT,
                &Predicate::Eq("link_id".into(), Value::from(link_id.raw())),
            )?;
            let (priority, group) = (i64::from(entry.priority.level()), entry.group as i64);
            self.journal.emit(Event::Promoted {
                link: link_id.raw(),
                priority,
                group,
            });
            self.events.publish_local("link.promoted", || {
                Value::map([
                    ("id", Value::from(link_id.raw())),
                    ("priority", Value::I64(priority)),
                    ("group", Value::I64(group)),
                ])
            });
            if let Some(link) = self.get(link_id)? {
                debug_assert_eq!(
                    link.status,
                    LinkStatus::Permanent,
                    "promoted link {link_id} still tentative"
                );
                if let Some(handler) = self.promotion.read().clone() {
                    handler(&link);
                }
            }
            promoted.push(link_id);
        }
        // Re-anchor the rest of the queue onto the first promoted link.
        if let Some(&new_anchor) = promoted.first() {
            for entry in &plan.remaining {
                self.store.update(
                    T_WAIT,
                    &Predicate::Eq("link_id".into(), Value::from(entry.link.raw())),
                    &[("waits_on".into(), Value::from(new_anchor.raw()))],
                )?;
            }
        }
        Ok(promoted)
    }

    // ---- §4.2 op. 5: method coupling ---------------------------------------

    /// Records that executing `service.src_method` locally must also invoke
    /// `dst_service.dst_method` on `dst_user`.
    pub fn couple_method(
        &self,
        service: &ServiceName,
        src_method: &str,
        dst_user: UserId,
        dst_service: &ServiceName,
        dst_method: &str,
    ) -> SydResult<()> {
        let id = self.next_link.fetch_add(1, Ordering::Relaxed);
        self.store.insert(
            T_METHOD,
            vec![
                Value::from(id),
                Value::str(service.as_str()),
                Value::str(src_method),
                Value::from(dst_user.raw()),
                Value::str(dst_service.as_str()),
                Value::str(dst_method),
            ],
        )?;
        Ok(())
    }

    /// Destinations coupled to `service.method`.
    pub fn coupled(
        &self,
        service: &ServiceName,
        method: &str,
    ) -> SydResult<Vec<(UserId, ServiceName, String)>> {
        self.store
            .select(
                T_METHOD,
                &Predicate::Eq("src_method".into(), Value::str(method)).and(Predicate::Eq(
                    "service".into(),
                    Value::str(service.as_str()),
                )),
            )?
            .iter()
            .map(|row| {
                Ok((
                    UserId::new(row.values[3].as_i64()? as u64),
                    ServiceName::new(row.values[4].as_str()?),
                    row.values[5].as_str()?.to_owned(),
                ))
            })
            .collect()
    }

    /// §4.2 op. 5: "the application programmer has to include a call to
    /// check whether the current method being executed is listed in the
    /// SyD_LinkMethod table" — this is that call. Invokes every coupled
    /// destination with `args`, all in one round; returns per-destination
    /// outcomes.
    pub fn invoke_coupled(
        &self,
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
    ) -> SydResult<Vec<(UserId, SydResult<Value>)>> {
        let targets = self.coupled(service, method)?;
        let args = Args::from(args);
        let calls: Vec<Call<'_>> = targets
            .iter()
            .map(|(user, dst_service, dst_method)| {
                Call::new(*user, dst_service, dst_method, args.clone())
            })
            .collect();
        Ok(self.engine.invoke_batch(&calls).outcomes)
    }

    // ---- §4.2 op. 6: expiry -------------------------------------------------

    /// The links whose expiry time has passed: one local query, which the
    /// device's `link-expiry` tick runs on the runtime loop.
    pub fn expired(&self) -> SydResult<Vec<LinkId>> {
        let now = self.clock.now().as_micros() as i64;
        self.store
            .select(T_LINK, &Predicate::Le("expires".into(), Value::I64(now)))?
            .iter()
            .map(|row| Ok(LinkId::new(row.values[0].as_i64()? as u64)))
            .collect()
    }

    /// Deletes `expired` with full cascade, so the peers' halves go too —
    /// a group round per link, run on the pool. Returns the ids deleted.
    pub fn expire(&self, expired: &[LinkId]) -> Vec<LinkId> {
        let mut deleted = Vec::new();
        for &id in expired {
            if self.delete(id, true).is_ok() {
                self.events
                    .publish_local("link.expired", || Value::from(id.raw()));
                deleted.push(id);
            }
        }
        deleted
    }

    // ---- trigger firing ------------------------------------------------------

    /// Fires every link anchored on `entity` in response to a local change
    /// — subscription links notify their references; negotiation links run
    /// the §4.3 protocol via `negotiator`. Tentative links do not fire.
    pub fn entity_changed(
        &self,
        entity: &str,
        payload: &Value,
        negotiator: &Negotiator,
    ) -> SydResult<Vec<FireResult>> {
        let mut results = Vec::new();
        for link in self.on_entity(entity)? {
            if link.status == LinkStatus::Tentative {
                continue;
            }
            results.push(self.fire_link(&link, payload, negotiator)?);
        }
        Ok(results)
    }

    /// Fires one link explicitly.
    pub fn fire_link(
        &self,
        link: &Link,
        payload: &Value,
        negotiator: &Negotiator,
    ) -> SydResult<FireResult> {
        match link.kind {
            LinkKind::Subscription => {
                // One round, whatever the number of references.
                let svc = link_service();
                let notify = |r: &LinkRef| {
                    let args = vec![
                        Value::str(r.entity.clone()),
                        Value::str(r.action.clone()),
                        payload.clone(),
                    ];
                    Call::new(r.user, &svc, "notify", args)
                };
                let calls: Vec<Call<'_>> = link.refs.iter().map(notify).collect();
                let delivered = self.engine.invoke_batch(&calls).ok_count();
                Ok(FireResult::Notified {
                    link: link.id,
                    delivered,
                    failed: calls.len() - delivered,
                })
            }
            LinkKind::Negotiation(constraint) => {
                let participants: Vec<Participant> = link
                    .refs
                    .iter()
                    .map(|r| Participant::new(r.user, r.entity.clone(), payload.clone()))
                    .collect();
                let outcome = negotiator.negotiate(constraint, &participants)?;
                Ok(FireResult::Negotiated {
                    link: link.id,
                    outcome,
                })
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::SydEnv;
    use syd_net::NetConfig;
    use syd_store::{Trigger, TriggerEvent};
    use syd_types::rng::{cases, Rng};
    use syd_types::sync::Mutex;

    fn generated(rng: &mut Rng) -> Link {
        let k = rng.any_u64() as u32;
        let refs = match rng.below(4) {
            0 => 0,
            1 => 32,
            _ => rng.below(33),
        };
        Link {
            id: LinkId::new(rng.any_u64()),
            kind: [
                LinkKind::Subscription,
                LinkKind::Negotiation(Constraint::And),
                LinkKind::Negotiation(Constraint::AtLeast(k)),
                LinkKind::Negotiation(Constraint::Exactly(k)),
            ][rng.below(4) as usize],
            status: [LinkStatus::Permanent, LinkStatus::Tentative][rng.below(2) as usize],
            entity: rng.string(12),
            refs: (0..refs)
                .map(|_| LinkRef::new(UserId::new(rng.any_u64()), rng.string(12), rng.string(24)))
                .collect(),
            priority: Priority::new(rng.any_u64() as u8),
            created: Timestamp::from_micros(rng.any_u64()),
            expires: rng
                .chance(1, 2)
                .then(|| Timestamp::from_micros(rng.any_u64())),
            corr: rng.string(20),
        }
    }

    fn subscription() -> Link {
        Link {
            id: LinkId::new(0),
            kind: LinkKind::Subscription,
            status: LinkStatus::Permanent,
            entity: "e".into(),
            refs: vec![LinkRef::new(UserId::new(2), "slot:9", "reserve")],
            priority: Priority::NORMAL,
            created: Timestamp::from_micros(0),
            expires: None,
            corr: "c".into(),
        }
    }

    #[test]
    fn link_value_round_trip() {
        cases(256, |rng| {
            let link = generated(rng);
            let bytes = encode_to_vec(&link);
            assert_eq!(bytes.len(), link.encoded_len());
            assert_eq!(decode_from_slice::<Link>(&bytes).unwrap(), link);
            assert_eq!(Link::from_value(&link.to_value()).unwrap(), link);
        });
    }

    #[test]
    fn link_value_round_trip_no_expiry() {
        let link = subscription();
        assert_eq!(link.expires, None);
        assert_eq!(Link::from_value(&link.to_value()).unwrap(), link);
    }

    #[test]
    fn truncated_and_extended_links_are_codec_errors() {
        cases(32, |rng| {
            let mut bytes = encode_to_vec(&generated(rng));
            for cut in 0..bytes.len() {
                let err = decode_from_slice::<Link>(&bytes[..cut]).unwrap_err();
                assert!(matches!(err, SydError::Codec(_)), "prefix {cut}: {err}");
            }
            bytes.push(rng.next_u64() as u8);
            let err = decode_from_slice::<Link>(&bytes).unwrap_err();
            assert!(
                matches!(err, SydError::Codec(_)),
                "one byte appended: {err}"
            );
        });
    }

    #[test]
    fn unknown_version_and_map_form_are_refused() {
        let mut bytes = encode_to_vec(&subscription());
        bytes[0] = LINK_VERSION + 1;
        let err = Link::from_value(&Value::Bytes(bytes)).unwrap_err();
        assert!(matches!(err, SydError::Codec(_)), "{err}");

        // What a peer of the map era would send: refused, not half-read.
        let map = Value::map([("kind", Value::str("sub")), ("k", Value::from(0u64))]);
        let err = Link::from_value(&map).unwrap_err();
        assert!(
            matches!(&err, SydError::Protocol(m) if m.contains("type mismatch")),
            "{err}"
        );
    }

    #[test]
    fn bad_kind_rejected() {
        // Layout: version, id (one byte for 0), kind, k, status, …
        let good = encode_to_vec(&subscription());
        assert_eq!(good[2..5], [0, 0, 0], "subscription, no k, permanent");
        for (at, byte, what) in [
            (2, 4, "kind 4"),
            (3, 1, "a k on a subscription"),
            (4, 2, "status 2"),
        ] {
            let mut bytes = good.clone();
            bytes[at] = byte;
            let err = decode_from_slice::<Link>(&bytes).unwrap_err();
            assert!(matches!(err, SydError::Codec(_)), "{what}: {err}");
        }
    }

    /// A stored row is checked cell by cell: the map era read an unknown
    /// status as `Tentative` and cast numbers with `as` (a priority of 511
    /// became 255, a negative id a huge one).
    #[test]
    fn defective_stored_rows_are_errors_not_defaults() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let device = env.device("a", "").unwrap();
        let links = device.links();
        let id = links.add_local(subscription_spec()).unwrap().id;
        let by_id = Predicate::Eq("id".into(), Value::from(id.raw()));
        let good = device.store().select(T_LINK, &by_id).unwrap()[0]
            .values
            .to_vec();
        for (column, defect) in [
            ("status", Value::str("bogus")),
            ("kind", Value::str("bogus")),
            ("priority", Value::I64(511)),
            ("created", Value::I64(-1)),
            ("k", Value::I64(1 << 32)),
            ("refs", Value::Bytes(vec![1])),
        ] {
            let at = device
                .store()
                .schema_of(T_LINK)
                .unwrap()
                .column_index(column)
                .unwrap();
            let original = good[at].clone();
            device
                .store()
                .update(T_LINK, &by_id, &[(column.to_owned(), defect)])
                .unwrap();
            assert!(links.get(id).is_err(), "defective `{column}` was read");
            device
                .store()
                .update(T_LINK, &by_id, &[(column.to_owned(), original)])
                .unwrap();
        }
        assert_eq!(links.get(id).unwrap().unwrap().refs.len(), 1);
    }

    fn subscription_spec() -> LinkSpec {
        let link = subscription();
        LinkSpec::subscription(link.entity, link.refs)
    }

    /// A link is one row: whoever sees the link sees its references. With
    /// the references in a table of their own the row landed first, and an
    /// after-insert trigger (or a concurrent `on_entity`) found none.
    #[test]
    fn a_link_is_never_visible_without_its_refs() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let device = env.device("a", "").unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        device
            .store()
            .add_trigger(Trigger::after(
                "refs-at-insert",
                T_LINK,
                vec![TriggerEvent::Insert],
                move |ctx| {
                    let row = ctx.new.expect("insert shows the new row");
                    sink.lock()
                        .push(LinksModule::link_from_row(row).map(|l| l.refs));
                    Ok(())
                },
            ))
            .unwrap();
        let refs: Vec<LinkRef> = (1..=8)
            .map(|u| LinkRef::new(UserId::new(u), "slot:100", "reserve"))
            .collect();
        device
            .links()
            .add_local(LinkSpec::negotiation(
                "slot:100",
                Constraint::And,
                refs.clone(),
            ))
            .unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 1, "one statement writes the link");
        assert_eq!(seen[0].as_ref().unwrap(), &refs);
    }

    #[test]
    fn id_queries_agree_with_the_parsed_links() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let device = env.device("a", "").unwrap();
        let links = device.links();
        let on = |entity: &str| {
            let spec = LinkSpec::subscription(entity, vec![]).with_corr("shared");
            links.add_local(spec).unwrap().id
        };
        let (first, second) = (on("slot:1"), on("slot:2"));
        links
            .add_local(LinkSpec::subscription("slot:1", vec![]).with_corr("other"))
            .unwrap();
        assert_eq!(links.ids_by_corr("shared").unwrap(), vec![first, second]);
        assert_eq!(links.find("shared", "slot:2").unwrap(), Some(second));
        assert_eq!(links.find("shared", "slot:3").unwrap(), None);
        assert!(links.ids_by_corr("nobody").unwrap().is_empty());
    }

    #[test]
    fn spec_builders() {
        let spec = LinkSpec::negotiation("e", Constraint::And, vec![])
            .with_priority(Priority::HIGH)
            .with_expiry(Timestamp::from_micros(5))
            .with_corr("shared")
            .waiting_on(LinkId::new(9), 3);
        assert_eq!(spec.priority, Priority::HIGH);
        assert_eq!(spec.expires, Some(Timestamp::from_micros(5)));
        assert_eq!(spec.corr, "shared");
        assert_eq!(spec.status, LinkStatus::Tentative);
        assert_eq!(spec.waits_on, Some((LinkId::new(9), 3)));
    }
}
