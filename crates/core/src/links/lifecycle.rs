//! The pure §4.2 link-lifecycle transition core.
//!
//! Waiting-link promotion (op. 3) and cascade-delete peer selection
//! (op. 4) as side-effect-free functions over plain data, shared by the
//! runtime ([`super::LinksModule`]) and the `syd_check` exhaustive model
//! checker — one implementation, no drift between what runs and what is
//! verified.

use syd_types::UserId;

use super::WaitingEntry;

/// What promoting the waiters of a deleted link does (§4.2 op. 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromotionPlan {
    /// The winning waiting group.
    pub group: u64,
    /// Entries promoted tentative → permanent, in input order.
    pub promoted: Vec<WaitingEntry>,
    /// Entries left queued; they must be re-anchored onto the first
    /// promoted link so the queue survives the anchor's deletion.
    pub remaining: Vec<WaitingEntry>,
}

/// §4.2 op. 3: "once L0 is deleted, the waiting link (or group of
/// waiting links) with the highest priority is converted from tentative
/// to permanent." The winning group is the one containing the
/// highest-priority entry; ties break toward the lowest group id
/// (FIFO-ish, since groups are numbered in arrival order). Returns
/// `None` when nothing is waiting.
pub fn promotion_plan(waiting: &[WaitingEntry]) -> Option<PromotionPlan> {
    let best = waiting
        .iter()
        .max_by_key(|entry| (entry.priority, std::cmp::Reverse(entry.group)))?;
    let group = best.group;
    let (promoted, remaining) = waiting
        .iter()
        .copied()
        .partition(|entry| entry.group == group);
    Some(PromotionPlan {
        group,
        promoted,
        remaining,
    })
}

/// §4.2 op. 4 peer selection for a cascade delete: every referenced user
/// not already visited by the cascade, deduplicated, in ascending order
/// (the deterministic fan-out order the runtime uses). `visited` carries
/// raw user ids because that is what travels on the wire.
pub fn cascade_peers(refs: impl IntoIterator<Item = UserId>, visited: &[u64]) -> Vec<UserId> {
    let mut peers: Vec<UserId> = refs
        .into_iter()
        .filter(|u| !visited.contains(&u.raw()))
        .collect();
    peers.sort();
    peers.dedup();
    peers
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_types::{LinkId, Priority};

    fn entry(link: u64, priority: u8, group: u64) -> WaitingEntry {
        WaitingEntry {
            link: LinkId::new(link),
            waits_on: LinkId::new(1),
            priority: Priority(priority),
            group,
        }
    }

    #[test]
    fn empty_queue_promotes_nothing() {
        assert_eq!(promotion_plan(&[]), None);
    }

    #[test]
    fn highest_priority_group_wins_whole() {
        let waiting = [entry(2, 200, 1), entry(3, 50, 1), entry(4, 100, 2)];
        let plan = promotion_plan(&waiting).unwrap();
        assert_eq!(plan.group, 1);
        // The whole group is promoted, even its low-priority member.
        assert_eq!(plan.promoted, vec![entry(2, 200, 1), entry(3, 50, 1)]);
        assert_eq!(plan.remaining, vec![entry(4, 100, 2)]);
    }

    #[test]
    fn priority_tie_breaks_to_lowest_group() {
        let waiting = [entry(4, 100, 2), entry(2, 100, 1)];
        let plan = promotion_plan(&waiting).unwrap();
        assert_eq!(plan.group, 1);
        assert_eq!(plan.promoted, vec![entry(2, 100, 1)]);
    }

    #[test]
    fn cascade_skips_visited_and_dedupes() {
        let refs = [3, 2, 5, 2, 1].map(UserId::new);
        let peers = cascade_peers(refs, &[1, 5]);
        assert_eq!(peers, vec![UserId::new(2), UserId::new(3)]);
    }
}
