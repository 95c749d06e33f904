//! What the checker works out from a journal on its own.
//!
//! The records themselves are [`syd_telemetry::Event`] values — the same
//! enum the kernel, `syd-model` and [`crate::synth`] build — so there is
//! nothing to parse. What stays here is the arithmetic the oracle must
//! *not* share with the kernel it audits: whether a committed count
//! meets a constraint, written independently of `syd_core::negotiate::fsm`.

use syd_types::Constraint;

/// Whether `committed` out of `participants` satisfies `constraint`.
pub fn holds(constraint: Constraint, committed: u32, participants: u32) -> bool {
    match constraint {
        Constraint::And => committed == participants,
        Constraint::AtLeast(k) => committed >= k,
        Constraint::Exactly(k) => committed == k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_arithmetic() {
        assert!(holds(Constraint::And, 3, 3));
        assert!(!holds(Constraint::And, 2, 3));
        assert!(holds(Constraint::AtLeast(2), 2, 3));
        assert!(holds(Constraint::AtLeast(2), 3, 3));
        assert!(!holds(Constraint::AtLeast(2), 1, 3));
        assert!(holds(Constraint::Exactly(1), 1, 3));
        assert!(!holds(Constraint::Exactly(1), 2, 3));
    }
}
