//! The logical constraint of a negotiation (§4.3).
//!
//! It lives here, below the kernel, because three layers name it: the
//! kernel negotiates under it, the journal records it in a session's
//! opening event, and the checker judges the session's outcome against it.

/// Logical constraint of a negotiation link (§4.3), generalized to k-of-n
/// exactly as the paper notes ("can be extended to at least/exactly k out
/// of n").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// All references must change (negotiation-and).
    And,
    /// At least `k` references must change (negotiation-or).
    AtLeast(u32),
    /// Exactly `k` references change (negotiation-xor).
    Exactly(u32),
}
