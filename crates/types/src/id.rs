//! Identifier newtypes used across every SyD layer.
//!
//! The paper names entities loosely ("users", "SyD objects", "devices",
//! "groups", "services"); we give each a distinct, cheap, `Copy` identifier
//! so mixing them up is a type error rather than a runtime bug.

use core::fmt;

use crate::text::Text;

macro_rules! numeric_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Wraps a raw numeric identifier.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric identifier.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

numeric_id!(
    /// A SyD user. In the calendar application every user owns exactly one
    /// calendar database embedded in their device.
    UserId,
    "user-"
);

numeric_id!(
    /// A physical or simulated device hosting SyD device objects (an iPAQ in
    /// the paper's prototype). One device may host several services.
    DeviceId,
    "dev-"
);

numeric_id!(
    /// A dynamic group of SyD entities registered in the SyDDirectory
    /// (e.g. "the Biology faculty").
    GroupId,
    "group-"
);

numeric_id!(
    /// A coordination link entry in a device's link database.
    LinkId,
    "link-"
);

numeric_id!(
    /// A meeting in the calendar application.
    MeetingId,
    "meeting-"
);

numeric_id!(
    /// Correlates an RPC request with its response on the simulated network.
    RequestId,
    "req-"
);

/// Address of an endpoint on the simulated network.
///
/// This plays the role of an `(IP, port)` pair in the paper's TCP-socket
/// transport. The directory maps logical names ([`UserId`], [`ServiceName`])
/// to `NodeAddr`s, which is exactly the indirection that makes SyD
/// applications location transparent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeAddr(pub u64);

impl NodeAddr {
    /// Wraps a raw address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

/// Name of a published SyD service, e.g. `"calendar"` or `"mailbox"`.
///
/// A service name plus a method name addresses one remotely invocable
/// operation, mirroring the paper's `SyDListener` registrations. A name is
/// a [`Text`]: every request carries one, and a short one is copied and
/// decoded without touching the heap.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceName(Text);

impl ServiceName {
    /// Creates a service name.
    pub fn new(name: impl Into<Text>) -> Self {
        Self(name.into())
    }

    /// A constant service name (at most [`crate::text::INLINE_CAP`] bytes).
    pub const fn constant(name: &str) -> Self {
        Self(Text::constant(name))
    }

    /// Returns the name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for ServiceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc:{}", self.0)
    }
}

impl fmt::Display for ServiceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for ServiceName {
    fn from(s: &str) -> Self {
        Self(s.into())
    }
}

impl From<String> for ServiceName {
    fn from(s: String) -> Self {
        Self(s.into())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property really, but exercise the accessors.
        let u = UserId::new(7);
        let d = DeviceId::new(7);
        assert_eq!(u.raw(), d.raw());
        assert_eq!(format!("{u}"), "user-7");
        assert_eq!(format!("{d}"), "dev-7");
    }

    #[test]
    fn ids_hash_and_order() {
        let mut set = HashSet::new();
        for i in 0..100 {
            set.insert(LinkId::new(i % 10));
        }
        assert_eq!(set.len(), 10);
        assert!(LinkId::new(3) < LinkId::new(4));
    }

    #[test]
    fn service_name_round_trip() {
        let s = ServiceName::from("calendar");
        assert_eq!(s.as_str(), "calendar");
        assert_eq!(s, ServiceName::new(String::from("calendar")));
        assert_eq!(format!("{s}"), "calendar");
        assert_eq!(format!("{s:?}"), "svc:calendar");
    }

    #[test]
    fn node_addr_display() {
        assert_eq!(format!("{}", NodeAddr::new(42)), "node:42");
        assert_eq!(NodeAddr::from_raw_roundtrip(9).raw(), 9);
    }

    impl NodeAddr {
        fn from_raw_roundtrip(raw: u64) -> Self {
            NodeAddr::new(raw)
        }
    }

    #[test]
    fn default_ids_are_zero() {
        assert_eq!(UserId::default().raw(), 0);
        assert_eq!(RequestId::default().raw(), 0);
        assert_eq!(MeetingId::default().raw(), 0);
        assert_eq!(GroupId::default().raw(), 0);
    }
}
