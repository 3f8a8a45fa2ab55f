//! Change notification (\[CHOU88\]; §3.3 lists it among the CAx
//! requirements "change notification, and so on").
//!
//! Flag-model notification: interested parties subscribe to an object;
//! updates, deletions, version derivations, and default-version changes
//! append notifications that subscribers poll. (The message model —
//! calling back into application code — is the other half of \[CHOU88\];
//! a poll API is what a library can honestly offer.)

use orion_types::{Oid, OidHashMap, OidHashSet};

/// Why a notification fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotificationKind {
    /// The object's state changed.
    Updated,
    /// The object was deleted.
    Deleted,
    /// A new version was derived from the object (or its version set).
    VersionDerived,
    /// The default version of a generic object changed.
    DefaultVersionChanged,
}

/// One notification event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// The object the subscription was on.
    pub target: Oid,
    /// What happened.
    pub kind: NotificationKind,
    /// The object that triggered it (e.g. the new version).
    pub by: Option<Oid>,
}

/// Subscription registry + pending notification queues.
#[derive(Debug, Default)]
pub struct NotifyCenter {
    subscribed: OidHashSet,
    pending: OidHashMap<Vec<Notification>>,
}

impl NotifyCenter {
    /// An empty center.
    pub fn new() -> Self {
        NotifyCenter::default()
    }

    /// Subscribe to changes of `oid`.
    pub fn subscribe(&mut self, oid: Oid) {
        self.subscribed.insert(oid);
    }

    /// Cancel a subscription (pending notifications are dropped).
    pub fn unsubscribe(&mut self, oid: Oid) {
        self.subscribed.remove(&oid);
        self.pending.remove(&oid);
    }

    /// Record an event if anyone subscribed to `target`.
    pub fn publish(&mut self, target: Oid, kind: NotificationKind, by: Option<Oid>) {
        if self.subscribed.contains(&target) {
            self.pending.entry(target).or_default().push(Notification { target, kind, by });
        }
    }

    /// Drain pending notifications for `oid`.
    pub fn poll(&mut self, oid: Oid) -> Vec<Notification> {
        self.pending.remove(&oid).unwrap_or_default()
    }

    /// Total queued notifications (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_types::ClassId;

    fn oid(s: u64) -> Oid {
        Oid::new(ClassId(1), s)
    }

    #[test]
    fn publish_only_reaches_subscribers() {
        let mut nc = NotifyCenter::new();
        nc.subscribe(oid(1));
        nc.publish(oid(1), NotificationKind::Updated, None);
        nc.publish(oid(2), NotificationKind::Updated, None); // unsubscribed
        assert_eq!(nc.pending_count(), 1);
        let got = nc.poll(oid(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, NotificationKind::Updated);
        // Poll drains.
        assert!(nc.poll(oid(1)).is_empty());
    }

    #[test]
    fn unsubscribe_drops_pending() {
        let mut nc = NotifyCenter::new();
        nc.subscribe(oid(1));
        nc.publish(oid(1), NotificationKind::Deleted, Some(oid(9)));
        nc.unsubscribe(oid(1));
        assert_eq!(nc.pending_count(), 0);
        nc.publish(oid(1), NotificationKind::Updated, None);
        assert_eq!(nc.pending_count(), 0);
    }

    #[test]
    fn events_accumulate_in_order() {
        let mut nc = NotifyCenter::new();
        nc.subscribe(oid(3));
        nc.publish(oid(3), NotificationKind::VersionDerived, Some(oid(10)));
        nc.publish(oid(3), NotificationKind::DefaultVersionChanged, Some(oid(10)));
        let got = nc.poll(oid(3));
        assert_eq!(got[0].kind, NotificationKind::VersionDerived);
        assert_eq!(got[1].kind, NotificationKind::DefaultVersionChanged);
        assert_eq!(got[1].by, Some(oid(10)));
    }
}
