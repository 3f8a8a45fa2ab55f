//! The catalog's lock: a reader–writer lock on which a waiting schema
//! change is not starved by back-to-back readers.
//!
//! The shared `RwLock` blocks new readers while a writer waits, but
//! when it wakes that writer it forgets that one was waiting, and a
//! reader that re-locks at once gets in first. Every query holds the
//! catalog for its whole length ([`Database::with_snapshot`]), so one
//! thread running query after query can keep DDL waiting for seconds.
//! Here a writer takes a turnstile and holds it until it has the lock;
//! while any writer is waiting, readers pass through the turnstile and
//! so queue behind it. With no writer waiting a reader pays one atomic
//! load.
//!
//! [`Database::with_snapshot`]: crate::Database::with_snapshot

use orion_schema::Catalog;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A writer-fair reader–writer lock around the [`Catalog`].
#[derive(Debug)]
pub(crate) struct CatalogLock {
    lock: RwLock<Catalog>,
    turnstile: Mutex<()>,
    /// Writers waiting for (or just handed) the lock.
    writers: AtomicUsize,
}

impl CatalogLock {
    pub fn new(catalog: Catalog) -> Self {
        CatalogLock {
            lock: RwLock::new(catalog),
            turnstile: Mutex::new(()),
            writers: AtomicUsize::new(0),
        }
    }

    /// Shared access, after any writer that is already waiting.
    pub fn read(&self) -> RwLockReadGuard<'_, Catalog> {
        if self.writers.load(Ordering::SeqCst) > 0 {
            drop(self.turnstile.lock());
        }
        self.lock.read()
    }

    /// Exclusive access; readers that arrive meanwhile wait behind it.
    pub fn write(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.writers.fetch_add(1, Ordering::SeqCst);
        let turn = self.turnstile.lock();
        let guard = self.lock.write();
        self.writers.fetch_sub(1, Ordering::SeqCst);
        drop(turn);
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// A reader that re-locks the moment it lets go must not keep a
    /// writer out: the writer gets in within a few of its read spells.
    /// (The reader gives up after five seconds, so a starved writer
    /// fails the test rather than hanging it.)
    #[test]
    fn a_writer_is_not_starved_by_a_rereading_reader() {
        let lock = CatalogLock::new(Catalog::new());
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(5) {
                    let _guard = lock.read();
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            std::thread::sleep(Duration::from_millis(10));
            for _ in 0..20 {
                let start = Instant::now();
                drop(lock.write());
                let waited = start.elapsed();
                assert!(waited < Duration::from_millis(500), "a write waited {waited:?}");
            }
            stop.store(true, Ordering::SeqCst);
        });
    }
}
