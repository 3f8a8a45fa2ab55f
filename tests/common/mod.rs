//! Shared helpers for integration tests that need a real on-disk
//! database directory (a `PageDevice` over files).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir, removed on
/// drop. Uniqueness comes from the process id plus a per-process
/// counter, so concurrently running test binaries never collide.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("orion-{tag}-{}-{n}", std::process::id()));
        // A stale directory from a killed earlier run would replay its
        // old state into the new database; start from nothing.
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
