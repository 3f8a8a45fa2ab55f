//! Logical object identifiers.
//!
//! Every real-world entity is "uniformly modeled as an object, and is
//! associated with a unique identifier" (§3.1, concept 1). Like ORION,
//! orion uses *class-tagged* logical OIDs: the identifier embeds the
//! identifier of the class the object is an instance of, so that method
//! dispatch and hierarchy-scoped queries can classify an object without
//! fetching it. The OID is logical — it says nothing about where the
//! object is stored; the object directory maps OIDs to record ids.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a class in the schema catalog.
///
/// Class ids are small dense integers handed out by the catalog; they are
/// embedded in the top 16 bits of every [`Oid`], which caps a database at
/// 65 535 classes (1990's ORION shipped with far fewer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u16);

impl ClassId {
    /// The class id reserved for "no class"; used by bootstrap code paths.
    pub const INVALID: ClassId = ClassId(u16::MAX);

    /// Raw numeric value.
    #[inline]
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A logical object identifier: 16-bit class id + 48-bit serial number.
///
/// OIDs are totally ordered (first by class, then by serial), which lets
/// posting lists in indexes stay sorted and mergeable, and lets a
/// class-hierarchy index partition one key's postings by class cheaply.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(u64);

const SERIAL_BITS: u32 = 48;
const SERIAL_MASK: u64 = (1 << SERIAL_BITS) - 1;

impl Oid {
    /// Construct an OID from a class id and serial number.
    ///
    /// # Panics
    /// Panics if `serial` does not fit in 48 bits; the allocator never
    /// produces such serials.
    #[inline]
    pub fn new(class: ClassId, serial: u64) -> Self {
        assert!(serial <= SERIAL_MASK, "oid serial overflow: {serial}");
        Oid(((class.0 as u64) << SERIAL_BITS) | serial)
    }

    /// The class this object is an instance of (§3.1 concept 3: an object
    /// belongs to exactly one class).
    #[inline]
    pub fn class(self) -> ClassId {
        ClassId((self.0 >> SERIAL_BITS) as u16)
    }

    /// The per-class serial number.
    #[inline]
    pub fn serial(self) -> u64 {
        self.0 & SERIAL_MASK
    }

    /// The packed 64-bit representation (used by the on-page codec).
    #[inline]
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Rebuild an OID from its packed representation.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        Oid(raw)
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({}:{})", self.class().0, self.serial())
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.class().0, self.serial())
    }
}

/// The hasher of every OID-keyed map: a 64×64→128-bit multiply by an
/// odd constant, its two halves folded by XOR — one multiply per key,
/// where std's default SipHash-1-3 runs a dozen rounds. An [`Oid`]
/// hashes as the one word it is.
///
/// Both ends of the result depend on every input bit: hashbrown picks
/// a bucket from the low bits and keeps the top seven as each slot's
/// tag. The constant is deliberately not the 2^64/φ multiplier that
/// sharded structures use to pick a shard from the product's top bits:
/// with the same product, every OID of one shard would share the top
/// bits of its tag.
///
/// The hash is unkeyed, so it offers no defence against keys chosen to
/// collide. OIDs are allocated by the server, never chosen by clients.
#[derive(Debug, Default, Clone, Copy)]
pub struct OidHasher(u64);

/// The folding multiplier: odd, with its set bits spread over all
/// eight bytes (the constant of wyhash's final mix).
const OID_HASH_MUL: u64 = 0xA076_1D64_78BD_642F;

impl Hasher for OidHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(OID_HASH_MUL);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds an [`OidHasher`] for each map.
pub type OidBuildHasher = BuildHasherDefault<OidHasher>;

/// A hash map keyed by [`Oid`], hashed by [`OidHasher`] (make one with
/// `OidHashMap::default()`).
pub type OidHashMap<V> = HashMap<Oid, V, OidBuildHasher>;

/// A hash set of [`Oid`]s, hashed by [`OidHasher`].
pub type OidHashSet = HashSet<Oid, OidBuildHasher>;

/// Thread-safe allocator of per-class serial numbers.
///
/// The allocator is a single monotone counter shared by all classes; this
/// wastes some of the 48-bit serial space in exchange for one atomic and
/// no per-class state. Restart recovery re-seeds it above the highest
/// serial found in the object directory.
#[derive(Debug)]
pub struct OidAllocator {
    next: AtomicU64,
}

impl OidAllocator {
    /// A fresh allocator starting at serial 1 (serial 0 is reserved so a
    /// zeroed page can never alias a live OID).
    pub fn new() -> Self {
        OidAllocator { next: AtomicU64::new(1) }
    }

    /// Allocate the next OID for an instance of `class`.
    pub fn allocate(&self, class: ClassId) -> Oid {
        let serial = self.next.fetch_add(1, Ordering::Relaxed);
        Oid::new(class, serial)
    }

    /// Ensure future serials are strictly greater than `floor`; used when
    /// reopening a database so recovered objects are never shadowed.
    pub fn seed_above(&self, floor: u64) {
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur <= floor {
            match self.next.compare_exchange(cur, floor + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The serial the next allocation would receive (diagnostics only).
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

impl Default for OidAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_roundtrips_class_and_serial() {
        let oid = Oid::new(ClassId(7), 123_456);
        assert_eq!(oid.class(), ClassId(7));
        assert_eq!(oid.serial(), 123_456);
        assert_eq!(Oid::from_raw(oid.to_raw()), oid);
    }

    #[test]
    fn oid_order_is_class_then_serial() {
        let a = Oid::new(ClassId(1), 999);
        let b = Oid::new(ClassId(2), 1);
        assert!(a < b);
        let c = Oid::new(ClassId(2), 2);
        assert!(b < c);
    }

    #[test]
    #[should_panic(expected = "serial overflow")]
    fn oid_serial_overflow_panics() {
        let _ = Oid::new(ClassId(0), 1 << 48);
    }

    #[test]
    fn oid_hasher_is_one_multiply_per_word() {
        use std::hash::{BuildHasher, Hash};
        let hash = |oid: Oid| {
            let mut h = OidHasher::default();
            oid.hash(&mut h);
            h.finish()
        };
        let oid = Oid::new(ClassId(3), 77);
        let product = u128::from(oid.to_raw()) * u128::from(OID_HASH_MUL);
        assert_eq!(hash(oid), (product as u64) ^ ((product >> 64) as u64));
        assert_eq!(OidBuildHasher::default().hash_one(oid), hash(oid), "no per-map key");
        // Neighbouring serials land in different buckets of a small table.
        let low = |serial| hash(Oid::new(ClassId(1), serial)) & 63;
        let buckets: HashSet<u64> = (0..64).map(low).collect();
        assert!(buckets.len() > 32, "{} of 64 buckets", buckets.len());
        let mut map: OidHashMap<u64> = OidHashMap::default();
        for serial in 0..1_000 {
            map.insert(Oid::new(ClassId(2), serial), serial);
        }
        assert_eq!(map.get(&Oid::new(ClassId(2), 999)), Some(&999));
        assert_eq!(map.len(), 1_000);
    }

    #[test]
    fn allocator_is_monotone_and_seedable() {
        let alloc = OidAllocator::new();
        let a = alloc.allocate(ClassId(3));
        let b = alloc.allocate(ClassId(3));
        assert!(b.serial() > a.serial());
        alloc.seed_above(1_000);
        let c = alloc.allocate(ClassId(3));
        assert!(c.serial() > 1_000);
        // Seeding below the current value is a no-op.
        alloc.seed_above(5);
        let d = alloc.allocate(ClassId(3));
        assert!(d.serial() > c.serial());
    }

    #[test]
    fn allocator_is_thread_safe() {
        use std::sync::Arc;
        let alloc = Arc::new(OidAllocator::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let alloc = Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| alloc.allocate(ClassId(1)).serial()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "serials must be unique across threads");
    }
}
