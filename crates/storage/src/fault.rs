//! Deterministic fault injection for the storage layer.
//!
//! The paper's §3.1 makes "recovery from system crashes" a
//! non-negotiable conventional-DB feature; proving it means exercising
//! recovery against the failures real media produce, not just clean
//! crashes. A [`FaultPlan`] scripts *when* faults fire (fail-nth,
//! every-nth, probabilistic — all driven by one seed, so a failing chaos
//! run replays exactly); the [`FaultInjector`] built from it is shared
//! by the [`PageDevice`](crate::PageDevice) and the [`Wal`](crate::Wal),
//! which consult it on every page read and write and every log flush:
//!
//! * [`FaultKind::ReadError`] / [`FaultKind::WriteError`] — the I/O call
//!   fails cleanly, touching nothing.
//! * [`FaultKind::TornWrite`] — a page write persists only a prefix and
//!   then fails, leaving the on-disk page checksum stale (detected as
//!   [`DbError::Corruption`](orion_types::DbError::Corruption) on the
//!   next read, repaired by recovery).
//! * [`FaultKind::BitFlip`] — bit rot: one stored bit flips during a
//!   read; the page checksum catches it.
//! * [`FaultKind::PartialFlush`] — a lying fsync: only part of the WAL
//!   tail reaches the stable prefix and the flush reports failure. A
//!   crash before the next successful flush leaves a torn log tail,
//!   which recovery truncates (ARIES tail discipline).
//!
//! Every fired fault is counted in a `FaultMetrics` sink, which an
//! engine shares with every injector it installs, so its counts run
//! across plans and feed the `orion_fault_*` Prometheus series.

use parking_lot::Mutex;
use std::sync::Arc;

/// Where in the storage layer a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// [`PageDevice::read`](crate::PageDevice::read).
    DiskRead,
    /// [`PageDevice::write`](crate::PageDevice::write).
    DiskWrite,
    /// [`Wal::flush`](crate::Wal::flush) (including the write-ahead
    /// `flush_to` path).
    WalFlush,
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The page read fails with a clean I/O error.
    ReadError,
    /// The page write fails with a clean I/O error; nothing is written.
    WriteError,
    /// The page write persists only a prefix, then fails.
    TornWrite,
    /// One stored bit flips; the read returns the rotted bytes, which
    /// the checksum then rejects.
    BitFlip,
    /// The WAL flush promotes only part of the tail, then fails.
    PartialFlush,
}

impl FaultKind {
    /// The injection site this kind of fault fires at.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::ReadError | FaultKind::BitFlip => FaultSite::DiskRead,
            FaultKind::WriteError | FaultKind::TornWrite => FaultSite::DiskWrite,
            FaultKind::PartialFlush => FaultSite::WalFlush,
        }
    }
}

/// When a rule fires, relative to the operations at its site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly once, on the `n`th matching operation (1-based).
    Nth(u64),
    /// Fire on every `n`th matching operation.
    EveryNth(u64),
    /// Fire with probability `p` per operation (seeded, deterministic).
    Probability(f64),
}

/// A scripted schedule of storage faults. Built once, then installed
/// into an engine via `StorageEngine::install_faults` (or directly with
/// [`FaultInjector::new`] for unit tests against raw components).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(FaultKind, Trigger)>,
}

impl FaultPlan {
    /// An empty plan; `seed` drives probabilistic triggers and fault
    /// payloads (torn-prefix lengths, flipped bit positions, flush cut
    /// points), so equal plans produce byte-identical fault sequences.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Fire `kind` exactly once, on the `n`th operation at its site.
    pub fn fail_nth(mut self, kind: FaultKind, n: u64) -> Self {
        assert!(n >= 1, "fail_nth is 1-based");
        self.rules.push((kind, Trigger::Nth(n)));
        self
    }

    /// Fire `kind` on every `n`th operation at its site.
    pub fn every_nth(mut self, kind: FaultKind, n: u64) -> Self {
        assert!(n >= 1, "every_nth needs n >= 1");
        self.rules.push((kind, Trigger::EveryNth(n)));
        self
    }

    /// Fire `kind` with probability `p` per operation at its site.
    pub fn probabilistic(mut self, kind: FaultKind, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.rules.push((kind, Trigger::Probability(p)));
        self
    }

    /// Does the plan contain any rule at all?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// One fired fault: the kind plus a seeded entropy word the site uses
/// to derive its payload (which bit to flip, where to cut a torn write
/// or partial flush).
#[derive(Debug, Clone, Copy)]
pub struct FaultShot {
    /// The kind of fault to apply.
    pub kind: FaultKind,
    /// Deterministic per-shot randomness for the fault payload.
    pub entropy: u64,
}

#[derive(Debug)]
struct RuleState {
    kind: FaultKind,
    trigger: Trigger,
    seen: u64,
    spent: bool,
}

#[derive(Debug)]
struct InjectorState {
    rules: Vec<RuleState>,
    rng: u64,
}

orion_obs::metrics! {
    /// Cumulative injection counters, one per [`FaultKind`].
    pub struct FaultStats;
    /// The injection sinks: one per engine, shared by every injector it
    /// installs.
    pub(crate) struct FaultMetrics;
    /// Injected page-read I/O errors.
    read_errors: counter("orion_fault_read_errors_total", "Injected page-read I/O errors"),
    /// Injected page-write I/O errors.
    write_errors: counter("orion_fault_write_errors_total", "Injected page-write I/O errors"),
    /// Injected torn page writes (prefix persisted, then failed).
    torn_writes: counter("orion_fault_torn_writes_total", "Injected torn page writes (prefix persisted)"),
    /// Injected stored-bit flips.
    bit_flips: counter("orion_fault_bit_flips_total", "Injected stored-page bit flips"),
    /// Injected partial WAL flushes.
    partial_flushes: counter("orion_fault_partial_flushes_total", "Injected partial WAL flushes"),
}

impl FaultStats {
    /// Total faults fired, across all kinds.
    pub fn total(&self) -> u64 {
        self.read_errors + self.write_errors + self.torn_writes + self.bit_flips
            + self.partial_flushes
    }
}

/// The runtime form of a [`FaultPlan`]: consulted by the disk and WAL on
/// every operation, counting what it fires.
#[derive(Debug)]
pub struct FaultInjector {
    state: Mutex<InjectorState>,
    metrics: Arc<FaultMetrics>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Arm a plan that counts into a sink of its own.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_metrics(plan, Arc::default())
    }

    /// Arm a plan that counts into `metrics`.
    pub(crate) fn with_metrics(plan: FaultPlan, metrics: Arc<FaultMetrics>) -> Self {
        FaultInjector {
            state: Mutex::new(InjectorState {
                rules: plan
                    .rules
                    .into_iter()
                    .map(|(kind, trigger)| RuleState { kind, trigger, seen: 0, spent: false })
                    .collect(),
                rng: plan.seed,
            }),
            metrics,
        }
    }

    /// Consult the plan for one operation at `site`. At most one rule
    /// fires per operation (first armed match wins); the fired fault is
    /// counted here.
    pub fn fire(&self, site: FaultSite) -> Option<FaultShot> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let mut shot = None;
        for rule in state.rules.iter_mut().filter(|r| r.kind.site() == site) {
            rule.seen += 1;
            if shot.is_some() {
                continue; // later rules still observe the operation
            }
            let fires = match rule.trigger {
                Trigger::Nth(n) => {
                    if !rule.spent && rule.seen == n {
                        rule.spent = true;
                        true
                    } else {
                        false
                    }
                }
                Trigger::EveryNth(n) => rule.seen % n == 0,
                Trigger::Probability(p) => {
                    (splitmix64(&mut state.rng) as f64 / u64::MAX as f64) < p
                }
            };
            if fires {
                shot = Some(FaultShot { kind: rule.kind, entropy: splitmix64(&mut state.rng) });
            }
        }
        if let Some(shot) = &shot {
            let m = &self.metrics;
            match shot.kind {
                FaultKind::ReadError => m.read_errors.inc(),
                FaultKind::WriteError => m.write_errors.inc(),
                FaultKind::TornWrite => m.torn_writes.inc(),
                FaultKind::BitFlip => m.bit_flips.inc(),
                FaultKind::PartialFlush => m.partial_flushes.inc(),
            }
        }
        shot
    }

    /// Snapshot the injection counters (of every injector sharing this
    /// one's sink).
    pub fn stats(&self) -> FaultStats {
        self.metrics.snapshot()
    }
}

/// The eight slice-by-8 tables: `TABLES[0]` is the classic byte-at-a-time
/// table, `TABLES[k][i]` the CRC of byte `i` followed by `k` zero bytes.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`. Guards WAL
/// records and disk pages against torn writes and bit rot.
///
/// On x86_64 hosts with `pclmulqdq` (detected at run time), inputs of
/// at least [`CLMUL_MIN`] bytes go through a carry-less-multiply kernel
/// that folds 64 bytes per step; short inputs, the last few bytes and
/// every other host take slice-by-8. Both compute the same function, so
/// a checksum does not depend on the host that wrote it.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: the CPU supports pclmulqdq, checked just above; SSE2
        // is part of the x86_64 baseline.
        let state = unsafe { clmul::update(!0, body) };
        return !sliced(state, tail);
    }
    !sliced(!0, bytes)
}

/// Inputs shorter than this take slice-by-8 everywhere: the kernel
/// needs four 16-byte lanes to start folding.
const CLMUL_MIN: usize = 64;

/// Slice-by-8: eight input bytes are folded per step through eight
/// tables (built once at first use), the remainder byte by byte.
/// `state` is the running (uninverted) CRC register.
fn sliced(mut state: u32, bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009): four 128-bit lanes are folded forward 512 bits at a
/// time, folded into one lane, reduced to 64 and then 32 bits, and
/// finished with a Barrett reduction. The constants are powers of `x`
/// modulo the bit-reflected polynomial, shifted for the reflection.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^(4*128+32)` and `x^(4*128-32)` mod P: fold one lane 512 bits.
    const FOLD_512: (u64, u64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
    /// `x^(128+32)` and `x^(128-32)` mod P: fold one lane 128 bits.
    const FOLD_128: (u64, u64) = (0x1_7519_97D0, 0x0_CCAA_009E);
    /// `x^64` mod P: fold 64 bits to 32.
    const FOLD_64: u64 = 0x1_63CD_6124;
    /// The polynomial and Barrett's `floor(x^64 / P)`, both reflected.
    const BARRETT: (u64, u64) = (0x1_DB71_0641, 0x1_F701_1641);

    #[target_feature(enable = "pclmulqdq")]
    fn pair((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` moved 128 bits (or, with `FOLD_512`, 512 bits) down the
    /// message: each half multiplied by its constant, the products
    /// summed.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11))
    }

    #[target_feature(enable = "pclmulqdq")]
    fn load(chunk: &[u8]) -> __m128i {
        let lane: &[u8; 16] = chunk.try_into().expect("a 16-byte chunk");
        // SAFETY: `lane` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Run the CRC register `state` over `bytes`, whose length is a
    /// multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= super::CLMUL_MIN && bytes.len().is_multiple_of(16));
        let lane = |i: usize| load(&bytes[16 * i..16 * i + 16]);
        let mut x = [lane(0), lane(1), lane(2), lane(3)];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let mut rest = bytes[64..].chunks_exact(64);
        let k = pair(FOLD_512);
        for block in &mut rest {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = _mm_xor_si128(fold(*lane, k), load(&block[16 * i..16 * i + 16]));
            }
        }
        let k = pair(FOLD_128);
        let mut acc = x[0];
        for lane in &x[1..] {
            acc = _mm_xor_si128(fold(acc, k), *lane);
        }
        for chunk in rest.remainder().chunks_exact(16) {
            acc = _mm_xor_si128(fold(acc, k), load(chunk));
        }
        // 128 → 64 bits: the low half times x^(128-32), plus the high half
        // (which also appends 32 zero bits to the message).
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x10), _mm_srli_si128(acc, 8));
        // 64 → 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k = _mm_cvtsi64_si128(FOLD_64 as i64);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k, 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: q = (low 32 bits · µ) mod x^32, then acc + q · P.
        let b = pair(BARRETT);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), b, 0x10);
        let r = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(q, low32), b, 0x00), acc);
        _mm_cvtsi128_si32(_mm_srli_si128(r, 4)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The CRC register run one bit at a time, with no table.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Both paths equal the bitwise loop at every length around the
    /// kernel's threshold, lane and block boundaries, at a page, a page
    /// block and two, and at every alignment within a lane: slice-by-8
    /// called directly (so a host that dispatches to the kernel still
    /// checks it) and the dispatched `crc32`.
    #[test]
    fn both_crc32_paths_equal_the_bitwise_loop() {
        let mut rng = 0x5EED;
        let data: Vec<u8> = (0..8_200 + 16).map(|_| splitmix64(&mut rng) as u8).collect();
        for len in (0..=300).chain([4_096, 4_104, 8_200]) {
            for start in 0..16 {
                let bytes = &data[start..start + len];
                let want = bytewise(bytes);
                assert_eq!(!sliced(!0, bytes), want, "slice-by-8, {len} bytes at {start}");
                assert_eq!(crc32(bytes), want, "crc32, {len} bytes at {start}");
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0x5Au8; 512];
        let clean = crc32(&data);
        data[100] ^= 0x04;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn fail_nth_fires_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::new(1).fail_nth(FaultKind::ReadError, 3));
        let fired: Vec<bool> =
            (0..6).map(|_| inj.fire(FaultSite::DiskRead).is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(inj.stats().read_errors, 1);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let inj = FaultInjector::new(FaultPlan::new(1).every_nth(FaultKind::WriteError, 2));
        let fired: Vec<bool> =
            (0..6).map(|_| inj.fire(FaultSite::DiskWrite).is_some()).collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
        assert_eq!(inj.stats().write_errors, 3);
    }

    #[test]
    fn sites_are_independent() {
        let inj = FaultInjector::new(FaultPlan::new(1).fail_nth(FaultKind::PartialFlush, 1));
        assert!(inj.fire(FaultSite::DiskRead).is_none());
        assert!(inj.fire(FaultSite::DiskWrite).is_none());
        let shot = inj.fire(FaultSite::WalFlush).expect("flush rule fires");
        assert_eq!(shot.kind, FaultKind::PartialFlush);
    }

    #[test]
    fn probabilistic_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let inj =
                FaultInjector::new(FaultPlan::new(seed).probabilistic(FaultKind::BitFlip, 0.5));
            (0..32).map(|_| inj.fire(FaultSite::DiskRead).is_some()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        let fired = run(7).iter().filter(|&&f| f).count();
        assert!(fired > 4 && fired < 28, "p=0.5 fires roughly half the time, got {fired}/32");
    }

    #[test]
    fn probability_extremes() {
        let never =
            FaultInjector::new(FaultPlan::new(3).probabilistic(FaultKind::ReadError, 0.0));
        assert!((0..64).all(|_| never.fire(FaultSite::DiskRead).is_none()));
        let always =
            FaultInjector::new(FaultPlan::new(3).probabilistic(FaultKind::ReadError, 1.0));
        assert!((0..64).all(|_| always.fire(FaultSite::DiskRead).is_some()));
    }

    #[test]
    fn first_matching_rule_wins_but_both_observe() {
        let inj = FaultInjector::new(
            FaultPlan::new(1)
                .fail_nth(FaultKind::ReadError, 2)
                .fail_nth(FaultKind::BitFlip, 2),
        );
        assert!(inj.fire(FaultSite::DiskRead).is_none());
        let shot = inj.fire(FaultSite::DiskRead).expect("second op fires");
        assert_eq!(shot.kind, FaultKind::ReadError, "earlier rule wins the tie");
        assert!(inj.fire(FaultSite::DiskRead).is_none(), "both rules are spent");
        assert_eq!(inj.stats().total(), 1);
    }
}
