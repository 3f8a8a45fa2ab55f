//! The benchmark's only source of randomness: a splitmix64 stream.
//! Data sets and operation streams are pure functions of `--seed`, so
//! two runs with the same seed send the program the same inputs.

/// Sebastiano Vigna's splitmix64: one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, lane)`: connections and phases
    /// each take their own lane so adding one never shifts another.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut base = SplitMix64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The multiply-shift reduction has a
    /// bias below 2^-32 for every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vector() {
        // First outputs of splitmix64 seeded with 1234567, from the
        // reference C implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::lane(1990, 3);
            (0..64).map(|_| r.below(2000)).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::lane(1990, 3);
            (0..64).map(|_| r.below(2000)).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::lane(1990, 4);
            (0..64).map(|_| r.below(2000)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| *v < 2000));
    }
}
