//! SplitMix64: the seeded generator every benchmark input derives from.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream starting at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// A stream for one purpose (`salt`) of one seed, independent of the
    /// streams for other purposes.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut base = SplitMix(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix(base.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A number in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
