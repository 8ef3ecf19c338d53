//! Deterministic RNG and run configuration.

use std::ops::Range;

/// How many generated cases each property test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated inputs per test.
    pub cases: u32,
}

/// The `PROPTEST_CASES` environment variable, if set to a number.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

impl ProptestConfig {
    /// A config running `cases` inputs. Unlike real proptest the count
    /// is a floor: `PROPTEST_CASES` raises it (never lowers it), so a CI
    /// sweep reaches suites that pin a small, fast count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: env_cases().map_or(cases, |env| env.max(cases)),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; the shim favors fast CI. As in
        // real proptest, `PROPTEST_CASES` overrides the default so CI
        // can run robustness sweeps without recompiling.
        ProptestConfig {
            cases: env_cases().unwrap_or(64),
        }
    }
}

/// SplitMix64: tiny, full-period, statistically fine for test generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from an arbitrary u64.
    pub fn from_seed(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Seed deterministically from a test name, so every run of a given
    /// test sees the same sequence (failures reproduce without a
    /// persistence file).
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::from_seed(h)
    }

    /// Next full-width value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from a half-open range.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty size range");
        range.start + (self.next_u64() as usize) % (range.end - range.start)
    }
}
