//! Order statistics for latency samples.

/// Percentiles a latency report may quote, ascending.
const TAILS: [f64; 6] = [50.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// The highest quotable percentile of `n` samples: the largest of
/// [`TAILS`] that still leaves at least ten samples beyond it. `None`
/// below 20 samples, where not even the median qualifies.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// `n=…` and the highest percentile that many samples support, for the
/// table.
pub fn sample_note(n: usize) -> String {
    match supported_tail(n) {
        Some(p) => format!("n={n}, supports p{p}"),
        None => format!("n={n}, too few for any percentile"),
    }
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p) + 1)
}

/// Zero-based nearest-rank index of the `p`-th percentile in `n` sorted
/// samples.
fn rank(n: usize, p: f64) -> usize {
    // `p * n` first keeps whole percentiles exact; the epsilon absorbs
    // the rounding of a fractional one (99.9).
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sort `values` into a sample set.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile; `NaN` on an empty set so a missing
    /// measurement can never pass for a number.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.0.len() {
            0 => f64::NAN,
            n => self.0[rank(n, p)],
        }
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// The `p`-th percentile of the *typical pass*: `values` holds passes of
/// `period` samples one after another (in time order); position by
/// position the median over the passes is taken, and the percentile is
/// over that profile. A tail percentile of the whole run is set by its
/// worst few moments — on a shared machine, by a neighbour. The profile
/// keeps the tail the work itself has (the late rounds of a pass, on
/// grown state, are its slow ones) and drops what hit one pass only.
pub fn profile_percentile(values: &[f64], period: usize, p: f64) -> f64 {
    let period = period.max(1);
    let profile: Vec<f64> = (0..period.min(values.len()))
        .map(|i| {
            median_of(
                &values
                    .iter()
                    .skip(i)
                    .step_by(period)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    Samples::new(profile).percentile(p)
}

/// The `p`-th percentile of the *typical stretch* of a run: `values`, in
/// the order taken, are cut into as many equal consecutive chunks of at
/// least `min_chunk` samples as they hold (one chunk when they hold
/// fewer), and the median of the chunks' percentiles is returned. A
/// neighbour's burst lifts the tail of the chunk it lands in, not of the
/// run; with `min_chunk` 1 000 every chunk still supports its p99.
pub fn chunked_percentile(values: &[f64], min_chunk: usize, p: f64) -> f64 {
    let chunks = (values.len() / min_chunk.max(1)).max(1);
    let size = values.len().div_ceil(chunks).max(1);
    let tails: Vec<f64> = values
        .chunks(size)
        .map(|c| Samples::new(c.to_vec()).percentile(p))
        .collect();
    median_of(&tails)
}

/// Median of a handful of repeated measurements.
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        // p99 of 1 000 is the 990th sample: exactly ten lie above it.
        assert_eq!(supported_tail(999), Some(98.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(Samples::new(vec![7.0]).percentile(99.0), 7.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn profile_tail_keeps_the_pass_shape_and_drops_one_bad_pass() {
        // Ten passes of 100 samples rising 1..=100; one pass is disturbed
        // and reads 1000 throughout.
        let mut v: Vec<f64> = (0..1_000).map(|i| f64::from(i % 100 + 1)).collect();
        v[300..400].fill(1_000.0);
        assert_eq!(Samples::new(v.clone()).percentile(99.0), 1_000.0);
        assert_eq!(profile_percentile(&v, 100, 99.0), 99.0);
        assert_eq!(profile_percentile(&v, 100, 50.0), 50.0);
        // A last, partial pass only feeds the positions it reached.
        assert_eq!(profile_percentile(&v[..950], 100, 99.0), 99.0);
        assert!(profile_percentile(&[], 100, 99.0).is_nan());
    }

    #[test]
    fn chunked_tail_drops_one_bad_stretch() {
        // Three stretches of 1 000 samples 1..=1000; the middle one has a
        // burst that lifts its top 5 %.
        let mut v: Vec<f64> = (0..3_000).map(|i| f64::from(i % 1_000 + 1)).collect();
        v[1_950..2_000].fill(9_000.0);
        assert_eq!(Samples::new(v.clone()).percentile(99.0), 9_000.0);
        assert_eq!(chunked_percentile(&v, 1_000, 99.0), 990.0);
        // Fewer samples than one chunk: the plain percentile.
        assert_eq!(chunked_percentile(&v[..500], 1_000, 99.0), 495.0);
        // 2 999 samples are two chunks of 1 500, not three short ones
        // (whose maxima would be 1, 3 and 3).
        let mut w = vec![1.0; 2_999];
        w[1_500..].fill(3.0);
        assert_eq!(chunked_percentile(&w, 1_000, 100.0), 1.0);
        assert!(chunked_percentile(&[], 1_000, 99.0).is_nan());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0]), 1.0);
    }
}
