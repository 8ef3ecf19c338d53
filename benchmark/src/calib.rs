//! Machine-speed calibration.
//!
//! The benchmark runs on shared two-core machines whose speed switches,
//! every few seconds, between a quiet and a busy regime about 25 % apart
//! (a neighbour on the sibling hyperthread). CPU-bound timings follow the
//! regime, so two runs of the same code differ by more than most changes
//! worth detecting. ROADMAP item 1 names the remedy: time a fixed kernel
//! alongside the work and report the work relative to it.
//!
//! The kernel is a dependent multiply-xor walk over a 512 KiB buffer
//! (compute plus cache traffic, ~80 µs). `slowdown` is its recent median
//! time over [`REFERENCE_US`]; a CPU-bound timing divided by the slowdown
//! in force when it was taken reads as it would on a machine where the
//! kernel takes exactly the reference time. Timings that wait on timers
//! or sockets are *not* calibrated — a 10 ms sync interval does not
//! stretch with CPU speed. README.md lists which cell is which.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::stats::median_of;

/// Kernel time on the reference machine (a quiet 2.1 GHz Xeon core).
pub const REFERENCE_US: f64 = 80.0;

const BUF_WORDS: usize = 64 * 1024;
const RECENT: usize = 9;

/// One pass of a dependent multiply-xor chain over `buf`, visiting every
/// word once in a strided order.
fn kernel(buf: &mut [u64]) -> u64 {
    assert_eq!(buf.len(), BUF_WORDS);
    let (mut h, mut i) = (0x9e37_79b9_7f4a_7c15u64, 0usize);
    for _ in 0..BUF_WORDS {
        h = (h ^ buf[i]).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        buf[i] = h;
        // 97 is odd and BUF_WORDS a power of two: a full cycle.
        i = (i + 97) & (BUF_WORDS - 1);
    }
    h
}

/// Times the calibration kernel on demand, on the caller's thread.
#[derive(Debug)]
pub struct Calibrator {
    buf: Vec<u64>,
    recent: [f64; RECENT],
    ticks: usize,
    since_mark: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A warmed-up calibrator: the recent window is already full.
    pub fn new() -> Self {
        let mut c = Calibrator {
            buf: vec![1; BUF_WORDS],
            recent: [0.0; RECENT],
            ticks: 0,
            since_mark: Vec::new(),
        };
        c.refresh();
        c.mark();
        c
    }

    /// Run the kernel once and remember how long it took.
    pub fn tick(&mut self) {
        let start = Instant::now();
        black_box(kernel(&mut self.buf));
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.recent[self.ticks % RECENT] = us;
        self.ticks += 1;
        self.since_mark.push(us);
    }

    /// Refill the recent window: for callers whose ticks are far apart,
    /// so that [`Calibrator::slowdown`] describes now and not a minute
    /// ago.
    pub fn refresh(&mut self) {
        for _ in 0..RECENT {
            self.tick();
        }
    }

    /// How much slower than the reference the machine is right now:
    /// median of the last few kernel times over the reference time.
    pub fn slowdown(&self) -> f64 {
        median_of(&self.recent) / REFERENCE_US
    }

    /// Forget the samples behind [`Calibrator::slowdown_since_mark`].
    pub fn mark(&mut self) {
        self.since_mark.clear();
    }

    /// Median slowdown over every tick since the last mark (the current
    /// slowdown when there was none).
    pub fn slowdown_since_mark(&self) -> f64 {
        match self.since_mark.is_empty() {
            true => self.slowdown(),
            false => median_of(&self.since_mark) / REFERENCE_US,
        }
    }

    /// Median kernel time since the last mark, in µs.
    pub fn kernel_us(&self) -> f64 {
        self.slowdown_since_mark() * REFERENCE_US
    }
}

/// A calibrator on a thread of its own, for the multi-threaded TCP runs:
/// one kernel every [`BackgroundCalibrator::PERIOD`], about 0.5 % of a core.
#[derive(Debug)]
pub struct BackgroundCalibrator {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<f64>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl BackgroundCalibrator {
    const PERIOD: Duration = Duration::from_millis(20);

    /// Start sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            std::thread::spawn(move || {
                let mut c = Calibrator::new();
                // SeqCst: the flag orders nothing but itself.
                while !stop.load(Ordering::SeqCst) {
                    c.mark();
                    c.tick();
                    samples
                        .lock()
                        .expect("calibration samples lock poisoned")
                        .push(c.kernel_us());
                    std::thread::sleep(Self::PERIOD);
                }
            })
        };
        BackgroundCalibrator {
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// Samples taken so far; two positions bound a stretch of the run
    /// for [`BackgroundCalibrator::slowdown_over`].
    pub fn position(&self) -> usize {
        self.samples
            .lock()
            .expect("calibration samples lock poisoned")
            .len()
    }

    /// Median slowdown over the samples taken between two positions
    /// (`NaN` when there is none, so it can never pass for a number).
    pub fn slowdown_over(&self, stretch: std::ops::Range<usize>) -> f64 {
        let samples = self
            .samples
            .lock()
            .expect("calibration samples lock poisoned");
        let end = stretch.end.min(samples.len());
        median_of(&samples[stretch.start.min(end)..end]) / REFERENCE_US
    }

    /// Median slowdown over the last few samples (the last 180 ms).
    pub fn slowdown_now(&self) -> f64 {
        let end = self.position();
        self.slowdown_over(end.saturating_sub(RECENT)..end)
    }

    /// Stop sampling and return the median slowdown over the whole run.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("calibration thread panicked");
        }
        let samples = self
            .samples
            .lock()
            .expect("calibration samples lock poisoned");
        median_of(&samples) / REFERENCE_US
    }
}

impl Drop for BackgroundCalibrator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_recent_median_over_reference() {
        let mut c = Calibrator::new();
        c.recent = [80.0, 80.0, 80.0, 80.0, 120.0, 120.0, 120.0, 120.0, 120.0];
        assert_eq!(c.slowdown(), 1.5);
        c.since_mark = vec![40.0, 160.0, 80.0];
        assert_eq!(c.slowdown_since_mark(), 1.0);
        assert_eq!(c.kernel_us(), 80.0);
        c.mark();
        assert_eq!(c.slowdown_since_mark(), 1.5);
    }

    #[test]
    fn kernel_runs_and_background_sampler_stops() {
        let mut c = Calibrator::new();
        c.tick();
        assert!(c.slowdown() > 0.0 && c.slowdown().is_finite());
        let bg = BackgroundCalibrator::start();
        let from = bg.position();
        std::thread::sleep(Duration::from_millis(70));
        assert!(bg.position() > from);
        for s in [bg.slowdown_over(from..bg.position()), bg.slowdown_now()] {
            assert!(s > 0.0 && s.is_finite());
        }
        assert!(bg.slowdown_over(from..from).is_nan());
        let s = bg.finish();
        assert!(s > 0.0 && s.is_finite());
    }
}
