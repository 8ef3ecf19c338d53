//! Open-loop pacing: operations are due on a schedule fixed in advance,
//! whether or not the system keeps up, and each is timed from its due
//! time.
//!
//! Each operation is due at a seeded random instant inside its own slot
//! of `1 / rate` seconds, not at the slot's start: six evenly spaced
//! operations at 600 a second span exactly one 10 ms sync interval, so
//! every operation of a run would meet its node at the same two phases
//! of that node's sync timer, and which two would differ from run to run.
//! (Poisson arrivals would serve as well, were the generator not one
//! thread with one request in flight: at 600 a second and 1.7 ms a
//! request it is 90 % busy, and bunched arrivals queue for 0.4 s.)

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The arithmetic of a seeded jittered fixed-rate schedule, in
/// nanoseconds since the start of the window. Kept apart from the clock
/// so it can be tested.
#[derive(Debug, Clone)]
pub struct Schedule {
    interval_ns: u64,
    rng: StdRng,
    next_due_ns: u64,
    issued: u64,
    late_max_ns: u64,
}

impl Schedule {
    /// A schedule of `rate_per_s` operations per second.
    pub fn new(rate_per_s: u64, seed: u64) -> Self {
        let mut s = Schedule {
            interval_ns: 1_000_000_000 / rate_per_s.max(1),
            rng: StdRng::seed_from_u64(seed ^ 0x09e7_100b),
            next_due_ns: 0,
            issued: 0,
            late_max_ns: 0,
        };
        s.next_due_ns = s.due_in_slot(0);
        s
    }

    /// A seeded instant inside slot `slot`.
    fn due_in_slot(&mut self, slot: u64) -> u64 {
        slot * self.interval_ns + self.rng.gen_range(0..self.interval_ns)
    }

    /// When the next operation is due.
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// The next operation is being sent at `now_ns`: returns its due
    /// time and remembers how late the generator was. A stalled system
    /// delays every later send, and each of those still counts from the
    /// moment it should have gone out.
    pub fn issue(&mut self, now_ns: u64) -> u64 {
        let due = self.next_due_ns;
        self.issued += 1;
        self.next_due_ns = self.due_in_slot(self.issued);
        self.late_max_ns = self.late_max_ns.max(now_ns.saturating_sub(due));
        due
    }

    /// Operations issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The latest any operation was sent after its due time.
    pub fn late_max_ns(&self) -> u64 {
        self.late_max_ns
    }
}

/// A [`Schedule`] bound to the wall clock.
#[derive(Debug)]
pub struct OpenLoop {
    start: Instant,
    schedule: Schedule,
}

impl OpenLoop {
    /// Start a schedule of `rate_per_s` operations per second now.
    pub fn start(rate_per_s: u64, seed: u64) -> Self {
        OpenLoop {
            start: Instant::now(),
            schedule: Schedule::new(rate_per_s, seed),
        }
    }

    /// Sleep until the next operation is due (not at all when already
    /// behind) and return its due instant, or `None` once that instant
    /// falls beyond `window`.
    pub fn next(&mut self, window: Duration) -> Option<Instant> {
        let due = Duration::from_nanos(self.schedule.next_due_ns());
        if due >= window {
            return None;
        }
        if let Some(wait) = due.checked_sub(self.start.elapsed()) {
            std::thread::sleep(wait);
        }
        let now_ns = self.start.elapsed().as_nanos() as u64;
        Some(self.start + Duration::from_nanos(self.schedule.issue(now_ns)))
    }

    /// The schedule's bookkeeping.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operation_is_due_inside_its_own_slot() {
        let dues = |seed| {
            let mut s = Schedule::new(1_000, seed);
            (0..1_000).map(|_| s.issue(0)).collect::<Vec<u64>>()
        };
        let a = dues(7);
        assert_eq!(a, dues(7));
        assert_ne!(a, dues(8));
        for (slot, due) in a.iter().enumerate() {
            let start = slot as u64 * 1_000_000;
            assert!((start..start + 1_000_000).contains(due), "{slot}: {due}");
        }
        // Spread over the slot, not stuck to its start.
        let late_half = a.iter().filter(|d| *d % 1_000_000 >= 500_000).count();
        assert!((400..600).contains(&late_half), "{late_half}");
    }

    #[test]
    fn a_stall_is_charged_to_every_operation_it_delays() {
        let mut s = Schedule::new(1_000, 1);
        s.issue(0);
        // The system stalls for 5 ms: ops 1..=5 all go out at t = 6 ms,
        // yet each is due (and timed from) an instant in its own slot.
        let dues: Vec<u64> = (0..5).map(|_| s.issue(6_000_000)).collect();
        for (i, due) in dues.iter().enumerate() {
            assert_eq!(due / 1_000_000, i as u64 + 1);
        }
        assert_eq!(s.late_max_ns(), 6_000_000 - dues[0]);
        assert_eq!(s.issued(), 6);
    }

    #[test]
    fn the_clocked_loop_ends_with_the_window() {
        let mut l = OpenLoop::start(2_000, 3);
        let window = Duration::from_millis(5);
        let mut n = 0;
        while l.next(window).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(l.schedule().issued(), 10);
    }
}
