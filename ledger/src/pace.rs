//! Load shapes: the open loop's fixed schedule (latency is charged from the
//! instant an input was *due*, so a stall charges the inputs queued behind
//! it) and the closed loop's bounded window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Every timed segment is cut into this many equal windows; a metric is
/// the median over the windows of all its segments.
pub const WINDOWS: usize = 5;

/// A fixed-rate schedule: input `k` of the phase is due at `k × period`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: u64,
    count: u64,
}

impl Schedule {
    /// `count` inputs at `rate` per second.
    pub fn new(rate: u64, count: u64) -> Schedule {
        Schedule {
            period_ns: 1_000_000_000 / rate.max(1),
            count,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nanoseconds after the phase start at which input `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.period_ns
    }

    /// What input `k` is charged when its result arrives `at_ns` after the
    /// phase start: the time since it was due, however late it was issued.
    pub fn charge_ns(&self, k: u64, at_ns: u64) -> u64 {
        at_ns.saturating_sub(self.due_ns(k))
    }

    /// The window input `k` belongs to, by its due time.
    pub fn window_of(&self, k: u64) -> usize {
        ((k * WINDOWS as u64) / self.count.max(1)).min(WINDOWS as u64 - 1) as usize
    }
}

/// Blocks until `deadline`: sleeps while it is far, yields while it is near
/// (a sleep overshoots by tens of microseconds; a pure spin would take a
/// core from the program on a two-core box).
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The closed loop's ledger of inputs issued and completed, shared by the
/// issuing and receiving threads. An input completes when its ingest call
/// has returned and every notification it caused has been received.
#[derive(Debug)]
pub struct Outstanding {
    issued: AtomicU64,
    completed: AtomicU64,
    /// Set while the issuer is parked on a full window.
    parked: AtomicBool,
    issuer: Thread,
}

impl Outstanding {
    /// Must be created on the issuing thread (it is the one parked).
    pub fn new() -> Outstanding {
        Outstanding {
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            issuer: std::thread::current(),
        }
    }

    pub fn issued(&self) -> u64 {
        self.issued.load(Ordering::SeqCst)
    }

    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    pub fn note_issued(&self) {
        self.issued.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one completion and wakes the issuer if it waits on the window.
    pub fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            self.issuer.unpark();
        }
    }

    /// Issuer side: blocks while `window` inputs are outstanding, giving up
    /// at `deadline` (returns false).
    pub fn wait_for_room(&self, window: u64, deadline: Instant) -> bool {
        loop {
            if self.issued() - self.completed() < window {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.parked.store(true, Ordering::SeqCst);
            // re-check after publishing the flag: a completion in between
            // would otherwise be missed and the park would time out
            if self.issued() - self.completed() >= window {
                std::thread::park_timeout(Duration::from_micros(500));
            }
            self.parked.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_charges_the_inputs_queued_behind_it() {
        // 1 000/s: inputs due every millisecond
        let s = Schedule::new(1_000, 100);
        assert_eq!(s.due_ns(3), 3_000_000);
        // the generator stalls for 10 ms after input 2; inputs 3..=12 are
        // all issued at t = 13 ms and answered 0.1 ms later
        let answered = 13_100_000;
        assert_eq!(s.charge_ns(3, answered), 10_100_000);
        assert_eq!(s.charge_ns(12, answered), 1_100_000);
        // an input answered on time is charged its service time only
        assert_eq!(s.charge_ns(20, 20_100_000), 100_000);
        // never negative
        assert_eq!(s.charge_ns(50, 1), 0);
    }

    #[test]
    fn windows_follow_due_time() {
        let s = Schedule::new(1_000, 100 * WINDOWS as u64);
        assert_eq!(s.window_of(0), 0);
        assert_eq!(s.window_of(99), 0);
        assert_eq!(s.window_of(100), 1);
        assert_eq!(s.window_of(100 * WINDOWS as u64 - 1), WINDOWS - 1);
        assert_eq!(s.window_of(1_000_000), WINDOWS - 1);
    }

    #[test]
    fn window_blocks_until_a_completion_makes_room() {
        let out = std::sync::Arc::new(Outstanding::new());
        out.note_issued();
        out.note_issued();
        let far = Instant::now() + Duration::from_secs(5);
        assert!(out.wait_for_room(3, far));
        // full at window 2: a completion from another thread frees it
        let o2 = out.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            rx.recv().unwrap();
            o2.note_completed();
        });
        tx.send(()).unwrap();
        assert!(out.wait_for_room(2, far));
        t.join().unwrap();
        assert_eq!(out.completed(), 1);
        // and a passed deadline gives up instead of blocking
        out.note_issued();
        assert!(!out.wait_for_room(2, Instant::now()));
    }
}
