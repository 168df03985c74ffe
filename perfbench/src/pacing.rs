//! The open-loop generator's clock discipline. A request is never sent
//! before its due instant: the generator sleeps to within a margin of
//! the due instant and spins out the rest, so a sleep that wakes early
//! or late by the kernel's timer slack cannot move a send ahead of
//! schedule. Latency is measured from the due instant, so a late send
//! counts against the system, and the lateness itself is reported.

use std::thread;
use std::time::{Duration, Instant};

/// Lateness p99 (send − due) above which a load step is invalid: the
/// generator, not the server, set its numbers.
pub const LATE_P99_LIMIT: Duration = Duration::from_micros(500);

/// How far ahead of the due instant the generator stops sleeping and
/// spins: the calibrated sleep overshoot plus a fixed guard.
pub fn spin_margin(overshoot: Duration) -> Duration {
    overshoot + Duration::from_millis(2)
}

/// Wait until `due` and return the instant the caller may send at,
/// which is never before `due`.
pub fn pace_until(due: Instant, margin: Duration) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > margin {
            thread::sleep(left - margin);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Nanoseconds from `due` to `at`; an instant before `due` reads 0 only
/// through this guard, which [`pace_until`] makes unreachable for sends.
pub fn since_due_ns(due: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(due).as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_sends_before_the_due_instant() {
        // Zero margin is the worst case: every wait is a bare sleep,
        // and the loop must still refuse to return early.
        for margin in [Duration::ZERO, spin_margin(Duration::from_micros(80))] {
            for k in 0..200u64 {
                let due = Instant::now() + Duration::from_micros(37 * (k % 11));
                let sent = pace_until(due, margin);
                assert!(sent >= due, "sent {:?} early", due - sent);
            }
        }
    }

    #[test]
    fn past_due_sends_immediately_and_latency_counts_from_due() {
        let due = Instant::now();
        thread::sleep(Duration::from_millis(2));
        let sent = pace_until(due, spin_margin(Duration::ZERO));
        let late = since_due_ns(due, sent);
        assert!(late >= 2_000_000, "lateness is measured from due: {late}");
        // A response 1 ms after a late send is ≥ 3 ms after due.
        let done = sent + Duration::from_millis(1);
        assert!(since_due_ns(due, done) >= 3_000_000);
        assert!(since_due_ns(due, done) > since_due_ns(sent, done), "due, not send");
    }
}
