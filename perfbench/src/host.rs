//! The host's speed, read from a fixed CPU workload that depends on
//! nothing in the repository. A shared virtual machine drifts between
//! speed states that last minutes: in one state the simulation sweep
//! and the inline loopback exchange both run about 35 % faster than in
//! another, so two runs of the same code disagree by more than any
//! change a benchmark should resolve. The probe is timed before each
//! round of the planes it scales, and the metrics that follow the
//! host's speed are reported at a reference speed: a rate multiplied
//! by the run's median probe time in ms, a latency divided by it, i.e.
//! as if the probe took [`REFERENCE_MS`]. Another thread waking beside
//! a repetition can only slow it, so each probe thread keeps its
//! fastest repetition; the median over a run's rounds evens out the
//! rest, and the host's states last longer than a run.
//!
//! A change to the program cannot move the probe, so it moves the
//! scaled metrics as it moves the raw ones.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// The probe time the scaled metrics are quoted at.
pub const REFERENCE_MS: f64 = 1.0;
/// Timed repetitions per probe; the probe is the fastest.
const REPS: usize = 7;
/// Heap operations per repetition.
const OPS: u64 = 20_000;

/// One repetition: an event-queue-like mix of heap pushes and pops with
/// a logarithm per event, on a fixed pseudo-random stream.
fn work() -> u64 {
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x >> 11);
        if i % 2 == 1 || heap.len() > 1000 {
            let top = heap.pop().unwrap_or(1);
            acc += ((top | 1) as f64).ln();
        }
    }
    heap.len() as u64 ^ acc.to_bits()
}

/// The fastest of [`REPS`] timed repetitions on this thread (ms).
fn fastest_ms() -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(work());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The probe's time now (ms): the mean over one thread per CPU of each
/// thread's fastest repetition. The host slows one CPU at a time, and
/// the planes it scales keep both busy.
pub fn probe_ms() -> f64 {
    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    let each: Vec<f64> = thread::scope(|scope| {
        let probes: Vec<_> = (0..threads)
            .map(|_| {
                thread::Builder::new()
                    .name("bench-probe".into())
                    .spawn_scoped(scope, fastest_ms)
                    .expect("spawn probe")
            })
            .collect();
        probes.into_iter().map(|p| p.join().expect("probe thread")).collect()
    });
    crate::stats::mean(&each)
}

/// A rate measured while the probe took `probe_ms`, at the reference speed.
pub fn scale_rate(rate: f64, probe_ms: f64) -> f64 {
    rate * probe_ms / REFERENCE_MS
}

/// A duration measured while the probe took `probe_ms`, at the reference speed.
pub fn scale_time(t: f64, probe_ms: f64) -> f64 {
    t * REFERENCE_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_fixed_work() {
        assert_eq!(work(), work(), "the same work every time");
        let ms = probe_ms();
        assert!(ms > 0.0 && ms < 1e3, "{ms} ms");
        // A host twice as slow halves a raw rate and doubles a raw
        // latency; at the reference speed both read the same.
        assert_eq!(scale_rate(500.0, 2.0), scale_rate(1000.0, 1.0));
        assert_eq!(scale_time(40.0, 2.0), scale_time(20.0, 1.0));
    }
}
