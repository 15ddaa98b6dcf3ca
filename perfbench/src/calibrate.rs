//! Host-speed calibration for the end-to-end time metrics.
//!
//! The hosts this benchmark runs on are shared, and their speed drifts by
//! tens of percent over minutes (user time tracks wall time, so the drift
//! is contention for the core and its caches, not descheduling). Measured
//! back to back, ten 30-second runs of one workload then disagree by up to
//! a third. The calibrator interleaves a fixed round of work with the
//! measured programs and scales each measured interval by how long its
//! rounds took against the reference round time: a time metric reads in
//! seconds of a host on which one round takes [`REF_ROUND_S`]. The round
//! uses no code of this repository, so a change to the engine moves the
//! scaled time exactly as it moves the raw one.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal duration of one calibration round: the reference host. One
/// round takes about this long on a lightly loaded 2 GHz Xeon VM.
const REF_ROUND_S: f64 = 1.5e-3;

/// One round is owed per `INTERVAL` of host time since the last round,
/// which keeps the overhead near 5%; at most `MAX_ROUNDS` run at once, so
/// that a long program is still followed by a precise sample.
const INTERVAL: Duration = Duration::from_millis(40);
const MAX_ROUNDS: u32 = 8;

/// Keys and updates of one round: a hashed-map workload of about the
/// footprint and access mix of the engine's own hash-map-heavy hot loop.
const KEYS: u64 = 1 << 14;
const UPDATES: u64 = 60_000;

/// Interleaves calibration rounds with measured work.
pub struct Calibrator {
    map: HashMap<u64, u64>,
    /// When the last round ended.
    last: Instant,
    /// Durations of the rounds since the last [`Calibrator::factor`].
    rounds: Vec<f64>,
}

impl Calibrator {
    /// A calibrator whose first, discarded round has faulted in the map's
    /// memory and warmed the caches.
    pub fn new() -> Calibrator {
        let mut cal = Calibrator {
            map: HashMap::with_capacity(KEYS as usize),
            last: Instant::now(),
            rounds: Vec::new(),
        };
        cal.round();
        cal.rounds.clear();
        cal
    }

    /// Runs the rounds owed since the last one.
    pub fn tick(&mut self) {
        let owed = self.last.elapsed().as_secs_f64() / INTERVAL.as_secs_f64();
        for _ in 0..(owed as u32).min(MAX_ROUNDS) {
            self.round();
        }
    }

    fn round(&mut self) {
        self.map.clear();
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let e = self.map.entry(x % KEYS).or_insert(0);
            *e = e.wrapping_add(i);
            acc = acc.wrapping_add(*e ^ (x >> 3));
        }
        black_box(acc);
        self.rounds.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// The factor that turns host time measured since the previous call
    /// into reference-host time: the reference round time over the median
    /// of the rounds run since then (at least one).
    pub fn factor(&mut self) -> f64 {
        self.tick();
        if self.rounds.is_empty() {
            self.round();
        }
        self.rounds.sort_by(f64::total_cmp);
        let median = self.rounds[self.rounds.len() / 2];
        self.rounds.clear();
        REF_ROUND_S / median
    }
}
