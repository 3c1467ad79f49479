//! Host speed gauge: a fixed kernel of this benchmark's own, timed between
//! operations, that converts measured durations to durations at a fixed
//! reference speed.
//!
//! The reference host is a 2-CPU virtual machine shared with other tenants,
//! and its speed is not constant: on an otherwise idle guest the
//! pre-processing and ILP of one Table 1 cell took from 11 to 20 ms within
//! minutes, with CPU time slowing as much as wall time (nothing was
//! descheduled; each instruction ran slower). No statistic over one run
//! removes that when the whole run falls in a slow stretch. The kernel slows
//! with the host, so a duration divided by the kernel's time around it moves
//! much less: over 12 minutes of 10-second blocks, a c3540 cell, a c5315
//! heuristic solve and a 200k-gate sweep varied by 35%, 42% and 35%
//! (interquartile range over median) as measured, and by 9%, 15% and 10%
//! divided.
//!
//! The kernel sorts pseudo-random keys: unpredictable branches over a working
//! set that stays in a core's cache. Of the kernels tried beside the solvers
//! (dependent loads over a 1 MiB table, warm and evicted; over 32 and
//! 64 MiB; a 16 MiB write-and-read stream; `f64` multiply-add sweeps;
//! `BTreeMap` inserts and lookups; sums of these), it tracked them best or
//! close to best in every stretch recorded, while the load chains tracked
//! them well in some stretches and badly in others. Its code and inputs never
//! change, so a change to the program under test moves the converted times
//! and a change of host speed moves them less.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;

/// The kernel's time on the reference host at its usual speed. A duration
/// measured while the kernel takes this long is reported unchanged.
pub const REFERENCE_MS: f64 = 1.2;
/// Readings within this distance of an interval describe the host during it.
const WINDOW: Duration = Duration::from_secs(1);
/// Fewest readings a conversion uses (the nearest ones when the window holds
/// fewer).
const MIN_READINGS: usize = 3;

const SORT_KEYS: usize = 16_384;
const SORTS: u64 = 4;

/// One timed run of the kernel.
#[derive(Debug, Clone, Copy)]
struct Reading {
    /// Midpoint of the run.
    at: Instant,
    /// Its duration, ms.
    ms: f64,
}

/// The kernel's buffer and every reading taken.
pub struct Gauge {
    epoch: Instant,
    keys: Vec<u64>,
    readings: Vec<Reading>,
}

/// A gauge ticking on a thread of its own (see [`Gauge::ticker`]). Dropping
/// it stops the thread and waits for it.
pub struct Ticker {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<Vec<Reading>>>,
}

impl Ticker {
    fn finish(&mut self) -> Option<Vec<Reading>> {
        self.stop.store(true, Ordering::Relaxed);
        self.join.take().and_then(|j| j.join().ok())
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge with no readings.
    pub fn new() -> Self {
        Gauge {
            epoch: Instant::now(),
            keys: Vec::with_capacity(SORT_KEYS),
            readings: Vec::new(),
        }
    }

    /// Runs the kernel once and records how long it took.
    pub fn tick(&mut self) {
        let start = Instant::now();
        std::hint::black_box(self.kernel(std::hint::black_box(0x9E37_79B9_7F4A_7C15)));
        let end = Instant::now();
        self.readings.push(Reading {
            at: start + end.duration_since(start) / 2,
            ms: end.duration_since(start).as_secs_f64() * 1e3,
        });
    }

    /// Starts ticking a gauge of its own on another thread every `every`,
    /// so that an operation of several seconds has readings taken while it
    /// runs, not only before and after it. [`Gauge::absorb`] stops it and
    /// adds its readings.
    pub fn ticker(every: Duration) -> Ticker {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let mut g = Gauge::new();
            while !stopped.load(Ordering::Relaxed) {
                g.tick();
                std::thread::sleep(every);
            }
            g.readings
        });
        Ticker {
            stop,
            join: Some(join),
        }
    }

    /// Stops `ticker`, waits for its thread, and adds its readings.
    pub fn absorb(&mut self, mut ticker: Ticker) {
        if let Some(readings) = ticker.finish() {
            self.readings.extend(readings);
            self.readings.sort_by_key(|r| r.at);
        }
    }

    /// Ticks when the last reading is at least `every` old (or there is
    /// none).
    pub fn tick_every(&mut self, every: Duration) {
        if self
            .readings
            .last()
            .map_or(true, |r| r.at.elapsed() >= every)
        {
            self.tick();
        }
    }

    /// Sorts of pseudo-random keys, the same work on every call: `seed` only
    /// hides the inputs from the optimizer.
    fn kernel(&mut self, seed: u64) -> u64 {
        let mut x = 0;
        for round in 0..SORTS {
            let mut k = seed ^ round;
            self.keys.clear();
            self.keys.extend((0..SORT_KEYS).map(|_| {
                k = k
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                k >> 11
            }));
            self.keys.sort_unstable();
            x ^= self.keys[SORT_KEYS / 2];
        }
        x
    }

    /// How much faster the reference speed is than the host was over
    /// `from..to`: [`REFERENCE_MS`] over the median reading within
    /// [`WINDOW`] of the interval, or of the [`MIN_READINGS`] nearest
    /// readings when the window holds fewer. 1 without readings.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let distance = |r: &Reading| {
            if r.at < from {
                from.duration_since(r.at)
            } else {
                r.at.saturating_duration_since(to)
            }
        };
        let mut near: Vec<(Duration, f64)> =
            self.readings.iter().map(|r| (distance(r), r.ms)).collect();
        if near.is_empty() {
            return 1.0;
        }
        near.sort_by_key(|&(d, _)| d);
        let inside = near.iter().take_while(|(d, _)| *d <= WINDOW).count();
        let used: Vec<f64> = near
            .iter()
            .take(inside.max(MIN_READINGS))
            .map(|&(_, ms)| ms)
            .collect();
        REFERENCE_MS / crate::stats::median(&used)
    }

    /// `from..to` in milliseconds at the reference speed.
    pub fn ms(&self, from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e3 * self.factor(from, to)
    }

    /// For the result file: every reading, and each of `intervals` as
    /// measured, as `[s, ms]` with `s` counted from the gauge's creation, so
    /// the conversion can be checked or redone.
    pub fn to_json(&self, intervals: &[(Instant, Instant)]) -> Json {
        let secs = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let pair = |s: f64, ms: f64| Json::nums(&[s, ms]);
        Json::Obj(vec![
            (
                "readings".into(),
                Json::Arr(
                    self.readings
                        .iter()
                        .map(|r| pair(secs(r.at), r.ms))
                        .collect(),
                ),
            ),
            (
                "measured".into(),
                Json::Arr(
                    intervals
                        .iter()
                        .map(|&(a, b)| {
                            pair(secs(a), b.saturating_duration_since(a).as_secs_f64() * 1e3)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(at: Instant, ms: f64) -> Reading {
        Reading { at, ms }
    }

    #[test]
    fn durations_scale_by_the_nearby_readings() {
        let t0 = Instant::now();
        let s = |secs: f64| t0 + Duration::from_secs_f64(secs);
        let mut g = Gauge::new();
        assert_eq!(g.factor(t0, s(1.0)), 1.0);
        // The host ran at half speed around 10 s and at full speed around 20 s.
        g.readings = vec![
            reading(s(9.5), 2.0 * REFERENCE_MS),
            reading(s(10.2), 2.0 * REFERENCE_MS),
            reading(s(10.9), 2.0 * REFERENCE_MS),
            reading(s(20.0), REFERENCE_MS),
            reading(s(20.5), REFERENCE_MS),
            reading(s(21.0), REFERENCE_MS),
        ];
        assert!((g.ms(s(10.0), s(10.1)) - 50.0).abs() < 1e-6);
        assert!((g.ms(s(20.1), s(20.2)) - 100.0).abs() < 1e-6);
        // Far from every reading, the three nearest decide.
        assert!((g.factor(s(30.0), s(30.5)) - 1.0).abs() < 1e-12);
        assert!((g.factor(s(0.0), s(0.5)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_stray_reading_does_not_move_the_median() {
        let t0 = Instant::now();
        let mut g = Gauge::new();
        g.readings = (0..5)
            .map(|i| reading(t0 + Duration::from_millis(100 * i), REFERENCE_MS))
            .collect();
        g.readings[2].ms = 10.0 * REFERENCE_MS;
        assert_eq!(g.factor(t0, t0 + Duration::from_millis(400)), 1.0);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let mut g = Gauge::new();
        let first = g.kernel(7);
        assert_eq!(g.kernel(7), first);
        assert_ne!(g.kernel(8), first);
        g.tick();
        g.tick_every(Duration::from_secs(3600));
        assert_eq!(g.readings.len(), 1);
        assert!(g.readings[0].ms > 0.0);
    }

    #[test]
    fn a_ticker_adds_readings_taken_meanwhile_in_time_order() {
        let mut g = Gauge::new();
        g.tick();
        let ticker = Gauge::ticker(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(30));
        g.tick();
        g.absorb(ticker);
        assert!(g.readings.len() > 3, "{}", g.readings.len());
        assert!(g.readings.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
