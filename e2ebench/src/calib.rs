//! The fixed calibration workload, timed throughout a run.
//!
//! On a shared machine other tenants slow memory-heavy work by up to ~1.7x
//! for seconds at a time, while a register-only loop hardly notices. The
//! calibration workload is memory-heavy like the compiler and the VM —
//! allocation, a B-tree, a sort, string formatting — but uses only the
//! standard library, so no change to lambda-ssa changes its cost. Timing it
//! every [`INTERVAL`] tells how fast the machine is running at each moment;
//! job times are scaled to the speed at which it takes [`NOMINAL_MS`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The calibration workload's time at nominal speed; timings are reported
/// as if the machine ran at that speed.
pub const NOMINAL_MS: f64 = 5.0;
/// Time between calibration readings; one reading costs ~5 ms.
const INTERVAL: Duration = Duration::from_millis(200);

fn workload() -> u64 {
    let mut x = 0x1234_5678u64;
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 44, vec![i; 3]);
    }
    let mut sum = map.iter().fold(0u64, |s, (k, v)| s.wrapping_add(k ^ v[0]));
    let mut v: Vec<u64> = (0..40_000u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7)
        .collect();
    v.sort_unstable();
    let names: Vec<String> = (0..5_000u64).map(|i| format!("x{i}")).collect();
    sum = sum.wrapping_add(v[1_000]);
    sum.wrapping_add(names.iter().map(|s| s.len() as u64).sum::<u64>())
}

/// Calibration readings over a run: `(seconds since start, ms)`.
pub struct Calibration {
    start: Instant,
    last: Option<Instant>,
    readings: Vec<(f64, f64)>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            start: Instant::now(),
            last: None,
            readings: Vec::new(),
        }
    }

    /// Seconds since the run started, the timestamp jobs record.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Takes a reading now.
    pub fn read(&mut self) {
        let t0 = Instant::now();
        black_box(workload());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let at = (t0 - self.start).as_secs_f64() + ms / 2e3;
        self.readings.push((at, ms));
        self.last = Some(Instant::now());
    }

    /// Takes a reading when [`INTERVAL`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= INTERVAL) {
            self.read();
        }
    }

    /// The factor that scales a wall time measured at `at` to nominal
    /// speed: [`NOMINAL_MS`] over the mean of the readings just before and
    /// just after `at`.
    pub fn factor(&self, at: f64) -> f64 {
        let after = self.readings.partition_point(|&(t, _)| t < at);
        let near: Vec<f64> = self.readings[after.saturating_sub(1)..]
            .iter()
            .take(2)
            .map(|&(_, ms)| ms)
            .collect();
        if near.is_empty() {
            return 1.0;
        }
        NOMINAL_MS * near.len() as f64 / near.iter().sum::<f64>()
    }

    /// Median reading, the machine context a result records.
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.readings.iter().map(|&(_, ms)| ms).collect();
        crate::quantile(&ms, 0.5)
    }
}
