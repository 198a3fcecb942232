//! # lssa-bench: the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V):
//!
//! - **Figure 9** — speedup of the lp+rgn backend over the leanc-style
//!   baseline, per benchmark plus geomean ([`fig9_rows`]),
//! - **Figure 10** — rgn optimizations vs the λrc simplifier vs nothing
//!   ([`fig10_rows`]),
//! - **Figure 11** — the qualitative ecosystem matrix, with every row
//!   backed by an executable probe (`fig11_matrix` binary),
//! - **§V-A correctness** — the conformance run (`correctness` binary).
//!
//! Timing uses the median of several in-process runs; the deterministic
//! VM instruction counts are reported alongside as a noise-free metric.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use lssa_driver::pipelines::{compile, CompilerConfig};
use lssa_driver::workloads::{self, Scale, Workload};
use lssa_vm::{CompiledProgram, ExecOptions};
use std::time::{Duration, Instant};

/// Step budget for benchmark runs.
pub const MAX_STEPS: u64 = 20_000_000_000;

/// One benchmark measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median wall-clock time of the runs.
    pub time: Duration,
    /// VM instructions executed (identical across runs).
    pub instructions: u64,
}

/// Compiles once, runs `runs` times, returns the median time.
///
/// The program is pre-decoded once (memoized,
/// [`CompiledProgram::decoded`]) so the timed region measures pure
/// execution, not per-run decode cost. Superinstruction fusion is on —
/// the default execution mode; fused-vs-`--no-fuse` comparisons live in
/// `lssa_driver::benchjson` (`lssa bench --json`).
///
/// # Panics
///
/// Panics if compilation or execution fails — benchmarks must be green
/// before being timed.
pub fn measure(program: &CompiledProgram, runs: usize) -> Measurement {
    assert!(runs >= 1);
    let decoded = program.decoded(lssa_vm::DecodeOptions::default());
    let mut times = Vec::with_capacity(runs);
    let mut instructions = 0;
    for _ in 0..runs {
        let start = Instant::now();
        let out = lssa_vm::run_decoded_with(&decoded, "main", MAX_STEPS, ExecOptions::default())
            .expect("benchmark run");
        times.push(start.elapsed());
        instructions = out.stats.instructions;
        assert_eq!(out.stats.heap.live, 0, "benchmark leaked");
    }
    times.sort();
    Measurement {
        time: times[times.len() / 2],
        instructions,
    }
}

/// Compiles a workload under a configuration.
///
/// # Panics
///
/// Panics on pipeline failures.
pub fn build(w: &Workload, config: CompilerConfig) -> CompiledProgram {
    compile(&w.src, config).unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, config.label()))
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A row of a speedup figure.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub name: String,
    /// Wall-clock speedup (baseline time / variant time).
    pub speedup_time: f64,
    /// Instruction-count speedup (deterministic).
    pub speedup_instr: f64,
}

/// Figure 9: speedup of the lp+rgn backend over the leanc baseline.
pub fn fig9_rows(scale: Scale, runs: usize) -> Vec<SpeedupRow> {
    workloads::all(scale)
        .iter()
        .map(|w| {
            let base = measure(&build(w, CompilerConfig::leanc()), runs);
            let mlir = measure(&build(w, CompilerConfig::mlir()), runs);
            SpeedupRow {
                name: w.name.to_string(),
                speedup_time: base.time.as_secs_f64() / mlir.time.as_secs_f64(),
                speedup_instr: base.instructions as f64 / mlir.instructions as f64,
            }
        })
        .collect()
}

/// Figure 10 variants: (a) λrc-simplified baseline of the MLIR pipeline,
/// (b) unsimplified + rgn optimizations, (c) unsimplified + nothing.
pub fn fig10_configs() -> [(&'static str, CompilerConfig); 3] {
    [
        ("λrc simplifier", CompilerConfig::mlir()),
        ("rgn simplifier", CompilerConfig::rgn_only()),
        ("none", CompilerConfig::none()),
    ]
}

/// Figure 10: speedups of variants (b) and (c) over variant (a), per
/// benchmark. Returns `(name, rgn_speedup, none_speedup)` rows.
pub fn fig10_rows(scale: Scale, runs: usize) -> Vec<(String, SpeedupRow, SpeedupRow)> {
    workloads::all(scale)
        .iter()
        .map(|w| {
            let a = measure(&build(w, CompilerConfig::mlir()), runs);
            let b = measure(&build(w, CompilerConfig::rgn_only()), runs);
            let c = measure(&build(w, CompilerConfig::none()), runs);
            let rgn = SpeedupRow {
                name: w.name.to_string(),
                speedup_time: a.time.as_secs_f64() / b.time.as_secs_f64(),
                speedup_instr: a.instructions as f64 / b.instructions as f64,
            };
            let none = SpeedupRow {
                name: w.name.to_string(),
                speedup_time: a.time.as_secs_f64() / c.time.as_secs_f64(),
                speedup_instr: a.instructions as f64 / c.instructions as f64,
            };
            (w.name.to_string(), rgn, none)
        })
        .collect()
}

/// Renders an ASCII bar for a speedup value (figure-style output).
pub fn bar(speedup: f64, width: usize) -> String {
    let filled = ((speedup / 1.5) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '█' } else { ' ' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(1.5, 10).matches('█').count(), 10);
        assert_eq!(bar(0.0, 10).matches('█').count(), 0);
        assert_eq!(bar(0.75, 10).matches('█').count(), 5);
    }

    #[test]
    fn measure_and_build_work_on_test_scale() {
        let w = workloads::by_name("filter", Scale::Test).unwrap();
        let p = build(&w, CompilerConfig::mlir());
        let m = measure(&p, 3);
        assert!(m.instructions > 0);
    }
}
