//! # lssa-driver: end-to-end pipelines and the evaluation harness
//!
//! Everything the paper's evaluation needs, wired together:
//!
//! - [`baseline`] — the `leanc` model: direct λrc → CFG lowering with
//!   heuristic tail calls (the Figure 9 comparison target),
//! - [`pipelines`] — compiler configurations (λ simplifier on/off × backend
//!   × region optimizations) matching Figures 9 and 10, and the compile
//!   entry points,
//! - [`diff`] — differential testing against the reference interpreter,
//! - [`conformance`] — the ≥648-program corpus (§V-A's test-suite analogue),
//! - [`workloads`] — the eight benchmarks of §V-B,
//! - [`benchjson`] — machine-readable benchmark records
//!   (`lssa bench --json` → `BENCH_<scale>.json`, fused vs `--no-fuse`),
//! - [`jobs`] — resource-governed, fault-tolerant job execution with
//!   deterministic fault injection (the `gauntlet` harness),
//! - [`par`] — the parallel batch executor every sharded run shares (the
//!   `correctness` binary, [`pipelines::compile_batch`], and the
//!   integration-test harnesses).
//!
//! Every caller takes the same three steps — compile, decode, run — and
//! [`compile_and_run`] is the one-call convenience under the default
//! decode and execution options:
//!
//! ```
//! use lssa_driver::pipelines::{compile, compile_and_run, CompilerConfig};
//! use lssa_vm::{run_decoded_with, DecodeOptions, ExecOptions, JobLimits};
//!
//! let out = compile_and_run("def main() := 6 * 7", CompilerConfig::mlir(), 100_000).unwrap();
//! assert_eq!(out.rendered, "42");
//!
//! // The same three steps with explicit options: no fusion, a step budget.
//! let program = compile("def main() := 6 * 7", CompilerConfig::mlir()).unwrap();
//! let decoded = program.decoded(DecodeOptions::default().with_fuse(false));
//! let exec = ExecOptions::default().with_limits(JobLimits::default().with_steps(1_000));
//! let out = run_decoded_with(&decoded, "main", 100_000, exec).unwrap();
//! assert_eq!(out.rendered, "42");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod benchjson;
pub mod conformance;
pub mod diff;
pub mod jobs;
pub mod lint;
pub mod par;
pub mod pipelines;
pub mod workloads;

pub use pipelines::{compile, compile_and_run, compile_batch, Backend, CompilerConfig};
