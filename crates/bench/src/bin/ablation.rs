//! Ablation study over the design choices DESIGN.md calls out:
//!
//! - region optimizations (§IV-B) on/off,
//! - generic CFG-level passes on/off,
//! - guaranteed vs heuristic tail calls (§III-E),
//! - the reference-count optimization (§III) on/off (the `-rc-opt` knob
//!   compiles without inc/dec pair elision and dec sinking, so its
//!   instruction-count delta against `full` is the rc-opt win),
//! - decode-time superinstruction fusion on/off (the `-fusion` knob runs
//!   the full compile pipeline but executes the unfused stream, so the
//!   fused rows of the VM tables quantify exactly what fusion buys).
//!
//! Decode-time register renumbering is always on; its effect is the
//! "register slots saved by renumbering" count in each knob's VM
//! statistics table.
//!
//! Reports deterministic VM instruction counts and static code size per
//! knob, per benchmark — wall-clock-free, so the ablation is exactly
//! reproducible anywhere — followed by a per-pass statistics table per knob
//! (runs, changed, live ops before/after, wall time; aggregated across the
//! workloads) so a regression shows up attributed to the pass that caused
//! it, and by the run-side mirror: the VM's per-opcode-class statistics per
//! knob (executed counts, heap allocations, frame-pool behaviour), so each
//! knob's compile-side cost can be weighed against its run-side effect.
//!
//! ```text
//! cargo run --release -p lssa-bench --bin ablation [-- --scale test]
//! ```

use lssa_core::{PipelineOptions, PipelineReport};
use lssa_driver::pipelines::{compile_with_report, Backend, CompilerConfig};
use lssa_driver::workloads::{all, Scale};
use lssa_lambda::SimplifyOptions;
use lssa_vm::{DecodeOptions, ExecOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args
        .windows(2)
        .any(|w| w[0] == "--scale" && w[1] == "bench")
    {
        Scale::Bench
    } else {
        Scale::Test
    };
    let fused = DecodeOptions::fused();
    let knobs: Vec<(&str, PipelineOptions, DecodeOptions)> = vec![
        ("full", PipelineOptions::full(), fused),
        (
            "-region-opts",
            PipelineOptions {
                region_opts: false,
                ..PipelineOptions::full()
            },
            fused,
        ),
        (
            "-generic-opts",
            PipelineOptions {
                generic_opts: false,
                ..PipelineOptions::full()
            },
            fused,
        ),
        (
            "-guaranteed-tco",
            PipelineOptions {
                guaranteed_tco: false,
                ..PipelineOptions::full()
            },
            fused,
        ),
        (
            "-rc-opt",
            PipelineOptions {
                rc_opt: false,
                ..PipelineOptions::full()
            },
            fused,
        ),
        (
            "-fusion",
            PipelineOptions::full(),
            DecodeOptions::no_fuse().with_renumber(true),
        ),
        ("none", PipelineOptions::no_opt(), fused),
    ];
    println!("Ablation over the rgn pipeline's design knobs (instruction counts, deterministic)");
    println!();
    print!("{:<20}", "benchmark");
    for (label, _, _) in &knobs {
        print!(" {label:>16}");
    }
    println!();
    let mut knob_reports: Vec<PipelineReport> =
        knobs.iter().map(|_| PipelineReport::default()).collect();
    let mut knob_vm_stats: Vec<lssa_vm::VmStatistics> = knobs
        .iter()
        .map(|_| lssa_vm::VmStatistics::default())
        .collect();
    for w in all(scale) {
        print!("{:<20}", w.name);
        for (i, (_, opts, decode)) in knobs.iter().enumerate() {
            // The RC-linearity checker rides along on every knob so the
            // per-pass tables below report its cost (`verify-rc-us`) — and
            // every ablation run doubles as a full-matrix RC verification.
            let opts = PipelineOptions {
                verify_rc: true,
                ..*opts
            };
            let config = CompilerConfig {
                simplify: Some(SimplifyOptions::all()),
                backend: Backend::Mlir(opts),
            };
            let (program, report) = compile_with_report(&w.src, config).expect("compile");
            knob_reports[i].merge(&report.expect("mlir backend reports statistics"));
            let out = lssa_vm::run_decoded_with(
                &program.decoded(*decode),
                "main",
                lssa_bench::MAX_STEPS,
                ExecOptions::default(),
            )
            .expect("run");
            knob_vm_stats[i].merge(&out.vm_stats);
            print!(" {:>10}/{:<5}", out.stats.instructions, program.code_size());
        }
        println!();
    }
    println!();
    println!("cells are: dynamic instructions / static code size");
    println!("expected shape: -region-opts and none never beat full; -guaranteed-tco only");
    println!("affects stack depth (instruction counts are within noise of full); -fusion");
    println!("executes the same program as full but without superinstructions, so its");
    println!("dynamic count is higher at identical static code size.");
    println!();
    println!("Per-pass statistics per knob (aggregated across the workloads above)");
    for ((label, _, _), report) in knobs.iter().zip(&knob_reports) {
        println!();
        println!("=== {label} ===");
        print!("{}", report.render_table());
    }
    println!();
    println!("Per-opcode-class VM statistics per knob (run-side costs, aggregated)");
    for ((label, _, _), stats) in knobs.iter().zip(&knob_vm_stats) {
        println!();
        println!("=== {label} ===");
        print!("{}", stats.render_table());
    }
}
