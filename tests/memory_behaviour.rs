//! Memory behaviour across pipelines: reference counting must balance, and
//! the exclusivity optimization (LEAN's in-place array updates) must fire
//! in compiled code.

use lambda_ssa::driver::pipelines::{compile_and_run, CompilerConfig};
use lambda_ssa::driver::workloads::{all, by_name, Scale};

const MAX_STEPS: u64 = 500_000_000;

#[test]
fn every_workload_frees_everything_on_every_pipeline() {
    for w in all(Scale::Test) {
        for config in lambda_ssa::driver::diff::configs() {
            let out = compile_and_run(&w.src, config, MAX_STEPS).unwrap();
            assert_eq!(
                out.stats.heap.live,
                0,
                "{} [{}] leaked",
                w.name,
                config.label()
            );
            assert_eq!(out.stats.heap.allocs, out.stats.heap.frees);
        }
    }
}

#[test]
fn qsort_arrays_update_in_place() {
    // A linear in-place quicksort allocates O(n) array cells once, not
    // O(n log n) copies: peak live objects stays near the array size.
    let w = by_name("qsort", Scale::Test).unwrap();
    let out = compile_and_run(&w.src, CompilerConfig::mlir(), MAX_STEPS).unwrap();
    // n = 16 at test scale; a copying sort would peak far above this.
    assert!(
        out.stats.heap.peak_live < 64,
        "expected in-place behaviour, peak live = {}",
        out.stats.heap.peak_live
    );
}

#[test]
fn peak_memory_comparable_across_backends() {
    // The paper's claim is performance *and* memory parity; peak live
    // objects should be within 2x between backends on every workload.
    for w in all(Scale::Test) {
        let a = compile_and_run(&w.src, CompilerConfig::leanc(), MAX_STEPS).unwrap();
        let b = compile_and_run(&w.src, CompilerConfig::mlir(), MAX_STEPS).unwrap();
        let (lo, hi) = if a.stats.heap.peak_live < b.stats.heap.peak_live {
            (a.stats.heap.peak_live, b.stats.heap.peak_live)
        } else {
            (b.stats.heap.peak_live, a.stats.heap.peak_live)
        };
        assert!(
            hi <= lo * 2 + 16,
            "{}: peak live diverges, leanc={} mlir={}",
            w.name,
            a.stats.heap.peak_live,
            b.stats.heap.peak_live
        );
    }
}

#[test]
fn allocation_counts_match_reference_interpreter() {
    // The compiled pipelines must do the same number of allocations as the
    // λrc reference interpreter (the RC insertion fixes the program's
    // allocation behaviour; backends must not add hidden allocations), and
    // reach the same peak of live objects.
    for w in all(Scale::Test) {
        for config in [
            CompilerConfig::none(),
            CompilerConfig::mlir(),
            CompilerConfig::leanc(),
        ] {
            let label = format!("{} [{}]", w.name, config.label());
            let rc = lambda_ssa::driver::pipelines::frontend(&w.src, config).unwrap();
            let oracle = lambda_ssa::lambda::run_program(&rc, "main", true, MAX_STEPS).unwrap();
            let compiled = compile_and_run(&w.src, config, MAX_STEPS).unwrap();
            let (o, c) = (oracle.stats, compiled.stats.heap);
            assert_eq!(o.allocs, c.allocs, "{label}: allocs");
            assert_eq!(o.ctor_allocs, c.ctor_allocs, "{label}: ctor allocs");
            assert_eq!(o.peak_live, c.peak_live, "{label}: peak live");
        }
    }
}
