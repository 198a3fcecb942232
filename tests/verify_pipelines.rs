//! Workloads × pipeline configurations under full per-pass verification.
//!
//! Exercises the pass engine's `verify_each` path (every pass followed by
//! the IR verifier) together with the new `verify_rc` mode (every pass from
//! `rc-opt` onward followed by the RC-linearity checker) across all 8
//! built-in workloads and every pipeline configuration. A definite
//! `Unbalanced` verdict on compiler output panics inside the pipeline, so
//! compiling at all is the assertion; on top of that the final module must
//! contain no unbalanced function.
//!
//! The default run covers the full matrix at `Scale::Test`; with
//! `--features slow-tests` it also sweeps the generated conformance corpus.

use lssa_core::pipeline::PipelineOptions;
use lssa_driver::pipelines::{frontend, CompilerConfig};
use lssa_driver::workloads;
use lssa_ir::analysis::rc_check;
use lssa_ir::body::Body;
use lssa_ir::opcode::Opcode;
use lssa_ir::types::Type;

fn configs() -> Vec<(&'static str, PipelineOptions)> {
    let mut full = PipelineOptions::full();
    let mut no_opt = PipelineOptions::no_opt();
    let mut no_rgn = PipelineOptions::without_region_opts();
    let mut no_rc = PipelineOptions::full();
    no_rc.rc_opt = false;
    for opts in [&mut full, &mut no_opt, &mut no_rgn, &mut no_rc] {
        opts.verify = true;
        opts.verify_rc = true;
    }
    vec![
        ("full", full),
        ("no_opt", no_opt),
        ("without_region_opts", no_rgn),
        ("full_norc", no_rc),
    ]
}

#[test]
fn workloads_compile_verified_and_rc_balanced() {
    for w in workloads::all(workloads::Scale::Test) {
        let rc = frontend(&w.src, CompilerConfig::mlir()).expect("frontend");
        for (label, opts) in configs() {
            let module = lssa_core::pipeline::compile(&rc, opts);
            let verdicts = rc_check::check_module(&module);
            let mut balanced = 0usize;
            let mut unprovable = 0usize;
            for (sym, v) in &verdicts {
                match v {
                    lssa_ir::analysis::RcVerdict::Balanced => balanced += 1,
                    lssa_ir::analysis::RcVerdict::Unprovable { reason } => {
                        unprovable += 1;
                        println!(
                            "  [unprovable] {}/{}: @{}: {}",
                            w.name,
                            label,
                            module.name_of(*sym),
                            reason
                        );
                    }
                    lssa_ir::analysis::RcVerdict::Unbalanced { detail, path } => {
                        panic!(
                            "{}/{}: @{} unbalanced: {} (path {:?})",
                            w.name,
                            label,
                            module.name_of(*sym),
                            detail,
                            path
                        );
                    }
                }
            }
            println!(
                "{}/{}: {} balanced, {} unprovable of {}",
                w.name,
                label,
                balanced,
                unprovable,
                verdicts.len()
            );
        }
    }
}

/// Prepends a spurious `lp_dec` of the first `!lp.t`-typed entry parameter —
/// the canonical "broken rewrite": one extra release on every path. Returns
/// `false` when the function has no boxed parameter to break.
fn inject_spurious_dec(body: &mut Body) -> bool {
    let entry = body.entry_block();
    let Some(&victim) = body.blocks[entry.index()]
        .args
        .iter()
        .find(|&&a| body.value_type(a) == Type::Obj)
    else {
        return false;
    };
    let op = body.create_op(Opcode::LpDec, vec![victim], &[], vec![]);
    body.insert_op(entry, 0, op);
    true
}

#[test]
fn injected_unbalanced_dec_is_caught_with_a_path() {
    // Every function the checker proves balanced must flip to a definite
    // `Unbalanced` verdict — with a concrete block path — once a rewrite
    // sneaks in one extra `lp_dec` of an owned parameter.
    let w = &workloads::all(workloads::Scale::Test)[0];
    let rc = frontend(&w.src, CompilerConfig::mlir()).expect("frontend");
    let module = lssa_core::pipeline::compile(&rc, PipelineOptions::full());
    let mut broken_at_least_once = false;
    for i in 0..module.funcs.len() {
        let sym = module.funcs[i].name;
        if module.funcs[i].body.is_none() {
            continue;
        }
        if !matches!(
            rc_check::check_function(&module, sym),
            lssa_ir::analysis::RcVerdict::Balanced
        ) {
            continue;
        }
        let mut sabotaged = module.clone();
        let body = sabotaged.funcs[i].body.as_mut().expect("checked above");
        if !inject_spurious_dec(body) {
            continue;
        }
        broken_at_least_once = true;
        match rc_check::check_function(&sabotaged, sym) {
            lssa_ir::analysis::RcVerdict::Unbalanced { detail, path } => {
                assert!(
                    !path.is_empty(),
                    "@{}: unbalanced verdict must carry a path",
                    module.name_of(sym)
                );
                println!(
                    "@{}: caught — {} (path {:?})",
                    module.name_of(sym),
                    detail,
                    path
                );
            }
            other => panic!(
                "@{}: spurious dec not caught, verdict {:?}",
                module.name_of(sym),
                other
            ),
        }
    }
    assert!(
        broken_at_least_once,
        "no function was eligible for sabotage"
    );
}

/// A "pass" that deliberately unbalances the first breakable function, to
/// prove the in-pipeline `verify_rc` mode fails loudly with the pass name.
struct SabotagePass;

impl lssa_ir::pass::Pass for SabotagePass {
    fn name(&self) -> &'static str {
        "sabotage"
    }

    fn run_on(&self, module: &mut lssa_ir::module::Module) -> bool {
        for f in &mut module.funcs {
            if let Some(body) = &mut f.body {
                if inject_spurious_dec(body) {
                    return true;
                }
            }
        }
        false
    }
}

#[test]
#[should_panic(expected = "rc verification failed after pass `sabotage`")]
fn verify_rc_mode_panics_on_a_broken_pass() {
    let w = &workloads::all(workloads::Scale::Test)[0];
    let rc = frontend(&w.src, CompilerConfig::mlir()).expect("frontend");
    let mut module = lssa_core::pipeline::compile(&rc, PipelineOptions::full());
    lssa_ir::pass::PassManager::named("post")
        .verify_rc(true)
        .add(SabotagePass)
        .run(&mut module);
}

/// Slow sweep: the generated conformance corpus through every pipeline
/// configuration with per-pass IR verification *and* the RC checker on.
/// Compiling without a panic is the assertion.
#[cfg(feature = "slow-tests")]
#[test]
fn conformance_corpus_compiles_verified_and_rc_checked() {
    use lssa_driver::conformance::generated;
    for case in generated(24, 0xcc_2026) {
        let rc = frontend(&case.src, CompilerConfig::mlir())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        for (label, opts) in configs() {
            let module = lssa_core::pipeline::compile(&rc, opts);
            for (sym, v) in rc_check::check_module(&module) {
                assert!(
                    !matches!(v, lssa_ir::analysis::RcVerdict::Unbalanced { .. }),
                    "{}/{}: @{} unbalanced: {:?}",
                    case.name,
                    label,
                    module.name_of(sym),
                    v
                );
            }
        }
    }
}

/// The compiler's output is a fixpoint of the `cleanup` pipeline: running
/// it again over the whole module changes nothing. `cleanup` revisits only
/// the functions its previous sweep changed, so this also checks that the
/// functions it stopped visiting really were at the fixpoint.
#[test]
fn compile_output_is_a_cleanup_fixpoint_on_workloads_and_corpus() {
    use lssa_core::pipeline::{compile_with_report, reoptimize};
    let workloads = workloads::all(workloads::Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.src));
    let corpus = lssa_driver::conformance::full_corpus(648, 0)
        .into_iter()
        .step_by(10)
        .take(64)
        .map(|c| (c.name, c.src));
    let programs: Vec<(String, String)> = workloads.chain(corpus).collect();
    assert_eq!(programs.len(), 8 + 64);
    let opts = PipelineOptions {
        verify: true,
        ..PipelineOptions::full()
    };
    for (name, src) in programs {
        let rc = frontend(&src, CompilerConfig::mlir()).expect("frontend");
        let (mut module, report) = compile_with_report(&rc, opts);
        let cleanup = report.phases.last().expect("phases");
        assert_eq!(cleanup.pipeline, "cleanup");
        assert!(cleanup.converged, "{name}: cleanup must reach its fixpoint");
        let again = reoptimize(&mut module, opts);
        assert!(!again.changed, "{name}:\n{}", again.render_table());
    }
}
