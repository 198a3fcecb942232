//! Inputs, reference outputs, and one job: source text → checksum, timed
//! from outside by calls into the program's public functions.

use crate::alloc;
use crate::gen::{self, Rng};
use crate::trace::Tracer;
use lssa_driver::jobs::{self, JobSpec};
use lssa_driver::pipelines::{self, Backend, CompilerConfig};
use lssa_driver::{conformance, workloads};
use lssa_lambda::ast::Program;
use lssa_vm::{DecodeOptions, DecodedProgram, ExecOptions, JobLimits, OpClass, Vm};
use std::time::{Duration, Instant};

/// Step cap of `lssa run`, used for the `.lssa` job path.
pub const MAX_STEPS: u64 = 2_000_000_000;
/// Programs in one `batch_small` round: the size of the LEAN test suite
/// the paper runs (§V-A).
const CORPUS_SIZE: usize = 648;
/// Generated programs in one `compile_wide` round.
const WIDE_PROGRAMS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    CompileWide,
    BatchSmall,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_suite" => Some(Workload::PaperSuite),
            "compile_wide" => Some(Workload::CompileWide),
            "batch_small" => Some(Workload::BatchSmall),
            _ => None,
        }
    }

    /// Whether a job enters through the `.lssa` text frontend (`lssa run
    /// file.lssa`) rather than as a governed job over surface source.
    fn is_lssa(self) -> bool {
        self != Workload::BatchSmall
    }
}

/// One program to run as a job.
pub struct Input {
    pub name: String,
    /// `.lssa` text, or surface source on `batch_small`. The program under
    /// test receives only this.
    pub text: String,
    /// Reference output: the λ interpreter on the un-simplified λpure
    /// program, never the compiler under test.
    pub expected: Result<String, String>,
}

/// Builds the workload's inputs from `seed` and computes each reference.
pub fn inputs(w: Workload, seed: u64) -> Result<Vec<Input>, String> {
    let sources: Vec<(String, String)> = match w {
        Workload::PaperSuite => workloads::all(workloads::Scale::Bench)
            .into_iter()
            .map(|w| (w.name.to_string(), w.src))
            .collect(),
        Workload::CompileWide => {
            let mut rng = Rng::new(seed);
            (0..WIDE_PROGRAMS)
                .map(|i| (format!("wide-{i}"), gen::wide_program(&mut rng)))
                .collect()
        }
        Workload::BatchSmall => conformance::full_corpus(CORPUS_SIZE, seed)
            .into_iter()
            .map(|c| (c.name, c.src))
            .collect(),
    };
    sources
        .into_iter()
        .map(|(name, src)| {
            let ast = lssa_lambda::parse_program(&src).map_err(|e| format!("{name}: {e}"))?;
            let expected = lssa_lambda::run_program(&ast, "main", false, MAX_STEPS)
                .map(|o| o.rendered)
                .map_err(|e| e.to_string());
            let text = if w.is_lssa() {
                let text = lssa_syntax::print_program(&ast);
                if w == Workload::CompileWide && gen::nesting(&text) > gen::MAX_NESTING {
                    return Err(format!(
                        "{name}: nesting {} exceeds the corpus depth {}",
                        gen::nesting(&text),
                        gen::MAX_NESTING
                    ));
                }
                text
            } else {
                src
            };
            Ok(Input {
                name,
                text,
                expected,
            })
        })
        .collect()
}

/// The governed-job envelope of `batch_small`: step budget and deadline
/// armed, so the VM polls its checkpoints.
pub fn batch_spec() -> JobSpec {
    let limits = JobLimits::default()
        .with_steps(100_000_000)
        .with_deadline(Some(Duration::from_secs(10)));
    JobSpec {
        exec: ExecOptions::default().with_limits(limits),
        ..JobSpec::default()
    }
}

/// Deterministic counts of one job; they must repeat exactly every time
/// the same input runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub code_cells: u64,
    pub vm_cells: u64,
}

/// Deterministic counts only the traced run takes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub syntax_bytes: u64,
    pub nodes_in: u64,
    pub nodes_rc: u64,
    pub ops_out: u64,
    pub sweeps: u64,
    pub fused_cells: u64,
    pub calls: u64,
    pub rc_cells: u64,
    pub fused_exec: u64,
    pub frame_allocs: u64,
    pub rt_allocs: u64,
    pub rt_peak_bytes: u64,
    pub rt_rc_ops: u64,
    pub attempts: u64,
}

/// An untraced job's outcome.
pub struct Timed {
    pub output: Result<String, String>,
    pub job: Duration,
    pub compile: Duration,
    pub run: Duration,
    pub compile_peak: usize,
    pub counts: Counts,
}

/// Whether a job's output agrees with the reference: equal output, or an
/// error where the reference errs too.
pub fn agrees(expected: &Result<String, String>, got: &Result<String, String>) -> bool {
    match (expected, got) {
        (Ok(a), Ok(b)) => a == b,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

fn decoded_cells(p: &DecodedProgram) -> u64 {
    p.fns.iter().map(|f| f.code.len() as u64).sum()
}

/// Runs one job untraced. On `paper_suite` and `compile_wide` it makes the
/// calls of `lssa run file.lssa`; on `batch_small` those of
/// `jobs::run_job`, timed separately.
pub fn run_untraced(w: Workload, input: &Input, spec: &JobSpec) -> Timed {
    let t0 = Instant::now();
    let base = alloc::start_window();
    let mut counts = Counts::default();
    let mut compile = Duration::ZERO;
    let mut run = Duration::ZERO;
    let mut compile_peak = 0;
    let output = if w.is_lssa() {
        (|| {
            let ast = lssa_syntax::parse_program(&input.text)
                .map_err(|d| format!("{} syntax diagnostics", d.len()))?;
            let (compiled, _report) =
                pipelines::compile_ast_with_report(&ast, CompilerConfig::mlir())
                    .map_err(|e| e.to_string())?;
            let decoded = compiled.decoded(DecodeOptions::default());
            compile = t0.elapsed();
            compile_peak = alloc::window_peak(base);
            let t1 = Instant::now();
            let out =
                lssa_vm::run_decoded_with(&decoded, "main", MAX_STEPS, ExecOptions::default());
            run = t1.elapsed();
            counts.code_cells = decoded_cells(&decoded);
            let out = out.map_err(|e| e.to_string())?;
            counts.vm_cells = out.stats.instructions;
            Ok(out.rendered)
        })()
    } else {
        (|| {
            let compiled =
                pipelines::compile(&input.text, spec.config).map_err(|e| e.to_string())?;
            let decoded = compiled.decoded(spec.decode);
            compile = t0.elapsed();
            compile_peak = alloc::window_peak(base);
            let t1 = Instant::now();
            let report = jobs::execute_decoded(&decoded, "main", spec);
            run = t1.elapsed();
            counts.code_cells = decoded_cells(&decoded);
            counts.vm_cells = report.steps;
            report.outcome.map_err(|e| e.to_string())
        })()
    };
    Timed {
        output,
        job: t0.elapsed(),
        compile,
        run,
        compile_peak,
        counts,
    }
}

/// A traced job's outcome. Layer times live in the tracer's spans, plus
/// the pass-pipeline phase times `core::pipeline` reports itself.
pub struct Traced {
    pub output: Result<String, String>,
    pub counts: Counts,
    pub layer: LayerCounts,
    /// `(phase, ms)` from the returned `PipelineReport`.
    pub phases: Vec<(String, f64)>,
}

fn nodes(p: &Program) -> u64 {
    p.fns.iter().map(|f| f.body.size() as u64).sum()
}

/// The mlir configuration's two halves, so the traced job can time the
/// calls `compile_ast_with_report` makes one by one.
fn mlir_parts() -> (
    lssa_lambda::SimplifyOptions,
    lssa_core::pipeline::PipelineOptions,
) {
    let config = CompilerConfig::mlir();
    let Backend::Mlir(opts) = config.backend else {
        unreachable!("CompilerConfig::mlir() uses the mlir backend")
    };
    (
        config.simplify.expect("CompilerConfig::mlir() simplifies"),
        opts,
    )
}

/// Runs one job with a span around every public call on its path: the
/// calls `compile_ast_with_report` / `compile` and `run_decoded_with`
/// make, one by one. On `batch_small` the job runs `execute_decoded`
/// whole; a probe run outside the job span then times the VM and heap
/// teardown, which `execute_decoded` does not expose.
pub fn run_traced(w: Workload, input: &Input, spec: &JobSpec, tr: &mut Tracer) -> Traced {
    let mut counts = Counts::default();
    let mut layer = LayerCounts::default();
    let mut phases = Vec::new();
    let (simplify, opts) = mlir_parts();
    tr.enter("job");
    let mut decoded_out = None;
    let output = (|| {
        tr.enter("compile");
        let ast = if w.is_lssa() {
            layer.syntax_bytes = input.text.len() as u64;
            tr.span("syntax.parse", || lssa_syntax::parse_program(&input.text))
                .map_err(|d| format!("{} syntax diagnostics", d.len()))?
        } else {
            tr.span("lambda.parse", || lssa_lambda::parse_program(&input.text))
                .map_err(|e| e.to_string())?
        };
        tr.span("lambda.check", || lssa_lambda::check_program(&ast))
            .map_err(|errs| format!("{} wellformedness errors", errs.len()))?;
        let simplified = tr.span("lambda.simplify", || {
            lssa_lambda::simplify_program(&ast, simplify)
        });
        let rc = tr.span("lambda.insert_rc", || lssa_lambda::insert_rc(&simplified));
        tr.span("bench.count", || {
            layer.nodes_in = nodes(&ast);
            layer.nodes_rc = nodes(&rc);
        });
        let (module, report) = tr.span("core.compile", || {
            lssa_core::pipeline::compile_with_report(&rc, opts)
        });
        for p in &report.phases {
            phases.push((p.pipeline.clone(), p.duration.as_secs_f64() * 1e3));
            layer.sweeps += p.iterations as u64;
        }
        layer.ops_out = module.live_op_count() as u64;
        tr.span("ir.verify", || lssa_ir::verifier::verify_module(&module))
            .map_err(|errs| format!("{} verifier errors", errs.len()))?;
        let compiled = tr
            .span("vm.bytecode", || lssa_vm::compile_module(&module))
            .map_err(|e| e.to_string())?;
        let decoded = tr.span("vm.decode", || compiled.decoded(spec.decode));
        counts.code_cells = decoded_cells(&decoded);
        layer.fused_cells = decoded.fusion.superinstructions();
        tr.exit();
        tr.enter("run");
        let out = if w.is_lssa() {
            let (out, cells) = run_vm(&decoded, MAX_STEPS, ExecOptions::default(), tr, &mut layer);
            counts.vm_cells = cells;
            out
        } else {
            let report = tr.span("jobs.execute", || {
                jobs::execute_decoded(&decoded, "main", spec)
            });
            layer.attempts = u64::from(report.attempts);
            counts.vm_cells = report.steps;
            report.outcome.map_err(|e| e.to_string())
        };
        tr.exit();
        if !w.is_lssa() {
            decoded_out = Some(decoded);
        }
        out
    })();
    tr.close_all();
    if let Some(decoded) = decoded_out {
        tr.enter("probe");
        let (probe, cells) = run_vm(&decoded, spec.max_steps, spec.exec, tr, &mut layer);
        tr.close_all();
        if !agrees(&output, &probe) || cells != counts.vm_cells {
            eprintln!(
                "{}: the probe run disagrees with the job ({probe:?} in {cells} cells vs {output:?} in {} cells)",
                input.name, counts.vm_cells
            );
            std::process::exit(3);
        }
    }
    Traced {
        output,
        counts,
        layer,
        phases,
    }
}

/// The calls `run_decoded_with` makes, one span each: VM creation and
/// execution, rendering the result, and heap teardown. Returns the
/// output and the cells executed.
fn run_vm(
    decoded: &DecodedProgram,
    max_steps: u64,
    exec: ExecOptions,
    tr: &mut Tracer,
    layer: &mut LayerCounts,
) -> (Result<String, String>, u64) {
    let (mut vm, result) = tr.span("vm.run", || {
        let mut vm = Vm::with_options(decoded, max_steps, exec);
        let result = vm.run("main");
        (vm, result)
    });
    let out = match result {
        Ok(r) => Ok(tr.span("rt.render", || {
            let rendered = vm.heap.render(r);
            vm.heap.dec(r);
            rendered
        })),
        Err(e) => Err(e.to_string()),
    };
    let s = vm.statistics();
    layer.calls = s.calls;
    // The definition `lssa bench` uses for its `rc_cells` column.
    layer.rc_cells = s.executed_of(OpClass::Rc)
        + s.executed_of(OpClass::FusedDec2)
        + s.executed_of(OpClass::FusedDec4);
    layer.fused_exec = s.fused_executed();
    layer.frame_allocs = s.frame_allocs;
    layer.rt_allocs = s.heap.allocs;
    layer.rt_peak_bytes = s.heap.peak_bytes;
    layer.rt_rc_ops = s.heap.incs + s.heap.decs;
    tr.span("rt.teardown", || drop(vm));
    (out, s.instructions)
}
