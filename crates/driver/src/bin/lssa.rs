//! The `lssa` command-line compiler driver.
//!
//! ```text
//! lssa run <file> [--backend leanc|mlir|rgn-only|none] [--pass-stats] [--vm-stats]
//!                 [--no-fuse] [--no-rc-opt] [--print-ir-after-all]
//!                 [--step-budget N] [--heap-budget BYTES] [--deadline-ms MS]
//! lssa check <file>... [--format human|json]
//! lssa lint <file>... [--format human|json]
//! lssa fmt <file>... [--write | --check]
//! lssa dump <file> [--stage lp|rgn|opt|cfg]
//! lssa diff <file>
//! lssa bench <name>|all|<file.lssa> [--scale quick|test|bench|stress] [--no-fuse] [--json]
//!                 [--check] [--tolerance PCT] [--runs N] [--out FILE]
//! lssa bench --diff <old.json> <new.json>
//! ```
//!
//! A malformed command line — no verb or an unknown one, a `--flag` the
//! verb does not know, or a value-taking flag given without its value —
//! exits with code **2**, names the problem and prints the usage text, so
//! a script passing a retired or misspelt knob — or a budget with no
//! number — fails loudly instead of silently measuring the default. Every
//! other error (unreadable file, parse or compile error) prints only its
//! `error: …` line and exits 1.
//!
//! Files ending in `.lssa` are parsed by the S-expression text frontend
//! (`lssa-syntax`); anything else uses the built-in surface language. The
//! text frontend reports problems as structured diagnostics with stable
//! codes and source spans — `check` prints them (human-readable by default,
//! one JSON object per line with `--format json`) and exits non-zero when
//! any are found; `run`/`dump`/`diff`/`bench` on a `.lssa` file report the
//! *same* codes on the same defects, because the `E01xx` wellformedness
//! codes are shared with the AST-level checker.
//!
//! `lint` accepts what `check` accepts and reports `E02xx` hygiene
//! findings in the same renderings: source-level lints (dead join points,
//! unused parameters, unreachable case arms, shadowed join labels) and the
//! RC-linearity verdicts of the IR analysis framework (`error[E0201]` for
//! a proven inc/dec imbalance, `warning[E0202]` for an unprovable one).
//! It exits non-zero only when an *error*-severity finding is present —
//! warnings alone leave the exit code at zero, so `lint` can gate CI
//! without legislating style.
//!
//! `fmt` reprints a `.lssa` file in canonical form to stdout; `--write`
//! rewrites the file in place, `--check` exits non-zero when the file is not
//! already canonical (CI drift detection). Formatting is idempotent and
//! round-trips the AST exactly.
//!
//! `--pass-stats` prints the backend's per-pass statistics table (runs,
//! changed flag, live-op counts before/after, wall time, per named
//! pipeline) after the program's result; `--vm-stats` prints the run-side
//! mirror — the VM's per-opcode-class table (executed counts, heap
//! allocations, frame-pool behaviour, max frame depth, wall time),
//! including the fused-superinstruction rows and the register slots saved
//! by the (always-on) decode-time register renumbering. `--no-fuse`
//! disables the decode-time superinstruction fusion pass and `--no-rc-opt`
//! the compile-time reference-count optimization pass — one flag per knob,
//! for ablation measurements. `--print-ir-after-all` dumps the
//! module to stderr after every pass, MLIR-style.
//!
//! `run` executes under resource governance (see `lssa_driver::jobs`):
//! `--step-budget N` caps executed instructions, `--heap-budget BYTES`
//! caps live heap bytes, `--deadline-ms MS` sets a wall-clock deadline.
//! A run that exhausts any budget exits with code **3** (success is 0, a
//! malformed command line 2, all other errors 1), so callers can tell
//! "the program is wrong" from "the program was stopped".
//!
//! `bench --json` measures the selected workloads under every knob
//! configuration (see `lssa_driver::benchjson`), prints each workload's
//! `full` wall time with the within-run ratios `full_nofuse`/`full` and
//! `full_norc`/`full`, and writes
//! machine-readable records to `BENCH_<scale>.json` (or `--out FILE`) —
//! the committed perf-trajectory baseline. `bench --check` re-measures
//! and compares against that committed file instead of overwriting it:
//! instruction counts must match exactly, wall time may regress by at
//! most `--tolerance PCT` (default 20), and any regression exits
//! non-zero. `bench --diff <old.json> <new.json>` measures nothing: it
//! prints the per-workload, per-config delta table between two baseline
//! files, annotating wall-time changes inside a ±5% noise floor as
//! `~noise` (the counter columns are deterministic, so any delta there
//! is a real change).

use lssa_driver::pipelines::{
    compile_ast_with_report, compile_with_report, frontend, frontend_ast, Backend, CompilerConfig,
    PipelineError,
};
use lssa_driver::workloads::{all, by_name, Scale, Workload};
use lssa_lambda::ast::Program;
use lssa_vm::{DecodeOptions, ExecOptions, JobLimits};
use std::process::ExitCode;
use std::time::Duration;

const MAX_STEPS: u64 = 2_000_000_000;

/// Stack of the thread that parses, compiles and runs. The surface parser
/// admits expressions up to [`lssa_lambda::parse::MAX_DEPTH`] levels deep,
/// and the recursive passes after it take about 13 KiB of stack per level
/// in an unoptimized build (under 3 KiB optimized), so the depth limit
/// keeps a program inside this stack in every build profile.
const STACK_BYTES: usize = 64 << 20;

/// Exit code for a run that exhausted a resource budget (step, heap,
/// depth, deadline, cancellation) rather than failing on its own merits.
/// 0 = success, 1 = any other error, 2 = malformed command line, 3 =
/// resource exhaustion.
const EXIT_RESOURCE: u8 = 3;

/// Exit code for a malformed command line: no verb or an unknown one, a
/// flag its verb does not accept, or a value-taking flag without its value.
/// Only these errors print the usage text.
const EXIT_USAGE: u8 = 2;

/// The flags a verb accepts, as `(flag, takes a value)` pairs; `None` for
/// an unknown verb.
fn verb_flags(verb: &str) -> Option<Vec<(&'static str, bool)>> {
    // What `decode_options` and `exec_options` read.
    let decode = [("--no-fuse", false)];
    let budgets = [
        ("--step-budget", true),
        ("--heap-budget", true),
        ("--deadline-ms", true),
    ];
    let flags: Vec<(&str, bool)> = match verb {
        "run" => [
            ("--backend", true),
            ("--pass-stats", false),
            ("--vm-stats", false),
            ("--no-rc-opt", false),
            ("--print-ir-after-all", false),
        ]
        .into_iter()
        .chain(decode)
        .chain(budgets)
        .collect(),
        "check" | "lint" => vec![("--format", true)],
        "fmt" => vec![("--write", false), ("--check", false)],
        "dump" => vec![("--stage", true)],
        "diff" => Vec::new(),
        "bench" => [
            ("--scale", true),
            ("--json", false),
            ("--check", false),
            ("--tolerance", true),
            ("--runs", true),
            ("--out", true),
            ("--diff", false),
        ]
        .into_iter()
        .chain(decode)
        .chain(budgets)
        .collect(),
        _ => return None,
    };
    Some(flags)
}

/// Rejects a missing or unknown verb, the first `--flag` the verb does
/// not accept, and a value-taking flag that ends the command line without
/// its value. Values of value-taking flags are skipped, so
/// `--out --weird-name.json` is a file name, not a flag.
fn check_usage(args: &[String]) -> Result<(), String> {
    let verb = args.first().ok_or("missing command")?;
    let flags = verb_flags(verb).ok_or_else(|| format!("unknown command `{verb}`"))?;
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            continue;
        }
        match flags.iter().find(|(f, _)| f == a) {
            Some(&(_, true)) => {
                if rest.next().is_none() {
                    return Err(format!("flag `{a}` needs a value"));
                }
            }
            Some(&(_, false)) => {}
            None => return Err(format!("unknown flag `{a}` for `lssa {verb}`")),
        }
    }
    Ok(())
}

fn print_usage() {
    eprintln!();
    eprintln!("usage:");
    eprintln!(
        "  lssa run <file> [--backend leanc|mlir|rgn-only|none] [--pass-stats] [--vm-stats] [--no-fuse] [--no-rc-opt] [--print-ir-after-all] [--step-budget N] [--heap-budget BYTES] [--deadline-ms MS]"
    );
    eprintln!("  lssa check <file>... [--format human|json]");
    eprintln!("  lssa lint <file>... [--format human|json]");
    eprintln!("  lssa fmt <file>... [--write | --check]");
    eprintln!("  lssa dump <file> [--stage lambda|lp|rgn|opt|cfg]");
    eprintln!("  lssa diff <file>");
    eprintln!(
        "  lssa bench <name>|all|<file.lssa> [--scale quick|test|bench|stress] [--no-fuse] [--json] [--check] [--tolerance PCT] [--runs N] [--out FILE]"
    );
    eprintln!("  lssa bench --diff <old.json> <new.json>");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = check_usage(&args) {
        eprintln!("error: {msg}");
        print_usage();
        return ExitCode::from(EXIT_USAGE);
    }
    let worker = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || match run(&args) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        })
        .expect("spawn the driver thread");
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn decode_options(args: &[String]) -> DecodeOptions {
    // `--no-fuse` leaves register renumbering on.
    DecodeOptions::fused().with_fuse(!has_flag(args, "--no-fuse"))
}

fn exec_options(args: &[String]) -> Result<ExecOptions, String> {
    let mut limits = JobLimits::default();
    if let Some(v) = flag_value(args, "--step-budget") {
        let steps = v
            .parse::<u64>()
            .map_err(|_| format!("invalid --step-budget `{v}`"))?;
        limits = limits.with_steps(steps);
    }
    if let Some(v) = flag_value(args, "--heap-budget") {
        let bytes = v
            .parse::<u64>()
            .map_err(|_| format!("invalid --heap-budget `{v}`"))?;
        limits = limits.with_heap_bytes(bytes);
    }
    if let Some(v) = flag_value(args, "--deadline-ms") {
        let ms = v
            .parse::<u64>()
            .map_err(|_| format!("invalid --deadline-ms `{v}`"))?;
        limits = limits.with_deadline(Some(Duration::from_millis(ms)));
    }
    Ok(ExecOptions::default().with_limits(limits))
}

fn config_of(name: &str) -> Result<CompilerConfig, String> {
    match name {
        "leanc" => Ok(CompilerConfig::leanc()),
        "mlir" => Ok(CompilerConfig::mlir()),
        "rgn-only" => Ok(CompilerConfig::rgn_only()),
        "none" => Ok(CompilerConfig::none()),
        other => Err(format!("unknown backend `{other}`")),
    }
}

/// Whether `file` should go through the `.lssa` text frontend.
fn is_lssa(file: &str) -> bool {
    file.ends_with(".lssa")
}

/// Parses a `.lssa` source strictly. On any diagnostic (syntax *or*
/// wellformedness — same `E01xx` codes as `lssa check`), renders them
/// human-readably to stderr and yields the failure exit code.
fn load_lssa(file: &str, src: &str) -> Result<Program, ExitCode> {
    match lssa_syntax::parse_program(src) {
        Ok(p) => Ok(p),
        Err(diags) => {
            eprint!(
                "{}",
                lssa_syntax::render_all(&diags, file, src, lssa_syntax::RenderFormat::Human)
            );
            Err(ExitCode::FAILURE)
        }
    }
}

/// The non-flag file arguments after the verb, skipping flag values.
fn file_args(args: &[String]) -> Vec<&str> {
    let flags = verb_flags(&args[0]).unwrap_or_default();
    let mut files = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            files.push(a.as_str());
        } else if flags.contains(&(a.as_str(), true)) {
            rest.next();
        }
    }
    files
}

#[allow(clippy::too_many_lines)]
fn run(args: &[String]) -> Result<ExitCode, String> {
    match args[0].as_str() {
        "run" => {
            let file = args.get(1).ok_or("missing file")?;
            let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let mut config = config_of(flag_value(args, "--backend").unwrap_or("mlir"))?;
            let want_stats = has_flag(args, "--pass-stats");
            let want_vm_stats = has_flag(args, "--vm-stats");
            let decode = decode_options(args);
            let exec = exec_options(args)?;
            if has_flag(args, "--print-ir-after-all") {
                match config.backend {
                    Backend::Mlir(mut opts) => {
                        opts.print_ir_after_all = true;
                        config.backend = Backend::Mlir(opts);
                    }
                    Backend::Baseline => {
                        return Err(
                            "--print-ir-after-all requires an MLIR-style backend (not leanc)"
                                .to_string(),
                        )
                    }
                }
            }
            if has_flag(args, "--no-rc-opt") {
                match config.backend {
                    Backend::Mlir(mut opts) => {
                        opts.rc_opt = false;
                        config.backend = Backend::Mlir(opts);
                    }
                    Backend::Baseline => {
                        return Err(
                            "--no-rc-opt requires an MLIR-style backend (not leanc)".to_string()
                        )
                    }
                }
            }
            // `--pass-stats` doubles as the verification mode: the
            // RC-linearity checker runs after rc-opt and every later pass,
            // and its cost shows up as a `verify-rc-us` counter.
            if want_stats {
                if let Backend::Mlir(mut opts) = config.backend {
                    opts.verify_rc = true;
                    config.backend = Backend::Mlir(opts);
                }
            }
            let compiled = if is_lssa(file) {
                let program = match load_lssa(file, &src) {
                    Ok(p) => p,
                    Err(code) => return Ok(code),
                };
                compile_ast_with_report(&program, config)
            } else {
                compile_with_report(&src, config)
            };
            let (compiled, report) = compiled.map_err(|e| e.to_string())?;
            let decoded = compiled.decoded(decode);
            let out = lssa_vm::run_decoded_with(&decoded, "main", MAX_STEPS, exec)
                .map_err(PipelineError::from);
            let out = match out {
                Ok(out) => out,
                // A budget/deadline/cancellation abort is a governed outcome,
                // not a usage error: report it plainly and exit with the
                // documented resource code.
                Err(e) if e.vm_kind().is_some_and(|k| k.is_resource()) => {
                    eprintln!("{e}");
                    return Ok(ExitCode::from(EXIT_RESOURCE));
                }
                Err(e) => return Err(e.to_string()),
            };
            println!("{}", out.rendered);
            eprintln!(
                "-- {} instructions, {} calls, peak {} live objects",
                out.stats.instructions, out.stats.calls, out.stats.heap.peak_live
            );
            if want_stats {
                match report {
                    Some(report) => {
                        print!("{}", report.render_table());
                        println!(
                            "total: {:.3}ms across {} pipelines",
                            report.total_duration().as_secs_f64() * 1e3,
                            report.phases.len()
                        );
                    }
                    None => eprintln!("-- no pass statistics: the leanc backend has no pipeline"),
                }
            }
            if want_vm_stats {
                print!("{}", out.vm_stats.render_table());
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let files = file_args(args);
            if files.is_empty() {
                return Err("missing file".to_string());
            }
            let format = match flag_value(args, "--format") {
                None | Some("human") => lssa_syntax::RenderFormat::Human,
                Some("json") => lssa_syntax::RenderFormat::Json,
                Some(other) => return Err(format!("unknown format `{other}`")),
            };
            let mut failed = false;
            for file in files {
                let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                let diags = lssa_syntax::check_source(&src);
                if !diags.is_empty() {
                    failed = true;
                    print!("{}", lssa_syntax::render_all(&diags, file, &src, format));
                }
            }
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "lint" => {
            let files = file_args(args);
            if files.is_empty() {
                return Err("missing file".to_string());
            }
            let format = match flag_value(args, "--format") {
                None | Some("human") => lssa_syntax::RenderFormat::Human,
                Some("json") => lssa_syntax::RenderFormat::Json,
                Some(other) => return Err(format!("unknown format `{other}`")),
            };
            let mut failed = false;
            for file in files {
                let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                let diags = lssa_driver::lint::lint_source(&src);
                failed |= lssa_driver::lint::has_errors(&diags);
                if !diags.is_empty() {
                    print!("{}", lssa_syntax::render_all(&diags, file, &src, format));
                }
            }
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "fmt" => {
            let files = file_args(args);
            if files.is_empty() {
                return Err("missing file".to_string());
            }
            let write = has_flag(args, "--write");
            let check = has_flag(args, "--check");
            if write && check {
                return Err("--write and --check are mutually exclusive".to_string());
            }
            let mut drifted = false;
            for file in files {
                let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                let formatted = match lssa_syntax::format_source(&src) {
                    Ok(f) => f,
                    Err(diags) => {
                        eprint!(
                            "{}",
                            lssa_syntax::render_all(
                                &diags,
                                file,
                                &src,
                                lssa_syntax::RenderFormat::Human
                            )
                        );
                        return Ok(ExitCode::FAILURE);
                    }
                };
                if write {
                    if formatted != src {
                        std::fs::write(file, &formatted).map_err(|e| format!("{file}: {e}"))?;
                        eprintln!("-- rewrote {file}");
                    }
                } else if check {
                    if formatted != src {
                        eprintln!("-- {file}: not canonically formatted (run `lssa fmt --write`)");
                        drifted = true;
                    }
                } else {
                    print!("{formatted}");
                }
            }
            Ok(if drifted {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "dump" => {
            let file = args.get(1).ok_or("missing file")?;
            let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let stage = flag_value(args, "--stage").unwrap_or("cfg");
            let rc = if is_lssa(file) {
                let program = match load_lssa(file, &src) {
                    Ok(p) => p,
                    Err(code) => return Ok(code),
                };
                frontend_ast(&program, CompilerConfig::mlir()).map_err(|e| e.to_string())?
            } else {
                frontend(&src, CompilerConfig::mlir()).map_err(|e| e.to_string())?
            };
            match stage {
                "lambda" => {
                    for f in &rc.fns {
                        println!("{f}");
                    }
                }
                "lp" => {
                    let m = lssa_core::lp::from_lambda::lower_program(&rc);
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                "rgn" => {
                    let mut m = lssa_core::lp::from_lambda::lower_program(&rc);
                    lssa_core::rgn::from_lp::lower_module(&mut m);
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                "opt" => {
                    let mut m = lssa_core::lp::from_lambda::lower_program(&rc);
                    lssa_core::rgn::from_lp::lower_module(&mut m);
                    // The exact pipeline `compile` runs, so the dump shows
                    // the IR the CFG lowering actually receives.
                    lssa_core::pipeline::rgn_opt_pipeline(lssa_core::PipelineOptions::full())
                        .run(&mut m);
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                "cfg" => {
                    let m = lssa_core::pipeline::compile(&rc, lssa_core::PipelineOptions::full());
                    print!("{}", lssa_ir::printer::print_module(&m));
                }
                other => return Err(format!("unknown stage `{other}`")),
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let file = args.get(1).ok_or("missing file")?;
            let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let r = if is_lssa(file) {
                let program = match load_lssa(file, &src) {
                    Ok(p) => p,
                    Err(code) => return Ok(code),
                };
                lssa_driver::diff::run_differential_ast(file, &program, MAX_STEPS)
            } else {
                lssa_driver::diff::run_differential(file, &src, MAX_STEPS)
            };
            match r.failure {
                None => {
                    println!("PASS: all pipelines agree on {:?}", r.rendered.unwrap());
                    Ok(ExitCode::SUCCESS)
                }
                Some(f) => Err(format!("differential mismatch: {f}")),
            }
        }
        "bench" => {
            if let Some(i) = args.iter().position(|a| a == "--diff") {
                // `bench --diff old.json new.json`: no measuring, just the
                // delta table between two committed baseline files.
                let old_path = args
                    .get(i + 1)
                    .ok_or("--diff needs <old.json> <new.json>")?;
                let new_path = args
                    .get(i + 2)
                    .ok_or("--diff needs <old.json> <new.json>")?;
                let mut rows = Vec::new();
                for path in [old_path, new_path] {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    rows.push(
                        lssa_driver::benchjson::parse_baseline(&text)
                            .map_err(|e| format!("{path}: {e}"))?,
                    );
                }
                print!(
                    "{}",
                    lssa_driver::benchjson::render_diff(&rows[0], &rows[1])
                );
                return Ok(ExitCode::SUCCESS);
            }
            let name = args.get(1).ok_or("missing benchmark name")?;
            let want_json = has_flag(args, "--json");
            let want_check = has_flag(args, "--check");
            // What the per-config loop below times: a `.lssa` file, or the
            // named workloads (parsed up front, like the file, so each row
            // times compile + decode + run).
            let programs: Vec<(String, Program)> = if is_lssa(name) {
                // Ineligible for the committed JSON baseline, which is keyed
                // by workload name and scale.
                if want_json || want_check {
                    return Err(
                        "--json and --check measure the built-in workloads only".to_string()
                    );
                }
                let src = std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))?;
                match load_lssa(name, &src) {
                    Ok(p) => vec![(name.clone(), p)],
                    Err(code) => return Ok(code),
                }
            } else {
                let (scale, scale_label) = match flag_value(args, "--scale").unwrap_or("test") {
                    // `quick` is the CI alias for the smallest inputs.
                    "test" | "quick" => (Scale::Test, "test"),
                    "bench" => (Scale::Bench, "bench"),
                    "stress" => (Scale::Stress, "stress"),
                    other => return Err(format!("unknown scale `{other}`")),
                };
                let selected: Vec<Workload> = if name == "all" {
                    all(scale)
                } else {
                    vec![by_name(name, scale)
                        .ok_or_else(|| format!("unknown benchmark `{name}`"))?]
                };
                if want_json && want_check {
                    return Err(
                        "--json (regenerate) and --check (compare) are exclusive".to_string()
                    );
                }
                if want_json || want_check {
                    return bench_records(args, name, &selected, scale_label);
                }
                selected
                    .iter()
                    .map(|w| {
                        let p = lssa_lambda::parse_program(&w.src)
                            .map_err(|e| format!("{}: {e}", w.name))?;
                        Ok((w.name.to_string(), p))
                    })
                    .collect::<Result<_, String>>()?
            };
            let decode = decode_options(args);
            let exec = exec_options(args)?;
            for (name, program) in &programs {
                for config in lssa_driver::diff::configs() {
                    let start = std::time::Instant::now();
                    let (compiled, _) =
                        compile_ast_with_report(program, config).map_err(|e| e.to_string())?;
                    let out = lssa_vm::run_decoded_with(
                        &compiled.decoded(decode),
                        "main",
                        MAX_STEPS,
                        exec,
                    )
                    .map_err(|e| PipelineError::from(e).to_string())?;
                    let elapsed = start.elapsed();
                    println!(
                        "{:20} {:28} {:>12?} {:>14} instrs  result={}",
                        name,
                        config.label(),
                        elapsed,
                        out.stats.instructions,
                        out.rendered
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => unreachable!("`check_usage` admits no verb `{other}`"),
    }
}

/// `bench --json` (write the per-knob records) and `bench --check` (compare
/// them against the committed baseline) over the selected workloads.
fn bench_records(
    args: &[String],
    name: &str,
    selected: &[Workload],
    scale_label: &str,
) -> Result<ExitCode, String> {
    let want_json = has_flag(args, "--json");
    let want_check = has_flag(args, "--check");
    if has_flag(args, "--no-fuse") {
        return Err(format!(
            "--{} always measures every knob configuration; drop --no-fuse",
            if want_json { "json" } else { "check" }
        ));
    }
    // The default path is the committed full-suite baseline; never let a
    // single-workload run clobber it silently (and fail before spending
    // minutes measuring).
    let path = match flag_value(args, "--out") {
        Some(out) => out.to_string(),
        None if name == "all" || want_check => lssa_driver::benchjson::default_path(scale_label),
        None => {
            return Err(format!(
                "bench {name} --json would overwrite the full-suite \
                 {}; pass --out FILE (or bench all)",
                lssa_driver::benchjson::default_path(scale_label)
            ))
        }
    };
    // Read the baseline up front: fail before spending minutes measuring if
    // it is missing or malformed.
    let baseline = if want_check {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut rows =
            lssa_driver::benchjson::parse_baseline(&text).map_err(|e| format!("{path}: {e}"))?;
        // A partial run only checks the selected workloads.
        rows.retain(|b| selected.iter().any(|w| w.name == b.name));
        Some(rows)
    } else {
        None
    };
    // Interleaved rounds per workload; raise on a noisy machine so every
    // config's best time catches a quiet window (the row keeps the minimum,
    // see `benchjson`).
    let bench_runs = match flag_value(args, "--runs") {
        None => 5,
        Some(r) => match r.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --runs `{r}`")),
        },
    };
    let records = lssa_driver::benchjson::run_suite(selected, bench_runs, MAX_STEPS);
    for r in &records {
        let full = r.row("full").expect("full row");
        println!(
            "{:20} full {:>9.3}ms   nofuse/full {:.3}x   norc/full {:.3}x   \
             ({:>4.1}% fused)",
            r.name,
            full.wall_ms,
            r.ratio("full_nofuse"),
            r.ratio("full_norc"),
            full.fused_share * 100.0,
        );
    }
    if let Some(baseline) = baseline {
        let tolerance = match flag_value(args, "--tolerance") {
            None => 20.0,
            Some(t) => t
                .parse::<f64>()
                .map_err(|_| format!("bad --tolerance `{t}`"))?,
        };
        let outcome = lssa_driver::benchjson::check_against(&baseline, &records, tolerance);
        for f in &outcome.failures {
            eprintln!("REGRESSION: {f}");
        }
        eprintln!(
            "-- checked {} rows against {path} (tolerance {tolerance}%): {}",
            outcome.compared,
            if outcome.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} regression(s)", outcome.failures.len())
            }
        );
        return Ok(if outcome.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let json = lssa_driver::benchjson::render_json(scale_label, bench_runs, &records);
    std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("-- wrote {path}");
    Ok(ExitCode::SUCCESS)
}
