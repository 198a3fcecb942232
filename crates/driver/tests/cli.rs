//! Smoke tests for the `lssa` command-line driver.

use std::io::Write;
use std::process::Command;

fn lssa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lssa"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lssa-cli-{name}-{}.fl", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

/// Runs `cmd` and collects its output, failing the test if it has not
/// exited within 60 s (a hang is the bug some callers guard against).
fn output_within_60s(cmd: &mut Command) -> std::process::Output {
    let mut child = cmd
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("{cmd:?} did not finish in 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// Diverges at run time; compiles on every backend.
const SPIN: &str = "def spin(n) := spin(n + 1)\ndef main() := spin(0)\n";

const PROGRAM: &str = r#"
inductive List := Nil | Cons(h, t)
def len(xs) := case xs of | Nil => 0 | Cons(h, t) => 1 + len(t) end
def main() := len(Cons(1, Cons(2, Cons(3, Nil))))
"#;

#[test]
fn run_prints_result() {
    let path = write_temp("run", PROGRAM);
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    std::fs::remove_file(path).ok();
}

/// Base-case-free recursion through single-block callees: the inliner used
/// to re-inline these forever, hanging compilation. They must compile on
/// every backend and stop at the step budget with exit code 3.
#[test]
fn base_case_free_recursion_compiles_and_exhausts_the_step_budget() {
    let programs = [
        ("spin", SPIN),
        (
            "mutual",
            "def f(n) := g(n + 1)\ndef g(n) := f(n * 2)\ndef main() := f(1)\n",
        ),
    ];
    for (name, src) in programs {
        let path = write_temp(name, src);
        for backend in ["mlir", "leanc"] {
            let status = output_within_60s(lssa().arg("run").arg(&path).args([
                "--step-budget",
                "1000",
                "--backend",
                backend,
            ]))
            .status;
            assert_eq!(status.code(), Some(3), "{name} on {backend}");
        }
        std::fs::remove_file(path).ok();
    }
}

/// The `.lssa` twin of [`SPIN`] takes the same run path as the surface
/// source: exit code 3 and the identical `execution error: …` line.
#[test]
fn lssa_spin_exits_3_with_the_surface_sources_error_line() {
    const SPIN_LSSA: &str = "(def spin (x0)
  (let x1 1
  (let x2 (call lean_nat_add x0 x1)
  (let x3 (call spin x2)
  (ret x3)))))

(def main ()
  (let x0 0
  (let x1 (call spin x0)
  (ret x1))))
";
    let surface = write_temp("spin-twin", SPIN);
    let text = write_lssa("spin-twin", SPIN_LSSA);
    for backend in ["mlir", "leanc"] {
        let lines = [&surface, &text].map(|path| {
            let out = output_within_60s(lssa().arg("run").arg(path).args([
                "--step-budget",
                "1000",
                "--backend",
                backend,
            ]));
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(
                out.status.code(),
                Some(3),
                "{path:?} on {backend}: {stderr}"
            );
            stderr
                .lines()
                .find(|l| l.starts_with("execution error: "))
                .unwrap_or_else(|| panic!("{path:?} on {backend}: {stderr}"))
                .to_string()
        });
        assert_eq!(lines[0], lines[1], "{backend}");
    }
    std::fs::remove_file(surface).ok();
    std::fs::remove_file(text).ok();
}

#[test]
fn run_all_backends() {
    let path = write_temp("backends", PROGRAM);
    for backend in ["leanc", "mlir", "rgn-only", "none"] {
        let out = lssa()
            .args(["run"])
            .arg(&path)
            .args(["--backend", backend])
            .output()
            .unwrap();
        assert!(out.status.success(), "{backend}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "3",
            "{backend}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn dump_stages_emit_expected_dialects() {
    let path = write_temp("dump", PROGRAM);
    for (stage, needle) in [
        ("lambda", "case x0 of"),
        ("lp", "lp.switch"),
        ("rgn", "rgn.run"),
        ("cfg", "cf."),
    ] {
        let out = lssa()
            .args(["dump"])
            .arg(&path)
            .args(["--stage", stage])
            .output()
            .unwrap();
        assert!(out.status.success(), "{stage}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(needle), "{stage}: missing {needle}\n{text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn diff_reports_pass() {
    let path = write_temp("diff", PROGRAM);
    let out = lssa().args(["diff"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
    std::fs::remove_file(path).ok();
}

#[test]
fn pass_stats_prints_pipeline_tables() {
    let path = write_temp("stats", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--pass-stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["pipeline `rgn-opt`", "pipeline `cleanup`", "ops-in", "dce"] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn vm_stats_prints_opcode_class_table() {
    let path = write_temp("vmstats", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--vm-stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["opcode class", "executed", "frames:", "heap:", "max depth"] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn vm_stats_shows_fusion_and_no_fuse_disables_it() {
    let path = write_temp("fuse", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--vm-stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fused:"), "{text}");
    assert!(!text.contains("fused: 0 superinstruction"), "{text}");
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--vm-stats", "--no-fuse"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fused: 0 superinstruction"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn bench_json_writes_records() {
    let json_path =
        std::env::temp_dir().join(format!("lssa-cli-bench-{}.json", std::process::id()));
    let out = lssa()
        .args(["bench", "filter", "--scale", "quick", "--json", "--out"])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    for needle in [
        "\"scale\": \"test\"",
        "\"name\": \"filter\"",
        "\"full\":",
        "\"full_nofuse\":",
        "\"full_norc\":",
        "\"rc_cells\":",
    ] {
        assert!(json.contains(needle), "missing {needle}\n{json}");
    }
    for retired in ["\"base\":", "\"threaded\":", "cache", "speedup"] {
        assert!(!json.contains(retired), "retired {retired}\n{json}");
    }
    // The table reports `full` with the within-run knob ratios.
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("nofuse/full"), "{table}");
    assert!(table.contains("norc/full"), "{table}");
    // `bench --check` against the file just written passes (counters are
    // deterministic; the wall tolerance absorbs timer noise).
    let out = lssa()
        .args([
            "bench",
            "filter",
            "--scale",
            "quick",
            "--check",
            "--tolerance",
            "500",
            "--out",
        ])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("checked"));
    // A corrupted instruction count is a regression: non-zero exit.
    let tampered = json.replacen("\"instructions\": ", "\"instructions\": 9", 1);
    std::fs::write(&json_path, tampered).unwrap();
    let out = lssa()
        .args([
            "bench",
            "filter",
            "--scale",
            "quick",
            "--check",
            "--tolerance",
            "500",
            "--out",
        ])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("REGRESSION"));
    std::fs::remove_file(json_path).ok();
    // A single-workload run without --out must refuse rather than clobber
    // the committed full-suite BENCH_<scale>.json baseline.
    let out = lssa()
        .args(["bench", "filter", "--scale", "quick", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
    // And --json refuses --no-fuse (it always measures both modes).
    let out = lssa()
        .args(["bench", "all", "--scale", "quick", "--json", "--no-fuse"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--no-fuse"));
}

#[test]
fn print_ir_after_all_dumps_to_stderr() {
    let path = write_temp("irdump", PROGRAM);
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--print-ir-after-all"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("IR dump after"), "{err}");
    assert!(err.contains("func.return"), "{err}");
    // The result still lands on stdout.
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    // And the leanc backend rejects the flag (no pipeline to dump).
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--backend", "leanc", "--print-ir-after-all"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(path).ok();
}

fn write_lssa(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lssa-cli-{name}-{}.lssa", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

const LSSA_PROGRAM: &str = "(def main ()
  (let x0 40
  (let x1 2
  (let x2 (call lean_nat_add x0 x1)
  (ret x2)))))
";

const LSSA_ILL_FORMED: &str = "(def main ()\n  (ret x7))\n";

#[test]
fn check_passes_clean_lssa_and_flags_defects() {
    let good = write_lssa("check-good", LSSA_PROGRAM);
    let out = lssa().args(["check"]).arg(&good).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "clean check must print nothing");

    let bad = write_lssa("check-bad", LSSA_ILL_FORMED);
    let out = lssa().args(["check"]).arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[E0101]"), "{text}");
    assert!(
        text.contains(":2:8:"),
        "human format carries line:col\n{text}"
    );
    std::fs::remove_file(good).ok();
    std::fs::remove_file(bad).ok();
}

#[test]
fn check_json_is_machine_readable() {
    let bad = write_lssa("check-json", LSSA_ILL_FORMED);
    let out = lssa()
        .args(["check"])
        .arg(&bad)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "{text}");
    assert!(lines[0].starts_with("{\"code\":\"E0101\""), "{text}");
    assert!(lines[0].contains("\"span\":{\"start\":"), "{text}");
    assert!(lines[0].contains("\"line\":2,\"col\":8"), "{text}");
    std::fs::remove_file(bad).ok();
}

#[test]
fn fmt_prints_canonical_form_and_write_check_cycle() {
    let path = write_lssa("fmt", "(def main()(let x0 1(ret x0)))");
    // Default: canonical form on stdout, file untouched.
    let out = lssa().args(["fmt"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    let formatted = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(formatted, "(def main ()\n  (let x0 1\n  (ret x0)))\n");
    // --check flags the drift without touching the file.
    let out = lssa()
        .args(["fmt"])
        .arg(&path)
        .args(["--check"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // --write rewrites; --check then passes.
    let out = lssa()
        .args(["fmt"])
        .arg(&path)
        .args(["--write"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), formatted);
    let out = lssa()
        .args(["fmt"])
        .arg(&path)
        .args(["--check"])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(path).ok();
}

#[test]
fn fmt_formats_ill_scoped_but_rejects_broken_syntax() {
    // Wellformedness problems don't block formatting…
    let path = write_lssa("fmt-illformed", LSSA_ILL_FORMED);
    let out = lssa().args(["fmt"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("(ret x7)"));
    std::fs::remove_file(path).ok();
    // …but unbalanced parentheses do.
    let path = write_lssa("fmt-broken", "(def main () (ret x0");
    let out = lssa().args(["fmt"]).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[E0003]"));
    std::fs::remove_file(path).ok();
}

#[test]
fn run_executes_lssa_files_on_every_backend() {
    let path = write_lssa("run", LSSA_PROGRAM);
    for backend in ["leanc", "mlir", "rgn-only", "none"] {
        let out = lssa()
            .args(["run"])
            .arg(&path)
            .args(["--backend", backend])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "42",
            "{backend}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn run_reports_lssa_wellformedness_with_check_codes() {
    // Regression: `run` on an ill-formed `.lssa` file must exit 1 and
    // report the same stable code `check` does — as a diagnostic, not a
    // usage error.
    let path = write_lssa("run-illformed", LSSA_ILL_FORMED);
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error[E0101]"), "{err}");
    assert!(err.contains("use of x7 out of scope"), "{err}");
    assert!(
        !err.contains("usage:"),
        "diagnostics must not trigger usage spam\n{err}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn diff_and_bench_accept_lssa_files() {
    let path = write_lssa("diff", LSSA_PROGRAM);
    let out = lssa().args(["diff"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    let out = lssa().args(["bench"]).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 4, "one line per config\n{text}");
    assert!(text.contains("result=42"), "{text}");

    // The JSON baseline is keyed by workload name: .lssa files refuse it.
    let out = lssa()
        .args(["bench"])
        .arg(&path)
        .args(["--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(path).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = lssa().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// Flags that no longer exist (or never did) must fail the command with
/// exit code 2 and name the flag, rather than silently run the default.
#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    let path = write_temp("flags", PROGRAM);
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/qsort.lssa");
    let cases: [&[&str]; 6] = [
        &["run", corpus, "--bogus-flag"],
        &["run", corpus, "--dispatch", "match"],
        &["run", corpus, "--no-inline-cache"],
        &["run", corpus, "--no-renumber"],
        &["check", corpus, "--write"],
        &["bench", "filter", "--scale", "quick", "--backend", "mlir"],
    ];
    for args in cases {
        let out = lssa().args(args).output().unwrap();
        let flag = args
            .iter()
            .find(|a| a.starts_with("--") && **a != "--scale")
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
    // The decode and compile knobs that remain are still accepted, and a
    // value-taking flag consumes its value (`--step-budget 1000000`).
    let out = lssa()
        .args(["run"])
        .arg(&path)
        .args(["--no-fuse", "--no-rc-opt", "--step-budget", "1000000"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    std::fs::remove_file(path).ok();
}

/// A value-taking flag at the end of the command line, without its value,
/// exits 2 and names the flag — it must not run with the limit unarmed
/// (`spin` would then never stop).
#[test]
fn flags_missing_their_value_exit_2_and_name_the_flag() {
    let spin = write_temp("spin-novalue", SPIN);
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/qsort.lssa");
    let spin = spin.to_str().unwrap();
    let cases: [&[&str]; 3] = [
        &["run", spin, "--step-budget"],
        &["run", corpus, "--deadline-ms"],
        &["bench", "qsort", "--scale"],
    ];
    for args in cases {
        let out = output_within_60s(lssa().args(args));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args.last().unwrap();
        assert!(
            stderr.contains(&format!("flag `{flag}` needs a value")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(spin).ok();
}

#[test]
fn parse_error_is_reported() {
    let path = write_temp("bad", "def !");
    let out = lssa().args(["run"]).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    std::fs::remove_file(path).ok();
}

/// Surface expressions nested past the parser's depth limit — by
/// parentheses or by a left-associative operator chain — exit 1 with an
/// error naming the limit instead of aborting on a stack overflow, and
/// print no usage text; programs exactly at the limit still run.
#[test]
fn over_deep_surface_expressions_exit_1_naming_the_limit() {
    let max = lssa_lambda::parse::MAX_DEPTH;
    let parens = |n: usize| format!("def main() := {}1{}\n", "(".repeat(n), ")".repeat(n));
    let chain = |n: usize| format!("def main() := {}\n", vec!["1"; n].join(" + "));
    for (name, src) in [("parens", parens(5000)), ("chain", chain(5000))] {
        let path = write_temp(&format!("deep-{name}"), &src);
        let out = output_within_60s(lssa().args(["run"]).arg(&path));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("limit of {max} levels")),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("usage:"), "{name}: {stderr}");
        std::fs::remove_file(path).ok();
    }
    for (name, src, want) in [
        ("parens-at-limit", parens(max - 1), "1".to_string()),
        ("chain-at-limit", chain(max), max.to_string()),
    ] {
        let path = write_temp(name, &src);
        let out = output_within_60s(lssa().args(["run"]).arg(&path));
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), want, "{name}");
        std::fs::remove_file(path).ok();
    }
}

/// Only a malformed command line prints the usage text (exit 2); a file
/// that cannot be read, or a program that does not parse, prints just its
/// `error: …` line (exit 1).
#[test]
fn usage_text_only_for_usage_errors() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["run", "x.fl", "--bogus"][..],
    ] {
        let out = lssa().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let bad = write_temp("usage-bad", "def !");
    let missing = std::env::temp_dir().join("lssa-cli-no-such-file.fl");
    for path in [&bad, &missing] {
        let out = lssa().args(["run"]).arg(path).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{path:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{path:?}: {stderr}");
    }
    std::fs::remove_file(bad).ok();
}
