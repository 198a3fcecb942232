//! Machine-readable benchmark results (`lssa bench --json` / `--check`).
//!
//! Every workload is compiled once (full MLIR pipeline), then executed
//! under each **knob configuration** — the ablation ladder for the knobs
//! that still pay — in interleaved rounds (round-robin over the ladder, so
//! a slow system phase taxes every config alike), recording the *minimum*
//! wall time next to the deterministic counters (instructions executed,
//! fused share, heap allocations, executed rc cells). The minimum, not the
//! median: on a shared machine the best observed run is the least-noise
//! estimate of a deterministic program's true cost. The ladder:
//!
//! | config        | fusion | rc-opt |
//! |---------------|--------|--------|
//! | `full`        | on     | on     |
//! | `full_nofuse` | off    | on     |
//! | `full_norc`   | on     | off    |
//!
//! Every rung runs the one threaded interpreter loop with register
//! renumbering on. `full_nofuse` / `full` isolates what decode-time
//! superinstruction fusion buys. `full_norc` is the only rung that
//! recompiles: it drops the compile-time reference-count optimization
//! pass (everything else reuses one compilation), so `full` vs
//! `full_norc` isolates the rc-opt win — watch the `rc_cells` column
//! (executed plain `inc`/`dec` cells plus fused `dec+dec` cells) drop.
//! Both are within-run ratios ([`BenchRecord::ratio`]), so they carry
//! over between machines where absolute milliseconds do not.
//! The records serialize to
//! `BENCH_<scale>.json`: commit the file, diff it later, and
//! [`check_against`] a committed baseline to catch regressions in CI
//! (instruction counts must match exactly; wall time within a tolerance).
//!
//! The JSON is written *and parsed* by hand — the workspace is offline and
//! a perf baseline does not justify a serde dependency. The parser only
//! accepts the shape [`render_json`] emits (files from before a rung was
//! retired still parse; [`render_diff`] lists their extra rows as
//! removed).

use crate::pipelines::{compile, Backend, CompilerConfig};
use crate::workloads::Workload;
use lssa_core::PipelineOptions;
use lssa_vm::{DecodeOptions, ExecOptions, OpClass};
use std::fmt::Write as _;
use std::time::Instant;

/// One knob configuration: a label plus the decode options and the
/// compile-side rc-opt switch.
#[derive(Debug, Clone, Copy)]
pub struct KnobConfig {
    /// Stable row label (a JSON key, so `[a-z_]+`).
    pub label: &'static str,
    /// Decode-time options (fusion, register renumbering).
    pub decode: DecodeOptions,
    /// Whether the compile pipeline runs the reference-count
    /// optimization pass (`false` only on the `full_norc` rung).
    pub rc_opt: bool,
}

/// The measured ladder, in ablation order (see the module docs).
pub fn knob_configs() -> [KnobConfig; 3] {
    [
        KnobConfig {
            label: "full",
            decode: DecodeOptions::fused(),
            rc_opt: true,
        },
        KnobConfig {
            label: "full_nofuse",
            decode: DecodeOptions::no_fuse().with_renumber(true),
            rc_opt: true,
        },
        KnobConfig {
            label: "full_norc",
            decode: DecodeOptions::fused(),
            rc_opt: false,
        },
    ]
}

/// One knob configuration's measurement for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobResult {
    /// Which [`KnobConfig`] produced this row.
    pub config: &'static str,
    /// Minimum wall time over the interleaved rounds, in milliseconds.
    pub wall_ms: f64,
    /// Cells executed (deterministic, identical across runs).
    pub instructions: u64,
    /// Superinstruction cells in the decoded stream (static).
    pub fused_cells: u64,
    /// Share of executed cells that were superinstructions (0..=1).
    pub fused_share: f64,
    /// Heap objects allocated over the run.
    pub heap_allocs: u64,
    /// Executed reference-count cells: plain `inc`/`dec` plus the fused
    /// `dec+dec` / `dec x4` superinstructions (the traffic rc-opt
    /// removes).
    pub rc_cells: u64,
}

/// All knob rows for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload name.
    pub name: String,
    /// One row per [`knob_configs`] entry, in ladder order.
    pub rows: Vec<KnobResult>,
}

impl BenchRecord {
    /// The row for a config label, if measured.
    pub fn row(&self, config: &str) -> Option<&KnobResult> {
        self.rows.iter().find(|r| r.config == config)
    }

    /// Within-run wall-time ratio of a rung over `full` (e.g.
    /// `full_nofuse` / `full`: how much slower the run is without that
    /// knob).
    ///
    /// # Panics
    ///
    /// Panics if either row is missing.
    pub fn ratio(&self, config: &str) -> f64 {
        self.row(config).expect("config row").wall_ms / self.row("full").expect("full row").wall_ms
    }
}

/// Measures one workload under every knob configuration. The workload
/// compiles twice — once with the full MLIR pipeline, once with rc-opt
/// disabled for the `full_norc` rung — then the configs run in
/// interleaved rounds — `full`, `full_nofuse`, `full_norc`, then the whole
/// ladder again —
/// and each row keeps its best time, so system-wide slow phases cannot
/// bias one config against another.
///
/// # Panics
///
/// Panics if the workload fails to compile or run — benchmarks must be
/// green before being timed.
pub fn measure_workload(w: &Workload, runs: usize, max_steps: u64) -> BenchRecord {
    assert!(runs >= 1);
    let program =
        compile(&w.src, CompilerConfig::mlir()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let norc_config = CompilerConfig {
        backend: Backend::Mlir(PipelineOptions {
            rc_opt: false,
            ..PipelineOptions::full()
        }),
        ..CompilerConfig::mlir()
    };
    let program_norc = compile(&w.src, norc_config).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let configs = knob_configs();
    let mut best: Vec<Option<KnobResult>> = vec![None; configs.len()];
    for _ in 0..runs {
        for (slot, cfg) in best.iter_mut().zip(&configs) {
            let program = if cfg.rc_opt { &program } else { &program_norc };
            let decoded = program.decoded(cfg.decode);
            let start = Instant::now();
            let out =
                lssa_vm::run_decoded_with(&decoded, "main", max_steps, ExecOptions::default())
                    .expect("benchmark");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(out.stats.heap.live, 0, "benchmark leaked");
            let stats = out.vm_stats;
            if slot.as_ref().is_none_or(|r| wall_ms < r.wall_ms) {
                *slot = Some(KnobResult {
                    config: cfg.label,
                    wall_ms,
                    instructions: stats.instructions,
                    fused_cells: stats.fused_cells,
                    fused_share: stats.fused_share(),
                    heap_allocs: stats.heap.allocs,
                    rc_cells: stats.executed_of(OpClass::Rc)
                        + stats.executed_of(OpClass::FusedDec2)
                        + stats.executed_of(OpClass::FusedDec4),
                });
            }
        }
    }
    BenchRecord {
        name: w.name.to_string(),
        rows: best.into_iter().map(|r| r.expect("runs >= 1")).collect(),
    }
}

/// Measures every given workload ([`measure_workload`]).
///
/// # Panics
///
/// See [`measure_workload`].
pub fn run_suite(workloads: &[Workload], runs: usize, max_steps: u64) -> Vec<BenchRecord> {
    workloads
        .iter()
        .map(|w| measure_workload(w, runs, max_steps))
        .collect()
}

/// The conventional output path for a scale: `BENCH_<scale>.json`.
pub fn default_path(scale_label: &str) -> String {
    format!("BENCH_{scale_label}.json")
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn row_json(out: &mut String, m: &KnobResult) {
    let _ = write!(
        out,
        "      \"{}\": {{ \"wall_ms\": {:.3}, \"instructions\": {}, \
         \"fused_cells\": {}, \"fused_share\": {:.4}, \"heap_allocs\": {}, \
         \"rc_cells\": {} }}",
        m.config,
        m.wall_ms,
        m.instructions,
        m.fused_cells,
        m.fused_share,
        m.heap_allocs,
        m.rc_cells
    );
}

/// Serializes the records. `scale_label` and `runs` document how the
/// numbers were produced; wall times are milliseconds, `fused_share` is a
/// 0..=1 fraction of executed cells.
pub fn render_json(scale_label: &str, runs: usize, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"scale\": \"");
    escape_into(&mut out, scale_label);
    let _ = writeln!(out, "\",\n  \"runs\": {runs},");
    out.push_str("  \"configs\": [");
    for (i, cfg) in knob_configs().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", cfg.label);
    }
    out.push_str("],\n  \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n      \"name\": \"");
        escape_into(&mut out, &r.name);
        out.push_str("\",\n");
        for (j, m) in r.rows.iter().enumerate() {
            row_json(&mut out, m);
            out.push_str(if j + 1 < r.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("    }");
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One `(workload, config)` row recovered from a committed baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Workload name.
    pub name: String,
    /// Config label (`full`, `full_nofuse`, …).
    pub config: String,
    /// Recorded median wall time in milliseconds.
    pub wall_ms: f64,
    /// Recorded deterministic instruction count.
    pub instructions: u64,
    /// Recorded executed rc-cell count (`None` in baselines written
    /// before the counter existed).
    pub rc_cells: Option<u64>,
}

fn field_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Recovers the `(workload, config, wall, instructions)` rows from a
/// baseline file previously written by [`render_json`]. Line-oriented by
/// design: it accepts exactly the shape this module emits.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineRow>, String> {
    let mut rows = Vec::new();
    let mut name: Option<String> = None;
    for line in json.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("\"name\": \"") {
            let n = rest
                .strip_suffix("\",")
                .ok_or_else(|| format!("malformed name line: {t}"))?;
            name = Some(n.to_string());
            continue;
        }
        if t.contains("\"wall_ms\":") {
            let config = t
                .strip_prefix('"')
                .and_then(|r| r.split_once('"'))
                .map(|(c, _)| c.to_string())
                .ok_or_else(|| format!("malformed row line: {t}"))?;
            let wall_ms = field_after(t, "wall_ms")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad wall_ms in: {t}"))?;
            let instructions = field_after(t, "instructions")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad instructions in: {t}"))?;
            let rc_cells = field_after(t, "rc_cells").and_then(|v| v.parse().ok());
            rows.push(BaselineRow {
                name: name
                    .clone()
                    .ok_or_else(|| format!("row before name: {t}"))?,
                config,
                wall_ms,
                instructions,
                rc_cells,
            });
        }
    }
    if rows.is_empty() {
        return Err("no benchmark rows found in baseline".to_string());
    }
    Ok(rows)
}

/// The result of checking fresh measurements against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Rows compared (workload × config pairs present in both sets).
    pub compared: usize,
    /// Human-readable regression descriptions; empty means the check
    /// passed.
    pub failures: Vec<String>,
}

/// Compares fresh measurements against a committed baseline: instruction
/// counts must match **exactly** (they are deterministic), wall time may
/// regress by at most `tolerance_pct` percent. A fresh row missing from
/// the baseline is skipped (new workloads are not regressions); a
/// baseline row missing from the fresh set is a failure (a workload or
/// config silently disappeared).
pub fn check_against(
    baseline: &[BaselineRow],
    fresh: &[BenchRecord],
    tolerance_pct: f64,
) -> CheckOutcome {
    let mut failures = Vec::new();
    let mut compared = 0;
    for b in baseline {
        let Some(row) = fresh
            .iter()
            .find(|r| r.name == b.name)
            .and_then(|r| r.row(&b.config))
        else {
            failures.push(format!(
                "{}/{}: row missing from fresh run",
                b.name, b.config
            ));
            continue;
        };
        compared += 1;
        if row.instructions != b.instructions {
            failures.push(format!(
                "{}/{}: instructions changed {} -> {} (deterministic counter; \
                 regenerate the baseline if intentional)",
                b.name, b.config, b.instructions, row.instructions
            ));
        }
        let limit = b.wall_ms * (1.0 + tolerance_pct / 100.0);
        if row.wall_ms > limit {
            failures.push(format!(
                "{}/{}: wall time {:.3}ms exceeds baseline {:.3}ms by more than {}%",
                b.name, b.config, row.wall_ms, b.wall_ms, tolerance_pct
            ));
        }
    }
    CheckOutcome { compared, failures }
}

/// Noise floor for wall-time deltas in [`render_diff`]: changes within
/// ±this percentage are annotated as noise rather than wins/regressions.
pub const DIFF_NOISE_PCT: f64 = 5.0;

/// Formats a signed delta between two counter values: `=` when equal,
/// otherwise `+N`/`-N` with the percentage change.
fn counter_delta(old: u64, new: u64) -> String {
    if old == new {
        return "=".to_string();
    }
    let delta = new as i64 - old as i64;
    let pct = if old == 0 {
        f64::INFINITY
    } else {
        delta as f64 * 100.0 / old as f64
    };
    format!("{delta:+} ({pct:+.1}%)")
}

/// Renders the per-workload, per-config delta table between two baseline
/// files (`lssa bench --diff old.json new.json`). Wall-time deltas
/// within ±[`DIFF_NOISE_PCT`] percent are annotated `~noise` — wall
/// times are the only noisy column; the instruction and rc-cell counters
/// are deterministic, so any delta there is a real compiler/VM change.
/// Rows present on only one side are called out instead of silently
/// dropped.
pub fn render_diff(old: &[BaselineRow], new: &[BaselineRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<15} {:>9} {:>9} {:>8}  {:>16}  {:>16}  note",
        "workload", "config", "old ms", "new ms", "wall", "instructions", "rc_cells"
    );
    for n in new {
        let Some(o) = old
            .iter()
            .find(|o| o.name == n.name && o.config == n.config)
        else {
            let _ = writeln!(
                out,
                "{:<16} {:<15} {:>9} {:>9.3} {:>8}  {:>16}  {:>16}  added (no old row)",
                n.name, n.config, "-", n.wall_ms, "-", n.instructions, "-"
            );
            continue;
        };
        let wall_pct = if o.wall_ms > 0.0 {
            (n.wall_ms - o.wall_ms) * 100.0 / o.wall_ms
        } else {
            0.0
        };
        let note = if wall_pct.abs() <= DIFF_NOISE_PCT {
            "~noise"
        } else if wall_pct < 0.0 {
            "faster"
        } else {
            "slower"
        };
        let rc = match (o.rc_cells, n.rc_cells) {
            (Some(a), Some(b)) => counter_delta(a, b),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<16} {:<15} {:>9.3} {:>9.3} {:>+7.1}%  {:>16}  {:>16}  {}",
            n.name,
            n.config,
            o.wall_ms,
            n.wall_ms,
            wall_pct,
            counter_delta(o.instructions, n.instructions),
            rc,
            note
        );
    }
    for o in old {
        if !new.iter().any(|n| n.name == o.name && n.config == o.config) {
            let _ = writeln!(
                out,
                "{:<16} {:<15} {:>9.3} {:>9} {:>8}  {:>16}  {:>16}  removed (no new row)",
                o.name, o.config, o.wall_ms, "-", "-", o.instructions, "-"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Scale};

    #[test]
    fn measures_and_serializes_a_workload() {
        let w = by_name("filter", Scale::Test).unwrap();
        let r = measure_workload(&w, 2, 500_000_000);
        let full = r.row("full").unwrap();
        let nofuse = r.row("full_nofuse").unwrap();
        let norc = r.row("full_norc").unwrap();
        assert_eq!(nofuse.heap_allocs, full.heap_allocs, "same program");
        assert!(full.instructions < nofuse.instructions, "fusion cuts cells");
        assert!(
            full.rc_cells < norc.rc_cells,
            "rc-opt must cut executed rc cells ({} vs {})",
            full.rc_cells,
            norc.rc_cells
        );
        assert!(
            full.instructions <= norc.instructions,
            "rc-opt only removes cells"
        );
        assert!(full.fused_cells > 0);
        assert_eq!(nofuse.fused_cells, 0);
        assert!(r.ratio("full_nofuse") > 0.0);
        let json = render_json("test", 2, std::slice::from_ref(&r));
        assert!(json.contains("\"name\": \"filter\""));
        for cfg in knob_configs() {
            assert!(
                json.contains(&format!("\"{}\":", cfg.label)),
                "{}",
                cfg.label
            );
        }
        // Brackets balance (cheap well-formedness check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The baseline parser round-trips what the renderer wrote.
        let rows = parse_baseline(&json).unwrap();
        assert_eq!(rows.len(), knob_configs().len());
        assert_eq!(rows[0].name, "filter");
        assert_eq!(rows[0].config, "full");
        assert_eq!(rows[0].instructions, full.instructions);
        assert_eq!(rows[0].rc_cells, Some(full.rc_cells));
        assert!((rows[0].wall_ms - full.wall_ms).abs() < 0.001);
        // And checking fresh-vs-own-baseline passes. The JSON rounds walls
        // to 3 decimals, so the parsed baseline can sit up to 0.0005ms
        // below the in-memory value — several percent of a sub-0.01ms
        // quick wall; the tolerance must cover that slack.
        let outcome = check_against(&rows, std::slice::from_ref(&r), 25.0);
        assert_eq!(outcome.compared, rows.len());
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    }

    #[test]
    fn check_flags_instruction_and_wall_regressions() {
        let fresh = BenchRecord {
            name: "w".into(),
            rows: vec![KnobResult {
                config: "full",
                wall_ms: 2.0,
                instructions: 100,
                fused_cells: 0,
                fused_share: 0.0,
                heap_allocs: 0,
                rc_cells: 0,
            }],
        };
        let baseline = vec![
            BaselineRow {
                name: "w".into(),
                config: "full".into(),
                wall_ms: 1.0,
                instructions: 99,
                rc_cells: None,
            },
            BaselineRow {
                name: "gone".into(),
                config: "full".into(),
                wall_ms: 1.0,
                instructions: 1,
                rc_cells: None,
            },
        ];
        let out = check_against(&baseline, std::slice::from_ref(&fresh), 10.0);
        assert_eq!(out.compared, 1);
        assert_eq!(out.failures.len(), 3, "{:?}", out.failures);
        assert!(out.failures.iter().any(|f| f.contains("instructions")));
        assert!(out.failures.iter().any(|f| f.contains("wall time")));
        assert!(out.failures.iter().any(|f| f.contains("missing")));
        // Generous tolerance forgives the wall slip but not the counter.
        let out = check_against(&baseline[..1], std::slice::from_ref(&fresh), 200.0);
        assert_eq!(out.failures.len(), 1);
    }

    #[test]
    fn diff_annotates_noise_and_counters() {
        let row = |name: &str, config: &str, wall, instructions, rc| BaselineRow {
            name: name.into(),
            config: config.into(),
            wall_ms: wall,
            instructions,
            rc_cells: rc,
        };
        let old = vec![
            row("qsort", "full", 10.0, 1000, Some(300)),
            row("qsort", "full_norc", 12.0, 1200, Some(900)),
            row("gone", "full", 1.0, 10, None),
        ];
        let new = vec![
            row("qsort", "full", 10.2, 1000, Some(300)),
            row("qsort", "full_norc", 9.0, 1100, Some(700)),
            row("fresh", "full", 2.0, 20, Some(5)),
        ];
        let table = render_diff(&old, &new);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[1].contains("~noise"), "{table}");
        assert!(lines[1].contains('='), "unchanged counters: {table}");
        assert!(lines[2].contains("faster"), "{table}");
        assert!(lines[2].contains("-100 (-8.3%)"), "{table}");
        assert!(lines[2].contains("-200 (-22.2%)"), "{table}");
        assert!(lines[3].contains("added"), "{table}");
        assert!(lines[4].contains("removed"), "{table}");
    }

    /// The `qsort` record of the committed test-scale baseline as it was
    /// written before the `base`, `threaded` and `threaded_cache` rungs
    /// were retired: six rows with cache counters, then a per-workload
    /// `speedup` and a `geomean_speedup`.
    const OLD_LADDER_JSON: &str = r#"{
  "scale": "test",
  "runs": 5,
  "configs": ["base", "threaded", "threaded_cache", "full", "full_nofuse", "full_norc"],
  "workloads": [
    {
      "name": "qsort",
      "base": { "wall_ms": 0.069, "instructions": 2045, "fused_cells": 17, "fused_share": 0.1247, "heap_allocs": 11, "cache_hits": 0, "cache_misses": 0, "rc_cells": 321 },
      "threaded": { "wall_ms": 0.021, "instructions": 2045, "fused_cells": 17, "fused_share": 0.1247, "heap_allocs": 11, "cache_hits": 0, "cache_misses": 0, "rc_cells": 321 },
      "threaded_cache": { "wall_ms": 0.018, "instructions": 2045, "fused_cells": 17, "fused_share": 0.1247, "heap_allocs": 11, "cache_hits": 18, "cache_misses": 5, "rc_cells": 321 },
      "full": { "wall_ms": 0.021, "instructions": 2045, "fused_cells": 17, "fused_share": 0.1247, "heap_allocs": 11, "cache_hits": 18, "cache_misses": 5, "rc_cells": 321 },
      "full_nofuse": { "wall_ms": 0.021, "instructions": 2370, "fused_cells": 0, "fused_share": 0.0000, "heap_allocs": 11, "cache_hits": 18, "cache_misses": 5, "rc_cells": 379 },
      "full_norc": { "wall_ms": 0.021, "instructions": 2817, "fused_cells": 17, "fused_share": 0.0905, "heap_allocs": 11, "cache_hits": 18, "cache_misses": 5, "rc_cells": 1093 },
      "speedup": 3.209
    }
  ],
  "geomean_speedup": 3.209
}
"#;

    #[test]
    fn diff_reads_pre_retirement_baselines_and_lists_retired_rungs_as_removed() {
        let old = parse_baseline(OLD_LADDER_JSON).unwrap();
        assert_eq!(old.len(), 6);
        let full = old.iter().find(|r| r.config == "full").unwrap();
        assert_eq!(full.instructions, 2045);
        assert_eq!(full.rc_cells, Some(321));
        // Today's three rungs, as `render_json` writes them now.
        let fresh = BenchRecord {
            name: "qsort".into(),
            rows: old
                .iter()
                .filter_map(|o| {
                    let cfg = knob_configs().into_iter().find(|c| c.label == o.config)?;
                    Some(KnobResult {
                        config: cfg.label,
                        wall_ms: o.wall_ms,
                        instructions: o.instructions,
                        fused_cells: 0,
                        fused_share: 0.0,
                        heap_allocs: 0,
                        rc_cells: o.rc_cells.unwrap(),
                    })
                })
                .collect(),
        };
        assert_eq!(fresh.rows.len(), 3);
        let new = parse_baseline(&render_json("test", 5, &[fresh])).unwrap();
        let table = render_diff(&old, &new);
        let removed: Vec<&str> = table
            .lines()
            .filter(|l| l.ends_with("removed (no new row)"))
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        assert_eq!(removed, ["base", "threaded", "threaded_cache"], "{table}");
        for config in ["full", "full_nofuse", "full_norc"] {
            let line = table
                .lines()
                .find(|l| l.split_whitespace().nth(1) == Some(config))
                .unwrap();
            assert!(line.contains("~noise"), "{table}");
            assert!(!line.contains("added"), "{table}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn default_path_is_scale_keyed() {
        assert_eq!(default_path("bench"), "BENCH_bench.json");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("\"wall_ms\": nope").is_err());
    }
}
