//! End-to-end benchmark of lambda-ssa: source text → checksum.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_suite|compile_wide|batch_small --seed N --seconds S --trace 0|1
//! ```
//!
//! A single-threaded closed loop: one client, and the next job starts only
//! when the previous one has ended. Every output is checked against the λ
//! interpreter's reference. Layers are timed from outside, around calls
//! into the program's public functions. See `README.md` for the workloads
//! and metrics.

mod alloc;
mod calib;
mod gen;
mod job;
mod trace;

use calib::Calibration;
use gen::Rng;
use job::{Counts, Input, LayerCounts, Workload};
use lssa_driver::jobs::JobSpec;
use lssa_vm::DecodedProgram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of a traced run spent on job pairs; the rest times Fig. 9.
const TRACE_SHARE: f64 = 0.7;
/// Failure messages printed per run before going quiet.
const MAX_REPORTED: u64 = 10;
/// Where result records and spans are written, inside the checkout.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: lssa-e2ebench --workload paper_suite|compile_wide|batch_small \
--seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload_name = get("--workload")?.to_string();
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    let number = |k: &str| -> Result<u64, String> {
        let v = get(k)?;
        v.parse().map_err(|_| format!("invalid {k} `{v}`"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("invalid --trace `{v}`")),
    };
    Ok(Args {
        workload,
        workload_name,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Exits loudly when a count that must be deterministic changes between
/// two runs of the same input.
struct Ledger<T> {
    what: &'static str,
    seen: Vec<Option<T>>,
}

impl<T: PartialEq + Copy + std::fmt::Debug> Ledger<T> {
    fn new(what: &'static str, n: usize) -> Ledger<T> {
        Ledger {
            what,
            seen: vec![None; n],
        }
    }

    fn check(&mut self, i: usize, name: &str, value: T) {
        match self.seen[i] {
            None => self.seen[i] = Some(value),
            Some(prev) if prev == value => {}
            Some(prev) => {
                eprintln!(
                    "determinism check failed: {} of {name} changed from {prev:?} to {value:?}",
                    self.what
                );
                std::process::exit(3);
            }
        }
    }

    fn sum(&self, f: impl Fn(&T) -> u64) -> f64 {
        self.seen.iter().flatten().map(f).sum::<u64>() as f64
    }
}

/// Failure bookkeeping shared by every loop of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, input: &Input, got: Option<&Result<String, String>>) -> bool {
        self.attempted += 1;
        let ok = got.is_some_and(|g| job::agrees(&input.expected, g));
        if !ok {
            self.failed += 1;
            if self.failed <= MAX_REPORTED {
                match got {
                    Some(g) => {
                        eprintln!("{}: expected {:?}, got {g:?}", input.name, input.expected)
                    }
                    None => eprintln!("{}: panicked", input.name),
                }
            }
        }
        ok
    }
}

/// Runs `f`, turning a panic into `None` so the run continues.
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Everything one run shares: the inputs, the ledgers, and the machine's
/// speed over time.
struct Bench<'a> {
    args: &'a Args,
    spec: JobSpec,
    inputs: Vec<Input>,
    counts: Ledger<Counts>,
    /// The compiler's peak heap per input, untraced jobs only (the tracer's
    /// own spans would count).
    peaks: Ledger<usize>,
    tally: Tally,
    cal: Calibration,
}

/// One job's wall times in ms, and when it started.
struct Sample {
    input: usize,
    at: f64,
    job: f64,
    compile: f64,
    run: f64,
}

/// Each input's median, one value per input that ran; percentiles over
/// these describe the typical job. Every input weighs the same however
/// many jobs it ran, and a median never falls into the gap between two
/// inputs' clusters of times.
fn typical_per_input(values: &[(usize, f64)], n_inputs: usize) -> Vec<f64> {
    let mut by_input = vec![Vec::new(); n_inputs];
    for &(i, v) in values {
        by_input[i].push(v);
    }
    by_input
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| quantile(v, 0.5))
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    let mut cal = Calibration::new();
    let spec = job::batch_spec();
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    let mut counts = None;
    let mut peaks = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        cal.read();
        let at = cal.now();
        let t0 = Instant::now();
        inputs = job::inputs(args.workload, args.seed)?;
        let ledger = counts.get_or_insert_with(|| Ledger::new("counts", inputs.len()));
        let peak = peaks.get_or_insert_with(|| Ledger::new("compile peak", inputs.len()));
        for (i, input) in inputs.iter().enumerate() {
            if let Some(t) = guarded(|| job::run_untraced(args.workload, input, &spec)) {
                if job::agrees(&input.expected, &t.output) {
                    ledger.check(i, &input.name, t.counts);
                    peak.check(i, &input.name, t.compile_peak);
                }
            }
        }
        let took = t0.elapsed().as_secs_f64();
        cal.read();
        setups.push(took * cal.factor(at + took / 2.0));
    }
    let mut bench = Bench {
        args,
        spec,
        counts: counts.expect("set-up ran"),
        peaks: peaks.expect("set-up ran"),
        inputs,
        tally: Tally::default(),
        cal,
    };
    let (metrics, layers, spans) = if args.trace {
        let (metrics, layers, tracer) = bench.traced()?;
        (metrics, Some(layers), Some(tracer))
    } else {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", median(&setups), "s");
        bench.measure(&mut metrics);
        (metrics, None, None)
    };
    let tally = &bench.tally;
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    let machine = Machine {
        cpu: cpu_model(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        calib_ms: bench.cal.median_ms(),
    };
    let digest = digest(&format!(
        "{:?}{:?}{layers:?}",
        bench.counts.seen, bench.peaks.seen
    ));
    write_outputs(args, &machine, digest, &result, spans.as_ref());
    println!(
        "machine: cpu=\"{}\" nproc={} calib_ms={:.4} counts_digest={digest:016x}",
        machine.cpu, machine.nproc, machine.calib_ms
    );
    println!("{result}");
    Ok(())
}

impl Bench<'_> {
    /// A fresh seeded job order for every round.
    fn order_rng(&self) -> (Rng, Vec<usize>) {
        (
            Rng::new(self.args.seed ^ 0x6a09_e667_f3bc_c909),
            (0..self.inputs.len()).collect(),
        )
    }

    /// The untraced run: whole rounds over every input until `--seconds`
    /// have passed, then the end-to-end metrics. Times are scaled to
    /// nominal machine speed (see [`calib`]).
    fn measure(&mut self, m: &mut Metrics) {
        let (mut rng, mut order) = self.order_rng();
        let deadline = Duration::from_secs(self.args.seconds);
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < deadline {
            rng.shuffle(&mut order);
            for &i in &order {
                self.cal.tick();
                let at = self.cal.now();
                let input = &self.inputs[i];
                let t = guarded(|| job::run_untraced(self.args.workload, input, &self.spec));
                if self.tally.record(input, t.as_ref().map(|t| &t.output)) {
                    let t = t.expect("recorded as ok");
                    self.counts.check(i, &input.name, t.counts);
                    self.peaks.check(i, &input.name, t.compile_peak);
                    samples.push(Sample {
                        input: i,
                        at,
                        job: t.job.as_secs_f64() * 1e3,
                        compile: t.compile.as_secs_f64() * 1e3,
                        run: t.run.as_secs_f64() * 1e3,
                    });
                }
            }
        }
        self.cal.read();
        let n = self.inputs.len();
        let scaled = |f: fn(&Sample) -> f64| -> Vec<f64> {
            let v: Vec<(usize, f64)> = samples
                .iter()
                .map(|s| (s.input, f(s) * self.cal.factor(s.at)))
                .collect();
            typical_per_input(&v, n)
        };
        let job = scaled(|s| s.job);
        let compile = scaled(|s| s.compile);
        let run = scaled(|s| s.run);
        let round_s = job.iter().sum::<f64>() / 1e3;
        m.push("jobs_per_s", ratio(job.len() as f64, round_s), "1/s");
        m.push("job_ms_p50", quantile(&job, 0.5), "ms");
        m.push("job_ms_p90", quantile(&job, 0.9), "ms");
        m.push("compile_ms_p50", quantile(&compile, 0.5), "ms");
        m.push("compile_ms_p90", quantile(&compile, 0.9), "ms");
        m.push("run_ms_p50", quantile(&run, 0.5), "ms");
        m.push("run_ms_p90", quantile(&run, 0.9), "ms");
        // The mean over inputs: the largest of 648 generated programs, or a
        // high percentile, moves with the seed by 10-20%.
        let n_peaks = self.peaks.seen.iter().flatten().count() as f64;
        let peak_mb = self.peaks.sum(|&p| p as u64) / 1e6;
        m.push("compile_peak_mb", ratio(peak_mb, n_peaks), "MB");
        m.push("code_cells", self.counts.sum(|c| c.code_cells), "count");
        m.push("vm_cells", self.counts.sum(|c| c.vm_cells), "count");
        let ok = self.tally.attempted - self.tally.failed;
        m.push(
            "ok_rate",
            ratio(ok as f64, self.tally.attempted as f64),
            "ratio",
        );
    }

    /// The traced run: an untraced and a traced job of the same input back
    /// to back (alternating which goes first) for [`TRACE_SHARE`] of the
    /// time, then the Fig. 9 backend comparison for the rest.
    fn traced(&mut self) -> Result<(Metrics, Vec<Option<LayerCounts>>, Tracer), String> {
        let backends = self.fig9_programs()?;
        let (mut rng, mut order) = self.order_rng();
        let deadline = Duration::from_secs(self.args.seconds);
        let mut tr = Tracer::new();
        let mut layer = Ledger::<LayerCounts>::new("layer counts", self.inputs.len());
        let mut untraced = Vec::new();
        let mut jobs = Vec::new();
        let mut phases: BTreeMap<String, BTreeMap<u32, f64>> = BTreeMap::new();
        let start = Instant::now();
        let mut id = 0u32;
        while start.elapsed().as_secs_f64() < deadline.as_secs_f64() * TRACE_SHARE {
            rng.shuffle(&mut order);
            for &i in &order {
                self.cal.tick();
                let input = &self.inputs[i];
                let traced_first = id.is_multiple_of(2);
                for traced_turn in [traced_first, !traced_first] {
                    let at = self.cal.now();
                    if traced_turn {
                        tr.set_job(id);
                        let t = guarded(|| {
                            job::run_traced(self.args.workload, input, &self.spec, &mut tr)
                        });
                        tr.close_all();
                        if self.tally.record(input, t.as_ref().map(|t| &t.output)) {
                            let t = t.expect("recorded as ok");
                            self.counts.check(i, &input.name, t.counts);
                            layer.check(i, &input.name, t.layer);
                            for (phase, ms) in t.phases {
                                *phases.entry(phase).or_default().entry(id).or_insert(0.0) += ms;
                            }
                            jobs.push(TracedJob { id, input: i, at });
                        }
                    } else {
                        let t =
                            guarded(|| job::run_untraced(self.args.workload, input, &self.spec));
                        if self.tally.record(input, t.as_ref().map(|t| &t.output)) {
                            let t = t.expect("recorded as ok");
                            self.counts.check(i, &input.name, t.counts);
                            untraced.push((i, at, t.job.as_secs_f64() * 1e3));
                        }
                    }
                }
                id += 1;
            }
        }
        self.cal.read();
        let fig9 = self.fig9_ratio(&backends, deadline, start, &mut rng, &mut order);
        let untraced: Vec<(usize, f64)> = untraced
            .iter()
            .map(|&(i, at, ms)| (i, ms * self.cal.factor(at)))
            .collect();
        let metrics = self.layer_metrics(&tr, &jobs, &phases, &layer, &untraced, fig9);
        Ok((metrics, layer.seen, tr))
    }

    /// Each input compiled under the paper's backend and the leanc-style
    /// baseline, decoded, for the Fig. 9 comparison.
    fn fig9_programs(&self) -> Result<Vec<[Arc<DecodedProgram>; 2]>, String> {
        use lssa_driver::pipelines::{compile, compile_ast_with_report, CompilerConfig};
        let build = |input: &Input, config: CompilerConfig| -> Result<_, String> {
            let compiled = if self.args.workload == Workload::BatchSmall {
                compile(&input.text, config).map_err(|e| e.to_string())?
            } else {
                let ast = lssa_syntax::parse_program(&input.text)
                    .map_err(|d| format!("{}: {} diagnostics", input.name, d.len()))?;
                compile_ast_with_report(&ast, config)
                    .map_err(|e| e.to_string())?
                    .0
            };
            Ok(compiled.decoded(self.spec.decode))
        };
        self.inputs
            .iter()
            .map(|input| {
                Ok([
                    build(input, CompilerConfig::mlir())?,
                    build(input, CompilerConfig::leanc())?,
                ])
            })
            .collect()
    }

    /// Leanc-style run time ÷ mlir run time: the geomean over inputs of
    /// the ratio of their median run times. Both backends run back to
    /// back, alternating which goes first, so the machine's speed cancels;
    /// every output is checked.
    fn fig9_ratio(
        &mut self,
        backends: &[[Arc<DecodedProgram>; 2]],
        deadline: Duration,
        start: Instant,
        rng: &mut Rng,
        order: &mut [usize],
    ) -> f64 {
        let mut ns: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; self.inputs.len()];
        let mut turn = 0usize;
        loop {
            rng.shuffle(order);
            for &i in order.iter() {
                for k in [turn % 2, 1 - turn % 2] {
                    let t0 = Instant::now();
                    let out = guarded(|| {
                        lssa_vm::run_decoded_with(
                            &backends[i][k],
                            "main",
                            job::MAX_STEPS,
                            Default::default(),
                        )
                        .map(|o| o.rendered)
                        .map_err(|e| e.to_string())
                    });
                    let took = t0.elapsed().as_secs_f64() * 1e9;
                    if self.tally.record(&self.inputs[i], out.as_ref()) {
                        ns[i][k].push(took);
                    }
                }
                turn += 1;
            }
            if start.elapsed() >= deadline {
                break;
            }
        }
        let logs: Vec<f64> = ns
            .iter()
            .filter(|[m, l]| !m.is_empty() && !l.is_empty())
            .map(|[m, l]| (median(l) / median(m)).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
    }

    /// Per-layer metrics of a traced run. Times are each layer's self time
    /// in a job, scaled to nominal speed, as the typical job (median over
    /// inputs of each input's median); counts are totals over one pass of
    /// the inputs (each input's counts repeat exactly, see [`Ledger`]).
    fn layer_metrics(
        &self,
        tr: &Tracer,
        jobs: &[TracedJob],
        phases: &BTreeMap<String, BTreeMap<u32, f64>>,
        layer: &Ledger<LayerCounts>,
        untraced: &[(usize, f64)],
        fig9: f64,
    ) -> Metrics {
        let n = self.inputs.len();
        let factor: Vec<f64> = jobs.iter().map(|j| self.cal.factor(j.at)).collect();
        // Per traced job, scaled; 0 where the layer did no work.
        let per_job = |m: Option<&BTreeMap<u32, f64>>| -> Vec<f64> {
            jobs.iter()
                .zip(&factor)
                .map(|(j, f)| m.and_then(|m| m.get(&j.id)).map_or(0.0, |v| v * f))
                .collect()
        };
        let typical = |v: &[f64]| -> f64 {
            let pairs: Vec<(usize, f64)> = jobs
                .iter()
                .map(|j| j.input)
                .zip(v.iter().copied())
                .collect();
            quantile(&typical_per_input(&pairs, n), 0.5)
        };
        let selfs = tr.self_ms();
        let self_of = |name: &str| per_job(selfs.get(name));
        let total_of = |name: &str| per_job(Some(&tr.total_ms(name)));
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let of_inputs =
            |f: &dyn Fn(usize) -> f64| -> Vec<f64> { jobs.iter().map(|j| f(j.input)).collect() };
        let bytes = of_inputs(&|i| layer.seen[i].map_or(0.0, |c| c.syntax_bytes as f64));
        let cells = of_inputs(&|i| self.counts.seen[i].map_or(0.0, |c| c.vm_cells as f64));

        let mut m = Metrics::default();
        let parse = self_of("syntax.parse");
        m.push("syntax.parse_ms", typical(&parse), "ms");
        m.push("syntax.bytes", layer.sum(|c| c.syntax_bytes), "count");
        m.push(
            "syntax.mb_per_s",
            ratio(sum(&bytes) / 1e6, sum(&parse) / 1e3),
            "MB/s",
        );
        for (metric, span) in [
            ("lambda.parse_ms", "lambda.parse"),
            ("lambda.check_ms", "lambda.check"),
            ("lambda.simplify_ms", "lambda.simplify"),
            ("lambda.insert_rc_ms", "lambda.insert_rc"),
        ] {
            m.push(metric, typical(&self_of(span)), "ms");
        }
        m.push("lambda.nodes_in", layer.sum(|c| c.nodes_in), "count");
        m.push("lambda.nodes_rc", layer.sum(|c| c.nodes_rc), "count");

        let core = total_of("core.compile");
        let in_phases: Vec<f64> = jobs
            .iter()
            .zip(&factor)
            .map(|(j, f)| phases.values().filter_map(|p| p.get(&j.id)).sum::<f64>() * f)
            .collect();
        let lower: Vec<f64> = core
            .iter()
            .zip(&in_phases)
            .map(|(c, p)| (c - p).max(0.0))
            .collect();
        m.push("core.compile_ms", typical(&core), "ms");
        m.push("core.lower_ms", typical(&lower), "ms");
        for (metric, pipeline) in [
            ("core.rgn_opt_ms", "rgn-opt"),
            ("core.lower_cfg_ms", "lower-cfg"),
            ("core.generic_opt_ms", "generic-opt"),
            ("core.rc_opt_ms", "rc-opt"),
            ("core.tco_ms", "tco"),
            ("core.cleanup_ms", "cleanup"),
        ] {
            m.push(metric, typical(&per_job(phases.get(pipeline))), "ms");
        }
        m.push("core.ops_out", layer.sum(|c| c.ops_out), "count");
        m.push("core.sweeps", layer.sum(|c| c.sweeps), "count");
        m.push("core.fig9_ratio", fig9, "ratio");
        m.push("ir.verify_ms", typical(&self_of("ir.verify")), "ms");

        m.push("vm.bytecode_ms", typical(&self_of("vm.bytecode")), "ms");
        m.push("vm.decode_ms", typical(&self_of("vm.decode")), "ms");
        m.push("vm.code_cells", self.counts.sum(|c| c.code_cells), "count");
        m.push("vm.fused_cells", layer.sum(|c| c.fused_cells), "count");
        let run = self_of("vm.run");
        let round_cells = self.counts.sum(|c| c.vm_cells);
        m.push("vm.run_ms", typical(&run), "ms");
        m.push("vm.cells", round_cells, "count");
        m.push("vm.ns_per_cell", ratio(sum(&run) * 1e6, sum(&cells)), "ns");
        m.push("vm.calls", layer.sum(|c| c.calls), "count");
        m.push("vm.rc_cells", layer.sum(|c| c.rc_cells), "count");
        m.push(
            "vm.fused_share",
            ratio(layer.sum(|c| c.fused_exec), round_cells),
            "ratio",
        );
        m.push("vm.frame_allocs", layer.sum(|c| c.frame_allocs), "count");

        m.push("rt.allocs", layer.sum(|c| c.rt_allocs), "count");
        let peak = layer.seen.iter().flatten().map(|c| c.rt_peak_bytes).max();
        m.push("rt.peak_bytes", peak.unwrap_or(0) as f64, "bytes");
        m.push("rt.rc_ops", layer.sum(|c| c.rt_rc_ops), "count");
        m.push("rt.teardown_ms", typical(&self_of("rt.teardown")), "ms");

        m.push("jobs.execute_ms", typical(&self_of("jobs.execute")), "ms");
        m.push("jobs.attempts", layer.sum(|c| c.attempts), "count");

        // Traced job time, less the benchmark's own counting inside it.
        let traced: Vec<f64> = total_of("job")
            .iter()
            .zip(total_of("bench.count"))
            .map(|(j, c)| j - c)
            .collect();
        let untraced = quantile(&typical_per_input(untraced, n), 0.5);
        m.push(
            "trace.overhead_pct",
            (ratio(typical(&traced), untraced) - 1.0) * 100.0,
            "%",
        );
        let tally = &self.tally;
        m.push(
            "fail_rate",
            ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        );
        m
    }
}

/// A traced job that matched its reference.
struct TracedJob {
    id: u32,
    input: usize,
    at: f64,
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (k, (name, value, unit)) in self.0.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// FNV-1a, for a short fingerprint of every deterministic count.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the numbers were measured on, so results from different machines
/// are not read as regressions.
struct Machine {
    cpu: String,
    nproc: usize,
    /// Median time of the fixed calibration workload over the run.
    calib_ms: f64,
}

/// The CPU's brand string from `cpuid`, which needs no file outside the
/// checkout.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` exists on every x86_64 processor and only reads
    // identification registers; leaves above the reported maximum are
    // never queried.
    #[allow(unused_unsafe)]
    let max = unsafe { __cpuid(0x8000_0000) }.eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        // SAFETY: as above; `leaf` is at most the reported maximum.
        #[allow(unused_unsafe)]
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .replace('"', "'")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// Writes the result record (with machine context and the counts digest)
/// and, for a traced run, the spans as JSON lines, under [`OUT_DIR`].
fn write_outputs(
    args: &Args,
    machine: &Machine,
    digest: u64,
    result: &str,
    spans: Option<&Tracer>,
) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload_name,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"machine\": {{\"cpu\": \"{}\", \"nproc\": {}, \"calib_ms\": {}}}, \"counts_digest\": \"{digest:016x}\", \"result\": {result}}}\n",
        machine.cpu, machine.nproc, machine.calib_ms
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), record))
        .and_then(|()| match spans {
            Some(tr) => std::fs::write(format!("{stem}.spans.jsonl"), tr.to_jsonl()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("warning: could not write {stem}.*: {e}");
    }
}
