//! Pass management and instrumentation.
//!
//! Mirrors MLIR's pass manager at the granularity we need, extended with the
//! instrumentation the evaluation's ablations depend on. The pieces:
//!
//! - [`Pass`] — a module transformation. Implementations provide
//!   [`Pass::run_on`] (the raw transform, returning whether IR changed);
//!   the provided [`Pass::run`] wraps it with instrumentation and returns a
//!   [`PassStatistics`] record (runs, changed, live-op counts before/after,
//!   wall time).
//! - [`PassManager`] — a *named* sequence of passes and nested pipelines.
//!   Nested pipelines ([`PassManager::add_pipeline`]) carry their own name,
//!   verification setting, and fixpoint bound, so a driver can compose
//!   e.g. `generic-opt = [cleanup*, inline, cleanup*]` declaratively.
//! - [`PassManager::run_to_fixpoint`] — repeats the whole pipeline until a
//!   full sweep reports no change (or the iteration bound is hit); this
//!   replaces hand-rolled `for _ in 0..k { pm.run(..) }` loops and records
//!   whether the pipeline actually converged. The manager drives the
//!   function loop of *function-local* passes ([`Pass::function_local`])
//!   itself, so from the second sweep on it revisits only the functions the
//!   previous sweep changed: a function every pass left alone is already at
//!   the fixpoint.
//! - [`PipelineRunReport`] — aggregated statistics for one pipeline
//!   execution, one row per pipeline entry, renderable as a table
//!   ([`PipelineRunReport::render_table`]) — the payload behind the `lssa`
//!   CLI's `--pass-stats` and the `ablation` binary's statistics output.
//! - A dump hook ([`PassManager::dump_after_each`]) invoked with the pass
//!   path and the module after every pass — the engine behind
//!   `--print-ir-after-all`-style debugging.
//!
//! A function is transformed with its body temporarily detached from the
//! module (by the manager, or by [`for_each_function`] in module-level
//! passes), so a pass can read module-level context (callee signatures,
//! globals) while mutating the body. In debug builds the manager checks
//! after every pass that every body still has exact use counts
//! ([`Body::check_use_counts`]).

use crate::analysis::rc_check;
use crate::body::Body;
use crate::module::Module;
use crate::verifier::verify_module;
use std::time::{Duration, Instant};

/// A module-level transformation.
pub trait Pass {
    /// Pass name (diagnostics, pipeline dumps, statistics rows).
    fn name(&self) -> &'static str;

    /// Whether the pass is function-local: it transforms each function body
    /// on its own through [`Pass::run_on_function`], reading no other
    /// function's body, so rerunning it on a body it left unchanged changes
    /// nothing. [`PassManager`] relies on this to skip such bodies in later
    /// fixpoint sweeps. The default is `false`: a module-level pass that
    /// implements [`Pass::run_on`] itself.
    fn function_local(&self) -> bool {
        false
    }

    /// Transforms one function body (detached from `module` meanwhile);
    /// returns whether it changed. Only called on function-local passes.
    fn run_on_function(&self, module: &Module, body: &mut Body) -> bool {
        let _ = (module, body);
        unreachable!("`{}` is not a function-local pass", self.name())
    }

    /// Runs the raw transform on the whole module; returns whether anything
    /// changed. The default runs [`Pass::run_on_function`] on every body.
    fn run_on(&self, module: &mut Module) -> bool {
        for_each_function(module, |m, body| self.run_on_function(m, body))
    }

    /// Runs the pass with instrumentation: live-op counts before and after,
    /// wall time, and the change flag, packaged as [`PassStatistics`].
    fn run(&self, module: &mut Module) -> PassStatistics {
        let mut stats = instrumented_run(|m| self.run_on(m), module, self.name());
        stats.extra = self.stat_counters();
        stats
    }

    /// Pass-specific named counters for the last [`Pass::run_on`] execution
    /// (e.g. rc-opt's elided-pair count), folded into
    /// [`PassStatistics::extra`]. The default is no counters.
    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

fn instrumented_run(
    run: impl FnOnce(&mut Module) -> bool,
    module: &mut Module,
    path: &str,
) -> PassStatistics {
    let ops_before = module.live_op_count();
    let start = Instant::now();
    let changed = run(module);
    PassStatistics {
        pass: path.to_string(),
        runs: 1,
        changed,
        ops_before,
        ops_after: module.live_op_count(),
        duration: start.elapsed(),
        extra: Vec::new(),
    }
}

/// Instrumentation record for one (or several merged) pass executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStatistics {
    /// Pass path within its pipeline (e.g. `cleanup/dce` for a nested run).
    pub pass: String,
    /// How many executions this record aggregates.
    pub runs: usize,
    /// Whether any execution changed the IR.
    pub changed: bool,
    /// Live (attached) op count before the first execution.
    pub ops_before: usize,
    /// Live op count after the last execution.
    pub ops_after: usize,
    /// Total wall time across executions.
    pub duration: Duration,
    /// Pass-specific named counters (see [`Pass::stat_counters`]), summed
    /// across merged executions.
    pub extra: Vec<(&'static str, u64)>,
}

impl PassStatistics {
    /// Folds a *later execution in the same compilation* into this record:
    /// op counts stay first-before / last-after.
    pub fn absorb(&mut self, later: &PassStatistics) {
        self.runs += later.runs;
        self.changed |= later.changed;
        self.ops_after = later.ops_after;
        self.duration += later.duration;
        self.absorb_extra(&later.extra);
    }

    /// Folds the same pass from an *independent compilation* into this
    /// record: op counts sum, so `ops-in → ops-out` stays a meaningful
    /// aggregate shrinkage measure.
    pub fn absorb_parallel(&mut self, other: &PassStatistics) {
        self.runs += other.runs;
        self.changed |= other.changed;
        self.ops_before += other.ops_before;
        self.ops_after += other.ops_after;
        self.duration += other.duration;
        self.absorb_extra(&other.extra);
    }

    fn absorb_extra(&mut self, other: &[(&'static str, u64)]) {
        for &(key, n) in other {
            match self.extra.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += n,
                None => self.extra.push((key, n)),
            }
        }
    }
}

/// Aggregated statistics for one pipeline execution (or several merged
/// executions across independent compilations — see
/// [`PipelineRunReport::merge`]).
#[derive(Debug, Clone)]
pub struct PipelineRunReport {
    /// Pipeline name.
    pub pipeline: String,
    /// How many independent executions this report aggregates (1 until
    /// [`PipelineRunReport::merge`] is used).
    pub invocations: usize,
    /// Whether the pipeline ran with a fixpoint bound above one sweep
    /// (controls how convergence is rendered).
    pub fixpoint: bool,
    /// Number of full sweeps executed, summed across invocations.
    pub iterations: usize,
    /// Whether every invocation ended with a sweep that reported no change
    /// (fixpoint reached). A single-sweep run that changed the IR is *not*
    /// converged.
    pub converged: bool,
    /// Whether any pass changed the IR.
    pub changed: bool,
    /// One row per pipeline entry, in pipeline order ([`PassManager::pipeline`]),
    /// each merged across sweeps. A pass listed twice gets two rows.
    pub passes: Vec<PassStatistics>,
    /// Total wall time of the run.
    pub duration: Duration,
}

impl PipelineRunReport {
    /// Folds another run of the *same pipeline shape* into this report
    /// (used to aggregate statistics across many compilations). Rows are
    /// matched by position; a row whose pass differs is appended instead.
    pub fn merge(&mut self, other: &PipelineRunReport) {
        self.invocations += other.invocations;
        self.fixpoint |= other.fixpoint;
        self.iterations += other.iterations;
        self.converged &= other.converged;
        self.changed |= other.changed;
        self.duration += other.duration;
        for (i, s) in other.passes.iter().enumerate() {
            match self.passes.get_mut(i) {
                Some(row) if row.pass == s.pass => row.absorb_parallel(s),
                _ => self.passes.push(s.clone()),
            }
        }
    }

    /// Renders the report as a fixed-width statistics table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let invocations = if self.invocations == 1 {
            String::new()
        } else {
            format!(" across {} invocations", self.invocations)
        };
        let convergence = if !self.fixpoint {
            ""
        } else if self.converged {
            " (converged)"
        } else if self.changed {
            " (iteration budget hit)"
        } else {
            ""
        };
        let noun = match (self.fixpoint, self.iterations) {
            (true, 1) => "iteration",
            (true, _) => "iterations",
            (false, 1) => "sweep",
            (false, _) => "sweeps",
        };
        let _ = writeln!(
            out,
            "pipeline `{}`: {} {}{}{}, {:.3}ms",
            self.pipeline,
            self.iterations,
            noun,
            invocations,
            convergence,
            self.duration.as_secs_f64() * 1e3,
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>5} {:>8} {:>10} {:>10} {:>10}",
            "pass", "runs", "changed", "ops-in", "ops-out", "time"
        );
        for s in &self.passes {
            let time = format!("{:.3}ms", s.duration.as_secs_f64() * 1e3);
            let extra: String = s.extra.iter().map(|(k, n)| format!("  {k}={n}")).collect();
            let _ = writeln!(
                out,
                "  {:<28} {:>5} {:>8} {:>10} {:>10} {:>10}{extra}",
                s.pass,
                s.runs,
                if s.changed { "yes" } else { "no" },
                s.ops_before,
                s.ops_after,
                time,
            );
        }
        out
    }
}

/// Runs `f` on every function body, with the module visible (minus the body
/// being transformed). Returns whether any function changed.
pub fn for_each_function(
    module: &mut Module,
    mut f: impl FnMut(&Module, &mut Body) -> bool,
) -> bool {
    let mut changed = false;
    for i in 0..module.funcs.len() {
        let Some(mut body) = module.funcs[i].body.take() else {
            continue;
        };
        changed |= f(module, &mut body);
        module.funcs[i].body = Some(body);
    }
    changed
}

/// Hook invoked with `(pass path, module)` after each pass execution.
pub type DumpHook = Box<dyn Fn(&str, &Module)>;

/// Borrowed [`DumpHook`], threaded through nested sweep recursion.
type DumpHookRef<'a> = &'a dyn Fn(&str, &Module);

enum Entry {
    Pass(Box<dyn Pass>),
    Pipeline(PassManager),
}

/// A named sequence of passes and nested pipelines, with optional
/// inter-pass verification, an iteration bound for fixpoint driving, and an
/// IR dump hook.
pub struct PassManager {
    name: String,
    entries: Vec<Entry>,
    verify_each: bool,
    verify_rc: bool,
    max_iters: usize,
    dump_after: Option<DumpHook>,
}

impl Default for PassManager {
    fn default() -> PassManager {
        PassManager::named("pipeline")
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("name", &self.name)
            .field("passes", &self.pipeline())
            .field("verify_each", &self.verify_each)
            .field("verify_rc", &self.verify_rc)
            .field("max_iters", &self.max_iters)
            .finish()
    }
}

impl PassManager {
    /// Creates an empty, anonymous single-sweep pipeline.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// Creates an empty named pipeline.
    pub fn named(name: impl Into<String>) -> PassManager {
        PassManager {
            name: name.into(),
            entries: Vec::new(),
            verify_each: false,
            verify_rc: false,
            max_iters: 1,
            dump_after: None,
        }
    }

    /// The pipeline's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enables verification after every pass.
    pub fn verify_each(mut self, yes: bool) -> PassManager {
        self.verify_each = yes;
        self
    }

    /// Enables RC-linearity checking after every pass
    /// ([`rc_check::check_module_strict`]): a pass that unbalances an
    /// `lp.inc`/`lp.dec` protocol panics with the offending function and
    /// block path. The check's wall time is recorded as a `verify-rc-us`
    /// counter on the pass's statistics row. Only meaningful on pipelines
    /// whose input already follows the λrc protocol (rc-opt and later).
    pub fn verify_rc(mut self, yes: bool) -> PassManager {
        self.verify_rc = yes;
        self
    }

    /// Sets the fixpoint iteration bound used by [`PassManager::run`] (and
    /// by the parent pipeline when this manager is nested). The default is
    /// 1: a single sweep.
    pub fn fixpoint(mut self, max_iters: usize) -> PassManager {
        assert!(max_iters >= 1, "a pipeline runs at least once");
        self.max_iters = max_iters;
        self
    }

    /// Appends a pass.
    #[allow(clippy::should_implement_trait)] // builder-style `add`, not ops::Add
    pub fn add(mut self, pass: impl Pass + 'static) -> PassManager {
        self.entries.push(Entry::Pass(Box::new(pass)));
        self
    }

    /// Appends a nested pipeline, which keeps its own name, verification
    /// setting, and fixpoint bound when run by this manager.
    pub fn add_pipeline(mut self, nested: PassManager) -> PassManager {
        self.entries.push(Entry::Pipeline(nested));
        self
    }

    /// Installs a hook called with `(pass path, module)` after every pass —
    /// the engine behind `--print-ir-after-all`.
    pub fn dump_after_each(mut self, hook: impl Fn(&str, &Module) + 'static) -> PassManager {
        self.dump_after = Some(Box::new(hook));
        self
    }

    /// Flattened pass paths in execution order (`nested/pass` for passes
    /// inside nested pipelines).
    pub fn pipeline(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_paths("", &mut out);
        out
    }

    fn collect_paths(&self, prefix: &str, out: &mut Vec<String>) {
        for entry in &self.entries {
            match entry {
                Entry::Pass(p) => out.push(join_path(prefix, p.name())),
                Entry::Pipeline(nested) => {
                    nested.collect_paths(&join_path(prefix, &nested.name), out)
                }
            }
        }
    }

    /// Runs the pipeline: up to its configured [`PassManager::fixpoint`]
    /// bound of sweeps (default one).
    ///
    /// # Panics
    ///
    /// Panics if `verify_each` is enabled and a pass breaks the IR — that is
    /// a compiler bug, and the panic message names the offending pass.
    pub fn run(&self, module: &mut Module) -> PipelineRunReport {
        self.run_to_fixpoint(module, self.max_iters)
    }

    /// Repeats the pipeline until a full sweep reports no change, up to
    /// `max_iters` sweeps. The report records the sweep count and whether
    /// the pipeline converged.
    ///
    /// # Panics
    ///
    /// Panics if `verify_each` is enabled and a pass breaks the IR, and if
    /// `max_iters` is zero.
    pub fn run_to_fixpoint(&self, module: &mut Module, max_iters: usize) -> PipelineRunReport {
        assert!(max_iters >= 1, "a pipeline runs at least once");
        let start = Instant::now();
        let mut state = RunState::new(module);
        let mut iterations = 0;
        let mut changed = false;
        let mut converged = false;
        let mut scope = vec![true; module.funcs.len()];
        while iterations < max_iters {
            iterations += 1;
            state.row = 0;
            let (sweep, dirty) =
                self.run_sweep(module, "", self.dump_after.as_deref(), &mut state, &scope);
            changed |= sweep;
            if !sweep {
                converged = true;
                break;
            }
            scope = dirty;
        }
        PipelineRunReport {
            pipeline: self.name.clone(),
            invocations: 1,
            fixpoint: max_iters > 1,
            iterations,
            converged,
            changed,
            passes: state.rows,
            duration: start.elapsed(),
        }
    }

    /// One sweep over the entries, visiting with function-local passes only
    /// the functions in `scope` (a flag per `module.funcs` index). Nested
    /// pipelines run to their own fixpoint bound. Returns whether anything
    /// changed, and which functions did (all of them once a module-level
    /// pass reports a change).
    fn run_sweep(
        &self,
        module: &mut Module,
        prefix: &str,
        hook: Option<DumpHookRef<'_>>,
        state: &mut RunState,
        scope: &[bool],
    ) -> (bool, Vec<bool>) {
        let mut changed = false;
        let mut dirty = vec![false; module.funcs.len()];
        for entry in &self.entries {
            match entry {
                Entry::Pass(pass) => {
                    let path = join_path(prefix, pass.name());
                    let ops_before = state.ops;
                    let start = Instant::now();
                    let (pass_changed, touched) = if pass.function_local() {
                        let mut touched = Vec::new();
                        for i in (0..module.funcs.len()).filter(|&i| scope[i]) {
                            let Some(mut body) = module.funcs[i].body.take() else {
                                continue;
                            };
                            if pass.run_on_function(module, &mut body) {
                                touched.push(i);
                            }
                            module.funcs[i].body = Some(body);
                        }
                        (!touched.is_empty(), touched)
                    } else if pass.run_on(module) {
                        assert_eq!(
                            module.funcs.len(),
                            dirty.len(),
                            "pass `{path}` added or removed functions"
                        );
                        (true, (0..module.funcs.len()).collect())
                    } else {
                        (false, Vec::new())
                    };
                    let duration = start.elapsed();
                    for &i in &touched {
                        dirty[i] = true;
                        state.recount(module, i);
                    }
                    if cfg!(debug_assertions) {
                        check_invariants(module, &path, state);
                    }
                    let mut s = PassStatistics {
                        pass: path.clone(),
                        runs: 1,
                        changed: pass_changed,
                        ops_before,
                        ops_after: state.ops,
                        duration,
                        extra: pass.stat_counters(),
                    };
                    if self.verify_rc {
                        let rc_start = Instant::now();
                        let result = rc_check::check_module_strict(module);
                        let micros = rc_start.elapsed().as_micros() as u64;
                        s.extra.push(("verify-rc-us", micros));
                        if let Err(msg) = result {
                            panic!("rc verification failed after pass `{path}`: {msg}");
                        }
                    }
                    changed |= s.changed;
                    state.record(s);
                    if let Some(h) = hook {
                        h(&path, module);
                    }
                    if self.verify_each {
                        verify_or_panic(module, &path);
                    }
                }
                Entry::Pipeline(nested) => {
                    let path = join_path(prefix, &nested.name);
                    // A nested pipeline prefers its own dump hook.
                    let hook = nested.dump_after.as_deref().or(hook);
                    let first_row = state.row;
                    let mut nested_scope = scope.to_vec();
                    let mut iters = 0;
                    loop {
                        iters += 1;
                        state.row = first_row;
                        let (sweep, nested_dirty) =
                            nested.run_sweep(module, &path, hook, state, &nested_scope);
                        changed |= sweep;
                        for (d, &n) in dirty.iter_mut().zip(&nested_dirty) {
                            *d |= n;
                        }
                        if !sweep || iters >= nested.max_iters {
                            break;
                        }
                        nested_scope = nested_dirty;
                    }
                }
            }
        }
        (changed, dirty)
    }
}

/// What one pipeline execution accumulates across its sweeps.
struct RunState {
    /// One statistics row per pipeline entry, in pipeline order.
    rows: Vec<PassStatistics>,
    /// The row of the entry about to run.
    row: usize,
    /// Live-op count of each function (0 without a body), kept current
    /// pass by pass: only functions a pass changed are recounted.
    func_ops: Vec<usize>,
    /// Their sum: the module's live-op count.
    ops: usize,
}

impl RunState {
    fn new(module: &Module) -> RunState {
        let func_ops: Vec<usize> = module.funcs.iter().map(func_op_count).collect();
        RunState {
            rows: Vec::new(),
            row: 0,
            ops: func_ops.iter().sum(),
            func_ops,
        }
    }

    fn recount(&mut self, module: &Module, func: usize) {
        let count = func_op_count(&module.funcs[func]);
        self.ops = self.ops - self.func_ops[func] + count;
        self.func_ops[func] = count;
    }

    /// Folds one execution into the current entry's row and moves on.
    fn record(&mut self, s: PassStatistics) {
        match self.rows.get_mut(self.row) {
            Some(row) => row.absorb(&s),
            None => self.rows.push(s),
        }
        self.row += 1;
    }
}

fn func_op_count(f: &crate::module::Function) -> usize {
    f.body.as_ref().map_or(0, Body::live_op_count)
}

/// Debug-build check after pass `path`: every body keeps exact use
/// counts, and the carried op count matches a fresh count (a pass that
/// reports "unchanged" must not have changed anything).
fn check_invariants(module: &Module, path: &str, state: &RunState) {
    for f in &module.funcs {
        if let Some(body) = &f.body {
            if let Err(msg) = body.check_use_counts() {
                let name = module.name_of(f.name);
                panic!("use counts out of date in `{name}` after pass `{path}`: {msg}");
            }
        }
    }
    assert_eq!(
        state.ops,
        module.live_op_count(),
        "pass `{path}` changed the op count without reporting a change"
    );
}

fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}/{name}")
    }
}

fn verify_or_panic(module: &Module, pass: &str) {
    if let Err(errs) = verify_module(module) {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!(
            "verification failed after pass `{pass}`:\n{}",
            msgs.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::types::{Signature, Type};
    use std::cell::Cell;
    use std::rc::Rc;

    struct CountingPass(Rc<Cell<usize>>);
    impl Pass for CountingPass {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn run_on(&self, _m: &mut Module) -> bool {
            self.0.set(self.0.get() + 1);
            false
        }
    }

    /// Reports "changed" for its first `0` runs... configurable below.
    struct ChangesFor {
        left: Rc<Cell<usize>>,
    }
    impl Pass for ChangesFor {
        fn name(&self) -> &'static str {
            "changes-for"
        }
        fn run_on(&self, _m: &mut Module) -> bool {
            let left = self.left.get();
            if left > 0 {
                self.left.set(left - 1);
                true
            } else {
                false
            }
        }
    }

    fn tiny_module() -> Module {
        let mut m = Module::new();
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        m.add_function("f", Signature::new(vec![], Type::I64), body);
        m
    }

    #[test]
    fn passes_run_in_order() {
        let mut m = tiny_module();
        let count = Rc::new(Cell::new(0));
        let pm = PassManager::named("test")
            .verify_each(true)
            .add(CountingPass(count.clone()));
        assert_eq!(pm.pipeline(), vec!["counting"]);
        let report = pm.run(&mut m);
        assert!(!report.changed);
        assert!(report.converged);
        assert_eq!(count.get(), 1);
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.passes[0].runs, 1);
        assert_eq!(report.passes[0].ops_before, 2);
        assert_eq!(report.passes[0].ops_after, 2);
    }

    #[test]
    fn fixpoint_stops_when_quiet_and_reports_convergence() {
        let mut m = tiny_module();
        let left = Rc::new(Cell::new(2));
        let pm = PassManager::named("fp").add(ChangesFor { left });
        let report = pm.run_to_fixpoint(&mut m, 10);
        // Two changing sweeps plus the quiet one that proves the fixpoint.
        assert_eq!(report.iterations, 3);
        assert!(report.converged);
        assert!(report.changed);
        assert_eq!(report.passes[0].runs, 3);
    }

    #[test]
    fn fixpoint_budget_hit_is_reported() {
        let mut m = tiny_module();
        let left = Rc::new(Cell::new(100));
        let pm = PassManager::named("fp").add(ChangesFor { left });
        let report = pm.run_to_fixpoint(&mut m, 2);
        assert_eq!(report.iterations, 2);
        assert!(!report.converged);
        assert!(report.changed);
    }

    #[test]
    fn nested_pipelines_get_path_names_and_own_fixpoint() {
        let mut m = tiny_module();
        let count = Rc::new(Cell::new(0));
        let left = Rc::new(Cell::new(3));
        let inner = PassManager::named("cleanup")
            .fixpoint(8)
            .add(ChangesFor { left });
        let pm = PassManager::named("outer")
            .add_pipeline(inner)
            .add(CountingPass(count.clone()));
        assert_eq!(pm.pipeline(), vec!["cleanup/changes-for", "counting"]);
        let report = pm.run(&mut m);
        // The nested pipeline fixpointed within the single outer sweep:
        // three changing runs plus one quiet run.
        let nested = report
            .passes
            .iter()
            .find(|s| s.pass == "cleanup/changes-for");
        assert_eq!(nested.unwrap().runs, 4);
        assert_eq!(count.get(), 1);
        assert!(report.changed);
    }

    #[test]
    fn dump_hook_sees_every_pass() {
        let mut m = tiny_module();
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let count = Rc::new(Cell::new(0));
        let pm = PassManager::named("dumped")
            .add(CountingPass(count))
            .dump_after_each(move |path, _m| seen2.borrow_mut().push(path.to_string()));
        pm.run(&mut m);
        assert_eq!(*seen.borrow(), vec!["counting"]);
    }

    #[test]
    fn render_table_mentions_pipeline_and_passes() {
        let mut m = tiny_module();
        let count = Rc::new(Cell::new(0));
        let pm = PassManager::named("tbl").add(CountingPass(count));
        let table = pm.run(&mut m).render_table();
        assert!(table.contains("pipeline `tbl`"), "{table}");
        assert!(table.contains("counting"), "{table}");
        assert!(table.contains("ops-in"), "{table}");
    }

    /// Appends an unused constant to every function: the op count grows.
    struct Grow;
    impl Pass for Grow {
        fn name(&self) -> &'static str {
            "grow"
        }
        fn run_on(&self, m: &mut Module) -> bool {
            for_each_function(m, |_, body| {
                let entry = body.entry_block();
                let c = body.create_op(crate::opcode::Opcode::ConstI, vec![], &[Type::I64], vec![]);
                body.insert_op(entry, 0, c);
                true
            })
        }
    }

    #[test]
    fn repeated_entries_get_their_own_rows() {
        use crate::passes::DcePass;
        let mut m = tiny_module();
        let pm = PassManager::named("rows")
            .add(DcePass)
            .add(Grow)
            .add(DcePass);
        let report = pm.run(&mut m);
        let rows: Vec<(&str, usize, usize, bool)> = report
            .passes
            .iter()
            .map(|s| (s.pass.as_str(), s.ops_before, s.ops_after, s.changed))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("dce", 2, 2, false),
                ("grow", 2, 3, true),
                ("dce", 3, 2, true)
            ]
        );
        // Merging a second compilation keeps the rows apart, position by
        // position.
        let mut merged = report.clone();
        merged.merge(&pm.run(&mut tiny_module()));
        let sums: Vec<(usize, usize, usize)> = merged
            .passes
            .iter()
            .map(|s| (s.runs, s.ops_before, s.ops_after))
            .collect();
        assert_eq!(sums, vec![(2, 4, 4), (2, 4, 6), (2, 6, 4)]);
    }

    /// Function-local: erases one unused constant per run, recording which
    /// function it visited.
    struct EraseOneConst(Rc<std::cell::RefCell<Vec<usize>>>);
    impl Pass for EraseOneConst {
        fn name(&self) -> &'static str {
            "erase-one-const"
        }
        fn function_local(&self) -> bool {
            true
        }
        fn run_on_function(&self, _m: &Module, body: &mut Body) -> bool {
            self.0.borrow_mut().push(body.live_op_count());
            let dead = body.walk_ops().into_iter().find(|&op| {
                let r = body.ops[op.index()].result();
                r.is_some_and(|r| body.use_count(r) == 0)
            });
            dead.inspect(|&op| body.erase_op(op)).is_some()
        }
    }

    #[test]
    fn later_sweeps_revisit_only_changed_functions() {
        // `g` carries three unused constants, `f` none: every sweep after
        // the first visits `g` alone, and the sweep count is the same as
        // re-running the whole module until nothing changes.
        let mut m = tiny_module();
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        for k in 0..3 {
            b.const_i(k, Type::I64);
        }
        let c = b.const_i(9, Type::I64);
        b.ret(c);
        m.add_function("g", Signature::new(vec![], Type::I64), body);
        let visits = Rc::new(std::cell::RefCell::new(Vec::new()));
        let pm = PassManager::named("fp").add(EraseOneConst(visits.clone()));
        let report = pm.run_to_fixpoint(&mut m, 10);
        assert_eq!(report.iterations, 4);
        assert!(report.converged);
        // Visits logged by op count: `f` (2 ops) once, then `g` shrinking
        // from 5 to 2.
        assert_eq!(*visits.borrow(), vec![2, 5, 4, 3, 2]);
        assert_eq!(report.passes[0].ops_before, 7);
        assert_eq!(report.passes[0].ops_after, 4);
    }

    #[test]
    fn for_each_function_sees_module() {
        let mut m = tiny_module();
        m.declare_extern("rt", Signature::obj(1));
        let mut names = Vec::new();
        for_each_function(&mut m, |module, _body| {
            names.push(module.funcs.len());
            false
        });
        // One function with a body; externs skipped. The module still lists
        // both functions while the body is detached.
        assert_eq!(names, vec![2]);
    }
}
