//! The [`PassManager`]: executes a [`PipelineSpec`] with a
//! change-driven fixpoint, per-pass instrumentation, optional
//! interleaved verification, and an execution budget for bisection.
//!
//! # Fixpoint semantics
//!
//! A `fixpoint(...)` group sweeps its items in order until a sweep
//! makes no *progress* (no executed pass reports a nonzero headline
//! counter — exactly the exit condition of the historical
//! `optimize_function` loop, so the default pipeline's output is
//! byte-identical to it). Within the sweeps, an item is *skipped* when
//! nothing has mutated the function since that item's own last run:
//! every builtin pass is idempotent, so such a rerun is provably a
//! no-op and eliding it cannot change the result — it only removes the
//! wasted trailing all-zero round the old loop always paid for.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use crate::dom::DomTree;
use crate::function::Function;
use crate::json;
use crate::module::{FuncId, Module};
use crate::passmgr::{create_pass, AnalysisManager, ModulePass, Pass, PipelineItem, PipelineSpec};
use crate::verify::{verify_function_with, verify_module, VerifyError};

/// Pseudo-function name used in trace entries for module-level passes.
pub const MODULE_SCOPE: &str = "<module>";

/// An error from building or running a pipeline.
#[derive(Debug)]
pub enum PassManagerError {
    /// The spec names a pass that is not registered.
    UnknownPass(String),
    /// `--verify-each` found broken IR right after a pass application.
    Verify {
        /// The pass that just ran.
        pass: String,
        /// The function being optimized when verification failed.
        function: String,
        /// The underlying verifier diagnostic.
        error: VerifyError,
    },
}

impl fmt::Display for PassManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassManagerError::UnknownPass(name) => {
                write!(f, "unknown pass `{name}` in pipeline spec")
            }
            PassManagerError::Verify {
                pass,
                function,
                error,
            } => write!(
                f,
                "IR broken after pass `{pass}` on function `{function}`: {error}"
            ),
        }
    }
}

impl std::error::Error for PassManagerError {}

/// Statistics for one pass across a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PassStat {
    /// Number of times the pass executed.
    pub runs: u64,
    /// Executions that mutated the IR.
    pub changed_runs: u64,
    /// Total wall time spent inside the pass, in nanoseconds. Zero
    /// unless timing is on ([`PassManager::set_timing`]).
    pub wall_nanos: u128,
    counters: Vec<(&'static str, u64)>,
}

impl PassStat {
    fn bump_counter(&mut self, name: &'static str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => self.counters.push((name, v)),
        }
    }

    /// Named counters (`("allocas-promoted", 3)`, ...) in first-seen
    /// order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// The value of one named counter (0 if never reported).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Aggregated observability for a pipeline run (or several runs — the
/// manager accumulates until dropped). Built on demand by
/// [`PassManager::stats`]; the hot path updates per-item [`PassStat`]s
/// by direct field access instead.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Total pass executions (function and module passes).
    pub executions: u64,
    /// Fixpoint-item runs elided because nothing mutated since the
    /// item's previous run.
    pub skipped: u64,
    order: Vec<&'static str>,
    per_pass: HashMap<&'static str, PassStat>,
}

impl PipelineStats {
    fn entry(&mut self, name: &'static str) -> &mut PassStat {
        if !self.per_pass.contains_key(name) {
            self.order.push(name);
            self.per_pass.insert(name, PassStat::default());
        }
        self.per_pass.get_mut(name).expect("just inserted")
    }

    /// Folds one item's accumulated stats into the aggregate (a pass
    /// appearing at several pipeline positions merges by name).
    fn merge(&mut self, name: &'static str, stat: &PassStat) {
        if stat.runs == 0 {
            return;
        }
        let agg = self.entry(name);
        agg.runs += stat.runs;
        agg.changed_runs += stat.changed_runs;
        agg.wall_nanos += stat.wall_nanos;
        for &(cname, v) in stat.counters() {
            agg.bump_counter(cname, v);
        }
    }

    /// Per-pass stats for `name`, if that pass ever ran.
    pub fn pass(&self, name: &str) -> Option<&PassStat> {
        self.per_pass.get(name)
    }

    /// Every pass that ran, in first-execution order.
    pub fn passes(&self) -> impl Iterator<Item = (&'static str, &PassStat)> {
        self.order.iter().map(|n| (*n, &self.per_pass[*n]))
    }

    /// Sum of one named counter across all passes (counter names are
    /// unique per pass in practice).
    pub fn counter_total(&self, counter: &str) -> u64 {
        self.per_pass.values().map(|s| s.counter(counter)).sum()
    }

    /// Renders the stats as a JSON document. `pipeline` is echoed into
    /// the report so a stats file is self-describing.
    pub fn to_json(&self, pipeline: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"pipeline\": \"{}\",", json::escape(pipeline));
        let _ = writeln!(out, "  \"executions\": {},", self.executions);
        let _ = writeln!(out, "  \"skipped\": {},", self.skipped);
        out.push_str("  \"passes\": [\n");
        let total = self.order.len();
        for (i, (name, stat)) in self.passes().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"runs\": {}, \"changed_runs\": {}, \"wall_us\": {}, \"counters\": {{",
                json::escape(name),
                stat.runs,
                stat.changed_runs,
                stat.wall_nanos / 1_000
            );
            for (j, (cname, v)) in stat.counters().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", json::escape(cname), v);
            }
            out.push_str("}}");
            out.push_str(if i + 1 == total { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One pass application, in execution order. The bisector replays a
/// prefix of this trace to isolate the first diverging application.
/// Recorded only when tracing is on ([`PassManager::set_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Function the pass ran on ([`MODULE_SCOPE`] for module passes).
    pub function: String,
    /// Pass name.
    pub pass: &'static str,
    /// Whether the application mutated the IR.
    pub changed: bool,
}

enum Item {
    Single(Box<dyn Pass>, PassStat),
    Fixpoint(Vec<Item>),
}

fn instantiate(items: &[PipelineItem]) -> Result<Vec<Item>, PassManagerError> {
    items
        .iter()
        .map(|item| match item {
            PipelineItem::Pass(name) => create_pass(name)
                .map(|p| Item::Single(p, PassStat::default()))
                .ok_or_else(|| PassManagerError::UnknownPass(name.clone())),
            PipelineItem::Fixpoint(inner) => instantiate(inner).map(Item::Fixpoint),
        })
        .collect()
}

fn merge_items(items: &[Item], into: &mut PipelineStats) {
    for item in items {
        match item {
            Item::Single(pass, stat) => into.merge(pass.name(), stat),
            Item::Fixpoint(inner) => merge_items(inner, into),
        }
    }
}

/// Outcome of running one item (or sub-tree of items).
#[derive(Clone, Copy)]
enum Outcome {
    /// The execution budget was exhausted; stop everything, leaving the
    /// module in its exact mid-pipeline state.
    Stopped,
    Done {
        /// Anything mutated (drives analysis invalidation + skipping).
        mutated: bool,
        /// Any headline counter was nonzero (drives fixpoint exit, the
        /// historical loop's condition).
        progress: bool,
    },
}

/// Executes pipelines built from a [`PipelineSpec`] plus optional
/// appended module passes.
pub struct PassManager {
    spec: PipelineSpec,
    items: Vec<Item>,
    module_passes: Vec<(Box<dyn ModulePass>, PassStat)>,
    verify_each: bool,
    budget: Option<u64>,
    executions: u64,
    skipped: u64,
    timing: bool,
    trace_enabled: bool,
    trace: Vec<TraceEntry>,
}

impl PassManager {
    /// Builds a manager for `spec`.
    ///
    /// # Errors
    ///
    /// [`PassManagerError::UnknownPass`] if the spec names an
    /// unregistered pass.
    pub fn from_spec(spec: &PipelineSpec) -> Result<Self, PassManagerError> {
        Self::build(spec.clone())
    }

    fn build(spec: PipelineSpec) -> Result<Self, PassManagerError> {
        Ok(PassManager {
            items: instantiate(spec.items())?,
            spec,
            module_passes: Vec::new(),
            verify_each: false,
            budget: None,
            executions: 0,
            skipped: 0,
            timing: false,
            trace_enabled: false,
            trace: Vec::new(),
        })
    }

    /// The default optimization pipeline
    /// ([`crate::passmgr::DEFAULT_PIPELINE`]).
    pub fn standard() -> Self {
        Self::build(PipelineSpec::default_optimization())
            .expect("default pipeline names only registered passes")
    }

    /// A manager with no function pipeline (module passes only).
    pub fn empty() -> Self {
        Self::build(PipelineSpec::empty()).expect("empty pipeline is valid")
    }

    /// Appends a module-level pass; module passes run after the
    /// function pipeline, in insertion order.
    pub fn add_module_pass(&mut self, pass: Box<dyn ModulePass>) {
        self.module_passes.push((pass, PassStat::default()));
    }

    /// Verifies the IR after every pass application (borrowing the
    /// cached dominator tree, so this is not quadratic in pipeline
    /// length).
    pub fn set_verify_each(&mut self, on: bool) {
        self.verify_each = on;
    }

    /// Caps the number of pass executions; the run stops (successfully)
    /// once the cap is reached, leaving the module in its exact
    /// mid-pipeline state. `None` removes the cap. Scheduling is
    /// deterministic, so a budget of `n` reproduces precisely the first
    /// `n` applications of an uncapped run — the bisector's lever.
    pub fn set_execution_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// The spec this manager was built from.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Canonical text of the full pipeline including module passes
    /// (`"mem2reg,fixpoint(...)+duplicate"`). Stable across runs —
    /// used inside store memo keys.
    pub fn describe(&self) -> String {
        let mut text = self.spec.to_string();
        for (mp, _) in &self.module_passes {
            text.push('+');
            text.push_str(mp.name());
        }
        text
    }

    /// Accumulated stats (across every run since construction),
    /// aggregated by pass name in pipeline order.
    pub fn stats(&self) -> PipelineStats {
        let mut out = PipelineStats {
            executions: self.executions,
            skipped: self.skipped,
            ..PipelineStats::default()
        };
        merge_items(&self.items, &mut out);
        for (mp, stat) in &self.module_passes {
            out.merge(mp.name(), stat);
        }
        out
    }

    /// Measures per-pass wall time ([`PassStat::wall_nanos`]). Off by
    /// default so plain optimization runs pay no clock reads; the
    /// `--stats` CLI path turns it on.
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// Records a [`TraceEntry`] per pass application. Off by default —
    /// the bisector turns it on; plain optimization runs skip the
    /// per-execution allocation.
    pub fn set_trace(&mut self, on: bool) {
        self.trace_enabled = on;
    }

    /// Execution trace (across every run since tracing was enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Runs the function pipeline on one function (module passes, which
    /// need a whole [`Module`], do not run). Returns whether anything
    /// mutated.
    ///
    /// # Errors
    ///
    /// [`PassManagerError::Verify`] when `--verify-each` is on and a
    /// pass breaks the IR.
    pub fn run_function(&mut self, func: &mut Function) -> Result<bool, PassManagerError> {
        let mut items = std::mem::take(&mut self.items);
        let result = self.run_function_items(&mut items, func);
        self.items = items;
        match result? {
            Outcome::Stopped => Ok(true),
            Outcome::Done { mutated, .. } => Ok(mutated),
        }
    }

    /// Runs the function pipeline over every function (in id order),
    /// then the module passes. Returns whether anything mutated.
    ///
    /// # Errors
    ///
    /// [`PassManagerError::Verify`] when `--verify-each` is on and a
    /// pass breaks the IR.
    pub fn run_module(&mut self, module: &mut Module) -> Result<bool, PassManagerError> {
        let mut any = false;
        let mut items = std::mem::take(&mut self.items);
        let mut function_result = Ok(Outcome::Done {
            mutated: false,
            progress: false,
        });
        for idx in 0..module.num_functions() {
            let func = module.function_mut(FuncId::new(idx));
            function_result = self.run_function_items(&mut items, func);
            match &function_result {
                Ok(Outcome::Stopped) | Err(_) => break,
                Ok(Outcome::Done { mutated, .. }) => any |= mutated,
            }
        }
        self.items = items;
        match function_result? {
            Outcome::Stopped => return Ok(true),
            Outcome::Done { .. } => {}
        }

        let mut module_passes = std::mem::take(&mut self.module_passes);
        let result = self.run_module_passes(&mut module_passes, module);
        self.module_passes = module_passes;
        match result? {
            Outcome::Stopped => Ok(true),
            Outcome::Done { mutated, .. } => Ok(any | mutated),
        }
    }

    fn run_function_items(
        &mut self,
        items: &mut [Item],
        func: &mut Function,
    ) -> Result<Outcome, PassManagerError> {
        let mut am = AnalysisManager::new();
        self.run_items(items, func, &mut am)
    }

    fn run_items(
        &mut self,
        items: &mut [Item],
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<Outcome, PassManagerError> {
        let mut mutated = false;
        let mut progress = false;
        for item in items.iter_mut() {
            match self.run_item(item, func, am)? {
                Outcome::Stopped => return Ok(Outcome::Stopped),
                Outcome::Done {
                    mutated: m,
                    progress: p,
                } => {
                    mutated |= m;
                    progress |= p;
                }
            }
        }
        Ok(Outcome::Done { mutated, progress })
    }

    fn run_item(
        &mut self,
        item: &mut Item,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<Outcome, PassManagerError> {
        match item {
            Item::Single(pass, stat) => self.run_single(pass.as_mut(), stat, func, am),
            Item::Fixpoint(inner) => self.run_fixpoint(inner, func, am),
        }
    }

    /// The change-driven fixpoint. `last_run[i] == generation` means
    /// nothing has mutated since item `i`'s own previous run — rerunning
    /// an idempotent pass there is a no-op, so it is skipped.
    fn run_fixpoint(
        &mut self,
        items: &mut [Item],
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<Outcome, PassManagerError> {
        let mut last_run = vec![0u64; items.len()];
        let mut generation = 1u64;
        let mut mutated_total = false;
        let mut progress_total = false;
        loop {
            let mut progress_this_sweep = false;
            for (i, item) in items.iter_mut().enumerate() {
                if last_run[i] == generation {
                    self.skipped += 1;
                    continue;
                }
                match self.run_item(item, func, am)? {
                    Outcome::Stopped => return Ok(Outcome::Stopped),
                    Outcome::Done { mutated, progress } => {
                        if mutated {
                            generation += 1;
                            mutated_total = true;
                        }
                        last_run[i] = generation;
                        if progress {
                            progress_this_sweep = true;
                            progress_total = true;
                        }
                    }
                }
            }
            if !progress_this_sweep {
                return Ok(Outcome::Done {
                    mutated: mutated_total,
                    progress: progress_total,
                });
            }
        }
    }

    fn budget_reached(&self) -> bool {
        self.budget.is_some_and(|cap| self.executions >= cap)
    }

    fn run_single(
        &mut self,
        pass: &mut dyn Pass,
        stat: &mut PassStat,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<Outcome, PassManagerError> {
        if self.budget_reached() {
            return Ok(Outcome::Stopped);
        }
        let start = self.timing.then(Instant::now);
        let changed = pass.run(func, am);
        let wall = start.map_or(0, |s| s.elapsed().as_nanos());

        self.executions += 1;
        stat.runs += 1;
        stat.wall_nanos += wall;
        if changed.is_yes() {
            stat.changed_runs += 1;
        }
        let mut reported = false;
        let mut counter_progress = false;
        pass.report_stats(&mut |cname, v| {
            reported = true;
            counter_progress |= v > 0;
            stat.bump_counter(cname, v);
        });
        let progress = if reported {
            counter_progress
        } else {
            changed.is_yes()
        };

        if changed.is_yes() {
            am.retain(&pass.preserved());
        }
        if self.trace_enabled {
            self.trace.push(TraceEntry {
                function: func.name().to_string(),
                pass: pass.name(),
                changed: changed.is_yes(),
            });
        }

        if self.verify_each {
            let dt = am.get::<DomTree>(func);
            verify_function_with(func, &dt).map_err(|error| PassManagerError::Verify {
                pass: pass.name().to_string(),
                function: func.name().to_string(),
                error,
            })?;
        }
        Ok(Outcome::Done {
            mutated: changed.is_yes(),
            progress,
        })
    }

    fn run_module_passes(
        &mut self,
        module_passes: &mut [(Box<dyn ModulePass>, PassStat)],
        module: &mut Module,
    ) -> Result<Outcome, PassManagerError> {
        let mut mutated_total = false;
        for (pass, stat) in module_passes.iter_mut() {
            if self.budget_reached() {
                return Ok(Outcome::Stopped);
            }
            let start = self.timing.then(Instant::now);
            let changed = pass.run(module);
            let wall = start.map_or(0, |s| s.elapsed().as_nanos());

            self.executions += 1;
            stat.runs += 1;
            stat.wall_nanos += wall;
            if changed.is_yes() {
                stat.changed_runs += 1;
            }
            pass.report_stats(&mut |cname, v| stat.bump_counter(cname, v));
            mutated_total |= changed.is_yes();
            if self.trace_enabled {
                self.trace.push(TraceEntry {
                    function: MODULE_SCOPE.to_string(),
                    pass: pass.name(),
                    changed: changed.is_yes(),
                });
            }

            if self.verify_each {
                verify_module(module).map_err(|error| PassManagerError::Verify {
                    pass: pass.name().to_string(),
                    function: error.function().to_string(),
                    error,
                })?;
            }
        }
        Ok(Outcome::Done {
            mutated: mutated_total,
            progress: mutated_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;
    use crate::passes;
    use crate::passmgr::Changed;

    /// The historical free-function loop, verbatim — the reference the
    /// manager must match byte-for-byte.
    fn naive_optimize(func: &mut Function) -> u64 {
        let mut executions = 1u64;
        passes::promote_memory_to_registers(func);
        loop {
            let folded = passes::constant_fold(func);
            let simplified = passes::simplify_instructions(func);
            let merged = passes::eliminate_common_subexpressions(func);
            let removed = passes::eliminate_dead_code(func);
            let blocks = passes::simplify_cfg(func);
            executions += 5;
            if folded == 0 && simplified == 0 && merged == 0 && removed == 0 && blocks == 0 {
                break;
            }
        }
        executions
    }

    const SAMPLE: &str = r#"
module "m"

fn @f(i64) -> i64 {
bb0:
  %v0 = alloca i64, 1
  store i64 0, %v0
  %v1 = icmp slt %arg0, 10
  condbr %v1, bb1, bb2
bb1:
  %v2 = add i64 %arg0, 0
  store i64 %v2, %v0
  br bb2
bb2:
  %v3 = load i64, %v0
  %v4 = mul i64 %v3, 1
  ret %v4
}
"#;

    #[test]
    fn manager_matches_naive_loop_and_skips_the_noop_round() {
        let mut naive = parse_module(SAMPLE).unwrap();
        let mut managed = naive.clone();
        let mut naive_execs = 0u64;
        for idx in 0..naive.num_functions() {
            naive_execs += naive_optimize(naive.function_mut(FuncId::new(idx)));
        }
        let mut pm = PassManager::standard();
        pm.run_module(&mut managed).unwrap();
        assert_eq!(
            managed.to_text(),
            naive.to_text(),
            "default pipeline must be byte-identical to the historical loop"
        );
        assert!(
            pm.stats().executions < naive_execs,
            "change tracking must skip the trailing all-zero round \
             ({} managed vs {} naive executions)",
            pm.stats().executions,
            naive_execs
        );
        assert!(pm.stats().skipped > 0, "some fixpoint items were elided");
    }

    #[test]
    fn budget_replays_exact_prefixes() {
        let full = {
            let mut m = parse_module(SAMPLE).unwrap();
            let mut pm = PassManager::standard();
            pm.set_trace(true);
            pm.run_module(&mut m).unwrap();
            (m, pm.stats().executions, pm.trace().to_vec())
        };
        // Every prefix budget must reproduce the uncapped run's trace
        // prefix; the full budget must reproduce the final module.
        for n in 0..=full.1 {
            let mut m = parse_module(SAMPLE).unwrap();
            let mut pm = PassManager::standard();
            pm.set_trace(true);
            pm.set_execution_budget(Some(n));
            pm.run_module(&mut m).unwrap();
            assert_eq!(pm.stats().executions, n);
            assert_eq!(pm.trace(), &full.2[..n as usize]);
            if n == full.1 {
                assert_eq!(m.to_text(), full.0.to_text());
            }
        }
    }

    #[test]
    fn verify_each_reuses_the_cached_domtree() {
        let mut m = parse_module(SAMPLE).unwrap();
        let mut pm = PassManager::standard();
        pm.set_verify_each(true);
        let before = DomTree::computations();
        pm.run_module(&mut m).unwrap();
        let computes = DomTree::computations() - before;
        // Way fewer dominator-tree builds than pass applications +
        // verifications: the interleaved verifier borrows the cache.
        assert!(
            computes < pm.stats().executions * 2,
            "{computes} computes for {} executions",
            pm.stats().executions
        );
    }

    #[test]
    fn verify_each_reports_the_breaking_pass() {
        struct Vandal;
        impl Pass for Vandal {
            fn name(&self) -> &'static str {
                "vandal"
            }
            fn run(&mut self, func: &mut Function, _am: &mut AnalysisManager) -> Changed {
                // Unlink the entry block's terminator: broken IR.
                let entry = func.entry();
                let last = *func.block(entry).insts().last().unwrap();
                func.unlink_inst(entry, last);
                Changed::Yes
            }
        }
        let mut m = parse_module(SAMPLE).unwrap();
        let mut pm = PassManager::empty();
        pm.items
            .push(Item::Single(Box::new(Vandal), PassStat::default()));
        pm.set_verify_each(true);
        let err = pm.run_module(&mut m).unwrap_err();
        match err {
            PassManagerError::Verify { pass, function, .. } => {
                assert_eq!(pass, "vandal");
                assert_eq!(function, "f");
            }
            other => panic!("expected verify error, got {other}"),
        }
    }

    #[test]
    fn unknown_pass_is_rejected_at_build_time() {
        let spec = PipelineSpec::parse("mem2reg,nosuchpass").unwrap();
        match PassManager::from_spec(&spec) {
            Err(PassManagerError::UnknownPass(name)) => assert_eq!(name, "nosuchpass"),
            other => panic!("expected UnknownPass, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn stats_json_has_the_documented_shape() {
        let mut m = parse_module(SAMPLE).unwrap();
        let mut pm = PassManager::standard();
        pm.set_timing(true);
        pm.run_module(&mut m).unwrap();
        let json = pm.stats().to_json(&pm.describe());
        assert!(json.contains("\"pipeline\": \"mem2reg,fixpoint("));
        assert!(json.contains("\"allocas-promoted\": 1"));
        assert!(json.contains("\"executions\""));
        assert!(json.contains("\"skipped\""));
    }
}
