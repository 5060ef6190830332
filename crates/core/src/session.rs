//! The PED editing session.
//!
//! [`PedSession`] is the programmatic equivalent of the editor window of
//! Figure 1: it holds the program, the per-unit analyses, the selected
//! loop (progressive disclosure), the dependence marks, the variable
//! classifications, and the user assertions — and it records which
//! features are exercised, which is how the reproduction *measures* the
//! `used` column of Table 2.

use crate::assertions::{AssertError, Assertion};
use crate::cache::AnalysisCache;
use crate::filter::{DepFilter, VarFilter};
use crate::panes::{DepRow, SourceRow, VarRow};
use crate::usage::{Feature, UsageLog};
use ped_analysis::defuse::EffectsMap;
use ped_analysis::fanout;
use ped_analysis::loops::LoopId;
use ped_analysis::privatize::PrivStatus;
use ped_analysis::symbolic::SymbolicEnv;
use ped_analysis::ScalarFacts;
use ped_dependence::marking::{Mark, MarkError};
use ped_dependence::{DepId, TestKindCounts};
use ped_fortran::ast::{Program, StmtId, StmtKind};
use ped_fortran::pretty::print_lvalue;
use ped_transform::advice::{Applied, TransformError};
use ped_transform::ctx::UnitAnalysis;
use std::collections::HashMap;
use std::sync::Arc;

/// Dynamic classification of one dependence edge, from
/// [`PedSession::validate`].
#[derive(Clone, Debug)]
pub struct DepValidation {
    pub id: DepId,
    pub var: String,
    /// Carried level of the edge (1-based).
    pub level: u32,
    /// Whether the static test was inexact (the edge is *assumed*).
    pub assumed: bool,
    pub verdict: ped_vm::DynVerdict,
    /// Carrier-iteration pair (src, sink) behind a Confirmed verdict.
    pub witness: Option<(i64, i64)>,
    /// Observed access events at each endpoint.
    pub src_events: u64,
    pub sink_events: u64,
}

/// User classification of a variable with respect to a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarClass {
    Shared,
    Private,
}

impl std::fmt::Display for VarClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarClass::Shared => write!(f, "shared"),
            VarClass::Private => write!(f, "private"),
        }
    }
}

/// Telemetry snapshot returned by [`PedSession::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// `reanalyze()` calls answered from the whole-analysis fingerprint.
    pub analysis_hits: u64,
    /// `reanalyze()` calls that rebuilt the unit analyses.
    pub analysis_misses: u64,
    /// Subscript pair tests answered from the pair memo.
    pub pair_hits: u64,
    /// Subscript pair tests actually run.
    pub pair_misses: u64,
    /// `Feature::AnalysisCacheHit` count mirrored in the usage log.
    pub reanalyze_hits: usize,
    /// `Feature::AnalysisCacheMiss` count mirrored in the usage log.
    pub reanalyze_misses: usize,
    /// Per-unit lint requests answered from the lint memo.
    pub lint_hits: u64,
    /// Per-unit lint requests that ran the lint engine.
    pub lint_misses: u64,
    /// Per-unit scalar-facts requests answered from the scalar memo.
    pub scalar_hits: u64,
    /// Per-unit scalar-facts requests that ran the scalar pipeline
    /// (including the cold builds of `open`'s prewarm).
    pub scalar_misses: u64,
    /// Whole-program `parallelize()` calls answered from the memo.
    pub par_hits: u64,
    /// Whole-program `parallelize()` calls that ran the ped-par pass.
    pub par_misses: u64,
    /// Memo misses answered from the attached on-disk cache (0 when no
    /// [`crate::DiskCache`] is attached).
    pub disk_hits: u64,
    /// Disk-cache lookups that found no usable entry.
    pub disk_misses: u64,
    /// Disk entries rejected as corrupt (bad magic/version/checksum or
    /// undecodable payload) and recomputed; the bad file is removed.
    pub disk_corrupt: u64,
    /// Entries written through to the on-disk cache.
    pub disk_writes: u64,
    /// Version of the server's currently published session snapshot
    /// (0 when the session was never published — direct library use).
    pub snapshot_epoch: u64,
    /// Read-method dispatches the server answered from a published
    /// snapshot without taking the writer lock.
    pub snapshot_reads: u64,
    /// Copy-on-write publications performed by write methods (the
    /// initial publication at `open` is not counted).
    pub writer_publishes: u64,
    /// Bytecode instructions dispatched by this session's `run` calls
    /// that executed on the VM engine.
    pub vm_instrs: u64,
    /// Nanoseconds this session spent compiling programs to bytecode
    /// (compile-cache hits contribute 0).
    pub vm_compile_ns: u64,
    /// Access events recorded by tracing (`validate`) runs.
    pub trace_events: u64,
    /// Dependence edges `validate` dynamically confirmed (a witness
    /// iteration pair was observed).
    pub validated_confirmed: u64,
    /// Assumed edges `validate` dynamically disproven (no access pair
    /// connected two iterations on the replayed inputs).
    pub validated_disproven: u64,
    /// Lifetime per-tester-kind tallies of the dependence suite
    /// (`label → count`), accumulated over every graph build of the
    /// session's current unit. Zero rows are omitted.
    pub test_kinds: Vec<(&'static str, u64)>,
    /// Every feature recorded by the session, sorted, with counts.
    pub features: Vec<(Feature, usize)>,
}

/// The interactive session.
///
/// The program AST, the unit-name index and the interprocedural effects
/// are `Arc`-shared so [`PedSession::capture`] can publish an immutable
/// copy-on-write snapshot in O(user state): write methods mutate the
/// AST through [`Arc::make_mut`], which clones it only when a snapshot
/// still holds the previous version. `usage` and `cache` are *shared
/// handles* — a capture and its source record into the same counters
/// and memo tables (see [`crate::snapshot`]).
pub struct PedSession {
    pub program: Arc<Program>,
    unit_idx: usize,
    /// Upper-cased unit name → index, built once at `open` so
    /// `select_unit` is a hash lookup instead of a linear scan.
    units_by_name: Arc<HashMap<String, usize>>,
    pub ua: UnitAnalysis,
    pub assertions: Vec<Assertion>,
    /// User classification overrides: (loop, variable) → (class, reason).
    pub classification: HashMap<(LoopId, String), (VarClass, Option<String>)>,
    pub selected: Option<LoopId>,
    pub usage: UsageLog,
    pub effects: Arc<EffectsMap>,
    /// Incremental-reanalysis state (whole-analysis key + pair-test
    /// memo); see [`crate::cache`].
    pub cache: AnalysisCache,
    /// Lifetime tester-kind tallies accumulated over the session's
    /// graph builds (cache-answered pairs add nothing).
    test_kinds: TestKindCounts,
}

impl PedSession {
    /// Open a program in the editor: runs the full interprocedural
    /// analysis suite, prewarms every unit's scalar facts, and builds
    /// the current unit's analyses.
    pub fn open(program: Program) -> PedSession {
        Self::open_with(program, 0)
    }

    /// [`PedSession::open`] with an explicit scalar-prewarm worker
    /// count. `0` sizes the pool to the machine (same policy as the
    /// dependence builder); `1` forces a serial prewarm.
    pub fn open_with(program: Program, threads: usize) -> PedSession {
        let (effects, facts) =
            ped_transform::ctx::effects_and_facts(&program, prewarm_workers(&program, threads));
        let cache = AnalysisCache::new();
        let usage = UsageLog::default();
        usage.record_n(Feature::ScalarCacheMiss, facts.len());
        for (idx, f) in facts.iter().enumerate() {
            cache.scalar_prime(idx, f.clone());
        }
        let env = Self::env_from_facts(&program, &facts, 0, &[]);
        let ua = UnitAnalysis::build_from_facts(
            &program.units[0],
            &facts[0],
            env,
            Some(&mut cache.pairs()),
        );
        cache.prime(Self::analysis_key(&program, 0, &[]));
        let mut units_by_name = HashMap::new();
        for (idx, u) in program.units.iter().enumerate() {
            // First occurrence wins, matching the old linear scan.
            units_by_name
                .entry(u.name.to_ascii_uppercase())
                .or_insert(idx);
        }
        let mut s = PedSession {
            program: Arc::new(program),
            unit_idx: 0,
            units_by_name: Arc::new(units_by_name),
            ua,
            assertions: Vec::new(),
            classification: HashMap::new(),
            selected: None,
            usage,
            effects: Arc::new(effects),
            cache,
            test_kinds: TestKindCounts::default(),
        };
        s.absorb_test_kinds();
        s
    }

    /// Capture the session state for snapshot publication: the
    /// user-visible state is cloned (the `Arc`-shared AST and analysis
    /// artifacts by reference-count bump), while the usage log and the
    /// analysis cache come along as *shared handles* — reads served
    /// from the capture record telemetry and memoize exactly as they
    /// would on the source, which is what keeps concurrent server
    /// replies byte-identical to a sequential oracle.
    pub fn capture(&self) -> PedSession {
        PedSession {
            program: Arc::clone(&self.program),
            unit_idx: self.unit_idx,
            units_by_name: Arc::clone(&self.units_by_name),
            ua: self.ua.clone(),
            assertions: self.assertions.clone(),
            classification: self.classification.clone(),
            selected: self.selected,
            usage: self.usage.clone(),
            effects: Arc::clone(&self.effects),
            cache: self.cache.clone(),
            test_kinds: self.test_kinds,
        }
    }

    /// Fold the just-built graph's tester-kind tallies into the
    /// session's lifetime counters and mirror the exact fast-path hits
    /// into the usage log.
    fn absorb_test_kinds(&mut self) {
        let k = &self.ua.graph.test_kinds;
        self.test_kinds.add(k);
        self.usage.record_n(Feature::FastPathZiv, k.ziv as usize);
        self.usage
            .record_n(Feature::FastPathStrongSiv, k.strong_siv as usize);
        self.usage
            .record_n(Feature::FastPathWeakZeroSiv, k.weak_zero_siv as usize);
        self.usage.record_n(
            Feature::FastPathWeakCrossingSiv,
            k.weak_crossing_siv as usize,
        );
    }

    /// Fingerprint of everything the unit's analyses are a function of:
    /// the unit's content (declarations + every statement), its index,
    /// and the assertion set. Interprocedural effects are computed once
    /// at `open` and constant for the session, so they are not keyed.
    fn analysis_key(program: &Program, unit_idx: usize, assertions: &[Assertion]) -> u64 {
        let mut h = ped_fortran::fingerprint::Fnv::new()
            .u64(unit_idx as u64)
            .u64(ped_fortran::fingerprint::unit_fingerprint(
                &program.units[unit_idx],
            ));
        for a in assertions {
            h = h.str(&a.to_string());
        }
        h.done()
    }

    /// The symbolic environment for a unit: global interprocedural facts
    /// + the bundle's intraprocedural invariant relations + user
    /// assertions. The scalar pipeline (symbols, refs, CFG, relation
    /// detection) is not rerun here — the program-wide scan and the
    /// unit's relations both read the memoized facts.
    fn env_from_facts(
        program: &Program,
        all_facts: &[Arc<ScalarFacts>],
        unit_idx: usize,
        assertions: &[Assertion],
    ) -> SymbolicEnv {
        let global = ped_analysis::global::global_symbolic_facts_from(
            program
                .units
                .iter()
                .zip(all_facts)
                .map(|(u, f)| (u, &*f.symbols, &*f.plain_refs)),
        );
        let mut env = ped_transform::ctx::unit_env(&global, &all_facts[unit_idx]);
        for a in assertions {
            let _ = a.apply(&mut env);
        }
        env
    }

    /// Every unit's memoized scalar facts, in unit order (only edited
    /// units rebuild).
    fn all_scalar_facts(&self) -> Vec<Arc<ScalarFacts>> {
        (0..self.program.units.len())
            .map(|i| self.scalar_facts(i))
            .collect()
    }

    /// The unit's memoized scalar facts: a hash lookup when the unit's
    /// content is unchanged, a full scalar-pipeline run otherwise.
    fn scalar_facts(&self, unit_idx: usize) -> Arc<ScalarFacts> {
        let fp = ped_fortran::fingerprint::unit_fingerprint(&self.program.units[unit_idx]);
        if let Some(f) = self.cache.scalar_check(unit_idx, fp) {
            self.usage.record(Feature::ScalarCacheHit);
            return f;
        }
        self.usage.record(Feature::ScalarCacheMiss);
        let f = Arc::new(ScalarFacts::build(
            &self.program.units[unit_idx],
            Some(self.effects.as_ref()),
        ));
        self.cache.scalar_store(unit_idx, f.clone());
        f
    }

    /// Rebuild the current unit's analyses (after an edit,
    /// transformation, or new assertion) — incrementally. If nothing the
    /// analyses depend on changed (the unit's content, its index, the
    /// assertion set), the existing state is kept untouched: marks,
    /// selection and all. Otherwise the unit is rebuilt with the
    /// pair-test memo attached, so only the reference pairs whose
    /// statements or enclosing loops changed are re-tested.
    pub fn reanalyze(&mut self) {
        let key = Self::analysis_key(&self.program, self.unit_idx, &self.assertions);
        if self.cache.check(key) {
            self.usage.record(Feature::AnalysisCacheHit);
            return;
        }
        self.usage.record(Feature::AnalysisCacheMiss);
        let all_facts = self.all_scalar_facts();
        let env = Self::env_from_facts(&self.program, &all_facts, self.unit_idx, &self.assertions);
        let mut pairs = self.cache.pairs();
        let old = std::mem::replace(
            &mut self.ua,
            UnitAnalysis::build_from_facts(
                &self.program.units[self.unit_idx],
                &all_facts[self.unit_idx],
                env,
                Some(&mut pairs),
            ),
        );
        drop(pairs);
        self.absorb_test_kinds();
        // Carry user marks across (same endpoints/var/level/kind).
        ped_transform::ctx::carry_user_marks(
            &old.graph,
            &old.marking,
            &self.ua.graph,
            &mut self.ua.marking,
            None,
        );
        // Keep the selection when the loop still exists.
        if let Some(sel) = self.selected {
            if sel.0 as usize >= self.ua.nest.len() {
                self.selected = None;
            }
        }
    }

    /// Lifetime cache counters: (whole-analysis hits, whole-analysis
    /// misses, pair-test hits, pair-test misses).
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        self.cache.stats()
    }

    /// A structured snapshot of the session's telemetry: the incremental
    /// engine's cache counters (both as lifetime counts and as the
    /// `UsageLog` mirror) plus every recorded feature count. This is the
    /// supported way to observe the counters — callers (the server's
    /// `stats` method, tests) should not poke at `cache`/`usage`
    /// internals.
    pub fn stats(&self) -> SessionStats {
        let (analysis_hits, analysis_misses, pair_hits, pair_misses) = self.cache.stats();
        let (lint_hits, lint_misses) = self.cache.lint_stats();
        let (scalar_hits, scalar_misses) = self.cache.scalar_stats();
        let (par_hits, par_misses) = self.cache.par_stats();
        let disk = self.cache.disk_stats();
        let (snapshot_epoch, snapshot_reads, writer_publishes) = self.usage.publication_counters();
        let (vm_instrs, vm_compile_ns, trace_events, validated_confirmed, validated_disproven) =
            self.usage.vm_counters();
        SessionStats {
            analysis_hits,
            analysis_misses,
            pair_hits,
            pair_misses,
            reanalyze_hits: self.usage.count(Feature::AnalysisCacheHit),
            reanalyze_misses: self.usage.count(Feature::AnalysisCacheMiss),
            lint_hits,
            lint_misses,
            scalar_hits,
            scalar_misses,
            par_hits,
            par_misses,
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_corrupt: disk.corrupt,
            disk_writes: disk.writes,
            snapshot_epoch,
            snapshot_reads,
            writer_publishes,
            vm_instrs,
            vm_compile_ns,
            trace_events,
            validated_confirmed,
            validated_disproven,
            test_kinds: self
                .test_kinds
                .rows()
                .iter()
                .filter(|(_, n)| *n > 0)
                .copied()
                .collect(),
            features: self.usage.snapshot(),
        }
    }

    /// Switch to another program unit by name (indexed lookup — no
    /// linear scan over the unit list).
    pub fn select_unit(&mut self, name: &str) -> Result<(), String> {
        let idx = *self
            .units_by_name
            .get(&name.to_ascii_uppercase())
            .ok_or_else(|| format!("unknown unit {name}"))?;
        self.unit_idx = idx;
        self.selected = None;
        self.reanalyze();
        self.usage.record(Feature::ProgramNavigation);
        Ok(())
    }

    pub fn unit_index(&self) -> usize {
        self.unit_idx
    }

    pub fn current_unit(&self) -> &ped_fortran::ast::ProcUnit {
        &self.program.units[self.unit_idx]
    }

    // -- progressive disclosure -----------------------------------------

    /// Select a loop: the dependence and variable panes now show its
    /// information (§3.1).
    pub fn select_loop(&mut self, l: LoopId) -> Result<(), String> {
        if (l.0 as usize) < self.ua.nest.len() {
            self.selected = Some(l);
            self.usage.record(Feature::ProgramNavigation);
            Ok(())
        } else {
            Err(format!("no such loop {l}"))
        }
    }

    /// Dependence pane rows for the selected loop, optionally filtered.
    pub fn dependence_rows(&self, filter: &DepFilter) -> Vec<DepRow> {
        let Some(sel) = self.selected else {
            return Vec::new();
        };
        if *filter != DepFilter::All {
            self.usage.record(Feature::ViewFiltering);
        }
        self.usage.record(Feature::DependenceNavigation);
        let marking = &self.ua.marking;
        self.ua
            .graph
            .for_loop(sel)
            .filter(|d| filter.matches(d, marking))
            .map(|d| {
                let ref_text = |r: Option<ped_analysis::refs::RefId>| -> String {
                    match r {
                        Some(id) => {
                            let vr = self.ua.refs.get(id);
                            if vr.subs.is_empty() {
                                vr.name.clone()
                            } else {
                                print_lvalue(&ped_fortran::ast::LValue::Elem {
                                    name: vr.name.clone(),
                                    subs: vr.subs.clone(),
                                })
                            }
                        }
                        None => stmt_desc(&self.program, d.src_stmt),
                    }
                };
                DepRow {
                    id: d.id,
                    kind: d.kind.to_string(),
                    source: ref_text(d.src),
                    sink: match d.sink {
                        Some(_) => ref_text(d.sink),
                        None => stmt_desc(&self.program, d.sink_stmt),
                    },
                    vector: d.vector.to_string(),
                    level: d.level.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
                    block: d
                        .carrier()
                        .map(|c| self.ua.nest.get(c).var.clone())
                        .unwrap_or_default(),
                    mark: marking.mark_of(d.id),
                    reason: marking.reason_of(d.id).unwrap_or("").to_string(),
                }
            })
            .collect()
    }

    /// Variable pane rows for the selected loop.
    pub fn variable_rows(&self, filter: &VarFilter) -> Vec<VarRow> {
        let Some(sel) = self.selected else {
            return Vec::new();
        };
        if *filter != VarFilter::All {
            self.usage.record(Feature::ViewFiltering);
        }
        let info = self.ua.nest.get(sel);
        let body: std::collections::HashSet<StmtId> = info.body.iter().copied().collect();
        let privs = ped_analysis::privatize::analyze_loop(
            &self.ua.symbols,
            &self.ua.cfg,
            &self.ua.refs,
            &self.ua.defuse,
            info,
        );
        // Variables referenced in the loop.
        let mut names: Vec<String> = Vec::new();
        for r in &self.ua.refs.refs {
            if body.contains(&r.stmt) && !names.contains(&r.name) {
                names.push(r.name.clone());
            }
        }
        let line_of = |s: StmtId| -> u32 {
            ped_fortran::ast::find_stmt(&self.program.units[self.unit_idx].body, s)
                .map(|st| st.span.start)
                .unwrap_or(0)
        };
        let mut rows = Vec::new();
        for name in names {
            let sym = self.ua.symbols.get(&name);
            let dim = sym.map(|s| s.dims.len()).unwrap_or(0);
            let block = sym
                .and_then(|s| s.common_block.clone())
                .flatten()
                .unwrap_or_default();
            match filter {
                VarFilter::All => {}
                VarFilter::Name(n) => {
                    if !n.eq_ignore_ascii_case(&name) {
                        continue;
                    }
                }
                VarFilter::ArraysOnly => {
                    if dim == 0 {
                        continue;
                    }
                }
                VarFilter::ScalarsOnly => {
                    if dim > 0 {
                        continue;
                    }
                }
                VarFilter::InCommon(b) => {
                    let want = b.clone().unwrap_or_default();
                    if block != want {
                        continue;
                    }
                }
                VarFilter::SharedOnly | VarFilter::PrivateOnly => {}
            }
            let defs_outside: Vec<u32> = self
                .ua
                .refs
                .defs_of(&name)
                .filter(|r| !body.contains(&r.stmt))
                .map(|r| line_of(r.stmt))
                .collect();
            let uses_outside: Vec<u32> = self
                .ua
                .refs
                .uses_of(&name)
                .filter(|r| !body.contains(&r.stmt))
                .map(|r| line_of(r.stmt))
                .collect();
            // Classification: user override wins, then analysis.
            let (kind, reason) = match self.classification.get(&(sel, name.clone())) {
                Some((c, reason)) => (format!("{c} (user)"), reason.clone().unwrap_or_default()),
                None => {
                    if info.var == name {
                        ("private (loop index)".into(), String::new())
                    } else if dim == 0 {
                        match privs.status(&name) {
                            Some(PrivStatus::Private) => {
                                ("private".into(), "killed each iteration".into())
                            }
                            Some(PrivStatus::PrivateNeedsLastValue) => {
                                ("private+lastvalue".into(), "killed; live after loop".into())
                            }
                            _ => ("shared".into(), String::new()),
                        }
                    } else {
                        ("shared".into(), String::new())
                    }
                }
            };
            match filter {
                VarFilter::SharedOnly if !kind.starts_with("shared") => continue,
                VarFilter::PrivateOnly if !kind.starts_with("private") => continue,
                _ => {}
            }
            rows.push(VarRow {
                name,
                dim,
                block,
                defs_outside,
                uses_outside,
                kind,
                reason,
            });
        }
        rows
    }

    /// Source pane rows with loop markers; the selected loop highlighted.
    pub fn source_rows(&self) -> Vec<SourceRow> {
        let text = ped_fortran::pretty::print_program(&self.program);
        let selected_span = self.selected.map(|l| {
            let info = self.ua.nest.get(l);
            let unit = &self.program.units[self.unit_idx];
            let s = ped_fortran::ast::find_stmt(&unit.body, info.stmt);
            s.map(|st| st.span).unwrap_or_default()
        });
        let _ = selected_span;
        let unit_name = self.current_unit().name.clone();
        let mut in_unit = false;
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let up = line.to_ascii_uppercase();
            if up.contains(&format!("PROGRAM {}", unit_name.to_ascii_uppercase()))
                || up.contains(&format!("SUBROUTINE {}", unit_name.to_ascii_uppercase()))
                || up.contains(&format!("FUNCTION {}", unit_name.to_ascii_uppercase()))
            {
                in_unit = true;
            }
            let t = line
                .trim_start()
                .trim_start_matches(|c: char| c.is_ascii_digit());
            let is_loop = t.trim_start().starts_with("DO ");
            rows.push(SourceRow {
                ordinal: (i + 1) as u32,
                loop_marker: is_loop,
                highlighted: in_unit && self.selected.is_some() && is_loop,
                text: line.to_string(),
            });
            if up.trim() == "END" {
                in_unit = false;
            }
        }
        rows
    }

    // -- dependence marking (the §3.1 editing operations) ----------------

    /// Mark a dependence; rejecting logs "dependence deletion".
    pub fn mark_dependence(
        &mut self,
        id: DepId,
        mark: Mark,
        reason: Option<String>,
    ) -> Result<(), MarkError> {
        if mark == Mark::Rejected {
            self.usage.record(Feature::DependenceDeletion);
        }
        self.ua.marking.set(id, mark, reason)
    }

    /// Mark Dependences dialog: classify every dependence of the selected
    /// loop matching the filter. Returns how many were marked.
    pub fn mark_dependences_where(
        &mut self,
        filter: &DepFilter,
        mark: Mark,
        reason: Option<&str>,
    ) -> usize {
        let Some(sel) = self.selected else { return 0 };
        if mark == Mark::Rejected {
            self.usage.record(Feature::DependenceDeletion);
        }
        let ids: Vec<DepId> = {
            let marking = &self.ua.marking;
            self.ua
                .graph
                .for_loop(sel)
                .filter(|d| filter.matches(d, marking))
                .map(|d| d.id)
                .collect()
        };
        let mut count = 0;
        for id in ids {
            if self
                .ua
                .marking
                .set(id, mark, reason.map(|s| s.to_string()))
                .is_ok()
            {
                count += 1;
            }
        }
        count
    }

    // -- variable classification ------------------------------------------

    /// Classify a variable for the selected loop. Classifying a variable
    /// private that analysis believes is shared is a user override (the
    /// "overly conservative classification" correction of §3.1).
    pub fn classify_variable(
        &mut self,
        name: &str,
        class: VarClass,
        reason: Option<String>,
    ) -> Result<(), String> {
        let sel = self.selected.ok_or("no loop selected")?;
        self.usage.record(Feature::VariableClassification);
        self.classification
            .insert((sel, name.to_ascii_uppercase()), (class, reason));
        Ok(())
    }

    /// Names the user has classified private for a loop.
    pub fn user_private(&self, l: LoopId) -> Vec<String> {
        self.classification
            .iter()
            .filter(|((ll, _), (c, _))| *ll == l && *c == VarClass::Private)
            .map(|((_, n), _)| n.clone())
            .collect()
    }

    // -- assertions -------------------------------------------------------

    /// Add a user assertion and fold it into all analyses.
    pub fn assert_fact(&mut self, text: &str) -> Result<(), AssertError> {
        let a = Assertion::parse(text)?;
        // Validate it applies cleanly before recording.
        let mut probe = SymbolicEnv::new();
        a.apply(&mut probe)?;
        self.assertions.push(a);
        self.usage.record(Feature::AccessToAnalysis);
        self.reanalyze();
        Ok(())
    }

    // -- parallelization ---------------------------------------------------

    /// Parallelization report for a loop, honoring user classifications.
    pub fn impediments(&self, l: LoopId) -> ped_transform::parallelize::ParallelizationReport {
        let mut report =
            ped_transform::analyze_parallelization(&self.program.units[self.unit_idx], &self.ua, l);
        let user_priv = self.user_private(l);
        if !user_priv.is_empty() {
            report
                .impediments
                .retain(|i| !user_priv.iter().any(|p| p.eq_ignore_ascii_case(&i.var)));
        }
        report
    }

    /// Certify a loop parallel; fails with the impediment list otherwise.
    pub fn parallelize_loop(&mut self, l: LoopId) -> Result<Applied, TransformError> {
        let report = self.impediments(l);
        if !report.is_parallel() {
            let first = &report.impediments[0];
            return Err(TransformError::Unsafe(format!(
                "{} impediment(s); first: {} dependence on {}",
                report.impediments.len(),
                first.kind,
                first.var
            )));
        }
        let target = self.ua.nest.get(l).stmt;
        ped_transform::util::with_do_mut(
            &mut Arc::make_mut(&mut self.program).units[self.unit_idx].body,
            target,
            |s| {
                if let StmtKind::Do { sched, .. } = &mut s.kind {
                    *sched = ped_fortran::ast::LoopSched::Parallel;
                }
            },
        )
        .ok_or_else(|| TransformError::Internal("loop not found".into()))?;
        self.reanalyze();
        Ok(Applied::note("loop certified parallel"))
    }

    /// Whole-program auto-parallelization (the batch `ped-par` pass):
    /// classify every loop nest of every unit, plan dependence-breaking
    /// transformations, emit profitable `CDOALL` directives, and verify
    /// each one differentially. The report is memoized under a
    /// fingerprint of every unit's content, so repeated calls on an
    /// unchanged program are answered from the memo (`par_hits` /
    /// `par_misses` in [`SessionStats`]).
    pub fn parallelize(&self) -> Arc<ped_par::ParReport> {
        self.usage.record(Feature::AccessToAnalysis);
        let key = ped_par::program_fingerprint(&self.program);
        if let Some(report) = self.cache.par_check(key) {
            self.usage.record(Feature::ParCacheHit);
            return report;
        }
        self.usage.record(Feature::ParCacheMiss);
        let (report, _) =
            ped_par::parallelize_program(&self.program, &ped_par::ParOptions::default());
        let report = Arc::new(report);
        self.cache.par_store(key, report.clone());
        report
    }

    // -- lint ---------------------------------------------------------------

    /// Fingerprint of everything one unit's lint report depends on: the
    /// unit's content, every unit's *interface* (name, kind, dummies,
    /// declarations — PED009 checks call sites against callee
    /// signatures, so a signature edit anywhere must dirty every unit,
    /// while a body-only edit keeps other units' memo hits), and — for
    /// the current unit, where user state applies — the assertion set,
    /// the classification map, and the set of rejected dependences.
    fn lint_key(&self, idx: usize) -> u64 {
        let mut h = ped_fortran::fingerprint::Fnv::new().u64(idx as u64).u64(
            ped_fortran::fingerprint::unit_fingerprint(&self.program.units[idx]),
        );
        for u in &self.program.units {
            h = h.u64(ped_fortran::fingerprint::decls_fingerprint(u));
        }
        if idx == self.unit_idx {
            for a in &self.assertions {
                h = h.str(&a.to_string());
            }
            let mut cls: Vec<String> = self
                .classification
                .iter()
                .map(|((l, n), (c, _))| format!("{}:{}:{}", l.0, n, c))
                .collect();
            cls.sort();
            for c in cls {
                h = h.str(&c);
            }
            let mut rej: Vec<String> = self
                .ua
                .graph
                .deps
                .iter()
                .filter(|d| self.ua.marking.mark_of(d.id) == Mark::Rejected)
                .map(|d| {
                    format!(
                        "{}:{}:{}:{}:{:?}",
                        d.src_stmt, d.sink_stmt, d.var, d.kind, d.level
                    )
                })
                .collect();
            rej.sort();
            for r in rej {
                h = h.str(&r);
            }
        }
        h.done()
    }

    /// The user's decisions, lowered for the lint engine.
    fn lint_user_context(&self) -> ped_lint::UserContext {
        let mut user = ped_lint::UserContext::default();
        for ((l, n), (c, _)) in &self.classification {
            user.classified.insert((l.0, n.clone()));
            if *c == VarClass::Private {
                user.private.insert((l.0, n.clone()));
            }
        }
        for a in &self.assertions {
            let mut probe = SymbolicEnv::new();
            if a.apply(&mut probe).is_ok() {
                user.asserted.push(ped_lint::AssertedFact {
                    text: a.to_string(),
                    nonneg: probe.facts.clone(),
                    ranges: probe.ranges.into_iter().collect(),
                });
            }
        }
        user
    }

    /// Run the static race detector and lint rules over the whole
    /// program, honoring the session's marks, classifications, and
    /// assertions for the current unit. Per-unit results are memoized
    /// under a fingerprint of their inputs, so after an incremental edit
    /// only the dirty unit is re-linted.
    pub fn lint(&self) -> Vec<ped_lint::Finding> {
        self.usage.record(Feature::AccessToAnalysis);
        let ctx = ped_lint::LintContext::new(&self.program, &self.effects);
        let mut out: Vec<ped_lint::Finding> = Vec::new();
        for idx in 0..self.program.units.len() {
            let key = self.lint_key(idx);
            if let Some(cached) = self.cache.lint_check(idx, key) {
                self.usage.record(Feature::LintCacheHit);
                out.extend(cached);
                continue;
            }
            self.usage.record(Feature::LintCacheMiss);
            let findings = if idx == self.unit_idx {
                let user = self.lint_user_context();
                ped_lint::lint_unit(&self.program, idx, &self.ua, &ctx, &user)
            } else {
                let all_facts = self.all_scalar_facts();
                let env = Self::env_from_facts(&self.program, &all_facts, idx, &[]);
                let ua = UnitAnalysis::build_from_facts(
                    &self.program.units[idx],
                    &all_facts[idx],
                    env,
                    None,
                );
                ped_lint::lint_unit(
                    &self.program,
                    idx,
                    &ua,
                    &ctx,
                    &ped_lint::UserContext::default(),
                )
            };
            self.cache.lint_store(idx, key, findings.clone());
            out.extend(findings);
        }
        ped_lint::sort_findings(&mut out);
        out
    }

    // -- transformations ----------------------------------------------------

    /// Transformation guidance (§5.3): evaluate each catalog entry's
    /// advice for the loop and return only the safe ones.
    pub fn suggest_transformations(&self, l: LoopId) -> Vec<(String, ped_transform::Advice)> {
        self.usage.record(Feature::AccessToAnalysis);
        let unit = &self.program.units[self.unit_idx];
        let mut out = Vec::new();
        let candidates: Vec<(String, ped_transform::Advice)> = vec![
            (
                "Loop Distribution".into(),
                ped_transform::reorder::distribute_advice(unit, &self.ua, l),
            ),
            (
                "Loop Interchange".into(),
                ped_transform::reorder::interchange_advice(unit, &self.ua, l),
            ),
            (
                "Loop Reversal".into(),
                ped_transform::reorder::reversal_advice(&self.ua, l),
            ),
            (
                "Sequential <-> Parallel".into(),
                ped_transform::parallelize::parallelize_advice(unit, &self.ua, l),
            ),
            (
                "Loop Unrolling".into(),
                ped_transform::memory::unroll_advice(&self.ua, l, 4),
            ),
            (
                "Unroll and Jam".into(),
                ped_transform::memory::unroll_and_jam_advice(unit, &self.ua, l),
            ),
        ];
        for (name, advice) in candidates {
            if advice.applicable && advice.safety == ped_transform::Safety::Safe {
                out.push((name, advice));
            }
        }
        out
    }

    /// Apply a transformation by closure (used by the named wrappers) and
    /// re-analyze.
    pub fn transform_with(
        &mut self,
        f: impl FnOnce(&mut Program, usize, &UnitAnalysis) -> Result<Applied, TransformError>,
    ) -> Result<Applied, TransformError> {
        let r = f(Arc::make_mut(&mut self.program), self.unit_idx, &self.ua)?;
        self.reanalyze();
        Ok(r)
    }

    // -- navigation & other tools -------------------------------------------

    /// Rank loops by estimated cost (optionally profile-weighted): the
    /// navigation assistance of §3.2.
    pub fn navigate(&self, profile: Option<&HashMap<StmtId, u64>>) -> Vec<ped_estimate::LoopRank> {
        self.usage.record(Feature::ProgramNavigation);
        ped_estimate::rank_loops(&self.program, &ped_estimate::CostModel::default(), profile)
    }

    /// Textual call graph (§3.2's requested "big picture").
    pub fn call_graph(&self) -> String {
        self.usage.record(Feature::ProgramNavigation);
        ped_interproc::CallGraph::build(&self.program).render_text()
    }

    /// Composition Editor checks (§3.2).
    pub fn compose_check(&self) -> Vec<ped_interproc::ComposeIssue> {
        self.usage.record(Feature::InterfaceErrorDetection);
        ped_interproc::compose_check(&self.program)
    }

    /// Run the program on the simulated parallel machine; loop profiles
    /// feed back into navigation. Dispatches to the bytecode VM when
    /// the program compiles (the tree walk is the fallback) and folds
    /// the engine meters into [`SessionStats`].
    pub fn run(
        &self,
        opts: ped_runtime::RunOptions,
    ) -> Result<ped_runtime::RunOutput, ped_runtime::RuntimeError> {
        let (out, m) = ped_runtime::run_metered(&self.program, opts)?;
        self.usage.note_vm_run(m.vm_instrs, m.vm_compile_ns);
        Ok(out)
    }

    /// Dynamic dependence validation (§4's complement to dependence
    /// deletion): replay the program under the tracing VM and classify
    /// every active carried array dependence of the current unit
    /// against the accesses that actually happened. Assumed edges with
    /// no observed witness come back [`ped_vm::DynVerdict::Disproven`]
    /// — candidates for user deletion, valid for these inputs; edges
    /// with a witness iteration pair are confirmed real.
    pub fn validate(&self, opts: ped_runtime::RunOptions) -> Result<Vec<DepValidation>, String> {
        self.usage.record(Feature::AccessToAnalysis);
        let mut targets = Vec::new();
        for d in &self.ua.graph.deps {
            let (src_write, sink_write) = match d.kind {
                ped_dependence::DepKind::True => (true, false),
                ped_dependence::DepKind::Anti => (false, true),
                ped_dependence::DepKind::Output => (true, true),
                _ => continue,
            };
            let Some(level) = d.level else { continue };
            if !self.ua.marking.is_active(d.id) {
                continue;
            }
            // The tracer records array element accesses; scalar edges
            // have no dynamic address stream to test.
            let is_array = self
                .ua
                .symbols
                .get(&d.var)
                .map(|s| !s.dims.is_empty())
                .unwrap_or(false);
            if !is_array || (level as usize) > d.common.len() {
                continue;
            }
            let chain: Vec<u32> = d
                .common
                .iter()
                .map(|&l| self.ua.nest.get(l).stmt.0)
                .collect();
            targets.push(ped_vm::DynTarget {
                dep: d.id.0 as u64,
                var: d.var.clone(),
                src_stmt: d.src_stmt.0,
                sink_stmt: d.sink_stmt.0,
                src_write,
                sink_write,
                chain,
                level: level as usize,
                assumed: !d.exact,
            });
        }
        let outcome =
            ped_vm::validate(&self.program, &opts, &targets).map_err(|e| e.to_string())?;
        let confirmed = outcome
            .results
            .iter()
            .filter(|r| r.verdict == ped_vm::DynVerdict::Confirmed)
            .count() as u64;
        let disproven = outcome
            .results
            .iter()
            .filter(|r| r.verdict == ped_vm::DynVerdict::Disproven)
            .count() as u64;
        self.usage
            .note_validate(outcome.trace_events, confirmed, disproven);
        Ok(targets
            .iter()
            .zip(outcome.results)
            .map(|(t, r)| DepValidation {
                id: DepId(t.dep as u32),
                var: t.var.clone(),
                level: t.level as u32,
                assumed: t.assumed,
                verdict: r.verdict,
                witness: r.witness,
                src_events: r.src_events,
                sink_events: r.sink_events,
            })
            .collect())
    }

    /// Interactive help (§3.2: "two users found the interactive help
    /// facility useful").
    pub fn help(&self, topic: &str) -> String {
        self.usage.record(Feature::Help);
        crate::help_text(topic)
    }

    /// Dependence endpoint navigation (§3.2: "they needed to visit
    /// dependence endpoints quickly rather than having to scroll through
    /// the source"): the source lines of a dependence's endpoints.
    pub fn endpoint_lines(&self, id: DepId) -> (u32, u32) {
        self.usage.record(Feature::DependenceNavigation);
        let d = self.ua.graph.get(id);
        let line = |stmt| {
            ped_fortran::ast::find_stmt(&self.program.units[self.unit_idx].body, stmt)
                .map(|s| s.span.start)
                .unwrap_or(0)
        };
        (line(d.src_stmt), line(d.sink_stmt))
    }

    /// §4.3 breaking-condition assistance: for every impediment of the
    /// selected loop, derive (and validate) the assertion that would
    /// eliminate it.
    pub fn suggest_breaking_conditions(
        &self,
        l: LoopId,
    ) -> Vec<(DepId, crate::breaking::BreakingCondition)> {
        self.usage.record(Feature::AccessToAnalysis);
        let ids: Vec<DepId> = self
            .ua
            .graph
            .parallelism_inhibitors(l)
            .filter(|d| self.ua.marking.is_active(d.id))
            .map(|d| d.id)
            .collect();
        let mut out = Vec::new();
        for id in ids {
            if let Some(cond) = crate::breaking::suggest_breaking_condition(self, id) {
                if crate::breaking::condition_would_break(self, id, &cond) {
                    out.push((id, cond));
                }
            }
        }
        out
    }

    // -- editing (§3.1: "supports program editing … incremental parsing
    //    occurs in response to edits, and the user is immediately
    //    informed of any syntactic or semantic errors") ------------------

    /// Replace a statement with newly-typed source text. The text is
    /// parsed immediately; on error nothing changes and the diagnostics
    /// are returned. On success all analyses are rebuilt (marks carried
    /// over where dependences survive).
    pub fn edit_statement(&mut self, target: StmtId, text: &str) -> Result<(), String> {
        let new_kind = Self::parse_simple_statement(text)?;
        let program = Arc::make_mut(&mut self.program);
        let id = program.fresh_stmt();
        let replaced = ped_transform::util::with_containing_block(
            &mut program.units[self.unit_idx].body,
            target,
            |block, i| {
                let label = block[i].label;
                let span = block[i].span;
                let mut stmt = ped_fortran::ast::Stmt::new(id, new_kind).with_span(span);
                stmt.label = label;
                block[i] = stmt;
            },
        );
        if replaced.is_none() {
            return Err(format!("statement {target} not found in the current unit"));
        }
        self.reanalyze();
        Ok(())
    }

    /// Insert a newly-typed statement after `anchor`.
    pub fn insert_statement_after(&mut self, anchor: StmtId, text: &str) -> Result<(), String> {
        let new_kind = Self::parse_simple_statement(text)?;
        let program = Arc::make_mut(&mut self.program);
        let id = program.fresh_stmt();
        let inserted = ped_transform::util::with_containing_block(
            &mut program.units[self.unit_idx].body,
            anchor,
            |block, i| {
                block.insert(i + 1, ped_fortran::ast::Stmt::new(id, new_kind));
            },
        );
        if inserted.is_none() {
            return Err(format!("statement {anchor} not found in the current unit"));
        }
        self.reanalyze();
        Ok(())
    }

    /// Parse one simple (non-block) statement from user-typed text.
    fn parse_simple_statement(text: &str) -> Result<StmtKind, String> {
        let wrapped = format!(
            "      {}
      END
",
            text.trim()
        );
        let (prog, diags) = ped_fortran::parse(&wrapped);
        if diags.has_errors() {
            return Err(diags
                .errors()
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
                .join("; "));
        }
        let unit = prog.units.into_iter().next().ok_or("empty statement")?;
        match unit.body.into_iter().next() {
            Some(s) if matches!(s.kind, StmtKind::Do { .. } | StmtKind::If { .. }) => {
                Err("block statements cannot be edited in one line; edit their parts".into())
            }
            Some(s) => Ok(s.kind),
            None => Err("no statement found".into()),
        }
    }

    /// §3.2: "One user wanted the ability to print the program,
    /// dependences, and variable information" — a complete textual
    /// report of the session state for the selected loop.
    pub fn print_report(&self) -> String {
        let mut out = String::new();
        out.push_str("=== program ===\n");
        out.push_str(&ped_fortran::pretty::print_program(&self.program));
        if self.selected.is_some() {
            out.push_str("\n=== dependences (selected loop) ===\n");
            out.push_str(&crate::panes::render_dep_pane(
                &self.dependence_rows(&DepFilter::All),
            ));
            out.push_str("\n=== variables (selected loop) ===\n");
            out.push_str(&crate::panes::render_var_pane(
                &self.variable_rows(&VarFilter::All),
            ));
        }
        if !self.assertions.is_empty() {
            out.push_str("\n=== assertions ===\n");
            for a in &self.assertions {
                out.push_str(&format!("{a}\n"));
            }
        }
        let (proven, pending, accepted, rejected) = self.ua.marking.counts();
        out.push_str(&format!(
            "\n=== marks === proven {proven}, pending {pending}, accepted {accepted}, rejected {rejected}\n"
        ));
        out
    }

    /// Run the program once to gather loop-level profiles and feed them
    /// into navigation — the dynamic variant of §3.2's request.
    pub fn navigate_with_profile(
        &self,
        opts: ped_runtime::RunOptions,
    ) -> Result<Vec<ped_estimate::LoopRank>, ped_runtime::RuntimeError> {
        let out = self.run(opts)?;
        Ok(self.navigate(Some(&out.stats.loop_iterations)))
    }
}

/// Below this many statements program-wide, `open`'s auto prewarm stays
/// serial: thread spawns would cost more than the builds they offload
/// (the analogue of the dependence builder's pair cutoff).
const PREWARM_CUTOFF: usize = 256;

/// Workers for `open`'s scalar prewarm: [`fanout::workers`] over the
/// units, except that an auto-sized prewarm of a small program stays
/// serial. The result is by unit index either way.
fn prewarm_workers(program: &Program, threads: usize) -> usize {
    if threads == 0 {
        let mut stmts = 0usize;
        for u in &program.units {
            ped_fortran::ast::walk_stmts(&u.body, &mut |_| stmts += 1);
        }
        if stmts < PREWARM_CUTOFF {
            return 1;
        }
    }
    fanout::workers(threads, program.units.len())
}

fn stmt_desc(program: &Program, stmt: StmtId) -> String {
    for u in &program.units {
        if let Some(s) = ped_fortran::ast::find_stmt(&u.body, stmt) {
            let mut out = String::new();
            match &s.kind {
                StmtKind::If { arms, .. } => {
                    out = format!("IF ({})", ped_fortran::pretty::print_expr(&arms[0].0))
                }
                StmtKind::LogicalIf { cond, .. } => {
                    out = format!("IF ({})", ped_fortran::pretty::print_expr(cond))
                }
                StmtKind::ArithIf { expr, .. } => {
                    out = format!("IF ({})", ped_fortran::pretty::print_expr(expr))
                }
                _ => {
                    ped_fortran::pretty::print_block(std::slice::from_ref(s), 0, &mut out);
                    out = out.trim().to_string();
                }
            }
            if out.len() > 17 {
                out.truncate(17);
            }
            return out;
        }
    }
    format!("{stmt}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    const RECURRENCE: &str = "      REAL A(100), B(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n      B(I) = 2.0\n   10 CONTINUE\n      END\n";

    #[test]
    fn open_and_select() {
        let mut s = PedSession::open(parse_ok(RECURRENCE));
        assert_eq!(s.ua.nest.len(), 1);
        s.select_loop(LoopId(0)).unwrap();
        let rows = s.dependence_rows(&DepFilter::All);
        assert!(rows.iter().any(|r| r.source.contains("A(I)")));
    }

    #[test]
    fn stats_snapshot_mirrors_counters() {
        let mut s = PedSession::open(parse_ok(RECURRENCE));
        s.reanalyze(); // no-op: answered from the whole-analysis cache
        s.select_loop(LoopId(0)).unwrap();
        let st = s.stats();
        assert_eq!(st.analysis_hits, 1);
        assert_eq!(st.analysis_misses, 0);
        assert_eq!(st.reanalyze_hits, 1);
        assert_eq!(st.reanalyze_misses, 0);
        assert!(st
            .features
            .iter()
            .any(|(f, n)| *f == Feature::ProgramNavigation && *n > 0));
    }

    #[test]
    fn progressive_disclosure_requires_selection() {
        let s = PedSession::open(parse_ok(RECURRENCE));
        assert!(s.dependence_rows(&DepFilter::All).is_empty());
        assert!(s.variable_rows(&VarFilter::All).is_empty());
    }

    #[test]
    fn dependence_filtering() {
        let mut s = PedSession::open(parse_ok(RECURRENCE));
        s.select_loop(LoopId(0)).unwrap();
        let all = s.dependence_rows(&DepFilter::All).len();
        let a_only = s.dependence_rows(&DepFilter::parse("var=A").unwrap()).len();
        assert!(a_only < all || all == a_only);
        assert!(a_only >= 1);
        let none = s
            .dependence_rows(&DepFilter::parse("var=ZZZ").unwrap())
            .len();
        assert_eq!(none, 0);
    }

    #[test]
    fn variable_pane_kinds() {
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, N\n      T = A(I)\n      B(I) = T\n   10 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        let rows = s.variable_rows(&VarFilter::All);
        let t = rows.iter().find(|r| r.name == "T").unwrap();
        assert!(t.kind.starts_with("private"), "{t:?}");
        let a = rows.iter().find(|r| r.name == "A").unwrap();
        assert_eq!(a.dim, 1);
        assert!(a.kind.starts_with("shared"));
        let i = rows.iter().find(|r| r.name == "I").unwrap();
        assert!(i.kind.contains("loop index"));
    }

    #[test]
    fn whole_program_parallelize_is_memoized_until_an_edit() {
        let src = "      REAL A(100), B(100)\n      DO 5 K = 1, 100\n      B(K) = 1.0\n    5 CONTINUE\n      DO 10 I = 1, 100\n      A(I) = B(I) * 2.0\n   10 CONTINUE\n      WRITE (*,*) A(3)\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        let r1 = s.parallelize();
        assert!(r1.counts().parallel >= 2);
        assert!(!r1.directives.is_empty());
        let r2 = s.parallelize();
        assert!(Arc::ptr_eq(&r1, &r2), "unchanged program must hit the memo");
        let st = s.stats();
        assert_eq!((st.par_hits, st.par_misses), (1, 1));
        assert!(s.usage.used(Feature::ParCacheHit));
        assert!(s.usage.used(Feature::ParCacheMiss));
        // An edit changes the program fingerprint: the memo misses.
        s.edit_statement(find_assign(&s.program), "      B(K) = 3.0")
            .unwrap();
        let r3 = s.parallelize();
        assert!(!Arc::ptr_eq(&r1, &r3));
        assert_eq!(s.stats().par_misses, 2);
    }

    fn find_assign(p: &Program) -> StmtId {
        let mut id = None;
        ped_fortran::ast::walk_stmts(&p.units[0].body, &mut |st| {
            if id.is_none() && matches!(st.kind, StmtKind::Assign { .. }) {
                id = Some(st.id);
            }
        });
        id.unwrap()
    }

    #[test]
    fn parallelize_blocked_then_unblocked_by_marking() {
        let src = "      INTEGER IX(100)\n      REAL A(100), B(100)\n      DO 10 I = 1, N\n      A(IX(I)) = B(I) + A(IX(I) + 1)\n   10 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        assert!(s.parallelize_loop(LoopId(0)).is_err());
        let n = s.mark_dependences_where(
            &DepFilter::parse("mark=pending & var=A").unwrap(),
            Mark::Rejected,
            Some("IX values are distinct and non-adjacent"),
        );
        assert!(n > 0);
        s.parallelize_loop(LoopId(0)).unwrap();
        assert!(ped_fortran::pretty::print_program(&s.program).contains("CDOALL"));
        assert!(s.usage.count(Feature::DependenceDeletion) > 0);
    }

    #[test]
    fn assertion_removes_dependences() {
        // pueblo3d: the MCN assertion makes the loop parallel.
        let src = "      REAL UF(10000)\n      INTEGER ISTRT(10), IENDV(10)\n      DO 300 I = ISTRT(IR), IENDV(IR)\n      UF(I) = UF(I + MCN) + 1.0\n  300 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        assert!(!s.impediments(LoopId(0)).is_parallel());
        s.assert_fact("MCN .GT. IENDV(IR) - ISTRT(IR)").unwrap();
        assert!(
            s.impediments(LoopId(0)).is_parallel(),
            "{:?}",
            s.impediments(LoopId(0)).impediments
        );
        s.parallelize_loop(LoopId(0)).unwrap();
    }

    #[test]
    fn variable_classification_overrides_analysis() {
        // A conditional def makes T shared per analysis; the user knows
        // better (e.g. the condition always fires first iteration).
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, N\n      IF (A(I) .GT. 0.0) THEN\n      T = A(I)\n      END IF\n      B(I) = T\n   10 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        assert!(!s.impediments(LoopId(0)).is_parallel());
        s.classify_variable("T", VarClass::Private, Some("always set before use".into()))
            .unwrap();
        assert!(s.impediments(LoopId(0)).is_parallel());
        let rows = s.variable_rows(&VarFilter::All);
        let t = rows.iter().find(|r| r.name == "T").unwrap();
        assert!(t.kind.contains("user"));
    }

    #[test]
    fn suggestions_only_safe() {
        let src = "      REAL A(100,100)\n      DO 10 I = 2, N\n      DO 10 J = 1, M - 1\n      A(I,J) = A(I-1,J+1)\n   10 CONTINUE\n      END\n";
        let s = PedSession::open(parse_ok(src));
        let sugg = s.suggest_transformations(LoopId(0));
        // Interchange is unsafe for the (<, >) dependence: not suggested.
        assert!(
            !sugg.iter().any(|(n, _)| n == "Loop Interchange"),
            "{sugg:?}"
        );
        // Unrolling is always safe: suggested.
        assert!(sugg.iter().any(|(n, _)| n == "Loop Unrolling"));
    }

    #[test]
    fn navigation_ranks_loops() {
        let src = "      REAL A(10), B(10000)\n      DO 10 I = 1, 10\n      A(I) = 0.0\n   10 CONTINUE\n      DO 20 I = 1, 10000\n      B(I) = 0.0\n   20 CONTINUE\n      END\n";
        let s = PedSession::open(parse_ok(src));
        let ranks = s.navigate(None);
        assert_eq!(ranks.len(), 2);
        assert!(ranks[0].weight > ranks[1].weight);
        assert!(s.usage.count(Feature::ProgramNavigation) > 0);
    }

    #[test]
    fn session_runs_program() {
        let src = "      S = 0.0\n      DO 10 I = 1, 10\n      S = S + I\n   10 CONTINUE\n      WRITE (*,*) S\n      END\n";
        let s = PedSession::open(parse_ok(src));
        let out = s.run(ped_runtime::RunOptions::default()).unwrap();
        assert_eq!(out.lines, ["55.0"]);
    }

    #[test]
    fn lint_finds_race_in_marked_parallel_loop() {
        let src = "      REAL A(100)\nCDOALL\n      DO 10 I = 2, 100\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n";
        let s = PedSession::open(parse_ok(src));
        let f = s.lint();
        let race = f
            .iter()
            .find(|x| x.rule == ped_lint::RuleCode::ParallelLoopRace)
            .expect("race finding");
        let w = race.witness.as_ref().expect("witness");
        assert_eq!(w.src_iter, [2]);
        assert_eq!(w.sink_iter, [3]);
    }

    #[test]
    fn lint_memoizes_per_unit_and_invalidates_on_edit() {
        let src = "      REAL A(100)\nCDOALL\n      DO 10 I = 2, 100\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n      SUBROUTINE S2\n      REAL B(50)\n      DO 20 J = 1, 50\n      B(J) = 1.0\n   20 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        let f1 = s.lint();
        let f2 = s.lint();
        assert_eq!(f1, f2);
        let st = s.stats();
        assert_eq!(st.lint_misses, 2, "two units linted cold");
        assert_eq!(st.lint_hits, 2, "second call fully cached");
        // Edit the current unit: only it re-lints.
        let target = s.ua.nest.get(LoopId(0)).stmt;
        let body_stmt = s.ua.nest.get(LoopId(0)).body[0];
        let _ = target;
        s.edit_statement(body_stmt, "A(I) = 0.0").unwrap();
        let f3 = s.lint();
        assert!(
            !f3.iter()
                .any(|x| x.rule == ped_lint::RuleCode::ParallelLoopRace),
            "{f3:?}"
        );
        let st = s.stats();
        assert_eq!(st.lint_misses, 3, "only the edited unit re-linted");
        assert_eq!(st.lint_hits, 3);
        assert_eq!(s.usage.count(Feature::LintCacheHit), 3);
        assert_eq!(s.usage.count(Feature::LintCacheMiss), 3);
    }

    #[test]
    fn lint_honors_user_private_classification() {
        // T is conditionally defined: analysis says shared, the user
        // says private; after classification + parallelize, lint must
        // not report T as a race.
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, N\n      IF (A(I) .GT. 0.0) THEN\n      T = A(I)\n      END IF\n      B(I) = T\n   10 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        s.classify_variable("T", VarClass::Private, Some("set before use".into()))
            .unwrap();
        s.parallelize_loop(LoopId(0)).unwrap();
        let f = s.lint();
        assert!(
            !f.iter()
                .any(|x| x.rule == ped_lint::RuleCode::ParallelLoopRace && x.var == "T"),
            "{f:?}"
        );
        // And PED004 is silenced by the classification too.
        assert!(
            !f.iter()
                .any(|x| x.rule == ped_lint::RuleCode::UnclassifiedShared && x.var == "T"),
            "{f:?}"
        );
    }

    #[test]
    fn lint_flags_faith_rejections() {
        let src = "      INTEGER IX(100)\n      REAL A(100), B(100)\n      DO 10 I = 1, N\n      A(IX(I)) = B(I) + A(IX(I) + 1)\n   10 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        s.mark_dependences_where(
            &DepFilter::parse("mark=pending & var=A").unwrap(),
            Mark::Rejected,
            Some("IX is a permutation"),
        );
        s.parallelize_loop(LoopId(0)).unwrap();
        let f = s.lint();
        let faith = f
            .iter()
            .find(|x| x.rule == ped_lint::RuleCode::FaithRejection)
            .expect("PED002");
        assert!(faith.message.contains("IX is a permutation"));
        // The rejected deps must NOT also be races: the user took
        // responsibility for them.
        assert!(
            !f.iter()
                .any(|x| x.rule == ped_lint::RuleCode::ParallelLoopRace),
            "{f:?}"
        );
    }

    #[test]
    fn lint_flags_contradicted_assertion() {
        let src = "      REAL A(100)\n      N = 5\n      DO 10 I = 1, N\n      A(I) = 0.0\n   10 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.assert_fact("N .GE. 100").unwrap();
        let f = s.lint();
        assert!(
            f.iter()
                .any(|x| x.rule == ped_lint::RuleCode::AssertionContradicted),
            "{f:?}"
        );
    }

    #[test]
    fn compose_check_and_callgraph_via_session() {
        let src = "      PROGRAM MAIN\n      CALL S(X)\n      END\n      SUBROUTINE S(A, B)\n      A = B\n      RETURN\n      END\n";
        let s = PedSession::open(parse_ok(src));
        let issues = s.compose_check();
        assert_eq!(issues.len(), 1);
        let cg = s.call_graph();
        assert!(cg.contains("MAIN"));
        assert!(s.usage.count(Feature::InterfaceErrorDetection) > 0);
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    #[test]
    fn endpoint_navigation_gives_source_lines() {
        let src = "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        let dep = s.ua.graph.deps.iter().find(|d| d.var == "A").unwrap().id;
        let (src_line, sink_line) = s.endpoint_lines(dep);
        assert_eq!(src_line, 3);
        assert_eq!(sink_line, 3);
        assert!(s.usage.used(Feature::DependenceNavigation));
    }

    #[test]
    fn breaking_conditions_surface_through_session() {
        let src = "      REAL UF(10000)\n      DO 300 I = ISTRT, IENDV\n      UF(I) = UF(I + MCN) + 1.0\n  300 CONTINUE\n      END\n";
        let mut s = PedSession::open(parse_ok(src));
        s.select_loop(LoopId(0)).unwrap();
        let conds = s.suggest_breaking_conditions(LoopId(0));
        assert!(!conds.is_empty());
        let (_, cond) = &conds[0];
        s.assert_fact(&cond.assertion).unwrap();
        assert!(s.impediments(LoopId(0)).is_parallel());
    }

    #[test]
    fn profile_driven_navigation() {
        // Statically the symbolic-bound loop defaults to 100 trips; the
        // profile reveals it actually runs 5000.
        let src = "      REAL A(100), B(100)\n      N = 5000\n      DO 10 I = 1, N\n      A(MOD(I, 100) + 1) = 1.0\n   10 CONTINUE\n      DO 20 I = 1, 200\n      B(I - 100) = 2.0\n   20 CONTINUE\n      END\n";
        // (second loop bounds shrunk to fit B: use 101..200 -> 1..100)
        let src = src.replace("DO 20 I = 1, 200", "DO 20 I = 101, 200");
        let s = PedSession::open(parse_ok(&src));
        let static_ranks = s.navigate(None);
        // Statically the 100-trip-assumed loops are comparable.
        let dynamic_ranks = s
            .navigate_with_profile(ped_runtime::RunOptions::default())
            .unwrap();
        assert_eq!(static_ranks.len(), dynamic_ranks.len());
        // The profiled N-loop dominates.
        assert!(dynamic_ranks[0].weight > 10.0 * dynamic_ranks[1].weight);
    }
}
