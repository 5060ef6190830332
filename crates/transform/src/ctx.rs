//! Per-unit and per-program analysis bundles used by transformations.
//!
//! Transformations consult dependences, the loop tree and the marking
//! state to decide safety ("power steering": the system advises whether
//! the transformation is applicable, safe and profitable — §5.1). After
//! a transformation mutates the AST the bundle is stale; callers rebuild
//! it with [`UnitAnalysis::build`] or incrementally via
//! [`crate::update`].
//!
//! Whole-program consumers (the batch driver, the lint engine,
//! `ped-par`) share one [`ProgramAnalysis`]: MOD/REF effects, every
//! unit's scalar facts, the program-wide symbolic facts and every unit's
//! bundle, each built once. A [`Rewrite`] re-derives the analyses of a
//! program in which a few units were transformed in place, rebuilding
//! only what the rewritten units' content can reach.

use ped_analysis::defuse::{DefUse, EffectsMap};
use ped_analysis::facts::has_call;
use ped_analysis::fanout::map_ordered;
use ped_analysis::global::global_symbolic_facts_from;
use ped_analysis::loops::LoopNest;
use ped_analysis::refs::RefTable;
use ped_analysis::symbolic::SymbolicEnv;
use ped_analysis::{Cfg, ScalarFacts};
use ped_dependence::cache::PairCache;
use ped_dependence::graph::{BuildOptions, DepKind, DependenceGraph};
use ped_dependence::marking::{Mark, Marking};
use ped_fortran::ast::{ProcUnit, Program, StmtId};
use ped_fortran::symbols::SymbolTable;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Everything the transformations need to reason about one unit.
///
/// The content-derived artifacts are `Arc`-shared so the bundle can be
/// assembled from a memoized [`ped_analysis::ScalarFacts`] without
/// copying (deref coercion keeps `&ua.symbols`-style call sites
/// unchanged); the graph, marking and environment depend on user state
/// and are owned. `Clone` bumps the `Arc`s and copies only the owned
/// user-state pieces — that is what makes session-snapshot publication
/// (the server's copy-on-write read path) cheap.
#[derive(Clone)]
pub struct UnitAnalysis {
    pub symbols: Arc<SymbolTable>,
    pub refs: Arc<RefTable>,
    pub nest: Arc<LoopNest>,
    pub cfg: Arc<Cfg>,
    pub defuse: Arc<DefUse>,
    pub graph: DependenceGraph,
    pub marking: Marking,
    pub env: SymbolicEnv,
}

impl UnitAnalysis {
    /// Build the bundle for a unit. `env` carries the symbolic facts
    /// (constants, relations, assertions); `effects` the interprocedural
    /// summaries, when available.
    pub fn build(unit: &ProcUnit, env: SymbolicEnv, effects: Option<&EffectsMap>) -> UnitAnalysis {
        Self::build_from_facts(unit, &ScalarFacts::build(unit, effects), env, None)
    }

    /// Assemble the bundle from a memoized [`ScalarFacts`], sharing
    /// every content-derived artifact and building only the user-state
    /// pieces (dependence graph + marking). This is the warm path: a
    /// session whose unit content is unchanged pays zero scalar-analysis
    /// rebuilds here.
    pub fn build_from_facts(
        unit: &ProcUnit,
        facts: &ScalarFacts,
        env: SymbolicEnv,
        cache: Option<&mut PairCache>,
    ) -> UnitAnalysis {
        let graph = DependenceGraph::build_full(
            unit,
            &facts.symbols,
            &facts.refs,
            &facts.nest,
            Some(&facts.cfg),
            &env,
            &BuildOptions::default(),
            cache,
        );
        let marking = Marking::initial(&graph);
        UnitAnalysis {
            symbols: facts.symbols.clone(),
            refs: facts.refs.clone(),
            nest: facts.nest.clone(),
            cfg: facts.cfg.clone(),
            defuse: facts.defuse.clone(),
            graph,
            marking,
            env,
        }
    }

    /// Active (non-rejected) loop-carried data dependences of a loop.
    pub fn active_inhibitors(
        &self,
        l: ped_analysis::loops::LoopId,
    ) -> Vec<&ped_dependence::graph::Dependence> {
        self.graph
            .parallelism_inhibitors(l)
            .filter(|d| self.marking.is_active(d.id))
            .collect()
    }
}

/// One program's analyses, built once and shared by every whole-program
/// consumer: the batch driver's dependence summaries, the lint engine
/// and `ped-par`'s classifier read the same bundles.
pub struct ProgramAnalysis {
    /// Interprocedural MOD/REF (and KILL) summaries.
    pub effects: EffectsMap,
    /// Each unit's scalar facts, in unit order.
    pub facts: Vec<Arc<ScalarFacts>>,
    /// Program-wide symbolic facts over the facts' tables.
    pub global: SymbolicEnv,
    /// Each unit's bundle, in unit order: `global` plus the unit's
    /// invariant relations, with `effects` threaded into its references.
    pub units: Vec<UnitAnalysis>,
}

impl ProgramAnalysis {
    /// Analyse every unit, fanning the per-unit work out over `threads`
    /// workers; the result is identical for any thread count.
    pub fn build(program: &Program, threads: usize) -> ProgramAnalysis {
        let n = program.units.len();
        let (effects, facts) = effects_and_facts(program, threads);
        let global = global_symbolic_facts_from(
            program
                .units
                .iter()
                .zip(&facts)
                .map(|(u, f)| (u, &*f.symbols, &*f.plain_refs)),
        );
        let units = map_ordered(n, threads, |i| {
            let env = unit_env(&global, &facts[i]);
            UnitAnalysis::build_from_facts(&program.units[i], &facts[i], env, None)
        });
        ProgramAnalysis {
            effects,
            facts,
            global,
            units,
        }
    }
}

/// MOD/REF effects and every unit's scalar facts, on `threads`
/// workers. Each unit's symbol table, plain reference table and CFG are
/// built once and feed both: the effects are computed from them, and
/// the facts are finished from them under those effects.
pub fn effects_and_facts(program: &Program, threads: usize) -> (EffectsMap, Vec<Arc<ScalarFacts>>) {
    let n = program.units.len();
    let tables = map_ordered(n, threads, |i| tables_of(&program.units[i]));
    let effects = ped_interproc::modref::analyze_with(program, &borrowed(&tables));
    let facts = map_ordered(n, threads, |i| {
        let (symbols, refs, cfg) = tables[i].clone();
        let unit = &program.units[i];
        Arc::new(ScalarFacts::from_tables(
            unit,
            symbols,
            refs,
            cfg,
            Some(&effects),
        ))
    });
    (effects, facts)
}

/// A unit's symbolic environment before any user assertion: the
/// program-wide facts plus the unit's own invariant relations.
pub fn unit_env(global: &SymbolicEnv, facts: &ScalarFacts) -> SymbolicEnv {
    let mut env = global.clone();
    for (n, l) in &facts.relations.subst {
        env.add_subst(n.clone(), l.clone());
    }
    for (n, r) in &facts.relations.ranges {
        env.add_range(n.clone(), r.clone());
    }
    env
}

/// Symbol table, plain reference table and CFG of a unit: the
/// artifacts that do not depend on the interprocedural effects (which
/// are computed from them).
type Tables = (Arc<SymbolTable>, Arc<RefTable>, Arc<Cfg>);

fn tables_of(unit: &ProcUnit) -> Tables {
    let symbols = Arc::new(SymbolTable::build(unit));
    let refs = Arc::new(RefTable::build(unit, &symbols));
    (symbols, refs, Arc::new(Cfg::build(unit)))
}

fn borrowed(tables: &[Tables]) -> Vec<(&SymbolTable, &RefTable, &Cfg)> {
    tables.iter().map(|(s, r, c)| (&**s, &**r, &**c)).collect()
}

/// The analyses of a program derived from an analysed one by rewriting
/// some units in place (the unit-local loop transformations). A unit's
/// bundle depends on its content, the program-wide facts and the MOD/REF
/// effects. [`Rewrite::analyze`] re-derives those inputs from per-unit
/// tables, rebuilt only for rewritten units, and hands back the
/// original bundle when all of them are unchanged.
pub struct Rewrite<'a> {
    base: &'a ProgramAnalysis,
    /// Each unit's current tables: the original facts' until rewritten.
    tables: Vec<Tables>,
    rewritten: Vec<bool>,
    /// Program-wide facts of the current rewrite, on demand.
    global: Option<SymbolicEnv>,
}

impl<'a> Rewrite<'a> {
    pub fn new(base: &'a ProgramAnalysis) -> Rewrite<'a> {
        Rewrite {
            base,
            tables: base
                .facts
                .iter()
                .map(|f| (f.symbols.clone(), f.plain_refs.clone(), f.cfg.clone()))
                .collect(),
            rewritten: vec![false; base.units.len()],
            global: None,
        }
    }

    /// True once any unit has been rewritten.
    pub fn is_dirty(&self) -> bool {
        self.rewritten.contains(&true)
    }

    /// Record that unit `idx` now has the content `unit`.
    pub fn rewritten(&mut self, idx: usize, unit: &ProcUnit) {
        self.tables[idx] = tables_of(unit);
        self.rewritten[idx] = true;
        self.global = None;
    }

    /// The bundle of unit `idx`, where `units` is the rewritten program
    /// in unit order. `Cow::Borrowed` means the original bundle, whose
    /// inputs are all unchanged.
    pub fn analyze(&mut self, units: &[&ProcUnit], idx: usize) -> Cow<'a, UnitAnalysis> {
        let base = self.base;
        if !self.is_dirty() {
            return Cow::Borrowed(&base.units[idx]);
        }
        let unit = units[idx];
        // Only CALL statements read the effects. For a unit with one,
        // recompute them over the current tables (no table is rebuilt)
        // and reuse the unit's original facts only if they are equal.
        let (effects, same_effects) = if has_call(unit) {
            let program = Program {
                units: units.iter().map(|u| (*u).clone()).collect(),
                next_stmt: 0,
            };
            let fx = ped_interproc::modref::analyze_with(&program, &borrowed(&self.tables));
            let same = fx == base.effects;
            (Cow::Owned(fx), same)
        } else {
            (Cow::Borrowed(&base.effects), true)
        };
        let tables = &self.tables;
        let global = self.global.get_or_insert_with(|| {
            global_symbolic_facts_from(
                units
                    .iter()
                    .zip(tables)
                    .map(|(u, (symbols, refs, _))| (*u, &**symbols, &**refs)),
            )
        });
        let facts = if !self.rewritten[idx] && same_effects {
            if *global == base.global {
                return Cow::Borrowed(&base.units[idx]);
            }
            base.facts[idx].clone()
        } else {
            let (symbols, refs, cfg) = self.tables[idx].clone();
            Arc::new(ScalarFacts::from_tables(
                unit,
                symbols,
                refs,
                cfg,
                Some(&effects),
            ))
        };
        let env = unit_env(global, &facts);
        Cow::Owned(UnitAnalysis::build_from_facts(unit, &facts, env, None))
    }
}

/// Carry user `Accepted`/`Rejected` marks from an old graph onto a newly
/// built one, matching dependences by (src stmt, sink stmt, variable,
/// level, kind). One hash map over the old deps, one lookup per new dep —
/// O(old + new), not O(old × new). New dependences with an endpoint in
/// `skip` never inherit (used by the incremental updater for the edited
/// region, whose dependences may have genuinely changed meaning).
pub fn carry_user_marks(
    old_graph: &DependenceGraph,
    old_marking: &Marking,
    new_graph: &DependenceGraph,
    new_marking: &mut Marking,
    skip: Option<&HashSet<StmtId>>,
) {
    type Key<'a> = (StmtId, StmtId, &'a str, Option<u32>, DepKind);
    let mut marks: HashMap<Key, (Mark, Option<String>)> = HashMap::new();
    for old in &old_graph.deps {
        let m = old_marking.mark_of(old.id);
        if matches!(m, Mark::Accepted | Mark::Rejected) {
            marks.insert(
                (
                    old.src_stmt,
                    old.sink_stmt,
                    old.var.as_str(),
                    old.level,
                    old.kind,
                ),
                (m, old_marking.reason_of(old.id).map(|s| s.to_string())),
            );
        }
    }
    if marks.is_empty() {
        return;
    }
    for new in &new_graph.deps {
        if let Some(skip) = skip {
            if skip.contains(&new.src_stmt) || skip.contains(&new.sink_stmt) {
                continue;
            }
        }
        let key = (
            new.src_stmt,
            new.sink_stmt,
            new.var.as_str(),
            new.level,
            new.kind,
        );
        if let Some((m, reason)) = marks.get(&key) {
            let _ = new_marking.set(new.id, *m, reason.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_dependence::marking::Mark;
    use ped_fortran::parser::parse_ok;

    #[test]
    fn build_and_query() {
        let p = parse_ok(
            "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n",
        );
        let ua = UnitAnalysis::build(&p.units[0], SymbolicEnv::new(), None);
        assert_eq!(ua.nest.len(), 1);
        assert!(!ua.active_inhibitors(ua.nest.roots[0]).is_empty());
    }

    const CALLER: &str = "      PROGRAM MAIN\n      COMMON /G/ N, X(100)\n      N = 100\n      DO 10 I = 1, N\n      X(I) = 0.0\n   10 CONTINUE\n      CALL SUB(X)\n      END\n";
    const SUB_WRITES: &str = "      SUBROUTINE SUB(Y)\n      REAL Y(100)\n      DO 20 I = 2, 100\n      Y(I) = Y(I-1)\n   20 CONTINUE\n      END\n";
    const SUB_READS: &str = "      SUBROUTINE SUB(Y)\n      REAL Y(100)\n      DO 20 I = 2, 100\n      S = Y(I-1)\n   20 CONTINUE\n      END\n";

    #[test]
    fn program_analysis_matches_standalone_unit_builds() {
        let p = parse_ok(&format!("{CALLER}{SUB_WRITES}"));
        let pa = ProgramAnalysis::build(&p, 1);
        let effects = ped_interproc::modref_analyze(&p);
        for (i, unit) in p.units.iter().enumerate() {
            let f = ScalarFacts::build(unit, None);
            let env = unit_env(&ped_interproc::global_symbolic_facts(&p), &f);
            let ua = UnitAnalysis::build(unit, env.clone(), Some(&effects));
            assert_eq!(pa.units[i].graph.deps, ua.graph.deps, "unit {i}");
            assert_eq!(pa.units[i].env, env, "unit {i}");
        }
        assert_eq!(
            ProgramAnalysis::build(&p, 4).units[1].graph.deps,
            pa.units[1].graph.deps
        );
    }

    #[test]
    fn rewrite_rederives_exactly_what_a_fresh_build_gives() {
        let before = parse_ok(&format!("{CALLER}{SUB_WRITES}"));
        let after = parse_ok(&format!("{CALLER}{SUB_READS}"));
        let pa = ProgramAnalysis::build(&before, 1);
        let mut rw = Rewrite::new(&pa);
        let units: Vec<&ProcUnit> = vec![&before.units[0], &after.units[1]];
        assert!(matches!(rw.analyze(&units, 0), Cow::Borrowed(_)));
        rw.rewritten(1, &after.units[1]);
        let fresh = ProgramAnalysis::build(&after, 1);
        for idx in 0..2 {
            let ua = rw.analyze(&units, idx);
            // The caller reads SUB's summary, which changed: it must be
            // re-derived, not reused.
            assert!(matches!(ua, Cow::Owned(_)), "unit {idx}");
            assert_eq!(ua.graph.deps, fresh.units[idx].graph.deps, "unit {idx}");
            assert_eq!(ua.env, fresh.units[idx].env, "unit {idx}");
        }
    }

    #[test]
    fn rewrite_reuses_units_whose_inputs_are_unchanged() {
        let p = parse_ok(&format!("{CALLER}{SUB_WRITES}"));
        let pa = ProgramAnalysis::build(&p, 1);
        let mut rw = Rewrite::new(&pa);
        // Rewriting the caller with identical content changes none of
        // the callee's inputs.
        rw.rewritten(0, &p.units[0]);
        let units: Vec<&ProcUnit> = p.units.iter().collect();
        assert!(matches!(rw.analyze(&units, 1), Cow::Borrowed(_)));
        let main = rw.analyze(&units, 0);
        assert!(matches!(main, Cow::Owned(_)));
        assert_eq!(main.graph.deps, pa.units[0].graph.deps);
    }

    #[test]
    fn rebuild_preserves_user_marks() {
        let p = parse_ok(
            "      INTEGER IX(100)\n      REAL A(100)\n      DO 10 I = 1, N\n      A(IX(I)) = A(IX(I)) + 1.0\n   10 CONTINUE\n      END\n",
        );
        let mut ua = UnitAnalysis::build(&p.units[0], SymbolicEnv::new(), None);
        let dep = ua
            .graph
            .deps
            .iter()
            .find(|d| d.var == "A" && d.level.is_some())
            .unwrap()
            .id;
        ua.marking
            .set(dep, Mark::Rejected, Some("permutation".into()))
            .unwrap();
        let before = ua.active_inhibitors(ua.nest.roots[0]).len();
        // No AST change: the marks must survive a rebuild.
        let mut fresh = UnitAnalysis::build(&p.units[0], SymbolicEnv::new(), None);
        carry_user_marks(
            &ua.graph,
            &ua.marking,
            &fresh.graph,
            &mut fresh.marking,
            None,
        );
        let after = fresh.active_inhibitors(fresh.nest.roots[0]).len();
        assert_eq!(before, after);
        assert!(fresh
            .graph
            .deps
            .iter()
            .any(|d| fresh.marking.mark_of(d.id) == Mark::Rejected));
    }
}
