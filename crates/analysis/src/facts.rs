//! Memoized per-unit scalar-analysis bundle.
//!
//! Every consumer of a unit's scalar facts — the symbolic environment
//! builder, the transformation context, the lint engine — used to
//! rebuild the same symbol table, reference table and CFG from scratch.
//! [`ScalarFacts`] runs that pipeline **once** per unit content and
//! hands out `Arc`-shared artifacts: the session layer caches one bundle
//! per unit keyed by content fingerprint, so a no-op reanalyze or a
//! lint pass over unedited units costs a hash lookup, not a rebuild.
//!
//! Everything in the bundle is a pure function of the unit's content
//! plus the session-constant interprocedural effects, which is what
//! makes the fingerprint key sound. Artifacts that depend on *user*
//! state (assertions, marks) — the dependence graph, the full symbolic
//! environment — stay outside the bundle.

use crate::constprop::Constants;
use crate::defuse::{DefUse, EffectsMap};
use crate::dom::DomTree;
use crate::loops::LoopNest;
use crate::refs::RefTable;
use crate::symbolic::{detect_invariant_relations_with, SymbolicEnv};
use crate::Cfg;
use ped_fortran::ast::{walk_stmts, ProcUnit, StmtKind};
use ped_fortran::fingerprint::unit_fingerprint;
use ped_fortran::symbols::SymbolTable;
use std::sync::Arc;

/// One unit's scalar-analysis artifacts, built once and shared.
pub struct ScalarFacts {
    /// Content fingerprint of the unit the bundle was built from — the
    /// memo key used by the session cache.
    pub fingerprint: u64,
    pub symbols: Arc<SymbolTable>,
    /// Effects-aware reference table: call-argument defs filtered
    /// through interprocedural MOD/REF summaries. Feeds dependence
    /// testing and def-use.
    pub refs: Arc<RefTable>,
    /// Effects-*unaware* reference table: what invariant-relation
    /// detection has always consumed (its def counts must not see
    /// call-filtered refs). Shares the allocation with [`refs`] when the
    /// unit contains no `CALL` — the two builds are identical then.
    ///
    /// [`refs`]: ScalarFacts::refs
    pub plain_refs: Arc<RefTable>,
    pub nest: Arc<LoopNest>,
    pub cfg: Arc<Cfg>,
    pub dom: Arc<DomTree>,
    pub postdom: Arc<DomTree>,
    pub defuse: Arc<DefUse>,
    /// Seedless constant-propagation lattice (the unit's intrinsic
    /// constant facts; interprocedurally-seeded lattices depend on the
    /// whole program and are built by their consumers).
    pub consts: Arc<Constants>,
    /// Intraprocedural invariant relations (substitutions + ranges),
    /// detected over [`plain_refs`](ScalarFacts::plain_refs).
    pub relations: SymbolicEnv,
}

impl std::fmt::Debug for ScalarFacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScalarFacts")
            .field("fingerprint", &self.fingerprint)
            .field("symbols", &self.symbols.len())
            .field("refs", &self.refs.refs.len())
            .finish_non_exhaustive()
    }
}

impl ScalarFacts {
    /// Run the scalar pipeline for one unit. Each underlying analysis is
    /// built exactly once (see the `build_count` probes on
    /// [`SymbolTable`], [`RefTable`] and [`Cfg`]).
    pub fn build(unit: &ProcUnit, effects: Option<&EffectsMap>) -> ScalarFacts {
        let symbols = Arc::new(SymbolTable::build(unit));
        let plain_refs = Arc::new(RefTable::build(unit, &symbols));
        let cfg = Arc::new(Cfg::build(unit));
        Self::from_tables(unit, symbols, plain_refs, cfg, effects)
    }

    /// The rest of the pipeline over the unit's already-built symbol
    /// table, plain reference table and CFG — the three artifacts that
    /// do not depend on the interprocedural effects, so a caller that
    /// needs them before it knows the effects builds them only once.
    pub fn from_tables(
        unit: &ProcUnit,
        symbols: Arc<SymbolTable>,
        plain_refs: Arc<RefTable>,
        cfg: Arc<Cfg>,
        effects: Option<&EffectsMap>,
    ) -> ScalarFacts {
        // Effects only alter references at CALL statements; without one
        // the effects-aware table is byte-identical and shares.
        let refs = if effects.is_some() && has_call(unit) {
            Arc::new(RefTable::build_with_effects(unit, &symbols, effects))
        } else {
            plain_refs.clone()
        };
        let nest = Arc::new(LoopNest::build(unit));
        let dom = Arc::new(DomTree::dominators(&cfg));
        let postdom = Arc::new(DomTree::postdominators(&cfg));
        let defuse = Arc::new(DefUse::build(unit, &symbols, &cfg, &refs, effects));
        let consts = Arc::new(Constants::build(unit, &symbols, &cfg, None));
        let relations = detect_invariant_relations_with(unit, &symbols, &plain_refs, &cfg, &dom);
        ScalarFacts {
            fingerprint: unit_fingerprint(unit),
            symbols,
            refs,
            plain_refs,
            nest,
            cfg,
            dom,
            postdom,
            defuse,
            consts,
            relations,
        }
    }
}

/// True if the unit contains a `CALL` statement — the only place the
/// interprocedural effects enter a unit's scalar analyses.
pub fn has_call(unit: &ProcUnit) -> bool {
    let mut found = false;
    walk_stmts(&unit.body, &mut |s| {
        if matches!(s.kind, StmtKind::Call { .. }) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    #[test]
    fn call_free_unit_shares_one_ref_table() {
        let p = parse_ok(
            "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n",
        );
        let effects = EffectsMap::default();
        let f = ScalarFacts::build(&p.units[0], Some(&effects));
        assert!(Arc::ptr_eq(&f.refs, &f.plain_refs));
    }

    #[test]
    fn relations_match_unbundled_detection() {
        let src = "      REAL A(100)\n      JM = JMAX - 1\n      DO 10 I = 1, JM\n      A(I) = 0.0\n   10 CONTINUE\n      END\n";
        let p = parse_ok(src);
        let f = ScalarFacts::build(&p.units[0], None);
        let symbols = SymbolTable::build(&p.units[0]);
        let refs = RefTable::build(&p.units[0], &symbols);
        let cfg = Cfg::build(&p.units[0]);
        let direct =
            crate::symbolic::detect_invariant_relations(&p.units[0], &symbols, &refs, &cfg);
        assert_eq!(
            f.relations.subst.keys().collect::<Vec<_>>(),
            direct.subst.keys().collect::<Vec<_>>()
        );
        assert!(f.relations.subst.contains_key("JM"));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = parse_ok("      X = 1\n      END\n");
        let b = parse_ok("      X = 2\n      END\n");
        let fa = ScalarFacts::build(&a.units[0], None);
        let fb = ScalarFacts::build(&b.units[0], None);
        assert_ne!(fa.fingerprint, fb.fingerprint);
    }
}
