//! The facts a DOALL executor needs, computed once per program.
//!
//! Both execution engines — the tree-walk interpreter and the bytecode
//! VM's compiler — run parallel loops from the same facts: per loop, the
//! reductions to combine and the local arrays each worker may privatize.
//! Privatization uses the symbolic facts the editor's analyses use
//! (program-wide COMMON relations plus per-unit invariant relations), so
//! execution honors exactly the certifications PED hands out.

use crate::array_kill::{self, ArrayKillStatus};
use crate::global::global_symbolic_facts_from;
use crate::reductions::{find_reductions, Reduction};
use crate::refs::RefTable;
use crate::symbolic::detect_invariant_relations;
use crate::{Cfg, LoopNest};
use ped_fortran::ast::{ProcUnit, StmtId};
use ped_fortran::symbols::SymbolTable;
use std::collections::{HashMap, HashSet};

/// Parallel-execution facts of one program.
#[derive(Default)]
pub struct DoallFacts {
    /// Reductions per loop header (scalar and array).
    pub reductions: HashMap<StmtId, Vec<Reduction>>,
    /// Statements that are array-element accumulations (serialized in
    /// parallel execution).
    pub array_reduce_stmts: HashSet<StmtId>,
    /// Per loop header: local arrays that are privatizable (each worker
    /// gets its own copy; the analysis proved them dead after the loop).
    pub private_arrays: HashMap<StmtId, Vec<String>>,
}

/// Compute the facts over the program's `(unit, symbol table)` pairs in
/// unit order, reusing the caller's symbol tables: each unit's reference
/// table is built once and serves both the program-wide relations and
/// the per-loop analyses.
pub fn doall_facts<'a>(
    units: impl IntoIterator<Item = (&'a ProcUnit, &'a SymbolTable)>,
) -> DoallFacts {
    let units: Vec<(&ProcUnit, &SymbolTable, RefTable)> = units
        .into_iter()
        .map(|(u, st)| (u, st, RefTable::build(u, st)))
        .collect();
    let global = global_symbolic_facts_from(units.iter().map(|(u, st, refs)| (*u, *st, refs)));
    let mut facts = DoallFacts::default();
    for (u, st, refs) in &units {
        let cfg = Cfg::build(u);
        let nest = LoopNest::build(u);
        let mut env = global.clone();
        for (n, l) in detect_invariant_relations(u, st, refs, &cfg).subst {
            env.add_subst(n, l);
        }
        for l in &nest.loops {
            let reds = find_reductions(u, st, refs, l);
            for r in &reds {
                if !r.is_scalar() {
                    facts.array_reduce_stmts.insert(r.stmt);
                }
            }
            facts.reductions.insert(l.stmt, reds);
            let privs: Vec<String> = array_kill::analyze_loop(u, st, &env, l)
                .into_iter()
                .filter(|(_, s)| *s == ArrayKillStatus::Private)
                .map(|(n, _)| n)
                .collect();
            if !privs.is_empty() {
                facts.private_arrays.insert(l.stmt, privs);
            }
        }
    }
    facts
}
