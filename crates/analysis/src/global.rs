//! Program-wide symbolic relation detection.
//!
//! The arc3d story of §4.3: `JM = JMAX - 1` is established once in an
//! initialization routine and relied upon program-wide. A COMMON scalar
//! assigned exactly once in the whole program, to an affine expression of
//! names that are themselves never assigned (or earlier facts), becomes a
//! substitution usable in *every* unit. (This lives in `ped-analysis` so
//! both the interprocedural suite and the runtime's privatization
//! machinery can use it; `ped-interproc` re-exports it.)

use crate::symbolic::{to_lin, SymbolicEnv};
use ped_fortran::ast::{LValue, ProcUnit, Program, StmtKind};
use ped_fortran::symbols::{Storage, SymbolTable};
use std::collections::HashMap;

/// Detect program-wide symbolic relations over COMMON scalars,
/// building each unit's symbol and reference tables from scratch. When
/// the caller already holds those tables (a session's memoized
/// [`crate::facts::ScalarFacts`]), use [`global_symbolic_facts_from`].
pub fn global_symbolic_facts(program: &Program) -> SymbolicEnv {
    let built: Vec<(SymbolTable, crate::refs::RefTable)> = program
        .units
        .iter()
        .map(|u| {
            let symbols = SymbolTable::build(u);
            let refs = crate::refs::RefTable::build(u, &symbols);
            (symbols, refs)
        })
        .collect();
    global_symbolic_facts_from(
        program
            .units
            .iter()
            .zip(&built)
            .map(|(u, (symbols, refs))| (u, symbols, refs)),
    )
}

/// [`global_symbolic_facts`] over caller-supplied `(unit, symbols,
/// plain refs)` triples in unit order — no table is rebuilt here. The
/// units need not live in one `Program`: a dry-run passes the original
/// units with one replaced by its rewritten copy.
pub fn global_symbolic_facts_from<'a>(
    units: impl IntoIterator<Item = (&'a ProcUnit, &'a SymbolTable, &'a crate::refs::RefTable)>,
) -> SymbolicEnv {
    let mut def_count: HashMap<String, usize> = HashMap::new();
    let mut is_common: HashMap<String, bool> = HashMap::new();
    let mut single_defs: Vec<(String, ped_fortran::ast::Expr)> = Vec::new();
    for (u, symbols, refs) in units {
        for r in &refs.refs {
            if r.is_def && !r.is_array_elem() {
                *def_count.entry(r.name.clone()).or_insert(0) += 1;
                let common = symbols
                    .get(&r.name)
                    .is_some_and(|s| s.storage == Storage::Common);
                let e = is_common.entry(r.name.clone()).or_insert(common);
                *e = *e && common;
            }
        }
        ped_fortran::ast::walk_stmts(&u.body, &mut |s| {
            if let StmtKind::Assign {
                lhs: LValue::Var(n),
                rhs,
            } = &s.kind
            {
                single_defs.push((n.clone(), rhs.clone()));
            }
        });
    }
    let mut env = SymbolicEnv::new();
    for _ in 0..3 {
        for (name, rhs) in &single_defs {
            if env.subst.contains_key(name) {
                continue;
            }
            if def_count.get(name).copied() != Some(1) {
                continue;
            }
            if !is_common.get(name).copied().unwrap_or(false) {
                continue;
            }
            let Some(lin) = to_lin(rhs) else { continue };
            let stable = lin
                .names()
                .all(|n| def_count.get(n).copied().unwrap_or(0) == 0 || env.subst.contains_key(n));
            if !stable {
                continue;
            }
            let expanded = env.apply_subst(&lin);
            if expanded.coeff(name) == 0 {
                env.add_subst(name.clone(), expanded);
            }
        }
    }
    env
}
