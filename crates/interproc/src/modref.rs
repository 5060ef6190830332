//! Flow-insensitive interprocedural MOD/REF analysis.
//!
//! "Flow-insensitive side-effect analysis, including MOD and REF
//! analysis, describes the variables that may be accessed on some
//! control flow path through the procedure" (§4.1, citing Banning). The
//! summaries feed the scalar data-flow solvers ([`ped_analysis::defuse`])
//! and let the dependence pane drop spurious whole-array call
//! dependences — the effect that made spec77's and nxsns's loops with
//! calls provably parallel (§4.2).

use crate::callgraph::CallGraph;
use ped_analysis::cfg::Cfg;
use ped_analysis::defuse::{EffectsMap, ProcEffects};
use ped_analysis::refs::RefTable;
use ped_fortran::ast::{Expr, Program};
use ped_fortran::symbols::{Storage, SymbolTable};
use std::collections::HashMap;

/// Compute MOD/REF (and flow-sensitive KILL, see [`crate::kill`])
/// summaries for every unit in the program.
pub fn analyze(program: &Program) -> EffectsMap {
    let built: Vec<(SymbolTable, RefTable, Cfg)> = program
        .units
        .iter()
        .map(|u| {
            let symbols = SymbolTable::build(u);
            let refs = RefTable::build(u, &symbols);
            (symbols, refs, Cfg::build(u))
        })
        .collect();
    let tables: Vec<(&SymbolTable, &RefTable, &Cfg)> =
        built.iter().map(|(s, r, c)| (s, r, c)).collect();
    analyze_with(program, &tables)
}

/// [`analyze`] over caller-supplied per-unit tables — one `(symbols,
/// plain refs, CFG)` triple per unit, in unit order — so no table is
/// rebuilt here.
pub fn analyze_with(program: &Program, tables: &[(&SymbolTable, &RefTable, &Cfg)]) -> EffectsMap {
    assert_eq!(tables.len(), program.units.len());
    let cg = CallGraph::build(program);
    // By name; a later unit of the same name shadows an earlier one.
    let symtabs: HashMap<String, &SymbolTable> = program
        .units
        .iter()
        .zip(tables)
        .map(|(u, (symbols, _, _))| (u.name.to_ascii_uppercase(), *symbols))
        .collect();
    let mut fx: EffectsMap = EffectsMap::new();
    // Iterate bottom-up to a fixpoint (recursion needs ≤ |units| rounds).
    let order = cg.bottom_up();
    for _round in 0..program.units.len().max(1) {
        let mut changed = false;
        for uname in &order {
            let Some(idx) = program
                .units
                .iter()
                .position(|u| u.name.eq_ignore_ascii_case(uname))
            else {
                continue;
            };
            let unit = &program.units[idx];
            let symbols = symtabs[uname];
            // The unit's own refs, unless a same-named unit shadows its
            // symbol table.
            let shadowed;
            let refs = if std::ptr::eq(symbols, tables[idx].0) {
                tables[idx].1
            } else {
                shadowed = RefTable::build(unit, symbols);
                &shadowed
            };
            let next = summarize_unit(unit, symbols, refs, &cg, &fx, &symtabs);
            let entry = fx.entry(uname.clone()).or_default();
            if !same_effects(entry, &next) {
                *entry = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Flow-sensitive KILL augmentation.
    for (u, (symbols, refs, cfg)) in program.units.iter().zip(tables) {
        crate::kill::set_unit_kills(u, symbols, cfg, refs, &mut fx);
    }
    fx
}

fn same_effects(a: &ProcEffects, b: &ProcEffects) -> bool {
    a.mod_params == b.mod_params
        && a.ref_params == b.ref_params
        && a.mod_globals == b.mod_globals
        && a.ref_globals == b.ref_globals
}

fn summarize_unit(
    unit: &ped_fortran::ast::ProcUnit,
    symbols: &SymbolTable,
    refs: &RefTable,
    cg: &CallGraph,
    fx: &EffectsMap,
    symtabs: &HashMap<String, &SymbolTable>,
) -> ProcEffects {
    let mut e = ProcEffects::default();
    let formal_pos: HashMap<&str, usize> = unit
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), i))
        .collect();
    let record = |name: &str, is_def: bool, e: &mut ProcEffects| {
        if let Some(&pos) = formal_pos.get(name) {
            let v = if is_def {
                &mut e.mod_params
            } else {
                &mut e.ref_params
            };
            if !v.contains(&pos) {
                v.push(pos);
            }
        } else if symbols
            .get(name)
            .is_some_and(|s| s.storage == Storage::Common)
        {
            let v = if is_def {
                &mut e.mod_globals
            } else {
                &mut e.ref_globals
            };
            if !v.iter().any(|g| g == name) {
                v.push(name.to_string());
            }
        }
    };
    // Direct effects from the reference table.
    for r in &refs.refs {
        // CallArg refs are handled via callee summaries below, except
        // for calls to units we cannot see (assume both mod and ref).
        if r.cause == ped_analysis::refs::RefCause::CallArg {
            continue;
        }
        record(&r.name, r.is_def, &mut e);
    }
    // Effects through call sites.
    for site in cg.sites_in(&unit.name) {
        let callee_fx = fx.get(&site.callee);
        let callee_known = symtabs.contains_key(&site.callee);
        for (pos, arg) in site.args.iter().enumerate() {
            let arg_name = match arg {
                Expr::Var(n) => Some(n.as_str()),
                Expr::Index { name, .. } if symbols.is_array(name) => Some(name.as_str()),
                _ => None,
            };
            // Uses inside argument expressions (subscripts, computed
            // args) are plain refs.
            for n in arg.variables() {
                if Some(n) != arg_name {
                    record(n, false, &mut e);
                }
            }
            let Some(arg_name) = arg_name else {
                continue;
            };
            let (modded, reffed) = match (callee_known, callee_fx) {
                (true, Some(cfx)) => (cfx.mod_params.contains(&pos), cfx.ref_params.contains(&pos)),
                (true, None) => (false, false), // summary not yet computed this round
                (false, _) => (true, true),     // external: worst case
            };
            if modded {
                record(arg_name, true, &mut e);
            }
            if reffed {
                record(arg_name, false, &mut e);
            }
        }
        // Globals the callee touches are globals here too (COMMON is
        // program-wide).
        if let Some(cfx) = callee_fx {
            for g in &cfx.mod_globals {
                record(g, true, &mut e);
                // Also propagate even when the block is not declared in
                // this unit — the summary is keyed by name program-wide.
                if symbols.get(g).is_none() && !e.mod_globals.iter().any(|x| x == g) {
                    e.mod_globals.push(g.clone());
                }
            }
            for g in &cfx.ref_globals {
                record(g, false, &mut e);
                if symbols.get(g).is_none() && !e.ref_globals.iter().any(|x| x == g) {
                    e.ref_globals.push(g.clone());
                }
            }
        }
    }
    e.mod_params.sort_unstable();
    e.ref_params.sort_unstable();
    e.mod_globals.sort();
    e.ref_globals.sort();
    e
}

/// Refined call-site reference classification for dependence testing: for
/// a call `CALL S(a1, …)`, which arguments may be modified / referenced.
pub struct CallSiteEffects<'a> {
    fx: &'a EffectsMap,
}

impl<'a> CallSiteEffects<'a> {
    pub fn new(fx: &'a EffectsMap) -> Self {
        CallSiteEffects { fx }
    }

    /// May the callee modify its `pos`-th argument? Unknown callees say
    /// yes.
    pub fn arg_modified(&self, callee: &str, pos: usize) -> bool {
        match self.fx.get(&callee.to_ascii_uppercase()) {
            Some(e) => e.mod_params.contains(&pos),
            None => true,
        }
    }

    /// May the callee read its `pos`-th argument?
    pub fn arg_referenced(&self, callee: &str, pos: usize) -> bool {
        match self.fx.get(&callee.to_ascii_uppercase()) {
            Some(e) => e.ref_params.contains(&pos),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    fn fx_of(src: &str) -> EffectsMap {
        analyze(&parse_ok(src))
    }

    #[test]
    fn direct_param_effects() {
        let src = "      SUBROUTINE S(A, B, C)\n      REAL A(10), B(10)\n      A(1) = B(1) + C\n      RETURN\n      END\n";
        let fx = fx_of(src);
        let e = &fx["S"];
        assert_eq!(e.mod_params, [0]);
        assert_eq!(e.ref_params, [1, 2]);
    }

    #[test]
    fn common_effects() {
        let src = "      SUBROUTINE S\n      COMMON /B/ X, Y\n      X = Y + 1.0\n      RETURN\n      END\n";
        let fx = fx_of(src);
        let e = &fx["S"];
        assert_eq!(e.mod_globals, ["X"]);
        assert_eq!(e.ref_globals, ["Y"]);
    }

    #[test]
    fn effects_propagate_through_calls() {
        let src = "      SUBROUTINE OUTER(P, Q)\n      REAL P(10), Q(10)\n      CALL INNER(P, Q)\n      RETURN\n      END\n      SUBROUTINE INNER(X, Y)\n      REAL X(10), Y(10)\n      X(1) = Y(1)\n      RETURN\n      END\n";
        let fx = fx_of(src);
        let e = &fx["OUTER"];
        assert_eq!(e.mod_params, [0]);
        assert_eq!(e.ref_params, [1]);
    }

    #[test]
    fn readonly_callee_does_not_mod_caller_arg() {
        // The spec77/nxsns effect: a call that only reads its array
        // argument does not create write dependences.
        let src = "      SUBROUTINE OUTER(A, S)\n      REAL A(10)\n      CALL SUMUP(A, S)\n      RETURN\n      END\n      SUBROUTINE SUMUP(X, S)\n      REAL X(10)\n      S = X(1) + X(2)\n      RETURN\n      END\n";
        let fx = fx_of(src);
        let e = &fx["OUTER"];
        assert_eq!(e.mod_params, [1]); // only S
        assert_eq!(e.ref_params, [0]);
        let cse = CallSiteEffects::new(&fx);
        assert!(!cse.arg_modified("SUMUP", 0));
        assert!(cse.arg_modified("SUMUP", 1));
    }

    #[test]
    fn external_callee_assumed_worst_case() {
        let src = "      SUBROUTINE S(A)\n      REAL A(10)\n      CALL EXTERN(A)\n      RETURN\n      END\n";
        let fx = fx_of(src);
        let e = &fx["S"];
        assert_eq!(e.mod_params, [0]);
        assert_eq!(e.ref_params, [0]);
    }

    #[test]
    fn globals_propagate_even_without_local_declaration() {
        let src = "      SUBROUTINE TOP\n      CALL LEAF\n      RETURN\n      END\n      SUBROUTINE LEAF\n      COMMON /G/ W\n      W = 1.0\n      RETURN\n      END\n";
        let fx = fx_of(src);
        assert!(fx["TOP"].mod_globals.contains(&"W".to_string()));
    }

    #[test]
    fn subscript_uses_in_call_args_are_refs() {
        let src = "      SUBROUTINE S(A, K)\n      REAL A(10)\n      CALL T(A(K))\n      RETURN\n      END\n      SUBROUTINE T(X)\n      X = 1.0\n      RETURN\n      END\n";
        let fx = fx_of(src);
        let e = &fx["S"];
        // K is read to compute the argument.
        assert!(e.ref_params.contains(&1));
    }

    #[test]
    fn recursion_converges() {
        let src = "      SUBROUTINE R(A, N)\n      REAL A(10)\n      A(N) = 0.0\n      CALL R(A, N - 1)\n      RETURN\n      END\n";
        let fx = fx_of(src);
        let e = &fx["R"];
        assert!(e.mod_params.contains(&0));
        assert!(e.ref_params.contains(&1));
    }
}
