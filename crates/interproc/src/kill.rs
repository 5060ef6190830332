//! Flow-sensitive interprocedural KILL analysis.
//!
//! "Flow-sensitive side-effect analysis, such as KILL analysis, describes
//! accesses that occur on every possible control flow path" (§4.1, citing
//! Callahan). A formal or COMMON scalar is *killed* by a procedure when
//! it is defined on every path from entry to exit before any use could
//! observe the incoming value; in nxsns this is what proved a scalar
//! private to a loop containing a call (§4.2). For arrays we compute a
//! *killed section* — the region written unconditionally — which enables
//! the arc3d interprocedural array-kill privatization (§4.3).

use ped_analysis::cfg::{Cfg, NodeId};
use ped_analysis::defuse::EffectsMap;
use ped_analysis::refs::{RefCause, RefTable};
use ped_analysis::section::{Section, SectionSet};
use ped_analysis::symbolic::SymbolicEnv;
use ped_fortran::ast::{LValue, ProcUnit, Program, Stmt, StmtKind};
use ped_fortran::symbols::{Storage, SymbolTable};
use std::collections::HashMap;

/// Killed array sections per unit: formal position (or COMMON name) →
/// section set written on every path.
#[derive(Clone, Debug, Default)]
pub struct ArrayKills {
    pub by_formal: HashMap<usize, SectionSet>,
    pub by_global: HashMap<String, SectionSet>,
}

/// Add the unit's `kill_params` / `kill_globals` to its MOD/REF summary,
/// from its symbol table, CFG and plain reference table.
pub(crate) fn set_unit_kills(
    unit: &ProcUnit,
    symbols: &SymbolTable,
    cfg: &Cfg,
    refs: &RefTable,
    fx: &mut EffectsMap,
) {
    let entry = fx.entry(unit.name.to_ascii_uppercase()).or_default();
    entry.kill_params.clear();
    entry.kill_globals.clear();
    for (pos, p) in unit.params.iter().enumerate() {
        if symbols.get(p).is_some_and(|s| s.dims.is_empty()) && scalar_killed(cfg, refs, p) {
            entry.kill_params.push(pos);
        }
    }
    for s in symbols.iter() {
        if s.dims.is_empty() && s.storage == Storage::Common && scalar_killed(cfg, refs, &s.name) {
            entry.kill_globals.push(s.name.clone());
        }
    }
}

/// Is the scalar defined on every entry→exit path before any use?
/// (Must-define with no upward-exposed use.)
fn scalar_killed(cfg: &Cfg, refs: &RefTable, name: &str) -> bool {
    // Forward must-defined analysis from entry; a use at a node where
    // the scalar is not surely defined exposes the incoming value.
    let n = cfg.len();
    let mut defined_in = vec![true; n];
    defined_in[cfg.entry.index()] = false;
    let node_defs = |node: NodeId| -> bool {
        match cfg.stmt_of(node) {
            Some(stmt) => refs.of_stmt(stmt).iter().any(|&r| {
                let vr = refs.get(r);
                vr.is_def && vr.name == name && !vr.is_array_elem() && vr.cause != RefCause::CallArg
            }),
            None => false,
        }
    };
    let order = cfg.reverse_postorder();
    let mut changed = true;
    while changed {
        changed = false;
        for &node in &order {
            if node == cfg.entry {
                continue;
            }
            let mut acc = true;
            let mut any = false;
            for &p in &cfg.nodes[node.index()].preds {
                if order.contains(&p) {
                    any = true;
                    acc &= defined_in[p.index()] || node_defs(p);
                }
            }
            let v = any && acc;
            if defined_in[node.index()] != v {
                defined_in[node.index()] = v;
                changed = true;
            }
        }
    }
    // Exposed use anywhere?
    for &node in &order {
        if let Some(stmt) = cfg.stmt_of(node) {
            let has_use = refs.of_stmt(stmt).iter().any(|&r| {
                let vr = refs.get(r);
                !vr.is_def && vr.name == name
            });
            if has_use && !defined_in[node.index()] {
                return false;
            }
        }
    }
    // And killed at exit.
    defined_in[cfg.exit.index()]
}

/// Compute killed array sections per unit: the sections written by
/// *unconditional top-level* statements (assignments and complete `DO`
/// nests not guarded by any branch).
pub fn array_kills(program: &Program, env: &SymbolicEnv) -> HashMap<String, ArrayKills> {
    let mut out = HashMap::new();
    for unit in &program.units {
        let symbols = SymbolTable::build(unit);
        let formal_pos: HashMap<&str, usize> = unit
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_str(), i))
            .collect();
        let mut sets: HashMap<String, SectionSet> = HashMap::new();
        collect_killed(&unit.body, env, &symbols, &mut Vec::new(), &mut sets);
        let mut kills = ArrayKills::default();
        for (name, set) in sets {
            if let Some(&pos) = formal_pos.get(name.as_str()) {
                kills.by_formal.insert(pos, set);
            } else if symbols
                .get(&name)
                .is_some_and(|s| s.storage == Storage::Common)
            {
                kills.by_global.insert(name, set);
            }
        }
        out.insert(unit.name.to_ascii_uppercase(), kills);
    }
    out
}

type LoopCtxStack = Vec<(
    String,
    ped_analysis::symbolic::LinExpr,
    ped_analysis::symbolic::LinExpr,
)>;

fn collect_killed(
    body: &[Stmt],
    env: &SymbolicEnv,
    symbols: &SymbolTable,
    ctx: &mut LoopCtxStack,
    sets: &mut HashMap<String, SectionSet>,
) {
    for s in body {
        match &s.kind {
            StmtKind::Assign {
                lhs: LValue::Elem { name, subs },
                ..
            } if symbols.is_array(name) => {
                let Some(elems) = subs
                    .iter()
                    .map(|e| env.normalize(e))
                    .collect::<Option<Vec<_>>>()
                else {
                    continue;
                };
                let mut sec = Section::element(elems);
                for (var, lo, hi) in ctx.iter().rev() {
                    sec = sec.expand(var, lo, hi);
                }
                sets.entry(name.clone()).or_default().insert(sec, env);
            }
            StmtKind::Do {
                var, lo, hi, body, ..
            } => {
                let (Some(lo_l), Some(hi_l)) = (env.normalize(lo), env.normalize(hi)) else {
                    continue;
                };
                ctx.push((var.clone(), lo_l, hi_l));
                collect_killed(body, env, symbols, ctx, sets);
                ctx.pop();
            }
            // Conditional writes are not kills; other statements ignored.
            _ => {}
        }
    }
}

/// Map from callee name → formal positions whose *entire declared range*
/// is killed. Used by interprocedural array privatization: a call that
/// fully kills an array argument acts as an unconditional full write.
pub fn full_kill_map(program: &Program, env: &SymbolicEnv) -> HashMap<(String, usize), SectionSet> {
    let kills = array_kills(program, env);
    let mut out = HashMap::new();
    for (uname, k) in kills {
        for (pos, set) in k.by_formal {
            out.insert((uname.clone(), pos), set);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    #[test]
    fn straight_line_scalar_killed() {
        let src = "      SUBROUTINE S(X)\n      X = 1.0\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let fx = crate::modref::analyze(&p);
        assert_eq!(fx["S"].kill_params, [0]);
    }

    #[test]
    fn use_before_def_not_killed() {
        let src = "      SUBROUTINE S(X)\n      Y = X\n      X = 1.0\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let fx = crate::modref::analyze(&p);
        assert!(fx["S"].kill_params.is_empty());
    }

    #[test]
    fn conditional_def_not_killed() {
        let src = "      SUBROUTINE S(X, C)\n      IF (C .GT. 0) THEN\n      X = 1.0\n      END IF\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let fx = crate::modref::analyze(&p);
        assert!(fx["S"].kill_params.is_empty());
    }

    #[test]
    fn def_on_both_arms_killed() {
        let src = "      SUBROUTINE S(X, C)\n      IF (C .GT. 0) THEN\n      X = 1.0\n      ELSE\n      X = 2.0\n      END IF\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let fx = crate::modref::analyze(&p);
        assert_eq!(fx["S"].kill_params, [0]);
    }

    #[test]
    fn common_scalar_kill() {
        let src =
            "      SUBROUTINE S\n      COMMON /B/ T\n      T = 0.0\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let fx = crate::modref::analyze(&p);
        assert_eq!(fx["S"].kill_globals, ["T"]);
    }

    #[test]
    fn array_kill_full_range() {
        // The arc3d shape: a procedure that fully initializes its array
        // argument.
        let src = "      SUBROUTINE INIT(W, N)\n      REAL W(N)\n      DO 10 J = 1, N\n      W(J) = 0.0\n   10 CONTINUE\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let env = SymbolicEnv::new();
        let m = full_kill_map(&p, &env);
        let set = m.get(&("INIT".to_string(), 0)).expect("kill set for W");
        // Section [1, N] recorded.
        use ped_analysis::symbolic::{to_lin, LinExpr};
        let one: LinExpr = to_lin(&ped_fortran::parser::parse_expr_str("1", &[]).unwrap()).unwrap();
        let n: LinExpr = to_lin(&ped_fortran::parser::parse_expr_str("N", &[]).unwrap()).unwrap();
        let full = Section {
            dims: vec![ped_analysis::section::DimRange { lo: one, hi: n }],
        };
        assert!(set.covers(&full, &env));
    }

    #[test]
    fn conditional_array_write_not_killed() {
        let src = "      SUBROUTINE S(W, N, C)\n      REAL W(N)\n      IF (C .GT. 0) THEN\n      DO 10 J = 1, N\n      W(J) = 0.0\n   10 CONTINUE\n      END IF\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let env = SymbolicEnv::new();
        let m = full_kill_map(&p, &env);
        assert!(!m.contains_key(&("S".to_string(), 0)));
    }

    #[test]
    fn goto_bypass_not_killed() {
        let src = "      SUBROUTINE S(X, C)\n      IF (C .GT. 0) GOTO 100\n      X = 1.0\n  100 CONTINUE\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let fx = crate::modref::analyze(&p);
        assert!(fx["S"].kill_params.is_empty());
    }
}
