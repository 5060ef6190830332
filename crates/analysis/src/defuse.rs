//! Scalar data-flow: reaching definitions, def-use chains, and liveness.
//!
//! "Def-use chains expose dependences among scalar variables as well as
//! linking all accesses to each array for dependence testing. A critical
//! contribution of scalar data-flow analysis is recognizing scalars that
//! are killed on every iteration of a loop and may be made private"
//! (§4.1). This module provides the underlying solvers; privatization
//! itself lives in [`crate::privatize`].
//!
//! Calls are handled through [`ProcEffects`] summaries. Without
//! interprocedural information the conservative default is used: a call
//! may define and use every actual argument and every `COMMON` variable
//! visible in the unit.

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId};
use crate::refs::{RefId, RefTable};
use ped_fortran::ast::{ProcUnit, StmtId, StmtKind};
use ped_fortran::intern::NameId;
use ped_fortran::symbols::{Storage, SymbolTable};
use std::collections::HashMap;

/// Side effects of calling one procedure, as visible at a call site.
/// Produced by interprocedural MOD/REF analysis; the conservative
/// default assumes everything is touched.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcEffects {
    /// Formal positions (0-based) the callee may modify.
    pub mod_params: Vec<usize>,
    /// Formal positions the callee may read.
    pub ref_params: Vec<usize>,
    /// COMMON variables (by name) the callee may modify.
    pub mod_globals: Vec<String>,
    /// COMMON variables the callee may read.
    pub ref_globals: Vec<String>,
    /// Formal positions the callee *must* define on every path (KILL).
    pub kill_params: Vec<usize>,
    /// COMMON variables the callee must define on every path.
    pub kill_globals: Vec<String>,
}

/// Map from procedure name to its effects.
pub type EffectsMap = HashMap<String, ProcEffects>;

/// One definition site: a def reference plus its defining statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DefSite {
    pub r: RefId,
    pub stmt: StmtId,
}

/// Reaching definitions + def-use chains + scalar liveness for one unit.
pub struct DefUse {
    /// All scalar definition sites (including conservative call defs).
    pub sites: Vec<DefSite>,
    /// For each use reference: the definition sites reaching it.
    chains: HashMap<RefId, Vec<usize>>,
    /// Scalar names live at loop exit / after each node, indexed by name.
    live_out: Vec<BitSet>,
    /// Interned name -> dense scalar index (bit position in the
    /// liveness/kill sets). Hot-path lookups hash a `u32`, not a string.
    name_idx: HashMap<NameId, usize>,
    /// Dense scalar index -> interned name.
    ids: Vec<NameId>,
    /// Definition sites reaching the *entry* of each CFG node.
    reach_in: Vec<BitSet>,
}

impl DefUse {
    /// Solve scalar data-flow for a unit. `effects` supplies
    /// interprocedural call summaries (None ⇒ conservative).
    pub fn build(
        unit: &ProcUnit,
        symbols: &SymbolTable,
        cfg: &Cfg,
        refs: &RefTable,
        effects: Option<&EffectsMap>,
    ) -> DefUse {
        // -- Collect scalar def sites --------------------------------
        // Site space: one per scalar def reference, plus synthetic call
        // sites for COMMON mods, plus one "entry" def per scalar name
        // (values live on entry: formals, commons, DATA).
        let mut sites: Vec<DefSite> = Vec::new();
        let mut site_of_ref: HashMap<RefId, usize> = HashMap::new();
        for r in &refs.refs {
            if r.is_def && !r.is_array_elem() && is_scalar(symbols, r.name_id) {
                site_of_ref.insert(r.id, sites.len());
                sites.push(DefSite {
                    r: r.id,
                    stmt: r.stmt,
                });
            }
        }
        // Synthetic call-side defs of COMMON scalars: represent as extra
        // sites keyed by (stmt, name).
        let mut call_defs: Vec<(StmtId, NameId, usize)> = Vec::new();
        for_each_call(unit, |stmt, callee| {
            let touched = call_modified_globals(symbols, callee, effects);
            for g in touched {
                call_defs.push((stmt, g, 0));
            }
        });
        let call_site_base = sites.len();
        for (i, (stmt, _name, idx)) in call_defs.iter_mut().enumerate() {
            *idx = call_site_base + i;
            sites.push(DefSite {
                r: RefId(u32::MAX),
                stmt: *stmt,
            });
        }
        // Entry defs, one per scalar name.
        let mut ids: Vec<NameId> = Vec::new();
        let mut name_idx: HashMap<NameId, usize> = HashMap::new();
        for s in symbols.iter() {
            if s.dims.is_empty() {
                name_idx.insert(s.id, ids.len());
                ids.push(s.id);
            }
        }
        let entry_base = sites.len();
        for _ in &ids {
            sites.push(DefSite {
                r: RefId(u32::MAX),
                stmt: StmtId(u32::MAX),
            });
        }
        let nsites = sites.len();

        // Per-site name (index into names).
        let mut site_name: Vec<usize> = Vec::with_capacity(nsites);
        for site in sites.iter().take(call_site_base) {
            let id = refs.get(site.r).name_id;
            site_name.push(*name_idx.get(&id).unwrap_or(&usize::MAX));
        }
        for (_, id, _) in &call_defs {
            site_name.push(*name_idx.get(id).unwrap_or(&usize::MAX));
        }
        for i in 0..ids.len() {
            site_name.push(i);
        }

        // Sites grouped by name, for kill sets.
        let mut sites_by_name: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
        for (i, &n) in site_name.iter().enumerate() {
            if n != usize::MAX {
                sites_by_name[n].push(i);
            }
        }

        // -- GEN/KILL per node ---------------------------------------
        let nnodes = cfg.len();
        let mut gen: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nsites)).collect();
        let mut kill: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nsites)).collect();
        for (i, site) in sites.iter().enumerate().take(entry_base) {
            let Some(node) = cfg.node_of(site.stmt) else {
                continue;
            };
            gen[node.index()].insert(i);
            // An unambiguous scalar def kills all other defs of the name.
            // Synthetic call defs are *may*-defs: they do not kill,
            // unless the callee's KILL summary proves a must-def.
            let must = if i < call_site_base {
                refs.get(site.r).cause != crate::refs::RefCause::CallArg
            } else {
                let (_, id, _) = &call_defs[i - call_site_base];
                call_must_kill(unit, symbols, site.stmt, symbols.resolve(*id), effects)
            };
            if must && site_name[i] != usize::MAX {
                for &other in &sites_by_name[site_name[i]] {
                    if other != i {
                        kill[node.index()].insert(other);
                    }
                }
            }
        }
        // Entry node generates the entry defs.
        for i in entry_base..nsites {
            gen[cfg.entry.index()].insert(i);
        }

        // -- Iterate reaching definitions ----------------------------
        let order = cfg.reverse_postorder();
        let mut reach_in: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nsites)).collect();
        let mut reach_out: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nsites)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order {
                let ni = n.index();
                let mut inset = BitSet::new(nsites);
                for &p in &cfg.nodes[ni].preds {
                    inset.union_with(&reach_out[p.index()]);
                }
                let mut outset = inset.clone();
                outset.subtract(&kill[ni]);
                outset.union_with(&gen[ni]);
                if outset != reach_out[ni] {
                    reach_out[ni] = outset;
                    changed = true;
                }
                reach_in[ni] = inset;
            }
        }

        // -- Def-use chains ------------------------------------------
        // A use of scalar X at node n is reached by the defs of X in
        // reach_in[n] (plus same-statement earlier defs are not modeled:
        // statement granularity).
        let mut chains: HashMap<RefId, Vec<usize>> = HashMap::new();
        for r in &refs.refs {
            if r.is_def || r.is_array_elem() || !is_scalar(symbols, r.name_id) {
                continue;
            }
            let Some(node) = cfg.node_of(r.stmt) else {
                continue;
            };
            let Some(&nid) = name_idx.get(&r.name_id) else {
                continue;
            };
            let mut v = Vec::new();
            for &s in &sites_by_name[nid] {
                if reach_in[node.index()].contains(s) {
                    v.push(s);
                }
            }
            chains.insert(r.id, v);
        }

        // -- Liveness (backward, over scalar names) ------------------
        let nnames = ids.len();
        let mut use_b: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nnames)).collect();
        let mut def_b: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nnames)).collect();
        for r in &refs.refs {
            if r.is_array_elem() || !is_scalar(symbols, r.name_id) {
                continue;
            }
            let Some(node) = cfg.node_of(r.stmt) else {
                continue;
            };
            let Some(&nid) = name_idx.get(&r.name_id) else {
                continue;
            };
            if r.is_def {
                if !use_b[node.index()].contains(nid) {
                    def_b[node.index()].insert(nid);
                }
            } else {
                use_b[node.index()].insert(nid);
            }
        }
        // Everything in COMMON or a formal is "used" at exit (visible to
        // callers), so it is live-out of the unit.
        for s in symbols.iter() {
            if s.dims.is_empty()
                && matches!(
                    s.storage,
                    Storage::Common | Storage::Formal | Storage::Result
                )
            {
                if let Some(&nid) = name_idx.get(&s.id) {
                    use_b[cfg.exit.index()].insert(nid);
                }
            }
        }
        let mut live_in: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nnames)).collect();
        let mut live_out: Vec<BitSet> = (0..nnodes).map(|_| BitSet::new(nnames)).collect();
        let order_b = cfg.reverse_postorder_backward();
        let mut changed = true;
        while changed {
            changed = false;
            for &n in &order_b {
                let ni = n.index();
                let mut outset = BitSet::new(nnames);
                for &s in &cfg.nodes[ni].succs {
                    outset.union_with(&live_in[s.index()]);
                }
                let mut inset = outset.clone();
                inset.subtract(&def_b[ni]);
                inset.union_with(&use_b[ni]);
                if inset != live_in[ni] {
                    live_in[ni] = inset;
                    changed = true;
                }
                live_out[ni] = outset;
            }
        }

        DefUse {
            sites,
            chains,
            live_out,
            name_idx,
            ids,
            reach_in,
        }
    }

    /// Definition sites reaching a given scalar use reference.
    pub fn reaching_defs(&self, use_ref: RefId) -> &[usize] {
        self.chains
            .get(&use_ref)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// True if the use may see the value on entry to the unit
    /// (an "upward exposed" use at unit level).
    pub fn may_see_entry(&self, use_ref: RefId) -> bool {
        self.reaching_defs(use_ref)
            .iter()
            .any(|&s| self.sites[s].stmt == StmtId(u32::MAX))
    }

    /// True if scalar `name` is live after CFG node `n`.
    pub fn live_after(&self, n: NodeId, name: NameId) -> bool {
        match self.name_idx.get(&name) {
            Some(&i) => self.live_out[n.index()].contains(i),
            None => false,
        }
    }

    /// True if any definition of `name` from outside the given statement
    /// set reaches the entry of node `n`.
    pub fn def_from_outside_reaches(&self, n: NodeId, name: NameId, inside: &[StmtId]) -> bool {
        let Some(&nid) = self.name_idx.get(&name) else {
            return false;
        };
        for s in self.reach_in[n.index()].iter() {
            let site = &self.sites[s];
            let site_name = self.site_name(s);
            if site_name == Some(nid)
                && (site.stmt == StmtId(u32::MAX) || !inside.contains(&site.stmt))
            {
                return true;
            }
        }
        false
    }

    fn site_name(&self, s: usize) -> Option<usize> {
        let site = &self.sites[s];
        if site.stmt == StmtId(u32::MAX) {
            // Entry defs are appended in scalar-index order at the tail.
            let entry_base = self.sites.len() - self.ids.len();
            return Some(s - entry_base);
        }
        // Not needed for precision here: resolve by scanning names.
        // (Call-synthetic sites store no RefId.)
        None
    }

    /// All scalar names tracked, as interned ids.
    pub fn scalar_ids(&self) -> &[NameId] {
        &self.ids
    }
}

fn is_scalar(symbols: &SymbolTable, id: NameId) -> bool {
    if id == NameId::INVALID {
        return true;
    }
    symbols.get_id(id).dims.is_empty()
}

fn for_each_call(unit: &ProcUnit, mut f: impl FnMut(StmtId, &str)) {
    ped_fortran::ast::walk_stmts(&unit.body, &mut |s| {
        if let StmtKind::Call { name, .. } = &s.kind {
            f(s.id, name);
        }
    });
}

/// COMMON scalars a call may modify (conservative: all of them).
fn call_modified_globals(
    symbols: &SymbolTable,
    callee: &str,
    effects: Option<&EffectsMap>,
) -> Vec<NameId> {
    if let Some(map) = effects {
        if let Some(e) = map.get(&callee.to_ascii_uppercase()) {
            return e
                .mod_globals
                .iter()
                .filter_map(|g| symbols.get(g).filter(|s| s.dims.is_empty()).map(|s| s.id))
                .collect();
        }
    }
    symbols
        .iter()
        .filter(|s| s.dims.is_empty() && s.storage == Storage::Common)
        .map(|s| s.id)
        .collect()
}

fn call_must_kill(
    _unit: &ProcUnit,
    _symbols: &SymbolTable,
    _stmt: StmtId,
    name: &str,
    effects: Option<&EffectsMap>,
) -> bool {
    if let Some(map) = effects {
        for e in map.values() {
            if e.kill_globals.iter().any(|g| g == name) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    fn name_id(refs: &RefTable, name: &str) -> NameId {
        refs.refs.iter().find(|r| r.name == name).unwrap().name_id
    }

    fn build(src: &str) -> (ped_fortran::Program, Cfg, RefTable, DefUse) {
        let p = parse_ok(src);
        let sym = SymbolTable::build(&p.units[0]);
        let cfg = Cfg::build(&p.units[0]);
        let refs = RefTable::build(&p.units[0], &sym);
        let du = DefUse::build(&p.units[0], &sym, &cfg, &refs, None);
        (p, cfg, refs, du)
    }

    #[test]
    fn straight_line_chain() {
        let (p, _, refs, du) = build("      A = 1\n      B = A\n      END\n");
        let use_a = refs
            .refs
            .iter()
            .find(|r| r.name == "A" && !r.is_def)
            .unwrap();
        let defs = du.reaching_defs(use_a.id);
        assert_eq!(defs.len(), 1);
        assert_eq!(du.sites[defs[0]].stmt, p.units[0].body[0].id);
        assert!(!du.may_see_entry(use_a.id));
    }

    #[test]
    fn redefinition_kills() {
        let (p, _, refs, du) = build("      A = 1\n      A = 2\n      B = A\n      END\n");
        let use_a = refs
            .refs
            .iter()
            .find(|r| r.name == "A" && !r.is_def)
            .unwrap();
        let defs = du.reaching_defs(use_a.id);
        assert_eq!(defs.len(), 1);
        assert_eq!(du.sites[defs[0]].stmt, p.units[0].body[1].id);
    }

    #[test]
    fn branch_merges_defs() {
        let src = "      IF (X .GT. 0) THEN\n      A = 1\n      ELSE\n      A = 2\n      END IF\n      B = A\n      END\n";
        let (_, _, refs, du) = build(src);
        let use_a = refs
            .refs
            .iter()
            .find(|r| r.name == "A" && !r.is_def)
            .unwrap();
        assert_eq!(du.reaching_defs(use_a.id).len(), 2);
    }

    #[test]
    fn uninitialized_use_sees_entry() {
        let (_, _, refs, du) = build("      B = A\n      END\n");
        let use_a = refs
            .refs
            .iter()
            .find(|r| r.name == "A" && !r.is_def)
            .unwrap();
        assert!(du.may_see_entry(use_a.id));
    }

    #[test]
    fn loop_carried_scalar_reaches_use() {
        // T's use in iteration i+1 can see the def from iteration i.
        let src =
            "      DO 10 I = 1, N\n      B(I) = T\n      T = A(I)\n   10 CONTINUE\n      END\n";
        let (_, _, refs, du) = build(src);
        let use_t = refs
            .refs
            .iter()
            .find(|r| r.name == "T" && !r.is_def)
            .unwrap();
        let defs = du.reaching_defs(use_t.id);
        // Entry def + the in-loop def both reach.
        assert!(defs.len() >= 2);
        assert!(du.may_see_entry(use_t.id));
    }

    #[test]
    fn killed_scalar_in_loop_not_upward_exposed() {
        // T defined before use on the only path: use sees only that def.
        let src =
            "      DO 10 I = 1, N\n      T = A(I)\n      B(I) = T\n   10 CONTINUE\n      END\n";
        let (p, _, refs, du) = build(src);
        let use_t = refs
            .refs
            .iter()
            .find(|r| r.name == "T" && !r.is_def)
            .unwrap();
        let defs = du.reaching_defs(use_t.id);
        assert_eq!(defs.len(), 1);
        if let StmtKind::Do { body, .. } = &p.units[0].body[0].kind {
            assert_eq!(du.sites[defs[0]].stmt, body[0].id);
        }
        assert!(!du.may_see_entry(use_t.id));
    }

    #[test]
    fn liveness_after_loop() {
        let src = "      DO 10 I = 1, N\n      T = A(I)\n   10 CONTINUE\n      B = T\n      END\n";
        let (p, cfg, refs, du) = build(src);
        // T is live after the loop header node (used at B = T).
        let header = cfg.node_of(p.units[0].body[0].id).unwrap();
        assert!(du.live_after(header, name_id(&refs, "T")));
    }

    #[test]
    fn dead_after_loop_when_not_used() {
        let src = "      DO 10 I = 1, N\n      T = A(I)\n      B(I) = T\n   10 CONTINUE\n      C = 1\n      END\n";
        let (p, cfg, refs, du) = build(src);
        let header = cfg.node_of(p.units[0].body[0].id).unwrap();
        assert!(!du.live_after(header, name_id(&refs, "T")));
    }

    #[test]
    fn common_scalars_live_at_exit() {
        let src = "      SUBROUTINE S\n      COMMON /B/ T\n      T = 1\n      RETURN\n      END\n";
        let (p, cfg, refs, du) = build(src);
        let n = cfg.node_of(p.units[0].body[0].id).unwrap();
        assert!(du.live_after(n, name_id(&refs, "T")));
    }

    #[test]
    fn call_conservatively_defines_commons() {
        let src = "      COMMON /B/ T\n      T = 1\n      CALL MESS\n      X = T\n      END\n";
        let (_, _, refs, du) = build(src);
        let use_t = refs
            .refs
            .iter()
            .find(|r| r.name == "T" && !r.is_def)
            .unwrap();
        // Both the explicit def and the call's synthetic def reach.
        assert!(du.reaching_defs(use_t.id).len() >= 2);
    }

    #[test]
    fn effects_map_refines_call_defs() {
        let src = "      COMMON /B/ T\n      T = 1\n      CALL MESS\n      X = T\n      END\n";
        let p = parse_ok(src);
        let sym = SymbolTable::build(&p.units[0]);
        let cfg = Cfg::build(&p.units[0]);
        let refs = RefTable::build(&p.units[0], &sym);
        let mut fx = EffectsMap::new();
        fx.insert("MESS".into(), ProcEffects::default()); // touches nothing
        let du = DefUse::build(&p.units[0], &sym, &cfg, &refs, Some(&fx));
        let use_t = refs
            .refs
            .iter()
            .find(|r| r.name == "T" && !r.is_def)
            .unwrap();
        assert_eq!(du.reaching_defs(use_t.id).len(), 1);
    }
}
