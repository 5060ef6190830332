//! Symbolic (affine) expression analysis.
//!
//! "Symbolic analysis locates auxiliary induction variables, loop-invariant
//! expressions and equivalent expressions. It also performs expression
//! simplification on demand" (§4.1), and §4.3 motivates *symbolic
//! relationships* such as `JM = JMAX - 1` in arc3d, which — combined with
//! array kill analysis — proves the `DO 15` loop parallel.
//!
//! The core representation is [`LinExpr`]: an integer-affine form
//! `Σ cᵢ·xᵢ + k` over symbolic names. A [`SymbolicEnv`] carries
//!
//! * *substitutions* — equality facts (`JM ↦ JMAX - 1`) discovered by
//!   invariant-relation detection or asserted by the user, applied during
//!   normalization so that equivalent expressions normalize identically;
//! * *ranges* — interval facts (`1 ≤ N ≤ 100`) from constants, loop
//!   bounds and user assertions, used by the little prover
//!   ([`SymbolicEnv::prove_nonneg`]) that dependence tests consult.

use ped_fortran::ast::{BinOp, Expr, UnOp};
use std::collections::{BTreeMap, HashMap};

/// An integer-affine symbolic expression: `Σ coeff·name + konst`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Non-zero coefficients per symbolic name (sorted for canonicity).
    pub terms: BTreeMap<String, i64>,
    pub konst: i64,
}

impl LinExpr {
    pub fn constant(k: i64) -> LinExpr {
        LinExpr {
            terms: BTreeMap::new(),
            konst: k,
        }
    }

    pub fn var(name: impl Into<String>) -> LinExpr {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), 1);
        LinExpr { terms, konst: 0 }
    }

    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    pub fn as_const(&self) -> Option<i64> {
        self.is_const().then_some(self.konst)
    }

    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// `self += other` without allocating a fresh form.
    pub fn add_assign(&mut self, other: &LinExpr) {
        self.add_scaled(other, 1);
    }

    /// `self -= other` without allocating a fresh form.
    pub fn sub_assign(&mut self, other: &LinExpr) {
        self.add_scaled(other, -1);
    }

    /// `self += k·other` — the workhorse of subscript canonicalization:
    /// it folds a substituted definition in without materializing the
    /// intermediate `other.scale(k)`.
    pub fn add_scaled(&mut self, other: &LinExpr, k: i64) {
        if k == 0 {
            return;
        }
        for (n, c) in &other.terms {
            let e = self.terms.entry(n.clone()).or_insert(0);
            *e += c * k;
            if *e == 0 {
                self.terms.remove(n);
            }
        }
        self.konst += other.konst * k;
    }

    /// `self += k·name`.
    pub fn add_term(&mut self, name: &str, k: i64) {
        if k == 0 {
            return;
        }
        let e = self.terms.entry(name.to_string()).or_insert(0);
        *e += k;
        if *e == 0 {
            self.terms.remove(name);
        }
    }

    pub fn scale(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::constant(0);
        }
        LinExpr {
            terms: self.terms.iter().map(|(n, c)| (n.clone(), c * k)).collect(),
            konst: self.konst * k,
        }
    }

    /// Coefficient of `name` (0 if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// Remove `name`, returning its coefficient.
    pub fn take(&mut self, name: &str) -> i64 {
        self.terms.remove(name).unwrap_or(0)
    }

    /// Names appearing with non-zero coefficient.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(|s| s.as_str())
    }
}

impl std::fmt::Display for LinExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (n, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    c => write!(f, "{c}*{n}")?,
                }
                first = false;
            } else if *c >= 0 {
                if *c == 1 {
                    write!(f, " + {n}")?;
                } else {
                    write!(f, " + {c}*{n}")?;
                }
            } else if *c == -1 {
                write!(f, " - {n}")?;
            } else {
                write!(f, " - {}*{n}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.konst)?;
        } else if self.konst > 0 {
            write!(f, " + {}", self.konst)?;
        } else if self.konst < 0 {
            write!(f, " - {}", -self.konst)?;
        }
        Ok(())
    }
}

/// An inclusive integer range with optionally-open ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Range {
    pub lo: Option<i64>,
    pub hi: Option<i64>,
}

impl Range {
    pub fn exact(v: i64) -> Range {
        Range {
            lo: Some(v),
            hi: Some(v),
        }
    }

    pub fn at_least(v: i64) -> Range {
        Range {
            lo: Some(v),
            hi: None,
        }
    }

    pub fn at_most(v: i64) -> Range {
        Range {
            lo: None,
            hi: Some(v),
        }
    }

    pub fn between(lo: i64, hi: i64) -> Range {
        Range {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    fn intersect(self, other: Range) -> Range {
        Range {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

/// Facts asserted about an *index array* — an array used in subscript
/// expressions of another array (§3.3: "specifying relationships between
/// two symbolic variables and the properties of index arrays").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexArrayFact {
    /// All values are distinct (the `PERMUTATION(a)` assertion).
    pub permutation: bool,
    /// Values are monotone with a minimum gap: `a(i+1) ≥ a(i) + k`
    /// (the dpmin breaking condition `IT(i) + 3 ≤ IT(i+1)` is `k = 3`).
    pub min_stride: Option<i64>,
    /// Bounds on the values stored in the array.
    pub value_lo: Option<LinExpr>,
    pub value_hi: Option<LinExpr>,
}

impl IndexArrayFact {
    /// Minimum difference between values at *distinct* indices implied by
    /// the facts (1 for a permutation, `k` for a stride).
    pub fn distinct_gap(&self) -> Option<i64> {
        match (self.min_stride, self.permutation) {
            (Some(k), _) => Some(k),
            (None, true) => Some(1),
            _ => None,
        }
    }
}

/// The symbolic fact environment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SymbolicEnv {
    /// Equality substitutions `name ↦ linexpr` applied during
    /// normalization. Closed under themselves (no cycles).
    pub subst: HashMap<String, LinExpr>,
    /// Interval facts per name.
    pub ranges: HashMap<String, Range>,
    /// Linear inequality facts: each entry `e` asserts `e ≥ 0`.
    pub facts: Vec<LinExpr>,
    /// Asserted properties of index arrays, by array name.
    pub index_facts: HashMap<String, IndexArrayFact>,
}

impl SymbolicEnv {
    pub fn new() -> Self {
        Self::default()
    }

    /// Content fingerprint of every fact the dependence tests can
    /// observe. The analysis cache compares this across `reanalyze()`
    /// calls: equal fingerprints mean any cached test result derived
    /// under the old environment is still valid. Hash-map iteration
    /// order is neutralized by sorting keys.
    pub fn fingerprint(&self) -> u64 {
        use ped_fortran::fingerprint::Fnv;
        fn lin(mut h: Fnv, l: &LinExpr) -> Fnv {
            for (n, c) in &l.terms {
                h = h.str(n).u64(*c as u64);
            }
            h.u64(l.konst as u64)
        }
        let mut h = Fnv::new();
        let mut names: Vec<&String> = self.subst.keys().collect();
        names.sort();
        for n in names {
            h = lin(h.str("S").str(n), &self.subst[n]);
        }
        let mut names: Vec<&String> = self.ranges.keys().collect();
        names.sort();
        for n in names {
            let r = &self.ranges[n];
            h = h
                .str("R")
                .str(n)
                .u64(r.lo.unwrap_or(i64::MIN) as u64)
                .u64(r.hi.unwrap_or(i64::MAX) as u64);
        }
        // `facts` order is append order — deterministic per assertion
        // sequence; sort canonically anyway so re-derived environments
        // with permuted facts compare equal.
        let mut fact_fps: Vec<u64> = self
            .facts
            .iter()
            .map(|f| lin(Fnv::new(), f).done())
            .collect();
        fact_fps.sort_unstable();
        for f in fact_fps {
            h = h.str("F").u64(f);
        }
        let mut names: Vec<&String> = self.index_facts.keys().collect();
        names.sort();
        for n in names {
            let f = &self.index_facts[n];
            h = h
                .str("I")
                .str(n)
                .u64(f.permutation as u64)
                .u64(f.min_stride.unwrap_or(i64::MIN) as u64);
            for side in [&f.value_lo, &f.value_hi] {
                h = match side {
                    Some(l) => lin(h.u64(1), l),
                    None => h.u64(0),
                };
            }
        }
        h.done()
    }

    /// Record an equality fact `name = e` (e.g. `JM = JMAX-1`).
    pub fn add_subst(&mut self, name: impl Into<String>, e: LinExpr) {
        let name = name.into();
        // Avoid self-reference.
        if e.coeff(&name) != 0 {
            return;
        }
        // Rewrite existing substitutions through the new one.
        let mut expanded: HashMap<String, LinExpr> = HashMap::new();
        for (n, old) in &self.subst {
            expanded.insert(n.clone(), substitute_one(old, &name, &e));
        }
        self.subst = expanded;
        self.subst.insert(name, e);
    }

    /// Record an interval fact for a name.
    pub fn add_range(&mut self, name: impl Into<String>, r: Range) {
        let name = name.into();
        let cur = self.ranges.get(&name).copied().unwrap_or_default();
        self.ranges.insert(name, cur.intersect(r));
    }

    /// Record a linear fact `e ≥ 0`.
    pub fn add_fact_nonneg(&mut self, e: LinExpr) {
        if !self.facts.contains(&e) {
            self.facts.push(e);
        }
    }

    /// Record (merge) index-array facts for an array name.
    pub fn add_index_fact(&mut self, name: impl Into<String>, fact: IndexArrayFact) {
        let e = self.index_facts.entry(name.into()).or_default();
        e.permutation |= fact.permutation;
        if let Some(k) = fact.min_stride {
            e.min_stride = Some(e.min_stride.map_or(k, |old| old.max(k)));
        }
        if fact.value_lo.is_some() {
            e.value_lo = fact.value_lo;
        }
        if fact.value_hi.is_some() {
            e.value_hi = fact.value_hi;
        }
    }

    /// Index-array facts for `name`, if any.
    pub fn index_fact(&self, name: &str) -> Option<&IndexArrayFact> {
        self.index_facts.get(name)
    }

    /// Normalize an AST expression to affine form under the environment.
    /// Returns `None` for non-affine expressions (products of variables,
    /// index-array subscripts, function calls, reals).
    pub fn normalize(&self, e: &Expr) -> Option<LinExpr> {
        let lin = to_lin(e)?;
        Some(self.apply_subst(&lin))
    }

    /// Apply substitutions to an already-affine form.
    pub fn apply_subst(&self, lin: &LinExpr) -> LinExpr {
        // Fast path: no term of `lin` has a substitution (the common case
        // once subscripts are canonicalized per reference) — the form is
        // returned as-is instead of being rebuilt term by term.
        if self.subst.is_empty() || !lin.terms.keys().any(|n| self.subst.contains_key(n)) {
            return lin.clone();
        }
        let mut out = LinExpr::constant(lin.konst);
        for (n, c) in &lin.terms {
            match self.subst.get(n) {
                Some(rep) => out.add_scaled(rep, *c),
                None => out.add_term(n, *c),
            }
        }
        out
    }

    /// Interval evaluation of an affine form under the range facts.
    pub fn range_of(&self, lin: &LinExpr) -> Range {
        let mut lo = Some(lin.konst);
        let mut hi = Some(lin.konst);
        for (n, &c) in &lin.terms {
            let r = self.ranges.get(n).copied().unwrap_or_default();
            let (tlo, thi) = if c >= 0 {
                (r.lo.map(|v| v * c), r.hi.map(|v| v * c))
            } else {
                (r.hi.map(|v| v * c), r.lo.map(|v| v * c))
            };
            lo = match (lo, tlo) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
            hi = match (hi, thi) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
        Range { lo, hi }
    }

    /// Try to prove `lin ≥ 0`. Sound but incomplete: interval evaluation,
    /// then single-fact subsumption (`lin = fact + nonneg-slack`).
    pub fn prove_nonneg(&self, lin: &LinExpr) -> bool {
        if let Some(l) = self.range_of(lin).lo {
            if l >= 0 {
                return true;
            }
        }
        for f in &self.facts {
            // lin - f must be provably nonneg by intervals.
            let slack = lin.sub(f);
            if let Some(l) = self.range_of(&slack).lo {
                if l >= 0 {
                    return true;
                }
            }
        }
        false
    }

    /// Try to prove `lin > 0`.
    pub fn prove_positive(&self, lin: &LinExpr) -> bool {
        self.prove_nonneg(&lin.sub(&LinExpr::constant(1)))
    }

    /// Try to prove `a = b` under substitutions (equivalent expressions).
    pub fn prove_equal(&self, a: &Expr, b: &Expr) -> bool {
        match (self.normalize(a), self.normalize(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Simplify an expression "on demand": if affine, re-render the
    /// canonical form; otherwise return it unchanged.
    pub fn simplify(&self, e: &Expr) -> Expr {
        match self.normalize(e) {
            Some(lin) => lin_to_expr(&lin),
            None => e.clone(),
        }
    }
}

fn substitute_one(lin: &LinExpr, name: &str, rep: &LinExpr) -> LinExpr {
    let c = lin.coeff(name);
    if c == 0 {
        return lin.clone();
    }
    let mut out = lin.clone();
    out.take(name);
    out.add(&rep.scale(c))
}

/// Structural conversion Expr → affine form (no environment).
pub fn to_lin(e: &Expr) -> Option<LinExpr> {
    match e {
        Expr::Int(v) => Some(LinExpr::constant(*v)),
        Expr::Var(n) => Some(LinExpr::var(n.clone())),
        Expr::Un { op: UnOp::Neg, e } => Some(to_lin(e)?.scale(-1)),
        Expr::Un { op: UnOp::Plus, e } => to_lin(e),
        Expr::Bin { op, l, r } => match op {
            BinOp::Add => Some(to_lin(l)?.add(&to_lin(r)?)),
            BinOp::Sub => Some(to_lin(l)?.sub(&to_lin(r)?)),
            BinOp::Mul => {
                let a = to_lin(l)?;
                let b = to_lin(r)?;
                if let Some(k) = a.as_const() {
                    Some(b.scale(k))
                } else {
                    b.as_const().map(|k| a.scale(k))
                }
            }
            BinOp::Div => {
                let a = to_lin(l)?;
                let b = to_lin(r)?;
                let k = b.as_const()?;
                if k == 0 {
                    return None;
                }
                // Only exact constant division stays affine.
                let ak = a.as_const()?;
                (ak % k == 0).then(|| LinExpr::constant(ak / k))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Render an affine form back to an AST expression.
pub fn lin_to_expr(lin: &LinExpr) -> Expr {
    let mut acc: Option<Expr> = None;
    for (n, &c) in &lin.terms {
        let term = match c {
            1 => Expr::var(n.clone()),
            -1 => Expr::Un {
                op: UnOp::Neg,
                e: Box::new(Expr::var(n.clone())),
            },
            c => Expr::mul(Expr::Int(c), Expr::var(n.clone())),
        };
        acc = Some(match acc {
            None => term,
            Some(a) => {
                if c < 0 {
                    // a + (-x) prints poorly; emit a - x for -1 coeff.
                    match term {
                        Expr::Un { op: UnOp::Neg, e } => Expr::sub(a, *e),
                        t => Expr::add(a, t),
                    }
                } else {
                    Expr::add(a, term)
                }
            }
        });
    }
    match acc {
        None => Expr::Int(lin.konst),
        Some(a) => {
            if lin.konst > 0 {
                Expr::add(a, Expr::Int(lin.konst))
            } else if lin.konst < 0 {
                Expr::sub(a, Expr::Int(-lin.konst))
            } else {
                a
            }
        }
    }
}

/// Detect loop-invariant scalar relations in a unit: scalars with exactly
/// one (dominating, unconditional) definition whose RHS is affine in
/// entry-only or previously-established names become substitution facts
/// (the arc3d `JM = JMAX - 1` pattern, §4.3).
pub fn detect_invariant_relations(
    unit: &ped_fortran::ast::ProcUnit,
    symbols: &ped_fortran::symbols::SymbolTable,
    refs: &crate::refs::RefTable,
    cfg: &crate::cfg::Cfg,
) -> SymbolicEnv {
    let dom = crate::dom::DomTree::dominators(cfg);
    detect_invariant_relations_with(unit, symbols, refs, cfg, &dom)
}

/// [`detect_invariant_relations`] with a precomputed dominator tree
/// (shared with the other consumers in a [`crate::facts::ScalarFacts`]
/// bundle instead of recomputed here).
pub fn detect_invariant_relations_with(
    unit: &ped_fortran::ast::ProcUnit,
    symbols: &ped_fortran::symbols::SymbolTable,
    refs: &crate::refs::RefTable,
    cfg: &crate::cfg::Cfg,
    dom: &crate::dom::DomTree,
) -> SymbolicEnv {
    use ped_fortran::intern::NameId;
    let mut env = SymbolicEnv::new();
    // Names never defined in the unit are "entry-stable".
    let mut def_count: HashMap<NameId, usize> = HashMap::new();
    for r in &refs.refs {
        if r.is_def {
            *def_count.entry(r.name_id).or_insert(0) += 1;
        }
    }
    let defs_of = |n: &str| -> usize {
        symbols
            .name_id(n)
            .and_then(|id| def_count.get(&id).copied())
            .unwrap_or(0)
    };
    let entry_stable = |n: &str, established: &HashMap<String, LinExpr>| {
        defs_of(n) == 0 || established.contains_key(n)
    };
    // Iterate to closure (a = b+1 where b = c-1, etc.).
    for _ in 0..4 {
        ped_fortran::ast::walk_stmts(&unit.body, &mut |s| {
            let ped_fortran::ast::StmtKind::Assign {
                lhs: ped_fortran::ast::LValue::Var(name),
                rhs,
            } = &s.kind
            else {
                return;
            };
            if env.subst.contains_key(name) {
                return;
            }
            if defs_of(name) != 1 {
                return;
            }
            let name_id = symbols.name_id(name);
            if name_id.is_some_and(|id| !symbols.get_id(id).dims.is_empty()) {
                return;
            }
            let Some(lin) = to_lin(rhs) else { return };
            if !lin.names().all(|n| entry_stable(n, &env.subst)) {
                return;
            }
            // The definition must dominate every use of the name.
            let Some(def_node) = cfg.node_of(s.id) else {
                return;
            };
            let uses_dominated = |id: NameId| {
                refs.uses_of_id(id).all(|u| {
                    cfg.node_of(u.stmt)
                        .map(|un| un == def_node || dom.dominates(def_node, un))
                        .unwrap_or(false)
                })
            };
            let all_dominated = name_id.map(uses_dominated).unwrap_or(true);
            if !all_dominated {
                return;
            }
            let expanded = env.apply_subst(&lin);
            if expanded.coeff(name) == 0 {
                env.add_subst(name.clone(), expanded);
            }
        });
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_expr_str;

    fn lin(s: &str) -> LinExpr {
        to_lin(&parse_expr_str(s, &[]).unwrap()).unwrap()
    }

    #[test]
    fn affine_normalization_canonical() {
        assert_eq!(lin("I+1"), lin("1+I"));
        assert_eq!(lin("2*I+3-I"), lin("I+3"));
        assert_eq!(lin("I-I"), LinExpr::constant(0));
        assert_eq!(lin("3*(I+2)"), lin("3*I+6"));
    }

    #[test]
    fn non_affine_rejected() {
        let e = parse_expr_str("I*J", &[]).unwrap();
        assert!(to_lin(&e).is_none());
        let e = parse_expr_str("A(K)", &[]).unwrap();
        assert!(to_lin(&e).is_none());
    }

    #[test]
    fn exact_constant_division_folds() {
        assert_eq!(lin("6/2"), LinExpr::constant(3));
        let e = parse_expr_str("I/2", &[]).unwrap();
        assert!(to_lin(&e).is_none());
    }

    #[test]
    fn substitution_applies() {
        let mut env = SymbolicEnv::new();
        env.add_subst("JM", lin("JMAX-1"));
        let a = parse_expr_str("JM+1", &[]).unwrap();
        let b = parse_expr_str("JMAX", &[]).unwrap();
        assert!(env.prove_equal(&a, &b));
    }

    #[test]
    fn substitutions_compose() {
        let mut env = SymbolicEnv::new();
        env.add_subst("A", lin("B+1"));
        env.add_subst("B", lin("C+1"));
        let a = parse_expr_str("A", &[]).unwrap();
        let c2 = parse_expr_str("C+2", &[]).unwrap();
        assert!(env.prove_equal(&a, &c2));
    }

    #[test]
    fn self_referential_subst_ignored() {
        let mut env = SymbolicEnv::new();
        env.add_subst("K", lin("K+1"));
        assert!(env.subst.is_empty());
    }

    #[test]
    fn interval_proving() {
        let mut env = SymbolicEnv::new();
        env.add_range("N", Range::at_least(1));
        assert!(env.prove_positive(&lin("N")));
        assert!(env.prove_nonneg(&lin("N-1")));
        assert!(!env.prove_nonneg(&lin("N-2")));
        env.add_range("N", Range::at_most(10));
        assert!(env.prove_nonneg(&lin("10-N")));
    }

    #[test]
    fn fact_subsumption_proves() {
        // Fact: MCN - (IENDV - ISTRT) - 1 >= 0 (i.e. MCN > IENDV-ISTRT),
        // the pueblo3d assertion. Prove MCN - (IENDV - ISTRT) > 0.
        let mut env = SymbolicEnv::new();
        env.add_fact_nonneg(lin("MCN-IENDV+ISTRT-1"));
        assert!(env.prove_positive(&lin("MCN-IENDV+ISTRT")));
        assert!(!env.prove_positive(&lin("MCN")));
    }

    #[test]
    fn range_of_scaled_terms() {
        let mut env = SymbolicEnv::new();
        env.add_range("I", Range::between(1, 10));
        let r = env.range_of(&lin("2*I+1"));
        assert_eq!(r, Range::between(3, 21));
        let r = env.range_of(&lin("-I"));
        assert_eq!(r, Range::between(-10, -1));
    }

    #[test]
    fn simplify_renders_canonical() {
        let env = SymbolicEnv::new();
        let e = parse_expr_str("I+2-1+I-I", &[]).unwrap();
        let s = env.simplify(&e);
        assert_eq!(ped_fortran::pretty::print_expr(&s), "I + 1");
    }

    #[test]
    fn lin_to_expr_roundtrip() {
        for t in ["I+1", "2*I-3*J+4", "-I", "0", "7", "I-J"] {
            let l1 = lin(t);
            let back = lin_to_expr(&l1);
            assert_eq!(to_lin(&back).unwrap(), l1, "roundtrip {t}");
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(lin("2*I-J+3").to_string(), "2*I - J + 3");
        assert_eq!(LinExpr::constant(-4).to_string(), "-4");
        assert_eq!(lin("-I").to_string(), "-I");
    }

    #[test]
    fn detect_relations_arc3d_pattern() {
        use ped_fortran::parser::parse_ok;
        // JM = JMAX - 1, single def, dominates use.
        let src = "      SUBROUTINE F(JMAX)\n      JM = JMAX - 1\n      X = JM\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let sym = ped_fortran::symbols::SymbolTable::build(&p.units[0]);
        let cfg = crate::cfg::Cfg::build(&p.units[0]);
        let refs = crate::refs::RefTable::build(&p.units[0], &sym);
        let env = detect_invariant_relations(&p.units[0], &sym, &refs, &cfg);
        assert_eq!(env.subst.get("JM"), Some(&lin("JMAX-1")));
    }

    #[test]
    fn detect_relations_skips_multiply_defined() {
        use ped_fortran::parser::parse_ok;
        let src = "      SUBROUTINE F(JMAX)\n      JM = JMAX - 1\n      JM = JM + 1\n      X = JM\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let sym = ped_fortran::symbols::SymbolTable::build(&p.units[0]);
        let cfg = crate::cfg::Cfg::build(&p.units[0]);
        let refs = crate::refs::RefTable::build(&p.units[0], &sym);
        let env = detect_invariant_relations(&p.units[0], &sym, &refs, &cfg);
        assert!(env.subst.is_empty());
    }

    #[test]
    fn detect_relations_chains() {
        use ped_fortran::parser::parse_ok;
        let src = "      SUBROUTINE F(N)\n      M = N - 1\n      L = M - 1\n      X = L\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let sym = ped_fortran::symbols::SymbolTable::build(&p.units[0]);
        let cfg = crate::cfg::Cfg::build(&p.units[0]);
        let refs = crate::refs::RefTable::build(&p.units[0], &sym);
        let env = detect_invariant_relations(&p.units[0], &sym, &refs, &cfg);
        assert_eq!(env.subst.get("L"), Some(&lin("N-2")));
    }
}
