//! Dependence graph construction.
//!
//! For every pair of references to the same variable (at least one a
//! write) sharing at least one common loop, the classified subscripts are
//! run through the test suite and oriented dependences are emitted:
//!
//! * one *loop-carried* dependence per level `k` whose direction vector
//!   admits `(=, …, =, <, …)` (level = the carrying loop, Figure 1's
//!   LEVEL column);
//! * a *loop-independent* dependence when the all-`=` vector is feasible
//!   and the source textually precedes the sink;
//! * the reversed orientations for `>` directions.
//!
//! Control dependences are included as rows of kind `Control` so the
//! dependence pane can display them alongside data dependences (§4.1).
//!
//! Non-common loops enclosing only one endpoint are handled by renaming
//! their control variables to fresh symbols bounded by the loop ranges —
//! so a write in one inner loop tests precisely against a read in a
//! sibling loop (the arc3d `WR1` shape).
//!
//! ## Performance architecture
//!
//! Pair testing is the editor's dominant cost, so construction is built
//! for the interactive loop:
//!
//! * **Canonical order.** Reference pairs are grouped per variable and
//!   the groups sorted by name, so `DepId` assignment — and therefore
//!   the whole graph — is deterministic run to run and identical
//!   between the serial and parallel builders.
//! * **Parallel sharding.** Groups are independent (a dependence only
//!   ever relates two references to the same variable), so they are
//!   mapped through [`ped_analysis::fanout::map_ordered`]; each group
//!   emits into its own buffer and cache shard, and the coordinator
//!   concatenates buffers and absorbs shards in group order, assigning
//!   ids.
//! * **Pair-test memoization.** With a [`PairCache`], each pair's test
//!   result is keyed by content fingerprints of its endpoints and
//!   enclosing loops; unchanged pairs skip classification and the test
//!   suite entirely on rebuild (see [`crate::cache`]).
//! * **Per-loop index.** `for_loop` / `parallelism_inhibitors` read a
//!   `LoopId → [DepId]` index built once at construction instead of
//!   scanning every dependence per query.

use crate::cache::{CacheShard, CachedTest, PairCache, PairKey};
use crate::canon::CanonStore;
use crate::dir::{Dir, DirSet, DirVector};
use crate::subscript::{NestCtx, SubPos};
use crate::suite::{DepInfo, LoopCtx, TestKindCounts, TestResult};
use ped_analysis::fanout::{self, map_ordered};
use ped_analysis::loops::{LoopId, LoopNest};
use ped_analysis::refs::{RefCause, RefId, RefTable, VarRef};
use ped_analysis::symbolic::{LinExpr, SymbolicEnv};
use ped_analysis::{Cfg, ControlDeps};
use ped_fortran::ast::{Expr, ProcUnit, StmtId};
use ped_fortran::fingerprint::{stmt_fingerprints, Fnv};
use ped_fortran::pretty::print_expr;
use ped_fortran::symbols::SymbolTable;
use ped_fortran::NameId;
use std::collections::{HashMap, HashSet};

/// Identity of a dependence in a [`DependenceGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DepId(pub u32);

impl std::fmt::Display for DepId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Dependence classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Flow (read-after-write).
    True,
    /// Anti (write-after-read).
    Anti,
    /// Output (write-after-write).
    Output,
    /// Input (read-after-read) — shown only on request.
    Input,
    /// Control dependence.
    Control,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepKind::True => write!(f, "True"),
            DepKind::Anti => write!(f, "Anti"),
            DepKind::Output => write!(f, "Output"),
            DepKind::Input => write!(f, "Input"),
            DepKind::Control => write!(f, "Control"),
        }
    }
}

/// One dependence edge.
#[derive(Clone, Debug, PartialEq)]
pub struct Dependence {
    pub id: DepId,
    pub kind: DepKind,
    /// Source/sink references (None for control dependences).
    pub src: Option<RefId>,
    pub sink: Option<RefId>,
    pub src_stmt: StmtId,
    pub sink_stmt: StmtId,
    /// Variable name ("" for control dependences).
    pub var: String,
    /// Common loop nest, outermost first.
    pub common: Vec<LoopId>,
    /// Carried level (1-based into `common`); `None` = loop-independent.
    pub level: Option<u32>,
    /// Direction vector over `common`.
    pub vector: DirVector,
    /// Known constant distances per common loop.
    pub distances: Vec<Option<i64>>,
    /// Proven by an exact test?
    pub exact: bool,
    /// Deciding test name.
    pub test: &'static str,
}

impl Dependence {
    /// The loop that carries this dependence, if carried.
    pub fn carrier(&self) -> Option<LoopId> {
        self.level.map(|l| self.common[(l - 1) as usize])
    }

    /// True if this dependence is relevant when loop `l` is selected:
    /// carried by `l`, or loop-independent with both endpoints inside
    /// `l`.
    pub fn relevant_to(&self, l: LoopId) -> bool {
        match self.level {
            Some(_) => self.carrier() == Some(l),
            None => self.common.contains(&l),
        }
    }
}

/// Options controlling graph construction.
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Include read-read (input) dependences.
    pub input_deps: bool,
    /// Include control dependences.
    pub control_deps: bool,
    /// Include scalar-variable dependences.
    pub scalar_deps: bool,
    /// Worker threads for pair testing: 0 = auto (self-tuning: serial
    /// below [`PAIR_CUTOFF`] pairs or on a single-core machine,
    /// otherwise one worker per core, capped), explicit n = exactly n.
    pub threads: usize,
    /// Use the per-reference canonicalization engine (classify each
    /// reference once per build, share the forms across pairs and
    /// worker threads). `false` forces the pre-existing per-pair
    /// classification path — same results, used as the differential
    /// oracle and the BENCH_4 baseline.
    pub fast_paths: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            input_deps: false,
            control_deps: true,
            scalar_deps: true,
            threads: 0,
            fast_paths: true,
        }
    }
}

/// The dependence graph of one program unit.
#[derive(Clone, Debug, Default)]
pub struct DependenceGraph {
    /// All dependences, in canonical id order. Mutating this directly
    /// stales the loop index; call [`DependenceGraph::reindex`] after.
    pub deps: Vec<Dependence>,
    /// Loop → relevant dependence ids (carried by it, or
    /// loop-independent with the loop in the common nest), id order.
    by_loop: HashMap<LoopId, Vec<u32>>,
    /// Loop → ids of dependences it carries, id order.
    carried_by: HashMap<LoopId, Vec<u32>>,
    /// Which tester decided each freshly tested subscript dimension
    /// during this build (pairs answered from the cache count nothing).
    pub test_kinds: TestKindCounts,
}

impl DependenceGraph {
    /// Build the dependence graph of a unit (no memoization; thread
    /// count from `opts.threads`).
    pub fn build(
        unit: &ProcUnit,
        symbols: &SymbolTable,
        refs: &RefTable,
        nest: &LoopNest,
        env: &SymbolicEnv,
        opts: &BuildOptions,
    ) -> DependenceGraph {
        Self::build_with(unit, symbols, refs, nest, env, opts, None)
    }

    /// Build, memoizing pair-test results in `cache` (hit = the pair's
    /// endpoints and enclosing loops are fingerprint-identical to a
    /// previously tested pair under the same environment/declarations).
    /// The serial and parallel builders produce bit-identical graphs.
    pub fn build_with(
        unit: &ProcUnit,
        symbols: &SymbolTable,
        refs: &RefTable,
        nest: &LoopNest,
        env: &SymbolicEnv,
        opts: &BuildOptions,
        cache: Option<&mut PairCache>,
    ) -> DependenceGraph {
        Self::build_full(unit, symbols, refs, nest, None, env, opts, cache)
    }

    /// [`DependenceGraph::build_with`] with the unit's CFG supplied by
    /// the caller (a memoized `ScalarFacts` bundle), so control-
    /// dependence extraction does not rebuild it.
    #[allow(clippy::too_many_arguments)]
    pub fn build_full(
        unit: &ProcUnit,
        symbols: &SymbolTable,
        refs: &RefTable,
        nest: &LoopNest,
        cfg: Option<&Cfg>,
        env: &SymbolicEnv,
        opts: &BuildOptions,
        mut cache: Option<&mut PairCache>,
    ) -> DependenceGraph {
        let keys = cache.as_ref().map(|_| CacheKeys::build(unit, refs, nest));
        if let Some(c) = cache.as_deref_mut() {
            c.revalidate(
                env.fingerprint(),
                ped_fortran::fingerprint::decls_fingerprint(unit),
            );
        }
        let mut g = DependenceGraph::default();
        let builder = Builder {
            unit,
            symbols,
            refs,
            nest,
            cfg,
            env,
            opts,
            keys,
        };
        builder.run(&mut g, cache);
        g.reindex();
        g
    }

    /// Rebuild the per-loop index from `deps` (needed only after direct
    /// mutation of the dependence list).
    pub fn reindex(&mut self) {
        self.by_loop.clear();
        self.carried_by.clear();
        for d in &self.deps {
            match d.carrier() {
                Some(c) => {
                    self.carried_by.entry(c).or_default().push(d.id.0);
                    self.by_loop.entry(c).or_default().push(d.id.0);
                }
                None => {
                    for &l in &d.common {
                        self.by_loop.entry(l).or_default().push(d.id.0);
                    }
                }
            }
        }
    }

    /// Dependences relevant to a loop (carried by it or loop-independent
    /// within it), in id order. Indexed: O(answer), not O(graph).
    pub fn for_loop(&self, l: LoopId) -> impl Iterator<Item = &Dependence> {
        self.by_loop
            .get(&l)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| &self.deps[i as usize])
    }

    /// Loop-carried data dependences of a loop, excluding `Input` and
    /// `Control` kinds — the ones that inhibit parallelization.
    /// Indexed: O(carried-by-l), not O(graph).
    pub fn parallelism_inhibitors(&self, l: LoopId) -> impl Iterator<Item = &Dependence> {
        self.carried_by
            .get(&l)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| &self.deps[i as usize])
            .filter(|d| !matches!(d.kind, DepKind::Input | DepKind::Control))
    }

    pub fn get(&self, id: DepId) -> &Dependence {
        &self.deps[id.0 as usize]
    }

    /// Deterministic one-line-per-dependence rendering of the whole
    /// graph, for differential testing: two builds are equivalent iff
    /// their canonical texts are byte-identical.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for d in &self.deps {
            use std::fmt::Write;
            let dists: Vec<String> = d
                .distances
                .iter()
                .map(|x| match x {
                    Some(v) => v.to_string(),
                    None => "?".into(),
                })
                .collect();
            let _ = writeln!(
                out,
                "{} {} var={} src={}:{:?} sink={}:{:?} common={:?} level={:?} vec=({}) dist=[{}] exact={} test={}",
                d.id.0,
                d.kind,
                d.var,
                d.src_stmt.0,
                d.src.map(|r| r.0),
                d.sink_stmt.0,
                d.sink.map(|r| r.0),
                d.common.iter().map(|l| l.0).collect::<Vec<_>>(),
                d.level,
                d.vector,
                dists.join(","),
                d.exact,
                d.test,
            );
        }
        out
    }

    pub fn len(&self) -> usize {
        self.deps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }
}

/// Content fingerprints used to form [`PairKey`]s, precomputed once per
/// build (only when a cache is attached).
struct CacheKeys {
    stmt_fp: HashMap<StmtId, u64>,
    /// Loop header fingerprint (control variable, bounds, step, sched —
    /// the `DO` statement's own fingerprint).
    loop_hdr: HashMap<LoopId, u64>,
    /// Header plus every body statement's fingerprint, in order: the
    /// loop's whole subtree content.
    loop_scope: HashMap<LoopId, u64>,
    /// Ordinal of each reference within its statement.
    slot: HashMap<RefId, u32>,
}

impl CacheKeys {
    fn build(unit: &ProcUnit, refs: &RefTable, nest: &LoopNest) -> CacheKeys {
        let stmt_fp = stmt_fingerprints(unit);
        let mut loop_hdr = HashMap::new();
        let mut loop_scope = HashMap::new();
        for l in &nest.loops {
            let hdr = stmt_fp.get(&l.stmt).copied().unwrap_or(0);
            loop_hdr.insert(l.id, hdr);
            let mut h = Fnv::new().u64(hdr);
            for s in &l.body {
                h = h.u64(stmt_fp.get(s).copied().unwrap_or(0));
            }
            loop_scope.insert(l.id, h.done());
        }
        let mut slot = HashMap::new();
        let mut per_stmt: HashMap<StmtId, u32> = HashMap::new();
        for r in &refs.refs {
            let c = per_stmt.entry(r.stmt).or_insert(0);
            slot.insert(r.id, *c);
            *c += 1;
        }
        CacheKeys {
            stmt_fp,
            loop_hdr,
            loop_scope,
            slot,
        }
    }

    fn pair_key(
        &self,
        ra: &VarRef,
        rb: &VarRef,
        common: &[LoopId],
        extra_a: &[LoopId],
        extra_b: &[LoopId],
    ) -> PairKey {
        let mut h = Fnv::new();
        for &l in common {
            h = h.u64(self.loop_hdr[&l]);
        }
        h = h.str("|a");
        for &l in extra_a {
            h = h.u64(self.loop_hdr[&l]);
        }
        h = h.str("|b");
        for &l in extra_b {
            h = h.u64(self.loop_hdr[&l]);
        }
        // Subscript classification reads sibling statements of the
        // outermost common loop (index-array and forward-substitution
        // recognition), so its whole subtree content is part of the key.
        h = h.u64(self.loop_scope[&common[0]]);
        PairKey {
            var: ra.name.clone(),
            src_fp: self.stmt_fp[&ra.stmt],
            sink_fp: self.stmt_fp[&rb.stmt],
            src_slot: self.slot[&ra.id],
            sink_slot: self.slot[&rb.id],
            scope_fp: h.done(),
        }
    }
}

struct Builder<'a> {
    unit: &'a ProcUnit,
    symbols: &'a SymbolTable,
    refs: &'a RefTable,
    nest: &'a LoopNest,
    /// Caller-supplied CFG for control-dependence extraction; `None`
    /// builds one on demand.
    cfg: Option<&'a Cfg>,
    env: &'a SymbolicEnv,
    opts: &'a BuildOptions,
    keys: Option<CacheKeys>,
}

/// Sentinel id for dependences awaiting canonical numbering.
const UNNUMBERED: DepId = DepId(u32::MAX);

/// Below this many reference pairs an auto-threaded build stays serial:
/// pool setup and per-group buffer merging cost more than the tests.
pub const PAIR_CUTOFF: usize = 256;

/// Below this many reference pairs the canonicalization store is not
/// built and pairs are classified in place: precomputing forms for
/// every loop-chain prefix only amortizes once enough pairs share them.
/// Both paths produce byte-identical graphs, so this is purely a
/// self-tuning cutoff.
pub const CANON_CUTOFF: usize = 64;

impl<'a> Builder<'a> {
    fn run(&self, g: &mut DependenceGraph, mut cache: Option<&mut PairCache>) {
        // Map statement -> enclosing loop chain (outermost first).
        let mut stmt_loops: HashMap<StmtId, Vec<LoopId>> = HashMap::new();
        for l in &self.nest.loops {
            for &s in &l.body {
                stmt_loops.entry(s).or_default().push(l.id);
            }
        }
        for v in stmt_loops.values_mut() {
            v.sort_by_key(|l| self.nest.get(*l).level);
        }

        // Group references by variable name; sort groups by name so
        // DepId assignment is canonical (HashMap iteration order must
        // never leak into the graph).
        let mut by_name: HashMap<NameId, Vec<RefId>> = HashMap::new();
        for r in &self.refs.refs {
            if r.cause == RefCause::LoopControl {
                continue; // loop variables handled by the runtime
            }
            if !self.opts.scalar_deps && !r.is_array_elem() {
                let whole_array = self.symbols.is_array(&r.name);
                if !whole_array {
                    continue;
                }
            }
            by_name.entry(r.name_id).or_default().push(r.id);
        }
        let mut groups: Vec<(NameId, Vec<RefId>)> = by_name.into_iter().collect();
        // Sort by resolved name, not raw id, so DepId order matches the
        // historical string-keyed grouping byte for byte.
        groups.sort_by_key(|(id, _)| self.symbols.resolve(*id));

        let pairs: usize = groups
            .iter()
            .map(|(_, ids)| ids.len() * (ids.len() + 1) / 2)
            .sum();
        let threads = self.effective_threads(groups.len(), pairs);

        // Canonicalize every participating reference once, up front;
        // pair testing below only consumes precomputed forms. The store
        // is shared read-only across worker threads. Tiny units skip the
        // store ([`CANON_CUTOFF`]) — identical results either way.
        let canon = (self.opts.fast_paths && pairs >= CANON_CUTOFF).then(|| {
            CanonStore::build(
                self.unit,
                self.refs,
                self.nest,
                self.env,
                groups.iter().flat_map(|(_, ids)| ids.iter().copied()),
                &stmt_loops,
            )
        });
        let canon = canon.as_ref();

        // One cache shard per group: shards only stage fresh results
        // (lookups read the pre-build snapshot), so absorbing them in
        // group order gives the same cache and counts for any schedule.
        let read = cache.as_deref().map(|c| c.read());
        let tested = map_ordered(groups.len(), threads, |i| {
            let mut shard = CacheShard::default();
            let out = self.test_group(&groups[i].1, &stmt_loops, canon, read, &mut shard);
            (out, shard)
        });

        // Deterministic merge: group order is name order, in-group order
        // is pair order — identical to the serial traversal.
        let mut kinds = TestKindCounts::default();
        for (buf, shard) in tested {
            kinds.add(&shard.kinds);
            if let Some(c) = cache.as_deref_mut() {
                c.absorb(shard);
            }
            for mut d in buf {
                debug_assert_eq!(d.id, UNNUMBERED);
                d.id = DepId(g.deps.len() as u32);
                g.deps.push(d);
            }
        }
        g.test_kinds = kinds;

        if self.opts.control_deps {
            self.add_control_deps(g, &stmt_loops);
        }
    }

    /// Worker count: [`fanout::workers`] over the groups, except that an
    /// auto-sized build of few pairs stays serial (pool setup and buffer
    /// merging would dominate the tests).
    fn effective_threads(&self, groups: usize, pairs: usize) -> usize {
        match self.opts.threads {
            0 if pairs < PAIR_CUTOFF => 1,
            t => fanout::workers(t, groups),
        }
    }

    /// Test every pair of one variable's reference group, emitting into
    /// a fresh buffer with unnumbered ids.
    #[allow(clippy::too_many_arguments)]
    fn test_group(
        &self,
        ids: &[RefId],
        stmt_loops: &HashMap<StmtId, Vec<LoopId>>,
        canon: Option<&CanonStore>,
        cache: Option<&HashMap<PairKey, CachedTest>>,
        shard: &mut CacheShard,
    ) -> Vec<Dependence> {
        let mut out = Vec::new();
        let empty: Vec<LoopId> = Vec::new();
        for (ai, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(ai) {
                let ra = self.refs.get(a);
                let rb = self.refs.get(b);
                // A self-pair is meaningful for array writes: a store
                // like V(MW(J), L) may conflict with *itself* in
                // another iteration (carried output dependence)
                // unless the subscripts are proven distinct across
                // iterations. (A scalar's self output dependence is
                // subsumed by privatization and is not emitted.)
                if a == b && !(ra.is_def && ra.is_array_elem()) {
                    continue;
                }
                if !ra.is_def && !rb.is_def && !self.opts.input_deps {
                    continue;
                }
                let la = stmt_loops.get(&ra.stmt).unwrap_or(&empty);
                let lb = stmt_loops.get(&rb.stmt).unwrap_or(&empty);
                let ncommon = la.iter().zip(lb.iter()).take_while(|(x, y)| x == y).count();
                if ncommon == 0 {
                    continue;
                }
                let common: Vec<LoopId> = la[..ncommon].to_vec();
                self.test_and_emit(
                    &mut out,
                    a,
                    b,
                    &common,
                    &la[ncommon..],
                    &lb[ncommon..],
                    canon,
                    cache,
                    shard,
                );
            }
        }
        out
    }

    fn loop_ctx(&self, l: LoopId, rename: Option<&str>) -> LoopCtx {
        let info = self.nest.get(l);
        let lo = bound_lin(&info.lo, self.env);
        let hi = bound_lin(&info.hi, self.env);
        LoopCtx {
            var: match rename {
                Some(suffix) => format!("{}#{}", info.var, suffix),
                None => info.var.clone(),
            },
            lo,
            hi,
        }
    }

    /// Like [`loop_ctx`](Self::loop_ctx), but reusing the canonical
    /// store's pre-normalized bounds when available.
    fn loop_ctx_in(&self, canon: Option<&CanonStore>, l: LoopId, rename: Option<&str>) -> LoopCtx {
        match canon {
            Some(store) => {
                let base = store.loop_ctx(l);
                match rename {
                    Some(suffix) => LoopCtx {
                        var: format!("{}#{}", base.var, suffix),
                        lo: base.lo.clone(),
                        hi: base.hi.clone(),
                    },
                    None => base.clone(),
                }
            }
            None => self.loop_ctx(l, rename),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn test_and_emit(
        &self,
        out: &mut Vec<Dependence>,
        a: RefId,
        b: RefId,
        common: &[LoopId],
        extra_a: &[LoopId],
        extra_b: &[LoopId],
        canon: Option<&CanonStore>,
        cache: Option<&HashMap<PairKey, CachedTest>>,
        shard: &mut CacheShard,
    ) {
        let ra = self.refs.get(a);
        let rb = self.refs.get(b);
        let n = common.len();
        // Memo lookup: endpoints + enclosing loops content-identical to
        // an already-tested pair ⇒ reuse its test result outright.
        let key = self
            .keys
            .as_ref()
            .map(|k| k.pair_key(ra, rb, common, extra_a, extra_b));
        if let (Some(key), Some(read)) = (&key, cache) {
            if let Some(cached) = read.get(key) {
                shard.hits += 1;
                if let Some(info) = cached {
                    let vector = DirVector(info.vector.0[..n].to_vec());
                    let distances: Vec<Option<i64>> = info.distances[..n].to_vec();
                    self.emit_oriented(out, a, b, common, vector, distances, info.exact, info.test);
                }
                return;
            }
            shard.misses += 1;
        }
        // Loop contexts: common + renamed extras (bounds come from the
        // canonical store when available instead of being re-normalized
        // per pair).
        let mut loops: Vec<LoopCtx> = common
            .iter()
            .map(|&l| self.loop_ctx_in(canon, l, None))
            .collect();
        let mut ren_a: HashMap<String, String> = HashMap::new();
        let mut ren_b: HashMap<String, String> = HashMap::new();
        for &l in extra_a {
            let ctx = self.loop_ctx_in(canon, l, Some("s"));
            ren_a.insert(self.nest.get(l).var.clone(), ctx.var.clone());
            loops.push(ctx);
        }
        for &l in extra_b {
            let ctx = self.loop_ctx_in(canon, l, Some("t"));
            ren_b.insert(self.nest.get(l).var.clone(), ctx.var.clone());
            loops.push(ctx);
        }
        let result = if ra.subs.is_empty() || rb.subs.is_empty() {
            // Scalars or whole-array refs: assumed dependent.
            shard.kinds.assumed += 1;
            TestResult::Dependent(crate::subscript::assumed_dep(loops.len()))
        } else if let Some(store) = canon {
            // Fast path: both references were canonicalized up front
            // under this common prefix; only the extra-loop rename (a
            // per-pair property) remains.
            let innermost = common[n - 1];
            let fa = store
                .get(a, innermost)
                .expect("canonical form missing for src ref");
            let fb = store
                .get(b, innermost)
                .expect("canonical form missing for sink ref");
            let subs_a = renamed_subs(fa, &ren_a);
            let subs_b = renamed_subs(fb, &ren_b);
            crate::subscript::test_classified_counted(
                &subs_a,
                &subs_b,
                &loops,
                self.env,
                &mut shard.kinds,
            )
        } else {
            // General path (`fast_paths: false`): classify per pair, as
            // the engine did before canonicalization. Kept as the
            // differential oracle and benchmark baseline.
            let outer = self.nest.get(common[0]);
            let loop_vars: Vec<String> = loops.iter().map(|c| c.var.clone()).collect();
            let nctx = NestCtx::build(loop_vars, &outer.body, self.unit, self.refs, self.env);
            let classify = |subs: &[Expr], ren: &HashMap<String, String>| -> Vec<SubPos> {
                subs.iter()
                    .map(|e| match nctx.classify(e) {
                        SubPos::Affine(l) => SubPos::Affine(rename_lin(&l, ren)),
                        SubPos::IndexArr { arr, arg, add } => SubPos::IndexArr {
                            arr,
                            arg: rename_lin(&arg, ren),
                            add: rename_lin(&add, ren),
                        },
                        SubPos::Opaque => SubPos::Opaque,
                    })
                    .collect()
            };
            let subs_a = classify(&ra.subs, &ren_a);
            let subs_b = classify(&rb.subs, &ren_b);
            crate::subscript::test_classified_counted(
                &subs_a,
                &subs_b,
                &loops,
                self.env,
                &mut shard.kinds,
            )
        };
        if let Some(key) = key {
            let memo: CachedTest = match &result {
                TestResult::Independent => None,
                TestResult::Dependent(info) => Some(info.clone()),
            };
            shard.fresh.push((key, memo));
        }
        let TestResult::Dependent(info) = result else {
            return;
        };
        // Truncate to the common prefix.
        let vector = DirVector(info.vector.0[..n].to_vec());
        let distances: Vec<Option<i64>> = info.distances[..n].to_vec();
        self.emit_oriented(out, a, b, common, vector, distances, info.exact, info.test);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_oriented(
        &self,
        out: &mut Vec<Dependence>,
        a: RefId,
        b: RefId,
        common: &[LoopId],
        vector: DirVector,
        distances: Vec<Option<i64>>,
        exact: bool,
        test: &'static str,
    ) {
        let n = common.len();
        let self_pair = a == b;
        // Carried levels, forward orientation (a → b).
        for k in 0..n {
            if !vector.0[..k].iter().all(|d| d.contains(Dir::Eq)) {
                break;
            }
            if vector.0[k].contains(Dir::Lt) {
                let mut v = vec![DirSet::only(Dir::Eq); k];
                v.push(DirSet::only(Dir::Lt));
                v.extend_from_slice(&vector.0[k + 1..]);
                self.push_dep(
                    out,
                    a,
                    b,
                    common,
                    Some(k as u32 + 1),
                    DirVector(v),
                    distances.clone(),
                    exact,
                    test,
                );
            }
        }
        // Carried levels, reversed orientation (b → a). A self-pair is
        // symmetric: the forward emission already covers it.
        for k in 0..(if self_pair { 0 } else { n }) {
            if !vector.0[..k].iter().all(|d| d.contains(Dir::Eq)) {
                break;
            }
            if vector.0[k].contains(Dir::Gt) {
                let mut v = vec![DirSet::only(Dir::Eq); k];
                v.push(DirSet::only(Dir::Lt));
                v.extend(vector.0[k + 1..].iter().map(|d| d.reversed()));
                let rdist: Vec<Option<i64>> = distances.iter().map(|d| d.map(|x| -x)).collect();
                self.push_dep(
                    out,
                    b,
                    a,
                    common,
                    Some(k as u32 + 1),
                    DirVector(v),
                    rdist,
                    exact,
                    test,
                );
            }
        }
        // Loop-independent: all '=' feasible and textual order decides.
        // (A reference trivially depends on itself in the same iteration:
        // self-pairs emit nothing here.)
        if !self_pair && vector.0.iter().all(|d| d.contains(Dir::Eq)) {
            let v = DirVector(vec![DirSet::only(Dir::Eq); n]);
            let zdist = vec![Some(0); n];
            // Textual order: RefIds are allocated in source order.
            let (src, sink) = if a < b { (a, b) } else { (b, a) };
            self.push_dep(out, src, sink, common, None, v, zdist, exact, test);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_dep(
        &self,
        out: &mut Vec<Dependence>,
        src: RefId,
        sink: RefId,
        common: &[LoopId],
        level: Option<u32>,
        vector: DirVector,
        distances: Vec<Option<i64>>,
        exact: bool,
        test: &'static str,
    ) {
        let rs = self.refs.get(src);
        let rk = self.refs.get(sink);
        let kind = match (rs.is_def, rk.is_def) {
            (true, false) => DepKind::True,
            (false, true) => DepKind::Anti,
            (true, true) => DepKind::Output,
            (false, false) => DepKind::Input,
        };
        if kind == DepKind::Input && !self.opts.input_deps {
            return;
        }
        out.push(Dependence {
            id: UNNUMBERED,
            kind,
            src: Some(src),
            sink: Some(sink),
            src_stmt: rs.stmt,
            sink_stmt: rk.stmt,
            var: rs.name.clone(),
            common: common.to_vec(),
            level,
            vector,
            distances,
            exact,
            test,
        });
    }

    fn add_control_deps(&self, g: &mut DependenceGraph, stmt_loops: &HashMap<StmtId, Vec<LoopId>>) {
        let built;
        let cfg = match self.cfg {
            Some(c) => c,
            None => {
                built = Cfg::build(self.unit);
                &built
            }
        };
        let cd = ControlDeps::build(cfg);
        // Loop-header StmtIds (loop control itself is not an inhibitor).
        let headers: HashSet<StmtId> = self.nest.loops.iter().map(|l| l.stmt).collect();
        for (ctrl, dep) in cd.stmt_pairs(cfg) {
            if headers.contains(&ctrl) {
                continue;
            }
            let empty = Vec::new();
            let la = stmt_loops.get(&ctrl).unwrap_or(&empty);
            let lb = stmt_loops.get(&dep).unwrap_or(&empty);
            let ncommon = la.iter().zip(lb.iter()).take_while(|(x, y)| x == y).count();
            if ncommon == 0 {
                continue;
            }
            let id = DepId(g.deps.len() as u32);
            g.deps.push(Dependence {
                id,
                kind: DepKind::Control,
                src: None,
                sink: None,
                src_stmt: ctrl,
                sink_stmt: dep,
                var: String::new(),
                common: la[..ncommon].to_vec(),
                level: None,
                vector: DirVector(vec![DirSet::only(Dir::Eq); ncommon]),
                distances: vec![Some(0); ncommon],
                exact: true,
                test: "control",
            });
        }
    }
}

/// Affine form of a loop bound; non-affine bounds become canonical opaque
/// symbols `$<printed-expr>` so user assertions can refer to them (the
/// pueblo3d `ISTRT(IR)` / `IENDV(IR)` bounds).
pub fn bound_lin(e: &Expr, env: &SymbolicEnv) -> LinExpr {
    match env.normalize(e) {
        Some(l) => l,
        None => LinExpr::var(opaque_symbol(e)),
    }
}

/// Canonical opaque symbol for a non-affine expression.
pub fn opaque_symbol(e: &Expr) -> String {
    format!("${}", print_expr(e).replace(' ', ""))
}

fn rename_lin(l: &LinExpr, ren: &HashMap<String, String>) -> LinExpr {
    if ren.is_empty() {
        return l.clone();
    }
    let mut out = LinExpr::constant(l.konst);
    for (n, c) in &l.terms {
        let name = ren.get(n).cloned().unwrap_or_else(|| n.clone());
        out.add_term(&name, *c);
    }
    out
}

/// Apply an extra-loop rename to stored canonical forms. Affine forms
/// never mention extra-loop variables (they are variant in the nest),
/// but index-array arguments can, so those are rebuilt; with no rename
/// the stored forms are cloned as-is.
fn renamed_subs(forms: &[SubPos], ren: &HashMap<String, String>) -> Vec<SubPos> {
    if ren.is_empty() {
        return forms.to_vec();
    }
    forms
        .iter()
        .map(|p| match p {
            SubPos::Affine(l) => SubPos::Affine(rename_lin(l, ren)),
            SubPos::IndexArr { arr, arg, add } => SubPos::IndexArr {
                arr: arr.clone(),
                arg: rename_lin(arg, ren),
                add: rename_lin(add, ren),
            },
            SubPos::Opaque => SubPos::Opaque,
        })
        .collect()
}

// Silence the unused import lint when DepInfo only appears in the cache
// signatures above.
#[allow(unused)]
fn _dep_info_is_cached(_: &DepInfo) {}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_analysis::loops::LoopNest;
    use ped_fortran::parser::parse_ok;

    fn build(src: &str) -> (ped_fortran::Program, LoopNest, RefTable, DependenceGraph) {
        build_opts(src, BuildOptions::default(), SymbolicEnv::new())
    }

    fn build_opts(
        src: &str,
        opts: BuildOptions,
        env: SymbolicEnv,
    ) -> (ped_fortran::Program, LoopNest, RefTable, DependenceGraph) {
        let p = parse_ok(src);
        let u = &p.units[0];
        let sym = SymbolTable::build(u);
        let refs = RefTable::build(u, &sym);
        let nest = LoopNest::build(u);
        let g = DependenceGraph::build(u, &sym, &refs, &nest, &env, &opts);
        (p, nest, refs, g)
    }

    fn data_deps(g: &DependenceGraph) -> Vec<&Dependence> {
        g.deps
            .iter()
            .filter(|d| d.kind != DepKind::Control)
            .collect()
    }

    #[test]
    fn parallel_loop_has_no_carried_deps() {
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, N\n      A(I) = B(I) + 1.0\n   10 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        assert_eq!(g.parallelism_inhibitors(nest.roots[0]).count(), 0);
    }

    #[test]
    fn recurrence_has_true_dep_distance_one() {
        let src = "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1) + 1.0\n   10 CONTINUE\n      END\n";
        let (_, nest, refs, g) = build(src);
        let inh: Vec<_> = g.parallelism_inhibitors(nest.roots[0]).collect();
        assert_eq!(inh.len(), 1);
        let d = inh[0];
        assert_eq!(d.kind, DepKind::True);
        assert_eq!(d.level, Some(1));
        assert_eq!(d.distances[0], Some(1));
        assert!(d.exact);
        // Source is the def A(I), sink the use A(I-1).
        assert!(refs.get(d.src.unwrap()).is_def);
        assert!(!refs.get(d.sink.unwrap()).is_def);
    }

    #[test]
    fn anti_dependence_oriented_correctly() {
        // A(I) = A(I+1): read of A(I+1) at iter i, overwritten at iter
        // i+1 — anti dependence carried at level 1, source = use.
        let src = "      REAL A(100)\n      DO 10 I = 1, N\n      A(I) = A(I+1)\n   10 CONTINUE\n      END\n";
        let (_, nest, refs, g) = build(src);
        let inh: Vec<_> = g.parallelism_inhibitors(nest.roots[0]).collect();
        assert_eq!(inh.len(), 1);
        assert_eq!(inh[0].kind, DepKind::Anti);
        assert!(!refs.get(inh[0].src.unwrap()).is_def);
        assert!(refs.get(inh[0].sink.unwrap()).is_def);
    }

    #[test]
    fn loop_independent_dep_within_iteration() {
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, N\n      A(I) = B(I)\n      C = A(I) * 2.0\n   10 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        // No carried deps on A; one loop-independent True dep.
        assert_eq!(g.parallelism_inhibitors(nest.roots[0]).count(), 0);
        let li: Vec<_> = data_deps(&g)
            .into_iter()
            .filter(|d| d.var == "A" && d.level.is_none())
            .collect();
        assert_eq!(li.len(), 1);
        assert_eq!(li[0].kind, DepKind::True);
    }

    #[test]
    fn scalar_deps_assumed_pending() {
        let src =
            "      DO 10 I = 1, N\n      T = A(I)\n      B(I) = T\n   10 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        // T generates carried scalar deps (pending) until privatized.
        let t_deps: Vec<_> = g
            .parallelism_inhibitors(nest.roots[0])
            .filter(|d| d.var == "T")
            .collect();
        assert!(!t_deps.is_empty());
        assert!(t_deps.iter().all(|d| !d.exact));
    }

    #[test]
    fn nested_loop_levels() {
        // A(I, J) = A(I, J-1): carried by the inner (level-2) loop only.
        let src = "      REAL A(100,100)\n      DO 10 I = 1, N\n      DO 20 J = 2, M\n      A(I,J) = A(I,J-1)\n   20 CONTINUE\n   10 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        let outer = nest.roots[0];
        let inner = nest.get(outer).children[0];
        assert_eq!(g.parallelism_inhibitors(outer).count(), 0);
        let inner_deps: Vec<_> = g.parallelism_inhibitors(inner).collect();
        assert_eq!(inner_deps.len(), 1);
        assert_eq!(inner_deps[0].level, Some(2));
    }

    #[test]
    fn outer_carried_dependence() {
        // A(I, J) = A(I-1, J): carried by the outer loop.
        let src = "      REAL A(100,100)\n      DO 10 I = 2, N\n      DO 20 J = 1, M\n      A(I,J) = A(I-1,J)\n   20 CONTINUE\n   10 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        let outer = nest.roots[0];
        let inner = nest.get(outer).children[0];
        assert_eq!(g.parallelism_inhibitors(outer).count(), 1);
        assert_eq!(g.parallelism_inhibitors(inner).count(), 0);
    }

    #[test]
    fn sibling_loops_tested_with_renamed_vars() {
        // Write T(J) for J=1..M in one loop, read T(J) for J=1..M in a
        // sibling loop, under a common outer loop: dependences exist
        // (loop-independent at the outer level + carried), but the inner
        // J loops are NOT common, so the test must not conflate them.
        let src = "      REAL T(100), A(100,100), B(100,100)\n      DO 10 I = 1, N\n      DO 20 J = 1, M\n      T(J) = A(I,J)\n   20 CONTINUE\n      DO 30 J = 1, M\n      B(I,J) = T(J)\n   30 CONTINUE\n   10 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        let outer = nest.roots[0];
        // There are T-dependences at the outer level (e.g. write in
        // iteration i, read in iteration i' > i is a true dep; also the
        // loop-independent one within an iteration).
        let t_deps: Vec<_> = g
            .for_loop(outer)
            .filter(|d| d.var == "T" && d.kind != DepKind::Control)
            .collect();
        assert!(!t_deps.is_empty());
        let li = t_deps.iter().filter(|d| d.level.is_none()).count();
        assert!(li >= 1, "expected a loop-independent T dep");
    }

    #[test]
    fn control_deps_recorded_for_if_in_loop() {
        let src = "      REAL A(100), B(100)\n      DO 10 I = 1, N\n      IF (A(I) .GT. 0) THEN\n      B(I) = 1.0\n      END IF\n   10 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        let cds: Vec<_> = g
            .for_loop(nest.roots[0])
            .filter(|d| d.kind == DepKind::Control)
            .collect();
        assert_eq!(cds.len(), 1);
    }

    #[test]
    fn index_array_deps_pending_without_assertions() {
        let src = "      INTEGER IT(100)\n      REAL F(300)\n      DO 300 N1 = 1, NBA\n      I3 = IT(N1)\n      F(I3 + 1) = F(I3 + 1) - DT1\n      F(I3 + 2) = F(I3 + 2) - DT2\n  300 CONTINUE\n      END\n";
        let (_, nest, _, g) = build(src);
        let f_deps: Vec<_> = g
            .parallelism_inhibitors(nest.roots[0])
            .filter(|d| d.var == "F")
            .collect();
        assert!(!f_deps.is_empty());
        assert!(
            f_deps.iter().all(|d| !d.exact),
            "index-array deps must be pending"
        );
    }

    #[test]
    fn index_array_deps_removed_with_stride_assertion() {
        let src = "      INTEGER IT(100)\n      REAL F(300)\n      DO 300 N1 = 1, NBA\n      I3 = IT(N1)\n      F(I3 + 1) = F(I3 + 1) - DT1\n      F(I3 + 2) = F(I3 + 2) - DT2\n  300 CONTINUE\n      END\n";
        let mut env = SymbolicEnv::new();
        env.add_index_fact(
            "IT",
            ped_analysis::symbolic::IndexArrayFact {
                min_stride: Some(3),
                ..Default::default()
            },
        );
        let (_, nest, _, g) = build_opts(src, BuildOptions::default(), env);
        let f_carried: Vec<_> = g
            .parallelism_inhibitors(nest.roots[0])
            .filter(|d| d.var == "F")
            .collect();
        assert!(
            f_carried.is_empty(),
            "stride assertion should remove carried F deps, got {f_carried:?}"
        );
    }

    #[test]
    fn input_deps_off_by_default() {
        let src = "      REAL A(100), B(100), C(100)\n      DO 10 I = 1, N\n      B(I) = A(I)\n      C(I) = A(I)\n   10 CONTINUE\n      END\n";
        let (_, _, _, g) = build(src);
        assert!(data_deps(&g).iter().all(|d| d.kind != DepKind::Input));
        let opts = BuildOptions {
            input_deps: true,
            ..Default::default()
        };
        let (_, _, _, g2) = build_opts(src, opts, SymbolicEnv::new());
        assert!(g2.deps.iter().any(|d| d.kind == DepKind::Input));
    }

    #[test]
    fn pueblo3d_assertion_enables_parallelization() {
        // The §3.3 fragment with non-affine loop bounds.
        let src = "      REAL UF(10000, 3)\n      INTEGER ISTRT(10), IENDV(10)\n      DO 300 I = ISTRT(IR), IENDV(IR)\n      X = UF(I + MCN, 3)\n      UF(I, M) = X + 1.0\n  300 CONTINUE\n      END\n";
        // Without the assertion: carried deps on UF assumed.
        let (_, nest, _, g) = build(src);
        assert!(g
            .parallelism_inhibitors(nest.roots[0])
            .any(|d| d.var == "UF"));
        // With MCN > $IENDV(IR) - $ISTRT(IR):
        let mut env = SymbolicEnv::new();
        let istrt = opaque_symbol(&ped_fortran::parser::parse_expr_str("ISTRT(IR)", &[]).unwrap());
        let iendv = opaque_symbol(&ped_fortran::parser::parse_expr_str("IENDV(IR)", &[]).unwrap());
        let fact = LinExpr::var("MCN")
            .sub(&LinExpr::var(iendv))
            .add(&LinExpr::var(istrt))
            .sub(&LinExpr::constant(1));
        env.add_fact_nonneg(fact);
        let (_, nest2, _, g2) = build_opts(src, BuildOptions::default(), env);
        let uf: Vec<_> = g2
            .parallelism_inhibitors(nest2.roots[0])
            .filter(|d| d.var == "UF")
            .collect();
        // The second dimension (3 vs M) still blocks unless M is known;
        // the first dimension is resolved. Check that the carried deps
        // from dim-1 distances are gone: remaining UF deps (if any) must
        // not come from the strong-siv test.
        assert!(uf.iter().all(|d| d.test != "strong-siv-symbolic"));
    }

    // -- performance-architecture tests ----------------------------------

    const MULTI: &str = "      REAL A(100,100), B(100), T(100)\n      INTEGER IX(100)\n      DO 10 I = 2, N\n      DO 20 J = 2, M\n      A(I,J) = A(I-1,J) + A(I,J-1)\n   20 CONTINUE\n      B(I) = B(I-1) * 0.5\n      T(I) = A(I,1)\n      A(IX(I),1) = T(I)\n   10 CONTINUE\n      DO 30 I = 1, N\n      B(I) = B(I) + 1.0\n   30 CONTINUE\n      END\n";

    #[test]
    fn serial_and_parallel_builds_identical() {
        let p = parse_ok(MULTI);
        let u = &p.units[0];
        let sym = SymbolTable::build(u);
        let refs = RefTable::build(u, &sym);
        let nest = LoopNest::build(u);
        let env = SymbolicEnv::new();
        let serial = DependenceGraph::build(
            u,
            &sym,
            &refs,
            &nest,
            &env,
            &BuildOptions {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2, 3, 8] {
            let par = DependenceGraph::build(
                u,
                &sym,
                &refs,
                &nest,
                &env,
                &BuildOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(serial.deps, par.deps, "threads={threads} diverged");
        }
    }

    #[test]
    fn graph_ordering_is_canonical_across_builds() {
        let (_, _, _, g1) = build(MULTI);
        let (_, _, _, g2) = build(MULTI);
        assert_eq!(g1.deps, g2.deps);
        // Data deps arrive in variable-name order.
        let names: Vec<&str> = g1
            .deps
            .iter()
            .filter(|d| d.kind != DepKind::Control)
            .map(|d| d.var.as_str())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "groups must be emitted in name order");
    }

    #[test]
    fn loop_index_matches_linear_scan() {
        let (_, nest, _, g) = build(MULTI);
        for l in &nest.loops {
            let indexed: Vec<DepId> = g.for_loop(l.id).map(|d| d.id).collect();
            let scanned: Vec<DepId> = g
                .deps
                .iter()
                .filter(|d| d.relevant_to(l.id))
                .map(|d| d.id)
                .collect();
            assert_eq!(indexed, scanned, "for_loop index wrong for {}", l.id);
            let indexed: Vec<DepId> = g.parallelism_inhibitors(l.id).map(|d| d.id).collect();
            let scanned: Vec<DepId> = g
                .deps
                .iter()
                .filter(|d| {
                    d.carrier() == Some(l.id)
                        && !matches!(d.kind, DepKind::Input | DepKind::Control)
                })
                .map(|d| d.id)
                .collect();
            assert_eq!(indexed, scanned, "inhibitor index wrong for {}", l.id);
        }
    }

    #[test]
    fn pair_cache_hits_on_identical_rebuild() {
        let p = parse_ok(MULTI);
        let u = &p.units[0];
        let sym = SymbolTable::build(u);
        let refs = RefTable::build(u, &sym);
        let nest = LoopNest::build(u);
        let env = SymbolicEnv::new();
        let opts = BuildOptions::default();
        let mut cache = PairCache::new();
        let g1 = DependenceGraph::build_with(u, &sym, &refs, &nest, &env, &opts, Some(&mut cache));
        assert_eq!(cache.hits, 0);
        let cold_misses = cache.misses;
        assert!(cold_misses > 0);
        let g2 = DependenceGraph::build_with(u, &sym, &refs, &nest, &env, &opts, Some(&mut cache));
        assert_eq!(g1.deps, g2.deps, "cached rebuild must be identical");
        assert_eq!(cache.misses, cold_misses, "warm rebuild must not re-test");
        assert_eq!(cache.hits, cold_misses, "every pair must hit");
    }

    #[test]
    fn pair_cache_invalidated_by_env_change() {
        let p = parse_ok(MULTI);
        let u = &p.units[0];
        let sym = SymbolTable::build(u);
        let refs = RefTable::build(u, &sym);
        let nest = LoopNest::build(u);
        let opts = BuildOptions::default();
        let mut cache = PairCache::new();
        let env = SymbolicEnv::new();
        DependenceGraph::build_with(u, &sym, &refs, &nest, &env, &opts, Some(&mut cache));
        let cold = cache.misses;
        // New fact ⇒ environment fingerprint changes ⇒ full re-test.
        let mut env2 = SymbolicEnv::new();
        env2.add_index_fact(
            "IX",
            ped_analysis::symbolic::IndexArrayFact {
                permutation: true,
                ..Default::default()
            },
        );
        DependenceGraph::build_with(u, &sym, &refs, &nest, &env2, &opts, Some(&mut cache));
        assert_eq!(cache.hits, 0, "env change must not produce stale hits");
        assert!(cache.misses >= 2 * cold - 1);
    }

    #[test]
    fn pair_cache_localized_edit_retests_only_touched_nest() {
        // Two disjoint top-level loops; edit the second, the first's
        // pairs must all hit.
        let src = "      REAL A(100), B(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      DO 20 I = 2, N\n      B(I) = B(I-1)\n   20 CONTINUE\n      END\n";
        let edited = src.replace("B(I) = B(I-1)", "B(I) = B(I-2)");
        let p1 = parse_ok(src);
        let p2 = parse_ok(&edited);
        let mut cache = PairCache::new();
        let opts = BuildOptions::default();
        let env = SymbolicEnv::new();
        for (i, p) in [&p1, &p2].into_iter().enumerate() {
            let u = &p.units[0];
            let sym = SymbolTable::build(u);
            let refs = RefTable::build(u, &sym);
            let nest = LoopNest::build(u);
            let g =
                DependenceGraph::build_with(u, &sym, &refs, &nest, &env, &opts, Some(&mut cache));
            if i == 1 {
                // The A recurrence is untouched: its pair must hit.
                assert!(cache.hits >= 1, "A-loop pair should be cache-hot");
                // The edited B pair re-tests and still carries a dep.
                assert!(g
                    .deps
                    .iter()
                    .any(|d| d.var == "B" && d.distances[0] == Some(2)));
            }
        }
    }
}
