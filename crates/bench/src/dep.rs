//! Dependence-engine suites over the workshop programs plus synth60.
//!
//! * **BENCH_1** — the interactive hot paths: `open` (parse excluded),
//!   `reanalyze-hot` (the whole-analysis fingerprint hits),
//!   `reanalyze-warmpairs` (forced rebuild, pair memo hot),
//!   `reanalyze-coldcache` (forced rebuild, empty pair cache), and raw
//!   graph construction at one worker vs auto workers.
//! * **BENCH_4** — the dependence-test suite by tester kind: cold builds
//!   with the per-reference canonicalization engine on vs forced per-pair
//!   classification (the `--no-fast-path` oracle mode), a warm build
//!   against the pair memo, per-kind hit counts, and a paired
//!   serial-vs-parallel floor (gated: ratio >= 0.98).
//! * **BENCH_5** — the scalar-facts store: cold `open` with serial vs
//!   auto prewarm (gated: paired ratio >= 0.98), forced rebuilds with the
//!   facts memo warm vs dropped, the single-unit-edit hit-rate check, and
//!   a String-vs-`NameId` map-lookup micro-benchmark.
//! * [`smoke`] — fast path byte-identical to the general tester on every
//!   unit, and the scalar-store zero-rebuild gate.

use crate::harness::{bench_with, num, obj, paired_ratio, write_report, Stats};
use crate::{cases, first_assignment, SYNTH};
use ped::session::PedSession;
use ped_analysis::fanout::probe_cores;
use ped_analysis::loops::LoopNest;
use ped_analysis::refs::RefTable;
use ped_analysis::symbolic::SymbolicEnv;
use ped_dependence::cache::PairCache;
use ped_dependence::graph::{BuildOptions, DependenceGraph};
use ped_dependence::TestKindCounts;
use ped_fortran::symbols::SymbolTable;
use ped_fortran::{NameId, Program};
use ped_server::json::Value;
use std::collections::HashMap;
use std::hint::black_box;

fn build_opts(fast_paths: bool, threads: usize) -> BuildOptions {
    BuildOptions {
        fast_paths,
        threads,
        ..Default::default()
    }
}

/// Build every unit's dependence graph from scratch; with `caches` (one
/// per unit) each build runs against that unit's pair memo. Returns the
/// total edge count and the per-kind tester tallies.
fn build_units(
    prog: &Program,
    fast_paths: bool,
    threads: usize,
    mut caches: Option<&mut [PairCache]>,
) -> (usize, TestKindCounts) {
    let opts = build_opts(fast_paths, threads);
    let mut edges = 0;
    let mut kinds = TestKindCounts::default();
    for (i, unit) in prog.units.iter().enumerate() {
        let sym = SymbolTable::build(unit);
        let refs = RefTable::build(unit, &sym);
        let nest = LoopNest::build(unit);
        let cache = caches.as_deref_mut().map(|c| &mut c[i]);
        let g = DependenceGraph::build_with(
            unit,
            &sym,
            &refs,
            &nest,
            &SymbolicEnv::new(),
            &opts,
            cache,
        );
        edges += g.len();
        kinds.add(&g.test_kinds);
    }
    (edges, kinds)
}

fn phases_value(phases: &[Stats]) -> Value {
    Value::Arr(phases.iter().map(Stats::to_value).collect())
}

/// BENCH_1: the interactive hot paths.
pub fn bench1(out: &str) {
    let cores = probe_cores();
    println!("ped-bench 1: {cores} core(s) available\n");
    let mut phases: Vec<Stats> = Vec::new();
    for (name, prog) in cases() {
        // synth60 is a single large unit: only the rebuild and build
        // phases say anything about it.
        let synth = name == SYNTH;
        let (budget, iters) = if synth { (400, 64) } else { (150, 256) };
        let mut time = |phase: &str, budget, iters, f: &mut dyn FnMut()| {
            phases.push(bench_with(&format!("{phase}:{name}"), budget, iters, f));
        };
        if !synth {
            time("open", 150, 64, &mut || {
                black_box(PedSession::open(prog.clone()));
            });
        }
        let mut session = PedSession::open(prog.clone());
        if !synth {
            time("reanalyze-hot", 150, 512, &mut || session.reanalyze());
        }
        time("reanalyze-warmpairs", budget, iters, &mut || {
            session.cache.invalidate();
            session.reanalyze();
        });
        time("reanalyze-coldcache", budget, iters, &mut || {
            session.cache.invalidate();
            session.cache.reset_pairs();
            session.reanalyze();
        });
        time("build-serial", budget, iters, &mut || {
            black_box(build_units(&prog, true, 1, None));
        });
        time("build-parallel", budget, iters, &mut || {
            black_box(build_units(&prog, true, 0, None));
        });
        println!();
    }

    let mean = |phase: &str, case: &str| {
        let label = format!("{phase}:{case}");
        phases
            .iter()
            .find(|s| s.label == label)
            .expect(&label)
            .mean_us
    };
    let ratio = |num: &str, den: &str, case: &str| mean(num, case) / mean(den, case).max(1e-9);
    let workshop = ped_workloads::all_programs();
    let big = workshop
        .iter()
        .max_by_key(|p| p.source.len())
        .expect("no workloads")
        .name;
    let reanalyze_speedup = ratio("reanalyze-coldcache", "reanalyze-hot", big);
    let pair_cache_speedup = ratio("reanalyze-coldcache", "reanalyze-warmpairs", big);
    let synth_pair_speedup = ratio("reanalyze-coldcache", "reanalyze-warmpairs", SYNTH);
    let synth_parallel_speedup = ratio("build-serial", "build-parallel", SYNTH);
    // Parallel-build win over *all* workshop programs (single units are
    // small; the aggregate is the realistic figure).
    let total = |phase: &str| workshop.iter().map(|p| mean(phase, p.name)).sum::<f64>();
    let parallel_speedup = total("build-serial") / total("build-parallel").max(1e-9);

    println!("largest workload             : {big}");
    println!("reanalyze cached vs cold     : {reanalyze_speedup:.1}x");
    println!("rebuild warm vs cold pairs   : {pair_cache_speedup:.2}x");
    println!("  ... on the synthetic unit  : {synth_pair_speedup:.2}x");
    println!("parallel vs serial build     : {parallel_speedup:.2}x ({cores} core(s))");
    println!("  ... on the synthetic unit  : {synth_parallel_speedup:.2}x");

    let summary = obj([
        (
            "reanalyze_speedup_cached_vs_cold",
            num(reanalyze_speedup, 2),
        ),
        (
            "rebuild_speedup_warm_vs_cold_pairs",
            num(pair_cache_speedup, 2),
        ),
        (
            "rebuild_speedup_warm_vs_cold_pairs_synth",
            num(synth_pair_speedup, 2),
        ),
        ("parallel_build_speedup", num(parallel_speedup, 2)),
        (
            "parallel_build_speedup_synth",
            num(synth_parallel_speedup, 2),
        ),
    ]);
    let report = obj([
        ("generated_by", Value::str("ped-bench 1")),
        ("available_parallelism", Value::int(cores as i64)),
        ("largest_workload", Value::str(big)),
        ("summary", summary),
        ("phases", phases_value(&phases)),
    ]);
    write_report(out, &report);
}

/// BENCH_4: tester-kind breakdown and the serial-vs-parallel floor
/// (`threads: 0` must never lose to `threads: 1` beyond measurement
/// noise, compared on the median of paired per-run ratios).
pub fn bench4(out: &str) {
    let cores = probe_cores();
    println!("ped-bench 4: test-kind breakdown, {cores} core(s)\n");
    struct Row {
        name: String,
        fast_cold: f64,
        general_cold: f64,
        fast_warm: f64,
        par_ratio: f64,
        kinds: TestKindCounts,
    }
    let mut phases: Vec<Stats> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for (name, prog) in cases() {
        let synth = name == SYNTH;
        let (budget, iters) = if synth { (400, 64) } else { (150, 256) };
        let mut time = |phase: &str, f: &mut dyn FnMut()| {
            let s = bench_with(&format!("{phase}:{name}"), budget, iters, f);
            let mean = s.mean_us;
            phases.push(s);
            mean
        };
        let fast_cold = time("build-fast-cold", &mut || {
            black_box(build_units(&prog, true, 1, None));
        });
        let general_cold = time("build-general-cold", &mut || {
            black_box(build_units(&prog, false, 1, None));
        });
        let mut caches: Vec<PairCache> = prog.units.iter().map(|_| PairCache::new()).collect();
        build_units(&prog, true, 1, Some(&mut caches)); // cold fill
        let fast_warm = time("build-fast-warm", &mut || {
            black_box(build_units(&prog, true, 1, Some(&mut caches)));
        });
        time("build-serial", &mut || {
            black_box(build_units(&prog, true, 1, None));
        });
        time("build-parallel", &mut || {
            black_box(build_units(&prog, true, 0, None));
        });
        let par_ratio = paired_ratio(
            if synth { 32 } else { 96 },
            || {
                black_box(build_units(&prog, true, 1, None));
            },
            || {
                black_box(build_units(&prog, true, 0, None));
            },
        );
        rows.push(Row {
            kinds: build_units(&prog, true, 1, None).1,
            name,
            fast_cold,
            general_cold,
            fast_warm,
            par_ratio,
        });
        println!();
    }

    let fast_speedup = |r: &Row| r.general_cold / r.fast_cold.max(1e-9);
    println!(
        "{:<10} {:>10} {:>10} {:>14}",
        "workload", "fast-path", "warm", "par/serial(med)"
    );
    for r in &rows {
        println!(
            "{:<10} {:>9.2}x {:>9.2}x {:>13.2}x",
            r.name,
            fast_speedup(r),
            r.general_cold / r.fast_warm.max(1e-9),
            r.par_ratio
        );
    }
    for r in &rows {
        // The adaptive builder must never spawn its way slower.
        assert!(
            r.par_ratio >= 0.98,
            "{}: adaptive parallel build regressed vs serial ({:.3}x on paired medians)",
            r.name,
            r.par_ratio
        );
    }
    let min_parallel_ratio = rows
        .iter()
        .map(|r| r.par_ratio)
        .fold(f64::INFINITY, f64::min);
    let speedup_of = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, fast_speedup)
    };
    let synth_speedup = speedup_of(SYNTH);
    let dpmin_speedup = speedup_of("dpmin");
    println!(
        "\nfast-path cold-build speedup  synth60 {synth_speedup:.2}x   dpmin {dpmin_speedup:.2}x"
    );

    let workloads = rows.iter().map(|r| {
        obj([
            ("name", Value::str(r.name.as_str())),
            ("fast_cold_us", num(r.fast_cold, 3)),
            ("general_cold_us", num(r.general_cold, 3)),
            ("fast_warm_us", num(r.fast_warm, 3)),
            ("fast_path_speedup", num(fast_speedup(r), 2)),
            ("parallel_vs_serial_ratio", num(r.par_ratio, 2)),
            (
                "test_kinds",
                obj(r.kinds.rows().map(|(k, n)| (k, Value::int(n as i64)))),
            ),
        ])
    });
    let report = obj([
        ("generated_by", Value::str("ped-bench 4")),
        ("available_parallelism", Value::int(cores as i64)),
        (
            "summary",
            obj([
                ("fast_path_speedup_synth60", num(synth_speedup, 2)),
                ("fast_path_speedup_dpmin", num(dpmin_speedup, 2)),
                ("min_parallel_vs_serial_ratio", num(min_parallel_ratio, 2)),
            ]),
        ),
        ("workloads", Value::Arr(workloads.collect())),
        ("phases", phases_value(&phases)),
    ]);
    write_report(out, &report);
}

/// BENCH_5: the scalar-facts store.
pub fn bench5(out: &str) {
    let cores = probe_cores();
    println!("ped-bench 5: scalar-facts store, {cores} core(s)\n");
    let mut phases: Vec<Stats> = Vec::new();
    let mut rows: Vec<Value> = Vec::new();
    let mut min_open_ratio = f64::INFINITY;
    let mut warm_total = 0.0f64;
    let mut cold_total = 0.0f64;
    let mut table = Vec::new();
    for (name, prog) in cases() {
        let (budget, iters) = if name == SYNTH { (400, 16) } else { (150, 64) };
        let mut time = |phase: &str, f: &mut dyn FnMut()| {
            let s = bench_with(&format!("{phase}:{name}"), budget, iters, f);
            let mean = s.mean_us;
            phases.push(s);
            mean
        };
        let open_serial = time("open-serial", &mut || {
            black_box(PedSession::open_with(prog.clone(), 1));
        });
        let open_auto = time("open-auto", &mut || {
            black_box(PedSession::open_with(prog.clone(), 0));
        });
        let mut session = PedSession::open(prog.clone());
        let facts_warm = time("rebuild-warmfacts", &mut || {
            session.cache.invalidate();
            session.reanalyze();
        });
        let facts_cold = time("rebuild-coldfacts", &mut || {
            session.cache.invalidate();
            session.cache.drop_scalar();
            session.reanalyze();
        });

        // Single-unit-edit hit rate, on a fresh session so the counter
        // deltas are exactly one edit's worth: the edited unit misses
        // once, every other unit hits.
        let units = prog.units.len();
        let (ui, stmt) = first_assignment(&prog).expect("every workload has an assignment");
        let mut s = PedSession::open(prog.clone());
        let uname = s.program.units[ui].name.clone();
        s.select_unit(&uname).expect("select edit unit");
        let before = s.stats();
        s.edit_statement(stmt, "ZQBENCH = 1").expect("bench edit");
        let after = s.stats();
        let edit_misses = after.scalar_misses - before.scalar_misses;
        let edit_hits = after.scalar_hits - before.scalar_hits;
        assert_eq!(
            edit_misses, 1,
            "{name}: a single-unit edit must rebuild exactly one unit's facts"
        );
        assert_eq!(
            edit_hits,
            units as u64 - 1,
            "{name}: every unedited unit must be served from the memo"
        );

        let open_ratio = paired_ratio(
            if name == SYNTH { 32 } else { 96 },
            || {
                black_box(PedSession::open_with(prog.clone(), 1));
            },
            || {
                black_box(PedSession::open_with(prog.clone(), 0));
            },
        );
        min_open_ratio = min_open_ratio.min(open_ratio);
        warm_total += facts_warm;
        cold_total += facts_cold;
        table.push(format!(
            "{:<10} {:>6} {:>15.2}x {:>11.2}x {:>7}/{:<2}",
            name,
            units,
            open_ratio,
            facts_cold / facts_warm.max(1e-9),
            edit_hits,
            units.saturating_sub(1)
        ));
        rows.push(obj([
            ("name", Value::str(name.as_str())),
            ("units", Value::int(units as i64)),
            ("open_serial_us", num(open_serial, 3)),
            ("open_auto_us", num(open_auto, 3)),
            ("open_auto_vs_serial_ratio", num(open_ratio, 2)),
            ("facts_warm_us", num(facts_warm, 3)),
            ("facts_cold_us", num(facts_cold, 3)),
            ("edit_scalar_misses", Value::int(edit_misses as i64)),
            ("edit_scalar_hits", Value::int(edit_hits as i64)),
        ]));
        println!();
        // Auto prewarm must never lose to serial beyond noise.
        assert!(
            open_ratio >= 0.98,
            "{name}: auto prewarm open regressed vs serial ({open_ratio:.3}x on paired medians)"
        );
    }

    // String-vs-interned micro: the same reference stream resolved
    // through a String-keyed map vs. a NameId-keyed map (what the
    // dependence builder's grouping pass pays per reference).
    let synth = ped_fortran::parser::parse_ok(&ped_workloads::synthetic_source(60));
    let unit = &synth.units[0];
    let sym = SymbolTable::build(unit);
    let refs = RefTable::build(unit, &sym);
    let mut smap: HashMap<String, usize> = HashMap::new();
    let mut imap: HashMap<NameId, usize> = HashMap::new();
    for (i, r) in refs.refs.iter().enumerate() {
        smap.entry(r.name.clone()).or_insert(i);
        imap.entry(r.name_id).or_insert(i);
    }
    let lookup_string = bench_with("lookup-string:synth60", 200, 512, &mut || {
        black_box(
            refs.refs
                .iter()
                .map(|r| smap[r.name.as_str()])
                .sum::<usize>(),
        );
    });
    let lookup_interned = bench_with("lookup-interned:synth60", 200, 512, &mut || {
        black_box(refs.refs.iter().map(|r| imap[&r.name_id]).sum::<usize>());
    });
    let interned_speedup = lookup_string.mean_us / lookup_interned.mean_us.max(1e-9);
    phases.extend([lookup_string, lookup_interned]);

    println!(
        "\n{:<10} {:>6} {:>16} {:>12} {:>10}",
        "workload", "units", "auto/serial(med)", "warm-facts", "edit-hits"
    );
    for line in table {
        println!("{line}");
    }
    let facts_speedup_total = cold_total / warm_total.max(1e-9);
    println!(
        "\nwarm vs cold facts rebuild   : {facts_speedup_total:.2}x\nString vs NameId map lookup  : {interned_speedup:.2}x"
    );

    let summary = obj([
        ("min_open_auto_vs_serial_ratio", num(min_open_ratio, 2)),
        ("facts_warm_vs_cold_speedup", num(facts_speedup_total, 2)),
        ("interned_lookup_speedup", num(interned_speedup, 2)),
        ("unedited_unit_hit_rate", Value::Num(100.0)),
    ]);
    let report = obj([
        ("generated_by", Value::str("ped-bench 5")),
        ("available_parallelism", Value::int(cores as i64)),
        ("summary", summary),
        ("workloads", Value::Arr(rows)),
        ("phases", phases_value(&phases)),
    ]);
    write_report(out, &report);
}

/// The dependence half of `--smoke`: the canonicalization engine must
/// render byte-identical graphs to the general per-pair tester on every
/// unit, serial and parallel; and a forced rebuild of unchanged content
/// must be served entirely from the facts memo (zero new scalar misses,
/// one hit per unit).
pub fn smoke() {
    let cases = cases();
    let mut units = 0usize;
    for (name, prog) in &cases {
        for unit in &prog.units {
            let sym = SymbolTable::build(unit);
            let refs = RefTable::build(unit, &sym);
            let nest = LoopNest::build(unit);
            let env = SymbolicEnv::new();
            let text = |fast, threads| {
                DependenceGraph::build(unit, &sym, &refs, &nest, &env, &build_opts(fast, threads))
                    .canonical_text()
            };
            let general = text(false, 1);
            for threads in [1usize, 8] {
                assert_eq!(
                    text(true, threads),
                    general,
                    "{name}/{}: fast-path graph (threads={threads}) diverged",
                    unit.name
                );
            }
            units += 1;
        }
    }
    println!("ped-bench --smoke: fast path == general tester on {units} units");

    for (name, prog) in cases {
        let n = prog.units.len() as u64;
        let mut s = PedSession::open(prog);
        let before = s.stats();
        s.cache.invalidate();
        s.reanalyze();
        let after = s.stats();
        assert_eq!(
            after.scalar_misses, before.scalar_misses,
            "{name}: forced no-op reanalyze rebuilt scalar facts"
        );
        assert_eq!(
            after.scalar_hits - before.scalar_hits,
            n,
            "{name}: forced no-op reanalyze must hit once per unit"
        );
    }
    println!("ped-bench --smoke: scalar store served every forced reanalyze with zero rebuilds");
}
