//! `micro`: per-layer micro-benchmarks, printed only.
//!
//! * front end — parse and pretty-print each workshop program (the
//!   editor's incremental-response path, Table 1 support);
//! * analysis — per-unit analysis (symbols, refs, CFG/data-flow,
//!   dependence graph) and the interprocedural suite (Table 3 support);
//! * transformation — the Table 4 scripts per program, and control-flow
//!   structuring on neoss;
//! * dependence-test ablation — the hierarchical suite's "inexpensive
//!   tests first" claim (§4.1): synthetic subscript corpora per class
//!   show the cheap exact tests (ZIV, strong SIV) are far cheaper than
//!   the Banerjee/MIV machinery;
//! * incremental update — PED's power-steering claim (§5.1): splicing
//!   the dependences of one edited loop vs whole-unit re-analysis;
//! * DOALL speedup — 1/2/4/8 workers over PED-parallelized programs on
//!   the simulated shared-memory machine (the paper's target was an
//!   8-processor Alliant; shapes, not absolutes, are the target).

use crate::harness::{bench, bench_with};
use crate::parallelized;
use ped_analysis::symbolic::{to_lin, SymbolicEnv};
use ped_analysis::LinExpr;
use ped_dependence::suite::{test_pair, LoopCtx};
use ped_fortran::parser::parse_expr_str;
use ped_transform::ctx::UnitAnalysis;
use std::collections::HashSet;
use std::hint::black_box;

/// Run every micro-benchmark.
pub fn run() {
    for p in ped_workloads::all_programs() {
        println!("== {} ==", p.name);
        let prog = p.parse();
        bench(&format!("parse/{}", p.name), || {
            let (prog, diags) = ped_fortran::parse(black_box(p.source));
            assert!(!diags.has_errors());
            black_box(prog);
        });
        bench(&format!("pretty/{}", p.name), || {
            black_box(ped_fortran::print_program(black_box(&prog)));
        });
        bench(&format!("unit-analysis/{}", p.name), || {
            for unit in &prog.units {
                let ua = UnitAnalysis::build(black_box(unit), SymbolicEnv::new(), None);
                black_box(ua.graph.len());
            }
        });
        bench(&format!("interprocedural/{}", p.name), || {
            let fx = ped_interproc::modref_analyze(black_box(&prog));
            let facts = ped_analysis::global::global_symbolic_facts(black_box(&prog));
            black_box((fx.len(), facts.subst.len()));
        });
        bench(&format!("table4-scripts/{}", p.name), || {
            black_box(ped_workloads::measure::measure_table4(black_box(p)));
        });
    }

    println!("== transformation ==");
    let neoss = ped_workloads::program("neoss").unwrap();
    bench("control-flow-structuring-neoss", || {
        let mut prog = neoss.parse();
        let idx = prog.units.iter().position(|u| u.name == "EOSCAN").unwrap();
        black_box(ped_transform::structure::simplify_control_flow(&mut prog, idx).unwrap());
    });

    dependence_tests();
    incremental();
    speedup();
}

fn lin(s: &str) -> Option<LinExpr> {
    Some(to_lin(&parse_expr_str(s, &[]).unwrap()).unwrap())
}

fn dependence_tests() {
    println!("== dependence-tests ==");
    let env = SymbolicEnv::new();
    let loops: Vec<LoopCtx> = ["I", "J"]
        .map(|var| LoopCtx {
            var: var.into(),
            lo: lin("1").unwrap(),
            hi: lin("100").unwrap(),
        })
        .into();
    let corpus = |pair: fn(usize) -> (String, String)| -> Vec<_> {
        (0..64)
            .map(|k| {
                let (a, s) = pair(k);
                (lin(&a), lin(&s))
            })
            .collect()
    };
    let corpora = [
        ("ziv", corpus(|k| (format!("{k}"), format!("{}", k + 1)))),
        ("strong-siv", corpus(|k| ("I".into(), format!("I+{k}")))),
        ("weak-zero-siv", corpus(|k| ("I".into(), format!("{k}")))),
        (
            "miv-banerjee",
            corpus(|k| (format!("I+{k}*J"), "2*I+J".into())),
        ),
    ];
    for (name, pairs) in corpora {
        bench(&format!("dependence-tests/{name}"), || {
            for (a, s) in &pairs {
                black_box(test_pair(
                    std::slice::from_ref(black_box(a)),
                    std::slice::from_ref(black_box(s)),
                    &loops,
                    &env,
                ));
            }
        });
    }
}

fn incremental() {
    println!("== incremental ==");
    // A many-loop unit where one loop is edited: spec77's GLOOP.
    let p = ped_workloads::program("spec77").unwrap().parse();
    let unit = p.unit("GLOOP").unwrap();
    let ua = UnitAnalysis::build(unit, SymbolicEnv::new(), None);
    let target = ua.nest.roots[ua.nest.roots.len() - 1];
    let region: HashSet<_> = ua.nest.get(target).body.iter().copied().collect();
    bench("full-reanalysis", || {
        let fresh = UnitAnalysis::build(black_box(unit), SymbolicEnv::new(), None);
        black_box(fresh.graph.len());
    });
    bench("incremental-splice", || {
        // Splice against a cached full graph: the measured saving of
        // retaining the dependences outside the touched region.
        let merged = ped_transform::update::splice_region_deps(
            black_box(&ua.graph),
            black_box(&ua.graph),
            &region,
        );
        black_box(merged.len());
    });
}

fn speedup() {
    for name in ["spec77", "pueblo3d", "dpmin"] {
        // Parallelize once; execute repeatedly at each worker count.
        let prog = parallelized(ped_workloads::program(name).unwrap().parse());
        println!("== speedup-{name} ==");
        for workers in [1usize, 2, 4, 8] {
            bench_with(&format!("speedup-{name}/{workers}"), 200, 10, &mut || {
                let opts = ped_runtime::RunOptions {
                    workers,
                    ..Default::default()
                };
                let out = ped_runtime::run(black_box(&prog), opts).unwrap();
                black_box(out.lines);
            });
        }
    }
}
