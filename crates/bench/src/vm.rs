//! Bytecode-VM suites.
//!
//! * [`smoke`] — every workshop program (parallelized by the PED work
//!   model) plus synth60 must compile for the VM and produce
//!   byte-identical [`RunOutput`]s from the VM and the tree-walking
//!   interpreter — output lines, step and loop counters, and race logs —
//!   serially, across 8 workers, and under the deterministic race
//!   checker.
//! * **BENCH_7** — the performance suite behind `EXPERIMENTS.md`:
//!   1. per-workload paired-median serial speedup of the VM over the
//!      tree walk, gated on >= 3x for at least half the workloads;
//!   2. trace-mode overhead: traced vs untraced VM runs of the same
//!      program, as a median ratio;
//!   3. dynamic-validation end-to-end latency on the
//!      subscripted-subscript + recurrence program, gated on
//!      classifying >= 1 assumed edge as disproven and >= 1 real
//!      dependence as confirmed.
//!
//! [`RunOutput`]: ped_runtime::RunOutput

use crate::harness::{median, num, obj, paired, time_us, write_report};
use crate::{cases, parallelized, SYNTH};
use ped_analysis::fanout::probe_cores;
use ped_fortran::parser::parse_ok;
use ped_runtime::{run_metered, run_tree, RunOptions, RunOutput};
use ped_server::json::Value;

/// Paired timing runs per measurement.
const PAIRS: usize = 5;

/// The §4 validation program: an assumed output edge through an index
/// array (dynamically a permutation — disprovable) plus a genuine
/// recurrence (confirmable).
const VALIDATE_SRC: &str = "      REAL A(100), B(100)\n      INTEGER IX(100)\n      DO 5 I = 1, 100\n      IX(I) = I\n      B(I) = I\n      A(I) = 0.0\n    5 CONTINUE\n      DO 10 I = 2, 100\n      A(IX(I)) = B(I) + 1.0\n   10 CONTINUE\n      DO 20 I = 2, 100\n      A(I) = A(I-1) + 2.0\n   20 CONTINUE\n      END\n";

fn assert_identical(name: &str, what: &str, vm: &RunOutput, tree: &RunOutput) {
    let fields = [
        ("output lines", vm.lines == tree.lines),
        ("race logs", vm.races == tree.races),
        ("steps", vm.stats.steps == tree.stats.steps),
        (
            "parallel_loops",
            vm.stats.parallel_loops == tree.stats.parallel_loops,
        ),
        (
            "parallel_iterations",
            vm.stats.parallel_iterations == tree.stats.parallel_iterations,
        ),
        (
            "loop_iterations",
            vm.stats.loop_iterations == tree.stats.loop_iterations,
        ),
    ];
    for (field, same) in fields {
        assert!(same, "{name} [{what}]: {field} diverged");
    }
}

/// The VM half of `--smoke`: the byte-identity gate over every case.
pub fn smoke() {
    let cases: Vec<_> = cases()
        .into_iter()
        .map(|(name, prog)| (name, parallelized(prog)))
        .collect();
    for (name, prog) in &cases {
        let (compiled, _) = ped_vm::compile_cached(prog);
        if let Err(e) = compiled {
            panic!("{name}: VM compile rejected: {}", e.0);
        }
        let run = |opts: RunOptions, what: &str| {
            let (vm, m) = run_metered(prog, opts.clone()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                m.engine, "vm",
                "{name}: dispatcher fell back to the tree walk"
            );
            let tree = run_tree(prog, opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_identical(name, what, &vm, &tree);
        };
        for workers in [1usize, 8] {
            let opts = RunOptions {
                workers,
                ..Default::default()
            };
            run(opts, &format!("workers={workers}"));
        }
        let opts = RunOptions {
            validate_parallel: true,
            ..Default::default()
        };
        run(opts, "validated");
        println!("  {name:<10} ok (serial, 8 workers, validated)");
    }
    println!(
        "ped-bench --smoke: {} programs byte-identical across engines",
        cases.len()
    );
}

struct WorkloadRow {
    name: String,
    tree_median_us: f64,
    vm_median_us: f64,
    speedup: f64,
    vm_instrs: u64,
}

/// Paired-median serial engine comparison over the workshop programs:
/// tree-walk and VM runs alternated (order flipped each pair) so drift
/// in a busy container cancels out of the ratio.
fn bench_speedups() -> Vec<WorkloadRow> {
    let opts = RunOptions::default();
    let mut rows = Vec::new();
    // Parallelize every workload before the first timed run, so no
    // session's allocations interleave with the measurements.
    let workloads: Vec<_> = cases()
        .into_iter()
        .filter(|(name, _)| name != SYNTH)
        .map(|(name, prog)| (name, parallelized(prog)))
        .collect();
    for (name, prog) in workloads {
        // Compile outside the timed region: the dispatcher's cache
        // makes every measured run a cache hit, which is the steady
        // state an interactive session sees.
        let (compiled, _) = ped_vm::compile_cached(&prog);
        compiled.unwrap_or_else(|e| panic!("{name}: VM compile rejected: {}", e.0));
        let mut vm_instrs = 0u64;
        let (tree_us, vm_us) = paired(
            PAIRS,
            || time_us(|| drop(run_tree(&prog, opts.clone()).expect("tree run"))),
            || {
                time_us(|| {
                    let (_, m) = run_metered(&prog, opts.clone()).expect("vm run");
                    vm_instrs = m.vm_instrs;
                })
            },
        );
        let tree_median_us = median(&tree_us);
        let vm_median_us = median(&vm_us);
        let speedup = tree_median_us / vm_median_us.max(1e-9);
        let ns_per_instr = vm_median_us * 1e3 / (vm_instrs.max(1) as f64);
        println!(
            "  {name:<10} tree {tree_median_us:>10.1} µs   vm {vm_median_us:>10.1} µs   speedup {speedup:.2}x   ({vm_instrs} instrs, {ns_per_instr:.1} ns/instr)"
        );
        rows.push(WorkloadRow {
            name,
            tree_median_us,
            vm_median_us,
            speedup,
            vm_instrs,
        });
    }
    rows
}

/// Trace-mode overhead on slalom (the largest executing workload):
/// untraced vs traced VM runs, every DO loop of the program
/// instrumented. synth60 is unsuitable here — its loops are zero-trip
/// at runtime (analysis fixture), so a traced run records nothing.
fn bench_trace_overhead() -> (f64, f64, f64, u64) {
    let p = ped_workloads::program("slalom").expect("slalom workload exists");
    let prog = parallelized(p.parse());
    let (compiled, _) = ped_vm::compile_cached(&prog);
    let compiled = compiled.expect("slalom compiles");
    let mut plan = ped_vm::TracePlan::default();
    for u in &prog.units {
        collect_do_stmts(&u.body, &mut plan.loops);
    }
    let opts = RunOptions::default();
    let mut events = 0u64;
    let (untraced_us, traced_us) = paired(
        PAIRS,
        || time_us(|| drop(ped_vm::run(&compiled, &opts).expect("untraced run"))),
        || {
            // The trace leaves the timed region before it is dropped.
            let mut trace = None;
            let us = time_us(|| {
                trace = Some(
                    ped_vm::run_traced(&compiled, &opts, &plan)
                        .expect("traced run")
                        .1,
                );
            });
            events = trace.map_or(0, |t| t.events.len() as u64);
            us
        },
    );
    let untraced = median(&untraced_us);
    let traced = median(&traced_us);
    let ratio = traced / untraced.max(1e-9);
    println!(
        "  trace overhead (slalom): untraced {untraced:.1} µs, traced {traced:.1} µs, ratio {ratio:.2}x ({events} events)"
    );
    (untraced, traced, ratio, events)
}

fn collect_do_stmts(body: &[ped_fortran::ast::Stmt], out: &mut std::collections::HashSet<u32>) {
    for s in body {
        if let ped_fortran::ast::StmtKind::Do { .. } = &s.kind {
            out.insert(s.id.0);
        }
        for b in s.kind.blocks() {
            collect_do_stmts(b, out);
        }
    }
}

/// End-to-end `validate` latency and verdict counts on the §4 program.
fn bench_validate() -> (f64, u64, u64) {
    let s = ped::session::PedSession::open(parse_ok(VALIDATE_SRC));
    let mut latency_us = Vec::with_capacity(PAIRS);
    let mut confirmed = 0u64;
    let mut disproven = 0u64;
    for _ in 0..PAIRS {
        let mut results = Vec::new();
        latency_us.push(time_us(|| {
            results = s
                .validate(RunOptions::default())
                .expect("validate must run")
        }));
        confirmed = results
            .iter()
            .filter(|r| r.verdict == ped_vm::DynVerdict::Confirmed)
            .count() as u64;
        disproven = results
            .iter()
            .filter(|r| r.verdict == ped_vm::DynVerdict::Disproven)
            .count() as u64;
    }
    let med = median(&latency_us);
    println!(
        "  validate end-to-end: {med:.1} µs median ({confirmed} confirmed, {disproven} disproven)"
    );
    (med, confirmed, disproven)
}

/// BENCH_7: engine speedups, trace overhead and validation latency.
pub fn bench7(out: &str) {
    let cores = probe_cores();
    println!("ped-bench 7: VM vs tree-walk speedup, {PAIRS} pairs, {cores} core(s)\n");
    let rows = bench_speedups();
    let over_3x = rows.iter().filter(|r| r.speedup >= 3.0).count();
    let half = rows.len().div_ceil(2);
    println!(
        "\n  {over_3x}/{} workloads at >= 3x (gate: >= {half})",
        rows.len()
    );
    assert!(
        over_3x >= half,
        "speedup gate failed: only {over_3x}/{} workloads reached 3x",
        rows.len()
    );

    println!("\n== trace overhead ==\n");
    let (untraced_us, traced_us, trace_ratio, trace_events) = bench_trace_overhead();

    println!("\n== dynamic validation ==\n");
    let (validate_us, confirmed, disproven) = bench_validate();
    assert!(confirmed >= 1, "validate gate: no edge confirmed");
    assert!(disproven >= 1, "validate gate: no assumed edge disproven");

    let workloads = rows.iter().map(|r| {
        obj([
            ("name", Value::str(r.name.as_str())),
            ("tree_median_us", num(r.tree_median_us, 1)),
            ("vm_median_us", num(r.vm_median_us, 1)),
            ("speedup", num(r.speedup, 2)),
            ("vm_instrs", Value::int(r.vm_instrs as i64)),
        ])
    });
    let trace = obj([
        ("program", Value::str("slalom")),
        ("untraced_median_us", num(untraced_us, 1)),
        ("traced_median_us", num(traced_us, 1)),
        ("overhead_ratio", num(trace_ratio, 2)),
        ("events", Value::int(trace_events as i64)),
    ]);
    let validate = obj([
        ("median_us", num(validate_us, 1)),
        ("confirmed", Value::int(confirmed as i64)),
        ("disproven", Value::int(disproven as i64)),
        ("gate_confirmed_ge1", Value::Bool(true)),
        ("gate_disproven_ge1", Value::Bool(true)),
    ]);
    let report = obj([
        ("generated_by", Value::str("ped-bench 7")),
        ("available_parallelism", Value::int(cores as i64)),
        ("pairs", Value::int(PAIRS as i64)),
        ("workloads", Value::Arr(workloads.collect())),
        ("speedup_3x_count", Value::int(over_3x as i64)),
        ("gate_speedup_3x_on_half", Value::Bool(true)),
        ("trace", trace),
        ("validate", validate),
    ]);
    write_report(out, &report);
}
