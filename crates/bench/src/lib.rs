//! # ped-bench — benchmark suites and table regeneration
//!
//! The `reproduce` binary prints every table and figure of the paper
//! (`cargo run -p ped-bench --bin reproduce -- all`). The `ped-bench`
//! binary runs one benchmark suite per invocation, all over the shared
//! [`harness`]: `ped-bench N [OUT.json]` writes `BENCH_N.json`
//! (N = 1…9), `ped-bench micro` prints the per-layer micro-benchmarks,
//! and `ped-bench --smoke` runs the CI correctness gates without
//! timing assertions. The build is hermetic: std `Instant` timing, no
//! Criterion, reports through `ped_server::json`.

pub mod batch;
pub mod dep;
pub mod harness;
pub mod lint;
pub mod micro;
pub mod par;
pub mod serve;
pub mod vm;

use ped_fortran::ast::{walk_stmts, Program, StmtId, StmtKind};

/// The synthetic 60-loop stress unit's case name.
pub const SYNTH: &str = "synth60";

/// The benchmark case list: the eight workshop programs in their
/// canonical order, then the synthetic stress unit ([`SYNTH`]).
pub fn cases() -> Vec<(String, Program)> {
    let mut v: Vec<(String, Program)> = ped_workloads::all_programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.parse()))
        .collect();
    let synth = ped_workloads::synthetic_source(60);
    v.push((SYNTH.into(), ped_fortran::parser::parse_ok(&synth)));
    v
}

/// `prog` with every unit parallelized by the PED work model, the way a
/// user session would leave it.
pub fn parallelized(prog: Program) -> Program {
    let mut session = ped::session::PedSession::open(prog);
    let n = session.program.units.len();
    for u in 0..n {
        let uname = session.program.units[u].name.clone();
        session.select_unit(&uname).unwrap();
        ped::workmodel::parallelize_unit(&mut session);
    }
    Program::clone(&session.program)
}

/// The unit index and id of the first assignment statement in unit
/// order (some main units are pure CALL drivers): the benches' edit
/// target.
pub fn first_assignment(prog: &Program) -> Option<(usize, StmtId)> {
    prog.units.iter().enumerate().find_map(|(ui, u)| {
        let mut found = None;
        walk_stmts(&u.body, &mut |st| {
            if found.is_none() && matches!(st.kind, StmtKind::Assign { .. }) {
                found = Some(st.id);
            }
        });
        found.map(|id| (ui, id))
    })
}
