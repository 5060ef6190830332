//! Per-unit nest classification: read each unit's bundle from the
//! program's shared [`ProgramAnalysis`] (interprocedural MOD/REF
//! effects, global symbolic facts, local invariant relations), then
//! decide each loop nest and, for serial nests, plan
//! dependence-breaking transforms.

use crate::{plan, BlockingDep, NestClass, NestDecision, ParOptions, Ranks};
use ped_analysis::fanout::map_ordered;
use ped_analysis::loops::{LoopId, LoopInfo};
use ped_fortran::ast::{find_stmt, walk_stmts, ProcUnit, Program, StmtId, StmtKind};
use ped_transform::ctx::ProgramAnalysis;
use std::collections::HashSet;

/// The classifier's output: the decisions (unit order, then loop
/// order), each unit's dependence-parallel loops, and the cost ranks.
/// `emit` reuses the last two for every unit no transform touched.
pub(crate) struct Classified {
    pub decisions: Vec<NestDecision>,
    pub parallel: Vec<HashSet<LoopId>>,
    pub ranks: Ranks,
}

/// Source line of a statement (falls back to the unit header).
pub(crate) fn line_of(unit: &ProcUnit, id: StmtId) -> u32 {
    find_stmt(&unit.body, id)
        .map(|s| s.span.start)
        .unwrap_or(unit.span.start)
}

/// True if the loop body contains a `READ`/`WRITE` statement — running
/// such a loop as a DOALL would reorder the I/O stream.
pub fn has_io(unit: &ProcUnit, info: &LoopInfo) -> bool {
    let Some(stmt) = find_stmt(&unit.body, info.stmt) else {
        return false;
    };
    let mut io = false;
    for block in stmt.kind.blocks() {
        walk_stmts(block, &mut |s| {
            if matches!(s.kind, StmtKind::Read { .. } | StmtKind::Write { .. }) {
                io = true;
            }
        });
    }
    io
}

/// Classify every loop nest of every unit. Per-unit work optionally
/// fans out over `opts.threads` workers; results merge in unit order so
/// the report is thread-count invariant.
pub(crate) fn classify_program(
    program: &Program,
    pa: &ProgramAnalysis,
    opts: &ParOptions,
) -> Classified {
    let ranks = crate::rank_map(program);
    let per_unit = map_ordered(program.units.len(), opts.threads, |unit_idx| {
        classify_unit(program, unit_idx, pa, opts, &ranks)
    });
    let (decisions, parallel): (Vec<_>, Vec<_>) = per_unit.into_iter().unzip();
    Classified {
        decisions: decisions.into_iter().flatten().collect(),
        parallel,
        ranks,
    }
}

fn classify_unit(
    program: &Program,
    unit_idx: usize,
    pa: &ProgramAnalysis,
    opts: &ParOptions,
    ranks: &Ranks,
) -> (Vec<NestDecision>, HashSet<LoopId>) {
    let ua = &pa.units[unit_idx];
    let unit = &program.units[unit_idx];
    let uname = unit.name.to_ascii_uppercase();
    let reports: Vec<_> = ua
        .nest
        .loops
        .iter()
        .map(|info| ped_transform::analyze_parallelization(unit, ua, info.id))
        .collect();
    let parallel: HashSet<LoopId> = ua
        .nest
        .loops
        .iter()
        .zip(&reports)
        .filter(|(_, rep)| rep.is_parallel())
        .map(|(info, _)| info.id)
        .collect();
    let p0: HashSet<StmtId> = parallel.iter().map(|&l| ua.nest.get(l).stmt).collect();
    let mut out = Vec::new();
    for (info, rep) in ua.nest.loops.iter().zip(reports) {
        let (weight, percent) = ranks
            .get(&(uname.clone(), info.stmt))
            .copied()
            .unwrap_or((0.0, 0.0));
        let mut d = NestDecision {
            unit: uname.clone(),
            unit_idx,
            stmt: info.stmt,
            line: line_of(unit, info.stmt),
            var: info.var.clone(),
            level: info.level,
            class: NestClass::Serial,
            transform: None,
            blocking: rep
                .impediments
                .iter()
                .map(|i| BlockingDep {
                    var: i.var.clone(),
                    kind: i.kind.clone(),
                    detail: i.detail.clone(),
                })
                .collect(),
            rejections: Vec::new(),
            privatized: rep.privatized.clone(),
            privatized_arrays: rep.privatized_arrays.clone(),
            reductions: rep.reductions.clone(),
            weight,
            percent,
            emitted: false,
            emit_skip: None,
        };
        if rep.is_parallel() {
            d.class = NestClass::Parallel;
        } else if opts.plan_transforms {
            plan::plan_nest(program, unit_idx, pa, info.id, &p0, &mut d);
        }
        out.push(d);
    }
    (out, parallel)
}
