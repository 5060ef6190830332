//! BENCH_3: the whole-repo lint (every workshop program) through one
//! `PedSession` per program, in three regimes:
//!
//! * **cold** — first `lint()`, every unit runs the engine;
//! * **cached** — second `lint()`, every unit answered from the
//!   per-unit fingerprint memo;
//! * **incremental** — `lint()` after editing one statement of one
//!   unit, so exactly the dirty units re-lint.
//!
//! The cached report is asserted to match the cold one in size (the
//! memo must never change the answer), and the hit/miss counters are
//! included so a regression in cache effectiveness shows up in the
//! report, not just in the timings.

use crate::first_assignment;
use crate::harness::{num, obj, write_report};
use ped::session::PedSession;
use ped_server::json::Value;
use std::time::Instant;

/// Iterations; each regime reports its best.
const ITERS: usize = 5;

/// (lint hits, lint misses) summed over `sessions`.
fn totals(sessions: &[PedSession]) -> (u64, u64) {
    sessions.iter().fold((0, 0), |(h, m), s| {
        let st = s.stats();
        (h + st.lint_hits, m + st.lint_misses)
    })
}

/// Time one `lint()` over every session: (seconds, findings, hits and
/// misses it added).
fn lint_all(sessions: &[PedSession]) -> (f64, usize, (u64, u64)) {
    let (h0, m0) = totals(sessions);
    let t = Instant::now();
    let findings = sessions.iter().map(|s| s.lint().len()).sum();
    let secs = t.elapsed().as_secs_f64();
    let (h1, m1) = totals(sessions);
    (secs, findings, (h1 - h0, m1 - m0))
}

/// Rewrite the first assignment of `s`'s program to an equivalent
/// expression, so exactly that unit's content fingerprint goes stale.
fn dirty_one_unit(s: &mut PedSession) -> bool {
    let Some((ui, id)) = first_assignment(&s.program) else {
        return false;
    };
    let uname = s.program.units[ui].name.clone();
    s.select_unit(&uname).expect("unit exists");
    let mut text = String::new();
    if let Some(st) = ped_fortran::ast::find_stmt(&s.current_unit().body, id) {
        ped_fortran::pretty::print_block(std::slice::from_ref(st), 0, &mut text);
    }
    let text = text.trim();
    !text.is_empty() && s.edit_statement(id, &format!("{text} + 0")).is_ok()
}

/// BENCH_3: cold vs cached vs incremental lint.
pub fn bench3(out: &str) {
    let programs = ped_workloads::all_programs();
    println!(
        "ped-bench 3: {} workshop programs, best of {ITERS} iters\n",
        programs.len()
    );
    const REGIMES: [&str; 3] = ["cold", "cached", "incremental"];
    let mut best = [f64::MAX; 3];
    let mut last = [(0usize, (0u64, 0u64)); 3];
    for _ in 0..ITERS {
        let mut sessions: Vec<PedSession> = programs
            .iter()
            .map(|p| PedSession::open(p.parse()))
            .collect();
        let cold = lint_all(&sessions);
        let cached = lint_all(&sessions);
        assert_eq!(cold.1, cached.1, "memoized lint changed the report size");
        let edited = sessions
            .iter_mut()
            .map(dirty_one_unit)
            .filter(|&ok| ok)
            .count();
        assert!(
            edited > 0,
            "no unit was dirtied; incremental regime is vacuous"
        );
        let incremental = lint_all(&sessions);
        for (k, (secs, findings, counts)) in [cold, cached, incremental].into_iter().enumerate() {
            best[k] = best[k].min(secs);
            last[k] = (findings, counts);
        }
    }

    let mut rows = Vec::new();
    for (k, name) in REGIMES.iter().enumerate() {
        let (findings, (hits, misses)) = last[k];
        println!(
            "{:>12}: {:>9.6}s  {:>4} findings  {:>3} hits {:>3} misses",
            name, best[k], findings, hits, misses
        );
        rows.push(obj([
            ("regime", Value::str(*name)),
            ("wall_secs", num(best[k], 6)),
            ("findings", Value::int(findings as i64)),
            ("lint_hits", Value::int(hits as i64)),
            ("lint_misses", Value::int(misses as i64)),
        ]));
    }
    let speedup = best[0] / best[1].max(1e-9);
    println!("\ncached lint speedup over cold: {speedup:.1}x");

    let report = obj([
        ("generated_by", Value::str("ped-bench 3")),
        ("programs", Value::int(programs.len() as i64)),
        ("summary", obj([("cached_speedup", num(speedup, 1))])),
        ("regimes", Value::Arr(rows)),
    ]);
    write_report(out, &report);
}
