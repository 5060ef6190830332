//! BENCH_8: whole-program auto-parallelization timings.
//!
//! Runs the `ped-par` pass over every workshop program plus the 60-loop
//! synthetic, through a `PedSession` per program, in two regimes:
//!
//! * **cold** — first `parallelize()`: classification of every loop
//!   nest, transform planning, directive emission, and the differential
//!   gate (1 worker vs 8, byte-identical output, race-free shadow run);
//! * **memoized** — second `parallelize()`, answered from the
//!   fingerprint-keyed whole-program memo.
//!
//! Per workload the JSON records the nest census (parallel /
//! after-transform / serial), the DOALLs found and verified, and any
//! gate demotions; the summary reports classified loops per second in
//! the cold regime and the memoized speedup. The memo is asserted to
//! return the identical report object (`Arc` identity), so a cache
//! regression fails the bench rather than skewing it.

use crate::cases;
use crate::harness::{num, obj, write_report};
use ped::session::PedSession;
use ped_par::VerifyStatus;
use ped_server::json::Value;
use std::sync::Arc;
use std::time::Instant;

/// Iterations per program; each regime reports its best.
const ITERS: usize = 3;

struct Row {
    name: String,
    nests: usize,
    parallel: usize,
    after_transform: usize,
    serial: usize,
    directives: usize,
    verified: usize,
    demoted: usize,
    cold_secs: f64,
    memo_secs: f64,
}

/// BENCH_8: cold vs memoized `parallelize()` per case.
pub fn bench8(out: &str) {
    let cases = cases();
    println!(
        "ped-bench 8: {} programs, best of {ITERS} iters\n",
        cases.len()
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut par_hits = 0u64;
    let mut par_misses = 0u64;
    for (name, prog) in &cases {
        let mut best_cold = f64::MAX;
        let mut best_memo = f64::MAX;
        let mut report = None;
        for _ in 0..ITERS {
            let s = PedSession::open(prog.clone());
            let t = Instant::now();
            let cold = s.parallelize();
            best_cold = best_cold.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let memo = s.parallelize();
            best_memo = best_memo.min(t.elapsed().as_secs_f64());
            assert!(
                Arc::ptr_eq(&cold, &memo),
                "{name}: second parallelize missed the memo"
            );
            let st = s.stats();
            par_hits += st.par_hits;
            par_misses += st.par_misses;
            report = Some(cold);
        }
        let report = report.expect("at least one iteration");
        let c = report.counts();
        let (verified, demoted) = match &report.verify {
            Some(v) => (
                match v.status {
                    VerifyStatus::Verified { .. } => v.directives,
                    VerifyStatus::Skipped(_) => 0,
                },
                v.demoted.len(),
            ),
            None => (0, 0),
        };
        rows.push(Row {
            name: name.clone(),
            nests: c.nests,
            parallel: c.parallel,
            after_transform: c.after_transform,
            serial: c.serial,
            directives: report.directives.len(),
            verified,
            demoted,
            cold_secs: best_cold,
            memo_secs: best_memo,
        });
    }

    let total_nests: usize = rows.iter().map(|r| r.nests).sum();
    let total_directives: usize = rows.iter().map(|r| r.directives).sum();
    let total_verified: usize = rows.iter().map(|r| r.verified).sum();
    let cold_total: f64 = rows.iter().map(|r| r.cold_secs).sum();
    let memo_total: f64 = rows.iter().map(|r| r.memo_secs).sum();
    let loops_per_sec = total_nests as f64 / cold_total.max(1e-9);
    let memo_speedup = cold_total / memo_total.max(1e-9);

    println!(
        "{:>10} {:>5} {:>4}/{:>3}/{:>3} {:>5} {:>4} {:>3}  {:>10} {:>10}",
        "program", "nests", "par", "xf", "ser", "doall", "ok", "dem", "cold", "memoized"
    );
    for r in &rows {
        println!(
            "{:>10} {:>5} {:>4}/{:>3}/{:>3} {:>5} {:>4} {:>3}  {:>9.6}s {:>9.6}s",
            r.name,
            r.nests,
            r.parallel,
            r.after_transform,
            r.serial,
            r.directives,
            r.verified,
            r.demoted,
            r.cold_secs,
            r.memo_secs
        );
    }
    println!(
        "\ncold: {total_nests} nests in {cold_total:.3}s = {loops_per_sec:.0} loops/sec; \
         {total_verified}/{total_directives} DOALLs verified; memoized speedup {memo_speedup:.0}x"
    );

    let workloads = rows.iter().map(|r| {
        obj([
            ("program", Value::str(r.name.as_str())),
            ("nests", Value::int(r.nests as i64)),
            ("parallel", Value::int(r.parallel as i64)),
            ("after_transform", Value::int(r.after_transform as i64)),
            ("serial", Value::int(r.serial as i64)),
            ("directives", Value::int(r.directives as i64)),
            ("verified", Value::int(r.verified as i64)),
            ("demoted", Value::int(r.demoted as i64)),
            ("cold_secs", num(r.cold_secs, 6)),
            ("memoized_secs", num(r.memo_secs, 6)),
        ])
    });
    let summary = obj([
        ("nests", Value::int(total_nests as i64)),
        ("directives", Value::int(total_directives as i64)),
        ("verified", Value::int(total_verified as i64)),
        ("cold_loops_per_sec", num(loops_per_sec, 0)),
        ("memoized_speedup", num(memo_speedup, 0)),
        ("par_hits", Value::int(par_hits as i64)),
        ("par_misses", Value::int(par_misses as i64)),
    ]);
    let report = obj([
        ("generated_by", Value::str("ped-bench 8")),
        ("programs", Value::int(cases.len() as i64)),
        ("summary", summary),
        ("workloads", Value::Arr(workloads.collect())),
    ]);
    write_report(out, &report);
}
