//! BENCH_9: the corpus-scale batch driver and its persistent cache.
//!
//! Corpus: `synth_corpus(seed=42)`, 125 programs × 4 units = 500 units,
//! deterministic across processes and machines. Regimes (median of
//! 3 iterations, paired on the same corpus):
//!
//! * **cold** — empty cache dir: full pipeline (parse → dependences →
//!   lint → parallelize) for every program, write-through to disk;
//! * **disk-warm** — fresh `DiskCache` handle on the populated dir (a
//!   new process as far as the cache can tell): every program answered
//!   from disk, no parse, no analysis. Gate: ≥ 5x over cold, and the
//!   rendered body must be byte-identical to the cold run's;
//! * **thread scaling** — cold, uncached, 1 worker vs 8 through the
//!   ordered fan-out. The 2.5x gate applies when the host
//!   actually has ≥ 4 cores; below that the gate degrades honestly
//!   (≥ 1.2x on 2–3 cores, no-regression on 1) and the JSON records
//!   the measured core count so readers know which gate ran.
//!
//! The JSON also accounts for the cache itself: files, bytes, and
//! bytes per analyzed unit.

use crate::harness::{median, num, obj, write_report};
use ped::persist::DiskCache;
use ped_batch::{run_batch, BatchJob, BatchOptions};
use ped_server::json::Value;
use std::time::Instant;

/// Corpus size in programs.
const PROGRAMS: usize = 125;
/// Iterations per regime; each reports its median.
const ITERS: usize = 3;

/// BENCH_9: cold vs disk-warm batch runs and 1-vs-8-thread scaling.
pub fn bench9(out: &str) {
    let params = ped_workloads::CorpusParams::default();
    let jobs: Vec<BatchJob> = ped_workloads::synth_corpus(42, PROGRAMS, &params)
        .into_iter()
        .map(|(name, source)| BatchJob { name, source })
        .collect();
    let dir = std::env::temp_dir().join(format!("ped-bench-9-{}", std::process::id()));
    println!(
        "ped-bench 9: {} programs ({} units target), median of {ITERS} iters\n",
        jobs.len(),
        jobs.len() * params.units_per_program
    );

    let mut cold_times = Vec::new();
    let mut warm_times = Vec::new();
    let mut units = 0usize;
    let mut findings = 0usize;
    let mut cold_body = String::new();
    let mut cache_bytes = 0u64;
    let mut cache_files = 0u64;
    for _ in 0..ITERS {
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).expect("open cache dir");
        let t = Instant::now();
        let cold = run_batch(
            &jobs,
            &BatchOptions {
                threads: 1,
                cache: Some(cache.clone()),
                verify: false,
            },
        );
        cold_times.push(t.elapsed().as_secs_f64());
        assert_eq!(
            cold.stats.cache_misses,
            jobs.len(),
            "cold run must compute everything"
        );
        units = cold.stats.units;
        findings = cold.stats.findings;
        cold_body = cold.render();
        let (b, f) = cache.size_on_disk();
        cache_bytes = b;
        cache_files = f;

        // Fresh handle = cross-process warm start.
        let warm_cache = DiskCache::open(&dir).expect("reopen cache dir");
        let t = Instant::now();
        let warm = run_batch(
            &jobs,
            &BatchOptions {
                threads: 1,
                cache: Some(warm_cache),
                verify: false,
            },
        );
        warm_times.push(t.elapsed().as_secs_f64());
        assert_eq!(
            warm.stats.cache_hits,
            jobs.len(),
            "warm run must be answered from disk"
        );
        assert_eq!(
            warm.render(),
            cold_body,
            "disk-warm body must be byte-identical to cold"
        );
    }

    // Thread scaling: cold compute, no cache, 1 vs 8 workers.
    let mut t1_times = Vec::new();
    let mut t8_times = Vec::new();
    let mut body1 = String::new();
    for _ in 0..ITERS {
        let t = Instant::now();
        let r1 = run_batch(
            &jobs,
            &BatchOptions {
                threads: 1,
                cache: None,
                verify: false,
            },
        );
        t1_times.push(t.elapsed().as_secs_f64());
        body1 = r1.render();
        let t = Instant::now();
        let r8 = run_batch(
            &jobs,
            &BatchOptions {
                threads: 8,
                cache: None,
                verify: false,
            },
        );
        t8_times.push(t.elapsed().as_secs_f64());
        assert_eq!(
            r8.render(),
            body1,
            "8-thread body must be byte-identical to 1-thread"
        );
    }
    assert_eq!(body1, cold_body, "uncached body must match cached cold");

    let cold_s = median(&cold_times);
    let warm_s = median(&warm_times);
    let t1_s = median(&t1_times);
    let t8_s = median(&t8_times);
    let warm_speedup = cold_s / warm_s.max(1e-9);
    let scaling = t1_s / t8_s.max(1e-9);
    let cores = ped_analysis::fanout::probe_cores();

    println!("{:>22} {:>12}", "regime", "median");
    println!("{:>22} {:>11.4}s", "cold (1 thread)", cold_s);
    println!("{:>22} {:>11.4}s", "disk-warm (1 thread)", warm_s);
    println!("{:>22} {:>11.4}s", "cold uncached x1", t1_s);
    println!("{:>22} {:>11.4}s", "cold uncached x8", t8_s);
    println!(
        "\n{units} units, {findings} findings; warm speedup {warm_speedup:.1}x; \
         1->8 thread scaling {scaling:.2}x on {cores} core(s)"
    );
    println!(
        "cache: {cache_files} files, {cache_bytes} bytes ({:.0} bytes/unit)",
        cache_bytes as f64 / units.max(1) as f64
    );

    // Gates. Disk-warm must dominate recompute everywhere; the thread
    // gate scales with what the host can physically deliver.
    assert!(
        warm_speedup >= 5.0,
        "disk-warm speedup gate: {warm_speedup:.2}x < 5x"
    );
    let (scaling_gate, scaling_req) = if cores >= 4 {
        (scaling >= 2.5, 2.5)
    } else if cores >= 2 {
        (scaling >= 1.2, 1.2)
    } else {
        // 1 core: parallel speedup is physically impossible; require
        // the scheduler not to cost more than 30% overhead.
        (scaling >= 0.7, 0.7)
    };
    assert!(
        scaling_gate,
        "thread-scaling gate on {cores} core(s): {scaling:.2}x < {scaling_req}x"
    );
    assert_eq!(units, jobs.len() * params.units_per_program);
    assert!(units >= 500, "corpus must hold >= 500 units, got {units}");

    let bytes_per_unit = cache_bytes as f64 / units.max(1) as f64;
    let report = obj([
        ("generated_by", Value::str("ped-bench 9")),
        (
            "corpus",
            obj([
                ("seed", Value::int(42)),
                ("programs", Value::int(jobs.len() as i64)),
                ("units", Value::int(units as i64)),
                ("findings", Value::int(findings as i64)),
            ]),
        ),
        (
            "median_secs",
            obj([
                ("cold", num(cold_s, 6)),
                ("disk_warm", num(warm_s, 6)),
                ("uncached_1_thread", num(t1_s, 6)),
                ("uncached_8_threads", num(t8_s, 6)),
            ]),
        ),
        ("warm_speedup", num(warm_speedup, 2)),
        ("thread_scaling_1_to_8", num(scaling, 3)),
        ("cores", Value::int(cores as i64)),
        (
            "gates",
            obj([
                ("warm_speedup_min", Value::Num(5.0)),
                ("thread_scaling_min", Value::Num(scaling_req)),
                (
                    "byte_identity",
                    Value::str("cold == disk-warm == uncached == 8-thread"),
                ),
            ]),
        ),
        (
            "cache",
            obj([
                ("files", Value::int(cache_files as i64)),
                ("bytes", Value::int(cache_bytes as i64)),
                ("bytes_per_unit", num(bytes_per_unit, 1)),
            ]),
        ),
        ("iters", Value::int(ITERS as i64)),
    ]);
    write_report(out, &report);
    let _ = std::fs::remove_dir_all(&dir);
}
