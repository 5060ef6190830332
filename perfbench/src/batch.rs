//! `batch-cold` and `batch-warm`: `ped_batch::run_batch` over the
//! generated corpus, computed into an empty disk cache or answered from
//! a filled one.

use crate::host::{self, Probe, Split, Stopwatch};
use crate::report::{self, median, Outcome};
use crate::trace::Tracer;
use ped::persist::DiskCache;
use ped_batch::{
    analyze_source, decode_summary, encode_summary, render_program, run_batch, BatchJob,
    BatchOptions, BatchReport, ProgramSummary, KIND_BATCH,
};
use ped_dependence::DepSummary;
use ped_fortran::fingerprint::source_fingerprint;
use ped_lint::LintOptions;
use ped_par::ParOptions;
use ped_transform::ctx::UnitAnalysis;
use std::path::{Path, PathBuf};

/// Set-ups for `batch-cold`: corpus generation takes milliseconds and
/// its speed flips with the host's state within a run, so it is sampled
/// many times, before the timed phase and again before every pass.
const COLD_SETUPS: usize = 21;
const COLD_SETUPS_PER_PASS: usize = 5;
/// Cache fills per run for `batch-warm` (each is a whole cold pass).
const WARM_FILLS: usize = 3;
/// Untraced/traced serial pass pairs in a traced `batch-cold` run,
/// after one untimed warm-up pass.
const TRACED_PAIRS: usize = 3;
/// Traced warm passes in a traced `batch-warm` run.
const TRACED_WARM_PASSES: usize = 5;

/// Body fingerprints of the 125-program corpus, one `seed fingerprint`
/// pair per line, taken from the rendering of the commit that defined
/// this benchmark. Regenerate with `ped-perfbench pins FIRST LAST`.
const PINS: &str = include_str!("../pins.txt");

/// The generated corpus: `programs` programs of 4 units each.
pub fn corpus(seed: u64, programs: usize) -> Vec<BatchJob> {
    ped_workloads::synth_corpus(seed, programs, &ped_workloads::CorpusParams::default())
        .into_iter()
        .map(|(name, source)| BatchJob { name, source })
        .collect()
}

/// The pinned body fingerprint for `seed`, if one was recorded.
pub fn pinned(seed: u64) -> Option<u64> {
    PINS.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let s = it.next()?.parse::<u64>().ok()?;
            let fp = u64::from_str_radix(it.next()?, 16).ok()?;
            Some((s, fp))
        })
        .find(|(s, _)| *s == seed)
        .map(|(_, fp)| fp)
}

/// Print `seed fingerprint` lines for a seed range (the content of
/// `pins.txt`).
pub fn print_pins(first: u64, last: u64) {
    for seed in first..=last {
        let jobs = corpus(seed, 125);
        let body = run_batch(&jobs, &BatchOptions::default()).render();
        println!("{seed} {:016x}", crate::fingerprint(body.as_bytes()));
    }
}

/// Fingerprints of the rendering every pass must reproduce, per
/// program and whole (the body is every program's rendering in order).
struct Reference {
    body: u64,
    programs: Vec<u64>,
}

fn program_fingerprints(report: &BatchReport) -> Vec<u64> {
    report
        .results
        .iter()
        .map(|r| crate::fingerprint(render_program(&r.summary).as_bytes()))
        .collect()
}

impl Reference {
    fn of(report: &BatchReport) -> Reference {
        Reference {
            body: crate::fingerprint(report.render().as_bytes()),
            programs: program_fingerprints(report),
        }
    }

    /// Check the reference itself against the pin for `seed`.
    fn check_pin(&self, seed: u64, out: &mut Outcome) {
        let fp = self.body;
        match pinned(seed) {
            Some(pin) => out.check(pin == fp, || {
                format!("seed {seed}: body fingerprint {fp:016x}, pinned {pin:016x}")
            }),
            None => out
                .notes
                .push(format!("pin: none for seed {seed} (body {fp:016x})")),
        }
    }

    /// One check per program of a timed pass.
    fn check_pass(&self, body: &str, report: &BatchReport, out: &mut Outcome, what: &str) {
        if crate::fingerprint(body.as_bytes()) == self.body {
            self.programs
                .iter()
                .for_each(|_| out.check(true, String::new));
            return;
        }
        let got = program_fingerprints(report);
        for (i, expect) in self.programs.iter().enumerate() {
            out.check(got.get(i) == Some(expect), || {
                format!("{what}: program {i} rendered differently")
            });
        }
    }
}

fn cache_dir(cfg: &crate::Config, tag: &str) -> PathBuf {
    cfg.work_dir
        .join(format!("{tag}-{}-{}", std::process::id(), cfg.seed))
}

fn open_empty(dir: &Path) -> DiskCache {
    let _ = std::fs::remove_dir_all(dir);
    DiskCache::open(dir).expect("create the benchmark's cache directory")
}

/// One timed pass: open a cache handle, run the batch with the CLI's
/// default worker count, render the body.
fn timed_pass(jobs: &[BatchJob], dir: &Path) -> (Split, BatchReport, String) {
    let t = Stopwatch::start();
    let cache = DiskCache::open(dir).expect("open the benchmark's cache directory");
    let report = run_batch(
        jobs,
        &BatchOptions {
            cache: Some(cache),
            ..BatchOptions::default()
        },
    );
    let body = report.render();
    (t.split(), report, body)
}

fn units(report: &BatchReport) -> usize {
    report.results.iter().map(|r| r.summary.units.len()).sum()
}

/// `batch-cold`: every timed pass analyzes the whole corpus and writes
/// it through into an empty cache (cleared between passes, untimed).
pub fn cold(cfg: &crate::Config) -> Outcome {
    if cfg.trace {
        return cold_traced(cfg);
    }
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut jobs = host::repeat(COLD_SETUPS, &mut setups, || corpus(cfg.seed, cfg.programs));
    // The 1-thread, uncached rendering is the reference; computing it
    // first also warms the allocator and page cache before timing.
    let reference = Reference::of(&run_batch(
        &jobs,
        &BatchOptions {
            threads: 1,
            ..BatchOptions::default()
        },
    ));
    if cfg.programs == 125 {
        reference.check_pin(cfg.seed, &mut out);
    }
    let dir = cache_dir(cfg, "cold");
    let probe = Probe::start();
    let mut passes = Vec::new();
    let mut work = 0usize;
    // Peak memory is read after the first pass, where a one-shot
    // `ped-batch` process would reach it. Later passes in the same
    // process only add malloc retention, in random ~3 MB steps (noted,
    // not reported).
    let mut rss = 0.0;
    while passes.is_empty() || probe.elapsed() < cfg.seconds {
        jobs = host::repeat(COLD_SETUPS_PER_PASS, &mut setups, || {
            corpus(cfg.seed, cfg.programs)
        });
        open_empty(&dir);
        let (time, report, body) = timed_pass(&jobs, &dir);
        if passes.is_empty() {
            rss = host::peak_rss_mb();
        }
        passes.push(time);
        work += units(&report);
        let all_cold = report.stats.cache_misses == jobs.len();
        out.check(all_cold, || {
            format!("cold pass had {} cache hits", report.stats.cache_hits)
        });
        reference.check_pass(&body, &report, &mut out, "cold pass vs 1-thread");
    }
    out.notes.push(probe.note());
    out.notes.push(format!(
        "peak rss after the last pass {:.1} MB",
        host::peak_rss_mb()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    report::end_to_end_serial(&mut out, &setups, &passes, work as f64, rss);
    out
}

/// `batch-warm`: the cache is filled during set-up; every timed pass
/// opens a fresh handle and is answered from disk.
pub fn warm(cfg: &crate::Config) -> Outcome {
    let mut out = Outcome::default();
    let dir = cache_dir(cfg, "warm");
    let mut setups = Vec::new();
    let mut fills: Vec<Reference> = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..WARM_FILLS {
        open_empty(&dir);
        let t = Stopwatch::start();
        jobs = corpus(cfg.seed, cfg.programs);
        let report = run_batch(
            &jobs,
            &BatchOptions {
                cache: Some(DiskCache::open(&dir).expect("open the benchmark's cache directory")),
                ..BatchOptions::default()
            },
        );
        setups.push(t.split());
        fills.push(Reference::of(&report));
    }
    let reference = fills.pop().expect("at least one fill");
    for f in &fills {
        out.check(f.body == reference.body, || {
            "cache fills rendered differently".into()
        });
    }
    if cfg.programs == 125 {
        reference.check_pin(cfg.seed, &mut out);
    }
    if cfg.trace {
        warm_traced(cfg, &jobs, &dir, &reference, &mut out);
    } else {
        let probe = Probe::start();
        let mut passes = Vec::new();
        let mut work = 0usize;
        // After the first pass, as in `cold`.
        let mut rss = 0.0;
        while passes.is_empty() || probe.elapsed() < cfg.seconds {
            let (time, report, body) = timed_pass(&jobs, &dir);
            if passes.is_empty() {
                rss = host::peak_rss_mb();
            }
            passes.push(time);
            work += units(&report);
            let all_hits = report.stats.cache_hits == jobs.len();
            out.check(all_hits, || {
                format!("warm pass missed {} entries", report.stats.cache_misses)
            });
            reference.check_pass(&body, &report, &mut out, "disk-warm pass vs cold");
        }
        out.notes.push(probe.note());
        out.notes.push(format!(
            "peak rss after the last pass {:.1} MB",
            host::peak_rss_mb()
        ));
        report::end_to_end_serial(&mut out, &setups, &passes, work as f64, rss);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The untraced serial pass: per program, exactly what `run_batch`'s
/// cold path does on one worker (cache probe, `analyze_source`, encode,
/// store). Returns the encodings.
fn serial_pass(jobs: &[BatchJob], cache: &DiskCache) -> Vec<Vec<u8>> {
    jobs.iter()
        .map(|job| {
            let key = source_fingerprint(&job.source);
            let _ = cache.load(KIND_BATCH, key);
            let bytes = encode_summary(&analyze_source(&job.name, &job.source, false));
            cache.store(KIND_BATCH, key, &bytes);
            bytes
        })
        .collect()
}

/// `analyze_source(name, source, false)`, the same public calls in the
/// same order, each inside a span.
fn traced_summary(
    tr: &Tracer,
    group: u64,
    parent: usize,
    name: &str,
    source: &str,
) -> ProgramSummary {
    let p = Some(parent);
    let (program, diags) = tr.span("fortran.parse", group, p, |_| {
        ped_fortran::parser::parse(source)
    });
    let parse_errors: Vec<String> = diags
        .errors()
        .map(|d| format!("{}: {}", d.span.start, d.message))
        .collect();
    if !parse_errors.is_empty() {
        return ProgramSummary {
            name: name.to_string(),
            parse_errors,
            units: Vec::new(),
            findings: Vec::new(),
            par: None,
        };
    }
    let effects = tr.span("interproc.modref", group, p, |_| {
        ped_interproc::modref_analyze(&program)
    });
    let units: Vec<DepSummary> = program
        .units
        .iter()
        .map(|unit| {
            let env = tr.span("analysis.facts", group, p, |_| {
                let mut env = ped_interproc::global_symbolic_facts(&program);
                let symbols = ped_fortran::symbols::SymbolTable::build(unit);
                let refs = ped_analysis::refs::RefTable::build(unit, &symbols);
                let cfg = ped_analysis::Cfg::build(unit);
                let local =
                    ped_analysis::symbolic::detect_invariant_relations(unit, &symbols, &refs, &cfg);
                for (nm, l) in local.subst {
                    env.add_subst(nm, l);
                }
                for (nm, r) in local.ranges {
                    env.add_range(nm, r);
                }
                env
            });
            tr.span("dependence.graph", group, p, |_| {
                let ua = UnitAnalysis::build(unit, env, Some(&effects));
                DepSummary::of(&unit.name.to_ascii_uppercase(), &ua.graph)
            })
        })
        .collect();
    let findings = tr.span("lint.program", group, p, |_| {
        let mut f = ped_lint::lint_program(&program, &LintOptions { threads: 1 });
        ped_lint::sort_findings(&mut f);
        f
    });
    let par = tr.span("par.static", group, p, |_| {
        ped_par::parallelize_program(&program, &batch_par_options()).0
    });
    ProgramSummary {
        name: name.to_string(),
        parse_errors,
        units,
        findings,
        par: Some(par),
    }
}

/// The `ParOptions` `analyze_source` uses without verification.
fn batch_par_options() -> ParOptions {
    ParOptions {
        threads: 1,
        verify: false,
        verify_workers: 2,
        ..ParOptions::default()
    }
}

/// The traced pass: the serial pass with a span around every stage.
fn traced_pass(tr: &Tracer, jobs: &[BatchJob], cache: &DiskCache) -> (usize, Vec<Vec<u8>>) {
    tr.span("batch.pass", 0, None, |pass| {
        let enc = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let group = i as u64 + 1;
                let key = source_fingerprint(&job.source);
                tr.span("persist.load", group, Some(pass), |_| {
                    cache.load(KIND_BATCH, key)
                });
                let s = traced_summary(tr, group, pass, &job.name, &job.source);
                let bytes = tr.span("batch.encode", group, Some(pass), |_| encode_summary(&s));
                tr.span("persist.store", group, Some(pass), |_| {
                    cache.store(KIND_BATCH, key, &bytes)
                });
                bytes
            })
            .collect();
        (pass, enc)
    })
}

fn build_counts() -> [u64; 3] {
    [
        ped_fortran::symbols::build_count(),
        ped_analysis::refs::build_count(),
        ped_analysis::cfg::build_count(),
    ]
}

/// Traced `batch-cold`: alternating untraced and traced serial passes
/// over the same corpus, each into an empty cache.
fn cold_traced(cfg: &crate::Config) -> Outcome {
    let mut out = Outcome::default();
    let jobs = corpus(cfg.seed, cfg.programs);
    let dir = cache_dir(cfg, "cold-trace");
    let tr = Tracer::default();
    // An untimed untraced pass: warm-up, the build counts, and the
    // rendering checked against the pin.
    let before = build_counts();
    let plain = serial_pass(&jobs, &open_empty(&dir));
    let after = build_counts();
    let builds = [0, 1, 2].map(|k| after[k] - before[k]);
    if cfg.programs == 125 {
        let body: String = plain
            .iter()
            .map(|b| render_program(&decode_summary(b).expect("fresh encoding decodes")))
            .collect();
        Reference {
            body: crate::fingerprint(body.as_bytes()),
            programs: Vec::new(),
        }
        .check_pin(cfg.seed, &mut out);
    }
    // Alternate traced and untraced passes so drift hits both alike;
    // the overhead compares their process CPU time, which leaves out
    // steal (the serial passes use one thread).
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut traced_cpu = Vec::new();
    let mut disk = None;
    for _ in 0..TRACED_PAIRS {
        let cache = open_empty(&dir);
        let t = Stopwatch::start();
        let (pass, enc) = traced_pass(&tr, &jobs, &cache);
        traced_cpu.push(t.split().cpu);
        traced.push(pass);
        disk.get_or_insert((cache.stats(), cache.size_on_disk().0));
        out.check(enc.len() == plain.len(), || {
            "traced pass lost programs".into()
        });
        for (i, (a, b)) in plain.iter().zip(&enc).enumerate() {
            out.check(a == b, || {
                format!("traced encoding of program {i} differs from analyze_source")
            });
        }
        let cache = open_empty(&dir);
        let t = Stopwatch::start();
        serial_pass(&jobs, &cache);
        untraced.push(t.split().cpu);
    }
    // The side span: `ped_par::analyze` (classify and plan only), on
    // each program, outside the passes so they stay comparable.
    let programs: Vec<_> = jobs
        .iter()
        .map(|j| ped_fortran::parser::parse(&j.source).0)
        .collect();
    for (i, p) in programs.iter().enumerate() {
        tr.span("par.classify", i as u64 + 1, None, |_| {
            ped_par::analyze(p, &batch_par_options())
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    let units = (jobs.len() * ped_workloads::CorpusParams::default().units_per_program) as f64;
    let per_pass = |name: &str| tr.durations(name).iter().sum::<f64>() / TRACED_PAIRS as f64;
    for (metric, span) in [
        ("fortran.parse_s", "fortran.parse"),
        ("interproc.modref_s", "interproc.modref"),
        ("analysis.facts_s", "analysis.facts"),
        ("dependence.graph_s", "dependence.graph"),
        ("lint.program_s", "lint.program"),
        ("par.static_s", "par.static"),
        ("par.classify_s", "par.classify"),
        ("batch.encode_s", "batch.encode"),
        ("persist.store_s", "persist.store"),
        ("persist.load_s", "persist.load"),
    ] {
        out.metric(metric, per_pass(span), "s");
    }
    out.metric(
        "analysis.symbol_tables_per_unit",
        builds[0] as f64 / units,
        "count",
    );
    out.metric(
        "analysis.ref_tables_per_unit",
        builds[1] as f64 / units,
        "count",
    );
    out.metric("analysis.cfgs_per_unit", builds[2] as f64 / units, "count");
    let (stats, bytes) = disk.expect("at least one pass");
    out.metric("persist.hits", stats.hits as f64, "count");
    out.metric("persist.misses", stats.misses as f64, "count");
    out.metric("persist.corrupt", stats.corrupt as f64, "count");
    out.metric("persist.bytes_per_unit", bytes as f64 / units, "B");
    out.metric(
        "trace.overhead_share",
        median(&traced_cpu) / median(&untraced) - 1.0,
        "ratio",
    );
    let uncovered: Vec<f64> = traced.iter().map(|&id| tr.uncovered_share(id)).collect();
    out.metric("trace.uncovered_share", median(&uncovered), "ratio");
    out.notes.push(format!(
        "serial passes, cpu seconds: untraced {untraced:.3?}, traced {traced_cpu:.3?}"
    ));
    write_trace(cfg, "batch-cold", &tr, &mut out);
    out
}

/// Traced `batch-warm`: serial passes over the filled cache, one span
/// per load, decode and render.
fn warm_traced(
    cfg: &crate::Config,
    jobs: &[BatchJob],
    dir: &Path,
    reference: &Reference,
    out: &mut Outcome,
) {
    let tr = Tracer::default();
    let mut disk = None;
    for _ in 0..TRACED_WARM_PASSES {
        let cache = DiskCache::open(dir).expect("open the benchmark's cache directory");
        let body = tr.span("batch.pass", 0, None, |pass| {
            let mut body = String::new();
            for (i, job) in jobs.iter().enumerate() {
                let group = i as u64 + 1;
                let key = source_fingerprint(&job.source);
                let bytes = tr.span("persist.load", group, Some(pass), |_| {
                    cache.load(KIND_BATCH, key)
                });
                let summary = tr.span("batch.decode", group, Some(pass), |_| {
                    bytes.as_deref().map(decode_summary)
                });
                if let Some(Ok(s)) = summary {
                    tr.span("batch.render", group, Some(pass), |_| {
                        body.push_str(&render_program(&s))
                    });
                }
            }
            body
        });
        out.check(
            crate::fingerprint(body.as_bytes()) == reference.body,
            || "traced warm body differs from cold".into(),
        );
        disk.get_or_insert((cache.stats(), cache.size_on_disk().0));
    }
    let units = (jobs.len() * ped_workloads::CorpusParams::default().units_per_program) as f64;
    let per_pass = |name: &str| tr.durations(name).iter().sum::<f64>() / TRACED_WARM_PASSES as f64;
    out.metric("persist.load_s", per_pass("persist.load"), "s");
    out.metric("batch.decode_s", per_pass("batch.decode"), "s");
    out.metric("batch.render_s", per_pass("batch.render"), "s");
    let (stats, bytes) = disk.expect("at least one pass");
    out.metric("persist.hits", stats.hits as f64, "count");
    out.metric("persist.misses", stats.misses as f64, "count");
    out.metric("persist.corrupt", stats.corrupt as f64, "count");
    out.metric("persist.bytes_per_unit", bytes as f64 / units, "B");
    let passes: Vec<usize> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "batch.pass")
        .map(|(i, _)| i)
        .collect();
    let uncovered: Vec<f64> = passes.iter().map(|&id| tr.uncovered_share(id)).collect();
    out.metric("trace.uncovered_share", median(&uncovered), "ratio");
    write_trace(cfg, "batch-warm", &tr, out);
}

/// Write the spans next to the other scratch output and say where.
pub fn write_trace(cfg: &crate::Config, workload: &str, tr: &Tracer, out: &mut Outcome) {
    let path = cfg
        .work_dir
        .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
    match tr.write(&path) {
        Ok(()) => out.notes.push(format!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("trace: not written: {e}")),
    }
}
