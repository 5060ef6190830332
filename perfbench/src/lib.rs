//! End-to-end and per-layer benchmark of the PED workspace.
//!
//! Four workloads (see `README.md` for why each was chosen):
//!
//! * [`batch::cold`] — `ped_batch::run_batch` over a generated corpus
//!   into an empty disk cache: the whole analysis pipeline;
//! * [`batch::warm`] — the same corpus answered from a filled cache:
//!   persist loads, the codec and render only;
//! * [`serve::edit`] — two closed-loop clients editing and re-viewing
//!   sessions through an in-process `ped_server`;
//! * [`par::verify`] — `ped_par::parallelize_program` with the
//!   differential gate on the eight workshop programs.
//!
//! Every workload checks its outputs while it measures; a mismatch is a
//! failed operation. With tracing on, a workload instead reports
//! per-layer numbers from spans the benchmark records around its own
//! calls into each crate's public functions.

pub mod batch;
pub mod host;
pub mod par;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["batch-cold", "batch-warm", "serve-edit", "par-verify"];

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for cache entries and trace files.
    pub work_dir: PathBuf,
    /// Programs in the batch corpus (4 units each).
    pub programs: usize,
}

impl Config {
    /// The benchmark's settings for a seed: the 125-program corpus.
    pub fn new(seed: u64, seconds: f64, trace: bool, work_dir: PathBuf) -> Config {
        Config {
            seed,
            seconds,
            trace,
            work_dir,
            programs: 125,
        }
    }
}

/// Run one workload by name.
pub fn run(workload: &str, cfg: &Config) -> Result<report::Outcome, String> {
    match workload {
        "batch-cold" => Ok(batch::cold(cfg)),
        "batch-warm" => Ok(batch::warm(cfg)),
        "serve-edit" => serve::edit(cfg),
        "par-verify" => Ok(par::verify(cfg)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Worker threads the host offers; every workload stays within it.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// 64-bit FNV-1a fingerprint of rendered output.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    ped_fortran::fingerprint::Fnv::new().bytes(bytes).done()
}

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 48] = [
    // batch-cold: one serial pass over the corpus, per stage.
    ("fortran.parse_s", "s"),
    ("interproc.modref_s", "s"),
    ("analysis.facts_s", "s"),
    ("dependence.graph_s", "s"),
    ("lint.program_s", "s"),
    ("par.static_s", "s"),
    ("par.classify_s", "s"),
    ("batch.encode_s", "s"),
    ("persist.store_s", "s"),
    ("analysis.symbol_tables_per_unit", "count"),
    ("analysis.ref_tables_per_unit", "count"),
    ("analysis.cfgs_per_unit", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.uncovered_share", "ratio"),
    // batch-warm: one serial pass answered from disk.
    ("persist.load_s", "s"),
    ("batch.decode_s", "s"),
    ("batch.render_s", "s"),
    ("persist.hits", "count"),
    ("persist.misses", "count"),
    ("persist.corrupt", "count"),
    ("persist.bytes_per_unit", "B"),
    // serve-edit: wire p50 per method, dispatch, transport, JSON, memos.
    ("serve.open_ms", "ms"),
    ("serve.stmts_ms", "ms"),
    ("serve.deps_ms", "ms"),
    ("serve.vars_ms", "ms"),
    ("serve.edit_ms", "ms"),
    ("serve.lint_ms", "ms"),
    ("serve.stats_ms", "ms"),
    ("serve.edit_p99_ms", "ms"),
    ("server.dispatch_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("json.parse_us", "us"),
    ("json.encode_us", "us"),
    ("session.analysis_hit_ratio", "ratio"),
    ("session.pair_hit_ratio", "ratio"),
    ("session.scalar_hit_ratio", "ratio"),
    ("session.lint_hit_ratio", "ratio"),
    ("session.analysis_lookups", "count"),
    ("session.pair_lookups", "count"),
    ("session.scalar_lookups", "count"),
    ("session.lint_lookups", "count"),
    // par-verify: one 8-program pass, per stage.
    ("par.verify_s", "s"),
    ("vm.serial_run_s", "s"),
    ("vm.parallel_run_s", "s"),
    ("vm.compile_s", "s"),
    ("vm.instrs", "count"),
    ("par.directives", "count"),
    ("par.demoted", "count"),
];
