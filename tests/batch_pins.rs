//! Byte pins for the batch pipeline.
//!
//! `run_batch(..).render()` with no cache is the whole cold surface of
//! `ped-batch`: per-unit dependence summaries, lint findings and the
//! parallelization report. These FNV-1a fingerprints were recorded on
//! one worker before the per-program analysis was shared between the
//! dependence summaries, lint and `ped-par`, so any byte the refactor
//! (or a later one) moves fails here, not only in the benchmark's pins.
//! Every pin is checked on one worker and on four: the bytes must not
//! depend on the schedule.

use ped_batch::{render_program, run_batch, BatchJob, BatchOptions, BatchReport};
use ped_fortran::fingerprint::Fnv;

/// Worker counts every pin is checked at.
const THREADS: [usize; 2] = [1, 4];

fn run(jobs: &[BatchJob], verify: bool, threads: usize) -> BatchReport {
    run_batch(
        jobs,
        &BatchOptions {
            threads,
            cache: None,
            verify,
        },
    )
}

fn workshop_jobs() -> Vec<BatchJob> {
    let mut jobs: Vec<BatchJob> = ped_workloads::all_programs()
        .into_iter()
        .map(|p| BatchJob {
            name: p.name.to_string(),
            source: p.source.to_string(),
        })
        .collect();
    jobs.push(BatchJob {
        name: "synth60".into(),
        source: ped_workloads::synthetic_source(60),
    });
    jobs
}

fn corpus_jobs(seed: u64) -> Vec<BatchJob> {
    ped_workloads::synth_corpus(seed, 16, &ped_workloads::CorpusParams::default())
        .into_iter()
        .map(|(name, source)| BatchJob { name, source })
        .collect()
}

/// Fingerprints of one program's rendering each, so a drift names the
/// program that moved. A one-job batch renders exactly
/// `render_program` of its one result.
fn check_per_program(what: &str, jobs: &[BatchJob], verify: bool, want: &[(&str, u64)]) {
    for threads in THREADS {
        let report = run(jobs, verify, threads);
        let got: Vec<(&str, u64)> = report
            .results
            .iter()
            .map(|r| {
                let fp = Fnv::new().str(&render_program(&r.summary)).done();
                (r.summary.name.as_str(), fp)
            })
            .collect();
        assert_eq!(
            got, want,
            "{what}, threads={threads}: rendered batch bytes moved"
        );
    }
}

#[test]
fn workshop_programs_static_render_is_pinned() {
    check_per_program(
        "workshop, verify off",
        &workshop_jobs(),
        false,
        &WORKSHOP_STATIC,
    );
}

#[test]
fn workshop_programs_verified_render_is_pinned() {
    check_per_program(
        "workshop, verify on",
        &workshop_jobs(),
        true,
        &WORKSHOP_VERIFIED,
    );
}

#[test]
fn synth_corpus_renders_are_pinned() {
    for threads in THREADS {
        let got: Vec<(u64, u64)> = [5u64, 42]
            .iter()
            .map(|&seed| {
                let body = run(&corpus_jobs(seed), false, threads).render();
                (seed, Fnv::new().str(&body).done())
            })
            .collect();
        assert_eq!(
            got, CORPUS,
            "synth_corpus(seed, 16), threads={threads}: rendered batch bytes moved"
        );
    }
}

// Recorded before the shared per-program analysis landed.
const WORKSHOP_STATIC: [(&str, u64); 9] = [
    ("spec77", 12381388837690694356),
    ("neoss", 16815671527500795822),
    ("nxsns", 15322111797496156868),
    ("dpmin", 1769650261667455085),
    ("slab2d", 10970558281965300285),
    ("slalom", 8584896851742594848),
    ("pueblo3d", 4830192797276604008),
    ("arc3d", 1310670701764752717),
    ("synth60", 8330062977174326137),
];
const WORKSHOP_VERIFIED: [(&str, u64); 9] = [
    ("spec77", 18113068918641387493),
    ("neoss", 259419306564241953),
    ("nxsns", 8732273820711739272),
    ("dpmin", 5314850037083156356),
    ("slab2d", 14042815919697541588),
    ("slalom", 12083491387707514340),
    ("pueblo3d", 3628129930153105958),
    ("arc3d", 16763360113101797986),
    ("synth60", 2613425612403193967),
];
const CORPUS: [(u64, u64); 2] = [(5, 4115404822329994063), (42, 15421477747360307306)];
