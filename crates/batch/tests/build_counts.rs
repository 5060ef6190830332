//! Build-count regression test for the batch pipeline.
//!
//! `analyze_source` builds one `ProgramAnalysis` per program and hands
//! it to the dependence summaries, lint and `ped-par`; `ped-par`'s
//! transform dry-runs and `emit` rebuild tables only for the units a
//! transformation rewrote. This pins the exact number of symbol tables,
//! reference tables and CFGs one cold analysis of a small fixed corpus
//! builds, so a consumer that goes back to building its own copy fails
//! here.
//!
//! Before the shared analysis the same corpus built 1210 symbol tables,
//! 1174 reference tables and 482 CFGs (16 units: about 76 symbol tables
//! per unit).
//!
//! The counters are process-wide atomics, so this file holds a single
//! `#[test]` and therefore gets its own process: no other test's
//! builds can leak into the deltas.

use ped_batch::analyze_source;

fn counts() -> [u64; 3] {
    [
        ped_fortran::symbols::build_count(),
        ped_analysis::refs::build_count(),
        ped_analysis::cfg::build_count(),
    ]
}

#[test]
fn analyze_source_build_counts_are_pinned() {
    // 4 programs x 4 units.
    let corpus = ped_workloads::synth_corpus(3, 4, &ped_workloads::CorpusParams::default());
    let before = counts();
    for (name, source) in &corpus {
        analyze_source(name, source, false);
    }
    let after = counts();
    let built = [0, 1, 2].map(|k| after[k] - before[k]);
    assert_eq!(
        built,
        [147, 65, 115],
        "[symbol tables, ref tables, CFGs] built by analyze_source"
    );
}
