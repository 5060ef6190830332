//! Two short traced runs of the same workload and seed must report the
//! same exact counts, and every check must pass on a second seed.

use ped_perfbench::report::Outcome;
use ped_perfbench::Config;
use std::sync::Mutex;

/// The build counters are process-wide, so runs must not overlap.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn short(workload: &str, seed: u64, trace: bool, tag: &str) -> Outcome {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("ped-perfbench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = Config {
        programs: 6,
        ..Config::new(seed, 0.2, trace, dir.clone())
    };
    let out = ped_perfbench::run(workload, &cfg).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
    out
}

fn counts(out: &Outcome, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| out.get(n).unwrap_or_else(|| panic!("{n} not reported")))
        .collect()
}

#[test]
fn batch_cold_counts_repeat_exactly() {
    let names = [
        "analysis.symbol_tables_per_unit",
        "analysis.ref_tables_per_unit",
        "analysis.cfgs_per_unit",
        "persist.hits",
        "persist.misses",
        "persist.corrupt",
        "persist.bytes_per_unit",
    ];
    let a = counts(&short("batch-cold", 7, true, "cold-a"), &names);
    let b = counts(&short("batch-cold", 7, true, "cold-b"), &names);
    assert_eq!(a, b);
    assert_eq!(&a[3..6], &[0.0, 6.0, 0.0], "every cold load misses");
}

#[test]
fn batch_warm_counts_repeat_exactly() {
    let names = [
        "persist.hits",
        "persist.misses",
        "persist.corrupt",
        "persist.bytes_per_unit",
    ];
    let a = counts(&short("batch-warm", 7, true, "warm-a"), &names);
    let b = counts(&short("batch-warm", 7, true, "warm-b"), &names);
    assert_eq!(a, b);
    assert_eq!(&a[..3], &[6.0, 0.0, 0.0], "every warm load hits");
}

#[test]
fn par_verify_counts_repeat_exactly() {
    let names = ["vm.instrs", "par.directives", "par.demoted"];
    let a = counts(&short("par-verify", 7, true, "par-a"), &names);
    let b = counts(&short("par-verify", 7, true, "par-b"), &names);
    assert_eq!(a, b);
    assert!(a[0] > 0.0 && a[1] > 0.0);
}

#[test]
fn a_second_seed_is_a_different_corpus_of_the_same_shape() {
    let (a, b) = (
        ped_perfbench::batch::corpus(1, 6),
        ped_perfbench::batch::corpus(2, 6),
    );
    assert_eq!(a.len(), b.len());
    assert_ne!(
        a.iter().map(|j| &j.source).collect::<Vec<_>>(),
        b.iter().map(|j| &j.source).collect::<Vec<_>>()
    );
    for workload in ["batch-cold", "batch-warm", "serve-edit"] {
        for seed in [1, 2] {
            let out = short(workload, seed, false, &format!("{workload}-{seed}"));
            for m in [
                "setup_s",
                "throughput_per_s",
                "latency_ms",
                "latency_p99_ms",
                "peak_rss_mb",
            ] {
                let v = out
                    .get(m)
                    .unwrap_or_else(|| panic!("{workload}: {m} missing"));
                assert!(v > 0.0 && v.is_finite(), "{workload}: {m} = {v}");
            }
        }
    }
}
