//! `ped-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics.
//! Diagnostic notes (host load, steal, pins, mismatches) come first.
//!
//! `ped-perfbench pins FIRST LAST` prints the body fingerprints that
//! `pins.txt` holds.

use ped_perfbench::{Config, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("ped-perfbench: {msg}");
    eprintln!(
        "usage: ped-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    eprintln!("       ped-perfbench pins FIRST LAST");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pins") {
        let range: Vec<u64> = args[1..].iter().filter_map(|a| a.parse().ok()).collect();
        let [first, last] = range[..] else {
            return usage("pins needs FIRST and LAST seeds");
        };
        ped_perfbench::batch::print_pins(first, last);
        return ExitCode::SUCCESS;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let work_dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        return usage(&format!("cannot create {}: {e}", work_dir.display()));
    }
    let cfg = Config::new(seed, seconds, trace, work_dir);
    let mut outcome = match ped_perfbench::run(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    if trace {
        // Every traced run names every per-layer metric; a layer this
        // workload never enters did no work in it and reads 0.
        let measured = std::mem::take(&mut outcome.metrics);
        for (name, unit) in PER_LAYER {
            let value = measured
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            outcome.metric(name, value, unit);
        }
        for m in &measured {
            if !PER_LAYER.iter().any(|(n, _)| *n == m.name) {
                outcome
                    .notes
                    .push(format!("unlisted metric {} = {}", m.name, m.value));
            }
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
