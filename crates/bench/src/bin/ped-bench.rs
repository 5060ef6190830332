//! `ped-bench` — every benchmark suite behind one binary.
//!
//! ```text
//! ped-bench N [OUT.json]   run suite N (1..9), write BENCH_N.json or OUT
//! ped-bench micro          per-layer micro-benchmarks, printed only
//! ped-bench --smoke        the CI correctness gates, no timing asserts
//! ```
//!
//! Suites: 1 interactive hot paths, 2 server load, 3 lint regimes,
//! 4 dependence tester kinds, 5 scalar-facts store, 6 event loop and
//! snapshot reads, 7 bytecode VM, 8 auto-parallelizer, 9 batch driver.
//! `--smoke` checks the dependence fast path against the general tester
//! plus the scalar store, the 8-client server against its oracle, and
//! VM vs tree-walk byte identity.

use ped_bench::{batch, dep, lint, micro, par, serve, vm};

const USAGE: &str = "usage: ped-bench <1..9> [OUT.json] | ped-bench micro | ped-bench --smoke";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = args.first().map(String::as_str).unwrap_or_default();
    let out = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{suite}.json"));
    let run: fn(&str) = match suite {
        "--smoke" => {
            dep::smoke();
            serve::smoke();
            vm::smoke();
            println!("ped-bench --smoke: all gates passed");
            return;
        }
        "micro" => return micro::run(),
        "1" => dep::bench1,
        "2" => serve::bench2,
        "3" => lint::bench3,
        "4" => dep::bench4,
        "5" => dep::bench5,
        "6" => serve::bench6,
        "7" => vm::bench7,
        "8" => par::bench8,
        "9" => batch::bench9,
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    run(&out);
}
