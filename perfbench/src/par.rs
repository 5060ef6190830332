//! `par-verify`: `ped_par::parallelize_program` with the differential
//! gate on the eight workshop programs — the only workload that runs
//! the bytecode VM and the runtime.

use crate::host::{self, Probe, Split, Stopwatch};
use crate::report::{self, median, Outcome};
use crate::trace::Tracer;
use ped_fortran::Program;
use ped_par::{ParOptions, ParReport, VerifyStatus};
use ped_runtime::RunOptions;

/// Set-ups: parsing eight small programs takes about a millisecond and
/// its speed flips with the host's state within a run, so it is sampled
/// many times, before the timed phase and again before every pass.
const SETUPS: usize = 21;
const SETUPS_PER_PASS: usize = 5;
/// Traced passes in a traced run.
const TRACED_PASSES: usize = 2;

/// The workshop programs, parsed, in an order drawn from `seed`.
pub fn programs(seed: u64) -> Vec<(&'static str, Program)> {
    let mut all: Vec<_> = ped_workloads::all_programs()
        .into_iter()
        .map(|p| (p.name, p.parse()))
        .collect();
    let mut x = seed ^ 0x2545_f491_4f6c_dd1d;
    for i in (1..all.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        all.swap(i, (x % (i as u64 + 1)) as usize);
    }
    all
}

/// The gate at the host's width: never more VM workers than cores.
fn options(verify: bool) -> ParOptions {
    ParOptions {
        verify,
        verify_workers: crate::nproc(),
        ..ParOptions::default()
    }
}

fn gate_clean(report: &ParReport) -> bool {
    matches!(
        report.verify.as_ref().map(|v| &v.status),
        Some(VerifyStatus::Verified { races: 0, .. })
    )
}

/// What a pass must reproduce for one program: the rendered report and
/// the rewritten program.
fn signature(name: &str, report: &ParReport, rewritten: &Program) -> (u64, u64) {
    (
        crate::fingerprint(ped_par::render_report(name, report).as_bytes()),
        ped_par::program_fingerprint(rewritten),
    )
}

/// The rewritten program's VM output at the gate's width must equal the
/// tree-walk interpreter's serial output.
fn vm_matches_tree(rewritten: &Program) -> Result<(), String> {
    let vm = ped_runtime::run(
        rewritten,
        RunOptions {
            workers: crate::nproc(),
            ..RunOptions::default()
        },
    )
    .map_err(|e| format!("vm: {e}"))?;
    let tree = ped_runtime::run_tree(rewritten, RunOptions::default())
        .map_err(|e| format!("tree: {e}"))?;
    if vm.lines == tree.lines {
        Ok(())
    } else {
        Err(format!(
            "vm printed {} lines, tree {}",
            vm.lines.len(),
            tree.lines.len()
        ))
    }
}

pub fn verify(cfg: &crate::Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut progs = host::repeat(SETUPS, &mut setups, || programs(cfg.seed));
    if cfg.trace {
        traced(cfg, &progs, &mut out);
        return out;
    }
    let opts = options(true);
    let probe = Probe::start();
    let mut passes = Vec::new();
    let mut first: Vec<((u64, u64), Program)> = Vec::new();
    while passes.is_empty() || probe.elapsed() < cfg.seconds {
        progs = host::repeat(SETUPS_PER_PASS, &mut setups, || programs(cfg.seed));
        let mut pass = Split {
            wall: 0.0,
            cpu: 0.0,
        };
        for (i, (name, program)) in progs.iter().enumerate() {
            let t = Stopwatch::start();
            let (report, rewritten) = ped_par::parallelize_program(program, &opts);
            let s = t.split();
            pass.wall += s.wall;
            pass.cpu += s.cpu;
            let sig = signature(name, &report, &rewritten);
            let same = match first.get(i) {
                Some((s, _)) => *s == sig,
                None => {
                    first.push((sig, rewritten));
                    true
                }
            };
            out.check(same && gate_clean(&report), || {
                format!("{name}: gate not clean or result differs from the first pass")
            });
        }
        passes.push(pass);
    }
    let rss = host::peak_rss_mb();
    out.notes.push(probe.note());
    for ((name, _), (_, rewritten)) in progs.iter().zip(&first) {
        let r = vm_matches_tree(rewritten);
        out.check(r.is_ok(), || format!("{name}: {}", r.unwrap_err()));
    }
    let work = (passes.len() * progs.len()) as f64;
    report::end_to_end_serial(&mut out, &setups, &passes, work, rss);
    out
}

/// Traced run: per program, the static pass, the gated pass, an
/// uncached compile and metered serial and parallel VM runs of the
/// rewritten program.
fn traced(cfg: &crate::Config, progs: &[(&'static str, Program)], out: &mut Outcome) {
    let tr = Tracer::default();
    let (static_opts, gated_opts) = (options(false), options(true));
    let mut counts = None;
    for _ in 0..TRACED_PASSES {
        let mut instrs = 0u64;
        let mut directives = 0usize;
        let mut demoted = 0usize;
        tr.span("par.pass", 0, None, |pass| {
            for (i, (name, program)) in progs.iter().enumerate() {
                let (group, p) = (i as u64 + 1, Some(pass));
                tr.span("par.static", group, p, |_| {
                    ped_par::parallelize_program(program, &static_opts)
                });
                let (report, rewritten) = tr.span("par.gated", group, p, |_| {
                    ped_par::parallelize_program(program, &gated_opts)
                });
                out.check(gate_clean(&report), || format!("{name}: gate not clean"));
                directives += report.directives.len();
                demoted += report.verify.as_ref().map_or(0, |v| v.demoted.len());
                let compiled = tr.span("vm.compile", group, p, |_| ped_vm::compile(&rewritten));
                out.check(compiled.is_ok(), || {
                    format!("{name}: rewritten program does not compile")
                });
                for (span, workers) in [("vm.serial_run", 1), ("vm.parallel_run", crate::nproc())] {
                    let run = tr.span(span, group, p, |_| {
                        ped_runtime::run_metered(
                            &rewritten,
                            RunOptions {
                                workers,
                                ..RunOptions::default()
                            },
                        )
                    });
                    match run {
                        Ok((_, m)) if workers == 1 => instrs += m.vm_instrs,
                        Ok(_) => {}
                        Err(e) => out.check(false, || format!("{name}: {e}")),
                    }
                }
            }
        });
        counts.get_or_insert((instrs, directives, demoted));
    }
    let per_pass = |name: &str| median(&tr.durations(name));
    let sum_per_pass = |name: &str| tr.durations(name).iter().sum::<f64>() / TRACED_PASSES as f64;
    let static_s = sum_per_pass("par.static");
    out.metric("par.static_s", static_s, "s");
    out.metric("par.verify_s", sum_per_pass("par.gated") - static_s, "s");
    out.metric("vm.compile_s", sum_per_pass("vm.compile"), "s");
    out.metric("vm.serial_run_s", sum_per_pass("vm.serial_run"), "s");
    out.metric("vm.parallel_run_s", sum_per_pass("vm.parallel_run"), "s");
    let (instrs, directives, demoted) = counts.expect("at least one pass");
    out.metric("vm.instrs", instrs as f64, "count");
    out.metric("par.directives", directives as f64, "count");
    out.metric("par.demoted", demoted as f64, "count");
    out.notes.push(format!(
        "traced 8-program passes: median {:.3}s",
        per_pass("par.pass")
    ));
    crate::batch::write_trace(cfg, "par-verify", &tr, out);
}
