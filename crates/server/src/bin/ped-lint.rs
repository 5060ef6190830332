//! `ped-lint` — the static race detector and whole-program lint pass,
//! as a batch CLI.
//!
//! ```text
//! ped-lint [--json] [--deny-warnings] [--dynamic] [--threads N] FILE...
//! ```
//!
//! Each argument is a fixed-form Fortran file or a directory (searched
//! recursively for `.f`/`.for`/`.f77` files). Every file is parsed and
//! linted as one program; findings print one per line as
//! `file:line: severity: [PED001] message`, or as one deterministic JSON
//! document with `--json`.
//!
//! `--dynamic` additionally replays each program under the tracing
//! bytecode VM and annotates its carried array dependences with dynamic
//! verdicts: `confirmed` (a witness iteration pair was observed) or
//! `disproven` (an assumed edge no access pair ever realized on this
//! run — a candidate for user deletion, valid for these inputs).
//! Dynamic annotations are informational and never affect the exit
//! status.
//!
//! Exit status: 0 clean; 1 if any error-severity finding was reported
//! (or any warning, under `--deny-warnings`); 2 on usage or I/O errors.

use ped::session::{DepValidation, PedSession};
use ped_lint::{lint_program, sort_findings, tally, Finding, LintOptions};
use ped_server::json::Value;
use ped_server::lintio::{finding_text, findings_value};
use ped_vm::DynVerdict;
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!("usage: ped-lint [--json] [--deny-warnings] [--dynamic] [--threads N] FILE...");
    std::process::exit(2);
}

fn is_fortran(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some(e) if e.eq_ignore_ascii_case("f")
            || e.eq_ignore_ascii_case("for")
            || e.eq_ignore_ascii_case("f77")
    )
}

/// Expand an argument into Fortran files, recursing into directories.
/// Directory listings are sorted so the report order is stable.
fn collect(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() {
                collect(&entry, out)?;
            } else if is_fortran(&entry) {
                out.push(entry);
            }
        }
        Ok(())
    } else {
        out.push(path.to_path_buf());
        Ok(())
    }
}

struct FileReport {
    file: String,
    findings: Vec<Finding>,
    parse_errors: Vec<String>,
    /// `--dynamic` verdicts per unit, or the reason validation was
    /// skipped for this file.
    dynamic: Option<Result<Vec<(String, Vec<DepValidation>)>, String>>,
}

fn lint_file(path: &Path, opts: &LintOptions, dynamic: bool) -> Result<FileReport, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (program, diags) = ped_fortran::parser::parse(&src);
    let parse_errors: Vec<String> = diags
        .errors()
        .map(|d| format!("{}:{}: error: {}", path.display(), d.span.start, d.message))
        .collect();
    let mut findings = if parse_errors.is_empty() {
        lint_program(&program, opts)
    } else {
        Vec::new()
    };
    sort_findings(&mut findings);
    let dynamic = (dynamic && parse_errors.is_empty()).then(|| validate_program(program));
    Ok(FileReport {
        file: path.display().to_string(),
        findings,
        parse_errors,
        dynamic,
    })
}

/// Replay the program under the tracing VM once per unit and collect
/// the dynamic verdicts for each unit's carried array dependences.
fn validate_program(
    program: ped_fortran::Program,
) -> Result<Vec<(String, Vec<DepValidation>)>, String> {
    let mut s = PedSession::open(program);
    let names: Vec<String> = s.program.units.iter().map(|u| u.name.clone()).collect();
    let mut out = Vec::new();
    for name in names {
        s.select_unit(&name)?;
        let results = s.validate(ped_runtime::RunOptions::default())?;
        out.push((name, results));
    }
    Ok(out)
}

fn verdict_str(v: DynVerdict) -> &'static str {
    match v {
        DynVerdict::Confirmed => "confirmed",
        DynVerdict::Disproven => "disproven",
        DynVerdict::Unobserved => "unobserved",
    }
}

fn dynamic_text(file: &str, unit: &str, v: &DepValidation) -> String {
    let tag = if v.assumed { ", assumed" } else { "" };
    let detail = match v.verdict {
        DynVerdict::Confirmed => match v.witness {
            Some((a, b)) => format!("witness iterations ({a}, {b})"),
            None => "witness observed".into(),
        },
        DynVerdict::Disproven => "no access pair connected two iterations; \
             candidate for user deletion (valid for these inputs)"
            .into(),
        DynVerdict::Unobserved => "not enough dynamic evidence".into(),
    };
    format!(
        "{file}:{unit}: note: [DYN] dep d{} on {} (level {}{tag}) {}: {detail}",
        v.id.0,
        v.var,
        v.level,
        verdict_str(v.verdict),
    )
}

fn dynamic_value(annotations: &[(String, Vec<DepValidation>)]) -> Value {
    let rows: Vec<Value> = annotations
        .iter()
        .flat_map(|(unit, vs)| {
            vs.iter().map(|v| {
                Value::Obj(vec![
                    ("unit".into(), Value::str(unit.clone())),
                    ("dep".into(), Value::int(v.id.0 as i64)),
                    ("var".into(), Value::str(v.var.clone())),
                    ("level".into(), Value::int(v.level as i64)),
                    ("assumed".into(), Value::Bool(v.assumed)),
                    ("verdict".into(), Value::str(verdict_str(v.verdict))),
                    (
                        "witness".into(),
                        match v.witness {
                            Some((a, b)) => Value::Arr(vec![Value::int(a), Value::int(b)]),
                            None => Value::Null,
                        },
                    ),
                ])
            })
        })
        .collect();
    Value::Arr(rows)
}

fn main() {
    let mut json = false;
    let mut deny_warnings = false;
    let mut dynamic = false;
    let mut threads = ped_analysis::fanout::workers(0, usize::MAX);
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--dynamic" => dynamic = true,
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            f if f.starts_with("--") => usage(),
            f => paths.push(PathBuf::from(f)),
        }
    }
    if paths.is_empty() {
        usage();
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for p in &paths {
        if let Err(e) = collect(p, &mut files) {
            eprintln!("ped-lint: {e}");
            std::process::exit(2);
        }
    }
    if files.is_empty() {
        eprintln!("ped-lint: no Fortran files found");
        std::process::exit(2);
    }

    let opts = LintOptions { threads };
    let mut reports = Vec::new();
    for f in &files {
        match lint_file(f, &opts, dynamic) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("ped-lint: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut notes = 0usize;
    for r in &reports {
        errors += r.parse_errors.len();
        let (e, w, n) = tally(&r.findings);
        errors += e;
        warnings += w;
        notes += n;
    }

    if json {
        let file_values: Vec<Value> = reports
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("file".into(), Value::str(r.file.clone())),
                    (
                        "parse_errors".into(),
                        Value::Arr(r.parse_errors.iter().map(Value::str).collect()),
                    ),
                    ("report".into(), findings_value(&r.findings)),
                ];
                match &r.dynamic {
                    Some(Ok(annotations)) => {
                        fields.push(("dynamic".into(), dynamic_value(annotations)));
                    }
                    Some(Err(e)) => {
                        fields.push(("dynamic_error".into(), Value::str(e.clone())));
                    }
                    None => {}
                }
                Value::Obj(fields)
            })
            .collect();
        let doc = Value::Obj(vec![
            ("files".into(), Value::Arr(file_values)),
            ("errors".into(), Value::int(errors as i64)),
            ("warnings".into(), Value::int(warnings as i64)),
            ("notes".into(), Value::int(notes as i64)),
        ]);
        println!("{}", doc.encode());
    } else {
        for r in &reports {
            for e in &r.parse_errors {
                println!("{e}");
            }
            for f in &r.findings {
                println!("{}", finding_text(&r.file, f));
            }
            match &r.dynamic {
                Some(Ok(annotations)) => {
                    for (unit, vs) in annotations {
                        for v in vs {
                            println!("{}", dynamic_text(&r.file, unit, v));
                        }
                    }
                }
                Some(Err(e)) => {
                    println!("{}: note: [DYN] dynamic validation skipped: {e}", r.file);
                }
                None => {}
            }
        }
        println!(
            "ped-lint: {} file(s), {} error(s), {} warning(s), {} note(s)",
            reports.len(),
            errors,
            warnings,
            notes
        );
    }

    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
