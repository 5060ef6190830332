//! Minimal std-only wall-clock benchmark harness shared by every suite.
//!
//! The sandbox builds offline, so Criterion is unavailable; this module
//! provides the small slice of it the suites need: auto-calibrated
//! iteration counts with mean/p95 summaries, paired interleaved timing,
//! one median, and one JSON report writer.

use ped_server::json::Value;
use std::time::Instant;

/// Summary statistics of one measured function.
#[derive(Clone, Debug)]
pub struct Stats {
    pub label: String,
    pub iters: usize,
    pub mean_us: f64,
    pub p95_us: f64,
    pub min_us: f64,
}

impl Stats {
    /// One report row.
    pub fn to_value(&self) -> Value {
        obj([
            ("label", Value::str(self.label.as_str())),
            ("iters", Value::int(self.iters as i64)),
            ("mean_us", num(self.mean_us, 3)),
            ("p95_us", num(self.p95_us, 3)),
            ("min_us", num(self.min_us, 3)),
        ])
    }
}

/// Time `f`, choosing an iteration count so the measurement takes
/// roughly 200 ms (clamped to `[3, 512]` iterations), and print a
/// one-line summary.
pub fn bench(label: &str, mut f: impl FnMut()) -> Stats {
    bench_with(label, 200, 512, &mut f)
}

/// As [`bench`] with an explicit time budget and iteration cap.
pub fn bench_with(label: &str, budget_ms: u64, max_iters: usize, f: &mut dyn FnMut()) -> Stats {
    // Warm-up + calibration run.
    let once = (time_us(&mut *f) / 1e6).max(1e-9);
    let budget = budget_ms as f64 / 1e3;
    let iters = ((budget / once) as usize).clamp(3, max_iters);
    let mut samples: Vec<f64> = (0..iters).map(|_| time_us(&mut *f)).collect();
    let stats = summarize(label, &mut samples);
    println!(
        "{:<40} mean {:>10.1} µs   p95 {:>10.1} µs   ({} iters)",
        stats.label, stats.mean_us, stats.p95_us, stats.iters
    );
    stats
}

/// Summarize raw microsecond samples (sorts them in place).
fn summarize(label: &str, samples: &mut [f64]) -> Stats {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let p95 = samples[((n as f64 * 0.95) as usize).min(n - 1)];
    Stats {
        label: label.to_string(),
        iters: n,
        mean_us: mean,
        p95_us: p95,
        min_us: samples[0],
    }
}

/// Wall-clock microseconds of one call of `f`.
pub fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// `pairs` strictly interleaved runs of `a` and `b`, returning each
/// side's results in pair order. Even pairs run `a` first, odd pairs
/// `b` first: the second run of a pair sees different allocator and
/// cache state, and that position bias is systematic, so alternation
/// cancels it out of any per-pair comparison.
pub fn paired<T>(
    pairs: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> T,
) -> (Vec<T>, Vec<T>) {
    let mut xs = Vec::with_capacity(pairs);
    let mut ys = Vec::with_capacity(pairs);
    for k in 0..pairs {
        if k % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    (xs, ys)
}

/// Median over `pairs` [`paired`] runs of the per-pair time ratio
/// `a / b`: immune to the drift and scheduler outliers that make
/// independent-run minima flake at the couple-percent level.
pub fn paired_ratio(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    let (xs, ys) = paired(pairs, || time_us(&mut a), || time_us(&mut b));
    let ratios: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| x / y.max(1e-9)).collect();
    median(&ratios)
}

/// The upper middle sample, `sorted[len / 2]` (the true median for odd
/// counts). Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[sorted.len() / 2]
}

/// Nearest-rank percentile of an ascending-sorted sample (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// A report number rounded to `places` decimals.
pub fn num(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((x * scale).round() / scale)
}

/// A report object with fields in the given order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Write `report` to `path` as indented JSON: a container holding only
/// scalars stays on one line, anything deeper is expanded.
pub fn write_report(path: &str, report: &Value) {
    let mut out = String::new();
    pretty(report, 0, &mut out);
    out.push('\n');
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

fn pretty(v: &Value, depth: usize, out: &mut String) {
    let deep = |x: &Value| matches!(x, Value::Arr(_) | Value::Obj(_));
    let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match v {
        Value::Arr(xs) if xs.iter().any(deep) => ('[', ']', xs.iter().map(|x| (None, x)).collect()),
        Value::Obj(fs) if fs.iter().any(|(_, x)| deep(x)) => (
            '{',
            '}',
            fs.iter().map(|(k, x)| (Some(k.as_str()), x)).collect(),
        ),
        _ => return out.push_str(&v.encode()),
    };
    out.push(open);
    for (i, (key, x)) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(k) = key {
            out.push_str(&Value::str(k).encode());
            out.push_str(": ");
        }
        pretty(x, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn paired_alternates_order_and_keeps_sides_apart() {
        let log = RefCell::new(Vec::new());
        let (a, b) = paired(
            4,
            || {
                log.borrow_mut().push('a');
                ('a', log.borrow().len())
            },
            || {
                log.borrow_mut().push('b');
                ('b', log.borrow().len())
            },
        );
        assert_eq!(log.into_inner(), "abbaabba".chars().collect::<Vec<_>>());
        // Each sample lands on the side that produced it, in pair order.
        assert_eq!(a, [('a', 1), ('a', 4), ('a', 5), ('a', 8)]);
        assert_eq!(b, [('b', 2), ('b', 3), ('b', 6), ('b', 7)]);
    }

    #[test]
    fn reports_round_trip_through_the_parser() {
        let report = obj([
            ("name", Value::str("x")),
            ("ratio", num(1.23456, 2)),
            ("rows", Value::Arr(vec![obj([("n", Value::int(1))])])),
        ]);
        let mut text = String::new();
        pretty(&report, 0, &mut text);
        assert_eq!(
            text,
            "{\n  \"name\": \"x\",\n  \"ratio\": 1.23,\n  \"rows\": [\n    {\"n\":1}\n  ]\n}"
        );
        assert_eq!(ped_server::json::parse(&text).unwrap(), report);
    }
}
