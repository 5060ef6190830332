//! A run's result: operation counts, named metrics with units, notes,
//! and the one-line JSON the benchmark prints last.

use crate::host::Split;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (programs, requests or program verifications).
    pub attempted: u64,
    /// Operations whose output did not match its check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Diagnostic lines printed before the result (host noise, pins,
    /// the first mismatches). Never metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                let msg = what();
                self.notes.push(format!("mismatch: {msg}"));
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-tripping decimal; non-finite values (never expected)
/// become `null` rather than invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The end-to-end metrics every workload reports.
///
/// `setups` are the set-up samples, `latencies` the per-operation times
/// (seconds), `work` the units completed and `cpu_secs` the process CPU
/// time the timed operations used.
pub fn end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    latencies: &[f64],
    work: f64,
    cpu_secs: f64,
    peak_rss_mb: f64,
) {
    out.metric("setup_s", median(setups), "s");
    out.metric("throughput_per_s", work / cpu_secs, "1/s");
    out.metric("latency_ms", median(latencies) * 1e3, "ms");
    out.metric("latency_p99_ms", percentile(latencies, 0.99) * 1e3, "ms");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.notes.push(format!(
        "timed operations: {}; set-up samples: {}",
        latencies.len(),
        setups.len()
    ));
}

/// [`end_to_end`] for operations that run one at a time in this
/// process: times are on the process CPU clock, which excludes time the
/// hypervisor stole. The wall-clock view goes to the notes.
pub fn end_to_end_serial(
    out: &mut Outcome,
    setups: &[Split],
    ops: &[Split],
    work: f64,
    peak_rss_mb: f64,
) {
    let cpu: Vec<f64> = ops.iter().map(|o| o.cpu).collect();
    let wall: Vec<f64> = ops.iter().map(|o| o.wall).collect();
    let setup_cpu: Vec<f64> = setups.iter().map(|o| o.cpu).collect();
    end_to_end(out, &setup_cpu, &cpu, work, cpu.iter().sum(), peak_rss_mb);
    out.notes.push(format!(
        "wall clock: median {:.3} ms, p99 {:.3} ms, {:.1} work/s, set-up {:.4} s",
        median(&wall) * 1e3,
        percentile(&wall, 0.99) * 1e3,
        work / wall.iter().sum::<f64>(),
        median(&setups.iter().map(|o| o.wall).collect::<Vec<_>>())
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.check(false, || "x".into());
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
