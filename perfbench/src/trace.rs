//! In-memory span recorder for traced runs.
//!
//! A span is a name, a start, an end, the span that caused it and an
//! id shared by every span of one request or program. Spans are kept in
//! memory and written out once, when the run ends. The benchmark records
//! them around its own calls into each crate's public functions; no
//! program code is instrumented.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Shared by the spans of one request or program.
    pub group: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Run `f` inside a span; `f` receives the span's index so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let start_ns = self.now();
            let mut spans = self.lock();
            spans.push(Span {
                name,
                group,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.lock()[id].end_ns = end;
        out
    }

    /// Record an already-timed interval.
    pub fn record(&self, name: &'static str, group: u64, parent: Option<usize>, start: Instant) {
        let end_ns = self.now();
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        self.lock().push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations of the spans named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Share of span `id` not covered by its direct children.
    pub fn uncovered_share(&self, id: usize) -> f64 {
        let spans = self.lock();
        let total = spans[id].secs();
        let covered: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        (total - covered) / total
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::default();
        t.span("outer", 7, None, |outer| {
            t.span("inner", 7, Some(outer), |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let u = t.uncovered_share(0);
        assert!((0.0..=1.0).contains(&u), "{u}");
        assert_eq!(t.durations("inner").len(), 1);
    }
}
