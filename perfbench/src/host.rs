//! Host and noise readings. The note explains a noisy run (other load,
//! hypervisor steal); it is diagnostic only and never a metric.

use std::time::Instant;

/// Aggregate `cpu` line of `/proc/stat`: (steal ticks, all ticks).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unavailable".into())
}

/// Wall and process-CPU time of one interval.
#[derive(Clone, Copy, Debug)]
pub struct Split {
    pub wall: f64,
    pub cpu: f64,
}

/// Starts both clocks at once.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_secs(),
        }
    }

    pub fn split(&self) -> Split {
        Split {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: process_cpu_secs() - self.cpu,
        }
    }
}

/// Run `f` `reps` times (at least once), timing each run into
/// `samples`; returns the last result.
pub fn repeat<T>(reps: usize, samples: &mut Vec<Split>, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Stopwatch::start();
        last = Some(f());
        samples.push(t.split());
    }
    last.expect("ran at least once")
}

/// Brackets the timed phase of a run.
pub struct Probe {
    start: Instant,
    cpu: f64,
    ticks: Option<(u64, u64)>,
    load_before: String,
}

impl Probe {
    pub fn start() -> Probe {
        Probe {
            start: Instant::now(),
            cpu: process_cpu_secs(),
            ticks: cpu_ticks(),
            load_before: loadavg(),
        }
    }

    /// Seconds since the phase started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// `host: nproc=.. loadavg=.. -> .. steal=..` for the phase so far.
    pub fn note(&self) -> String {
        let steal = match (self.ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
                "{} ticks ({:.2}% of {} cpu ticks)",
                s1 - s0,
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
                t1 - t0
            ),
            _ => "unavailable".into(),
        };
        format!(
            "host: nproc={} loadavg=[{}] -> [{}] steal={} process cpu {:.1}s over {:.1}s",
            crate::nproc(),
            self.load_before,
            loadavg(),
            steal,
            process_cpu_secs() - self.cpu,
            self.start.elapsed().as_secs_f64()
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// `clock_gettime(2)` from the C library std already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used, all threads, living and ended.
/// The kernel does not charge a task for time the hypervisor stole
/// from its virtual CPU, so this clock excludes steal.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
