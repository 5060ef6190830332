//! Readiness polling backends for the nonblocking event loop.
//!
//! Two interchangeable backends behind one enum (no trait objects,
//! no dependencies):
//!
//! * **poll** (unix): `poll(2)`, declared directly the same way
//!   [`crate::signal`] declares `signal(2)`. O(connections) per wait,
//!   which is cheap at the tens of connections an editor service sees.
//! * **scan** (anywhere): a pure-std timed tick that reports every
//!   registered token as readable *and* writable. No readiness signal
//!   at all — correctness comes from the loop treating events as
//!   *hints* and handling `WouldBlock` on every nonblocking I/O call,
//!   which also keeps the poll backend honest about spurious wakeups.
//!
//! Unix uses poll, other targets scan. `ServerConfig::backend` can
//! force scan, which is how the test suite runs it on unix.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// Which readiness backend to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable unix `poll(2)`.
    Poll,
    /// Pure-std timed scan (readiness hints only).
    Scan,
}

impl Backend {
    /// Platform default: poll on unix, scan elsewhere.
    pub fn auto() -> Backend {
        if cfg!(unix) {
            Backend::Poll
        } else {
            Backend::Scan
        }
    }
}

/// One readiness report. `readable`/`writable` are *hints*: the loop
/// must tolerate both spurious readiness (scan backend) and missed
/// flags (error conditions are folded into both directions).
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
}

/// A readiness poller over registered connections.
pub enum Poller {
    #[cfg(unix)]
    Poll(poll::PollPoller),
    Scan(scan::ScanPoller),
}

impl Poller {
    /// A poller for `backend`; poll on a non-unix target degrades to
    /// scan.
    pub fn new(backend: Backend) -> Poller {
        match backend {
            #[cfg(unix)]
            Backend::Poll => Poller::Poll(poll::PollPoller::new()),
            _ => Poller::Scan(scan::ScanPoller::new()),
        }
    }

    /// Start watching `stream` under `token`. Read interest is always
    /// on; `want_write` adds write interest.
    pub fn register(&mut self, stream: &TcpStream, token: usize, want_write: bool) {
        match self {
            #[cfg(unix)]
            Poller::Poll(p) => p.register(stream.as_raw_fd(), token, want_write),
            Poller::Scan(p) => p.register(token),
        }
    }

    /// Change write interest for an already registered token.
    pub fn update(&mut self, token: usize, want_write: bool) {
        match self {
            #[cfg(unix)]
            Poller::Poll(p) => p.update(token, want_write),
            Poller::Scan(_) => {}
        }
    }

    /// Stop watching a token (its stream may be about to close).
    pub fn deregister(&mut self, token: usize) {
        match self {
            #[cfg(unix)]
            Poller::Poll(p) => p.deregister(token),
            Poller::Scan(p) => p.deregister(token),
        }
    }

    /// Wait up to `timeout` for readiness; fills `events` (cleared
    /// first). An interrupted wait reports zero events.
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        match self {
            #[cfg(unix)]
            Poller::Poll(p) => p.wait(events, timeout),
            Poller::Scan(p) => p.wait(events, timeout),
        }
    }
}

#[cfg(unix)]
pub mod poll {
    use super::PollEvent;
    use std::collections::HashMap;
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux and `unsigned int` on
        // macOS; passing the wider type is benign for the counts we
        // use (the callee reads the low 32 bits on LP64 ABIs).
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;
    const POLLNVAL: i16 = 0x20;

    /// O(n)-per-wait fallback: registrations live in a map and the
    /// pollfd array is rebuilt on each wait.
    pub struct PollPoller {
        regs: HashMap<usize, (i32, bool)>,
    }

    impl PollPoller {
        pub fn new() -> PollPoller {
            PollPoller {
                regs: HashMap::new(),
            }
        }

        pub fn register(&mut self, fd: i32, token: usize, want_write: bool) {
            self.regs.insert(token, (fd, want_write));
        }

        pub fn update(&mut self, token: usize, want_write: bool) {
            if let Some(e) = self.regs.get_mut(&token) {
                e.1 = want_write;
            }
        }

        pub fn deregister(&mut self, token: usize) {
            self.regs.remove(&token);
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let mut tokens: Vec<usize> = Vec::with_capacity(self.regs.len());
            let mut fds: Vec<PollFd> = Vec::with_capacity(self.regs.len());
            for (&token, &(fd, want_write)) in &self.regs {
                tokens.push(token);
                fds.push(PollFd {
                    fd,
                    events: POLLIN | if want_write { POLLOUT } else { 0 },
                    revents: 0,
                });
            }
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            if fds.is_empty() {
                std::thread::sleep(timeout);
                return Ok(());
            }
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (i, f) in fds.iter().enumerate() {
                if f.revents == 0 {
                    continue;
                }
                let err = f.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
                out.push(PollEvent {
                    token: tokens[i],
                    readable: f.revents & POLLIN != 0 || err,
                    writable: f.revents & POLLOUT != 0 || err,
                });
            }
            Ok(())
        }
    }
}

pub mod scan {
    use super::PollEvent;
    use std::collections::BTreeSet;
    use std::io;
    use std::time::Duration;

    /// Granularity of the scan tick: short enough that a request never
    /// stalls noticeably, long enough not to spin a core.
    const TICK: Duration = Duration::from_millis(2);

    /// The no-syscall backend: every registered token is reported
    /// ready in both directions on every tick. Pure overhead compared
    /// to poll, but it runs anywhere std does, and it proves the
    /// loop treats readiness as a hint.
    pub struct ScanPoller {
        tokens: BTreeSet<usize>,
    }

    impl ScanPoller {
        pub fn new() -> ScanPoller {
            ScanPoller {
                tokens: BTreeSet::new(),
            }
        }

        pub fn register(&mut self, token: usize) {
            self.tokens.insert(token);
        }

        pub fn deregister(&mut self, token: usize) {
            self.tokens.remove(&token);
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            std::thread::sleep(timeout.min(TICK));
            for &token in &self.tokens {
                out.push(PollEvent {
                    token,
                    readable: true,
                    writable: true,
                });
            }
            Ok(())
        }
    }
}
