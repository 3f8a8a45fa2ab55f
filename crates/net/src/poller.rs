//! A minimal readiness poller over `epoll(7)` — no async runtime, no
//! external crates.
//!
//! The event loop in [`crate::server`] needs exactly three things from
//! the OS: "which of these sockets can make progress", "wait at most
//! this long", and "let another thread interrupt the wait". This
//! module provides them behind a [`Poller`] (a registry of file
//! descriptors and their interest sets, mapped to caller-chosen
//! tokens) and a [`Waker`] (the classic self-pipe trick over a
//! `UnixStream` pair: writing one byte makes the read end readable,
//! which pops the poller out of its wait).
//!
//! The syscalls are declared directly with `extern "C"` — the standard
//! library already links libc, so no new dependency is introduced. The
//! kernel keeps the interest list, so a wait costs what is ready, not
//! what is registered: a thousand parked connections add nothing to
//! the wakeup that serves one busy one. Readiness is level-triggered,
//! as with `poll(2)`.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::time::Duration;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2_000_000;

/// Mirror of `struct epoll_event` (packed on x86-64 only, as in the
/// kernel's own header).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    token: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// The descriptor can be read without blocking (or has hit EOF).
    pub readable: bool,
    /// The descriptor can be written without blocking.
    pub writable: bool,
    /// The peer hung up or the descriptor is in an error state; the
    /// connection should be torn down after draining what it has.
    pub hangup: bool,
}

/// Interest set for one registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable.
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    fn events(self) -> u32 {
        // EPOLLERR/EPOLLHUP are always reported by the kernel; they need
        // no registration bit.
        (if self.readable { EPOLLIN } else { 0 }) | (if self.writable { EPOLLOUT } else { 0 })
    }
}

/// A registry of descriptors with per-descriptor interest, held by the
/// kernel in one epoll instance and waited on with one `epoll_wait`.
pub struct Poller {
    epoll: OwnedFd,
    fds: HashMap<u64, RawFd>,
    ready: Vec<EpollEvent>,
}

impl Poller {
    /// An empty poller (one new epoll instance).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; any flags value is
        // accepted or rejected with an error.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            // SAFETY: `fd` was just returned by epoll_create1, is open,
            // and nothing else owns it.
            epoll: unsafe { OwnedFd::from_raw_fd(fd) },
            fds: HashMap::new(),
            ready: vec![EpollEvent { events: 0, token: 0 }; 256],
        })
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) {
        let mut event = EpollEvent { events: interest.events(), token };
        // SAFETY: `event` is a live, correctly laid out epoll_event for
        // the duration of the call. The call fails only for a
        // descriptor that is already closed, which the kernel has then
        // dropped from the set anyway.
        unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) };
    }

    /// Start watching `fd` under `token`. Tokens must be unique; a
    /// duplicate registration replaces the previous interest.
    pub fn register(&mut self, token: u64, fd: RawFd, interest: Interest) {
        let op = if self.fds.insert(token, fd).is_some() { EPOLL_CTL_MOD } else { EPOLL_CTL_ADD };
        self.ctl(op, fd, token, interest);
    }

    /// Change what `token` waits for. Unknown tokens are ignored.
    pub fn set_interest(&mut self, token: u64, interest: Interest) {
        if let Some(&fd) = self.fds.get(&token) {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest);
        }
    }

    /// Stop watching `token`.
    pub fn deregister(&mut self, token: u64) {
        if let Some(fd) = self.fds.remove(&token) {
            self.ctl(EPOLL_CTL_DEL, fd, token, Interest { readable: false, writable: false });
        }
    }

    /// Wait for readiness on any registered descriptor, at most
    /// `timeout` (`None` = forever). Ready descriptors land in
    /// `events` (cleared first). A timeout is not an error: `events`
    /// is simply left empty.
    pub fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> io::Result<()> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            // Round up so a 100µs deadline does not spin at 0ms.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as c_int,
            None => -1,
        };
        let max = self.ready.len() as c_int;
        // SAFETY: `ready` holds `max` initialized epoll_events, which the
        // kernel overwrites in place; it writes at most `max` of them.
        let n = unsafe {
            epoll_wait(self.epoll.as_raw_fd(), self.ready.as_mut_ptr(), max, timeout_ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // spurious wakeup; caller re-checks deadlines
            }
            return Err(e);
        }
        events.extend(self.ready[..n as usize].iter().map(|&ready| {
            let (bits, token) = (ready.events, ready.token);
            Event {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        }));
        Ok(())
    }
}

/// Cross-thread wakeup for a [`Poller`]: register [`Waker::fd`] for
/// reads, call [`Waker::wake`] from any thread, and the poller's wait
/// returns with that token readable. [`Waker::drain`] clears the pipe
/// so a wakeup is level-triggered exactly once.
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// A connected, nonblocking stream pair.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The descriptor to register (readable) with the poller.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Make the poller's wait return. Safe from any thread; a full
    /// pipe means a wakeup is already pending, which is just as good.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consume pending wakeup bytes (call when the waker token fires).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// A second handle to the wake side, for other threads to own.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle { tx: self.tx.try_clone()? })
    }
}

/// A clonable wake-only handle to a [`Waker`].
pub struct WakeHandle {
    tx: UnixStream,
}

impl WakeHandle {
    /// See [`Waker::wake`].
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn waker_pops_a_blocked_wait() {
        let waker = Waker::new().expect("waker");
        let mut poller = Poller::new().expect("poller");
        poller.register(0, waker.fd(), Interest { readable: true, writable: false });
        let handle = waker.handle().expect("handle");
        // If the wake lands before wait() blocks, the byte sits in the
        // pipe and wait() returns immediately — readiness, not a race.
        let t = std::thread::spawn(move || handle.wake());
        let mut events = Vec::new();
        let started = Instant::now();
        poller.wait(Some(Duration::from_secs(5)), &mut events).expect("wait");
        assert!(started.elapsed() < Duration::from_secs(4), "woke early, not by timeout");
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        waker.drain();
        t.join().unwrap();
    }

    #[test]
    fn timeout_returns_empty() {
        let waker = Waker::new().expect("waker");
        let mut poller = Poller::new().expect("poller");
        poller.register(0, waker.fd(), Interest { readable: true, writable: false });
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(20)), &mut events).expect("wait");
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readability_is_reported_and_deregister_silences_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().expect("poller");
        poller.register(7, server_side.as_raw_fd(), Interest { readable: true, writable: false });
        std::io::Write::write_all(&mut client, b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_secs(5)), &mut events).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        poller.deregister(7);
        assert!(poller.is_empty());
        poller.wait(Some(Duration::from_millis(10)), &mut events).expect("wait");
        assert!(events.is_empty());
    }
}
