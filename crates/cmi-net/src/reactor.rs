//! A vendored mini-reactor: readiness polling, userspace wakeups, and a
//! timer wheel — the machinery behind the session server.
//!
//! The build environment has no crates registry, so rather than pulling in
//! `mio`/`polling` this module talks to the kernel directly (the same
//! philosophy as the vendored shims under `crates/shims/`): `epoll` on
//! Linux, `poll(2)` on other Unixes, both reached through hand-declared C
//! bindings — no `libc` crate, no allocations on the hot path.
//!
//! Three pieces compose the reactor:
//!
//! * [`Poller`] — kernel readiness for file-descriptor sources (TCP
//!   streams). Registration is keyed by an opaque `u64` token; interest is
//!   level-triggered and can be re-armed per token ([`Poller::rearm`]), which
//!   is how sessions toggle write interest around a bounded push window.
//! * [`WakeQueue`] — userspace readiness for sources that have no fd (the
//!   in-memory loopback pipes) and for cross-thread commands. A submission
//!   pushes onto a mutex-protected list and kicks the poller awake through
//!   an `eventfd` (Linux) or self-pipe (elsewhere), so a loop parked in
//!   `epoll_wait`/`poll` reacts immediately.
//! * [`TimerWheel`] — a hashed wheel of coarse slots replacing per-session
//!   sleep-polling: one wheel per event loop carries every session's idle
//!   deadline, so a loop with no I/O sleeps until the next slot boundary
//!   instead of ticking once per session.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

/// Readiness interest for a registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source becomes readable (or hung up).
    pub readable: bool,
    /// Wake when the source becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the steady state of a drained session).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a session with a backed-up out-buffer).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the source was registered under.
    pub token: u64,
    /// The source may be read without blocking (includes EOF/hangup).
    pub readable: bool,
    /// The source may be written without blocking.
    pub writable: bool,
}

/// The token the poller's internal wakeup source reports under. Never
/// surfaced to callers: `wait` swallows it after draining the wakeup.
const WAKE_TOKEN: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// Kernel bindings (no libc crate: the symbols are declared by hand).
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    extern "C" {
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use std::ffi::c_int;

        pub const EPOLL_CLOEXEC: c_int = 0x80000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;
        pub const EPOLLRDHUP: u32 = 0x2000;

        /// `struct epoll_event` is packed on x86-64 (the kernel ABI), so the
        /// Rust mirror must be too.
        #[repr(C, packed)]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(
                epfd: c_int,
                op: c_int,
                fd: c_int,
                event: *mut EpollEvent,
            ) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        }

        pub const EFD_CLOEXEC: c_int = 0x80000;
        pub const EFD_NONBLOCK: c_int = 0x800;
    }

    #[cfg(not(target_os = "linux"))]
    pub mod pollfd {
        use std::ffi::{c_int, c_short};

        pub const POLLIN: c_short = 0x1;
        pub const POLLOUT: c_short = 0x4;
        pub const POLLERR: c_short = 0x8;
        pub const POLLHUP: c_short = 0x10;

        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: c_short,
            pub revents: c_short,
        }

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: usize, timeout: c_int) -> c_int;
            pub fn pipe(fds: *mut c_int) -> c_int;
            pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        }

        pub const F_SETFL: c_int = 4;
        pub const O_NONBLOCK: c_int = 0x4;
    }
}

// ---------------------------------------------------------------------------
// Poller: epoll on Linux
// ---------------------------------------------------------------------------

/// Kernel readiness polling over file descriptors, plus an internal wakeup
/// channel ([`Poller::wake`]) usable from any thread.
#[cfg(target_os = "linux")]
pub struct Poller {
    epfd: i32,
    wake_fd: i32,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// Creates the poller and its wakeup eventfd.
    pub fn new() -> io::Result<Poller> {
        use sys::epoll::*;
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let wake_fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if wake_fd < 0 {
            let e = io::Error::last_os_error();
            unsafe { sys::close(epfd) };
            return Err(e);
        }
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data: WAKE_TOKEN,
        };
        if unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, wake_fd, &mut ev) } < 0 {
            let e = io::Error::last_os_error();
            unsafe {
                sys::close(wake_fd);
                sys::close(epfd);
            }
            return Err(e);
        }
        Ok(Poller { epfd, wake_fd })
    }

    fn events_mask(interest: Interest) -> u32 {
        use sys::epoll::*;
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        use sys::epoll::*;
        let mut ev = EpollEvent {
            events: Self::events_mask(interest),
            data: token,
        };
        if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Changes the interest of an already registered `fd` (write-interest
    /// toggling around the push window).
    pub fn rearm(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        use sys::epoll::*;
        let mut ev = EpollEvent {
            events: Self::events_mask(interest),
            data: token,
        };
        if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Deregisters `fd`.
    pub fn deregister(&self, fd: i32) -> io::Result<()> {
        use sys::epoll::*;
        let mut ev = EpollEvent { events: 0, data: 0 };
        if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one source is ready or `timeout` elapses,
    /// appending readiness events to `out`. Wakeups via [`Poller::wake`]
    /// interrupt the wait and are absorbed (they deliver no event).
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        use sys::epoll::*;
        let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 1ns timeout does not spin at 0ms.
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32
                + if t.subsec_nanos() % 1_000_000 != 0 { 1 } else { 0 },
        };
        let n = unsafe {
            epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &buf[..n as usize] {
            let data = ev.data;
            let events = ev.events;
            if data == WAKE_TOKEN {
                // Drain the eventfd counter.
                let mut b = [0u8; 8];
                unsafe {
                    sys::read(self.wake_fd, b.as_mut_ptr().cast(), b.len());
                }
                continue;
            }
            out.push(Event {
                token: data,
                readable: events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                writable: events & (EPOLLOUT | EPOLLERR) != 0,
            });
        }
        Ok(())
    }

    /// Wakes a thread blocked in [`Poller::wait`]. Callable from any thread.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            sys::write(self.wake_fd, (&one as *const u64).cast(), 8);
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.wake_fd);
            sys::close(self.epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// Poller: poll(2) fallback for non-Linux Unix
// ---------------------------------------------------------------------------

/// Kernel readiness polling over file descriptors (`poll(2)` realization),
/// plus an internal wakeup channel usable from any thread.
#[cfg(all(unix, not(target_os = "linux")))]
pub struct Poller {
    /// (fd, token, interest) for every registered source.
    registered: parking_lot::Mutex<Vec<(i32, u64, Interest)>>,
    wake_read: i32,
    wake_write: i32,
}

#[cfg(all(unix, not(target_os = "linux")))]
impl Poller {
    /// Creates the poller and its wakeup self-pipe.
    pub fn new() -> io::Result<Poller> {
        use sys::pollfd::*;
        let mut fds = [0i32; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        unsafe {
            fcntl(fds[0], F_SETFL, O_NONBLOCK);
            fcntl(fds[1], F_SETFL, O_NONBLOCK);
        }
        Ok(Poller {
            registered: parking_lot::Mutex::new(Vec::new()),
            wake_read: fds[0],
            wake_write: fds[1],
        })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.registered.lock().push((fd, token, interest));
        Ok(())
    }

    /// Changes the interest of an already registered `fd`.
    pub fn rearm(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let mut reg = self.registered.lock();
        for entry in reg.iter_mut() {
            if entry.0 == fd {
                *entry = (fd, token, interest);
                return Ok(());
            }
        }
        reg.push((fd, token, interest));
        Ok(())
    }

    /// Deregisters `fd`.
    pub fn deregister(&self, fd: i32) -> io::Result<()> {
        self.registered.lock().retain(|&(f, _, _)| f != fd);
        Ok(())
    }

    /// Blocks until at least one source is ready or `timeout` elapses,
    /// appending readiness events to `out`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        use sys::pollfd::*;
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<u64> = Vec::new();
        fds.push(PollFd {
            fd: self.wake_read,
            events: POLLIN,
            revents: 0,
        });
        tokens.push(WAKE_TOKEN);
        for &(fd, token, interest) in self.registered.lock().iter() {
            let mut events = 0;
            if interest.readable {
                events |= POLLIN;
            }
            if interest.writable {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
            tokens.push(token);
        }
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => (t.as_millis().min(i32::MAX as u128) as i32).max(1),
        };
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (pfd, &token) in fds.iter().zip(&tokens) {
            if pfd.revents == 0 {
                continue;
            }
            if token == WAKE_TOKEN {
                let mut b = [0u8; 64];
                unsafe {
                    sys::read(self.wake_read, b.as_mut_ptr().cast(), b.len());
                }
                continue;
            }
            out.push(Event {
                token,
                readable: pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: pfd.revents & (POLLOUT | POLLERR) != 0,
            });
        }
        Ok(())
    }

    /// Wakes a thread blocked in [`Poller::wait`]. Callable from any thread.
    pub fn wake(&self) {
        let one = [1u8];
        unsafe {
            sys::write(self.wake_write, one.as_ptr().cast(), 1);
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.wake_read);
            sys::close(self.wake_write);
        }
    }
}

// ---------------------------------------------------------------------------
// WakeQueue: userspace readiness + cross-thread submissions
// ---------------------------------------------------------------------------

/// A thread-safe submission queue paired with a [`Poller`] wakeup: sources
/// with no file descriptor (loopback pipes) and cross-thread commands both
/// arrive here, and the submitting thread kicks the poller so a parked loop
/// notices immediately.
pub struct WakeQueue<T> {
    queued: parking_lot::Mutex<VecDeque<T>>,
}

impl<T> Default for WakeQueue<T> {
    fn default() -> Self {
        WakeQueue {
            queued: parking_lot::Mutex::new(VecDeque::new()),
        }
    }
}

impl<T> WakeQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an item. The caller is responsible for kicking the poller
    /// ([`Poller::wake`]) afterwards.
    pub fn push(&self, item: T) {
        self.queued.lock().push_back(item);
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        let mut q = self.queued.lock();
        q.drain(..).collect()
    }

    /// Whether anything is queued (used to compute poll timeouts).
    pub fn is_empty(&self) -> bool {
        self.queued.lock().is_empty()
    }
}

// ---------------------------------------------------------------------------
// TimerWheel
// ---------------------------------------------------------------------------

/// A hashed timer wheel: deadlines hash into coarse slots; expiry scans only
/// the slots the cursor passes. One wheel per event loop replaces the old
/// per-session `tick` sleep-poll — the loop computes its poll timeout from
/// the wheel instead of every session waking every tick.
///
/// Entries are identified by `(token, kind)`; cancellation is implicit — a
/// fired entry whose token no longer maps to a live session is dropped by
/// the caller. Deadlines beyond the wheel's horizon carry a `rounds`
/// counter and lap until due.
pub struct TimerWheel {
    slots: Vec<Vec<WheelEntry>>,
    granularity: Duration,
    /// The slot the cursor is standing on (already expired).
    cursor: usize,
    /// The wall-clock time of the cursor's slot boundary.
    cursor_time: Instant,
    len: usize,
}

struct WheelEntry {
    token: u64,
    kind: u32,
    rounds: u32,
}

impl TimerWheel {
    /// A wheel of `slots` slots, each `granularity` wide.
    pub fn new(slots: usize, granularity: Duration) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(2)).map(|_| Vec::new()).collect(),
            granularity: granularity.max(Duration::from_millis(1)),
            cursor: 0,
            cursor_time: Instant::now(),
            len: 0,
        }
    }

    /// Number of scheduled timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no timers are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `(token, kind)` to fire at `deadline`.
    pub fn schedule(&mut self, deadline: Instant, token: u64, kind: u32) {
        let n = self.slots.len();
        let ticks = if deadline <= self.cursor_time {
            1 // already due: fire on the next advance
        } else {
            // First slot boundary at or after the deadline (late, never
            // early — by at most one granularity).
            let d = deadline - self.cursor_time;
            (d.as_nanos().div_ceil(self.granularity.as_nanos()).max(1)) as u64
        };
        let slot = (self.cursor as u64 + ticks % n as u64) as usize % n;
        let rounds = (ticks / n as u64) as u32;
        self.slots[slot].push(WheelEntry { token, kind, rounds });
        self.len += 1;
    }

    /// Advances the cursor to `now`, collecting every fired `(token, kind)`.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<(u64, u32)>) {
        let n = self.slots.len();
        while self.cursor_time + self.granularity <= now {
            self.cursor = (self.cursor + 1) % n;
            self.cursor_time += self.granularity;
            let mut slot = std::mem::take(&mut self.slots[self.cursor]);
            slot.retain_mut(|e| {
                if e.rounds > 0 {
                    e.rounds -= 1;
                    true
                } else {
                    fired.push((e.token, e.kind));
                    self.len -= 1;
                    false
                }
            });
            // Anything re-retained laps the wheel.
            self.slots[self.cursor] = slot;
        }
    }

    /// How long the owning loop may sleep before the next timer could fire
    /// (`None` when the wheel is empty).
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        // Sleep to the next slot boundary, never longer than one
        // granularity (sleeping short is always safe; timers fire late,
        // never early).
        let next_boundary = self.cursor_time + self.granularity;
        Some(
            next_boundary
                .saturating_duration_since(now)
                .min(self.granularity)
                .max(Duration::from_millis(1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_in_deadline_order_across_slots() {
        let start = Instant::now();
        let mut w = TimerWheel::new(8, Duration::from_millis(10));
        w.schedule(start + Duration::from_millis(25), 1, 0);
        w.schedule(start + Duration::from_millis(5), 2, 0);
        // Beyond the horizon (8 slots * 10ms): must lap.
        w.schedule(start + Duration::from_millis(170), 3, 0);
        assert_eq!(w.len(), 3);

        let mut fired = Vec::new();
        w.advance(start + Duration::from_millis(15), &mut fired);
        assert_eq!(fired, vec![(2, 0)]);
        fired.clear();
        w.advance(start + Duration::from_millis(40), &mut fired);
        assert_eq!(fired, vec![(1, 0)]);
        fired.clear();
        w.advance(start + Duration::from_millis(120), &mut fired);
        assert!(fired.is_empty(), "lapped timer must not fire early");
        w.advance(start + Duration::from_millis(200), &mut fired);
        assert_eq!(fired, vec![(3, 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_timeout_tracks_slot_boundaries() {
        let start = Instant::now();
        let mut w = TimerWheel::new(8, Duration::from_millis(10));
        assert!(w.next_timeout(start).is_none(), "empty wheel: sleep forever");
        w.schedule(start + Duration::from_millis(50), 1, 7);
        let t = w.next_timeout(start).unwrap();
        assert!(t <= Duration::from_millis(10));
    }

    #[cfg(unix)]
    #[test]
    fn poller_wake_interrupts_wait() {
        use std::sync::Arc;
        let poller = Arc::new(Poller::new().unwrap());
        let p2 = poller.clone();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            p2.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake must interrupt the wait"
        );
        assert!(events.is_empty(), "the wakeup itself is not an event");
        waker.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn poller_reports_tcp_readability() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"x").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while events.is_empty() {
            assert!(Instant::now() < deadline);
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
        }
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Toggle write interest: an idle TCP socket is immediately writable.
        poller
            .rearm(server.as_raw_fd(), 7, Interest::READ_WRITE)
            .unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
        poller.deregister(server.as_raw_fd()).unwrap();
    }
}
