//! Offline stand-in for the `polling` crate: socket readiness.
//!
//! The real ecosystem crate wraps each OS's readiness API behind one small
//! interface. This shim reproduces exactly the surface `ph_server`'s event
//! loop consumes, over the one backend this workspace builds for:
//! level-triggered **epoll** (`epoll_create1` / `epoll_ctl` / `epoll_wait`)
//! via direct `extern "C"` declarations — the container has no `libc` crate,
//! but the symbols come from the same glibc `std` already links against.
//! Other targets stop at the `compile_error!` below.
//!
//! Level-triggered means a key stays ready until the caller drains the
//! condition. Cross-thread wakeup uses a self-pipe (`UnixStream::pair`)
//! registered at the reserved key `NOTIFY_KEY`; the pipe is drained inside
//! `wait` and never surfaces in caller results.
//!
//! All methods take `&self`: epoll is thread-safe by contract.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Key reserved for the internal notify pipe; never returned from `wait`.
pub const NOTIFY_KEY: usize = usize::MAX;

/// Interest / readiness for one registered socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub key: usize,
    pub readable: bool,
    pub writable: bool,
}

impl Event {
    pub fn readable(key: usize) -> Self {
        Event { key, readable: true, writable: false }
    }
    pub fn writable(key: usize) -> Self {
        Event { key, readable: false, writable: true }
    }
    pub fn all(key: usize) -> Self {
        Event { key, readable: true, writable: true }
    }
    pub fn none(key: usize) -> Self {
        Event { key, readable: false, writable: false }
    }
}

// ---------------------------------------------------------------------------
// FFI surface (glibc, linked via std).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0x80000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    /// Matches the kernel ABI: on x86_64 glibc declares `epoll_event`
    /// `__attribute__((packed))`; everywhere else natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub fn __errno_location() -> *mut c_void;
    }

    pub fn errno() -> i32 {
        // SAFETY: __errno_location returns a valid thread-local int pointer
        // for the lifetime of the thread; we only read it.
        unsafe { *(__errno_location() as *mut i32) }
    }

    pub const EINTR: i32 = 4;
}

#[cfg(not(target_os = "linux"))]
compile_error!("polling shim: only the Linux epoll backend is implemented");

use ffi::EpollEvent;

fn millis_timeout(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            // Round sub-millisecond timeouts up so `wait(Some(tiny))` still
            // yields to the OS instead of spinning at timeout 0.
            let ms = if ms == 0 && d.as_nanos() > 0 { 1 } else { ms };
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

// ---------------------------------------------------------------------------
// epoll backend
// ---------------------------------------------------------------------------

struct EpollBackend {
    epfd: RawFd,
}

impl EpollBackend {
    fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flags int and returns a new fd or -1;
        // no pointers are involved.
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollBackend { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: Event) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest_bits(interest), data: interest.key as u64 };
        let evp: *mut EpollEvent =
            if op == ffi::EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev };
        // SAFETY: `evp` is either null (allowed for DEL on post-2.6.9
        // kernels) or points to a live, properly initialized EpollEvent for
        // the duration of the call; epfd/fd are plain ints.
        let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, evp) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>, cap: usize) -> io::Result<()> {
        let mut buf: Vec<EpollEvent> = vec![EpollEvent { events: 0, data: 0 }; cap.max(64)];
        let n = loop {
            // SAFETY: `buf` is a live, initialized array of `buf.len()`
            // EpollEvent entries; the kernel writes at most `maxevents` of
            // them. The call blocks without holding any Rust borrow rules
            // hostage because EpollEvent is Copy/plain-old-data.
            let rc = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    buf.len() as i32,
                    millis_timeout(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            if ffi::errno() == ffi::EINTR {
                continue;
            }
            return Err(io::Error::last_os_error());
        };
        for ev in buf.iter().take(n) {
            // A packed struct forbids taking references to its fields;
            // copy them out by value instead.
            let bits = { ev.events };
            let key = { ev.data } as usize;
            out.push(Event {
                key,
                // ERR/HUP surface as readable+writable so the caller's next
                // read/write observes the failure and closes the socket.
                readable: bits & (ffi::EPOLLIN | ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                writable: bits & (ffi::EPOLLOUT | ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for EpollBackend {
    fn drop(&mut self) {
        // SAFETY: epfd is a valid fd owned exclusively by this backend; it
        // is closed exactly once, here.
        unsafe { ffi::close(self.epfd) };
    }
}

fn interest_bits(interest: Event) -> u32 {
    let mut bits = 0;
    if interest.readable {
        bits |= ffi::EPOLLIN;
    }
    if interest.writable {
        bits |= ffi::EPOLLOUT;
    }
    bits
}

// ---------------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------------

/// A readiness poller. All methods take `&self` and are safe to call from
/// any thread; `wait` is intended to be called from one loop thread while
/// other threads call `notify`/`add`/`modify`/`delete`.
pub struct Poller {
    backend: EpollBackend,
    notify_tx: Mutex<UnixStream>,
    notify_rx: Mutex<UnixStream>,
    notified: AtomicBool,
}

impl Poller {
    /// Create a poller (an epoll instance plus its notify pipe).
    pub fn new() -> io::Result<Self> {
        let backend = EpollBackend::new()?;
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let poller = Poller {
            backend,
            notify_tx: Mutex::new(tx),
            notify_rx: Mutex::new(rx),
            notified: AtomicBool::new(false),
        };
        let rx_fd = poller.lock_rx().as_raw_fd();
        poller.backend.ctl(ffi::EPOLL_CTL_ADD, rx_fd, Event::readable(NOTIFY_KEY))?;
        Ok(poller)
    }

    fn lock_rx(&self) -> std::sync::MutexGuard<'_, UnixStream> {
        self.notify_rx.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a socket under `interest.key`. The key must not be
    /// `NOTIFY_KEY`. Level-triggered: the key is reported on every `wait`
    /// while the condition holds.
    pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        if interest.key == NOTIFY_KEY {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "key reserved for notify"));
        }
        self.backend.ctl(ffi::EPOLL_CTL_ADD, source.as_raw_fd(), interest)
    }

    /// Change the interest set (and/or key) of a registered socket.
    pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        if interest.key == NOTIFY_KEY {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "key reserved for notify"));
        }
        self.backend.ctl(ffi::EPOLL_CTL_MOD, source.as_raw_fd(), interest)
    }

    /// Remove a socket from the poller.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.backend.ctl(ffi::EPOLL_CTL_DEL, source.as_raw_fd(), Event::none(0))
    }

    /// Block until at least one registered socket is ready, the timeout
    /// elapses, or `notify` is called. Ready events are appended to `out`
    /// (which is cleared first). The internal notify key is drained and
    /// filtered; a pure-notify wakeup yields an empty `out`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let mut raw = Vec::with_capacity(64);
        self.backend.wait(&mut raw, timeout, 1024)?;
        let mut woke = false;
        for ev in raw {
            if ev.key == NOTIFY_KEY {
                woke = true;
            } else {
                out.push(ev);
            }
        }
        if woke {
            let mut rx = self.lock_rx();
            let mut sink = [0u8; 64];
            while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
            self.notified.store(false, Ordering::Release);
        }
        Ok(())
    }

    /// Wake a concurrent `wait` from any thread. Coalesced: many notifies
    /// between waits produce one wakeup.
    pub fn notify(&self) -> io::Result<()> {
        if self.notified.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let mut tx = self.notify_tx.lock().unwrap_or_else(|p| p.into_inner());
        match tx.write(&[1u8]) {
            Ok(_) => Ok(()),
            // A full pipe already guarantees a pending wakeup.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Re-sizes the accept backlog of an already-listening socket.
///
/// `std::net::TcpListener::bind` hardcodes a backlog of 128, which a burst of
/// connects from a fast local client overflows in milliseconds whenever the
/// accepting thread loses the CPU — each overflowed SYN then costs the client
/// a full retransmission timeout (~1 s). POSIX permits calling `listen(2)`
/// again on a listening socket to resize the queue (the kernel clamps the
/// request to `net.core.somaxconn`), which is the only way to raise it without
/// rebuilding the socket from raw parts.
pub fn set_listen_backlog(listener: &impl AsRawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: the fd is a valid listening socket borrowed from the caller for
    // the duration of the call; listen(2) touches no user memory.
    let rc = unsafe { ffi::listen(listener.as_raw_fd(), backlog) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn epoll_readable_and_level_triggered() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.add(&b, Event::readable(7)).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "no data yet -> no events");
        a.write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);
        // Level-triggered: still ready until drained.
        poller.wait(&mut events, Some(Duration::from_millis(200))).unwrap();
        assert_eq!(events.len(), 1, "level-triggered re-report");
        poller.delete(&b).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "deleted fd no longer reported");
    }

    #[test]
    fn notify_wakes_wait_from_other_thread() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let p2 = poller.clone();
        let start = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            p2.notify().unwrap();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(events.is_empty(), "notify wakeup is filtered from results");
        assert!(start.elapsed() < Duration::from_secs(5), "woke by notify, not timeout");
        handle.join().unwrap();
        // Coalesced notifies: double-notify then single drain.
        poller.notify().unwrap();
        poller.notify().unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn writable_interest_reports_immediately() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        a.set_nonblocking(true).unwrap();
        poller.add(&a, Event::all(3)).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable, "fresh socket with empty send buffer is writable");
        poller.modify(&a, Event::readable(3)).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
        assert!(events.is_empty(), "after dropping write interest nothing is ready");
    }

    #[test]
    fn reserved_key_is_rejected() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        let err = poller.add(&a, Event::readable(NOTIFY_KEY)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn raised_backlog_absorbs_a_connect_burst_nobody_accepts() {
        // With std's hardcoded backlog of 128, the 300-connect burst below
        // would wedge on SYN retransmits (nobody accepts). After the raise,
        // the kernel queues the whole burst and every connect returns fast.
        let somaxconn: i32 = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        if somaxconn < 512 {
            return; // kernel would clamp the raise below the burst size
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        set_listen_backlog(&listener, 512).unwrap();
        let addr = listener.local_addr().unwrap();
        let t0 = std::time::Instant::now();
        let held: Vec<TcpStream> = (0..300).map(|_| TcpStream::connect(addr).unwrap()).collect();
        assert_eq!(held.len(), 300);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "burst took {:?} — backlog raise did not take",
            t0.elapsed()
        );
    }
}
