//! ULT-blocking sockets: the blocking face of the one socket op core.
//!
//! Thin wrappers over `std::net` sockets switched to nonblocking mode and
//! registered with the reactor. Every operation is `block_on` of the async
//! op core (`anet.rs::poll_op`): the nonblocking syscall runs first; on
//! `WouldBlock` the op registers interest and its deadline, the driver
//! parks the ULT, its KLT goes on running other ULTs, and fd readiness
//! re-pushes the ULT to its home worker. From the caller's view the API is
//! blocking `std::net`; from the kernel's view no runtime thread ever
//! sleeps in a socket syscall.
//!
//! Used outside the runtime (a plain OS thread), the ops degrade to
//! sleep-polling — correct, just not efficient; test clients use raw
//! `std::net` instead.

use crate::anet::{poll_op, timed_out};
use crate::reactor::{self, Dir, FdEntry};
use crate::task::block_on;
use std::future::poll_fn;
use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::net::{Shutdown, SocketAddr, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, FromRawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Reactor registration handle; deregisters on drop (declared before the
/// socket in every wrapper so `EPOLL_CTL_DEL` runs while the fd is open).
pub(crate) struct Registration {
    pub(crate) entry: Arc<FdEntry>,
}

impl Registration {
    pub(crate) fn new(fd: i32) -> io::Result<Registration> {
        Ok(Registration {
            entry: reactor::register_fd(fd)?,
        })
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        reactor::deregister_fd(&self.entry);
    }
}

/// Absolute deadline for a per-op timeout stored as ns (0 = none).
fn deadline_from(timeout_ns: &AtomicU64) -> Option<u64> {
    match timeout_ns.load(Ordering::Relaxed) {
        0 => None,
        ns => Some(ult_sys::now_ns().saturating_add(ns)),
    }
}

fn store_timeout(slot: &AtomicU64, dur: Option<Duration>) {
    let ns = dur
        .map(|d| (d.as_nanos().min(u64::MAX as u128) as u64).max(1))
        .unwrap_or(0);
    slot.store(ns, Ordering::Relaxed);
}

/// Run `op` (a nonblocking syscall) until it stops returning
/// `WouldBlock` or `deadline` passes. In a ULT this is the async op core
/// under [`block_on`]: the ULT parks on fd readiness through the future
/// driver. A plain OS thread has no driver and no reactor service to
/// count on, so it sleep-polls.
fn block_op<T>(
    reg: &Registration,
    dir: Dir,
    deadline: Option<u64>,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    if ult_core::in_ult() {
        return block_on(poll_fn(|cx| poll_op(reg, dir, deadline, cx, &mut op)));
    }
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if deadline.is_some_and(|d| ult_sys::now_ns() >= d) {
                    return Err(timed_out());
                }
                // blocking-ok: plain-KLT fallback path, only taken outside the runtime
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// A ULT-blocking TCP listener.
pub struct TcpListener {
    reg: Registration,
    inner: std::net::TcpListener,
}

impl TcpListener {
    /// Bind to `addr` (nonblocking, reactor-registered).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        // blocking-ok: one-time setup before the fd joins the reactor; bind does not wait on peers
        let inner = std::net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(TcpListener {
            reg: Registration::new(inner.as_raw_fd())?,
            inner,
        })
    }

    /// Accept one connection, suspending the calling ULT until a peer
    /// arrives. The returned stream is itself ULT-blocking.
    pub fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (s, addr) = block_op(&self.reg, Dir::Read, None, || self.inner.accept())?;
        Ok((TcpStream::from_std(s)?, addr))
    }

    /// Accept every connection the kernel has queued, in one drain.
    ///
    /// Suspends until at least one peer is pending, then loops `accept4`
    /// until `WouldBlock` (or `max` connections), paying one readiness
    /// park for the whole backlog instead of one per connection — the
    /// win under bursty connect storms. Streams come out of `accept4`
    /// already nonblocking (no extra `fcntl` per connection) and register
    /// with the accepting worker's reactor shard, so handler ULTs spawned
    /// by the caller start life with their fd already affined.
    pub fn accept_batch(&self, max: usize) -> io::Result<Vec<(TcpStream, SocketAddr)>> {
        let fd = self.inner.as_raw_fd();
        let mut out = Vec::new();
        let mut next = block_op(&self.reg, Dir::Read, None, || ult_sys::sockio::accept4(fd));
        loop {
            match next {
                Ok((fd, addr)) => {
                    // SAFETY: freshly accepted fd, exclusively owned here.
                    // blocking-ok: from_raw_fd is a pure ownership wrapper around an already-open fd; no syscall, nothing to wait on
                    let s = unsafe { std::net::TcpStream::from_raw_fd(fd) };
                    out.push((TcpStream::from_accept4(s)?, addr));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if out.is_empty() => return Err(e),
                // Backlog drained, or an error that will recur: deliver
                // what we have.
                Err(_) => break,
            }
            if out.len() >= max.max(1) {
                break;
            }
            next = ult_sys::sockio::accept4(fd);
        }
        reactor::note_accept_batch(out.len());
        Ok(out)
    }

    /// Local address of the listener.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

/// A ULT-blocking TCP stream.
pub struct TcpStream {
    reg: Registration,
    inner: std::net::TcpStream,
    read_timeout_ns: AtomicU64,
    write_timeout_ns: AtomicU64,
}

impl TcpStream {
    /// Wrap an accepted/connected std stream (switches it nonblocking).
    pub fn from_std(inner: std::net::TcpStream) -> io::Result<TcpStream> {
        inner.set_nonblocking(true)?;
        TcpStream::from_accept4(inner)
    }

    /// Wrap a stream that is already nonblocking (`accept4` with
    /// `SOCK_NONBLOCK` inherits nothing from the listener), skipping the
    /// redundant `fcntl` on the batched-accept hot path.
    fn from_accept4(inner: std::net::TcpStream) -> io::Result<TcpStream> {
        Ok(TcpStream {
            reg: Registration::new(inner.as_raw_fd())?,
            inner,
            read_timeout_ns: AtomicU64::new(0),
            write_timeout_ns: AtomicU64::new(0),
        })
    }

    /// Connect to `addr`. The TCP handshake itself uses the brief blocking
    /// `std` connect (loopback/LAN: microseconds); the established stream
    /// is then switched to ULT-blocking mode for all I/O.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        // blocking-ok: documented brief blocking handshake; stream is nonblocking from then on
        TcpStream::from_std(std::net::TcpStream::connect(addr)?)
    }

    /// Read into `buf`, suspending the ULT until data (or EOF) arrives.
    /// Honors the configured read timeout per call.
    pub fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let deadline = deadline_from(&self.read_timeout_ns);
        block_op(&self.reg, Dir::Read, deadline, || (&self.inner).read(buf))
    }

    /// Write from `buf`, suspending until the kernel accepts bytes.
    pub fn write(&self, buf: &[u8]) -> io::Result<usize> {
        let deadline = deadline_from(&self.write_timeout_ns);
        block_op(&self.reg, Dir::Write, deadline, || (&self.inner).write(buf))
    }

    /// Write the whole buffer (one shared per-call deadline).
    pub fn write_all(&self, mut buf: &[u8]) -> io::Result<()> {
        let deadline = deadline_from(&self.write_timeout_ns);
        while !buf.is_empty() {
            let n = block_op(&self.reg, Dir::Write, deadline, || (&self.inner).write(buf))?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "write returned 0"));
            }
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Fill the whole buffer (one shared per-call deadline); EOF before the
    /// buffer is full is `UnexpectedEof`.
    pub fn read_exact(&self, mut buf: &mut [u8]) -> io::Result<()> {
        let deadline = deadline_from(&self.read_timeout_ns);
        while !buf.is_empty() {
            let n = block_op(&self.reg, Dir::Read, deadline, || (&self.inner).read(buf))?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "early EOF"));
            }
            buf = &mut buf[n..];
        }
        Ok(())
    }

    /// Scatter-read into `bufs` with one `readv` syscall, suspending the
    /// ULT until data (or EOF) arrives. Honors the read timeout per call.
    pub fn read_vectored(&self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        let deadline = deadline_from(&self.read_timeout_ns);
        block_op(&self.reg, Dir::Read, deadline, || {
            ult_sys::sockio::readv(self.inner.as_raw_fd(), bufs)
        })
    }

    /// Gather-write from `bufs` with one `writev` syscall — header +
    /// payload without a copy or two writes. Suspends until the kernel
    /// accepts bytes; honors the write timeout per call.
    pub fn write_vectored(&self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let deadline = deadline_from(&self.write_timeout_ns);
        block_op(&self.reg, Dir::Write, deadline, || {
            ult_sys::sockio::writev(self.inner.as_raw_fd(), bufs)
        })
    }

    /// Per-op read deadline (None disables; granularity ~1 ms).
    pub fn set_read_timeout(&self, dur: Option<Duration>) {
        store_timeout(&self.read_timeout_ns, dur);
    }

    /// Per-op write deadline (None disables; granularity ~1 ms).
    pub fn set_write_timeout(&self, dur: Option<Duration>) {
        store_timeout(&self.write_timeout_ns, dur);
    }

    /// Peer address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    /// Local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Disable Nagle's algorithm (latency benchmarks want this).
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.inner.set_nodelay(on)
    }

    /// Shut down one or both directions.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }
}

impl Read for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        TcpStream::read(self, buf)
    }
}

impl Write for TcpStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        TcpStream::write(self, buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for &TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        TcpStream::read(self, buf)
    }
}

impl Write for &TcpStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        TcpStream::write(self, buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A ULT-blocking UDP socket.
pub struct UdpSocket {
    reg: Registration,
    inner: std::net::UdpSocket,
    read_timeout_ns: AtomicU64,
    write_timeout_ns: AtomicU64,
}

impl UdpSocket {
    /// Bind to `addr` (nonblocking, reactor-registered).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<UdpSocket> {
        // blocking-ok: one-time setup before the fd joins the reactor; bind does not wait on peers
        let inner = std::net::UdpSocket::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(UdpSocket {
            reg: Registration::new(inner.as_raw_fd())?,
            inner,
            read_timeout_ns: AtomicU64::new(0),
            write_timeout_ns: AtomicU64::new(0),
        })
    }

    /// Receive one datagram, suspending the ULT until one arrives.
    pub fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        let deadline = deadline_from(&self.read_timeout_ns);
        block_op(&self.reg, Dir::Read, deadline, || self.inner.recv_from(buf))
    }

    /// Send one datagram to `addr`.
    pub fn send_to<A: ToSocketAddrs>(&self, buf: &[u8], addr: A) -> io::Result<usize> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let deadline = deadline_from(&self.write_timeout_ns);
        block_op(&self.reg, Dir::Write, deadline, || {
            self.inner.send_to(buf, addr)
        })
    }

    /// Per-op receive deadline (None disables; granularity ~1 ms).
    pub fn set_read_timeout(&self, dur: Option<Duration>) {
        store_timeout(&self.read_timeout_ns, dur);
    }

    /// Per-op send deadline (None disables; granularity ~1 ms).
    pub fn set_write_timeout(&self, dur: Option<Duration>) {
        store_timeout(&self.write_timeout_ns, dur);
    }

    /// Local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}
