//! Async (`Future`-surface) sockets, and the one op core both socket
//! faces share.
//!
//! [`poll_op`] runs a nonblocking syscall; on `WouldBlock` it registers
//! the task's waker for readiness (and the op's deadline on the shard
//! wheel) and returns `Poll::Pending`. Readiness claims the waker-bound
//! [`crate::TimedWaiter`] and `Waker::wake` reschedules the task (for a
//! driven task that reduces to `make_ready`); the re-poll re-runs the
//! syscall, or reports `TimedOut` once the deadline has passed.
//! Level-triggered sticky interest makes register-then-Pending safe:
//! readiness that predates the arm is re-reported (see the reactor module
//! docs). The `AsyncTcp*` types here are the async face; the blocking
//! face in [`crate::net`] drives the same `poll_op` through `block_on`.
//!
//! The async types are consumed through `ult-future`, whose executor
//! supplies the wakers; any other executor works too — the wakers are
//! ordinary `std::task::Waker`s.

use crate::net::Registration;
use crate::reactor::{self, register_readiness, Dir};
use std::future::poll_fn;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::task::{Context, Poll};

/// Run `op` (a nonblocking syscall) once; on `WouldBlock`, register the
/// task's waker for `dir` readiness until `deadline` (absolute monotonic
/// ns) and report `Pending`, or report `TimedOut` when it has passed.
pub(crate) fn poll_op<T>(
    reg: &Registration,
    dir: Dir,
    deadline: Option<u64>,
    cx: &mut Context<'_>,
    mut op: impl FnMut() -> io::Result<T>,
) -> Poll<io::Result<T>> {
    reactor::note_wake(&reg.entry, dir);
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if deadline.is_some_and(|d| ult_sys::now_ns() >= d) {
                    reactor::clear_expired(&reg.entry, dir);
                    return Poll::Ready(Err(timed_out()));
                }
                return match register_readiness(&reg.entry, dir, cx.waker(), deadline) {
                    Ok(()) => Poll::Pending,
                    Err(e) => Poll::Ready(Err(e)),
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return Poll::Ready(other),
        }
    }
}

/// The error a per-op deadline ends an op with.
pub(crate) fn timed_out() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "I/O deadline elapsed")
}

/// An async TCP listener (the `Future`-surface sibling of
/// [`crate::TcpListener`]).
pub struct AsyncTcpListener {
    reg: Registration,
    inner: std::net::TcpListener,
}

impl AsyncTcpListener {
    /// Bind to `addr` (nonblocking, reactor-registered).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<AsyncTcpListener> {
        // blocking-ok: one-time setup before the fd joins the reactor; bind does not wait on peers
        let inner = std::net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(AsyncTcpListener {
            reg: Registration::new(inner.as_raw_fd())?,
            inner,
        })
    }

    /// Poll-accept one connection (the primitive `accept` is built on).
    pub fn poll_accept(
        &self,
        cx: &mut Context<'_>,
    ) -> Poll<io::Result<(AsyncTcpStream, SocketAddr)>> {
        match poll_op(&self.reg, Dir::Read, None, cx, || self.inner.accept()) {
            Poll::Ready(Ok((s, addr))) => {
                Poll::Ready(AsyncTcpStream::from_std(s).map(|s| (s, addr)))
            }
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }

    /// Accept one connection; the task suspends (never its worker) until a
    /// peer arrives. The returned stream is itself async.
    pub async fn accept(&self) -> io::Result<(AsyncTcpStream, SocketAddr)> {
        poll_fn(|cx| self.poll_accept(cx)).await
    }

    /// Local address of the listener.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

/// An async TCP stream (the `Future`-surface sibling of
/// [`crate::TcpStream`]).
pub struct AsyncTcpStream {
    reg: Registration,
    inner: std::net::TcpStream,
}

impl AsyncTcpStream {
    /// Wrap an accepted/connected std stream (switches it nonblocking).
    pub fn from_std(inner: std::net::TcpStream) -> io::Result<AsyncTcpStream> {
        inner.set_nonblocking(true)?;
        Ok(AsyncTcpStream {
            reg: Registration::new(inner.as_raw_fd())?,
            inner,
        })
    }

    /// Connect to `addr`. As in the blocking wrapper, the TCP handshake
    /// itself uses the brief blocking `std` connect (loopback/LAN:
    /// microseconds); all subsequent I/O is async.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<AsyncTcpStream> {
        // blocking-ok: documented brief blocking handshake; stream is nonblocking from then on
        AsyncTcpStream::from_std(std::net::TcpStream::connect(addr)?)
    }

    /// Poll-read into `buf`.
    pub fn poll_read(&self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        poll_op(&self.reg, Dir::Read, None, cx, || (&self.inner).read(buf))
    }

    /// Poll-write from `buf`.
    pub fn poll_write(&self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        poll_op(&self.reg, Dir::Write, None, cx, || (&self.inner).write(buf))
    }

    /// Read into `buf`, suspending the task until data (or EOF) arrives.
    pub async fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        poll_fn(|cx| self.poll_read(cx, buf)).await
    }

    /// Write from `buf`, suspending the task until the kernel takes bytes.
    pub async fn write(&self, buf: &[u8]) -> io::Result<usize> {
        poll_fn(|cx| self.poll_write(cx, buf)).await
    }

    /// Write the whole buffer.
    pub async fn write_all(&self, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.write(buf).await?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "write returned 0"));
            }
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Fill the whole buffer; EOF before it is full is `UnexpectedEof`.
    pub async fn read_exact(&self, mut buf: &mut [u8]) -> io::Result<()> {
        while !buf.is_empty() {
            let n = self.read(buf).await?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "early EOF"));
            }
            buf = &mut buf[n..];
        }
        Ok(())
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
