//! Functional tests of the reactor, sockets and timer wheel from inside
//! the runtime (and, for the per-op timeouts, from a plain OS thread).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ult_core::{Config, Runtime};

fn rt(workers: usize) -> Runtime {
    Runtime::start(Config {
        num_workers: workers,
        ..Config::default()
    })
}

#[test]
fn sleep_suspends_without_holding_the_worker() {
    let rt = rt(1);
    let progressed = Arc::new(AtomicBool::new(false));
    let p2 = progressed.clone();
    // Sleeper parks on the wheel; the second ULT must run meanwhile on the
    // single worker — impossible if sleep held the KLT.
    let sleeper = rt.spawn(move || {
        let t0 = ult_sys::now_ns();
        ult_io::sleep(Duration::from_millis(50));
        let elapsed = ult_sys::now_ns() - t0;
        assert!(
            elapsed >= 50_000_000,
            "sleep returned after {elapsed} ns < 50 ms"
        );
        assert!(p2.load(Ordering::SeqCst), "worker was held during sleep");
    });
    let marker = rt.spawn(move || {
        progressed.store(true, Ordering::SeqCst);
    });
    marker.join();
    sleeper.join();
    rt.shutdown();
}

#[test]
fn tcp_echo_between_ults() {
    let rt = rt(2);
    let ln = rt
        .spawn(|| ult_io::TcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();
    let server = rt.spawn(move || {
        let (s, _) = ln.accept().unwrap();
        let mut buf = [0u8; 64];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            s.write_all(&buf[..n]).unwrap();
        }
    });
    let client = rt.spawn(move || {
        let s = ult_io::TcpStream::connect(addr).unwrap();
        for i in 0..32u8 {
            let msg = [i; 16];
            s.write_all(&msg).unwrap();
            let mut back = [0u8; 16];
            s.read_exact(&mut back).unwrap();
            assert_eq!(back, msg);
        }
        s.shutdown(std::net::Shutdown::Write).unwrap();
    });
    client.join();
    server.join();
    rt.shutdown();
}

#[test]
fn udp_round_trip() {
    let rt = rt(1);
    rt.spawn(|| {
        let a = ult_io::UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = ult_io::UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr_b = b.local_addr().unwrap();
        assert_eq!(a.send_to(b"ping", addr_b).unwrap(), 4);
        let mut buf = [0u8; 16];
        let (n, from) = b.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(from, a.local_addr().unwrap());
    })
    .join();
    rt.shutdown();
}

/// Per-op timeout of the ops under test.
const TIMEOUT: Duration = Duration::from_millis(10);
/// Timeout of the op after it: it must complete on readiness well before.
const GUARD: Duration = Duration::from_secs(5);

/// A runtime stream and a plain `std::net` peer on loopback.
fn tcp_pair() -> (ult_io::TcpStream, std::net::TcpStream) {
    let ln = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let s = ult_io::TcpStream::connect(ln.local_addr().unwrap()).unwrap();
    (s, ln.accept().unwrap().0)
}

/// Run `peer` on a plain OS thread once the op under test has had time
/// to park.
fn later(peer: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        peer();
    })
}

fn assert_times_out<T: std::fmt::Debug>(op: impl FnOnce() -> std::io::Result<T>) {
    let t0 = ult_sys::now_ns();
    let err = op().unwrap_err();
    let waited = ult_sys::now_ns() - t0;
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert!(waited >= 9_000_000, "timed out after only {waited} ns");
}

fn tcp_read_times_out() {
    let (s, mut peer) = tcp_pair();
    s.set_read_timeout(Some(TIMEOUT));
    let mut buf = [0u8; 4];
    assert_times_out(|| s.read(&mut buf));
    let peer = later(move || peer.write_all(b"late").unwrap());
    s.set_read_timeout(Some(GUARD));
    s.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"late");
    peer.join().unwrap();
}

fn tcp_write_times_out() {
    let (s, mut peer) = tcp_pair();
    s.set_write_timeout(Some(TIMEOUT));
    let chunk = vec![7u8; 64 << 10];
    // The peer does not read: the first write that finds the send path
    // full has to time out.
    loop {
        let t0 = ult_sys::now_ns();
        if let Err(e) = s.write(&chunk) {
            let waited = ult_sys::now_ns() - t0;
            assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
            assert!(waited >= 9_000_000, "timed out after only {waited} ns");
            break;
        }
    }
    let peer = later(move || {
        std::io::copy(&mut peer, &mut std::io::sink()).unwrap();
    });
    s.set_write_timeout(Some(GUARD));
    s.write_all(&chunk).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    peer.join().unwrap();
}

fn udp_recv_times_out() {
    let s = ult_io::UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = s.local_addr().unwrap();
    s.set_read_timeout(Some(TIMEOUT));
    let mut buf = [0u8; 16];
    assert_times_out(|| s.recv_from(&mut buf));
    let peer = later(move || {
        let peer = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        peer.send_to(b"late", addr).unwrap();
    });
    s.set_read_timeout(Some(GUARD));
    let (n, _) = s.recv_from(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"late");
    peer.join().unwrap();
}

/// Every per-op timeout path: the op times out after its deadline, and the
/// next op on the same socket still completes once the peer acts — the
/// timed-out wait left no stale slot that would swallow the readiness.
#[test]
fn read_timeout_fires_and_connection_survives() {
    let rt = rt(2);
    let cases: [(&str, fn(), bool); 4] = [
        ("tcp read in a ULT", tcp_read_times_out, true),
        ("tcp write in a ULT", tcp_write_times_out, true),
        ("udp recv_from in a ULT", udp_recv_times_out, true),
        // No driver to park on: the sleep-poll fallback.
        ("tcp read on an OS thread", tcp_read_times_out, false),
    ];
    for (name, case, in_ult) in cases {
        eprintln!("case: {name}");
        if in_ult {
            rt.spawn(case).join();
        } else {
            case();
        }
    }
    rt.shutdown();
}

#[test]
fn many_concurrent_sleepers_fire_in_order() {
    let rt = rt(2);
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    // Spawn in shuffled deadline order to exercise wheel hashing.
    for &ms in &[40u64, 10, 30, 20, 50] {
        let order = order.clone();
        handles.push(rt.spawn(move || {
            ult_io::sleep(Duration::from_millis(ms));
            order.lock().push(ms);
        }));
    }
    for h in handles {
        h.join();
    }
    assert_eq!(*order.lock(), vec![10, 20, 30, 40, 50]);
    rt.shutdown();
}
