//! An idle worker's spin and polls follow how long its parks last: a
//! server that waits between requests parks at once and polls once per
//! park, and a closed loop keeps its spin. Its own binary, because the
//! counters of the shard the worker parks in are process-wide.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use ult_core::{Config, Runtime, RuntimeStats};

/// The cap of a worker's idle spin, in `PAUSE`s.
const IDLE_SPIN_MAX: u32 = 256;

/// One 64-byte request and its echo.
fn round_trip(client: &mut TcpStream, i: usize) {
    let msg = [i as u8; 64];
    client.write_all(&msg).unwrap();
    let mut back = [0u8; 64];
    client.read_exact(&mut back).unwrap();
    assert_eq!(back, msg);
}

/// Spin per idle wait that parked, ns, between two snapshots.
fn spin_per_park(a: &RuntimeStats, b: &RuntimeStats) -> f64 {
    (b.idle_spin_ns - a.idle_spin_ns) as f64 / (b.idle_parks - a.idle_parks).max(1) as f64
}

/// The least time `IDLE_SPIN_MAX` bare `PAUSE`s take here, ns: a lower
/// bound of a full idle spin, which also watches the pools.
fn full_spin_ns() -> f64 {
    (0..20)
        .map(|_| {
            let t0 = ult_sys::now_ns();
            for _ in 0..IDLE_SPIN_MAX {
                core::hint::spin_loop();
            }
            ult_sys::now_ns() - t0
        })
        .min()
        .unwrap() as f64
}

#[test]
fn an_idle_worker_spins_and_polls_by_how_long_it_parks() {
    let rt = Runtime::start(Config {
        num_workers: 1,
        ..Config::default()
    });
    let ln = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = ln.local_addr().unwrap();
    let server = rt.spawn(move || {
        let s = ult_io::TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        let mut buf = [0u8; 64];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            s.write_all(&buf[..n]).unwrap();
        }
    });
    let mut client = ln.accept().unwrap().0;
    client.set_nodelay(true).unwrap();

    // Open loop: a request every millisecond, far beyond a short park.
    let start = rt.stats();
    let mut learned = None;
    for i in 0..300 {
        if i == 100 {
            learned = Some(rt.stats());
        }
        round_trip(&mut client, i);
        std::thread::sleep(Duration::from_millis(1));
    }
    let (learned, open) = (learned.unwrap(), rt.stats());
    let (polls, parks) = (
        open.io_polls - start.io_polls,
        open.io_parks - start.io_parks,
    );
    assert!(
        parks >= 300 && polls <= parks + 10,
        "a park is the shard's poll: {polls} polls for {parks} parks"
    );
    let idle_spin = spin_per_park(&learned, &open);
    assert!(
        idle_spin <= 1_000.0,
        "{idle_spin:.0} ns of spin per park between requests 1 ms apart"
    );

    // Closed loop: the next request comes as soon as the echo is back.
    for i in 0..2000 {
        round_trip(&mut client, i);
    }
    let closed = rt.stats();
    let (idle_spin, full) = (spin_per_park(&open, &closed), full_spin_ns());
    println!(
        "open loop: {polls} polls, {parks} parks, {:.0} ns spin/park; \
         closed loop: {idle_spin:.0} ns spin/park over {} parks (full spin {full:.0} ns)",
        spin_per_park(&learned, &open),
        closed.idle_parks - open.idle_parks
    );
    assert!(
        idle_spin >= full / 2.0,
        "{idle_spin:.0} ns of spin per park in a closed loop, against \
         {full:.0} ns for a full spin ({} parks)",
        closed.idle_parks - open.idle_parks
    );

    drop(client);
    server.join();
    rt.shutdown();
}
