//! More workers than shards: a shard that several ranks share reaches
//! `Runtime::stats` once. Its own binary, because the shard count is fixed
//! for the life of the process.

use std::sync::atomic::Ordering;
use std::time::Duration;
use ult_core::stats::{shard_counters, ShardCounters};
use ult_core::{Config, Priority, Runtime, RuntimeStats, ThreadKind};

fn shard_only(sh: &ShardCounters) -> RuntimeStats {
    let mut s = RuntimeStats::default();
    sh.add_to(&mut s);
    s
}

#[test]
fn a_shared_shard_is_summed_once() {
    assert!(
        ult_io::configure_shards(1),
        "the shard count was already fixed"
    );
    let rt = Runtime::start(Config {
        num_workers: 3,
        ..Config::default()
    });
    // Sleepers on every worker: each arms the one shard's wheel, and the
    // owner parks in its `epoll_wait` while they wait.
    let sleepers: Vec<_> = (0..3)
        .map(|w| {
            rt.spawn_on(w, ThreadKind::Nonpreemptive, Priority::High, || {
                for _ in 0..5 {
                    ult_io::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();
    for h in sleepers {
        h.join();
    }
    let sh = shard_counters(0).expect("shard 0 exists");
    assert!(shard_counters(1).is_none() && shard_counters(2).is_none());
    // The workers are idle now, but a late poll may land between the two
    // reads: retry until a pair agrees. Summed per rank, they never would.
    let (st, one) = (0..100)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(2));
            (rt.stats(), shard_only(sh))
        })
        .find(|(st, one)| st.io_polls == one.io_polls && st.io_parks == one.io_parks)
        .unwrap_or_else(|| (rt.stats(), shard_only(sh)));
    assert!(one.io_polls > 0 && one.io_parks > 0, "{one:?}");
    assert_eq!(st.io_polls, one.io_polls, "{st:?}");
    assert_eq!(st.io_parks, one.io_parks, "{st:?}");
    assert_eq!(
        st.io_doorbell_rings,
        sh.io_doorbell_rings.load(Ordering::Relaxed)
    );
    rt.shutdown();
}
