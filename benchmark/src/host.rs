//! What the numbers were measured on and what they cost: a host
//! fingerprint for every output, and process / thread resource usage.

use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// `struct rusage` of x86-64 Linux (glibc): two timevals and 14 longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    _maxrss_kb: i64,
    _ixrss: i64,
    _idrss: i64,
    _isrss: i64,
    minflt: i64,
    _majflt: i64,
    _nswap: i64,
    _inblock: i64,
    _oublock: i64,
    _msgsnd: i64,
    _msgrcv: i64,
    _nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    // The vendored `libc` stand-in does not declare getrusage; the symbol
    // itself comes from the C library every Rust binary links.
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    // Not declared by the vendored `libc` stand-in either.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: libc::clockid_t = 3;
const SCHED_IDLE: i32 = 5;

/// Process resource usage since start.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub vol_cs: u64,
    pub invol_cs: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut r = RawRusage::default();
        // SAFETY: `r` is a valid out-pointer with the kernel's layout for
        // this target; RUSAGE_SELF always exists.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
        Usage {
            user_s: tv(r.utime),
            sys_s: tv(r.stime),
            minor_faults: r.minflt as u64,
            vol_cs: r.nvcsw as u64,
            invol_cs: r.nivcsw as u64,
        }
    }

    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_cs: self.vol_cs - earlier.vol_cs,
            invol_cs: self.invol_cs - earlier.invol_cs,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set of this process, MB: `VmHWM` of `/proc/self/status`.
/// (`getrusage`'s `ru_maxrss` will not do: across `fork`+`exec` it keeps
/// the launcher's resident size, so a 12 MB Python parent hides a 5 MB run.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: valid out-pointer; the per-thread CPU clock always exists.
    unsafe { libc::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Keep every CPU busy for a second. The reference host clocks an idle CPU
/// down to half speed and takes ~0.7 s of load to clock it up again; a run
/// that starts on idle CPUs (the first of a series, or after `cargo`'s own
/// start-up) would otherwise time its first set-ups at half speed —
/// `forkjoin`'s five read 0.52, 0.47, 0.38, 0.26, 0.25 s.
pub fn wake_cpus() {
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                let t0 = ult_sys::now_ns();
                while ult_sys::now_ns() - t0 < 1_000_000_000 {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// A thread of the idle scheduling class that spins whenever no other
/// thread wants its CPU, so that a CPU whose worker sleeps does not halt.
/// Waking a halted vCPU is the hypervisor's business, not the runtime's: on
/// the reference host it is 16 µs of `echo_idle`'s 57 µs round trip, and
/// that round trip read 71 µs in another hour. Any waking thread preempts
/// an idle-class thread at once, so the worker loses nothing to it.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,  // ordering: relaxed flag, the join publishes nothing
    cpu_ns: Arc<AtomicU64>, // ordering: counter
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let (stop2, cpu2) = (stop.clone(), cpu_ns.clone());
        let thread = std::thread::spawn(move || {
            let param = SchedParam { sched_priority: 0 };
            // SAFETY: pid 0 is the calling thread; `param` outlives the call.
            if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                // At normal priority it would take the worker's CPU instead
                // of its idle time: better a CPU that halts.
                eprintln!("keep-awake: cannot enter the idle scheduling class; CPUs may halt");
                return;
            }
            while !stop2.load(Ordering::Relaxed) {
                let t0 = ult_sys::now_ns();
                while ult_sys::now_ns() - t0 < 20_000 {
                    std::hint::spin_loop();
                }
                cpu2.store((thread_cpu_s() * 1e9) as u64, Ordering::Relaxed);
            }
        });
        KeepAwake {
            stop,
            cpu_ns,
            thread: Some(thread),
        }
    }

    /// CPU seconds the thread has used so far (to within one 20 µs spin).
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            // The thread cannot panic; nothing to report from a drop anyway.
            let _ = t.join();
        }
    }
}

/// 1-minute load average, if the host exposes it.
pub fn loadavg_1m() -> Option<f64> {
    read_trim("/proc/loadavg")?.split(' ').next()?.parse().ok()
}

/// The commit being measured: from the checkout's `.git` when there is one
/// (the benchmark driver runs in an export without it).
fn git_commit() -> String {
    let head = match read_trim(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trim(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// One line describing the host and the run's sizing.
pub fn fingerprint(workers: usize, seed: u64, extra: &str) -> String {
    let n = nproc();
    let cpu = read_trim("/proc/cpuinfo")
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read_trim("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let governor = read_trim("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(|| "n/a".into());
    let mut s = String::new();
    let _ = write!(
        s,
        "host: nproc={n} kernel={kernel} cpu=\"{cpu}\" governor={governor} W={workers} seed={seed} commit={}",
        git_commit()
    );
    if !extra.is_empty() {
        let _ = write!(s, " {extra}");
    }
    s
}

/// Loadavg note for a result: measured values taken while something else
/// kept the CPUs busy are annotated, not trusted.
pub fn load_note(before: Option<f64>, after: Option<f64>) -> String {
    let show = |v: Option<f64>| v.map_or("n/a".into(), |v| format!("{v:.2}"));
    let busy = before.is_some_and(|l| l > 0.5 * nproc() as f64);
    format!(
        "loadavg_1m: before={} after={}{}",
        show(before),
        show(after),
        if busy {
            " NOISY_HOST (1-min loadavg > 0.5*nproc before the run)"
        } else {
            ""
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_monotonic_and_plausible() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = Usage::now();
        assert!(b.cpu_s() >= a.cpu_s());
        assert!(peak_rss_mb() > 0.5 && peak_rss_mb() < 100_000.0);
        assert!(thread_cpu_s() > 0.0);
    }

    #[test]
    fn fingerprint_names_the_sizing() {
        let f = fingerprint(2, 9, "rate=2000/s");
        assert!(f.contains("W=2") && f.contains("seed=9") && f.contains("rate=2000/s"));
        assert!(f.contains(&format!("nproc={}", nproc())));
    }
}
