//! Runtime configuration.

/// Whether timers drive preemption (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerStrategy {
    /// No implicit preemption (traditional nonpreemptive M:N threads). The
    /// handler stays installed, so a raised tick is still handled.
    None,
    /// One timer per worker with aligned (staggered) phases (Fig. 5a).
    PerWorkerAligned,
}

/// Scheduling policy selection (paper §4.1–§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// BOLT-style random work stealing: local FIFO first, then steal from a
    /// random victim (paper §4.1).
    WorkStealing,
    /// Algorithm 1: the thread-packing scheduler with private/shared pool
    /// partitioning by the current active-worker count (paper §4.2).
    Packing,
    /// Two-level priority: high-priority FIFO drained before the
    /// low-priority LIFO (paper §4.3, simulation vs analysis threads).
    Priority,
}

/// Configuration for [`crate::Runtime`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of workers ("N" of M:N). Defaults to the number of CPUs.
    pub num_workers: usize,
    /// Preemption tick interval in nanoseconds (0 disables all timers).
    pub preempt_interval_ns: u64,
    /// Whether timers drive preemption: phase-aligned per-worker timers
    /// (paper §3.2) or none.
    pub timer_strategy: TimerStrategy,
    /// Scheduler policy.
    pub sched_policy: SchedPolicy,
    /// Default ULT stack size in bytes.
    pub stack_size: usize,
    /// Number of KLTs to pre-create in the global pool (KLT-switching warms
    /// up faster when the creator is ahead of demand).
    pub spare_klts: usize,
    /// Per-worker capacity of interruption-time sample buffers (Figure 4 /
    /// Table 1 instrumentation; 0 disables sampling).
    pub stat_samples: usize,
    /// Adaptive preemption quanta (LibPreemptible-style): when enabled,
    /// each worker scales its own timer interval between a quarter and four
    /// times `preempt_interval_ns`, shrinking when latency-class work is
    /// queued (or dispatch delay exceeds the current quantum) and stretching
    /// while only throughput-class work runs.
    /// Disabled by default: the fixed tick reproduces the paper.
    pub adaptive_quantum: bool,
    /// Hard cap on the elastic blocking-offload pool (`ult-future`'s
    /// `spawn_blocking`): plain KLTs that absorb unavoidable blocking
    /// syscalls so they never occupy a preemption-capable worker. The pool
    /// grows on demand up to this many KLTs and harvests idle ones after
    /// [`Config::blocking_keep_alive_ms`].
    pub max_blocking_threads: usize,
    /// Idle lifetime of an offload-pool KLT in milliseconds: a pool thread
    /// that draws no work for this long exits (elastic shrink).
    pub blocking_keep_alive_ms: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_workers: crate::sys_cpus(),
            preempt_interval_ns: 1_000_000, // 1 ms, the paper's default tick
            timer_strategy: TimerStrategy::PerWorkerAligned,
            sched_policy: SchedPolicy::WorkStealing,
            stack_size: ult_arch::stack::DEFAULT_STACK_SIZE,
            spare_klts: 2,
            stat_samples: 0,
            adaptive_quantum: false,
            max_blocking_threads: 64,
            blocking_keep_alive_ms: 2_000,
        }
    }
}

impl Config {
    /// Validate and normalize the configuration.
    pub fn validated(mut self) -> Result<Config, String> {
        if self.num_workers == 0 {
            return Err("num_workers must be >= 1".into());
        }
        if self.num_workers > 4096 {
            return Err("num_workers too large (max 4096)".into());
        }
        if self.stack_size < ult_arch::stack::MIN_STACK_SIZE {
            self.stack_size = ult_arch::stack::MIN_STACK_SIZE;
        }
        if self.max_blocking_threads == 0 {
            self.max_blocking_threads = 1;
        }
        if self.max_blocking_threads > 4096 {
            return Err("max_blocking_threads too large (max 4096)".into());
        }
        if self.blocking_keep_alive_ms == 0 {
            self.blocking_keep_alive_ms = 1;
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = Config::default().validated().unwrap();
        assert!(c.num_workers >= 1);
        assert_eq!(c.preempt_interval_ns, 1_000_000);
    }

    #[test]
    fn zero_workers_rejected() {
        let c = Config {
            num_workers: 0,
            ..Config::default()
        };
        assert!(c.validated().is_err());
    }

    #[test]
    fn tiny_stack_normalized() {
        let c = Config {
            stack_size: 1,
            ..Config::default()
        };
        let c = c.validated().unwrap();
        assert!(c.stack_size >= ult_arch::stack::MIN_STACK_SIZE);
    }

    #[test]
    fn blocking_pool_knobs_normalized() {
        let c = Config {
            max_blocking_threads: 0,
            blocking_keep_alive_ms: 0,
            ..Config::default()
        };
        let c = c.validated().unwrap();
        assert_eq!(c.max_blocking_threads, 1);
        assert_eq!(c.blocking_keep_alive_ms, 1);
        let c = Config {
            max_blocking_threads: 1 << 16,
            ..Config::default()
        };
        assert!(c.validated().is_err());
    }

    #[test]
    fn huge_worker_count_rejected() {
        let c = Config {
            num_workers: 1 << 20,
            ..Config::default()
        };
        assert!(c.validated().is_err());
    }
}
