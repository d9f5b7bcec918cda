//! The runtime: startup, KLT home loops, the KLT creator, spawn and
//! shutdown.
//!
//! The threading model is the paper's (§2.1): on initialization the runtime
//! creates as many workers as configured, each with one KLT and one
//! scheduler context. KLT-switching (§3.1.2) adds a global KLT pool,
//! worker-local KLT pools (§3.3.2) and a dedicated KLT-creator thread
//! (because `pthread_create` is not async-signal-safe).

use crate::api::SpawnAttrs;
use crate::config::{Config, TimerStrategy};
use crate::klt::{bind_current_klt, unbind_current_klt, Directive, Klt, KltCreator, KltPool};
use crate::preempt::tick;
use crate::stats::{RuntimeCounters, RuntimeStats};
use crate::thread::{JoinHandle, Packet, Priority, RunOnce, ThreadKind, Ult};
use crate::worker::Worker;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use ult_arch::{CacheAligned, Context, Stack};
use ult_sys::timer::IntervalTimer;

/// Runtimes whose workers the reactor's watcher thread may signal, as
/// `(RuntimeInner::id, address)`. The watcher and its watch slots are
/// process-global and outlive every runtime, so `io_hook::io_kick` looks its
/// target up here and signals with the lock held; `shutdown_impl` removes the
/// entry before any KLT exits, after which a stale watch slot finds nothing.
pub(crate) static LIVE: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
/// Source of `RuntimeInner::id`; starts at 1 so a watch-owner token is nonzero.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1); // ordering: counter

/// Capacity (in ULTs) reserved in every pool at start; pools grow outside
/// signal handlers as needed (`ensure_pool_capacity`).
const INITIAL_POOL_CAPACITY: usize = 1024;

/// The ULT counts every spawn writes.
pub(crate) struct UltCensus {
    /// Live (spawned, not yet finished) ULTs.
    pub live: AtomicUsize, // ordering: acqrel gates shutdown
    /// Monotonic ULT id source.
    pub next_id: AtomicU64, // ordering: counter
}

/// Shared runtime state (everything the schedulers and handlers touch).
pub(crate) struct RuntimeInner {
    /// Process-unique id, never reused (key into [`LIVE`]).
    pub id: u64,
    /// The validated configuration.
    pub config: Config,
    /// All workers, indexed by rank.
    pub workers: Box<[Arc<Worker>]>,
    /// Global idle-KLT pool (paper §3.1.2).
    pub global_klts: KltPool,
    /// The KLT-creator request mailbox.
    pub creator: KltCreator,
    /// The runtime-scope counters (`stats.rs`).
    pub counters: RuntimeCounters,
    /// Whether timers, and so tick elision, are in play
    /// (`preempt_interval_ns > 0` and a real timer strategy). Precomputed so
    /// hot paths pay one bool load.
    pub tick_elision: bool,
    /// Slack added to `now_coarse_ns()` reads in the handler's deadline
    /// filter: 2× the coarse clock's resolution, so
    /// `coarse_now + slack < deadline` soundly implies the tick is early.
    /// Precomputed at startup (`clock_getres` is not a hot-path call).
    pub coarse_slack_ns: u64,
    /// Runtime is shutting down.
    pub shutdown: AtomicBool, // ordering: acqrel
    /// Number of currently active workers (thread packing, §4.2).
    pub active_workers: AtomicUsize, // ordering: acqrel
    /// Written by every spawn and every finish, on whichever worker runs
    /// them: a line of its own, so those writes do not keep taking the line
    /// of the read-mostly fields every `on_ready` and `idle_wait` reads.
    pub ults: CacheAligned<UltCensus>,
    /// High-water mark for per-pool capacity reservations.
    pool_reserve_mark: AtomicUsize, // ordering: acqrel
    /// Round-robin cursor for external spawns.
    spawn_rr: AtomicUsize, // ordering: counter
    /// Global overflow for recycled ULT stacks (default size only): an
    /// `mmap` plus guard-page `mprotect` per spawn costs ~10 µs; reuse
    /// brings ULT creation to the microsecond range the paper's runtimes
    /// exhibit.
    /// The fast path is the per-worker `Worker::stack_cache` free lists
    /// (no lock, owner-only); this mutex-guarded pool only serves spawns
    /// from outside the runtime and worker-cache overflow.
    stack_cache: Mutex<Vec<Stack>>,
    /// All KLTs ever created (kept alive for raw-pointer safety).
    pub klt_registry: Mutex<Vec<Arc<Klt>>>,
    /// OS join handles for all KLT threads + the creator.
    thread_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl RuntimeInner {
    /// The runtime's state for `config` — workers, pools, timers — with no
    /// thread started yet ([`Runtime::start`] does that).
    pub(crate) fn new(config: Config) -> Arc<RuntimeInner> {
        let config = config.validated().expect("invalid Config");

        let n = config.num_workers;
        let workers: Box<[Arc<Worker>]> = (0..n)
            .map(|rank| Worker::new(rank, INITIAL_POOL_CAPACITY, config.stat_samples))
            .collect();

        // Warm the coarse-clock resolution cache while no handler can run;
        // afterwards `coarse_resolution_ns()` is a single atomic load.
        let coarse_slack_ns = 2 * ult_sys::coarse_resolution_ns();
        let tick_elision =
            config.preempt_interval_ns > 0 && config.timer_strategy != TimerStrategy::None;

        let inner = Arc::new(RuntimeInner {
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            tick_elision,
            coarse_slack_ns,
            global_klts: KltPool::new(usize::MAX),
            creator: KltCreator::new(),
            counters: RuntimeCounters::new(),
            shutdown: AtomicBool::new(false),
            active_workers: AtomicUsize::new(n),
            ults: CacheAligned::new(UltCensus {
                live: AtomicUsize::new(0),
                next_id: AtomicU64::new(1),
            }),
            pool_reserve_mark: AtomicUsize::new(INITIAL_POOL_CAPACITY),
            spawn_rr: AtomicUsize::new(0),
            stack_cache: Mutex::new(Vec::new()),
            klt_registry: Mutex::new(Vec::new()),
            thread_handles: Mutex::new(Vec::new()),
            workers,
            config,
        });
        for w in inner.workers.iter() {
            w.rt.store(Arc::as_ptr(&inner) as *mut RuntimeInner, Ordering::Release);
        }
        inner
    }

    /// Reserve pool capacity so signal handlers can always push without
    /// allocating (see `pool.rs` module docs).
    pub(crate) fn ensure_pool_capacity(&self, live: usize) {
        let needed = live + 16;
        let mark = self.pool_reserve_mark.load(Ordering::Acquire);
        if needed <= mark {
            return;
        }
        let new_mark = needed.next_power_of_two().max(INITIAL_POOL_CAPACITY);
        for w in self.workers.iter() {
            w.pool.reserve(new_mark);
            w.lo_pool.reserve(new_mark);
        }
        self.pool_reserve_mark.fetch_max(new_mark, Ordering::AcqRel);
    }

    /// Wake one idle active worker (after making work available).
    ///
    /// Callers must have already published the work (pool push). The
    /// SeqCst fence pairs with the one in `idle_wait`: without it, this
    /// side can read a stale `idle == false` while the worker reads a
    /// stale empty pool — a lost wakeup that strands queued work forever.
    ///
    /// `caller` is the worker the calling context embodies, if it is one of
    /// ours, and is never the one elected. Its `idle` flag can be up — a
    /// worker delivers readiness from inside its own `shard_park` — but it
    /// is awake and rescans its pools when the park returns; a token for
    /// itself would only send its next park straight back through
    /// `idle_wait`, and would leave a truly idle peer asleep.
    pub(crate) fn wake_one_idle(&self, caller: Option<&Worker>) {
        std::sync::atomic::fence(Ordering::SeqCst);
        let active = self.active_workers.load(Ordering::Acquire);
        let caller = caller.map(|c| c.rank);
        for w in self.workers.iter().take(active) {
            if Some(w.rank) != caller && w.idle.load(Ordering::SeqCst) {
                w.unpark();
                return;
            }
        }
    }

    /// Register a brand-new KLT and start its home-loop thread.
    pub(crate) fn start_klt(self: &Arc<Self>, first_worker: Option<usize>) -> Arc<Klt> {
        let mut reg = self.klt_registry.lock();
        let id = reg.len();
        let klt = Klt::new(id);
        reg.push(klt.clone());
        drop(reg);
        let rt = self.clone();
        let k = klt.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ult-klt-{id}"))
            .spawn(move || klt_main(rt, k, first_worker))
            .expect("spawn KLT");
        self.thread_handles.lock().push(handle);
        klt
    }

    /// Return an idle KLT to the pools: the preferring worker's local pool
    /// first (paper §3.3.2), overflowing to the global pool.
    pub(crate) fn release_klt(&self, klt: &Arc<Klt>, prefer_rank: usize) {
        if prefer_rank < self.workers.len() {
            // Err means the local pool is full; overflow to the global pool.
            if self.workers[prefer_rank]
                .local_klts
                .push(klt.clone())
                .is_ok()
            {
                return;
            }
        }
        let _ = self.global_klts.push(klt.clone());
    }

    /// Global stack-overflow cache capacity (bounds idle memory).
    const STACK_CACHE_MAX: usize = 128;
    /// Per-worker stack free-list capacity.
    const WORKER_STACK_CACHE_MAX: usize = 32;
    /// Per-worker finished-descriptor slab capacity: one `forkjoin` wave
    /// (a descriptor is about 200 B; a stack is 64 KiB and stays capped at
    /// 32).
    const WORKER_ULT_CACHE_MAX: usize = 64;

    /// Return a reclaimed stack to the caches: `w`'s free list, overflowing
    /// globally.
    fn cache_stack(&self, w: &Worker, stack: Stack) {
        // SAFETY: owner access — `w` is the caller's own worker with
        // preemption disabled (scheduler context or pinned ULT).
        let cache = unsafe { &mut *w.stack_cache.get() };
        if cache.len() < Self::WORKER_STACK_CACHE_MAX {
            cache.push(stack);
            return;
        }
        let mut cache = self.stack_cache.lock();
        if cache.len() < Self::STACK_CACHE_MAX {
            cache.push(stack);
        }
    }

    /// Take a recycled stack: worker-local first (no lock), then the global
    /// overflow pool.
    fn take_cached_stack(&self, w: Option<&Worker>) -> Option<Stack> {
        if let Some(w) = w {
            // SAFETY: owner access, as in `cache_stack`.
            let cache = unsafe { &mut *w.stack_cache.get() };
            if let Some(s) = cache.pop() {
                return Some(s);
            }
        }
        self.stack_cache.lock().pop()
    }

    /// Park a finished descriptor in `w`'s slab for the next spawn there,
    /// if nothing else refers to it (a handle's clone of `JoinHandle::ult`,
    /// or for a moment the scheduler that finished it elsewhere) and the
    /// slab has room; drop it otherwise. Every slab entry is so uniquely
    /// owned, and stays so: nobody else can reach it to clone or downgrade.
    fn cache_ult(w: &Worker, t: Arc<Ult>) {
        // SAFETY: owner access, as in `cache_stack`.
        let cache = unsafe { &mut *w.ult_cache.get() };
        if cache.len() < Self::WORKER_ULT_CACHE_MAX
            && Arc::strong_count(&t) == 1
            && Arc::weak_count(&t) == 0
        {
            cache.push(t);
        }
    }

    /// A ULT finished on `w`'s scheduler context: recycle its stack, wake
    /// its joiner, decrement the live count and, when no handle refers to
    /// it any more (it was detached, as `ult-future` tasks are), recycle its
    /// descriptor; a joined one goes back to the joiner's worker instead
    /// (`recycle_joined`).
    pub(crate) fn on_finish(&self, w: &Worker, t: Arc<Ult>) {
        // Reclaim the stack first: the thread's context is dead and the
        // stack can serve the next spawn without an mmap.
        if let Some(stack) = t.take_stack() {
            self.cache_stack(w, stack);
        }
        // Order is load-bearing: mark Finished first so that a late joiner
        // registration observes it and skips blocking; then drain the one
        // that got in before.
        if t.finish() {
            self.counters
                .join_futex_wakes
                .fetch_add(1, Ordering::Relaxed);
        }
        if let Some(j) = t.take_joiner() {
            crate::api::make_ready(&j);
        }
        w.stats.completed.fetch_add(1, Ordering::Relaxed);
        Self::cache_ult(w, t);
        self.ults.live.fetch_sub(1, Ordering::AcqRel);
    }

    /// Take the newest (hottest) descriptor from `w`'s slab, if any.
    fn take_recyclable_ult(w: &Worker) -> Option<Arc<Ult>> {
        // SAFETY: owner access — the spawn path holds a pin on `w`.
        unsafe { (*w.ult_cache.get()).pop() }
    }

    /// Core spawn path shared by all public spawn flavors.
    pub(crate) fn spawn_ult<T, F>(&self, attrs: SpawnAttrs, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        assert!(
            !self.shutdown.load(Ordering::Acquire),
            "spawn on a shut-down runtime"
        );
        let live = self.ults.live.fetch_add(1, Ordering::AcqRel) + 1;
        self.ensure_pool_capacity(live);
        let id = self.ults.next_id.fetch_add(1, Ordering::Relaxed);
        // The closure and its result slot, in the spawn's one allocation,
        // made before any pin: it must not sit inside a preemption-off
        // window.
        let packet = Arc::new(Packet::new(f));
        let entry: Arc<dyn RunOnce> = packet.clone();

        // Fast lane: pin the spawner's worker ONCE, up front. The pin (a)
        // fixes the placement hint, (b) licenses lock-free access to the
        // worker's stack/descriptor free lists, and (c) licenses the
        // CAS-free owner push in on_ready.
        let mut pinned = self.pin_own_worker();
        let home = match (attrs.home_pool, pinned) {
            (Some(rank), _) => rank % self.workers.len(),
            (None, Some(w)) => w.rank,
            (None, None) => self.spawn_rr.fetch_add(1, Ordering::Relaxed) % self.workers.len(),
        };
        // Owner-cache accesses (these are what the pin licenses): a
        // recycled stack and a recycled descriptor.
        let stack = self.take_cached_stack(pinned);
        let slot = pinned.and_then(Self::take_recyclable_ult);
        if stack.is_none() || slot.is_none() {
            // Cache miss: something must be allocated (Stack::new is an
            // mmap + guard-page mprotect, ~10 µs). Release the pin first so
            // the allocations don't hold preemption off and inflate the
            // worker's preemption-latency tail; re-pin for the final push.
            if let Some(cw) = pinned.take() {
                cw.preempt_enable();
            }
        }
        let stack = stack
            .unwrap_or_else(|| Stack::new(self.config.stack_size).expect("ULT stack allocation"));
        crate::debug_registry::event(crate::debug_registry::ev::SPAWN, id, home as u64);

        let ult = match slot {
            Some(mut slot) => {
                let t = Arc::get_mut(&mut slot).expect("a slab descriptor is uniquely owned");
                Ult::reset_for_spawn(t, id, &attrs, home, stack, entry);
                slot
            }
            None => {
                self.counters
                    .ult_descriptor_allocs
                    .fetch_add(1, Ordering::Relaxed);
                Ult::new(id, &attrs, home, stack, entry)
            }
        };
        ult.set_runtime(self);
        ult.set_state(crate::thread::UltState::Ready);

        // Re-pin if the miss path released the pin. The ULT may have been
        // preempted and migrated meanwhile, so re-resolve the current
        // worker (`home` stays what was hinted above — it is placement
        // policy, not an ownership claim).
        if pinned.is_none() {
            pinned = self.pin_own_worker();
        }
        // Route to a pool. When called from inside a worker, on_ready uses
        // that worker's local queue under the migration pin (owner push);
        // externally, the home worker's remote inbox.
        match pinned {
            Some(cw) => {
                crate::sched::on_ready(self, cw, ult.clone(), true, true);
                cw.preempt_enable();
            }
            None => crate::sched::on_ready(self, &self.workers[home], ult.clone(), true, false),
        }
        JoinHandle {
            ult,
            output: packet,
        }
    }

    /// Pin the caller's worker if it is one of this runtime's (a worker of
    /// another runtime counts as external).
    fn pin_own_worker(&self) -> Option<&Worker> {
        let cw = crate::api::pin_current_worker()?;
        if std::ptr::eq(cw.runtime(), self) {
            Some(cw)
        } else {
            cw.preempt_enable();
            None
        }
    }
}

/// Give a joined ULT's descriptor to the joining worker's slab: the
/// spawner usually joins, so its next spawn reuses it. Outside the runtime
/// the descriptor is dropped.
pub(crate) fn recycle_joined(t: Arc<Ult>) {
    if let Some(w) = crate::api::pin_current_worker() {
        RuntimeInner::cache_ult(w, t);
        w.preempt_enable();
    }
}

/// Home loop of every KLT (see `klt.rs` module docs).
fn klt_main(rt: Arc<RuntimeInner>, klt: Arc<Klt>, first_worker: Option<usize>) {
    // Per-KLT alternate signal stack: the preemption handlers do NOT use
    // SA_ONSTACK (signal-yield requires the handler frame on the ULT
    // stack), but crash handlers (SIGSEGV diagnostics in harnesses) do, and
    // without an altstack a guard-page fault dies silently.
    install_altstack();
    bind_current_klt(&klt);
    // This KLT's timer, for life: created disarmed (interval 0) before the
    // KLT is offered to any pool or worker, armed and disarmed as it starts
    // and stops embodying workers, deleted when this function returns.
    // A failed `timer_create` leaves the KLT tickless.
    let signum = crate::preempt::preempt_signum();
    let timer = match rt
        .tick_elision
        .then(|| IntervalTimer::per_thread(klt.tid(), signum, 0, 0))
    {
        Some(Err(_)) => {
            let w = &rt.workers[first_worker.unwrap_or(0)];
            w.stats
                .timer_create_failures
                .fetch_add(1, Ordering::Relaxed);
            None
        }
        timer => timer.and_then(Result::ok),
    };
    klt.set_timer(timer.as_ref());
    match first_worker {
        Some(rank) => {
            // Initial embodiment: pre-assign and fall through the first park.
            klt.assigned_worker.store(
                Arc::as_ptr(&rt.workers[rank]) as *mut Worker,
                Ordering::Release,
            );
            klt.unpark_home();
        }
        None => {
            // Creator-spawned spare: advertise in the pools.
            rt.release_klt(&klt, usize::MAX);
        }
    }

    loop {
        klt.park_home();
        if klt.shutdown.load(Ordering::Acquire) {
            break;
        }
        let wp = klt
            .assigned_worker
            .swap(std::ptr::null_mut(), Ordering::AcqRel);
        if wp.is_null() {
            continue; // spurious wake
        }
        // SAFETY: workers live as long as the runtime.
        let w: &Worker = unsafe { &*wp };

        crate::debug_registry::event(
            crate::debug_registry::ev::EMBODY,
            klt.id as u64,
            w.rank as u64,
        );
        // Embody the worker (idempotent with the handler's pre-set).
        klt.worker.store(wp, Ordering::Release);
        w.current_klt
            .store(Arc::as_ptr(&klt) as *mut Klt, Ordering::Release);
        tick::embody(&rt, w, &klt);

        // Run the worker's scheduler context until it hands back control.
        // SAFETY: the scheduler context is exclusively ours now.
        unsafe {
            Context::switch(klt.home_ctx.get(), w.sched_ctx.get());
        }

        let (directive, captive) = klt.take_directive();
        klt.worker.store(std::ptr::null_mut(), Ordering::Release);
        tick::release(&klt);
        match directive {
            Directive::WakeCaptiveThenRelease => {
                let prefer = klt.release_to.swap(usize::MAX, Ordering::AcqRel);
                // SAFETY: captive KLTs are registry-kept.
                let captive: &Klt = unsafe { &*captive };
                crate::debug_registry::event(
                    crate::debug_registry::ev::WAKE_CAPTIVE,
                    captive.id as u64,
                    klt.id as u64,
                );
                captive.unpark_captive();
                rt.release_klt(&klt, prefer);
            }
            Directive::Exit => break,
            Directive::None => {}
        }
    }
    klt.set_timer(None);
    unbind_current_klt();
}

/// Register a leaked 64 KiB alternate signal stack for the calling thread.
fn install_altstack() {
    let size = 64 * 1024;
    let mem: Box<[u8]> = vec![0u8; size].into_boxed_slice();
    let sp = Box::leak(mem).as_mut_ptr();
    // SAFETY: plain sigaltstack registration with leaked, thread-owned
    // memory.
    unsafe {
        let ss = libc::stack_t {
            ss_sp: sp as *mut libc::c_void,
            ss_flags: 0,
            ss_size: size,
        };
        libc::sigaltstack(&ss, std::ptr::null_mut());
    }
}

/// The KLT-creator thread body (paper §3.1.2).
fn creator_main(rt: Arc<RuntimeInner>) {
    loop {
        rt.creator.wake.park();
        if rt.creator.shutdown.load(Ordering::Acquire) {
            break;
        }
        loop {
            let pending = rt.creator.pending.load(Ordering::Acquire);
            if pending == 0 {
                break;
            }
            if rt
                .creator
                .pending
                .compare_exchange(pending, pending - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            rt.start_klt(None);
            rt.counters.klts_created.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Handle to a running M:N runtime.
///
/// Dropping the handle shuts the runtime down (waiting for all spawned ULTs
/// to finish first).
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    shut: AtomicBool, // ordering: acqrel idempotent-shutdown latch
}

impl Runtime {
    /// Start a runtime with `config`.
    pub fn start(config: Config) -> Runtime {
        crate::preempt::install_handlers();
        let inner = RuntimeInner::new(config);
        LIVE.lock().push((inner.id, Arc::as_ptr(&inner) as usize));

        // The creator thread.
        {
            let rt = inner.clone();
            let handle = std::thread::Builder::new()
                .name("ult-klt-creator".into())
                .spawn(move || creator_main(rt))
                .expect("spawn creator");
            inner.thread_handles.lock().push(handle);
        }

        // One initial KLT per worker, plus warm spares for KLT-switching.
        for rank in 0..inner.workers.len() {
            inner.start_klt(Some(rank));
        }
        for _ in 0..inner.config.spare_klts {
            inner.start_klt(None);
        }

        Runtime {
            inner,
            shut: AtomicBool::new(false),
        }
    }

    /// Start with the default configuration.
    pub fn start_default() -> Runtime {
        Runtime::start(Config::default())
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Spawn with explicit kind/priority on the default placement.
    pub fn spawn_with<T, F>(&self, kind: ThreadKind, priority: Priority, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_attrs(SpawnAttrs::new().kind(kind).priority(priority), f)
    }

    /// Spawn with a full attribute set (see [`crate::api::SpawnAttrs`]) —
    /// the only spawn flavor that can set a non-default scheduling class.
    pub fn spawn_attrs<T, F>(&self, attrs: SpawnAttrs, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.inner.spawn_ult(attrs, f)
    }

    /// Spawn a nonpreemptive thread (the cheapest kind; paper §3.4).
    pub fn spawn<T, F>(&self, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_attrs(SpawnAttrs::new(), f)
    }

    /// Spawn pinned to a specific worker's pool (`rank % num_workers`).
    pub fn spawn_on<T, F>(
        &self,
        rank: usize,
        kind: ThreadKind,
        priority: Priority,
        f: F,
    ) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_attrs(SpawnAttrs::new().kind(kind).priority(priority).on(rank), f)
    }

    /// Thread packing (paper §4.2): reduce or restore the number of active
    /// workers. Suspended workers park at their next scheduling boundary
    /// (bounded by the preemption interval when threads are preemptive);
    /// their queued threads are drained by the remaining active workers via
    /// the Packing scheduler.
    pub fn set_active_workers(&self, n: usize) {
        let n = n.clamp(1, self.inner.workers.len());
        self.inner.active_workers.store(n, Ordering::Release);
        // Wake everyone: activated workers must resume; active ones must
        // notice the repartitioned pools.
        for w in self.inner.workers.iter() {
            w.unpark();
        }
    }

    /// Currently active workers.
    pub fn active_workers(&self) -> usize {
        self.inner.active_workers.load(Ordering::Acquire)
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats::of(&self.inner)
    }

    /// Diagnostic snapshot of per-worker scheduler state (for debugging
    /// harnesses; not a stable API).
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for w in self.inner.workers.iter() {
            let cur = w.current.load(Ordering::Acquire);
            let cur_id = if cur.is_null() {
                0
            } else {
                // SAFETY: running ULTs are kept alive by their scheduler.
                unsafe { (*cur).id }
            };
            let kp = w.current_klt.load(Ordering::Acquire);
            let klt_id = if kp.is_null() {
                usize::MAX
            } else {
                // SAFETY: KLTs are registry-kept.
                unsafe { (*kp).id }
            };
            let (elided, armed) = tick::debug_view(w);
            let _ = write!(
                out,
                "worker {}: idle={} pool={} lo={} current=u{} klt={} disabled={} \
                 elided={} timer_armed={}",
                w.rank,
                w.idle.load(Ordering::Acquire),
                w.pool.len(),
                w.lo_pool.len(),
                cur_id,
                klt_id,
                w.preempt_disabled.0.load(Ordering::Acquire),
                elided,
                armed,
            );
            for (name, v) in w.stats.counters() {
                let _ = write!(out, " {name}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// Number of ULTs spawned and not yet finished.
    pub fn live_threads(&self) -> usize {
        self.inner.ults.live.load(Ordering::Acquire)
    }

    /// Shut down: waits for all spawned ULTs to finish, then stops all KLTs.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        let rt = &self.inner;
        // Reactivate everything so queued work can drain.
        rt.active_workers.store(rt.workers.len(), Ordering::Release);
        for w in rt.workers.iter() {
            w.unpark();
        }
        // Wait for ULTs to finish.
        while rt.ults.live.load(Ordering::Acquire) > 0 {
            for w in rt.workers.iter() {
                w.unpark();
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        // Out of the watcher's reach first: once this returns no kick is in
        // flight and none can start, so no signal chases an exited KLT.
        LIVE.lock().retain(|&(id, _)| id != rt.id);
        // Signal shutdown and wake everything.
        rt.shutdown.store(true, Ordering::Release);
        rt.creator.shutdown.store(true, Ordering::Release);
        rt.creator.wake.unpark();
        for k in rt.klt_registry.lock().iter() {
            k.shutdown.store(true, Ordering::Release);
            k.unpark_home();
        }
        for w in rt.workers.iter() {
            w.unpark();
        }
        // Join all OS threads (KLTs + creator). New KLTs cannot appear: the
        // creator exited and handlers only request, never create.
        let handles: Vec<_> = std::mem::take(&mut *rt.thread_handles.lock());
        for h in handles {
            // Workers may need repeated wakes if a park raced the flag.
            while !h.is_finished() {
                for w in rt.workers.iter() {
                    w.unpark();
                }
                for k in rt.klt_registry.lock().iter() {
                    k.unpark_home();
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let _ = h.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}
