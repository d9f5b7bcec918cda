//! Seeded pin/guard-suspension fixture.
//!
//! Reproduces the PR 2 review bug: `spawn` held the preemption pin across
//! the stack `mmap`. Also seeds the spin-guard variant (KLT park under a
//! held `SpinLock`) and a pinned `yield_to` (a suspension point by name).
//! No `// sigsafe` code, no handler roots, no atomics — the closure,
//! call-graph and ordering passes are all blind here; only pindiscipline flags.
//!
//! Line numbers are pinned by `tests/pindiscipline.rs` — edit with care.

/// The historical bug shape: pin, then fault-able stack growth.
pub fn spawn_pinned() {
    pin_current_worker();
    grow_stack(); // line 14: flagged — mmap while pinned
    preempt_enable();
}

fn grow_stack() {
    // SAFETY: fixture; never executed.
    unsafe { libc::mmap(core::ptr::null_mut(), 4096, 0, 0, -1, 0) };
}

/// The fixed shape: release the pin before the fault-able call.
pub fn spawn_fixed() {
    pin_current_worker();
    preempt_enable();
    grow_stack();
}

pub struct Queue {
    lock: SpinLock,
    items: usize,
}

impl Queue {
    /// KLT park while the spin guard is held: every other CPU spins
    /// unbounded until the futex wakes.
    pub fn drain_blocking(&self) {
        self.lock.lock();
        park_for_items(); // line 40: flagged — KLT park under spin guard
        self.lock.unlock();
    }

    /// The fixed shape: drop the guard before parking.
    pub fn drain_fixed(&self) {
        self.lock.lock();
        self.lock.unlock();
        park_for_items();
    }
}

// blocking: klt
fn park_for_items() {}

fn pin_current_worker() {}
fn preempt_enable() {}

/// A lock release that hands its worker to the grantee, inside a pin.
pub fn unlock_pinned(grantee: &Ult) {
    pin_current_worker();
    yield_to(grantee); // line 61: flagged when `api.rs`'s `yield_to` is in scope
    preempt_enable();
}
