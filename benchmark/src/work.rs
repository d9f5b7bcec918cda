//! The compute every workload burns: a dependent chain of LCG steps. It
//! touches no memory, allocates nothing and keeps no thread-local state, so
//! it is legal in every ULT kind and costs the same on every KLT.

/// Steps in the compute workloads' unit (≈ 2–3 µs): long enough that a
/// clock read per unit is ~1 % of it, short enough that a 100 µs quantum
/// holds dozens.
pub const COMPUTE_UNIT: u32 = 2000;
/// Steps per grain of a fork-join child (≈ 80 ns): with grains 0–8 the
/// runtime's spawn/switch/join path stays the larger part of a child.
pub const FORKJOIN_GRAIN: u32 = 64;
/// Steps in the lock workloads' unit (≈ 0.3 µs): one inside the critical
/// section, `sync::OUTSIDE_UNITS` outside.
pub const SYNC_UNIT: u32 = 256;

#[inline(never)]
pub fn lcg(mut x: u64, steps: u32) -> u64 {
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Affine steps compose, and the compiler knows it: left alone it
        // folds the loop into a handful of multiplies. Passing the value
        // through an empty asm statement after every step keeps one
        // dependent multiply-add per step, in registers.
        // SAFETY: the template is empty; it only names a register.
        unsafe {
            core::arch::asm!("/* {0} */", inout(reg) x, options(pure, nomem, nostack, preserves_flags))
        };
    }
    x
}

/// `lcg(x, steps)` in O(log steps): an LCG step is the affine map
/// x ↦ a·x + c, and affine maps compose, so the n-fold map comes from
/// repeated squaring. Every step is a bijection — a chain that went wrong
/// anywhere ends in the wrong place — so checking a chain's last value
/// against this checks the whole chain.
pub fn lcg_jump(x: u64, mut steps: u64) -> u64 {
    let (mut a, mut c) = (6_364_136_223_846_793_005u64, 1_442_695_040_888_963_407u64);
    let (mut acc_a, mut acc_c) = (1u64, 0u64);
    while steps > 0 {
        if steps & 1 == 1 {
            acc_a = acc_a.wrapping_mul(a);
            acc_c = acc_c.wrapping_mul(a).wrapping_add(c);
        }
        c = c.wrapping_mul(a).wrapping_add(c);
        a = a.wrapping_mul(a);
        steps >>= 1;
    }
    acc_a.wrapping_mul(x).wrapping_add(acc_c)
}

/// One unit of `steps`, opaque to the optimiser.
#[inline]
pub fn burn(x: u64, steps: u32) -> u64 {
    std::hint::black_box(lcg(std::hint::black_box(x), steps))
}

/// Cost of one `steps`-step unit on an undisturbed thread, in ns: the
/// median over batches, so a stray interrupt does not count.
pub fn calibrate_ns(steps: u32) -> f64 {
    let mut per_unit = Vec::with_capacity(31);
    let mut x = 1u64;
    for _ in 0..31 {
        let t0 = ult_sys::now_ns();
        for _ in 0..200 {
            x = burn(x, steps);
        }
        per_unit.push((ult_sys::now_ns() - t0) as f64 / 200.0);
    }
    crate::stats::median(&per_unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_a_pure_function_of_its_input() {
        assert_eq!(lcg(1, 0), 1);
        assert_eq!(lcg(5, 100), lcg(5, 100));
        assert_eq!(lcg(lcg(5, 40), 60), lcg(5, 100));
        assert_ne!(lcg(5, 100), lcg(6, 100));
    }

    #[test]
    fn jump_equals_stepping() {
        for (x, n) in [
            (0u64, 0u32),
            (1, 1),
            (7, 2),
            (9, 63),
            (12345, 2000),
            (u64::MAX, 4097),
        ] {
            assert_eq!(lcg_jump(x, u64::from(n)), lcg(x, n), "x={x} n={n}");
        }
        // Chains compose: 3 units of 2000 steps are one chain of 6000.
        assert_eq!(lcg_jump(5, 6000), lcg(lcg(lcg(5, 2000), 2000), 2000));
    }

    #[test]
    fn a_longer_unit_costs_more() {
        // black_box is only a hint: confirm the work is really done.
        assert!(calibrate_ns(4000) > 1.5 * calibrate_ns(1000));
    }
}
