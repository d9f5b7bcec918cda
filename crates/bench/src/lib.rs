//! # repro-bench — harnesses regenerating every table and figure
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4_interrupt` | Figure 4 — timer interruption time vs workers (shipping timer measured, all four strategies simulated) |
//! | `fig6_overhead` | Figure 6 — preemption overhead vs interval, plus a runtime-free futex vs signal-paced park/resume round trip |
//! | `table1_direct` | Table 1 — direct preemption overhead, plus ULT vs `std::thread` spawn+join (§2.1) |
//! | `fig7_chol` | Figure 7 — Cholesky GFLOPS vs tiles |
//! | `fig8_hpgmg` | Figure 8 — thread-packing overhead (HPGMG) |
//! | `fig9_md` | Figure 9 — in-situ analysis overhead (mini-MD) |
//! | `bench_echo` | ablation — echo p99 with preemption on vs off (exit 1 below 5×) |
//! | `bench_adaptive` | ablation — adaptive quantum vs fixed tick (exit 1 below 2× p99 or above 1.10× completion) |
//!
//! Per-layer costs (yield, spawn/join, pools, preemption round trips, async
//! tasks) are probes of the end-to-end benchmark in `benchmark/`.
//!
//! The library part hosts shared measurement utilities.

#![deny(missing_docs)]

pub mod measure;
pub mod oneone;
