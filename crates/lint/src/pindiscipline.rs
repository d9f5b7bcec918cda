//! Pin/guard suspension lint (pass 5 of `ult-verify`).
//!
//! Two ULT-side critical-section disciplines must never straddle a
//! suspension point:
//!
//! * **preemption pins** — between `pin_current_worker()` /
//!   `preempt_disable()` and the matching `preempt_enable()` /
//!   `ult_prologue()`, the current ULT must stay on its worker; a
//!   suspension (ULT park, reactor wait, KLT block) while pinned wedges
//!   the worker or leaks the pin to an unrelated ULT. PR 2's review found
//!   exactly this: `spawn` held the pin across a stack `mmap`.
//! * **spin guards** — a held `SpinLock` plus a suspension turns a
//!   bounded spin into an unbounded one for every other CPU.
//!
//! The lint is **lexical and branch-blind** (like the rest of
//! `ult-lint`): within each function, calls are visited in token order;
//! a pin opens at `pin_current_worker`/`preempt_disable` and closes at
//! `preempt_enable`/`ult_prologue`; a guard opens at `.lock()` /
//! `.try_lock()` on a spin receiver and closes at the matching
//! `.unlock()` (scoped `.with(..)` acquisition is not tracked — its
//! extent is invisible to a flat walk). While either is live, a call that
//! **may suspend** is a finding. May-suspend is a fixpoint over the call
//! graph seeded with `// blocking: klt` definitions, direct KLT-blocking
//! sites (the blocking pass's deny-lists plus the `mmap` family — a page
//! fault-able syscall is a stall even though it isn't a wait), and the
//! known ULT suspension points (`block_current`, `yield_core`, the
//! `crates/io` waits). `// pin-ok: <reason>` waives a site;
//! `pindiscipline_waivers.txt` waives by function with budget/staleness
//! hygiene.
//!
//! One declaration rule rides along: `crates/sync` may not declare a raw
//! `SpinLock`. Its primitives take their internal lock both from
//! `block_current` registrations (pinned) and from wake-up paths that any
//! preemptive ULT runs; unless those pin too, a holder preempted in front
//! of a registration wedges the worker. `WaitQueue` pins before it spins
//! and is the only place that may, so the rule is the type, checked where
//! the lock is declared; the queue's own raw lock carries the one `pin-ok`.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use crate::blocking::{
    line_waived, pass_scoped, CONTAINER_METHODS, KLT_LOCK_METHODS, LIBC_DENY, SPIN_METHODS,
    STD_DENY,
};
use crate::callgraph::same_crate;
use crate::locks::scan_locks;
use crate::waivers::{key_of, Waivers};
use crate::{scan_file, Blocking, CallSite, Category, Diagnostic, FileScan};

/// Memory-management syscalls: not waits, but unbounded-latency kernel
/// work — a stall for pin purposes (the PR 2 bug shape).
const MMAP_FAMILY: &[&str] = &["mmap", "munmap", "mprotect", "madvise", "mremap", "msync"];

/// Known ULT suspension points by `(file basename, fn name)`: the API
/// park/yield entry points and the io-side waits — the timed waits and the
/// future driver (`crates/io/src/task.rs`) that every socket op parks on.
/// Seeding by name keeps the lint honest even before annotations exist on
/// those bodies.
const SUSPEND_SEEDS: &[(&str, &str)] = &[
    ("api.rs", "block_current"),
    ("api.rs", "block_on_join"),
    ("api.rs", "yield_core"),
    ("api.rs", "yield_to"),
    ("time.rs", "sleep"),
    ("time.rs", "block_until"),
    ("time.rs", "block_for"),
    ("task.rs", "drive"),
];

/// Pin-opening and pin-closing call names.
const PIN_OPEN: &[&str] = &["pin_current_worker", "preempt_disable"];
const PIN_CLOSE: &[&str] = &["preempt_enable", "ult_prologue"];

/// Run the pin-discipline pass over raw sources, applying `waivers`.
pub fn check(sources: &[(PathBuf, String)], waivers: &Waivers) -> Vec<Diagnostic> {
    let scans: Vec<FileScan> = sources.iter().map(|(p, s)| scan_file(p, s)).collect();
    let locks = scan_locks(sources);

    let mut fn_index: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, f) in scans.iter().enumerate() {
        if !pass_scoped(&f.path) {
            continue;
        }
        for (di, d) in f.fns.iter().enumerate() {
            fn_index.entry(&d.name).or_default().push((fi, di));
        }
    }

    // A call that acquires/releases a spin lock binds to `SpinLock` and
    // never suspends; exclude it from resolution and stall checks.
    let spin_method = |call: &CallSite| {
        call.method
            && SPIN_METHODS.contains(&call.name())
            && call
                .recv
                .as_ref()
                .is_some_and(|r| locks.spin_names.contains(r))
    };

    let direct_stall = |call: &CallSite| {
        let name = call.name();
        if call.path.len() >= 2
            && call.path[0] == "libc"
            && (LIBC_DENY.contains(&name) || MMAP_FAMILY.contains(&name))
        {
            return true;
        }
        if STD_DENY
            .iter()
            .any(|p| call.path.len() >= p.len() && p.iter().zip(&call.path).all(|(a, b)| a == b))
        {
            return true;
        }
        call.method
            && KLT_LOCK_METHODS.contains(&name)
            && call
                .recv
                .as_ref()
                .is_some_and(|r| locks.klt_names.contains(r) && !locks.spin_names.contains(r))
    };

    // Same resolution policy as the blocking pass: same-crate defs
    // always, cross-crate only when the name is unique.
    let resolve = |fi: usize, call: &CallSite| -> Vec<(usize, usize)> {
        if call.mac || spin_method(call) {
            return Vec::new();
        }
        if crate::blocking::external_path(call) {
            return Vec::new();
        }
        if call.method && CONTAINER_METHODS.contains(&call.name()) {
            return Vec::new();
        }
        let Some(defs) = fn_index.get(call.name()) else {
            return Vec::new();
        };
        let unique = defs.len() == 1;
        defs.iter()
            .copied()
            .filter(|&(tfi, _)| unique || same_crate(&scans[fi].path, &scans[tfi].path))
            .collect()
    };

    // May-suspend fixpoint.
    let mut stall: HashSet<(usize, usize)> = HashSet::new();
    for (fi, f) in scans.iter().enumerate() {
        let base = f
            .path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        // The reactor is the audited suspension boundary: only its
        // cataloged entry points (SUSPEND_SEEDS) count as may-suspend;
        // its internals never propagate stall out by name resolution.
        let reactor = crate::blocking::is_reactor(&f.path);
        for (di, d) in f.fns.iter().enumerate() {
            let named = SUSPEND_SEEDS.iter().any(|&(b, n)| b == base && n == d.name);
            let seeded = named
                || (!reactor
                    && (d.blocking == Blocking::Klt
                        || d.calls.iter().any(|c| !c.mac && direct_stall(c))));
            if seeded {
                stall.insert((fi, di));
            }
        }
    }
    loop {
        let mut changed = false;
        for (fi, f) in scans.iter().enumerate() {
            if crate::blocking::is_reactor(&f.path) {
                continue;
            }
            for (di, d) in f.fns.iter().enumerate() {
                if stall.contains(&(fi, di)) || d.blocking == Blocking::Never {
                    continue;
                }
                let hits = d.calls.iter().any(|c| {
                    resolve(fi, c).iter().any(|&(tfi, tdi)| {
                        stall.contains(&(tfi, tdi))
                            && scans[tfi].fns[tdi].blocking != Blocking::Never
                    })
                });
                if hits {
                    stall.insert((fi, di));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut matched: HashSet<usize> = HashSet::new();

    // Declaration rule: no raw spin lock inside a ULT-blocking primitive.
    for d in &locks.decls {
        let f = &scans[d.file];
        let waived =
            f.pin_ok.contains_key(&d.line) || (d.line > 1 && f.pin_ok.contains_key(&(d.line - 1)));
        if d.pinning || waived || crate::blocking::crate_dir(&f.path).as_deref() != Some("sync") {
            continue;
        }
        diags.push(Diagnostic {
            file: f.path.clone(),
            line: d.line,
            category: Category::Pin,
            message: format!(
                "`{}` is a raw `SpinLock` in ult-sync: wake-up paths would hold it preemptibly \
                 while `block_current` registrations take it pinned; wait on a `WaitQueue`",
                d.name
            ),
        });
    }

    // Lexical live-range walk per function.
    for (fi, f) in scans.iter().enumerate() {
        if !pass_scoped(&f.path) {
            continue;
        }
        for d in &f.fns {
            let mut pins: Vec<u32> = Vec::new();
            let mut guards: Vec<(String, u32)> = Vec::new();
            for call in &d.calls {
                let name = call.name();
                if PIN_OPEN.contains(&name) {
                    pins.push(call.name_line);
                    continue;
                }
                if PIN_CLOSE.contains(&name) {
                    pins.pop();
                    continue;
                }
                if call.method {
                    if let Some(r) = &call.recv {
                        if locks.spin_names.contains(r) {
                            match name {
                                "lock" | "try_lock" => {
                                    guards.push((r.clone(), call.name_line));
                                    continue;
                                }
                                "unlock" => {
                                    if let Some(pos) = guards.iter().rposition(|(g, _)| g == r) {
                                        guards.remove(pos);
                                    }
                                    continue;
                                }
                                _ => {}
                            }
                        }
                    }
                }
                if pins.is_empty() && guards.is_empty() {
                    continue;
                }
                let mut stall_keys: Vec<String> = Vec::new();
                let stalls = if !call.mac && direct_stall(call) {
                    true
                } else {
                    resolve(fi, call).iter().any(|&(tfi, tdi)| {
                        let td = &scans[tfi].fns[tdi];
                        if stall.contains(&(tfi, tdi)) && td.blocking != Blocking::Never {
                            stall_keys.push(key_of(&scans[tfi].path, &td.name));
                            true
                        } else {
                            false
                        }
                    })
                };
                if !stalls || line_waived(&f.pin_ok, call) {
                    continue;
                }
                let mut keys = vec![key_of(&f.path, &d.name)];
                keys.append(&mut stall_keys);
                if waivers.waive(&keys, &mut matched) {
                    continue;
                }
                let held = if let Some(&pl) = pins.last() {
                    format!("preemption pin held since line {pl}")
                } else {
                    let (g, gl) = guards.last().unwrap();
                    format!("spin guard `{g}` held since line {gl}")
                };
                diags.push(Diagnostic {
                    file: f.path.clone(),
                    line: call.name_line,
                    category: Category::Pin,
                    message: format!(
                        "`{}` may suspend the ULT while a {held} (in `{}`)",
                        call.joined(),
                        d.name
                    ),
                });
            }
        }
    }

    waivers.hygiene(&matched, &mut diags);
    diags.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srcs(src: &str) -> Vec<(PathBuf, String)> {
        vec![(PathBuf::from("mem.rs"), src.to_string())]
    }

    #[test]
    fn mmap_while_pinned_flags_at_exact_line() {
        let d = check(
            &srcs(
                "fn spawn() {\n    pin_current_worker();\n    grow();\n    preempt_enable();\n}\n\
                 fn grow() { unsafe { libc::mmap(p, n, a, b, c, 0); } }\n",
            ),
            &Waivers::empty(),
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].category, Category::Pin);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("since line 2"), "{}", d[0].message);
    }

    #[test]
    fn enable_before_stall_is_clean() {
        let d = check(
            &srcs(
                "fn spawn() {\n    pin_current_worker();\n    preempt_enable();\n    grow();\n}\n\
                 fn grow() { unsafe { libc::mmap(p, n, a, b, c, 0); } }\n",
            ),
            &Waivers::empty(),
        );
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn klt_park_under_spin_guard_flags() {
        let d = check(
            &srcs(
                "struct Q { lock: SpinLock<u8> }\n\
                 impl Q {\nfn drain(&self) {\n    self.lock.lock();\n    futex_park();\n    \
                 self.lock.unlock();\n}\n}\n\
                 // blocking: klt\nfn futex_park() { }\n",
            ),
            &Waivers::empty(),
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(
            d[0].message.contains("spin guard `lock`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn unlock_before_park_is_clean() {
        let d = check(
            &srcs(
                "struct Q { lock: SpinLock<u8> }\n\
                 impl Q {\nfn drain(&self) {\n    self.lock.lock();\n    self.lock.unlock();\n    \
                 futex_park();\n}\n}\n\
                 // blocking: klt\nfn futex_park() { }\n",
            ),
            &Waivers::empty(),
        );
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn transitive_suspension_propagates() {
        let d = check(
            &srcs(
                "fn f() {\n    preempt_disable();\n    mid();\n    preempt_enable();\n}\n\
                 fn mid() { leaf(); }\n\
                 // blocking: klt\nfn leaf() { }\n",
            ),
            &Waivers::empty(),
        );
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn pin_ok_waiver_is_honored() {
        let d = check(
            &srcs(
                "fn f() {\n    preempt_disable();\n    // pin-ok: audited, bounded\n    \
                 leaf();\n    preempt_enable();\n}\n\
                 // blocking: klt\nfn leaf() { }\n",
            ),
            &Waivers::empty(),
        );
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn raw_spin_lock_in_ult_sync_is_flagged() {
        let check_at = |path: &str, src: &str| {
            check(&[(PathBuf::from(path), src.to_string())], &Waivers::empty())
        };
        let raw = "struct Sem {\n    lock: SpinLock,\n}\n";
        let d = check_at("crates/sync/src/sem.rs", raw);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!((d[0].category, d[0].line), (Category::Pin, 2));
        assert!(d[0].message.contains("WaitQueue"), "{}", d[0].message);
        // The wait queue, its own waived raw lock and other crates pass.
        assert!(check_at(
            "crates/sync/src/sem.rs",
            "struct Sem {\n    waiters: WaitQueue,\n}\n"
        )
        .is_empty());
        let waived = "struct W {\n    // pin-ok: locked() pins first\n    raw: SpinLock,\n}\n";
        assert!(check_at("crates/sync/src/waitqueue.rs", waived).is_empty());
        assert!(check_at("crates/core/src/thread.rs", raw).is_empty());
    }

    #[test]
    fn spin_acquire_itself_is_not_a_stall() {
        let d = check(
            &srcs(
                "struct Q { lock: SpinLock<u8> }\n\
                 impl Q {\nfn bump(&self) {\n    pin_current_worker();\n    self.lock.lock();\n    \
                 self.lock.unlock();\n    preempt_enable();\n}\n}\n",
            ),
            &Waivers::empty(),
        );
        assert!(d.is_empty(), "{d:#?}");
    }
}
