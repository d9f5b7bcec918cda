//! Lock-order deadlock graph (pass 6 of `ult-verify`).
//!
//! Every `SpinLock` declaration in `crates/{core,sync,io}` must carry a
//! `// lock-order: <level> <name>` contract on or directly above its
//! declaration. The pass then walks every function lexically, tracking
//! the set of held spin locks (`.lock()`/`.try_lock()` open, `.unlock()`
//! closes; `.with(..)` opens for the rest of the flat walk — its closure
//! extent is invisible lexically; a `WaitQueue` method takes the queue's
//! lock and has released it when it returns), and:
//!
//! * flags a **nested acquire that does not strictly increase the level**
//!   at the exact acquire line — the strict-increase rule makes
//!   acquisition cycles unrepresentable among annotated locks;
//! * flags **unannotated or malformed declarations** so new locks opt in
//!   to the discipline by construction (fixture files opt in by carrying
//!   any `// lock-order:` contract);
//! * builds the **static acquisition graph** — direct nested acquires
//!   plus, transitively, every lock a callee may take while the caller
//!   holds one — and reports each strongly-connected cycle once, covering
//!   the AB/BA shape even when one side is unannotated or waived.
//!
//! Acquire sites resolve to declarations by receiver name, same-file
//! first, then unique-across-the-workspace; ambiguous receivers (every
//! sync primitive names its field `lock`) resolve within their own file.
//! `// lock-order-ok: <reason>` waives a site or a declaration line.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use crate::blocking::{crate_dir, line_waived, pass_scoped, CONTAINER_METHODS, SPIN_METHODS};
use crate::callgraph::same_crate;
use crate::locks::{scan_locks, WAIT_QUEUE_OPS};
use crate::CallSite;
use crate::{scan_file, Category, Diagnostic, FileScan};

/// Run the lock-order pass over raw sources.
pub fn check(sources: &[(PathBuf, String)]) -> Vec<Diagnostic> {
    let scans: Vec<FileScan> = sources.iter().map(|(p, s)| scan_file(p, s)).collect();
    let locks = scan_locks(sources);
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Contract on declarations: parse levels, demand annotations in scope.
    let mut level: Vec<Option<(u32, String)>> = Vec::with_capacity(locks.decls.len());
    for decl in &locks.decls {
        let f = &scans[decl.file];
        let in_scope = matches!(
            crate_dir(&f.path).as_deref(),
            Some("core") | Some("sync") | Some("io")
        ) || !f.lock_order.is_empty();
        let waived = f.lock_order_ok.contains_key(&decl.line)
            || (decl.line > 1 && f.lock_order_ok.contains_key(&(decl.line - 1)));
        let parsed = decl.order.as_deref().and_then(parse_order);
        match (&decl.order, &parsed) {
            (Some(raw), None) => diags.push(Diagnostic {
                file: f.path.clone(),
                line: decl.line,
                category: Category::LockOrder,
                message: format!(
                    "malformed `// lock-order: {raw}` on `{}` (expected `<level> <name>`)",
                    decl.name
                ),
            }),
            (None, _) if in_scope && !waived => diags.push(Diagnostic {
                file: f.path.clone(),
                line: decl.line,
                category: Category::LockOrder,
                message: format!(
                    "`SpinLock` `{}` has no `// lock-order: <level> <name>` contract",
                    decl.name
                ),
            }),
            _ => {}
        }
        level.push(parsed);
    }

    // Acquire-site resolution: same-file decl first, else workspace-unique.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, d) in locks.decls.iter().enumerate() {
        by_name.entry(&d.name).or_default().push(i);
    }
    let resolve_lock = |fi: usize, recv: &str| -> Option<usize> {
        let cands = by_name.get(recv)?;
        cands
            .iter()
            .copied()
            .find(|&i| locks.decls[i].file == fi)
            .or_else(|| (cands.len() == 1).then(|| cands[0]))
    };
    let lock_name = |i: usize| -> String {
        match &level[i] {
            Some((_, sym)) => sym.clone(),
            None => locks.decls[i].name.clone(),
        }
    };

    // Function index for the transitive lockset fixpoint.
    let mut fn_index: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, f) in scans.iter().enumerate() {
        if !pass_scoped(&f.path) {
            continue;
        }
        for (di, d) in f.fns.iter().enumerate() {
            fn_index.entry(&d.name).or_default().push((fi, di));
        }
    }
    let resolve_fn = |fi: usize, call: &CallSite| -> Vec<(usize, usize)> {
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

    // lockset(fn) = spin locks the function may acquire, transitively.
    let mut lockset: HashMap<(usize, usize), HashSet<usize>> = HashMap::new();
    for (fi, f) in scans.iter().enumerate() {
        for (di, d) in f.fns.iter().enumerate() {
            let mut s = HashSet::new();
            for call in &d.calls {
                if call.method && acquires(call.name()) {
                    if let Some(r) = &call.recv {
                        if locks.spin_names.contains(r) {
                            if let Some(ix) = resolve_lock(fi, r) {
                                s.insert(ix);
                            }
                        }
                    }
                }
            }
            lockset.insert((fi, di), s);
        }
    }
    loop {
        let mut changed = false;
        for (fi, f) in scans.iter().enumerate() {
            for (di, d) in f.fns.iter().enumerate() {
                let mut add: HashSet<usize> = HashSet::new();
                for call in &d.calls {
                    let queue_op = WAIT_QUEUE_OPS.contains(&call.name())
                        && call
                            .recv
                            .as_ref()
                            .is_some_and(|r| locks.spin_names.contains(r));
                    if call.method && (SPIN_METHODS.contains(&call.name()) || queue_op) {
                        continue;
                    }
                    for t in resolve_fn(fi, call) {
                        if let Some(s) = lockset.get(&t) {
                            add.extend(s.iter().copied());
                        }
                    }
                }
                let s = lockset.get_mut(&(fi, di)).unwrap();
                let before = s.len();
                s.extend(add);
                if s.len() != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Lexical held-set walk: direct violations + acquisition-graph edges.
    let mut edges: HashMap<(usize, usize), (usize, u32)> = HashMap::new();
    for (fi, f) in scans.iter().enumerate() {
        for d in &f.fns {
            let mut held: Vec<usize> = Vec::new();
            for call in &d.calls {
                let name = call.name();
                let spin_recv = call
                    .method
                    .then_some(call.recv.as_ref())
                    .flatten()
                    .filter(|r| locks.spin_names.contains(r.as_str()));
                if let Some(r) = spin_recv {
                    match name {
                        _ if acquires(name) => {
                            if let Some(ix) = resolve_lock(fi, r) {
                                for &h in &held {
                                    edges.entry((h, ix)).or_insert((fi, call.name_line));
                                    let bad = match (&level[h], &level[ix]) {
                                        (Some((lh, _)), Some((lx, _))) => lh >= lx,
                                        _ => h == ix,
                                    };
                                    if bad && !line_waived(&f.lock_order_ok, call) {
                                        diags.push(Diagnostic {
                                            file: f.path.clone(),
                                            line: call.name_line,
                                            category: Category::LockOrder,
                                            message: format!(
                                                "acquiring `{}`{} while holding `{}`{} in `{}` — \
                                                 lock levels must strictly increase",
                                                lock_name(ix),
                                                fmt_level(&level[ix]),
                                                lock_name(h),
                                                fmt_level(&level[h]),
                                                d.name
                                            ),
                                        });
                                    }
                                }
                                if !WAIT_QUEUE_OPS.contains(&name) {
                                    held.push(ix);
                                }
                            }
                            continue;
                        }
                        "unlock" => {
                            if let Some(ix) = resolve_lock(fi, r) {
                                if let Some(pos) = held.iter().rposition(|&h| h == ix) {
                                    held.remove(pos);
                                }
                            }
                            continue;
                        }
                        _ => {}
                    }
                }
                // Transitive edges: callee locksets acquired while holding.
                if held.is_empty() || call.mac {
                    continue;
                }
                for t in resolve_fn(fi, call) {
                    if let Some(s) = lockset.get(&t) {
                        for &ix in s {
                            for &h in &held {
                                edges.entry((h, ix)).or_insert((fi, call.name_line));
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle report: one diagnostic per strongly-connected component.
    for comp in cycles(locks.decls.len(), &edges) {
        let mut names: Vec<String> = comp.iter().map(|&i| lock_name(i)).collect();
        names.sort();
        let &(efi, eline) = comp
            .iter()
            .flat_map(|&a| comp.iter().map(move |&b| (a, b)))
            .find_map(|ab| edges.get(&ab))
            .expect("cycle without an edge");
        diags.push(Diagnostic {
            file: scans[efi].path.clone(),
            line: eline,
            category: Category::LockOrder,
            message: format!("lock acquisition cycle: {}", names.join(" ↔ ")),
        });
    }

    diags.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    diags
}

/// Method names that take the spin lock their receiver names.
fn acquires(name: &str) -> bool {
    matches!(name, "lock" | "try_lock" | "with") || WAIT_QUEUE_OPS.contains(&name)
}

fn fmt_level(l: &Option<(u32, String)>) -> String {
    match l {
        Some((n, _)) => format!(" (level {n})"),
        None => String::from(" (unannotated)"),
    }
}

/// Parse `<level> <name>` from a `// lock-order:` spec.
fn parse_order(raw: &str) -> Option<(u32, String)> {
    let mut it = raw.split_whitespace();
    let lvl: u32 = it.next()?.parse().ok()?;
    let name = it.next()?.to_string();
    if !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some((lvl, name))
}

/// Strongly-connected components with a cycle (size > 1, or a self-loop).
fn cycles(n: usize, edges: &HashMap<(usize, usize), (usize, u32)>) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges.keys() {
        adj[a].push(b);
    }
    // Tarjan, iterative.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        work.push((start, 0));
        while let Some(&mut (v, ref mut ei)) = work.last_mut() {
            if *ei == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ei) {
                *ei += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 || edges.contains_key(&(v, v)) {
                        out.push(comp);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srcs(src: &str) -> Vec<(PathBuf, String)> {
        vec![(PathBuf::from("mem.rs"), src.to_string())]
    }

    #[test]
    fn level_inversion_flags_at_exact_line() {
        let d = check(&srcs(
            "// lock-order: 1 alpha\nstatic ALPHA: SpinLock<()> = SpinLock::new(());\n\
             // lock-order: 2 beta\nstatic BETA: SpinLock<()> = SpinLock::new(());\n\
             fn ab() {\n    ALPHA.lock();\n    BETA.lock();\n    BETA.unlock();\n    ALPHA.unlock();\n}\n\
             fn ba() {\n    BETA.lock();\n    ALPHA.lock();\n    ALPHA.unlock();\n    BETA.unlock();\n}\n",
        ));
        let inv: Vec<_> = d
            .iter()
            .filter(|x| x.message.contains("strictly increase"))
            .collect();
        assert_eq!(inv.len(), 1, "{d:#?}");
        assert_eq!(inv[0].line, 13);
        assert!(
            inv[0].message.contains("`alpha` (level 1)"),
            "{}",
            inv[0].message
        );
        assert!(d.iter().any(|x| x.message.contains("cycle")), "{d:#?}");
    }

    #[test]
    fn increasing_order_is_clean() {
        let d = check(&srcs(
            "// lock-order: 1 alpha\nstatic ALPHA: SpinLock<()> = SpinLock::new(());\n\
             // lock-order: 2 beta\nstatic BETA: SpinLock<()> = SpinLock::new(());\n\
             fn ab() {\n    ALPHA.lock();\n    BETA.lock();\n    BETA.unlock();\n    ALPHA.unlock();\n}\n",
        ));
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn wait_queue_ops_acquire_and_release() {
        let decls = "// lock-order: 50 alpha\nstatic ALPHA: SpinLock<()> = SpinLock::new(());\n\
                     struct M {\n    // lock-order: 40 m_waiters\n    waiters: WaitQueue,\n}\n";
        // Waking under a higher-ranked spin lock inverts the order.
        let d = check(&srcs(&format!(
            "{decls}impl M {{\nfn f(&self) {{\n    ALPHA.lock();\n    self.waiters.wake_one();\n    \
             ALPHA.unlock();\n}}\n}}\n"
        )));
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].line, 10);
        assert!(d[0].message.contains("`m_waiters` (level 40)"), "{d:#?}");
        // The queue's lock is released when the method returns.
        let d = check(&srcs(&format!(
            "{decls}impl M {{\nfn f(&self) {{\n    self.waiters.wait(None, || true);\n    \
             self.waiters.wake_all();\n}}\n}}\n"
        )));
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn unannotated_decl_flags_when_opted_in() {
        let d = check(&srcs(
            "// lock-order: 1 alpha\nstatic ALPHA: SpinLock<()> = SpinLock::new(());\n\
             static NAKED: SpinLock<()> = SpinLock::new(());\n",
        ));
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].message.contains("NAKED"), "{}", d[0].message);
    }

    #[test]
    fn malformed_contract_flags() {
        let d = check(&srcs(
            "// lock-order: first alpha\nstatic ALPHA: SpinLock<()> = SpinLock::new(());\n",
        ));
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].message.contains("malformed"), "{}", d[0].message);
    }

    #[test]
    fn transitive_cycle_is_detected() {
        let d = check(&srcs(
            "// lock-order: 1 alpha\nstatic ALPHA: SpinLock<()> = SpinLock::new(());\n\
             // lock-order: 2 beta\nstatic BETA: SpinLock<()> = SpinLock::new(());\n\
             fn ab() {\n    ALPHA.lock();\n    take_beta();\n    ALPHA.unlock();\n}\n\
             fn take_beta() { BETA.lock(); BETA.unlock(); }\n\
             fn ba() {\n    BETA.lock();\n    take_alpha();\n    BETA.unlock();\n}\n\
             fn take_alpha() { ALPHA.lock(); ALPHA.unlock(); }\n",
        ));
        assert!(d.iter().any(|x| x.message.contains("cycle")), "{d:#?}");
    }

    #[test]
    fn same_file_resolution_beats_ambiguity() {
        // Two files both declare `lock`; nested self-acquire in one file
        // resolves to its own decl and flags as a self-cycle.
        let a = (
            PathBuf::from("crates/sync/src/a.rs"),
            "// lock-order: 1 a_lock\nstruct A { lock: SpinLock<u8> }\n\
             impl A {\nfn f(&self) {\n    self.lock.lock();\n    self.lock.lock();\n}\n}\n"
                .to_string(),
        );
        let b = (
            PathBuf::from("crates/sync/src/b.rs"),
            "// lock-order: 2 b_lock\nstruct B { lock: SpinLock<u8> }\n".to_string(),
        );
        let d = check(&[a, b]);
        assert!(
            d.iter()
                .any(|x| x.message.contains("`a_lock`") && x.message.contains("strictly increase")),
            "{d:#?}"
        );
    }
}
