//! Lock-declaration registry shared by the blocking, pin-discipline and
//! lock-order passes.
//!
//! Declarations are found lexically: an `Ident(":") SpinLock` sequence —
//! a struct field or `static` whose declared type's final path segment is
//! `SpinLock` — registers a spin lock under the field/static name
//! (`WaitQueue`, `ult-sync`'s wait queue, owns one and pins its holder: a
//! field of that type counts as well, under the field's name and rank).
//! Constructor uses (`SpinLock::new`) and reference-typed parameters
//! (`&SpinLock<T>`) are not declarations. The same shape with `Mutex` in a
//! file that imports a KLT-parking mutex (`parking_lot` or
//! `std::sync::Mutex`) registers a *KLT* lock: acquiring one of those can
//! block the kernel thread, which the blocking pass must see.
//!
//! Each spin declaration also records the `// lock-order: <level> <name>`
//! contract found on the declaration line or the line above, raw; the
//! lock-order pass parses and enforces it.

use std::collections::HashSet;
use std::path::PathBuf;

use crate::{lex, Lexed, Sp, Tok, KEYWORDS};

/// One spin-lock declaration site.
#[derive(Debug, Clone)]
pub(crate) struct SpinDecl {
    /// Index into the `sources` slice handed to [`scan_locks`].
    pub(crate) file: usize,
    /// 1-based line of the declared name.
    pub(crate) line: u32,
    /// Field or static name (`wait_lock`, `ALPHA`).
    pub(crate) name: String,
    /// Raw `// lock-order:` spec (`"1 alpha"`) from the declaration line
    /// or the line above, if any.
    pub(crate) order: Option<String>,
    /// Declared as `WaitQueue`: taken only inside that type's methods
    /// ([`WAIT_QUEUE_OPS`]), which pin the ULT first and release the lock
    /// before they return.
    pub(crate) pinning: bool,
}

/// The `WaitQueue` methods; each takes the queue's lock. A `ready` closure
/// handed to `wait` runs under it, which a flat walk cannot see: what the
/// closure may take is part of the contract in `waitqueue.rs`, not checked.
pub(crate) const WAIT_QUEUE_OPS: &[&str] = &["wait", "wake_one", "wake_all", "len"];

/// Lock names seen across the scanned sources.
#[derive(Debug, Default)]
pub(crate) struct LockRegistry {
    /// Receiver names declared as `SpinLock` somewhere (bounded spinning —
    /// never suspends, never KLT-blocks).
    pub(crate) spin_names: HashSet<String>,
    /// Receiver names declared as a KLT-parking `Mutex` somewhere.
    pub(crate) klt_names: HashSet<String>,
    /// All spin declarations, for the lock-order pass.
    pub(crate) decls: Vec<SpinDecl>,
}

/// Scan raw sources for lock declarations.
pub(crate) fn scan_locks(sources: &[(PathBuf, String)]) -> LockRegistry {
    let mut reg = LockRegistry::default();
    for (fi, (path, src)) in sources.iter().enumerate() {
        if !crate::blocking::pass_scoped(path) {
            continue;
        }
        let klt_mutex_file = src.contains("parking_lot") || src.contains("std::sync::Mutex");
        let Lexed {
            toks, lock_order, ..
        } = lex(src);
        for i in 0..toks.len() {
            let Tok::Ident(ty) = &toks[i].tok else {
                continue;
            };
            let is_spin = ty == "SpinLock" || ty == "WaitQueue";
            let is_klt = ty == "Mutex" && klt_mutex_file;
            if !is_spin && !is_klt {
                continue;
            }
            // `SpinLock::new(..)` is a constructor use, not a declaration.
            if punct(toks.get(i + 1), ':') && punct(toks.get(i + 2), ':') {
                continue;
            }
            let Some((name, line)) = decl_name(&toks, i) else {
                continue;
            };
            if is_spin {
                reg.spin_names.insert(name.clone());
                let order = lock_order
                    .get(&line)
                    .or_else(|| lock_order.get(&(line.saturating_sub(1))))
                    .cloned();
                reg.decls.push(SpinDecl {
                    file: fi,
                    line,
                    name,
                    order,
                    pinning: ty == "WaitQueue",
                });
            } else {
                reg.klt_names.insert(name);
            }
        }
    }
    reg
}

fn punct(s: Option<&Sp>, c: char) -> bool {
    matches!(s.map(|s| &s.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Walk backwards from the type ident at `i` to the declared name:
/// `name : [seg ::]* Type`. Returns `None` when the shape doesn't match
/// (generic arguments, references, expressions).
fn decl_name(toks: &[Sp], i: usize) -> Option<(String, u32)> {
    let mut j = i.checked_sub(1)?;
    // Skip leading path segments of the type: `crate :: pool :: SpinLock`.
    while j >= 2 && punct(toks.get(j), ':') && punct(toks.get(j - 1), ':') {
        match &toks[j - 2].tok {
            Tok::Ident(seg) if !KEYWORDS.contains(&seg.as_str()) || seg == "crate" => {
                if j < 3 {
                    return None;
                }
                j -= 3;
            }
            _ => return None,
        }
    }
    if !punct(toks.get(j), ':') {
        return None;
    }
    // A `::` here would mean we stopped inside a path after all.
    if j >= 1 && punct(toks.get(j - 1), ':') {
        return None;
    }
    match toks.get(j.checked_sub(1)?).map(|s| (&s.tok, s.line)) {
        Some((Tok::Ident(name), line)) if !KEYWORDS.contains(&name.as_str()) => {
            Some((name.clone(), line))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(src: &str) -> LockRegistry {
        scan_locks(&[(PathBuf::from("mem.rs"), src.to_string())])
    }

    #[test]
    fn field_and_static_decls_are_found() {
        let r = reg(
            "struct S {\n    // lock-order: 3 waiters\n    lock: SpinLock<Vec<u8>>,\n}\n\
             static ALPHA: SpinLock<()> = SpinLock::new(());\n",
        );
        assert!(r.spin_names.contains("lock"));
        assert!(r.spin_names.contains("ALPHA"));
        assert_eq!(r.decls.len(), 2, "{:#?}", r.decls);
        assert_eq!(r.decls[0].order.as_deref(), Some("3 waiters"));
        assert_eq!(r.decls[1].order, None);
    }

    #[test]
    fn qualified_type_path_resolves_to_field_name() {
        let r = reg("struct T {\n    joiners_lock: crate::pool::SpinLock<u8>,\n}\n");
        assert!(r.spin_names.contains("joiners_lock"), "{:#?}", r.decls);
    }

    #[test]
    fn constructor_and_param_are_not_decls() {
        let r = reg("fn f(l: &SpinLock<u8>) { let x = SpinLock::new(0); g(x); }\n");
        assert!(r.decls.is_empty(), "{:#?}", r.decls);
    }

    #[test]
    fn klt_mutex_needs_parking_import() {
        let with = reg("use parking_lot::Mutex;\nstruct S { m: Mutex<u8> }\n");
        assert!(with.klt_names.contains("m"));
        // ult_sync's own Mutex type is ULT-blocking, not KLT-blocking.
        let without = reg("use ult_sync::Mutex;\nstruct S { m: Mutex<u8> }\n");
        assert!(without.klt_names.is_empty());
    }
}
