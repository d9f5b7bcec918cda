//! Whole-program signal-safety call graph (pass 1 of `ult-verify`).
//!
//! The annotation closure check in [`crate::analyze`] only walks the
//! *annotated* set: a call is trusted as soon as **any** workspace function
//! of that name carries `// sigsafe`. This pass instead does a
//! breadth-first traversal from every installed handler root through all
//! name-resolved callees:
//!
//! * annotated definitions anywhere in the workspace are traversed;
//! * an **unannotated definition in the caller's crate is a finding**,
//!   and when its name resolves uniquely it is traversed as well — this
//!   catches the transitively-unsafe chain the annotation-local check
//!   cannot see, and the same-name-twin false negative it documents (an
//!   unsafe `push` hiding behind an audited `push`). Ambiguous names with
//!   no annotated definition at all (`new` resolves to a dozen
//!   constructors) are skipped rather than cross-multiplied into noise;
//! * workspace `macro_rules!` bodies are traversed like callees, so a
//!   macro-wrapped `Box::new` on the handler path is flagged;
//! * every finding carries the full call path from its handler root
//!   (`preempt_handler → handler_entry → rearm → arm_timer`), so a transitive
//!   violation is attributable without re-deriving the graph by hand.
//!
//! Unannotated definitions in *other* crates are not traversed: name
//! resolution across crate boundaries is too coarse to be signal (a bench
//! crate's `helper` is not the scheduler's `helper`), and the closure
//! check already demands annotated targets for every call made *from* the
//! audited set.
//!
//! # Waivers
//!
//! Findings can be waived through a waiver file so the pass can gate CI:
//!
//! ```text
//! budget: 2
//! # key        reason
//! pool.rs:pop  handler pops bind to KltPool::pop; ThreadPool::pop is scheduler-context only
//! ```
//!
//! A key is `<file-basename>:<function-name>` and matches findings whose
//! *containing* function or *target* callee it names. The `budget:` line
//! pins the maximum entry count — growing the waiver list past it fails
//! the gate, as does a stale entry that no longer matches any finding.
//! `// sigsafe-allow` line waivers are honored at call sites exactly as
//! in the closure check.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;

use crate::{
    Category, Diagnostic, FileScan, BARE_ALLOW, EXTERNAL_HEADS, LOCK_SEGMENTS, MACRO_ALLOW,
    MACRO_DENY, METHOD_ALLOW, NAME_DENY, PATH_DENY,
};

pub use crate::waivers::{load_waivers, WaiverEntry, Waivers};

/// Graph node: `(is_macro, file index, def index)`.
type Node = (bool, usize, usize);

/// Run the call-graph pass over scanned files, applying `waivers`.
pub fn check(files: &[FileScan], waivers: &Waivers) -> Vec<Diagnostic> {
    let mut fn_index: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    let mut mac_index: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (di, d) in f.fns.iter().enumerate() {
            fn_index.entry(&d.name).or_default().push((fi, di));
        }
        for (mi, m) in f.macros.iter().enumerate() {
            mac_index.entry(&m.name).or_default().push((fi, mi));
        }
    }
    let def = |n: Node| {
        let (is_macro, fi, di) = n;
        if is_macro {
            &files[fi].macros[di]
        } else {
            &files[fi].fns[di]
        }
    };

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut queue: VecDeque<Node> = VecDeque::new();
    let mut parent: HashMap<Node, Option<Node>> = HashMap::new();

    for f in files {
        for (name, line) in &f.handler_roots {
            match fn_index.get(name.as_str()) {
                Some(defs) => {
                    for &(fi, di) in defs {
                        let n = (false, fi, di);
                        if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(n) {
                            e.insert(None);
                            queue.push_back(n);
                        }
                    }
                }
                None => diags.push(Diagnostic {
                    file: f.path.clone(),
                    line: *line,
                    category: Category::Handler,
                    message: format!("signal handler `{name}` not found in the scanned sources"),
                }),
            }
        }
    }

    // Reconstruct the call path of a node from the parent chain.
    let path_of = |parent: &HashMap<Node, Option<Node>>, mut n: Node| {
        let mut names = vec![def(n).name.clone()];
        while let Some(&Some(p)) = parent.get(&n) {
            names.push(def(p).name.clone());
            n = p;
        }
        names.reverse();
        names.join(" → ")
    };

    let mut matched: HashSet<usize> = HashSet::new();
    let mut reported_escape: HashSet<Node> = HashSet::new();
    let emit = |diags: &mut Vec<Diagnostic>,
                matched: &mut HashSet<usize>,
                keys: &[String],
                file: &Path,
                line: u32,
                category: Category,
                message: String| {
        if !waivers.waive(keys, matched) {
            diags.push(Diagnostic {
                file: file.to_path_buf(),
                line,
                category,
                message,
            });
        }
    };
    let key_of = |fi: usize, name: &str| {
        let base = files[fi]
            .path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        format!("{base}:{name}")
    };

    while let Some(n) = queue.pop_front() {
        let (_, fi, _) = n;
        let f = &files[fi];
        let d = def(n);
        let here = path_of(&parent, n);
        for call in &d.calls {
            let name = call.name();
            let line_waived = [call.line, call.name_line]
                .iter()
                .any(|&l| f.allow.contains_key(&l) || (l > 1 && f.allow.contains_key(&(l - 1))));
            let enqueue =
                |queue: &mut VecDeque<Node>, parent: &mut HashMap<Node, Option<Node>>, t: Node| {
                    if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(t) {
                        e.insert(Some(n));
                        queue.push_back(t);
                    }
                };

            if call.mac {
                if MACRO_ALLOW.contains(&name) {
                    continue;
                }
                if let Some(&(_, cat)) = MACRO_DENY.iter().find(|(m, _)| *m == name) {
                    if !line_waived {
                        emit(
                            &mut diags,
                            &mut matched,
                            &[key_of(fi, &d.name)],
                            &f.path,
                            call.name_line,
                            cat,
                            format!("{here}: `{name}!` on the handler path"),
                        );
                    }
                    continue;
                }
                if let Some(defs) = mac_index.get(name) {
                    for &(mfi, mdi) in defs {
                        enqueue(&mut queue, &mut parent, (true, mfi, mdi));
                    }
                }
                continue;
            }

            if call.path.len() > 1 {
                if call
                    .path
                    .iter()
                    .any(|s| LOCK_SEGMENTS.contains(&s.as_str()))
                {
                    if !line_waived {
                        emit(
                            &mut diags,
                            &mut matched,
                            &[key_of(fi, &d.name)],
                            &f.path,
                            call.name_line,
                            Category::Lock,
                            format!("{here}: `{}` on the handler path", call.joined()),
                        );
                    }
                    continue;
                }
                if let Some(&(_, cat)) = PATH_DENY.iter().find(|(p, _)| {
                    call.path.len() >= p.len() && p.iter().zip(&call.path).all(|(a, b)| a == b)
                }) {
                    if !line_waived {
                        emit(
                            &mut diags,
                            &mut matched,
                            &[key_of(fi, &d.name)],
                            &f.path,
                            call.name_line,
                            cat,
                            format!("{here}: `{}` on the handler path", call.joined()),
                        );
                    }
                    continue;
                }
                if EXTERNAL_HEADS.contains(&call.path[0].as_str()) {
                    continue;
                }
            }

            if call.method && METHOD_ALLOW.contains(&name) {
                continue;
            }
            if !call.method && call.path.len() == 1 && BARE_ALLOW.contains(&name) {
                continue;
            }

            if let Some(defs) = fn_index.get(name) {
                // Resolution policy for unannotated targets: a unique name
                // is trusted resolution — report and keep walking. An
                // ambiguous name with an annotated sibling is the twin
                // case — report the unannotated same-crate twins but do
                // not walk them (we cannot tell which def the call binds
                // to). An ambiguous name with no annotated def at all
                // (e.g. `new`, a dozen constructors) is skipped: every
                // pairing would be noise. See module docs.
                let unique = defs.len() == 1;
                let any_annotated = defs.iter().any(|&(tfi, tdi)| files[tfi].fns[tdi].sigsafe);
                for &(tfi, tdi) in defs {
                    let t = (false, tfi, tdi);
                    let td = &files[tfi].fns[tdi];
                    if td.sigsafe {
                        enqueue(&mut queue, &mut parent, t);
                    } else if same_crate(&f.path, &files[tfi].path) && (unique || any_annotated) {
                        if reported_escape.insert(t) && !line_waived {
                            emit(
                                &mut diags,
                                &mut matched,
                                &[key_of(fi, &d.name), key_of(tfi, &td.name)],
                                &f.path,
                                call.name_line,
                                Category::Escape,
                                format!(
                                    "{here} → `{}` ({}:{}) which lacks `// sigsafe`",
                                    td.name,
                                    files[tfi].path.display(),
                                    td.line
                                ),
                            );
                        }
                        if unique {
                            enqueue(&mut queue, &mut parent, t);
                        }
                    }
                }
                continue;
            }

            if let Some(&(_, cat)) = NAME_DENY.iter().find(|(m, _)| *m == name) {
                if !line_waived {
                    emit(
                        &mut diags,
                        &mut matched,
                        &[key_of(fi, &d.name)],
                        &f.path,
                        call.name_line,
                        cat,
                        format!("{here}: `.{name}(..)` on the handler path"),
                    );
                }
            }
        }
    }

    // Waiver hygiene: stale entries and budget.
    waivers.hygiene(&matched, &mut diags);

    diags.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    diags
}

/// Crate identity of a source path: the path component after `crates/`,
/// falling back to the parent directory (fixtures, ad-hoc files).
pub(crate) fn same_crate(a: &Path, b: &Path) -> bool {
    fn crate_of(p: &Path) -> String {
        let comps: Vec<String> = p
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        for (i, c) in comps.iter().enumerate() {
            if c == "crates" && i + 1 < comps.len() {
                return comps[i + 1].clone();
            }
        }
        p.parent()
            .map(|q| q.to_string_lossy().into_owned())
            .unwrap_or_default()
    }
    crate_of(a) == crate_of(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_file;
    use std::path::PathBuf;

    fn scan(src: &str) -> FileScan {
        scan_file(Path::new("mem.rs"), src)
    }

    #[test]
    fn path_is_reported_root_to_leaf() {
        let f = scan(
            "fn setup() { install_handler(7, h); }\n\
             // sigsafe\nfn h() { a(); }\n\
             // sigsafe\nfn a() { b(); }\n\
             fn b() { }\n",
        );
        let d = check(&[f], &Waivers::empty());
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].category, Category::Escape);
        assert!(d[0].message.contains("h → a → `b`"), "{}", d[0].message);
    }

    #[test]
    fn same_name_twin_is_traversed() {
        // The closure check trusts `helper` because an annotated def
        // exists; the call graph also walks the unannotated twin.
        let src = "fn setup() { install_handler(7, h); }\n\
             // sigsafe\nfn h() { helper(); }\n\
             // sigsafe\nfn helper() { }\n\
             fn helper() { }\n";
        let old = crate::analyze(&[scan(src)]);
        assert!(old.is_empty(), "closure check should miss this: {old:#?}");
        let d = check(&[scan(src)], &Waivers::empty());
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].category, Category::Escape);
    }

    #[test]
    fn macro_body_is_traversed() {
        let f = scan(
            "macro_rules! publish {\n    ($x:expr) => {\n        Box::new($x)\n    };\n}\n\
             fn setup() { install_handler(7, h); }\n\
             // sigsafe\nfn h() { publish!(1); }\n",
        );
        let d = check(&[f], &Waivers::empty());
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].category, Category::Alloc);
        assert!(d[0].message.contains("h → publish"), "{}", d[0].message);
    }

    #[test]
    fn waiver_suppresses_and_stale_waiver_flags() {
        let f = scan(
            "fn setup() { install_handler(7, h); }\n\
             // sigsafe\nfn h() { b(); }\n\
             fn b() { }\n",
        );
        let w = Waivers {
            budget: 2,
            budget_line: 1,
            entries: vec![
                WaiverEntry {
                    key: "mem.rs:b".into(),
                    reason: "audited".into(),
                    line: 2,
                },
                WaiverEntry {
                    key: "mem.rs:zzz".into(),
                    reason: "gone".into(),
                    line: 3,
                },
            ],
            path: PathBuf::from("waivers.txt"),
        };
        let d = check(&[f], &w);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].category, Category::Waiver);
        assert!(d[0].message.contains("stale"), "{}", d[0].message);
    }

    #[test]
    fn budget_overflow_flags() {
        let f = scan(
            "fn setup() { install_handler(7, h); }\n\
             // sigsafe\nfn h() { b(); }\n\
             fn b() { }\n",
        );
        let w = Waivers {
            budget: 0,
            budget_line: 1,
            entries: vec![WaiverEntry {
                key: "mem.rs:b".into(),
                reason: "r".into(),
                line: 2,
            }],
            path: PathBuf::from("waivers.txt"),
        };
        let d = check(&[f], &w);
        assert!(
            d.iter()
                .any(|x| x.category == Category::Waiver && x.message.contains("budget")),
            "{d:#?}"
        );
        // The real finding is still waived; only the budget diag remains.
        assert!(d.iter().all(|x| x.category == Category::Waiver), "{d:#?}");
    }

    #[test]
    fn cross_crate_unannotated_twin_is_not_traversed() {
        let a = scan_file(
            Path::new("crates/core/src/a.rs"),
            "fn setup() { install_handler(7, h); }\n// sigsafe\nfn h() { helper(); }\n// sigsafe\nfn helper() { }\n",
        );
        let b = scan_file(Path::new("crates/bench/src/b.rs"), "fn helper() { }\n");
        let d = check(&[a, b], &Waivers::empty());
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn sigsafe_allow_line_waiver_is_honored() {
        let f = scan(
            "fn setup() { install_handler(7, h); }\n\
             // sigsafe\nfn h() {\n    // sigsafe-allow: audited\n    b();\n}\n\
             fn b() { }\n",
        );
        let d = check(&[f], &Waivers::empty());
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn load_waivers_parses_and_rejects() {
        let dir = std::env::temp_dir().join("ult_lint_waiver_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("ok.txt");
        std::fs::write(&p, "# hi\nbudget: 3\nfoo.rs:bar  audited because reasons\n").unwrap();
        let w = load_waivers(&p).unwrap();
        assert_eq!(w.budget, 3);
        assert_eq!(w.entries.len(), 1);
        assert_eq!(w.entries[0].key, "foo.rs:bar");

        let p2 = dir.join("bad.txt");
        std::fs::write(&p2, "foo.rs:bar  reason\n").unwrap();
        assert!(load_waivers(&p2).unwrap_err().contains("budget"));
        std::fs::write(&p2, "budget: 1\nfoo.rs:bar\n").unwrap();
        assert!(load_waivers(&p2).unwrap_err().contains("reason"));
        std::fs::write(&p2, "budget: 1\nnocolon  reason\n").unwrap();
        assert!(load_waivers(&p2).unwrap_err().contains("key"));
    }
}
