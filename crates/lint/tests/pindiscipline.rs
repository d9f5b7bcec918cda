//! Integration tests for the pin/guard suspension pass: the seeded PR 2
//! bug shape (mmap while pinned) and the spin-guard park, both invisible
//! to the older passes; waiver suppression; and the real tree as a gate.

use std::path::{Path, PathBuf};

use ult_lint::waivers::{WaiverEntry, Waivers};
use ult_lint::{callgraph, ordering, pindiscipline};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn sources(path: &Path) -> Vec<(PathBuf, String)> {
    let src = std::fs::read_to_string(path).expect("fixture readable");
    vec![(path.to_path_buf(), src)]
}

/// No `// sigsafe` code, no handler roots, no atomics: the closure,
/// call-graph and ordering passes must all pass this file.
#[test]
fn pin_fixture_is_invisible_to_the_older_passes() {
    let srcs = sources(&fixture("pin_suspend.rs"));
    let scans: Vec<_> = srcs
        .iter()
        .map(|(p, s)| ult_lint::scan_file(p, s))
        .collect();
    let mut d = ult_lint::analyze(&scans);
    d.extend(callgraph::check(&scans, &Waivers::empty()));
    d.extend(ordering::check(&srcs, false));
    assert!(d.is_empty(), "older passes must miss the pin bugs: {d:#?}");
}

/// Both seeded shapes flag at their exact lines: the PR 2 mmap-while-
/// pinned call and the KLT park under a live spin guard. The two fixed
/// twins (enable-then-grow, unlock-then-park) stay quiet.
#[test]
fn pin_pass_flags_both_seeded_shapes_at_exact_lines() {
    let d = pindiscipline::check(&sources(&fixture("pin_suspend.rs")), &Waivers::empty());
    assert_eq!(d.len(), 2, "{d:#?}");
    assert_eq!(d[0].category.to_string(), "pin");
    assert_eq!(d[0].line, 14, "the mmap-while-pinned call site");
    assert!(
        d[0].message.contains("`grow_stack`") && d[0].message.contains("pin held since line 13"),
        "{}",
        d[0].message
    );
    assert_eq!(d[1].line, 40, "the park-under-guard call site");
    assert!(
        d[1].message
            .contains("spin guard `lock` held since line 39"),
        "{}",
        d[1].message
    );
}

/// `yield_to` suspends by its seed alone: given an `api.rs` whose
/// `yield_to` has an empty body, the fixture's pinned call flags as a third
/// finding.
#[test]
fn yield_to_under_a_pin_flags_by_its_seed() {
    let mut srcs = sources(&fixture("pin_suspend.rs"));
    srcs.push((
        PathBuf::from("crates/core/src/api.rs"),
        "pub fn yield_to(t: &Ult) {}\n".to_string(),
    ));
    let d = pindiscipline::check(&srcs, &Waivers::empty());
    assert_eq!(d.len(), 3, "{d:#?}");
    assert_eq!(d[2].line, 61, "the pinned yield_to call site");
    assert!(
        d[2].message.contains("`yield_to`") && d[2].message.contains("pin held since line 60"),
        "{}",
        d[2].message
    );
}

/// A waiver keyed on the containing function suppresses its finding;
/// the other finding survives.
#[test]
fn waiver_by_containing_function_suppresses_one_finding() {
    let w = Waivers {
        budget: 1,
        budget_line: 1,
        entries: vec![WaiverEntry {
            key: "pin_suspend.rs:spawn_pinned".into(),
            reason: "seeded fixture".into(),
            line: 2,
        }],
        path: PathBuf::from("waivers.txt"),
    };
    let d = pindiscipline::check(&sources(&fixture("pin_suspend.rs")), &w);
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].line, 40, "only the guard finding remains");
}

/// CI gate in test form: the real tree must pass the pin pass with the
/// checked-in waiver file, inside its pinned budget.
#[test]
fn real_tree_passes_pindiscipline_within_waiver_budget() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = ult_lint::find_workspace_root(manifest).expect("workspace root");
    let waivers =
        ult_lint::waivers::load_waivers(&root.join("crates/lint/pindiscipline_waivers.txt"))
            .expect("waiver file parses");
    assert!(
        waivers.entries.len() <= waivers.budget,
        "waiver list ({}) exceeds its pinned budget ({})",
        waivers.entries.len(),
        waivers.budget
    );
    let srcs: Vec<(PathBuf, String)> = ult_lint::workspace_sources(&root)
        .into_iter()
        .filter_map(|p| {
            let src = std::fs::read_to_string(&p).ok()?;
            Some((p, src))
        })
        .collect();
    let d = pindiscipline::check(&srcs, &waivers);
    assert!(
        d.is_empty(),
        "the real tree must pass the pin-discipline gate; fix or waive:\n{d:#?}"
    );
}
