//! Integration tests for the whole-program call-graph pass: the seeded
//! transitive fixture (which the annotation-local closure check must
//! *miss* and the call-graph pass must flag), and the real tree against
//! the checked-in waiver file and its pinned budget.

use std::path::{Path, PathBuf};

use ult_lint::callgraph::{self, Waivers};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn scan(path: &Path) -> ult_lint::FileScan {
    let src = std::fs::read_to_string(path).expect("fixture readable");
    ult_lint::scan_file(path, &src)
}

/// The acceptance test for the pass: the seeded handler → helper →
/// `Box::new` chain is invisible to the annotation-local closure check
/// (an annotated `helper` twin satisfies it) …
#[test]
fn transitive_fixture_is_invisible_to_the_closure_check() {
    let diags = ult_lint::run(&[fixture("transitive.rs")]);
    assert!(
        diags.is_empty(),
        "the closure check is expected to miss the twin escape: {diags:#?}"
    );
}

/// … while the call-graph pass flags exactly the unannotated twin, with
/// the full handler path and the twin's definition site in the message.
#[test]
fn callgraph_flags_the_seeded_twin_escape() {
    let d = callgraph::check(&[scan(&fixture("transitive.rs"))], &Waivers::empty());
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].category.to_string(), "escape");
    assert_eq!(d[0].line, 17, "should point at the handler's call site");
    assert!(
        d[0].message.contains("handler → `helper`") && d[0].message.contains(":31"),
        "message should carry the root path and the twin's def line: {}",
        d[0].message
    );
}

/// A waiver keyed on the twin suppresses the finding; the budget and
/// staleness hygiene stay active.
#[test]
fn waiver_file_suppresses_the_fixture_escape() {
    let w = Waivers {
        budget: 1,
        budget_line: 1,
        entries: vec![callgraph::WaiverEntry {
            key: "transitive.rs:helper".into(),
            reason: "seeded fixture twin".into(),
            line: 2,
        }],
        path: PathBuf::from("waivers.txt"),
    };
    let d = callgraph::check(&[scan(&fixture("transitive.rs"))], &w);
    assert!(d.is_empty(), "{d:#?}");
}

/// CI gate in test form: the real tree must pass the call-graph pass
/// with the checked-in waiver file, and the waiver list must fit its
/// pinned budget.
#[test]
fn real_tree_passes_callgraph_within_waiver_budget() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = ult_lint::find_workspace_root(manifest).expect("workspace root");
    let waivers = callgraph::load_waivers(&root.join("crates/lint/callgraph_waivers.txt"))
        .expect("waiver file parses");
    assert!(
        waivers.entries.len() <= waivers.budget,
        "waiver list ({}) exceeds its pinned budget ({})",
        waivers.entries.len(),
        waivers.budget
    );
    let scans: Vec<ult_lint::FileScan> = ult_lint::workspace_sources(&root)
        .iter()
        .filter_map(|p| {
            let src = std::fs::read_to_string(p).ok()?;
            Some(ult_lint::scan_file(p, &src))
        })
        .collect();
    let d = callgraph::check(&scans, &waivers);
    assert!(
        d.is_empty(),
        "the real tree must pass the call-graph gate; fix or waive:\n{d:#?}"
    );
}
