//! Waiver files shared by the whole-program passes.
//!
//! Each gating pass (call graph, blocking escape, pin discipline) reads its
//! own waiver file with the same format and the same hygiene rules:
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
//! Both hygiene violations are emitted as [`Category::Waiver`] diagnostics
//! against the waiver file itself, so an over-budget or rotting waiver
//! list is a finding in its own right.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::{Category, Diagnostic};

/// One parsed waiver entry.
#[derive(Debug, Clone)]
pub struct WaiverEntry {
    /// `<file-basename>:<fn-name>`.
    pub key: String,
    /// Mandatory justification.
    pub reason: String,
    /// 1-based line in the waiver file.
    pub line: u32,
}

/// Parsed waiver file with its pinned budget.
#[derive(Debug, Clone)]
pub struct Waivers {
    /// Maximum number of entries the gate tolerates.
    pub budget: usize,
    /// Line of the `budget:` directive.
    pub budget_line: u32,
    /// Entries, in file order.
    pub entries: Vec<WaiverEntry>,
    /// Waiver file path (for diagnostics about the file itself).
    pub path: PathBuf,
}

impl Waivers {
    /// An empty waiver set (no file): budget 0, nothing waived.
    pub fn empty() -> Self {
        Waivers {
            budget: 0,
            budget_line: 0,
            entries: Vec::new(),
            path: PathBuf::new(),
        }
    }

    /// Match a finding's keys against the entries. Every matching entry is
    /// recorded in `matched` (for staleness hygiene); returns whether the
    /// finding is waived.
    pub fn waive(&self, keys: &[String], matched: &mut HashSet<usize>) -> bool {
        let mut waived = false;
        for (i, e) in self.entries.iter().enumerate() {
            if keys.contains(&e.key) {
                matched.insert(i);
                waived = true;
            }
        }
        waived
    }

    /// Emit the hygiene diagnostics: stale entries (nothing matched them
    /// this run) and a budget overflow.
    pub fn hygiene(&self, matched: &HashSet<usize>, diags: &mut Vec<Diagnostic>) {
        for (i, e) in self.entries.iter().enumerate() {
            if !matched.contains(&i) {
                diags.push(Diagnostic {
                    file: self.path.clone(),
                    line: e.line,
                    category: Category::Waiver,
                    message: format!("stale waiver `{}`: no finding matches it", e.key),
                });
            }
        }
        if self.entries.len() > self.budget {
            diags.push(Diagnostic {
                file: self.path.clone(),
                line: self.budget_line,
                category: Category::Waiver,
                message: format!(
                    "waiver budget exceeded: {} entries > budget {}",
                    self.entries.len(),
                    self.budget
                ),
            });
        }
    }
}

/// Parse a waiver file. Errors are returned as strings so the CLI can map
/// them to its internal-error exit code.
pub fn load_waivers(path: &Path) -> Result<Waivers, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read waiver file {}: {e}", path.display()))?;
    let mut w = Waivers {
        budget: 0,
        budget_line: 0,
        entries: Vec::new(),
        path: path.to_path_buf(),
    };
    let mut saw_budget = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lno = idx as u32 + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("budget:") {
            w.budget = rest
                .trim()
                .parse()
                .map_err(|_| format!("{}:{lno}: malformed budget", path.display()))?;
            w.budget_line = lno;
            saw_budget = true;
            continue;
        }
        let mut it = line.splitn(2, char::is_whitespace);
        let key = it.next().unwrap_or("").to_string();
        let reason = it.next().unwrap_or("").trim().to_string();
        if !key.contains(':') {
            return Err(format!(
                "{}:{lno}: waiver key must be `<file-basename>:<fn-name>`",
                path.display()
            ));
        }
        if reason.is_empty() {
            return Err(format!(
                "{}:{lno}: waiver `{key}` needs a reason",
                path.display()
            ));
        }
        w.entries.push(WaiverEntry {
            key,
            reason,
            line: lno,
        });
    }
    if !saw_budget {
        return Err(format!(
            "{}: missing `budget: <n>` directive",
            path.display()
        ));
    }
    Ok(w)
}

/// Waiver key of a function: `<file-basename>:<fn-name>`.
pub fn key_of(path: &Path, name: &str) -> String {
    let base = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    format!("{base}:{name}")
}
