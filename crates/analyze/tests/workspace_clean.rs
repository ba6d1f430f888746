//! Self-test: the committed workspace passes its own analyzer in deny
//! mode. This is the same check CI runs (`cargo run -p sqo-analyze --
//! --deny`), wired into `cargo test` so a violation cannot land even on
//! machines that only run the test suite.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn workspace_is_deny_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sqo_analyze::run(&root).expect("workspace analysis runs");
    assert!(
        report.findings.is_empty(),
        "the workspace must be deny-clean; found:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 50, "walker saw the whole workspace: {}", report.files_scanned);
}

#[test]
fn panic_budget_is_strictly_below_the_initial_scan() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let source = std::fs::read_to_string(root.join("analyze.toml")).expect("config exists");
    let cfg = sqo_analyze::config::Config::parse(&source).expect("config parses");
    let sum: i64 = cfg.panic_budgets.values().sum();
    assert!(cfg.panic_initial_scan > 0, "initial scan recorded");
    assert!(
        sum < cfg.panic_initial_scan,
        "allowlist must burn down: budget sum {sum} >= initial scan {}",
        cfg.panic_initial_scan
    );
}

/// The production files that hold atomic-ordering sites. Listing them
/// pins the inventory to the code it must cover, independently of how
/// many sites each file happens to hold.
const ORDERING_FILES: &[&str] = &[
    "crates/bench/src/experiments.rs",
    "crates/catalog/src/stats.rs",
    "crates/constraints/src/store.rs",
    "crates/frontend/src/executor.rs",
    "crates/frontend/src/frontend.rs",
    "crates/service/src/cache.rs",
    "crates/service/src/service.rs",
    "crates/storage/src/versioned.rs",
];

const ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Every `.rs` file under a `src/` directory of the facade or a crate
/// whose text before its first `#[cfg(test)]` names an atomic ordering — a
/// plain text scan, independent of the analyzer's lexer and walker.
fn files_naming_an_ordering(root: &Path) -> BTreeSet<String> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("source directory is readable")
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source is readable");
                let production = text.split("#[cfg(test)]").next().unwrap_or_default();
                if ORDERINGS.iter().any(|o| production.contains(o)) {
                    let rel = path.strip_prefix(root).expect("under the root");
                    out.insert(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(root, &root.join("src"), &mut out);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            walk(root, &src, &mut out);
        }
    }
    out
}

#[test]
fn ordering_inventory_covers_every_file_with_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = sqo_analyze::run(&root).expect("workspace analysis runs");
    let sites: Vec<_> = report.ordering_inventory.iter().filter(|s| !s.in_test).collect();
    let unjustified: Vec<_> = sites
        .iter()
        .filter(|s| s.justification.is_none())
        .map(|s| format!("{}:{}", s.file, s.line))
        .collect();
    assert!(unjustified.is_empty(), "unjustified ordering sites: {unjustified:?}");
    let inventoried: BTreeSet<&str> = sites.iter().map(|s| s.file.as_str()).collect();
    for file in ORDERING_FILES {
        assert!(inventoried.contains(file), "{file} holds ordering sites the inventory misses");
    }
    let scanned = files_naming_an_ordering(&root);
    assert!(scanned.len() >= ORDERING_FILES.len(), "text scan found {scanned:?}");
    for file in &scanned {
        assert!(
            inventoried.contains(file.as_str()),
            "{file} names an atomic ordering but the inventory has no site in it"
        );
    }
}
