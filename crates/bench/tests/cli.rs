//! End-to-end tests of the `repro` binary's CLI (the cheap, static
//! sections; the simulation-study sections are covered by the library
//! tests and the paper-claims integration suite).

use std::process::Command;

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn table1_lists_all_three_dimensions() {
    let out = repro(&["table1"]);
    for needle in [
        "Push vs. Pull",
        "Coherence",
        "Consistency",
        "DeNovo (D)",
        "DRFrlx (R)",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn table2_reproduces_all_class_codes() {
    // Tiny scale keeps this fast; volume classes are scale-invariant by
    // construction, and reuse/imbalance presets are robust down to a few
    // thousand vertices.
    let out = repro(&["--scale", "0.125", "table2"]);
    for row in ["AMZ", "DCT", "EML", "OLS", "RAJ", "WNG"] {
        assert!(out.contains(row), "missing row {row}");
    }
    for class in ["HML", "MMM", "HLH", "MHL", "LHH", "MLL"] {
        assert!(out.contains(class), "missing class {class} in:\n{out}");
    }
}

#[test]
fn table3_matches_the_paper() {
    let out = repro(&["table3"]);
    assert!(out.contains("CC"));
    assert!(out.contains("Dynamic"));
    // SSSP row: Source control and information.
    let sssp = out.lines().find(|l| l.contains("SSSP")).expect("SSSP row");
    assert_eq!(sssp.matches("Source").count(), 2, "{sssp}");
}

#[test]
fn table5_matches_the_paper_cell_for_cell() {
    let out = repro(&["--scale", "0.125", "table5"]);
    let row = |g: &str| {
        out.lines()
            .find(|l| l.starts_with(g))
            .unwrap_or_else(|| panic!("row {g} missing:\n{out}"))
            .to_owned()
    };
    assert_eq!(
        row("OLS").split_whitespace().collect::<Vec<_>>(),
        ["OLS", "SDR", "SDR", "TG0", "TG0", "SDR", "DD1"]
    );
    assert_eq!(
        row("RAJ").split_whitespace().collect::<Vec<_>>(),
        ["RAJ", "SDR", "SDR", "SDR", "SDR", "SDR", "DD1"]
    );
    for g in ["AMZ", "DCT", "EML", "WNG"] {
        assert_eq!(
            row(g).split_whitespace().collect::<Vec<_>>(),
            [g, "SGR", "SGR", "SGR", "SGR", "SGR", "DD1"]
        );
    }
}

#[test]
fn help_and_bad_flags() {
    let out = repro(&["--help"]);
    assert!(out.contains("usage"));
    let bad = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale"])
        .output()
        .expect("runs");
    assert!(!bad.status.success(), "missing --scale value must fail");
    // Unknown flags are named, not mistaken for sections or operands.
    for args in [
        &["study", "--journal", "x"][..],
        &["--jsn", "out", "fig5"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| a.starts_with("--")).expect("a flag");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "repro {args:?}: {stderr}"
        );
    }
}

#[test]
fn study_isolates_injected_faults_and_resumes_from_its_store() {
    let store = std::env::temp_dir().join(format!("ggs-cli-study-{}.store", std::process::id()));
    let lock = format!("{}.lock", store.display());
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&lock);
    let store = store.to_str().expect("utf8 temp path");

    // An injected panic must not take the study down: exit 0, the cell
    // reported, everything else completed and checkpointed.
    let out = repro(&[
        "study",
        "--scale",
        "0.004",
        "--threads",
        "8",
        "--store",
        store,
        "--inject-fault",
        "PR/AMZ/SGR",
    ]);
    assert!(out.contains("FAILED  PR/AMZ/SGR"), "{out}");
    assert!(
        out.contains("study: 174 cells") && out.contains("173 ok, 1 failed, 0 timeout"),
        "{out}"
    );
    // The degraded Figure 5 still renders, minus the failed bar.
    assert!(out.contains("Figure 5"), "{out}");

    // Re-running against the store re-runs only the missing cell.
    let out = repro(&[
        "study",
        "--scale",
        "0.004",
        "--threads",
        "8",
        "--store",
        store,
    ]);
    assert!(
        out.contains("1 ok, 0 failed, 0 timeout, 173 skipped"),
        "{out}"
    );
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(&lock);
}

#[test]
fn check_certifies_every_workload_clean() {
    // Small scale keeps the full static + dynamic sweep fast; the
    // contracts are scale-invariant. `--all` adds the extended app set.
    let out = repro(&["--scale", "0.02", "check", "--all"]);
    assert!(
        out.contains("all contracts certified, all protocol invariants hold"),
        "{out}"
    );
    // Every app appears in the dynamic grid, both directions for the
    // static apps, and no hardware point failed.
    for app in ["PR", "SSSP", "MIS", "CLR", "BC", "CC", "BFS"] {
        assert!(out.contains(app), "missing {app} in:\n{out}");
    }
    assert!(out.contains("pull") && out.contains("push") && out.contains("push+pull"));
    assert!(!out.contains("FAIL") && !out.contains("VIOLATION"), "{out}");
    // The exit gate really is wired: a violation-free run exits 0 (the
    // `repro` helper asserts success), and the DRF0 section shows the
    // fence accounting that DRF1/DRFrlx sections must not.
    let drf0_push = out
        .lines()
        .find(|l| l.contains("PR   push      DRF0"))
        .expect("DRF0 PR push line");
    assert!(!drf0_push.contains("(0 fence"), "{drf0_push}");
}

#[test]
fn store_stat_reports_a_flipped_checksum_without_writing() {
    let dir = std::env::temp_dir().join(format!("ggs-cli-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("crc.store");
    let _ = std::fs::remove_file(&path);
    let store = path.to_str().expect("utf8 path");
    let out = repro(&[
        "study",
        "--scale",
        "0.004",
        "--store",
        store,
        "--inject-store-fault",
        "crc",
    ]);
    let cells: usize = out
        .lines()
        .find_map(|l| l.strip_prefix("study: ")?.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no study summary in:\n{out}"));
    let before = std::fs::read(&path).expect("store written");

    let stat = repro(&["store", "stat", store]);
    // The one flipped result is reported, not counted.
    assert!(stat.contains("corrupt spans: 1 ("), "{stat}");
    assert!(stat.contains("checksum mismatch"), "{stat}");
    let results = cells - 1;
    assert!(
        stat.contains(&format!("results: {results} distinct")),
        "{stat}"
    );
    assert!(
        stat.contains(&format!("({results} result, {cells} lease, 0 release)")),
        "{stat}"
    );
    // Read-only: no repair, no lock file left behind.
    assert_eq!(std::fs::read(&path).expect("store still there"), before);
    assert!(!dir.join("crc.store.lock").exists());
}
