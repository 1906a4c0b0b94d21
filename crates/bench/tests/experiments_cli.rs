//! Command-line contract of the `experiments` binary: table mode prints the
//! paper-reproduction tables byte for byte as pinned in
//! `ci/experiments-expected.txt`, and an unknown `--exp` id is an error.
//!
//! Regenerate the golden, when a table intentionally changes, with
//! `cargo run -p ccs-bench --bin experiments -- --exp all > ci/experiments-expected.txt`.

use std::process::{Command, Output};

const EXPECTED: &str = include_str!("../../../ci/experiments-expected.txt");

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn table_mode_matches_the_committed_golden() {
    let out = experiments(&["--exp", "all"]);
    assert!(out.status.success(), "exit status {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("tables are UTF-8");
    if stdout != EXPECTED {
        let first_diff = stdout
            .lines()
            .zip(EXPECTED.lines())
            .position(|(got, want)| got != want);
        panic!(
            "tables differ from ci/experiments-expected.txt (first differing line: {:?}; \
             {} lines printed, {} expected)",
            first_diff.map(|i| i + 1),
            stdout.lines().count(),
            EXPECTED.lines().count()
        );
    }
}

#[test]
fn unknown_experiment_ids_exit_2_and_list_the_valid_ids() {
    let out = experiments(&["--exp", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table may be printed");
    let stderr = String::from_utf8(out.stderr).expect("messages are UTF-8");
    assert!(stderr.contains("'bogus'"), "{stderr}");
    let listed = stderr
        .lines()
        .find_map(|line| line.strip_prefix("valid ids: "))
        .unwrap_or_else(|| panic!("no id list in {stderr:?}"));
    assert_eq!(
        listed, "t4 t5 t6 l2 l3 t10 t11 t14 t19 f1 f2 f3 f4 f5 all",
        "the ids of the module docs"
    );
}
