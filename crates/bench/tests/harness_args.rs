//! The harness takes exactly `[--store <dir>]`: any other argument list is
//! refused before a table is computed or `BENCH_exploration.json` touched.

use std::process::Command;

#[test]
fn other_arguments_exit_two_with_the_usage_line() {
    let cases: [&[&str]; 5] = [
        &["--smoke"],
        &["--store"],
        &["--store", "dir", "--smoke"],
        &["--smoke", "--store", "dir"],
        &["dir"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .output()
            .expect("run the harness");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "usage: harness [--store <dir>]\n",
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}
