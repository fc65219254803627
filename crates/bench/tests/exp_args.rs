//! Command-line refusals of the experiment binaries, checked on the built
//! binaries themselves.

use std::process::Command;

#[test]
fn table1_refuses_gossip_before_any_course_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_table1"))
        .args(["--topology", "gossip:2"])
        .output()
        .expect("exp_table1 runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a usage error, not a broken claim"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gossip"), "names the reason: {stderr}");
    assert!(!stderr.contains("=="), "no workload started: {stderr}");
    assert!(out.stdout.is_empty(), "no table was printed");
}
