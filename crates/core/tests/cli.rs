//! `repro` argument handling: anything that is neither a known flag
//! nor a known experiment name is a usage error (exit 2), never a run
//! that silently does nothing.

use std::process::Command;

fn repro_exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
        .status
        .code()
}

#[test]
fn unknown_experiments_and_flags_exit_2() {
    for args in [
        &["--scale", "quick", "fig99"][..],
        &["--scale", "quick", "--jobs", "1", "--shards", "2", "fig10"][..],
        &["--bogus-flag", "table7x"][..],
    ] {
        assert_eq!(repro_exit_code(args), Some(2), "repro {args:?}");
    }
}
