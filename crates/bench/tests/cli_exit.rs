//! A malformed argument fails loudly: the binary exits 2 and names where
//! the bad value came from, whether a flag, a positional argument or the
//! environment.

use std::process::Command;

fn bench(exe: &str) -> Command {
    let mut cmd = Command::new(exe);
    cmd.env_remove(seuss_bench::cli::WORKERS_ENV);
    cmd
}

fn assert_usage_error(mut cmd: Command, names: &str) {
    let out = cmd.output().expect("spawn bench binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(names), "stderr must name {names}: {stderr}");
}

#[test]
fn malformed_workers_env_exits_2() {
    let mut cmd = bench(env!("CARGO_BIN_EXE_table1"));
    cmd.env(seuss_bench::cli::WORKERS_ENV, "four").arg("1");
    assert_usage_error(cmd, seuss_bench::cli::WORKERS_ENV);
}

#[test]
fn malformed_workers_flag_exits_2_even_with_a_valid_env() {
    let mut cmd = bench(env!("CARGO_BIN_EXE_table1"));
    cmd.env(seuss_bench::cli::WORKERS_ENV, "2")
        .args(["1", "--workers", "x"]);
    assert_usage_error(cmd, "--workers");
}

#[test]
fn malformed_positional_exits_2_and_names_it() {
    let mut cmd = bench(env!("CARGO_BIN_EXE_table1"));
    cmd.arg("abc");
    assert_usage_error(cmd, "iterations");
    let mut cmd = bench(env!("CARGO_BIN_EXE_figtier"));
    cmd.args(["96", "x"]);
    assert_usage_error(cmd, "rounds");
}

#[test]
fn malformed_store_blocks_exits_2() {
    let mut cmd = bench(env!("CARGO_BIN_EXE_figtier"));
    cmd.args(["--store-blocks", "x"]);
    assert_usage_error(cmd, "--store-blocks");
}
