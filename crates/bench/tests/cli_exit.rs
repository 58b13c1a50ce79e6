//! A malformed or unexpected argument fails loudly: `reproduce run`
//! exits 2 and names where the bad value came from, whether a flag, a
//! positional argument or the environment, before running anything.

use std::process::Command;

fn reproduce(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.env_remove(seuss_bench::cli::WORKERS_ENV).args(args);
    cmd
}

fn assert_usage_error(mut cmd: Command, names: &str) {
    let out = cmd.output().expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(names), "stderr must name {names}: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {stderr}");
}

#[test]
fn malformed_workers_env_exits_2() {
    let mut cmd = reproduce(&["run", "table1", "1"]);
    cmd.env(seuss_bench::cli::WORKERS_ENV, "four");
    assert_usage_error(cmd, seuss_bench::cli::WORKERS_ENV);
}

#[test]
fn malformed_workers_flag_exits_2_even_with_a_valid_env() {
    let mut cmd = reproduce(&["run", "table1", "1", "--workers", "x"]);
    cmd.env(seuss_bench::cli::WORKERS_ENV, "2");
    assert_usage_error(cmd, "--workers");
}

#[test]
fn malformed_positional_exits_2_and_names_it() {
    assert_usage_error(reproduce(&["run", "table1", "abc"]), "iterations");
    assert_usage_error(reproduce(&["run", "figtier", "96", "x"]), "rounds");
    assert_usage_error(reproduce(&["run", "dr_seuss", "x"]), "nodes");
}

#[test]
fn a_zero_positional_exits_2_and_names_it() {
    assert_usage_error(reproduce(&["run", "dr_seuss", "0"]), "nodes");
    assert_usage_error(reproduce(&["run", "dr_seuss", "4", "0"]), "functions");
    assert_usage_error(reproduce(&["run", "table1", "0"]), "iterations");
}

#[test]
fn a_set_size_below_the_first_fails_and_prints_nothing() {
    let out = reproduce(&["run", "fig4", "32"])
        .output()
        .expect("spawn reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("max_set_size"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table may be printed: {stderr}");
}

#[test]
fn malformed_store_blocks_exits_2() {
    assert_usage_error(
        reproduce(&["run", "figtier", "--store-blocks", "x"]),
        "--store-blocks",
    );
}

#[test]
fn a_flag_the_experiment_does_not_read_exits_2() {
    assert_usage_error(
        reproduce(&["run", "table1", "20", "--fault-plan", "crash@1s+2s"]),
        "--fault-plan",
    );
    assert_usage_error(
        reproduce(&["run", "fig4", "128", "--store-blocks", "9"]),
        "--store-blocks",
    );
    assert_usage_error(
        reproduce(&["run", "table2", "5", "--fault-seed", "3"]),
        "--fault-seed",
    );
    assert_usage_error(
        reproduce(&["run", "dr_seuss", "--workerz", "2"]),
        "--workerz",
    );
}

#[test]
fn a_surplus_positional_exits_2_and_names_it() {
    assert_usage_error(reproduce(&["run", "table1", "20", "30"]), "\"30\"");
    assert_usage_error(reproduce(&["run", "dr_seuss", "4", "64", "8"]), "\"8\"");
}

#[test]
fn table3_takes_no_positional() {
    assert_usage_error(reproduce(&["run", "table3", "0"]), "\"0\"");
    assert_usage_error(reproduce(&["run", "table3", "8000"]), "\"8000\"");
}

#[test]
fn an_unknown_experiment_or_subcommand_exits_2() {
    assert_usage_error(reproduce(&["run", "fig9"]), "fig9");
    assert_usage_error(reproduce(&["run"]), "usage");
    assert_usage_error(reproduce(&["replay"]), "usage");
    assert_usage_error(reproduce(&["check", "--fault-seed", "1"]), "--fault-seed");
}
