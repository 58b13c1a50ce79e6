//! Regenerates the paper's evaluation from the experiment registry.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin reproduce -- list
//! cargo run --release -p seuss-bench --bin reproduce -- run <experiment> [args] [--workers N] [flags]
//! cargo run --release -p seuss-bench --bin reproduce -- check [--workers N]
//! ```
//!
//! `run` writes the experiment's artifacts to their paths and prints the
//! text ones on stdout. `check` regenerates every committed artifact at
//! default arguments on one and on N worker threads, compares the two
//! runs, then compares them with the files under `results/`; it writes
//! nothing. Exit status 1 reports a failed self-check or the first
//! differing file, 2 a usage error.

use std::process::exit;
use std::time::Instant;

use seuss_bench::cli::{self, Args, WORKERS_ENV};
use seuss_bench::{find, Artifact, Experiment, EXPERIMENTS};

const USAGE: &str =
    "usage: reproduce list | run <experiment> [args] [--workers N] [flags] | check [--workers N]";

/// Prints `msg` and exits with `code`.
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    exit(code)
}

fn usage_error(msg: &str) -> ! {
    fail(2, &format!("{msg}\n{USAGE}"))
}

/// Runs `e` on `workers` threads, reporting the wall clock on stderr; a
/// failed self-check exits 1.
fn timed(e: &Experiment, args: &Args, workers: usize) -> Vec<Artifact> {
    let started = Instant::now();
    let artifacts =
        (e.run)(args, workers).unwrap_or_else(|why| fail(1, &format!("{} FAILED: {why}", e.name)));
    eprintln!(
        "{}: {:.2} s on {workers} worker threads",
        e.name,
        started.elapsed().as_secs_f64()
    );
    artifacts
}

fn list() {
    for e in EXPERIMENTS {
        let outputs = e.outputs.join(", ");
        println!(
            "{:<12}{}\n{:<12}run {} {}  ->  {outputs}",
            e.name, e.artifact, "", e.name, e.args
        );
    }
}

fn run(e: &Experiment, argv: &[String], env_workers: Option<&str>) {
    let (args, workers) = cli::parse(argv, e.args, env_workers)
        .unwrap_or_else(|why| usage_error(&format!("{}: {why}", e.name)));
    for a in timed(e, &args, workers) {
        if !matches!(a, Artifact::File(..)) {
            print!("{}", a.text());
        }
        if let Some(path) = a.path() {
            if let Some(dir) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(path, a.text())
                .unwrap_or_else(|why| fail(1, &format!("cannot write {path}: {why}")));
            eprintln!("wrote {path}");
        }
    }
}

fn check(argv: &[String], env_workers: Option<&str>) {
    let (_, workers) = cli::parse(argv, "", env_workers)
        .unwrap_or_else(|why| usage_error(&format!("check: {why}")));
    for e in EXPERIMENTS {
        let (args, _) = cli::parse(&[], e.args, None)
            .unwrap_or_else(|why| fail(1, &format!("{}: default arguments: {why}", e.name)));
        let one = timed(e, &args, 1);
        let many = timed(e, &args, workers);
        e.compare(&one, &many, workers, |path| std::fs::read(path).ok())
            .unwrap_or_else(|why| fail(1, &why));
    }
    let files: usize = EXPERIMENTS.iter().map(|e| e.outputs.len()).sum();
    eprintln!(
        "check OK: {files} committed files reproduce byte for byte at workers=1 and workers={workers}"
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let env_workers = std::env::var(WORKERS_ENV).ok();
    match (argv.first().map(String::as_str), argv.get(1)) {
        (Some("list"), None) => list(),
        (Some("run"), Some(name)) => {
            let e =
                find(name).unwrap_or_else(|| usage_error(&format!("unknown experiment {name:?}")));
            run(e, &argv[2..], env_workers.as_deref())
        }
        (Some("check"), _) => check(&argv[1..], env_workers.as_deref()),
        _ => usage_error("expected a subcommand"),
    }
}
