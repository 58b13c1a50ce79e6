//! Census of the experiment registry: every committed artifact under
//! `results/` belongs to exactly one experiment, names are unique, every
//! default command line parses, and `check`'s comparison names the file
//! that differs.

use std::collections::BTreeMap;
use std::path::Path;

use seuss_bench::{cli, Artifact, EXPERIMENTS};

/// Every committed file under `results/`, by its `results/<name>` path.
fn committed() -> BTreeMap<String, Vec<u8>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::read_dir(dir)
        .expect("results/ exists")
        .map(|entry| {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let bytes = std::fs::read(&path).expect("readable artifact");
            (format!("results/{name}"), bytes)
        })
        .collect()
}

#[test]
fn every_committed_file_is_claimed_by_exactly_one_experiment() {
    for path in committed().keys() {
        let owners: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.outputs.contains(&path.as_str()))
            .map(|e| e.name)
            .collect();
        assert_eq!(owners.len(), 1, "{path} is claimed by {owners:?}");
    }
    let files = committed();
    for e in EXPERIMENTS {
        for out in e.outputs {
            assert!(
                files.contains_key(*out),
                "{}: {out} is not committed",
                e.name
            );
        }
    }
}

#[test]
fn experiments_read_only_the_shared_flags() {
    for e in EXPERIMENTS {
        for flag in e.args.split_whitespace().filter(|w| w.starts_with('-')) {
            assert!(
                ["--fault-plan", "--fault-seed", "--store-blocks"].contains(&flag),
                "{}: {flag} is not a shared flag",
                e.name
            );
        }
    }
}

#[test]
fn experiment_names_are_unique() {
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
            "duplicate experiment {}",
            e.name
        );
        assert_eq!(seuss_bench::find(e.name).map(|f| f.name), Some(e.name));
    }
}

#[test]
fn every_default_command_line_parses() {
    for e in EXPERIMENTS {
        let defaults: Vec<String> = e
            .args
            .split_whitespace()
            .filter_map(|word| word.split_once('=').map(|(_, d)| d.to_string()))
            .collect();
        let (given, _) = cli::parse(&defaults, e.args, None).unwrap_or_else(|why| panic!("{why}"));
        let (implied, workers) =
            cli::parse(&[], e.args, None).unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(given, implied, "{}", e.name);
        assert_eq!(workers, cli::DEFAULT_WORKERS);
    }
}

#[test]
fn compare_names_the_committed_file_with_a_flipped_byte() {
    let files = committed();
    for e in EXPERIMENTS {
        // A run that reproduced every committed output exactly.
        let run: Vec<Artifact> = e
            .outputs
            .iter()
            .map(|p| Artifact::File(p.to_string(), String::from_utf8(files[*p].clone()).unwrap()))
            .collect();
        e.compare(&run, &run, 4, |p| files.get(p).cloned())
            .unwrap_or_else(|why| panic!("{why}"));

        for flipped in e.outputs {
            let mut edited = files.clone();
            let bytes = edited.get_mut(*flipped).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1;
            let err = e
                .compare(&run, &run, 4, |p| edited.get(p).cloned())
                .expect_err("a flipped byte must be reported");
            assert!(err.starts_with(flipped), "{flipped}: {err}");
        }
    }
}

#[test]
fn compare_reports_worker_divergence_and_undeclared_outputs() {
    let e = seuss_bench::find("figtier").unwrap();
    let files = committed();
    let csv = String::from_utf8(files["results/figtier.csv"].clone()).unwrap();
    let one = vec![
        Artifact::Report("side table\n".into()),
        Artifact::File("results/figtier.csv".into(), csv.clone()),
    ];
    let mut many = one.clone();
    many[1] = Artifact::File("results/figtier.csv".into(), format!("{csv}\n"));
    let err = e
        .compare(&one, &many, 4, |p| files.get(p).cloned())
        .unwrap_err();
    assert!(
        err.contains("results/figtier.csv differs between workers=1 and workers=4"),
        "{err}"
    );

    let mut many = one.clone();
    many[0] = Artifact::Report("side table!\n".into());
    let err = e
        .compare(&one, &many, 4, |p| files.get(p).cloned())
        .unwrap_err();
    assert!(err.contains("printed report differs"), "{err}");

    let stray = vec![Artifact::File("results/other.csv".into(), csv)];
    let err = e
        .compare(&stray, &stray, 4, |p| files.get(p).cloned())
        .unwrap_err();
    assert!(err.contains("declares"), "{err}");
}
