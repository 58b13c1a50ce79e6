//! The experiment registry behind the `reproduce` command: every paper
//! artifact the harness regenerates, how to run it, and where its
//! committed output lives under `results/`.

use crate::cli::Args;
use crate::{dr_seuss, fig4, fig5, figburst, figfault, figtier, table1, table2, table3, traced};

/// One output of an experiment run.
#[derive(Clone, Debug, PartialEq)]
pub enum Artifact {
    /// `(path, text)` printed on stdout and written to `path`: the tables
    /// and the text figures.
    Printed(String, String),
    /// `(path, data)` only written to `path` (CSV, JSON lines).
    File(String, String),
    /// A summary only printed.
    Report(String),
}

impl Artifact {
    /// The file it is written to, if any.
    pub fn path(&self) -> Option<&str> {
        match self {
            Artifact::Printed(path, _) | Artifact::File(path, _) => Some(path),
            Artifact::Report(_) => None,
        }
    }

    /// Its content.
    pub fn text(&self) -> &str {
        match self {
            Artifact::Printed(_, text) | Artifact::File(_, text) | Artifact::Report(text) => text,
        }
    }
}

/// One reproducible experiment.
pub struct Experiment {
    /// Name on the `reproduce` command line.
    pub name: &'static str,
    /// The paper artifact it reproduces.
    pub artifact: &'static str,
    /// Its command line, as [`crate::cli::parse`] reads it: `name=default`
    /// for a positive numeric positional, a bare `name` for an optional
    /// output path, and the flags it reads besides `--workers`, which
    /// every experiment takes.
    pub args: &'static str,
    /// The committed files its default-argument run writes.
    pub outputs: &'static [&'static str],
    /// Runs the experiment on `workers` threads. Artifacts are
    /// byte-identical at every worker count; `Err` reports a failed
    /// self-check.
    pub run: fn(&Args, usize) -> Result<Vec<Artifact>, String>,
}

/// Every experiment, in paper order and then the extensions.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        artifact: "Table 1: snapshot sizes and NOP cold/warm/hot latency and footprint",
        args: "iterations=475",
        outputs: &["results/table1.txt"],
        run: table1::reproduce,
    },
    Experiment {
        name: "table2",
        artifact: "Table 2: AO ablation, cold/warm across No AO / Network / Network+Interp",
        args: "iterations=100",
        outputs: &["results/table2.txt"],
        run: table2::reproduce,
    },
    Experiment {
        name: "table3",
        artifact: "Table 3: cache density and 16-way creation rate, 4 isolation methods",
        args: "",
        outputs: &["results/table3.txt"],
        run: table3::reproduce,
    },
    Experiment {
        name: "fig4",
        artifact: "Figure 4: platform throughput vs unique-function set size",
        args: "max_set_size=16384 mem_mib=24576",
        outputs: &["results/fig4.txt"],
        run: fig4::reproduce,
    },
    Experiment {
        name: "fig5",
        artifact: "Figure 5: end-to-end latency percentiles at three set sizes",
        args: "mem_mib=24576",
        outputs: &["results/fig5.txt"],
        run: fig5::reproduce,
    },
    Experiment {
        name: "fig6",
        artifact: "Figure 6: burst resiliency, a burst every 32 s",
        args: "period_s=32 csv_path --fault-plan --fault-seed",
        outputs: &["results/fig_burst_32.txt"],
        run: figburst::reproduce,
    },
    Experiment {
        name: "fig7",
        artifact: "Figure 7: burst resiliency, a burst every 16 s",
        args: "period_s=16 csv_path --fault-plan --fault-seed",
        outputs: &["results/fig_burst_16.txt"],
        run: figburst::reproduce,
    },
    Experiment {
        name: "fig8",
        artifact: "Figure 8: burst resiliency, a burst every 8 s",
        args: "period_s=8 csv_path --fault-plan --fault-seed",
        outputs: &["results/fig_burst_8.txt"],
        run: figburst::reproduce,
    },
    Experiment {
        name: "dr_seuss",
        artifact: "§9 extension: DR-SEUSS snapshot migration between nodes",
        args: "nodes=4 functions=64",
        outputs: &["results/dr_seuss.txt"],
        run: dr_seuss::reproduce,
    },
    Experiment {
        name: "figfault",
        artifact: "Extension: availability under injected faults, retry vs ablation vs Linux",
        args: "period_s=16 bursts=10 --fault-plan --fault-seed",
        outputs: &["results/figfault.csv"],
        run: figfault::reproduce,
    },
    Experiment {
        name: "figtier",
        artifact: "Extension: cache density vs restore latency across storage-tier policies",
        args: "fns=96 rounds=3 mem_mib=48 --store-blocks",
        outputs: &["results/figtier.csv"],
        run: figtier::reproduce,
    },
    Experiment {
        name: "trace_smoke",
        artifact: "Extension: a validated traced trial (trace JSON lines and metrics)",
        args: "invocations=40",
        outputs: &[
            "results/trace_smoke.jsonl",
            "results/trace_smoke_metrics.json",
        ],
        run: traced::reproduce,
    },
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

impl Experiment {
    /// Compares a default-argument run on one worker (`one`) with one on
    /// `workers` (`many`), then with the committed files, which
    /// `committed` reads by path (`None`: missing). `Err` names the first
    /// file that differs.
    pub fn compare(
        &self,
        one: &[Artifact],
        many: &[Artifact],
        workers: usize,
        committed: impl Fn(&str) -> Option<Vec<u8>>,
    ) -> Result<(), String> {
        if let Some((a, _)) = one.iter().zip(many).find(|(a, b)| a != b) {
            return Err(format!(
                "{}: {} differs between workers=1 and workers={workers}",
                self.name,
                a.path().unwrap_or("the printed report")
            ));
        }
        let paths: Vec<&str> = one.iter().filter_map(Artifact::path).collect();
        if one.len() != many.len() || paths != self.outputs {
            return Err(format!(
                "{}: wrote {paths:?} at workers=1 ({} artifacts at workers={workers}), declares {:?}",
                self.name,
                many.len(),
                self.outputs
            ));
        }
        for a in one {
            if let Some(path) = a.path() {
                if committed(path).as_deref() != Some(a.text().as_bytes()) {
                    return Err(format!("{path} differs from the committed file"));
                }
            }
        }
        Ok(())
    }
}
