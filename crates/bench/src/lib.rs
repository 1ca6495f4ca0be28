//! Experiment harness regenerating every table and figure of §VI of the
//! paper ("Efficient Bitruss Decomposition for Large-scale Bipartite
//! Graphs", ICDE 2020) on the synthetic dataset registry.
//!
//! Run `cargo run --release -p bitruss-bench -- all` (or a single
//! experiment id such as `fig9`) to print the paper-style rows; see
//! EXPERIMENTS.md at the repository root for recorded paper-vs-measured
//! comparisons. The `micro` experiment times the peeling primitives on
//! their own.

#![warn(missing_docs)]

pub mod estimate;
pub mod experiments;
pub mod fmt;
pub mod json;

use bigraph::BipartiteGraph;
use datagen::{all_datasets, Dataset, SizeClass};

/// Global options shared by all experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// Restrict to Small/Medium datasets and trim sweeps — used by smoke
    /// tests and quick sanity runs.
    pub quick: bool,
    /// Run even the algorithm/dataset combinations whose predicted cost
    /// exceeds the budget (the paper's 30-hour timeout analogue).
    pub full: bool,
}

/// Generates a dataset's graph, returning it with its configuration.
pub fn generate(d: &Dataset) -> BipartiteGraph {
    d.generate()
}

/// The datasets an experiment runs on under the given options.
pub fn selected_datasets(opts: &Opts) -> Vec<Dataset> {
    all_datasets()
        .into_iter()
        .filter(|d| !opts.quick || d.size != SizeClass::Large)
        .collect()
}

/// The paper's four drill-down datasets (Figures 10–14), or the two
/// smallest under `--quick`.
pub fn drilldown(opts: &Opts) -> Vec<Dataset> {
    if opts.quick {
        ["Condmat", "Marvel"]
            .iter()
            .map(|n| datagen::dataset_by_name(n).expect("registry"))
            .collect()
    } else {
        datagen::registry::drilldown_datasets()
    }
}
