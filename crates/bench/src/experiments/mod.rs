//! One module per table/figure of the paper's evaluation (§VI), plus the
//! extension experiments (`ablation`, `parallel`, `query`,
//! `maintenance`, `serve`, `ooc`) and the `micro` benchmarks of the
//! peeling primitives.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig5;
pub mod fig7;
pub mod fig9;
pub mod maintenance;
pub mod micro;
pub mod ooc;
pub mod parallel;
pub mod query;
pub mod serve;
pub mod table2;

use std::io::{self, Write};

use crate::json::JsonRecord;
use crate::Opts;

/// All experiment ids in paper order, plus the extension experiments.
pub const ALL: &[&str] = &[
    "table2",
    "fig5",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablation",
    "parallel",
    "query",
    "maintenance",
    "serve",
    "ooc",
    "micro",
];

/// Runs one experiment by id (or `all`). Experiments that measure whole
/// decomposition runs push machine-readable [`JsonRecord`]s into `json`
/// (serialized by the runner's `--json` flag); the others only print.
pub fn run(
    id: &str,
    out: &mut dyn Write,
    opts: &Opts,
    json: &mut Vec<JsonRecord>,
) -> io::Result<()> {
    match id {
        "table2" => table2::run(out, opts),
        "fig5" => fig5::run(out, opts),
        "fig7" => fig7::run(out, opts),
        "fig9" => fig9::run(out, opts, json),
        "fig10" => fig10::run(out, opts),
        "fig11" => fig11::run(out, opts),
        "fig12" => fig12::run(out, opts),
        "fig13" => fig13::run(out, opts),
        "fig14" => fig14::run(out, opts),
        "ablation" => ablation::run(out, opts),
        "parallel" => parallel::run(out, opts, json),
        "query" => query::run(out, opts, json),
        "maintenance" => maintenance::run(out, opts, json),
        "serve" => serve::run(out, opts, json),
        "ooc" => ooc::run(out, opts, json),
        "micro" => micro::run(out, opts, json),
        "all" => {
            for id in ALL {
                run(id, out, opts, json)?;
                writeln!(out)?;
            }
            Ok(())
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown experiment {other:?}; known: {ALL:?} or \"all\""),
        )),
    }
}
