//! Table II analogue: the dataset summary — sizes, butterfly counts,
//! maximum support and maximum bitruss number.

use std::io::{self, Write};

use bitruss_core::{decompose, Algorithm};
use butterfly::count_per_edge;

use crate::fmt::{count, Table};
use crate::{selected_datasets, Opts};

/// Prints the dataset summary table.
pub fn run(out: &mut dyn Write, opts: &Opts) -> io::Result<()> {
    writeln!(
        out,
        "== Table II analogue: summary of datasets (synthetic registry) =="
    )?;
    let mut table = Table::new(&[
        "Dataset",
        "|E|",
        "|U|",
        "|L|",
        "butterflies",
        "max sup",
        "max phi",
    ]);
    for d in selected_datasets(opts) {
        let g = d.generate();
        let counts = count_per_edge(&g);
        // φ is bit-identical across engines; BU++ is the cheapest here.
        let (dec, _) = decompose(&g, Algorithm::BuPlusPlus);
        table.row(&[
            d.name.to_string(),
            count(g.num_edges() as u64),
            count(g.num_upper() as u64),
            count(g.num_lower() as u64),
            count(counts.total),
            count(counts.max_support()),
            count(dec.max_bitruss()),
        ]);
    }
    write!(out, "{}", table.render())
}
