//! Micro-benchmarks of the two peeling primitives no figure times on
//! their own: tearing a whole BE-Index down by edge removal
//! (Algorithm 2) and building and draining the bucket queue that orders
//! the peel. Each is timed over repeated samples on fresh inputs; the
//! table reports the median, min and max, the JSON records the median.

use std::hint::black_box;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use beindex::BeIndex;
use bigraph::EdgeId;
use bitruss_core::BucketQueue;

use crate::fmt::{count, dur, Table};
use crate::json::JsonRecord;
use crate::Opts;

/// Runs `f` `samples` times; each call returns the time of its measured
/// section. Returns (median, min, max).
fn sample(samples: usize, mut f: impl FnMut() -> Duration) -> (Duration, Duration, Duration) {
    let mut times: Vec<Duration> = (0..samples).map(|_| f()).collect();
    times.sort_unstable();
    (times[times.len() / 2], times[0], times[times.len() - 1])
}

/// Prints the micro-benchmark table and pushes one [`JsonRecord`] per
/// (primitive, graph).
pub fn run(out: &mut dyn Write, opts: &Opts, json: &mut Vec<JsonRecord>) -> io::Result<()> {
    writeln!(out, "== Micro-benchmarks: peeling primitives ==")?;
    let samples = if opts.quick { 5 } else { 15 };
    let mut table = Table::new(&["Dataset", "primitive", "ops", "median", "min", "max"]);
    for d in ["Marvel"]
        .iter()
        .map(|n| datagen::dataset_by_name(n).expect("registry"))
    {
        let g = d.generate();
        let supp = butterfly::count_per_edge(&g).per_edge;
        let m = g.num_edges();

        // The index is rebuilt outside the timed section of each sample.
        let teardown = sample(samples, || {
            let mut idx = BeIndex::build(&g);
            let mut s = supp.clone();
            let t = Instant::now();
            for e in 0..m {
                idx.remove_edge(EdgeId(e), &mut s, 0, &mut ());
            }
            let took = t.elapsed();
            black_box(&idx);
            took
        });
        let drain = sample(samples, || {
            let t = Instant::now();
            let mut q = BucketQueue::new(&supp, |_| true);
            let mut popped = 0u32;
            while q.pop_min(&supp).is_some() {
                popped += 1;
            }
            black_box(popped);
            t.elapsed()
        });

        for (name, (median, min, max)) in [
            ("remove_edge_full_teardown", teardown),
            ("bucket_queue_build_drain", drain),
        ] {
            table.row(&[
                d.name.to_string(),
                name.to_string(),
                count(u64::from(m)),
                dur(median),
                dur(min),
                dur(max),
            ]);
            json.push(JsonRecord::micro(name, d.name, median, u64::from(m)));
        }
    }
    write!(out, "{}", table.render())
}
