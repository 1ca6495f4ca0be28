//! Budgeted (out-of-core) decomposition: the engine path behind
//! [`EngineBuilder::memory_budget`](crate::engine::EngineBuilder::memory_budget).
//!
//! The run is the same BiT-BU++ pipeline as the in-memory default —
//! counting, BE-Index construction, batch peeling — with the two
//! memory-hungry inputs swapped for their storage-tier versions:
//!
//! 1. the graph is re-encoded as a paged compressed file
//!    ([`bitruss_storage::write_paged`]) and read back through a page
//!    cache sized from the budget, so counting and wedge enumeration
//!    stream the adjacency instead of holding the CSR;
//! 2. the BE-Index is built with the spill builder
//!    ([`bitruss_storage::build_beindex_spilled`]), which bounds the
//!    transient wedge arena at a budget share and merges Vfs-backed
//!    runs back exactly.
//!
//! The peel that follows is the in-memory one ([`peel_pp`]) over the
//! same `BeIndex` and supports — counting runs the same wedge scan over
//! every [`NeighborAccess`](bigraph::NeighborAccess) backend and the
//! spill merge reproduces the sequential arena, so φ, support-update
//! counts, and hierarchy answers are equal to the in-memory run's. The
//! integration proptests sweep budgets to pin exactly that.
//!
//! Budget split: half the budget bounds the spill arena, a quarter
//! feeds the page cache, and the rest is slack for the run's own
//! scratch (supports, queue, φ). See `docs/STORAGE.md` for the
//! accounting argument and what stays resident regardless (the O(m)
//! arrays and the finished index).

use std::path::Path;

use beindex::BeIndex;
use bigraph::progress::{checkpoint, EngineObserver, Phase};
use bigraph::vfs::Vfs;
use bigraph::{BipartiteGraph, NeighborAccess, Result};
use bitruss_storage::{build_beindex_spilled, write_paged, MemoryReport, PagedGraph, SpillStats};
use butterfly::count_per_edge_access_observed;

use crate::algo::batch::peel_pp;
use crate::decomposition::Decomposition;
use crate::metrics::Metrics;

/// File name of the paged graph inside the scratch directory.
const PAGED_NAME: &str = "graph.paged";
/// Subdirectory for spill runs inside the scratch directory.
const SPILL_DIR: &str = "spill";

/// Runs the budgeted BiT-BU++ decomposition of `g` with all storage-
/// tier I/O under `scratch_dir` on `vfs`. Scratch files are removed on
/// success. `metrics.memory` carries the [`MemoryReport`].
///
/// # Errors
///
/// [`bigraph::Error::Cancelled`] from the observer,
/// [`bigraph::Error::Io`]/[`bigraph::Error::Corrupt`] from the storage
/// tier.
pub(crate) fn decompose_out_of_core(
    g: &BipartiteGraph,
    budget_bytes: usize,
    vfs: &dyn Vfs,
    scratch_dir: &Path,
    histogram_bounds: Option<&[u64]>,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    let mut metrics = Metrics::default();
    let spill_budget = budget_bytes / 2;
    let cache_budget = budget_bytes / 4;

    vfs.create_dir_all(scratch_dir)?;
    let paged_path = scratch_dir.join(PAGED_NAME);
    write_paged(g, vfs, &paged_path)?;
    let pg = PagedGraph::open(vfs, &paged_path, cache_budget)?;

    let t0 = std::time::Instant::now();
    let counts = count_per_edge_access_observed(&pg, observer)?;
    metrics.counting_time = t0.elapsed();
    if let Some(bounds) = histogram_bounds {
        metrics.enable_histogram(bounds.to_vec(), &counts.per_edge);
    }

    let t1 = std::time::Instant::now();
    checkpoint(observer)?;
    observer.on_phase_start(Phase::IndexBuild, pg.num_vertices() as u64);
    let (mut index, spill): (BeIndex, SpillStats) =
        build_beindex_spilled(&pg, spill_budget, vfs, &scratch_dir.join(SPILL_DIR))?;
    observer.on_phase_end(Phase::IndexBuild);
    metrics.index_time = t1.elapsed();
    // The budgeted construction peak: the finished index plus the
    // bounded transient arena it was merged through.
    metrics.peak_index_bytes = index.memory_bytes() + spill.peak_arena_bytes;
    metrics.iterations = 1;

    // Peeling never touches the graph again — capture the accounting
    // and release the paged file before the peel.
    let report = MemoryReport {
        graph_bytes: pg.resident_bytes(),
        index_peak_bytes: metrics.peak_index_bytes,
        page_cache_bytes: pg.cache_stats().high_water_bytes,
        spill_bytes_written: spill.spill_bytes_written,
        budget_bytes,
    };
    drop(pg);
    vfs.remove_file(&paged_path)?;
    metrics.memory = Some(report);

    let dec = peel_pp(&mut index, counts.per_edge, &mut metrics, observer)?;
    Ok((dec, metrics))
}

/// Cheap pre-run upper estimate of the in-memory working set: the CSR
/// plus the wedge-bound estimate of the BE-Index (Lemma 6: at most
/// `Σ_e min{d(u), d(v)}` priority-obeyed wedges, ~24 bytes each across
/// the wedge/link arrays). When this fits the budget the engine runs
/// the ordinary in-memory path — "under budget nothing changes".
pub(crate) fn estimate_in_memory_bytes(g: &BipartiteGraph) -> usize {
    let mut wedge_bound = 0u64;
    for v in g.vertices() {
        let dv = g.degree(v) as u64;
        for &w in g.neighbor_slice(v) {
            // Count each edge once, from its lower-id endpoint.
            if v.0 < w {
                wedge_bound += dv.min(g.degree(bigraph::VertexId(w)) as u64);
            }
        }
    }
    g.memory_bytes() + (wedge_bound as usize).saturating_mul(24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::progress::NoopObserver;
    use bigraph::vfs::MemVfs;
    use bigraph::GraphBuilder;

    fn sample() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..14 {
            for v in 0..12 {
                if (u * 5 + v * 3) % 4 != 0 {
                    b.push_edge(u, v);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn budgeted_run_matches_in_memory_exactly() {
        let g = sample();
        let (want, want_metrics) = crate::algo::bit_bu_pp(&g);
        for budget in [0usize, 512, 4 * 1024, 1 << 20] {
            let vfs = MemVfs::new();
            let (got, metrics) =
                decompose_out_of_core(&g, budget, &vfs, Path::new("ooc"), None, &NoopObserver)
                    .unwrap();
            assert_eq!(got, want, "budget={budget}");
            assert_eq!(
                metrics.support_updates, want_metrics.support_updates,
                "budget={budget}"
            );
            let report = metrics.memory.unwrap();
            assert_eq!(report.budget_bytes, budget);
            assert!(report.graph_bytes > 0);
            assert!(report.graph_bytes < g.memory_bytes());
            assert!(report.index_peak_bytes > 0);
            // The paged file is cleaned up.
            assert!(!vfs.exists(&Path::new("ooc").join(PAGED_NAME)));
        }
    }

    #[test]
    fn tiny_budgets_actually_spill() {
        let g = sample();
        let vfs = MemVfs::new();
        let (_, metrics) =
            decompose_out_of_core(&g, 256, &vfs, Path::new("ooc"), None, &NoopObserver).unwrap();
        assert!(metrics.memory.unwrap().spill_bytes_written > 0);
    }

    #[test]
    fn histogram_composes_with_the_budgeted_path() {
        let g = sample();
        let (_, want) = crate::algo::bit_bu_pp_opts(&g, Some(&[1, 4]));
        let vfs = MemVfs::new();
        let (_, got) = decompose_out_of_core(
            &g,
            1024,
            &vfs,
            Path::new("ooc"),
            Some(&[1, 4]),
            &NoopObserver,
        )
        .unwrap();
        assert_eq!(
            got.histogram.unwrap().counts(),
            want.histogram.unwrap().counts()
        );
    }

    #[test]
    fn estimate_upper_bounds_the_real_footprint() {
        let g = sample();
        let est = estimate_in_memory_bytes(&g);
        assert!(est >= g.memory_bytes());
        let (_, m) = crate::algo::bit_bu_pp(&g);
        assert!(
            est >= g.memory_bytes() + m.peak_index_bytes / 2,
            "estimate {est} too far below reality"
        );
    }
}
