//! Sharded multi-threaded BE-Index construction.
//!
//! The wedge-enumeration pass of Algorithm 3 is independent per start
//! vertex, so [`BeIndex::build_parallel`] runs the one construction path
//! ([`crate::build`]) on several shards of the shared driver
//! ([`butterfly::shard_start_vertices`], the one parallel counting
//! uses): vertex `v` goes to shard `v mod T`, each shard appends its
//! blooms into its own arena, and the shards' per-vertex bloom ranges
//! are spliced back in global vertex order with renumbered bloom ids
//! ([`RawArena::append`](crate::RawArena::append)). Per-edge link
//! tallies are additive, so they reduce with a chunked parallel sum.
//!
//! Because every shard runs the same per-vertex bloom append and the
//! splice restores the sequential vertex order, the resulting index is
//! **bit-identical to [`BeIndex::build`] regardless of thread count** —
//! the determinism the cross-checks in `tests/` pin down.

use bigraph::progress::{EngineObserver, NoopObserver};
use bigraph::{BipartiteGraph, Result};
use butterfly::Threads;

use crate::build::build_sharded;
use crate::index::BeIndex;

impl BeIndex {
    /// Builds the full BE-Index of `g` across `threads` workers.
    ///
    /// Deterministic: the result (including the exact CSR layout, bloom
    /// numbering and wedge order) is identical to [`BeIndex::build`] for
    /// every thread count. `Threads(0)` auto-detects; `Threads(1)` or a
    /// graph below [`butterfly::SHARD_MIN_VERTICES`] vertices runs one
    /// shard on the calling thread.
    pub fn build_parallel(g: &BipartiteGraph, threads: Threads) -> BeIndex {
        BeIndex::build_parallel_observed(g, threads, &NoopObserver)
            .expect("NoopObserver never cancels") // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
    }

    /// [`BeIndex::build_parallel`] with an [`EngineObserver`]: every
    /// shard polls for cancellation and ticks a shared progress counter
    /// every [`CHECK_INTERVAL`](bigraph::progress::CHECK_INTERVAL) start
    /// vertices.
    ///
    /// # Errors
    ///
    /// Returns [`bigraph::Error::Cancelled`] when the observer requests
    /// cancellation; all shards stop at their next poll and the partial
    /// arenas are discarded.
    pub fn build_parallel_observed(
        g: &BipartiteGraph,
        threads: Threads,
        observer: &dyn EngineObserver,
    ) -> Result<BeIndex> {
        build_sharded(g, None, threads.resolve(), observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::GraphBuilder;

    fn random_graph(edges: usize, side: u32, seed: u64) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        let mut state = seed | 1;
        for _ in 0..edges {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) % side as u64) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) % side as u64) as u32;
            b.push_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn bit_identical_to_sequential_across_thread_counts() {
        // The last graph crosses the sharding cutoff; the others run one
        // shard whatever the thread count.
        assert!(random_graph(6_000, 700, 5).num_vertices() >= butterfly::SHARD_MIN_VERTICES);
        for (edges, side, seed) in [(60, 10, 7), (400, 40, 1), (2_000, 120, 42), (6_000, 700, 5)] {
            let g = random_graph(edges, side, seed);
            let seq = BeIndex::build(&g);
            for threads in [1, 2, 3, 8] {
                let par = BeIndex::build_parallel(&g, Threads(threads));
                assert_eq!(par, seq, "edges={edges} threads={threads}");
                par.validate(&g).unwrap();
            }
        }
    }

    #[test]
    fn auto_threads_matches_sequential() {
        let g = random_graph(1_500, 90, 99);
        let seq = BeIndex::build(&g);
        let par = BeIndex::build_parallel(&g, Threads::AUTO);
        assert_eq!(par, seq);
    }

    #[test]
    fn more_workers_than_vertices() {
        let g = GraphBuilder::new()
            .add_edges([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
            .build()
            .unwrap();
        let seq = BeIndex::build(&g);
        let par = BeIndex::build_parallel(&g, Threads(16));
        assert_eq!(par, seq);
        par.validate(&g).unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        let par = BeIndex::build_parallel(&g, Threads(4));
        assert_eq!(par.num_blooms(), 0);
        assert_eq!(par.num_wedges(), 0);
    }

    #[test]
    fn butterfly_free_star() {
        let mut b = GraphBuilder::new();
        for v in 0..50 {
            b.push_edge(0, v);
        }
        let g = b.build().unwrap();
        let seq = BeIndex::build(&g);
        let par = BeIndex::build_parallel(&g, Threads(3));
        assert_eq!(par, seq);
        assert_eq!(par.num_blooms(), 0);
    }
}
