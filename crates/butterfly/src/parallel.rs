//! The sharded start-vertex driver, and multi-threaded per-edge
//! butterfly counting on it.
//!
//! An extension beyond the paper (its §I cites parallel butterfly
//! computations as related work): the priority-obeyed wedge enumeration
//! is independent per start vertex, so [`shard_start_vertices`] deals
//! start vertices to shards interleaved (vertex `u` → shard `u mod T`),
//! runs each shard on its own scoped thread with its own state, polls
//! for cancellation and ticks a shared progress counter, and returns the
//! shards' states for the caller to merge. It drives both parallel
//! counting here and the parallel BE-Index build of the `beindex` crate,
//! and — with one shard on the calling thread — their sequential
//! versions too.
//!
//! Counting merges by summing the shards' support arrays, chunked across
//! the same workers ([`par_add_assign`]), so the result is bit-identical
//! to [`crate::count_per_edge`].

use std::sync::atomic::{AtomicU64, Ordering};

use bigraph::progress::{checkpoint, EngineObserver, NoopObserver, Phase, CHECK_INTERVAL};
use bigraph::{BipartiteGraph, Result, VertexId};

use crate::support::{count_edges, ButterflyCounts};

/// Worker-thread configuration shared by every parallel entry point of the
/// suite (counting, index construction, peeling): `Threads(0)` auto-detects
/// via [`std::thread::available_parallelism`], `Threads(n)` pins exactly
/// `n` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Threads(pub usize);

impl Threads {
    /// Auto-detect the worker count from the hardware.
    pub const AUTO: Threads = Threads(0);

    /// Resolves the configuration to a concrete worker count (always ≥ 1).
    pub fn resolve(self) -> usize {
        if self.0 == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.0
        }
    }
}

impl From<usize> for Threads {
    fn from(n: usize) -> Threads {
        Threads(n)
    }
}

/// Chunked parallel element-wise reduction: folds every `partials[j]`
/// into `acc` (`acc[i] += partials[j][i]`), with contiguous chunks of
/// `acc` owned by scoped workers so no thread serializes the whole merge.
/// Every partial must be at least as long as `acc`. Shared by the
/// counting reduction here and the link-tally reduction of the parallel
/// BE-Index build.
pub fn par_add_assign<T>(acc: &mut [T], partials: &[Vec<T>], threads: usize)
where
    T: std::ops::AddAssign + Copy + Send + Sync,
{
    if acc.is_empty() || partials.is_empty() {
        return;
    }
    let chunk = acc.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (i, acc_chunk) in acc.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                let base = i * chunk;
                let len = acc_chunk.len();
                for partial in partials {
                    for (a, &p) in acc_chunk.iter_mut().zip(&partial[base..base + len]) {
                        *a += p;
                    }
                }
            });
        }
    });
}

/// Start-vertex count below which [`shard_start_vertices`] runs one
/// shard on the calling thread whatever the thread count: on a graph
/// this small, thread start-up and the per-shard `O(n + m)` scratch cost
/// more than the scan.
pub const SHARD_MIN_VERTICES: u32 = 1024;

/// Runs `visit(&mut state, u)` for every start vertex `u` in
/// `0..num_vertices`, dealt to shards interleaved: shard `t` of `T`
/// visits `t, t + T, t + 2T, …` in ascending order with its own state
/// from `init`. `T` is `threads` (at least 1), or 1 below
/// [`SHARD_MIN_VERTICES`]; shard 0 runs on the calling thread, the rest
/// on scoped threads. Every shard polls `observer` for cancellation and
/// ticks `phase`'s shared progress counter every [`CHECK_INTERVAL`] of
/// its vertices. Returns the `T` states in shard order.
///
/// # Errors
///
/// [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation, or the first error `visit` returned, in shard order;
/// the other shards stop at their next poll or finish, and every
/// state is discarded.
pub fn shard_start_vertices<S, I, V>(
    num_vertices: u32,
    threads: usize,
    phase: Phase,
    observer: &dyn EngineObserver,
    init: I,
    visit: V,
) -> Result<Vec<S>>
where
    S: Send,
    I: Fn() -> S + Sync,
    V: Fn(&mut S, VertexId) -> Result<()> + Sync,
{
    let n = num_vertices;
    let shards = if n < SHARD_MIN_VERTICES {
        1
    } else {
        threads.max(1)
    };
    let progress = AtomicU64::new(0);
    let shard = |t: usize| -> Result<S> {
        let mut state = init();
        let mut since_poll = 0u64;
        for u in (t..n as usize).step_by(shards) {
            visit(&mut state, VertexId(u as u32))?;
            since_poll += 1;
            if since_poll == CHECK_INTERVAL {
                since_poll = 0;
                checkpoint(observer)?;
                // Relaxed: advisory progress telemetry; no memory is
                // published through this counter.
                let done = progress.fetch_add(CHECK_INTERVAL, Ordering::Relaxed) + CHECK_INTERVAL;
                observer.on_phase_progress(phase, done.min(u64::from(n)), u64::from(n));
            }
        }
        Ok(state)
    };
    if shards == 1 {
        return Ok(vec![shard(0)?]);
    }
    let shard = &shard;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..shards).map(|t| scope.spawn(move || shard(t))).collect();
        let first = shard(0);
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked")), // xtask:allow(no-panic-lib) Err here means a worker panicked; workers are panic-free by this same lint, and propagating a real panic is the correct failure mode
            )
            .collect()
    })
}

/// Parallel counting across `threads` workers (clamped to at least 1).
/// `threads == 0` selects `std::thread::available_parallelism()`.
pub fn count_per_edge_parallel(g: &BipartiteGraph, threads: usize) -> ButterflyCounts {
    // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
    count_per_edge_parallel_observed(g, threads, &NoopObserver).expect("NoopObserver never cancels")
}

/// [`count_per_edge_parallel`] with an [`EngineObserver`]: every shard
/// polls for cancellation and ticks a shared progress counter every
/// [`CHECK_INTERVAL`] start vertices (so progress events may arrive from
/// several threads).
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation; all shards stop at their next poll and the partials are
/// discarded.
pub fn count_per_edge_parallel_observed(
    g: &BipartiteGraph,
    threads: usize,
    observer: &dyn EngineObserver,
) -> Result<ButterflyCounts> {
    count_edges(g, Threads(threads).resolve(), observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::count_per_edge;
    use bigraph::GraphBuilder;

    fn dense_test_graph() -> BipartiteGraph {
        // Deterministic pseudo-random graph big enough to cross the
        // parallel threshold.
        let mut b = GraphBuilder::new();
        let mut state = 0x12345678u64;
        for _ in 0..12_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) % 700) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) % 700) as u32;
            b.push_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_sequential() {
        let g = dense_test_graph();
        assert!(g.num_vertices() >= SHARD_MIN_VERTICES);
        let seq = count_per_edge(&g);
        for threads in [2, 3, 4, 8] {
            let par = count_per_edge_parallel(&g, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn more_workers_than_edges_still_reduces_correctly() {
        // Exercises the chunked reduction when chunks are tiny relative to
        // the worker count.
        let g = dense_test_graph();
        let seq = count_per_edge(&g);
        let par = count_per_edge_parallel(&g, 13);
        assert_eq!(par, seq);
    }

    #[test]
    fn single_thread_falls_back() {
        let g = GraphBuilder::new()
            .add_edges([(0, 0), (0, 1), (1, 0), (1, 1)])
            .build()
            .unwrap();
        let c = count_per_edge_parallel(&g, 1);
        assert_eq!(c.total, 1);
    }

    #[test]
    fn auto_thread_selection() {
        let g = dense_test_graph();
        let seq = count_per_edge(&g);
        let par = count_per_edge_parallel(&g, 0);
        assert_eq!(par, seq);
    }

    #[test]
    fn par_add_assign_matches_serial_sum() {
        let partials: Vec<Vec<u32>> = (0..5)
            .map(|j| (0..103u32).map(|i| i * 3 + j).collect())
            .collect();
        let mut acc = vec![1u32; 103];
        let mut expect = acc.clone();
        for p in &partials {
            for (a, &x) in expect.iter_mut().zip(p) {
                *a += x;
            }
        }
        par_add_assign(&mut acc, &partials, 4);
        assert_eq!(acc, expect);
        // Degenerate shapes are no-ops, not panics.
        par_add_assign::<u32>(&mut [], &partials, 4);
        par_add_assign(&mut acc, &[], 4);
        assert_eq!(acc, expect);
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads(4).resolve(), 4);
        assert_eq!(Threads(1).resolve(), 1);
        assert!(Threads::AUTO.resolve() >= 1);
        assert_eq!(Threads::from(3), Threads(3));
        assert_eq!(Threads::default(), Threads::AUTO);
    }
}
