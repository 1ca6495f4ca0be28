//! Per-edge butterfly support counting via priority-obeyed wedges.
//!
//! Every counting entry point — sequential or sharded, in-memory or over
//! a decoding backend — runs `count_edges`: the shared wedge scan of
//! [`crate::scan`] per start vertex, driven by
//! [`shard_start_vertices`], with the shards' partial supports summed at
//! the end.

use bigraph::progress::{checkpoint, EngineObserver, NoopObserver, Phase};
use bigraph::{BipartiteGraph, EdgeId, NeighborAccess, Result, VertexId};

use crate::parallel::{par_add_assign, shard_start_vertices};
use crate::scan::WedgeScan;

/// Result of a counting pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ButterflyCounts {
    /// `per_edge[e]` = number of butterflies containing edge `e`
    /// (the butterfly support `sup(e)`).
    pub per_edge: Vec<u64>,
    /// Total number of butterflies in the graph (`onG`).
    pub total: u64,
}

impl ButterflyCounts {
    /// Support of one edge.
    #[inline]
    pub fn support(&self, e: EdgeId) -> u64 {
        self.per_edge[e.index()]
    }

    /// Maximum support over all edges (0 for an edgeless graph).
    pub fn max_support(&self) -> u64 {
        self.per_edge.iter().copied().max().unwrap_or(0)
    }
}

/// `C(c, 2)` without overflow for `c ≤ 2^32`.
#[inline]
pub(crate) fn choose2(c: u64) -> u64 {
    c * c.saturating_sub(1) / 2
}

/// Counts, for every edge, the number of butterflies containing it, plus
/// the total butterfly count, in `O(Σ_{(u,v)∈E} min{d(u), d(v)})` time.
///
/// This is the counting step used by every decomposition algorithm
/// (Algorithm 1 line 1, Algorithm 4 line 1, Algorithm 7 line 1).
pub fn count_per_edge(g: &BipartiteGraph) -> ButterflyCounts {
    // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
    count_per_edge_observed(g, &NoopObserver).expect("NoopObserver never cancels")
}

/// [`count_per_edge`] with an [`EngineObserver`]: reports phase start,
/// coarse per-vertex progress, and polls for cancellation every
/// [`CHECK_INTERVAL`](bigraph::progress::CHECK_INTERVAL) start vertices.
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation; the partial counts are discarded.
pub fn count_per_edge_observed(
    g: &BipartiteGraph,
    observer: &dyn EngineObserver,
) -> Result<ButterflyCounts> {
    count_edges(g, 1, observer)
}

/// Counts only the total number of butterflies (`onG`), skipping the
/// per-edge pass.
pub fn count_total(g: &BipartiteGraph) -> u64 {
    let mut scan = WedgeScan::new(g.num_vertices() as usize);
    let mut total = 0u64;
    for u in g.vertices() {
        scan.scan(g, u, |_, _, _, _| {})
            .expect("CSR loads never fail"); // xtask:allow(no-panic-lib) infallible: the in-memory CSR lends its lists and never fails a load
        scan.drain(|_, c| total += choose2(u64::from(c)));
    }
    total
}

/// One shard's per-edge counting state.
struct EdgeCounts {
    scan: WedgeScan,
    /// `(w, e_uv, e_vw)` of the current start vertex's wedges.
    wedges: Vec<(u32, u32, u32)>,
    per_edge: Vec<u64>,
    total: u64,
}

impl EdgeCounts {
    fn new(num_vertices: usize, num_edges: usize) -> EdgeCounts {
        EdgeCounts {
            scan: WedgeScan::new(num_vertices),
            wedges: Vec::new(),
            per_edge: vec![0; num_edges],
            total: 0,
        }
    }

    /// Adds the butterflies of the blooms anchored at start vertex `u`.
    #[inline]
    fn add_blooms_of<N: NeighborAccess + ?Sized>(&mut self, g: &N, u: VertexId) -> Result<()> {
        let EdgeCounts {
            scan,
            wedges,
            per_edge,
            total,
        } = self;
        wedges.clear();
        scan.scan(g, u, |_, w, e_uv, e_vw| wedges.push((w, e_uv, e_vw)))?;
        // Each bloom (u, w) with c wedges holds C(c,2) butterflies and
        // gives every member edge c−1 supports.
        for &(w, e1, e2) in wedges.iter() {
            let c = u64::from(scan.count(w));
            if c >= 2 {
                per_edge[e1 as usize] += c - 1;
                per_edge[e2 as usize] += c - 1;
            }
        }
        scan.drain(|_, c| *total += choose2(u64::from(c)));
        Ok(())
    }
}

/// Per-edge counting over any backend across `threads` shards (one runs
/// on the calling thread; see [`shard_start_vertices`] for the cutoff).
/// Every addition into a support lands in the same shard-independent
/// total, so the result is identical for every backend and shard count.
pub(crate) fn count_edges<N: NeighborAccess + ?Sized>(
    g: &N,
    threads: usize,
    observer: &dyn EngineObserver,
) -> Result<ButterflyCounts> {
    let n = g.num_vertices();
    let m = g.num_edges() as usize;
    observer.on_phase_start(Phase::Counting, u64::from(n));
    checkpoint(observer)?;
    let shards = shard_start_vertices(
        n,
        threads,
        Phase::Counting,
        observer,
        || EdgeCounts::new(n as usize, m),
        |shard, u| shard.add_blooms_of(g, u),
    )?;
    let total = shards.iter().map(|s| s.total).sum();
    let mut partials = shards.into_iter().map(|s| s.per_edge);
    let mut per_edge = partials.next().unwrap_or_default();
    let rest: Vec<Vec<u64>> = partials.collect();
    par_add_assign(&mut per_edge, &rest, rest.len() + 1);
    observer.on_phase_end(Phase::Counting);
    Ok(ButterflyCounts { per_edge, total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::GraphBuilder;

    /// Figure 1 of the paper: authors u0..u3, papers v0..v4.
    fn fig1() -> BipartiteGraph {
        GraphBuilder::new()
            .add_edges([
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 1),
                (3, 2),
                (2, 3),
                (3, 4),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn fig1_supports() {
        let g = fig1();
        let c = count_per_edge(&g);
        assert_eq!(c.total, 4);
        let sup = |u: u32, v: u32| {
            let e = g.edge_between(g.upper(u), g.lower(v)).unwrap();
            c.support(e)
        };
        // Blue block {u0,u1,u2}×{v0,v1}: every edge except (u2,v1) has 2.
        assert_eq!(sup(0, 0), 2);
        assert_eq!(sup(0, 1), 2);
        assert_eq!(sup(1, 0), 2);
        assert_eq!(sup(1, 1), 2);
        assert_eq!(sup(2, 0), 2);
        // (u2,v1) also lies in [u2,v1,u3,v2].
        assert_eq!(sup(2, 1), 3);
        // Yellow edges.
        assert_eq!(sup(2, 2), 1);
        assert_eq!(sup(3, 1), 1);
        assert_eq!(sup(3, 2), 1);
        // Gray edges.
        assert_eq!(sup(2, 3), 0);
        assert_eq!(sup(3, 4), 0);
    }

    #[test]
    fn complete_biclique_closed_form() {
        // K_{a,b} has C(a,2)*C(b,2) butterflies; each edge is in
        // (a-1)*(b-1) of them.
        for (a, b) in [(2u32, 2u32), (3, 4), (5, 5), (2, 7)] {
            let mut builder = GraphBuilder::new();
            for u in 0..a {
                for v in 0..b {
                    builder.push_edge(u, v);
                }
            }
            let g = builder.build().unwrap();
            let c = count_per_edge(&g);
            let expect_total = choose2(a as u64) * choose2(b as u64);
            assert_eq!(c.total, expect_total, "K_{{{a},{b}}} total");
            for e in g.edges() {
                assert_eq!(c.support(e), ((a - 1) * (b - 1)) as u64);
            }
            assert_eq!(count_total(&g), expect_total);
        }
    }

    #[test]
    fn bloom_of_fig3() {
        // Figure 3(a): a 1001-bloom (2 upper × 1001 lower vertices).
        let mut builder = GraphBuilder::new();
        for v in 0..1001u32 {
            builder.push_edge(0, v);
            builder.push_edge(1, v);
        }
        let g = builder.build().unwrap();
        let c = count_per_edge(&g);
        assert_eq!(c.total, 1001 * 1000 / 2);
        for e in g.edges() {
            assert_eq!(c.support(e), 1000);
        }
    }

    #[test]
    fn butterfly_free_graphs() {
        // A star has no butterflies.
        let mut builder = GraphBuilder::new();
        for v in 0..50 {
            builder.push_edge(0, v);
        }
        let g = builder.build().unwrap();
        let c = count_per_edge(&g);
        assert_eq!(c.total, 0);
        assert!(c.per_edge.iter().all(|&s| s == 0));

        // A path u0-v0-u1-v1 has none either.
        let g = GraphBuilder::new()
            .add_edges([(0, 0), (1, 0), (1, 1)])
            .build()
            .unwrap();
        assert_eq!(count_per_edge(&g).total, 0);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        let c = count_per_edge(&g);
        assert_eq!(c.total, 0);
        assert!(c.per_edge.is_empty());
        assert_eq!(c.max_support(), 0);
    }

    #[test]
    fn support_identity_4x_total() {
        // Σ_e sup(e) = 4 · onG (each butterfly has 4 edges).
        let g = fig1();
        let c = count_per_edge(&g);
        let sum: u64 = c.per_edge.iter().sum();
        assert_eq!(sum, 4 * c.total);
    }
}
