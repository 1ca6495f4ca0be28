//! Backend-generic butterfly kernels over [`NeighborAccess`].
//!
//! [`count_per_edge_access`] counts over any backend: the in-memory CSR,
//! or the compressed, disk-paged adjacency of the out-of-core storage
//! tier. It is not a second kernel — it runs the same per-edge counting
//! ([`crate::count_per_edge`]) over the shared wedge scan
//! ([`crate::scan`]), which reads every backend through the lending load
//! [`NeighborAccess::pri_neighbors_below`]. The CSR lends its lists and
//! the scan breaks at the cap; decoding backends decode each
//! below-cap prefix once into the scan's buffers. Either way the wedge
//! order and every addition into the support array are the same, so all
//! backends produce bit-identical [`ButterflyCounts`] (pinned against
//! the brute-force oracle here and against the CSR run in the storage
//! tier).
//!
//! The module also holds the id-sorted side of the contract:
//! [`intersect_sorted`] and [`common_neighbors`].

use crate::support::{count_edges, ButterflyCounts};
use bigraph::progress::{EngineObserver, NoopObserver};
use bigraph::{NeighborAccess, Result, VertexId};

/// [`count_per_edge`](crate::count_per_edge) over any
/// [`NeighborAccess`] backend. Bit-identical to it on the same logical
/// graph.
///
/// # Errors
///
/// Propagates loader failures ([`bigraph::Error::Io`] /
/// [`bigraph::Error::Corrupt`] from disk-backed backends); the
/// in-memory backend is infallible.
pub fn count_per_edge_access<N: NeighborAccess + ?Sized>(g: &N) -> Result<ButterflyCounts> {
    count_per_edge_access_observed(g, &NoopObserver)
}

/// [`count_per_edge_access`] with an [`EngineObserver`]: reports phase
/// start, coarse per-vertex progress, and polls for cancellation every
/// [`CHECK_INTERVAL`](bigraph::progress::CHECK_INTERVAL) start vertices —
/// the same cadence as [`count_per_edge_observed`](crate::count_per_edge_observed).
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation, or a loader failure from the backend; the partial
/// counts are discarded.
pub fn count_per_edge_access_observed<N: NeighborAccess + ?Sized>(
    g: &N,
    observer: &dyn EngineObserver,
) -> Result<ButterflyCounts> {
    count_edges(g, 1, observer)
}

/// Intersects two ascending id-sorted lists into `out` (cleared
/// first), in ascending order. Uses a linear merge for balanced lists
/// and gallops the smaller list through the larger when heavily skewed
/// — the branch choice never changes the output, only the probe count.
pub fn intersect_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.len() * 32 < l.len() {
        // Galloping: for each small element, exponential search forward
        // in the large list from the previous cut, then binary search
        // the bracketed range. Adjacency lists are strictly ascending,
        // so the bracket `l[lo + bound] ≥ x` always contains `x`'s
        // position.
        let mut lo = 0usize;
        for &x in s {
            if lo >= l.len() {
                break;
            }
            let mut bound = 1usize;
            while lo + bound < l.len() && l[lo + bound] < x {
                bound *= 2;
            }
            let hi = (lo + bound + 1).min(l.len());
            match l[lo..hi].binary_search(&x) {
                Ok(i) => {
                    out.push(x);
                    lo += i + 1;
                }
                Err(i) => lo += i,
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < s.len() && j < l.len() {
            match s[i].cmp(&l[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(s[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// The common neighbors of `a` and `b` under any [`NeighborAccess`]
/// backend, ascending by id — the sorted-list intersection every
/// backend must agree on.
///
/// # Errors
///
/// Propagates loader failures from disk-backed backends.
pub fn common_neighbors<N: NeighborAccess + ?Sized>(
    g: &N,
    a: VertexId,
    b: VertexId,
) -> Result<Vec<u32>> {
    let mut na = Vec::new();
    let mut ea = Vec::new();
    let mut nb = Vec::new();
    let mut eb = Vec::new();
    g.load_neighbors_by_id(a, &mut na, &mut ea)?;
    g.load_neighbors_by_id(b, &mut nb, &mut eb)?;
    let mut out = Vec::new();
    intersect_sorted(&na, &nb, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        count_naive, count_per_edge, count_per_vertex, count_total, enumerate_butterflies,
    };
    use bigraph::{BipartiteGraph, GraphBuilder};

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

    /// Every counting entry point against the brute-force oracles.
    fn assert_entry_points_match_the_oracle(g: &BipartiteGraph, what: &str) {
        let want = count_naive(g);
        let mut per_vertex = vec![0u64; g.num_vertices() as usize];
        for b in enumerate_butterflies(g) {
            for v in [b.u1, b.u2, b.v1, b.v2] {
                per_vertex[v.index()] += 1;
            }
        }
        assert_eq!(count_per_edge(g), want, "{what}");
        assert_eq!(count_per_edge_access(g).unwrap(), want, "{what}");
        assert_eq!(count_total(g), want.total, "{what}");
        assert_eq!(count_per_vertex(g), per_vertex, "{what}");
    }

    #[test]
    fn every_entry_point_matches_the_oracle_on_fig1() {
        assert_entry_points_match_the_oracle(&fig1(), "fig1");
    }

    #[test]
    fn every_entry_point_matches_the_oracle_on_bicliques_and_stars() {
        for (a, b) in [(2u32, 2u32), (3, 4), (5, 5), (1, 50)] {
            let mut builder = GraphBuilder::new();
            for u in 0..a {
                for v in 0..b {
                    builder.push_edge(u, v);
                }
            }
            assert_entry_points_match_the_oracle(&builder.build().unwrap(), &format!("K_{a},{b}"));
        }
        assert_entry_points_match_the_oracle(&GraphBuilder::new().build().unwrap(), "empty");
        for seed in 0..8 {
            let g = datagen::powerlaw::chung_lu(30, 30, 250, 2.0, 2.0, seed);
            assert_entry_points_match_the_oracle(&g, &format!("chung-lu seed {seed}"));
        }
    }

    #[test]
    fn intersect_sorted_matches_naive_on_skew() {
        let naive = |a: &[u32], b: &[u32]| -> Vec<u32> {
            a.iter().copied().filter(|x| b.contains(x)).collect()
        };
        let cases: &[(Vec<u32>, Vec<u32>)] = &[
            (vec![], vec![]),
            (vec![1, 3, 5], vec![]),
            (vec![1, 2, 3], vec![2, 3, 4]),
            (vec![5], (0..500).collect()),
            (vec![0, 499], (0..500).collect()),
            ((0..500).step_by(7).collect(), (0..500).step_by(3).collect()),
            (vec![100, 200, 300], (0..1000).collect()),
        ];
        let mut out = Vec::new();
        for (a, b) in cases {
            intersect_sorted(a, b, &mut out);
            assert_eq!(out, naive(a, b), "a={a:?}");
            intersect_sorted(b, a, &mut out);
            assert_eq!(out, naive(a, b), "swapped a={a:?}");
        }
    }

    #[test]
    fn common_neighbors_matches_slices() {
        let g = fig1();
        for a in g.upper_vertices() {
            for b in g.upper_vertices() {
                let want: Vec<u32> = g
                    .neighbor_slice(a)
                    .iter()
                    .copied()
                    .filter(|x| g.neighbor_slice(b).contains(x))
                    .collect();
                assert_eq!(common_neighbors(&g, a, b).unwrap(), want);
            }
        }
    }
}
