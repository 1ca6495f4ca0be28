//! Per-vertex butterfly counting.
//!
//! `count_per_vertex(g)[x]` is the number of butterflies containing
//! vertex `x` — the quantity peeled by tip decomposition and a common
//! network statistic. Derived from the shared wedge scan
//! ([`crate::scan`]): a bloom with `c` wedges contributes `C(c,2)`
//! butterflies to each of its two anchor vertices and `c − 1` to each
//! middle vertex.

use bigraph::BipartiteGraph;

use crate::scan::WedgeScan;
use crate::support::choose2;

/// Counts, for every vertex, the number of butterflies containing it, in
/// `O(Σ_{(u,v)∈E} min{d(u), d(v)})` time.
pub fn count_per_vertex(g: &BipartiteGraph) -> Vec<u64> {
    let n = g.num_vertices() as usize;
    let mut per_vertex = vec![0u64; n];
    let mut scan = WedgeScan::new(n);
    let mut wedges: Vec<(u32, u32)> = Vec::new(); // (middle v, end w)

    for u in g.vertices() {
        wedges.clear();
        scan.scan(g, u, |v, w, _, _| wedges.push((v, w)))
            .expect("CSR loads never fail"); // xtask:allow(no-panic-lib) infallible: the in-memory CSR lends its lists and never fails a load
                                             // Middles: c − 1 butterflies per wedge membership.
        for &(v, w) in &wedges {
            let c = u64::from(scan.count(w));
            if c >= 2 {
                per_vertex[v as usize] += c - 1;
            }
        }
        // Anchors: C(c, 2) butterflies each.
        scan.drain(|w, c| {
            let b = choose2(u64::from(c));
            per_vertex[u.index()] += b;
            per_vertex[w as usize] += b;
        });
    }
    per_vertex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::enumerate_butterflies;
    use crate::support::count_per_edge;
    use bigraph::GraphBuilder;

    fn naive_per_vertex(g: &BipartiteGraph) -> Vec<u64> {
        let mut counts = vec![0u64; g.num_vertices() as usize];
        for b in enumerate_butterflies(g) {
            for v in [b.u1, b.u2, b.v1, b.v2] {
                counts[v.index()] += 1;
            }
        }
        counts
    }

    #[test]
    fn matches_naive_on_fixture() {
        let g = GraphBuilder::new()
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
            ])
            .build()
            .unwrap();
        assert_eq!(count_per_vertex(&g), naive_per_vertex(&g));
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..10 {
            let g = datagen::random::uniform(15, 15, 80, seed);
            assert_eq!(count_per_vertex(&g), naive_per_vertex(&g), "seed {seed}");
        }
    }

    #[test]
    fn vertex_sum_equals_four_times_total() {
        let g = datagen::powerlaw::chung_lu(50, 50, 600, 2.0, 2.0, 3);
        let per_vertex = count_per_vertex(&g);
        let edges = count_per_edge(&g);
        assert_eq!(per_vertex.iter().sum::<u64>(), 4 * edges.total);
    }

    #[test]
    fn complete_biclique_closed_form() {
        // K_{a,b}: every upper vertex is in (a-1)·C(b,2) butterflies.
        let (a, b) = (4u64, 5u64);
        let mut builder = GraphBuilder::new();
        for u in 0..a as u32 {
            for v in 0..b as u32 {
                builder.push_edge(u, v);
            }
        }
        let g = builder.build().unwrap();
        let counts = count_per_vertex(&g);
        for u in g.upper_vertices() {
            assert_eq!(counts[u.index()], (a - 1) * choose2(b));
        }
        for v in g.lower_vertices() {
            assert_eq!(counts[v.index()], (b - 1) * choose2(a));
        }
    }
}
