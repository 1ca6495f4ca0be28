//! Index construction — Algorithms 3 and 6 of the paper.
//!
//! One pass of priority-obeyed wedge enumeration — the shared wedge scan
//! of the `butterfly` crate, the same one counting runs — discovers
//! every maximal priority-obeyed bloom: for a start vertex `u`, all
//! wedges `(u, v, w)` with `p(v) < p(u)`, `p(w) < p(u)` sharing the same
//! end `w` belong to the bloom anchored by `(u, w)`.
//!
//! Every in-memory build runs `build_sharded`: the bloom append
//! ([`process_vertex_raw`]) per start vertex on the shared sharded
//! driver ([`butterfly::shard_start_vertices`]), the shards' arenas
//! spliced back in vertex order ([`RawArena::append`]) and finalized by
//! [`assemble`]. The sequential and compressed builds are its one-shard
//! case, so every thread count yields the same index.

use bigraph::progress::{checkpoint, EngineObserver, NoopObserver, Phase};
use bigraph::{BipartiteGraph, Result};
use butterfly::{par_add_assign, shard_start_vertices};

use crate::index::BeIndex;
use crate::raw::{assemble, process_vertex_raw, RawArena, RawScratch};

impl BeIndex {
    /// Builds the full BE-Index of `g` (Algorithm 3).
    ///
    /// Runs in `O(Σ_{(u,v)∈E} min{d(u), d(v)})` time and space.
    pub fn build(g: &BipartiteGraph) -> BeIndex {
        // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
        build_sharded(g, None, 1, &NoopObserver).expect("NoopObserver never cancels")
    }

    /// [`BeIndex::build`] with an [`EngineObserver`]: reports phase start,
    /// coarse per-vertex progress, and polls for cancellation every
    /// [`CHECK_INTERVAL`](bigraph::progress::CHECK_INTERVAL) start
    /// vertices.
    ///
    /// # Errors
    ///
    /// Returns [`bigraph::Error::Cancelled`] when the observer requests
    /// cancellation; the partial arena is discarded.
    pub fn build_observed(g: &BipartiteGraph, observer: &dyn EngineObserver) -> Result<BeIndex> {
        build_sharded(g, None, 1, observer)
    }

    /// Builds the *compressed* BE-Index of `g` (Algorithm 6), used by
    /// BiT-PC on candidate subgraphs that still contain edges whose
    /// bitruss numbers were assigned in earlier iterations.
    ///
    /// `assigned[e]` marks those edges (indexed by `g`'s edge ids). They
    /// are not inserted into `L(I)` — they receive no links and will never
    /// have their supports updated — but every wedge they participate in
    /// still counts towards its bloom's `k`, so the supports derived for
    /// unassigned edges are exactly their supports in `g` (which includes
    /// the butterflies shared with assigned edges).
    pub fn build_compressed(g: &BipartiteGraph, assigned: &[bool]) -> BeIndex {
        debug_assert_eq!(assigned.len(), g.num_edges() as usize);
        // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
        build_sharded(g, Some(assigned), 1, &NoopObserver).expect("NoopObserver never cancels")
    }

    /// [`BeIndex::build_compressed`] with an [`EngineObserver`]; same
    /// progress and cancellation contract as [`BeIndex::build_observed`].
    ///
    /// # Errors
    ///
    /// Returns [`bigraph::Error::Cancelled`] when the observer requests
    /// cancellation.
    pub fn build_compressed_observed(
        g: &BipartiteGraph,
        assigned: &[bool],
        observer: &dyn EngineObserver,
    ) -> Result<BeIndex> {
        debug_assert_eq!(assigned.len(), g.num_edges() as usize);
        build_sharded(g, Some(assigned), 1, observer)
    }
}

/// One shard of an index build: its bloom arena and link tallies.
struct Shard {
    scratch: RawScratch,
    arena: RawArena,
    link_count: Vec<u32>,
}

/// Builds the (optionally compressed) index of `g` across `threads`
/// shards. A shard visits its start vertices in ascending order and a
/// bloom's anchor names its start vertex, so walking the vertices in
/// global order and splicing each one's blooms from its shard restores
/// the sequential arena exactly; link tallies are additive.
pub(crate) fn build_sharded(
    g: &BipartiteGraph,
    assigned: Option<&[bool]>,
    threads: usize,
    observer: &dyn EngineObserver,
) -> Result<BeIndex> {
    let n = g.num_vertices();
    let m = g.num_edges() as usize;
    observer.on_phase_start(Phase::IndexBuild, u64::from(n));
    checkpoint(observer)?;
    let mut shards = shard_start_vertices(
        n,
        threads,
        Phase::IndexBuild,
        observer,
        || Shard {
            scratch: RawScratch::new(n as usize),
            arena: RawArena::new(),
            link_count: vec![0; m],
        },
        |s, u| {
            process_vertex_raw(
                g,
                u,
                assigned,
                &mut s.scratch,
                &mut s.arena,
                &mut s.link_count,
            )
        },
    )?;

    let t = shards.len();
    let mut partials = shards.iter_mut().map(|s| std::mem::take(&mut s.link_count));
    let mut link_count = partials.next().unwrap_or_default();
    let rest: Vec<Vec<u32>> = partials.collect();
    par_add_assign(&mut link_count, &rest, t);
    drop(rest);
    let arena = if t == 1 {
        shards.swap_remove(0).arena
    } else {
        splice_in_vertex_order(&shards, n)
    };
    drop(shards);
    let index = assemble(arena, &link_count, assigned);
    observer.on_phase_end(Phase::IndexBuild);
    Ok(index)
}

/// Splices the shards' arenas into the one a single pass over
/// `0..num_vertices` builds: vertex `u`'s blooms are the next run of
/// shard `u mod T`'s blooms anchored at `u`.
fn splice_in_vertex_order(shards: &[Shard], num_vertices: u32) -> RawArena {
    let t = shards.len();
    let mut merged = RawArena::new();
    merged.reserve_exact(
        shards.iter().map(|s| s.arena.num_wedges()).sum(),
        shards.iter().map(|s| s.arena.num_blooms()).sum(),
    );
    let mut next = vec![0usize; t]; // first unspliced bloom per shard
    for u in 0..num_vertices {
        let ti = u as usize % t;
        let arena = &shards[ti].arena;
        let lo = next[ti];
        let hi = lo
            + arena.bloom_anchor[lo..]
                .iter()
                .take_while(|&&(start, _)| start == u)
                .count();
        if hi > lo {
            merged.append(arena, lo..hi);
            next[ti] = hi;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BloomId;
    use bigraph::{EdgeId, GraphBuilder};

    /// The 9-edge graph of Figure 4(a)/Figure 6: edge ids (sorted order)
    /// e0=(u0,v0), e1=(u0,v1), e2=(u1,v0), e3=(u1,v1), e4=(u2,v0),
    /// e5=(u2,v1), e6=(u2,v2), e7=(u3,v1), e8=(u3,v2).
    fn fig6_graph() -> BipartiteGraph {
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
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn fig6_structure_matches_paper() {
        let g = fig6_graph();
        let idx = BeIndex::build(&g);
        idx.validate(&g).unwrap();

        // Exactly the two blooms of Figure 6: B0* (k=3, onB=3) over
        // e0..e5, and B1* (k=2, onB=1) over e5..e8.
        assert_eq!(idx.num_blooms(), 2);
        assert_eq!(idx.bloom_k(BloomId(0)), 3);
        assert_eq!(idx.bloom_butterflies(BloomId(0)), 3);
        assert_eq!(idx.bloom_k(BloomId(1)), 2);
        assert_eq!(idx.bloom_butterflies(BloomId(1)), 1);
        assert_eq!(idx.total_butterflies(), 4);

        // Both anchors are dominated by v1 (global id 1), the
        // highest-priority vertex.
        assert_eq!(idx.bloom_anchor(BloomId(0)), (1, 0)); // (v1, v0)
        assert_eq!(idx.bloom_anchor(BloomId(1)), (1, 2)); // (v1, v2)

        // Twin edges exactly as drawn in Figure 6.
        let twin_of = |e: u32| -> Vec<(u32, u32)> {
            idx.links(EdgeId(e))
                .iter()
                .map(|&w| {
                    let wid = crate::WedgeId(w);
                    (idx.wedge_bloom(wid).0, idx.wedge_twin(wid, EdgeId(e)).0)
                })
                .collect()
        };
        assert_eq!(twin_of(0), vec![(0, 1)]);
        assert_eq!(twin_of(1), vec![(0, 0)]);
        assert_eq!(twin_of(2), vec![(0, 3)]);
        assert_eq!(twin_of(3), vec![(0, 2)]);
        assert_eq!(twin_of(4), vec![(0, 5)]);
        assert_eq!(twin_of(6), vec![(1, 5)]);
        assert_eq!(twin_of(7), vec![(1, 8)]);
        assert_eq!(twin_of(8), vec![(1, 7)]);
        // e5 sits in both blooms: twin e4 in B0*, twin e6 in B1*.
        let mut e5 = twin_of(5);
        e5.sort_unstable();
        assert_eq!(e5, vec![(0, 4), (1, 6)]);

        // Supports as printed in Figure 6: 2 2 2 2 2 3 1 1 1.
        assert_eq!(idx.derive_supports(), vec![2, 2, 2, 2, 2, 3, 1, 1, 1]);
    }

    #[test]
    fn derived_supports_match_counting_everywhere() {
        // A less regular graph: two overlapping bicliques plus pendants.
        let mut b = GraphBuilder::new();
        for u in 0..4 {
            for v in 0..3 {
                b.push_edge(u, v);
            }
        }
        for u in 2..6 {
            for v in 2..5 {
                b.push_edge(u, v);
            }
        }
        b.push_edge(0, 6);
        b.push_edge(5, 0);
        let g = b.build().unwrap();
        let idx = BeIndex::build(&g);
        idx.validate(&g).unwrap();
        let counts = butterfly::count_per_edge(&g);
        assert_eq!(idx.derive_supports(), counts.per_edge);
        assert_eq!(idx.total_butterflies(), counts.total);
    }

    #[test]
    fn every_butterfly_in_exactly_one_bloom() {
        let g = fig6_graph();
        let idx = BeIndex::build(&g);
        // Σ_B C(k_B, 2) counts each butterfly once (Lemma 3); with the
        // enumerated total they must agree.
        let enumerated = butterfly::enumerate_butterflies(&g).len() as u64;
        assert_eq!(idx.total_butterflies(), enumerated);
    }

    #[test]
    fn compressed_build_skips_assigned_edges() {
        let g = fig6_graph();
        // Assign e6, e7, e8 (the 1-bitruss fringe).
        let mut assigned = vec![false; 9];
        for e in [6, 7, 8] {
            assigned[e] = true;
        }
        let idx = BeIndex::build_compressed(&g, &assigned);
        idx.validate(&g).unwrap();

        // Assigned edges are not in L(I).
        assert!(!idx.in_index(EdgeId(6)));
        assert!(idx.links(EdgeId(6)).is_empty());
        assert!(idx.in_index(EdgeId(0)));

        // But the blooms they supported are preserved: B1* still has k=2,
        // so sup(e5) still counts the butterfly shared with e6..e8.
        let supp = idx.derive_supports();
        assert_eq!(supp[5], 3);
        assert_eq!(supp[0], 2);
        assert_eq!(supp[6], 0); // assigned ⇒ no derived support
    }

    #[test]
    fn compressed_with_fully_assigned_bloom_stores_no_wedges_for_it() {
        let g = fig6_graph();
        // Assign every edge of B1* = {e5, e6, e7, e8}: its wedges are all
        // ghosts, so no bloom needs to be materialized for it.
        let mut assigned = vec![false; 9];
        for e in [5, 6, 7, 8] {
            assigned[e] = true;
        }
        let idx = BeIndex::build_compressed(&g, &assigned);
        idx.validate(&g).unwrap();
        assert_eq!(idx.num_blooms(), 1); // only B0* remains materialized
        assert_eq!(idx.bloom_k(BloomId(0)), 3);
        let supp = idx.derive_supports();
        assert_eq!(&supp[0..5], &[2, 2, 2, 2, 2]);
    }

    #[test]
    fn compressed_mixed_wedge_links_only_unassigned_side() {
        let g = fig6_graph();
        let mut assigned = vec![false; 9];
        assigned[6] = true; // e6 assigned; its wedge partner e5 is not
        let idx = BeIndex::build_compressed(&g, &assigned);
        idx.validate(&g).unwrap();
        // e5 keeps a link to B1* whose twin is the assigned e6.
        let mut found = false;
        for &w in idx.links(EdgeId(5)) {
            let wid = crate::WedgeId(w);
            if idx.wedge_bloom(wid) == BloomId(1) {
                assert_eq!(idx.wedge_twin(wid, EdgeId(5)), EdgeId(6));
                found = true;
            }
        }
        assert!(found);
        assert!(idx.links(EdgeId(6)).is_empty());
    }

    #[test]
    fn empty_and_butterfly_free_graphs() {
        let g = GraphBuilder::new().build().unwrap();
        let idx = BeIndex::build(&g);
        assert_eq!(idx.num_blooms(), 0);
        assert_eq!(idx.total_butterflies(), 0);

        let star = {
            let mut b = GraphBuilder::new();
            for v in 0..20 {
                b.push_edge(0, v);
            }
            b.build().unwrap()
        };
        let idx = BeIndex::build(&star);
        idx.validate(&star).unwrap();
        assert_eq!(idx.num_blooms(), 0);
        assert!(idx.derive_supports().iter().all(|&s| s == 0));
    }

    #[test]
    fn index_size_bound() {
        // Stored wedges never exceed Σ min{d(u), d(v)} (Lemma 6).
        let mut b = GraphBuilder::new();
        for u in 0..20 {
            for v in 0..20 {
                if (u * 7 + v * 3) % 4 != 0 {
                    b.push_edge(u, v);
                }
            }
        }
        let g = b.build().unwrap();
        let idx = BeIndex::build(&g);
        idx.validate(&g).unwrap();
        assert!((idx.num_wedges() as u64) <= g.sum_min_degree());
    }
}
