//! Storage-agnostic adjacency access for the butterfly kernels.
//!
//! The counting and BE-Index construction kernels only ever consume a
//! vertex's adjacency in two shapes:
//!
//! * the **priority-capped prefix** of the priority-sorted list — the
//!   wedge scans stop at the first neighbor whose priority reaches the
//!   start vertex's, which is what keeps them within the paper's
//!   `O(Σ min{d(u), d(v)})` bound;
//! * the **id-sorted list** — for sorted-list intersection
//!   (`edge_between`-style lookups and galloping).
//!
//! [`NeighborAccess`] abstracts exactly those two loads (plus the
//! scalar lookups the kernels need), so the same generic kernels run
//! bit-identically over the in-memory [`BipartiteGraph`] CSR and over
//! the compressed, disk-paged adjacency of the out-of-core storage
//! tier (`bitruss_storage`).
//!
//! The priority-capped load *lends* a `(neighbors, edges)` slice pair
//! ([`NeighborAccess::pri_neighbors_below`]). The CSR lends its whole
//! list without copying anything and the scan breaks at the cap. A
//! decoding backend has no resident slice to
//! lend: it decodes only the below-cap prefix into a caller-owned buffer
//! and lends that. Copying the prefix where a slice exists is a second
//! pass over it, not a free one — CSR counting through a copying loader
//! took about 1.8× the slice kernel's time on a 1M-edge graph (2-core
//! Xeon VM) — so the contract leaves the copy to the backends that have
//! to decode anyway.

use crate::error::Result;
use crate::graph::{BipartiteGraph, VertexId};

/// Read access to a priority-ordered bipartite adjacency structure.
///
/// Implementations must present the *same logical graph* contract as
/// [`BipartiteGraph`]: vertices `0..num_vertices()` (lower wing first),
/// a bijective priority assignment, and per-vertex adjacency available
/// both id-sorted and priority-sorted. Two implementations that agree
/// on those views produce bit-identical butterfly counts and BE-Index
/// layouts from the generic kernels.
pub trait NeighborAccess: Sync {
    /// Whether [`NeighborAccess::pri_neighbors_below`] lends only the
    /// below-cap prefix. Decoding backends do, and scans over them skip
    /// the per-neighbor cap check, a random priority lookup per neighbor
    /// that cannot fire.
    const PREFIX_ONLY: bool = false;

    /// Total number of vertices (both wings).
    fn num_vertices(&self) -> u32;

    /// Number of edges.
    fn num_edges(&self) -> u32;

    /// The vertex's priority (degree-then-id rank; see
    /// [`BipartiteGraph::priority`]).
    fn priority(&self, v: VertexId) -> u32;

    /// The vertex's degree.
    fn degree(&self, v: VertexId) -> u32;

    /// Lends `v`'s priority-sorted adjacency as a `(neighbors, edges)`
    /// slice pair of equal length, ascending by neighbor priority, whose
    /// prefix holds every neighbor with priority `< cap` (neighbor ids
    /// and matching edge ids). The pair may run past the cap — the CSR
    /// lends its whole list — so a scan breaks at the first neighbor whose
    /// priority reaches `cap`. `cap = u32::MAX` lends the whole list.
    ///
    /// Backends that decode fill `nbrs`/`edges` (cleared first) with the
    /// below-`cap` prefix only, lend them, and set
    /// [`NeighborAccess::PREFIX_ONLY`]: they must not decode more than
    /// `O(prefix)` of the list beyond what is needed to find the cut
    /// point. Backends with a resident list lend it and leave the buffers
    /// alone.
    ///
    /// # Errors
    ///
    /// Disk-backed implementations return [`crate::Error::Io`] /
    /// [`crate::Error::Corrupt`] when the underlying read fails; the
    /// in-memory implementation is infallible.
    fn pri_neighbors_below<'a>(
        &'a self,
        v: VertexId,
        cap: u32,
        nbrs: &'a mut Vec<u32>,
        edges: &'a mut Vec<u32>,
    ) -> Result<(&'a [u32], &'a [u32])>;

    /// Clears `nbrs`/`edges` and fills them with `v`'s adjacency in
    /// ascending neighbor-id order (neighbor ids and matching edge
    /// ids) — the shape sorted-list intersection consumes.
    ///
    /// # Errors
    ///
    /// Same contract as [`NeighborAccess::pri_neighbors_below`].
    fn load_neighbors_by_id(
        &self,
        v: VertexId,
        nbrs: &mut Vec<u32>,
        edges: &mut Vec<u32>,
    ) -> Result<()>;
}

impl NeighborAccess for BipartiteGraph {
    fn num_vertices(&self) -> u32 {
        BipartiteGraph::num_vertices(self)
    }

    fn num_edges(&self) -> u32 {
        BipartiteGraph::num_edges(self)
    }

    fn priority(&self, v: VertexId) -> u32 {
        BipartiteGraph::priority(self, v)
    }

    fn degree(&self, v: VertexId) -> u32 {
        BipartiteGraph::degree(self, v)
    }

    fn pri_neighbors_below<'a>(
        &'a self,
        v: VertexId,
        _cap: u32,
        _nbrs: &'a mut Vec<u32>,
        _edges: &'a mut Vec<u32>,
    ) -> Result<(&'a [u32], &'a [u32])> {
        Ok((self.pri_neighbor_slice(v), self.pri_neighbor_edge_slice(v)))
    }

    fn load_neighbors_by_id(
        &self,
        v: VertexId,
        nbrs: &mut Vec<u32>,
        edges: &mut Vec<u32>,
    ) -> Result<()> {
        nbrs.clear();
        edges.clear();
        nbrs.extend_from_slice(self.neighbor_slice(v));
        edges.extend_from_slice(self.neighbor_edge_slice(v));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

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
    fn capped_load_matches_the_break_scan() {
        let g = fig1();
        let (mut nbrs, mut edges) = (Vec::new(), Vec::new());
        let caps = (0..=g.num_vertices()).chain([u32::MAX]);
        for v in g.vertices() {
            for cap in caps.clone() {
                let (ns, es) = g
                    .pri_neighbors_below(v, cap, &mut nbrs, &mut edges)
                    .unwrap();
                assert_eq!(ns.len(), es.len());
                let pri: Vec<u32> = ns.iter().map(|&w| g.priority(VertexId(w))).collect();
                assert!(pri.windows(2).all(|p| p[0] < p[1]), "v={v:?} cap={cap}");
                // Reference: the explicit break loop of the slice kernels.
                let mut want_n = Vec::new();
                let mut want_e = Vec::new();
                for (&w, &e) in g
                    .pri_neighbor_slice(v)
                    .iter()
                    .zip(g.pri_neighbor_edge_slice(v))
                {
                    if g.priority(VertexId(w)) >= cap {
                        break;
                    }
                    want_n.push(w);
                    want_e.push(e);
                }
                let cut = pri.partition_point(|&p| p < cap);
                assert_eq!(&ns[..cut], want_n, "v={v:?} cap={cap}");
                assert_eq!(&es[..cut], want_e, "v={v:?} cap={cap}");
                // The CSR lends its whole list and copies nothing.
                assert_eq!(ns, g.pri_neighbor_slice(v));
                assert_eq!(es, g.pri_neighbor_edge_slice(v));
                assert!(nbrs.is_empty() && edges.is_empty());
            }
        }
    }

    #[test]
    fn id_sorted_load_matches_the_slices() {
        let g = fig1();
        let mut nbrs = vec![99]; // pre-filled: loads must clear
        let mut edges = vec![99];
        for v in g.vertices() {
            g.load_neighbors_by_id(v, &mut nbrs, &mut edges).unwrap();
            assert_eq!(nbrs, g.neighbor_slice(v));
            assert_eq!(edges, g.neighbor_edge_slice(v));
        }
    }

    #[test]
    fn scalar_accessors_delegate() {
        let g = fig1();
        assert_eq!(NeighborAccess::num_vertices(&g), g.num_vertices());
        assert_eq!(NeighborAccess::num_edges(&g), g.num_edges());
        for v in g.vertices() {
            assert_eq!(NeighborAccess::degree(&g, v), g.degree(v));
            assert_eq!(NeighborAccess::priority(&g, v), g.priority(v));
        }
    }
}
