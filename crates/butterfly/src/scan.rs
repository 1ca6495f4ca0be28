//! The priority-obeyed wedge scan every counting pass and the BE-Index
//! construction share.
//!
//! For a start vertex `u`, [`WedgeScan::scan`] enumerates every wedge
//! `(u, v, w)` with `p(v) < p(u)` and `p(w) < p(u)` (Algorithm 3 lines
//! 4–8 of the paper; the vertex-priority counting of its ref. \[8\]) and
//! tallies the wedges per end vertex `w`. The wedges sharing an end form
//! the maximal priority-obeyed bloom anchored at `(u, w)`; a bloom with
//! `c` wedges holds `C(c,2)` butterflies and gives each of its edges
//! `c − 1` supports (Lemmas 1–3).
//!
//! The scan reads adjacency through
//! [`NeighborAccess::pri_neighbors_below`], so it runs over the CSR (which
//! lends its lists and is cut by the early `break`) and over the decoding
//! backends of the storage tier (which lend only the below-cap prefix and
//! declare [`NeighborAccess::PREFIX_ONLY`], so the cap check is skipped)
//! alike. Consumers — per-edge, total and per-vertex counting here, the
//! bloom append of the `beindex` crate — see each wedge through a closure
//! and the per-end tallies afterwards, then [`WedgeScan::drain`] the
//! blooms to ready the scan for the next start vertex.

use bigraph::{NeighborAccess, Result, VertexId};

/// Per-worker scratch of the wedge scan: the per-end wedge tallies of
/// the current start vertex and the loader buffers of the two scan
/// levels. Sized to the graph's vertex count and reused across start
/// vertices.
#[derive(Debug, Clone)]
pub struct WedgeScan {
    /// Wedges per end vertex for the current start vertex.
    count: Vec<u32>,
    /// End vertices with a nonzero count, in first-touch order.
    touched: Vec<u32>,
    u_nbrs: Vec<u32>,
    u_edges: Vec<u32>,
    v_nbrs: Vec<u32>,
    v_edges: Vec<u32>,
}

impl WedgeScan {
    /// Scratch for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> WedgeScan {
        WedgeScan {
            count: vec![0; num_vertices],
            touched: Vec::new(),
            u_nbrs: Vec::new(),
            u_edges: Vec::new(),
            v_nbrs: Vec::new(),
            v_edges: Vec::new(),
        }
    }

    /// Enumerates the priority-obeyed wedges `(u, v, w)` starting at `u`,
    /// calling `wedge(v, w, e_uv, e_vw)` for each in scan order (`v` by
    /// ascending priority, then `w` by ascending priority), and tallies
    /// them per end `w`. The scan must be drained before the next one.
    ///
    /// # Errors
    ///
    /// Propagates loader failures of decoding backends; the tallies are
    /// then partial and the scan should be dropped.
    #[inline]
    pub fn scan<N, F>(&mut self, g: &N, u: VertexId, mut wedge: F) -> Result<()>
    where
        N: NeighborAccess + ?Sized,
        F: FnMut(u32, u32, u32, u32),
    {
        debug_assert!(self.touched.is_empty(), "scan not drained");
        let pu = g.priority(u);
        let (vs, ves) = g.pri_neighbors_below(u, pu, &mut self.u_nbrs, &mut self.u_edges)?;
        for (&v, &e_uv) in vs.iter().zip(ves) {
            if !N::PREFIX_ONLY && g.priority(VertexId(v)) >= pu {
                break;
            }
            let (ws, wes) =
                g.pri_neighbors_below(VertexId(v), pu, &mut self.v_nbrs, &mut self.v_edges)?;
            for (&w, &e_vw) in ws.iter().zip(wes) {
                if !N::PREFIX_ONLY && g.priority(VertexId(w)) >= pu {
                    break;
                }
                let c = &mut self.count[w as usize];
                if *c == 0 {
                    self.touched.push(w);
                }
                *c += 1;
                wedge(v, w, e_uv, e_vw);
            }
        }
        Ok(())
    }

    /// The number of wedges of the last scan that end at `w` — the `k`
    /// of the bloom anchored at `(u, w)`, a bloom only when `k ≥ 2`.
    #[inline]
    pub fn count(&self, w: u32) -> u32 {
        self.count[w as usize]
    }

    /// The ends reached by the last scan, in first-touch order.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Calls `end(w, count)` for every end of the last scan in
    /// first-touch order and resets the tallies for the next scan.
    #[inline]
    pub fn drain(&mut self, mut end: impl FnMut(u32, u32)) {
        for &w in &self.touched {
            end(w, self.count[w as usize]);
            self.count[w as usize] = 0;
        }
        self.touched.clear();
    }
}
