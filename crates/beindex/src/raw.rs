//! The one BE-Index construction path: an append-only arena, the
//! per-start-vertex bloom append, and the finalizer.
//!
//! Every build — [`BeIndex::build`], the compressed build of
//! Algorithm 6, the sharded [`BeIndex::build_parallel`] and the
//! spill-to-disk builder of `bitruss_storage` — is "run
//! [`process_vertex_raw`] for every start vertex, then [`assemble`]":
//!
//! * [`RawArena`] — the append-only bloom/wedge arena with public flat
//!   vectors (serializable by the caller) and local bloom ids.
//!   [`RawArena::append`] splices a range of another arena's blooms in
//!   with renumbered ids, which is how the sharded build restores vertex
//!   order and how the spill builder merges its runs;
//! * [`process_vertex_raw`] — the bloom append of Algorithm 3 lines
//!   4–13 (with Algorithm 6's `assigned` filter) for one start vertex,
//!   consuming the shared wedge scan of the `butterfly` crate over any
//!   [`NeighborAccess`] backend;
//! * [`assemble`] — the arena → [`BeIndex`] finalization, taking the
//!   per-edge link tallies the caller kept resident (they are `O(m)`
//!   and additive across shards and runs).
//!
//! An arena built by [`process_vertex_raw`] over `u = 0..n` in order,
//! however it was split into shards or runs and spliced back in vertex
//! order, is the same arena, so [`assemble`] yields the same index.

use std::ops::Range;

use bigraph::{NeighborAccess, Result, VertexId};
use butterfly::WedgeScan;

use crate::bitset::BitSet;
use crate::index::BeIndex;

/// An append-only bloom/wedge arena with run-local bloom ids.
/// `bloom_start` always begins with `0` and positions are local to this
/// arena, so a builder can serialize an arena, reset it, and later
/// splice many arenas together (in ascending start-vertex order) with
/// [`RawArena::append`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawArena {
    /// First member edge of each wedge (the `(u,v)` edge).
    pub wedge_e1: Vec<u32>,
    /// Second member edge of each wedge (the `(v,w)` edge).
    pub wedge_e2: Vec<u32>,
    /// Arena-local bloom id of each wedge.
    pub wedge_bloom: Vec<u32>,
    /// Arena-local wedge positions per bloom; starts at `[0]`.
    pub bloom_start: Vec<u32>,
    /// Wedge count `k` of each bloom, including the ghost wedges of a
    /// compressed build (wedges of two assigned edges, counted but not
    /// stored).
    pub bloom_k: Vec<u32>,
    /// `(start, end)` vertex ids anchoring each bloom.
    pub bloom_anchor: Vec<(u32, u32)>,
}

impl RawArena {
    /// An empty arena ready to append into.
    pub fn new() -> RawArena {
        RawArena {
            bloom_start: vec![0],
            ..RawArena::default()
        }
    }

    /// Number of wedges appended so far.
    pub fn num_wedges(&self) -> usize {
        self.wedge_e1.len()
    }

    /// Number of blooms appended so far.
    pub fn num_blooms(&self) -> usize {
        self.bloom_k.len()
    }

    /// Resident bytes of the arena vectors — what a budgeted builder
    /// compares against its spill threshold.
    pub fn bytes(&self) -> usize {
        self.wedge_e1.len() * 4
            + self.wedge_e2.len() * 4
            + self.wedge_bloom.len() * 4
            + self.bloom_start.len() * 4
            + self.bloom_k.len() * 4
            + self.bloom_anchor.len() * 8
    }

    /// Reserves room for `wedges` more wedges and `blooms` more blooms.
    pub fn reserve_exact(&mut self, wedges: usize, blooms: usize) {
        self.wedge_e1.reserve_exact(wedges);
        self.wedge_e2.reserve_exact(wedges);
        self.wedge_bloom.reserve_exact(wedges);
        self.bloom_start.reserve_exact(blooms);
        self.bloom_k.reserve_exact(blooms);
        self.bloom_anchor.reserve_exact(blooms);
    }

    /// Resets to the empty state, keeping allocations.
    pub fn clear(&mut self) {
        self.wedge_e1.clear();
        self.wedge_e2.clear();
        self.wedge_bloom.clear();
        self.bloom_start.clear();
        self.bloom_start.push(0);
        self.bloom_k.clear();
        self.bloom_anchor.clear();
    }

    /// Appends `run`'s blooms `blooms` (with their wedges, which are
    /// contiguous because wedges are grouped by bloom), renumbering bloom
    /// ids and wedge positions past this arena's. Splicing arenas' bloom
    /// ranges in ascending start-vertex order this way reproduces exactly
    /// the arena a single sequential pass builds.
    pub fn append(&mut self, run: &RawArena, blooms: Range<usize>) {
        let wedges = run.bloom_start[blooms.start] as usize..run.bloom_start[blooms.end] as usize;
        let (bloom_base, first_bloom) = (self.bloom_k.len() as u32, blooms.start as u32);
        let (wedge_base, first_wedge) = (self.wedge_e1.len() as u32, wedges.start as u32);
        self.wedge_e1
            .extend_from_slice(&run.wedge_e1[wedges.clone()]);
        self.wedge_e2
            .extend_from_slice(&run.wedge_e2[wedges.clone()]);
        self.wedge_bloom.extend(
            run.wedge_bloom[wedges]
                .iter()
                .map(|&b| b - first_bloom + bloom_base),
        );
        self.bloom_start.extend(
            run.bloom_start[blooms.start + 1..=blooms.end]
                .iter()
                .map(|&s| s - first_wedge + wedge_base),
        );
        self.bloom_k.extend_from_slice(&run.bloom_k[blooms.clone()]);
        self.bloom_anchor
            .extend_from_slice(&run.bloom_anchor[blooms]);
    }
}

/// Per-pass scratch for [`process_vertex_raw`], sized to the graph's
/// vertex count and reused across start vertices.
pub struct RawScratch {
    scan: WedgeScan,
    /// `(w, e_uv, e_vw)` of the current start vertex's wedges.
    wedges: Vec<(u32, u32, u32)>,
    /// Per end vertex: while scanning a compressed build, its stored
    /// (non-ghost) wedges; then its bloom's next fill position.
    cursor: Vec<u32>,
}

impl RawScratch {
    /// Scratch for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> RawScratch {
        RawScratch {
            scan: WedgeScan::new(num_vertices),
            wedges: Vec::new(),
            cursor: vec![0; num_vertices],
        }
    }
}

/// Enumerates the priority-obeyed wedges starting at `u` and appends
/// the blooms/wedges they form to `arena` (Algorithm 3 lines 4–13 for
/// one start vertex), tallying per-edge link counts into `link_count`
/// (global edge ids). A bloom exists where at least two wedges share an
/// end (`count_wedge(w) > 1`, Algorithm 3 line 10).
///
/// `assigned` marks the edges of a compressed build (Algorithm 6): they
/// get no links, and a wedge of two assigned edges is a *ghost* that
/// counts towards its bloom's `k` without being stored; a bloom of
/// ghosts alone is not materialized. Deterministic: the appended layout
/// depends only on `u` and the graph, never on which shard runs it.
///
/// # Errors
///
/// Propagates loader failures of decoding backends.
pub fn process_vertex_raw<N: NeighborAccess + ?Sized>(
    g: &N,
    u: VertexId,
    assigned: Option<&[bool]>,
    scratch: &mut RawScratch,
    arena: &mut RawArena,
    link_count: &mut [u32],
) -> Result<()> {
    let is_assigned = |e: u32| assigned.is_some_and(|a| a[e as usize]);
    let ghost = |e_uv: u32, e_vw: u32| is_assigned(e_uv) && is_assigned(e_vw);
    let RawScratch {
        scan,
        wedges,
        cursor,
    } = scratch;
    wedges.clear();
    scan.scan(g, u, |_, w, e_uv, e_vw| {
        wedges.push((w, e_uv, e_vw));
        if assigned.is_some() && !ghost(e_uv, e_vw) {
            cursor[w as usize] += 1;
        }
    })?;

    // One bloom per end vertex with count_wedge > 1 that stores at
    // least one wedge (a full build stores them all).
    for &w in scan.touched() {
        let c = scan.count(w);
        let stored = if assigned.is_some() {
            cursor[w as usize]
        } else {
            c
        };
        if c > 1 && stored > 0 {
            let bloom = arena.bloom_k.len() as u32;
            cursor[w as usize] = arena.wedge_e1.len() as u32;
            let new_len = arena.wedge_e1.len() + stored as usize;
            arena.wedge_e1.resize(new_len, u32::MAX);
            arena.wedge_e2.resize(new_len, u32::MAX);
            arena.wedge_bloom.resize(new_len, bloom);
            arena.bloom_start.push(new_len as u32);
            arena.bloom_k.push(c);
            arena.bloom_anchor.push((u.0, w));
        }
    }

    // Place the stored wedges and tally link counts.
    for &(w, e_uv, e_vw) in wedges.iter() {
        if scan.count(w) > 1 && !ghost(e_uv, e_vw) {
            let pos = cursor[w as usize] as usize;
            cursor[w as usize] += 1;
            arena.wedge_e1[pos] = e_uv;
            arena.wedge_e2[pos] = e_vw;
            if !is_assigned(e_uv) {
                link_count[e_uv as usize] += 1;
            }
            if !is_assigned(e_vw) {
                link_count[e_vw as usize] += 1;
            }
        }
    }
    scan.drain(|w, _| cursor[w as usize] = 0);
    Ok(())
}

/// Finalizes a fully-merged arena into a [`BeIndex`]: the per-edge link
/// CSR (ascending wedge ids, as the fill order guarantees) and the packed
/// presence/liveness bitsets. `link_count` has one tally per edge of the
/// graph; `assigned` is the compressed build's mask (`None` for a full
/// build), whose edges start absent from `L(I)`.
pub fn assemble(arena: RawArena, link_count: &[u32], assigned: Option<&[bool]>) -> BeIndex {
    let m = link_count.len();
    let is_assigned = |e: u32| assigned.is_some_and(|a| a[e as usize]);
    let RawArena {
        wedge_e1,
        wedge_e2,
        wedge_bloom,
        bloom_start,
        bloom_k,
        bloom_anchor,
    } = arena;

    let mut link_start = vec![0u32; m + 1];
    for e in 0..m {
        link_start[e + 1] = link_start[e] + link_count[e];
    }
    let mut fill = link_start[..m].to_vec();
    let mut link_wedge = vec![0u32; link_start[m] as usize];
    for w in 0..wedge_e1.len() {
        for e in [wedge_e1[w], wedge_e2[w]] {
            if !is_assigned(e) {
                link_wedge[fill[e as usize] as usize] = w as u32;
                fill[e as usize] += 1;
            }
        }
    }

    BeIndex {
        num_edges: m as u32,
        wedge_alive: BitSet::filled(wedge_e1.len(), true),
        in_index: match assigned {
            Some(a) => BitSet::from_fn(m, |e| !a[e]),
            None => BitSet::filled(m, true),
        },
        wedge_e1,
        wedge_e2,
        wedge_bloom,
        bloom_start,
        bloom_k,
        bloom_anchor,
        link_start,
        link_wedge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{BipartiteGraph, GraphBuilder};

    fn builds_identically(g: &BipartiteGraph, flush_every: usize) {
        let n = g.num_vertices() as usize;
        let m = g.num_edges() as usize;
        let mut scratch = RawScratch::new(n);
        let mut link_count = vec![0u32; m];
        let mut merged = RawArena::new();
        let mut run = RawArena::new();
        for (i, u) in g.vertices().enumerate() {
            process_vertex_raw(g, u, None, &mut scratch, &mut run, &mut link_count).unwrap();
            if (i + 1) % flush_every == 0 {
                merged.append(&run, 0..run.num_blooms());
                run.clear();
            }
        }
        merged.append(&run, 0..run.num_blooms());
        let idx = assemble(merged, &link_count, None);
        assert_eq!(idx, BeIndex::build(g), "flush_every={flush_every}");
        idx.validate(g).unwrap();
    }

    #[test]
    fn raw_build_matches_sequential_for_every_flush_cadence() {
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
        for flush_every in 1..=g.num_vertices() as usize + 1 {
            builds_identically(&g, flush_every);
        }
    }

    #[test]
    fn raw_build_matches_on_overlapping_bicliques() {
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
        let g = b.build().unwrap();
        for flush_every in [1, 2, 3, 7, 100] {
            builds_identically(&g, flush_every);
        }
    }

    #[test]
    fn arena_bytes_track_growth() {
        let mut a = RawArena::new();
        let empty = a.bytes();
        a.wedge_e1.push(0);
        a.wedge_e2.push(1);
        a.wedge_bloom.push(0);
        assert_eq!(a.bytes(), empty + 12);
        a.clear();
        assert_eq!(a.bytes(), empty);
        assert_eq!(a.num_wedges(), 0);
        assert_eq!(a.num_blooms(), 0);
    }
}
