//! Delta-compressed adjacency blocks.
//!
//! A [`CompressedAdjacency`] re-encodes a [`BipartiteGraph`]'s CSR into
//! per-vertex byte blocks, keeping only `O(n)` word arrays resident:
//!
//! * **id stream** — the id-sorted adjacency of each vertex as
//!   delta-varint neighbor ids plus raw varint edge ids, in chunks of
//!   [`SKIP`] entries. Each block opens with a fixed-width *skip
//!   table*: one `(first_neighbor, byte_offset)` pair per chunk, so a
//!   membership probe gallops over the skip table and decodes at most
//!   one chunk instead of the whole list
//!   ([`CompressedAdjacency::contains_neighbor`]).
//! * **pri stream** — the priority-sorted adjacency as delta-varint
//!   *priority values* (ascending, so deltas are small) plus raw
//!   varint edge ids. Neighbor ids are recovered through the resident
//!   priority → vertex inverse permutation. Because the stream ascends
//!   by priority, a capped load
//!   ([`NeighborAccess::pri_neighbors_below`]) decodes exactly the
//!   prefix the wedge scan consumes into the caller's buffers, stops,
//!   and lends that prefix — the early break of the wedge scan survives
//!   compression, and each prefix is decoded once.
//!
//! Resident arrays: per-vertex priority, the inverse permutation,
//! degrees, and the two per-vertex byte-offset directories. Everything
//! else lives in the two byte streams — in memory here, behind a page
//! cache in [`crate::PagedGraph`] (which reuses these encoders and
//! decoders verbatim; bit-identity of the two backends is pinned in
//! `tests/`).

use bigraph::{BipartiteGraph, Error, NeighborAccess, Result, VertexId};

use crate::varint::{get_u32, put_u32};

/// Entries per skip chunk of the id stream. 64 keeps the skip table at
/// 12.5% of worst-case entry count while a membership probe decodes at
/// most 64 entries.
pub const SKIP: usize = 64;

/// A bipartite graph re-encoded as delta-compressed adjacency blocks.
/// Implements [`NeighborAccess`], so every generic kernel runs on it
/// directly; [`crate::PagedGraph`] serves the same byte streams from
/// disk instead.
#[derive(Debug, Clone)]
pub struct CompressedAdjacency {
    pub(crate) num_lower: u32,
    pub(crate) num_upper: u32,
    pub(crate) num_edges: u32,
    /// Priority of each vertex (resident, `n × 4` bytes).
    pub(crate) priority: Vec<u32>,
    /// Inverse permutation: `vertex_of_priority[p]` = the vertex with
    /// priority `p` (resident, `n × 4` bytes).
    pub(crate) vertex_of_priority: Vec<u32>,
    /// Degree of each vertex (resident, `n × 4` bytes).
    pub(crate) degree: Vec<u32>,
    /// Byte offsets of each vertex's id-stream block (`n + 1`).
    pub(crate) id_dir: Vec<u64>,
    /// Byte offsets of each vertex's pri-stream block (`n + 1`).
    pub(crate) pri_dir: Vec<u64>,
    /// Concatenated id-stream blocks.
    pub(crate) id_bytes: Vec<u8>,
    /// Concatenated pri-stream blocks.
    pub(crate) pri_bytes: Vec<u8>,
}

impl CompressedAdjacency {
    /// Encodes `g` into compressed blocks.
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] when the graph's priority assignment is not
    /// a bijection onto `0..n` (cannot happen for graphs built by
    /// `GraphBuilder`), [`Error::TooLarge`] when one vertex's block
    /// exceeds the `u32` skip-offset space.
    pub fn from_graph(g: &BipartiteGraph) -> Result<CompressedAdjacency> {
        let n = g.num_vertices() as usize;
        let mut priority = vec![0u32; n];
        let mut vertex_of_priority = vec![u32::MAX; n];
        let mut degree = vec![0u32; n];
        for v in g.vertices() {
            let p = g.priority(v);
            priority[v.index()] = p;
            let slot = vertex_of_priority
                .get_mut(p as usize)
                .ok_or_else(|| Error::Invariant(format!("priority {p} out of range 0..{n}")))?;
            if *slot != u32::MAX {
                return Err(Error::Invariant(format!("duplicate priority {p}")));
            }
            *slot = v.0;
            degree[v.index()] = g.degree(v);
        }

        let mut id_dir = Vec::with_capacity(n + 1);
        let mut pri_dir = Vec::with_capacity(n + 1);
        let mut id_bytes = Vec::new();
        let mut pri_bytes = Vec::new();
        let mut pairs = Vec::new();
        id_dir.push(0);
        pri_dir.push(0);
        for v in g.vertices() {
            encode_id_block(
                g.neighbor_slice(v),
                g.neighbor_edge_slice(v),
                &mut id_bytes,
                &mut pairs,
            )?;
            id_dir.push(id_bytes.len() as u64);
            encode_pri_block(
                g.pri_neighbor_slice(v),
                g.pri_neighbor_edge_slice(v),
                &priority,
                &mut pri_bytes,
            );
            pri_dir.push(pri_bytes.len() as u64);
        }

        Ok(CompressedAdjacency {
            num_lower: g.num_lower(),
            num_upper: g.num_upper(),
            num_edges: g.num_edges(),
            priority,
            vertex_of_priority,
            degree,
            id_dir,
            pri_dir,
            id_bytes,
            pri_bytes,
        })
    }

    /// Lower-layer vertex count.
    pub fn num_lower(&self) -> u32 {
        self.num_lower
    }

    /// Upper-layer vertex count.
    pub fn num_upper(&self) -> u32 {
        self.num_upper
    }

    /// Total resident bytes: the `O(n)` word arrays plus both byte
    /// streams. Compare against
    /// [`BipartiteGraph::memory_bytes`] for the compression ratio.
    pub fn memory_bytes(&self) -> usize {
        self.priority.len() * 4
            + self.vertex_of_priority.len() * 4
            + self.degree.len() * 4
            + self.id_dir.len() * 8
            + self.pri_dir.len() * 8
            + self.id_bytes.len()
            + self.pri_bytes.len()
    }

    /// Looks up the edge between `v` and neighbor id `x` by galloping
    /// the skip table: binary search for the chunk whose first neighbor
    /// is `≤ x`, then decode at most [`SKIP`] entries of that one
    /// chunk. Returns the edge id, or `None` when `x` is not adjacent.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] when the block bytes fail to decode.
    pub fn contains_neighbor(&self, v: VertexId, x: u32) -> Result<Option<u32>> {
        let d = self.degree[v.index()] as usize;
        let block =
            &self.id_bytes[self.id_dir[v.index()] as usize..self.id_dir[v.index() + 1] as usize];
        contains_in_id_block(block, d, x)
    }
}

/// Encodes one id-sorted adjacency list: fixed-width skip table, then
/// delta-varint chunks. `pairs` is reusable scratch for the encoded
/// chunk area.
pub(crate) fn encode_id_block(
    nbrs: &[u32],
    edges: &[u32],
    out: &mut Vec<u8>,
    pairs: &mut Vec<u8>,
) -> Result<()> {
    pairs.clear();
    let nchunks = nbrs.len().div_ceil(SKIP);
    let mut skips: Vec<(u32, u32)> = Vec::with_capacity(nchunks);
    for (ci, chunk) in nbrs.chunks(SKIP).enumerate() {
        let off = u32::try_from(pairs.len())
            .map_err(|_| Error::TooLarge("adjacency block exceeds u32 byte offsets".into()))?;
        skips.push((chunk[0], off));
        let echunk = &edges[ci * SKIP..ci * SKIP + chunk.len()];
        // Chunk-first entry: the neighbor id lives in the skip table,
        // only the edge id is encoded.
        put_u32(pairs, echunk[0]);
        let mut prev = chunk[0];
        for (&nbr, &e) in chunk[1..].iter().zip(&echunk[1..]) {
            put_u32(pairs, nbr - prev);
            put_u32(pairs, e);
            prev = nbr;
        }
    }
    for &(first, off) in &skips {
        out.extend_from_slice(&first.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(pairs);
    Ok(())
}

/// Encodes one priority-sorted adjacency list as ascending priority
/// deltas plus edge ids.
pub(crate) fn encode_pri_block(nbrs: &[u32], edges: &[u32], priority: &[u32], out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for (&w, &e) in nbrs.iter().zip(edges) {
        let p = priority[w as usize];
        put_u32(out, p - prev);
        put_u32(out, e);
        prev = p;
    }
}

/// Decodes a full id-stream block into `nbrs`/`edges` (appending).
pub(crate) fn decode_id_block(
    block: &[u8],
    degree: usize,
    nbrs: &mut Vec<u32>,
    edges: &mut Vec<u32>,
) -> Result<()> {
    let nchunks = degree.div_ceil(SKIP);
    let skip_len = nchunks * 8;
    if block.len() < skip_len {
        return Err(Error::Corrupt(
            "id block shorter than its skip table".into(),
        ));
    }
    let (skips, pairs) = block.split_at(skip_len);
    let mut pos = 0usize;
    for c in 0..nchunks {
        let first = read_skip(skips, c).0;
        let cnt = (degree - c * SKIP).min(SKIP);
        let mut nbr = first;
        let e = get_u32(pairs, &mut pos)?;
        nbrs.push(nbr);
        edges.push(e);
        for _ in 1..cnt {
            nbr = nbr
                .checked_add(get_u32(pairs, &mut pos)?)
                .ok_or_else(|| Error::Corrupt("id delta overflows u32".into()))?;
            nbrs.push(nbr);
            edges.push(get_u32(pairs, &mut pos)?);
        }
    }
    Ok(())
}

/// Membership probe inside one id-stream block (see
/// [`CompressedAdjacency::contains_neighbor`]).
pub(crate) fn contains_in_id_block(block: &[u8], degree: usize, x: u32) -> Result<Option<u32>> {
    if degree == 0 {
        return Ok(None);
    }
    let nchunks = degree.div_ceil(SKIP);
    let skip_len = nchunks * 8;
    if block.len() < skip_len {
        return Err(Error::Corrupt(
            "id block shorter than its skip table".into(),
        ));
    }
    let (skips, pairs) = block.split_at(skip_len);
    // Binary search for the last chunk whose first neighbor is ≤ x.
    let (mut lo, mut hi) = (0usize, nchunks);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if read_skip(skips, mid).0 <= x {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let c = match lo {
        0 => return Ok(None),
        i => i - 1,
    };
    let (first, off) = read_skip(skips, c);
    let cnt = (degree - c * SKIP).min(SKIP);
    let mut pos = off as usize;
    let mut nbr = first;
    let e = get_u32(pairs, &mut pos)?;
    if nbr == x {
        return Ok(Some(e));
    }
    for _ in 1..cnt {
        nbr = nbr
            .checked_add(get_u32(pairs, &mut pos)?)
            .ok_or_else(|| Error::Corrupt("id delta overflows u32".into()))?;
        let e = get_u32(pairs, &mut pos)?;
        if nbr >= x {
            return Ok((nbr == x).then_some(e));
        }
    }
    Ok(None)
}

/// Decodes the prefix of a pri-stream block whose priority is `< cap`,
/// appending `(neighbor, edge)` into the buffers. Returns early at the
/// cap — the whole point of the encoding.
pub(crate) fn decode_pri_block_below(
    block: &[u8],
    degree: usize,
    cap: u32,
    vertex_of_priority: &[u32],
    nbrs: &mut Vec<u32>,
    edges: &mut Vec<u32>,
) -> Result<()> {
    let mut pos = 0usize;
    let mut p = 0u32;
    for _ in 0..degree {
        let delta = get_u32(block, &mut pos)?;
        p = p
            .checked_add(delta)
            .ok_or_else(|| Error::Corrupt("priority delta overflows u32".into()))?;
        if p >= cap {
            return Ok(());
        }
        let e = get_u32(block, &mut pos)?;
        let w = *vertex_of_priority
            .get(p as usize)
            .ok_or_else(|| Error::Corrupt(format!("decoded priority {p} out of range")))?;
        nbrs.push(w);
        edges.push(e);
    }
    Ok(())
}

#[inline]
fn read_skip(skips: &[u8], c: usize) -> (u32, u32) {
    let b = &skips[c * 8..c * 8 + 8];
    (
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
    )
}

impl NeighborAccess for CompressedAdjacency {
    const PREFIX_ONLY: bool = true;

    fn num_vertices(&self) -> u32 {
        self.num_lower + self.num_upper
    }

    fn num_edges(&self) -> u32 {
        self.num_edges
    }

    fn priority(&self, v: VertexId) -> u32 {
        self.priority[v.index()]
    }

    fn degree(&self, v: VertexId) -> u32 {
        self.degree[v.index()]
    }

    fn pri_neighbors_below<'a>(
        &'a self,
        v: VertexId,
        cap: u32,
        nbrs: &'a mut Vec<u32>,
        edges: &'a mut Vec<u32>,
    ) -> Result<(&'a [u32], &'a [u32])> {
        nbrs.clear();
        edges.clear();
        let block =
            &self.pri_bytes[self.pri_dir[v.index()] as usize..self.pri_dir[v.index() + 1] as usize];
        decode_pri_block_below(
            block,
            self.degree[v.index()] as usize,
            cap,
            &self.vertex_of_priority,
            nbrs,
            edges,
        )?;
        Ok((nbrs, edges))
    }

    fn load_neighbors_by_id(
        &self,
        v: VertexId,
        nbrs: &mut Vec<u32>,
        edges: &mut Vec<u32>,
    ) -> Result<()> {
        nbrs.clear();
        edges.clear();
        let block =
            &self.id_bytes[self.id_dir[v.index()] as usize..self.id_dir[v.index() + 1] as usize];
        decode_id_block(block, self.degree[v.index()] as usize, nbrs, edges)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bigraph::GraphBuilder;

    fn grid_graph(a: u32, b: u32, keep: impl Fn(u32, u32) -> bool) -> BipartiteGraph {
        let mut builder = GraphBuilder::new();
        for u in 0..a {
            for v in 0..b {
                if keep(u, v) {
                    builder.push_edge(u, v);
                }
            }
        }
        builder.build().unwrap()
    }

    /// The lending contract for a decoding backend: for every vertex and
    /// every cap, the lent pair ascends by priority, stops below the cap,
    /// and equals the break-scan over `g`'s priority-sorted CSR list.
    pub(crate) fn assert_lends_capped_prefixes<N: NeighborAccess>(g: &BipartiteGraph, backend: &N) {
        let (mut nbrs, mut edges) = (Vec::new(), Vec::new());
        for v in g.vertices() {
            for cap in (0..=g.num_vertices()).chain([u32::MAX]) {
                let (ns, es) = backend
                    .pri_neighbors_below(v, cap, &mut nbrs, &mut edges)
                    .unwrap();
                let pri: Vec<u32> = ns.iter().map(|&w| g.priority(VertexId(w))).collect();
                assert!(pri.windows(2).all(|p| p[0] < p[1]), "v={v:?} cap={cap}");
                assert!(pri.iter().all(|&p| p < cap), "v={v:?} cap={cap}");
                let (mut want_n, mut want_e) = (Vec::new(), Vec::new());
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
                assert_eq!(ns, want_n, "pri nbrs of {v:?} cap={cap}");
                assert_eq!(es, want_e, "pri edges of {v:?} cap={cap}");
            }
        }
    }

    fn assert_backends_agree(g: &BipartiteGraph) {
        let c = CompressedAdjacency::from_graph(g).unwrap();
        assert_eq!(NeighborAccess::num_vertices(&c), g.num_vertices());
        assert_eq!(NeighborAccess::num_edges(&c), g.num_edges());
        let (mut n1, mut e1, mut n2, mut e2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for v in g.vertices() {
            assert_eq!(NeighborAccess::degree(&c, v), g.degree(v));
            assert_eq!(NeighborAccess::priority(&c, v), g.priority(v));
            g.load_neighbors_by_id(v, &mut n1, &mut e1).unwrap();
            c.load_neighbors_by_id(v, &mut n2, &mut e2).unwrap();
            assert_eq!(n1, n2, "id nbrs of {v:?}");
            assert_eq!(e1, e2, "id edges of {v:?}");
        }
        assert_lends_capped_prefixes(g, &c);
    }

    #[test]
    fn backends_agree_on_structured_graphs() {
        assert_backends_agree(&grid_graph(6, 5, |_, _| true));
        assert_backends_agree(&grid_graph(20, 20, |u, v| (u * 7 + v * 3) % 4 != 0));
        assert_backends_agree(&grid_graph(1, 200, |_, _| true)); // hub crossing SKIP chunks
        assert_backends_agree(&GraphBuilder::new().build().unwrap());
    }

    #[test]
    fn contains_neighbor_matches_edge_lookup() {
        let g = grid_graph(30, 30, |u, v| (u * 13 + v * 5) % 3 != 0);
        let c = CompressedAdjacency::from_graph(&g).unwrap();
        for v in g.vertices() {
            for x in 0..g.num_vertices() {
                let want = g
                    .neighbor_slice(v)
                    .iter()
                    .position(|&n| n == x)
                    .map(|i| g.neighbor_edge_slice(v)[i]);
                assert_eq!(
                    c.contains_neighbor(v, x).unwrap(),
                    want,
                    "v={v:?} probe={x}"
                );
            }
        }
    }

    #[test]
    fn hub_vertex_spans_many_skip_chunks() {
        // One vertex with degree 1000 ⇒ 16 chunks; every probe must hit.
        let g = grid_graph(1, 1000, |_, _| true);
        let c = CompressedAdjacency::from_graph(&g).unwrap();
        let hub = g.upper(0);
        for x in 0..1000 {
            assert!(c.contains_neighbor(hub, x).unwrap().is_some());
        }
        assert!(c.contains_neighbor(hub, 1000).unwrap().is_none());
        // `hub` itself (id 1000) has no self-adjacency in a bigraph.
        assert!(c.contains_neighbor(g.lower(0), 500).unwrap().is_none());
    }

    #[test]
    fn compression_beats_plain_csr() {
        let g = grid_graph(60, 60, |u, v| (u + v) % 3 != 0);
        let c = CompressedAdjacency::from_graph(&g).unwrap();
        assert!(
            c.memory_bytes() < g.memory_bytes(),
            "compressed {} !< plain {}",
            c.memory_bytes(),
            g.memory_bytes()
        );
    }

    #[test]
    fn counting_is_bit_identical_over_compressed_blocks() {
        let g = grid_graph(25, 25, |u, v| (u * 11 + v * 7) % 5 != 0);
        let c = CompressedAdjacency::from_graph(&g).unwrap();
        assert_eq!(
            butterfly::count_per_edge_access(&c).unwrap(),
            butterfly::count_per_edge(&g)
        );
    }
}
