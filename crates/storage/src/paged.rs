//! On-disk paged graph sections.
//!
//! A [`PagedGraph`] is the compressed adjacency of
//! [`crate::CompressedAdjacency`] laid out in a file so decomposition
//! can run without materializing the byte streams in memory. Only the
//! `O(n)` word arrays (priorities, inverse permutation, degrees, block
//! directories) are loaded at open; the id/pri byte streams stay on
//! disk and are served through a fixed-capacity [`PageCache`].
//!
//! ## File layout (little-endian)
//!
//! ```text
//! magic "BTRPAGE\0" | version u32 | num_lower u32 | num_upper u32 | num_edges u32
//! priority  n × u32
//! vertex_of_priority  n × u32
//! degree  n × u32
//! id_dir  (n+1) × u64
//! pri_dir (n+1) × u64
//! id_len u64 | pri_len u64
//! checksum u64            ← FNV-1a over every byte above
//! id stream   (id_len bytes)
//! pri stream  (pri_len bytes)
//! ```
//!
//! The checksum covers the header and resident section only: those
//! bytes are trusted as array bounds by every later read, so they are
//! verified once at open. The streams are *not* checksummed — they are
//! decoded through bounds-checked varints whose directory limits come
//! from the verified section, so corruption there surfaces as
//! [`Error::Corrupt`] at decode time instead of doubling open-time I/O
//! with a full-file pass (the point of a paged tier is not to read the
//! whole file).
//!
//! All I/O goes through the [`Vfs`] seam, so
//! `MemVfs` fault and kill injection covers these paths like every
//! other persistent structure in the workspace.

use std::path::Path;

use bigraph::vfs::{Vfs, VfsRandomRead};
use bigraph::{Error, NeighborAccess, Result, VertexId};

use crate::compressed::{contains_in_id_block, decode_id_block, CompressedAdjacency};
use crate::fnv::{fnv_update, FNV_OFFSET};
use crate::page_cache::{CacheStats, PageCache, RangeReader};

const MAGIC: &[u8; 8] = b"BTRPAGE\0";
const VERSION: u32 = 1;
/// Page size of the stream cache.
pub const PAGE_SIZE: usize = 4096;
/// Refill granularity of streaming pri-block decodes.
const DECODE_CHUNK: usize = 256;

/// Writes `g` as a paged graph file at `path` (replacing any previous
/// file) and returns the total bytes written.
///
/// # Errors
///
/// [`Error::Io`] from the Vfs; the encoding errors of
/// [`CompressedAdjacency::from_graph`].
pub fn write_paged(g: &bigraph::BipartiteGraph, vfs: &dyn Vfs, path: &Path) -> Result<u64> {
    let c = CompressedAdjacency::from_graph(g)?;
    let mut head = Vec::new();
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&c.num_lower.to_le_bytes());
    head.extend_from_slice(&c.num_upper.to_le_bytes());
    head.extend_from_slice(&c.num_edges.to_le_bytes());
    for &p in &c.priority {
        head.extend_from_slice(&p.to_le_bytes());
    }
    for &v in &c.vertex_of_priority {
        head.extend_from_slice(&v.to_le_bytes());
    }
    for &d in &c.degree {
        head.extend_from_slice(&d.to_le_bytes());
    }
    for &o in &c.id_dir {
        head.extend_from_slice(&o.to_le_bytes());
    }
    for &o in &c.pri_dir {
        head.extend_from_slice(&o.to_le_bytes());
    }
    head.extend_from_slice(&(c.id_bytes.len() as u64).to_le_bytes());
    head.extend_from_slice(&(c.pri_bytes.len() as u64).to_le_bytes());
    let sum = fnv_update(FNV_OFFSET, &head);
    head.extend_from_slice(&sum.to_le_bytes());

    let mut f = vfs.create(path)?;
    f.write_all(&head)?;
    f.write_all(&c.id_bytes)?;
    f.write_all(&c.pri_bytes)?;
    f.sync_data()?;
    Ok((head.len() + c.id_bytes.len() + c.pri_bytes.len()) as u64)
}

/// A paged-graph file opened for reading: resident `O(n)` arrays plus a
/// page cache over the byte streams. Implements [`NeighborAccess`], so
/// counting and index construction run over it unmodified.
#[derive(Debug)]
pub struct PagedGraph {
    num_lower: u32,
    num_upper: u32,
    num_edges: u32,
    priority: Vec<u32>,
    vertex_of_priority: Vec<u32>,
    degree: Vec<u32>,
    id_dir: Vec<u64>,
    pri_dir: Vec<u64>,
    /// Absolute file offset of the id stream.
    id_off: u64,
    /// Absolute file offset of the pri stream.
    pri_off: u64,
    cache: PageCache,
}

/// Sequential cursor over the header/resident section that hashes what
/// it reads so the checksum verifies in one pass.
struct HeadReader {
    file: Box<dyn VfsRandomRead>,
    pos: u64,
    hash: u64,
}

impl HeadReader {
    fn read(&mut self, buf: &mut [u8]) -> Result<()> {
        self.file.read_at(self.pos, buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                Error::Corrupt("paged graph file truncated in header".into())
            } else {
                Error::Io(e)
            }
        })?;
        self.pos += buf.len() as u64;
        self.hash = fnv_update(self.hash, buf);
        Ok(())
    }

    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn u32_vec(&mut self, len: usize) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(len);
        let mut chunk = [0u8; 4096];
        let mut left = len;
        while left > 0 {
            let take = left.min(chunk.len() / 4);
            self.read(&mut chunk[..take * 4])?;
            out.extend(
                chunk[..take * 4]
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
            left -= take;
        }
        Ok(out)
    }

    fn u64_vec(&mut self, len: usize) -> Result<Vec<u64>> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

impl PagedGraph {
    /// Opens the paged graph at `path`, verifying the header/resident
    /// checksum, with a stream cache of roughly `cache_bytes` bytes
    /// (at least two pages).
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on a bad magic, version, checksum, or
    /// internally inconsistent directories; [`Error::Io`] from the Vfs.
    pub fn open(vfs: &dyn Vfs, path: &Path, cache_bytes: usize) -> Result<PagedGraph> {
        let file = vfs.open_read(path)?;
        let file_len = file.len()?;
        let mut r = HeadReader {
            file,
            pos: 0,
            hash: FNV_OFFSET,
        };

        let mut magic = [0u8; 8];
        r.read(&mut magic)?;
        if &magic != MAGIC {
            return Err(Error::Corrupt("not a paged graph file (bad magic)".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(Error::Corrupt(format!(
                "unsupported paged graph version {version} (expected {VERSION})"
            )));
        }
        let num_lower = r.u32()?;
        let num_upper = r.u32()?;
        let num_edges = r.u32()?;
        let n = num_lower
            .checked_add(num_upper)
            .ok_or_else(|| Error::Corrupt("vertex count overflows u32".into()))?
            as usize;
        // A header this large cannot fit in the file: cheap sanity cap
        // before allocating n-sized vectors from attacker-controlled
        // counts.
        if (n as u64) * 12 > file_len {
            return Err(Error::Corrupt(
                "vertex count inconsistent with file size".into(),
            ));
        }
        let priority = r.u32_vec(n)?;
        let vertex_of_priority = r.u32_vec(n)?;
        let degree = r.u32_vec(n)?;
        let id_dir = r.u64_vec(n + 1)?;
        let pri_dir = r.u64_vec(n + 1)?;
        let id_len = r.u64()?;
        let pri_len = r.u64()?;
        let computed = r.hash;
        let stored = r.u64()?;
        if computed != stored {
            return Err(Error::Corrupt(format!(
                "paged graph header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }

        let id_off = r.pos;
        let pri_off = id_off + id_len;
        if pri_off + pri_len != file_len {
            return Err(Error::Corrupt(
                "paged graph stream lengths inconsistent with file size".into(),
            ));
        }
        if id_dir.first() != Some(&0)
            || id_dir.last() != Some(&id_len)
            || pri_dir.first() != Some(&0)
            || pri_dir.last() != Some(&pri_len)
            || id_dir.windows(2).any(|w| w[0] > w[1])
            || pri_dir.windows(2).any(|w| w[0] > w[1])
        {
            return Err(Error::Corrupt(
                "paged graph directories inconsistent".into(),
            ));
        }

        let max_pages = (cache_bytes / PAGE_SIZE).max(2);
        Ok(PagedGraph {
            num_lower,
            num_upper,
            num_edges,
            priority,
            vertex_of_priority,
            degree,
            id_dir,
            pri_dir,
            id_off,
            pri_off,
            cache: PageCache::new(r.file, file_len, PAGE_SIZE, max_pages),
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

    /// Bytes held resident by the open graph: the `O(n)` arrays. The
    /// cached stream pages are accounted separately by
    /// [`PagedGraph::cache_stats`].
    pub fn resident_bytes(&self) -> usize {
        self.priority.len() * 4
            + self.vertex_of_priority.len() * 4
            + self.degree.len() * 4
            + self.id_dir.len() * 8
            + self.pri_dir.len() * 8
    }

    /// Page-cache counters (hits, misses, high-water bytes).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Galloping membership probe: the edge between `v` and neighbor
    /// `x`, or `None`. Reads only the block's skip table and at most
    /// one chunk through the cache.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on undecodable block bytes; [`Error::Io`]
    /// from the Vfs.
    pub fn contains_neighbor(&self, v: VertexId, x: u32) -> Result<Option<u32>> {
        let mut block = Vec::new();
        self.id_block(v, &mut block)?;
        contains_in_id_block(&block, self.degree[v.index()] as usize, x)
    }

    /// Reads vertex `v`'s whole id-stream block into `buf`.
    fn id_block(&self, v: VertexId, buf: &mut Vec<u8>) -> Result<()> {
        let (s, e) = (self.id_dir[v.index()], self.id_dir[v.index() + 1]);
        buf.clear();
        buf.resize((e - s) as usize, 0);
        self.cache.read_into(self.id_off + s, buf)
    }
}

impl NeighborAccess for PagedGraph {
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
        let (s, e) = (self.pri_dir[v.index()], self.pri_dir[v.index() + 1]);
        let mut r = RangeReader::new(
            &self.cache,
            self.pri_off + s,
            self.pri_off + e,
            DECODE_CHUNK,
        );
        let mut p = 0u32;
        for _ in 0..self.degree[v.index()] {
            let delta = r.get_u32()?;
            p = p
                .checked_add(delta)
                .ok_or_else(|| Error::Corrupt("priority delta overflows u32".into()))?;
            if p >= cap {
                // The stream ascends by priority: nothing later can be
                // below the cap. This early stop is what keeps the
                // budgeted wedge scans O(Σ min{d(u), d(v)}).
                break;
            }
            let e = r.get_u32()?;
            let w = *self
                .vertex_of_priority
                .get(p as usize)
                .ok_or_else(|| Error::Corrupt(format!("decoded priority {p} out of range")))?;
            nbrs.push(w);
            edges.push(e);
        }
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
        let mut block = Vec::new();
        self.id_block(v, &mut block)?;
        decode_id_block(&block, self.degree[v.index()] as usize, nbrs, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::vfs::MemVfs;
    use bigraph::{BipartiteGraph, GraphBuilder};

    fn sample_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..18 {
            for v in 0..15 {
                if (u * 7 + v * 11) % 4 != 0 {
                    b.push_edge(u, v);
                }
            }
        }
        b.build().unwrap()
    }

    fn paged(g: &BipartiteGraph, cache_bytes: usize) -> (MemVfs, PagedGraph) {
        let vfs = MemVfs::new();
        write_paged(g, &vfs, Path::new("g.paged")).unwrap();
        let pg = PagedGraph::open(&vfs, Path::new("g.paged"), cache_bytes).unwrap();
        (vfs, pg)
    }

    #[test]
    fn round_trips_bit_identically_with_the_in_memory_backends() {
        let g = sample_graph();
        let (_vfs, pg) = paged(&g, 64 * 1024);
        assert_eq!(NeighborAccess::num_vertices(&pg), g.num_vertices());
        assert_eq!(NeighborAccess::num_edges(&pg), g.num_edges());
        assert_eq!(pg.num_lower(), g.num_lower());
        assert_eq!(pg.num_upper(), g.num_upper());
        let (mut n1, mut e1, mut n2, mut e2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for v in g.vertices() {
            assert_eq!(NeighborAccess::degree(&pg, v), g.degree(v));
            assert_eq!(NeighborAccess::priority(&pg, v), g.priority(v));
            g.load_neighbors_by_id(v, &mut n1, &mut e1).unwrap();
            pg.load_neighbors_by_id(v, &mut n2, &mut e2).unwrap();
            assert_eq!(n1, n2);
            assert_eq!(e1, e2);
        }
        crate::compressed::tests::assert_lends_capped_prefixes(&g, &pg);
        assert!(pg.resident_bytes() > 0);
        assert!(pg.resident_bytes() < g.memory_bytes());
    }

    #[test]
    fn counting_over_the_paged_graph_is_bit_identical() {
        let g = sample_graph();
        // A cache far smaller than the streams still yields exact counts.
        let (_vfs, pg) = paged(&g, 1);
        assert_eq!(
            butterfly::count_per_edge_access(&pg).unwrap(),
            butterfly::count_per_edge(&g)
        );
        let stats = pg.cache_stats();
        assert!(stats.hits + stats.misses > 0);
        assert!(stats.high_water_bytes <= 2 * PAGE_SIZE);
    }

    #[test]
    fn membership_probes_match_the_graph() {
        let g = sample_graph();
        let (_vfs, pg) = paged(&g, 8 * 1024);
        for v in g.vertices() {
            for x in (0..g.num_vertices()).step_by(3) {
                let want = g
                    .neighbor_slice(v)
                    .iter()
                    .position(|&n| n == x)
                    .map(|i| g.neighbor_edge_slice(v)[i]);
                assert_eq!(pg.contains_neighbor(v, x).unwrap(), want);
            }
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build().unwrap();
        let (_vfs, pg) = paged(&g, 1024);
        assert_eq!(NeighborAccess::num_vertices(&pg), 0);
        assert_eq!(NeighborAccess::num_edges(&pg), 0);
    }

    #[test]
    fn every_header_byte_flip_is_detected_or_harmless() {
        let g = sample_graph();
        let vfs = MemVfs::new();
        write_paged(&g, &vfs, Path::new("g.paged")).unwrap();
        let clean = vfs.read(Path::new("g.paged")).unwrap();
        // Header + resident section length = everything before the
        // streams; recover it from the open graph's offsets.
        let pg = PagedGraph::open(&vfs, Path::new("g.paged"), 1024).unwrap();
        let head_len = pg.id_off as usize;
        drop(pg);
        for i in 0..head_len {
            let mut tampered = clean.clone();
            tampered[i] ^= 0x40;
            let vfs2 = MemVfs::new();
            {
                use std::io::Write;
                let mut f = vfs2.create(Path::new("g.paged")).unwrap();
                f.write_all(&tampered).unwrap();
                f.sync_data().unwrap();
            }
            assert!(
                PagedGraph::open(&vfs2, Path::new("g.paged"), 1024).is_err(),
                "flip at header byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn stream_corruption_surfaces_as_corrupt_on_decode() {
        let g = sample_graph();
        let vfs = MemVfs::new();
        write_paged(&g, &vfs, Path::new("g.paged")).unwrap();
        let clean = vfs.read(Path::new("g.paged")).unwrap();
        let pg = PagedGraph::open(&vfs, Path::new("g.paged"), 1024).unwrap();
        let streams_start = pg.id_off as usize;
        drop(pg);
        // Truncating inside the streams must fail the length cross-check.
        let vfs2 = MemVfs::new();
        {
            use std::io::Write;
            let mut f = vfs2.create(Path::new("g.paged")).unwrap();
            f.write_all(&clean[..clean.len() - 1]).unwrap();
            f.sync_data().unwrap();
        }
        assert!(PagedGraph::open(&vfs2, Path::new("g.paged"), 1024).is_err());
        // A flipped stream byte opens fine but every load either errors
        // or (benign re-encoding of a value) still terminates cleanly —
        // sweep a few offsets and demand no panic and no wrong-length
        // silent success.
        for off in [streams_start, streams_start + 7, clean.len() - 1] {
            let mut tampered = clean.clone();
            tampered[off] ^= 0x55;
            let vfs3 = MemVfs::new();
            {
                use std::io::Write;
                let mut f = vfs3.create(Path::new("g.paged")).unwrap();
                f.write_all(&tampered).unwrap();
                f.sync_data().unwrap();
            }
            let pg = PagedGraph::open(&vfs3, Path::new("g.paged"), 1024).unwrap();
            let (mut n, mut e) = (Vec::new(), Vec::new());
            for v in g.vertices() {
                let _ = pg.load_neighbors_by_id(v, &mut n, &mut e);
                let _ = pg.pri_neighbors_below(v, u32::MAX, &mut n, &mut e);
            }
        }
    }

    #[test]
    fn missing_file_is_io_not_panic() {
        let vfs = MemVfs::new();
        assert!(matches!(
            PagedGraph::open(&vfs, Path::new("nope.paged"), 1024),
            Err(Error::Io(_))
        ));
    }

    #[test]
    fn kill_during_open_surfaces_as_io() {
        let g = sample_graph();
        let vfs = MemVfs::new();
        write_paged(&g, &vfs, Path::new("g.paged")).unwrap();
        let ops = vfs.ops();
        vfs.fail_at(ops + 1, bigraph::Fault::Kill);
        assert!(PagedGraph::open(&vfs, Path::new("g.paged"), 1024).is_err());
    }
}
