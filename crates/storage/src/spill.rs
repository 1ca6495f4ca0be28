//! Spill-to-disk BE-Index construction.
//!
//! The in-memory BE-Index build appends every priority-obeyed wedge
//! into one arena before finalizing, so its transient memory is
//! O(wedges) — the quantity the paper shows can dwarf the graph. The
//! budgeted builder here runs the same per-vertex bloom append
//! ([`process_vertex_raw`], the one every in-memory build runs) but
//! flushes the arena to a Vfs-backed *run file* whenever it reaches
//! the budget, so the enumeration phase peaks at O(budget) arena bytes
//! plus the O(m) per-edge link tallies that stay resident across runs.
//!
//! Because vertices are processed in ascending id order and each run
//! holds a contiguous vertex range, the merge is pure concatenation
//! with bloom-id/wedge-position offsets ([`RawArena::append`]) — it
//! reproduces the sequential arena byte for byte, which is the whole
//! exactness argument: same arena ⇒ same [`BeIndex`] ⇒ same peeling.
//!
//! Run files carry an FNV-1a trailer; a torn or bit-flipped run fails
//! the merge with [`Error::Corrupt`] instead of silently producing a
//! wrong index. All run I/O goes through the Vfs seam, so the fault
//! and kill injection of `MemVfs` sweeps these paths too.

use std::io::Write;
use std::path::{Path, PathBuf};

use beindex::{assemble, process_vertex_raw, BeIndex, RawArena, RawScratch};
use bigraph::vfs::Vfs;
use bigraph::{Error, NeighborAccess, Result, VertexId};

use crate::fnv::{fnv_update, FNV_OFFSET};

/// What the spill build did, for the [`MemoryReport`](crate::MemoryReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Total bytes written to run files.
    pub spill_bytes_written: u64,
    /// Number of run files written (0 = everything fit the budget).
    pub runs: u32,
    /// Largest arena resident during enumeration — stays within one
    /// vertex's wedge output of the budget.
    pub peak_arena_bytes: usize,
}

/// Builds the BE-Index of `g` with at most roughly `budget_bytes` of
/// transient arena memory, spilling overflow into run files under
/// `dir` (created if missing, runs removed after the merge). The
/// result is equal (`==`) to `BeIndex::build` on the same logical
/// graph — exactness is pinned by tests here and swept by the
/// integration proptests.
///
/// # Errors
///
/// [`Error::Io`] from the Vfs (including injected ENOSPC/kill faults);
/// [`Error::Corrupt`] when a run file fails its checksum or frame
/// checks on the way back in; loader errors from `g` itself.
pub fn build_beindex_spilled<N: NeighborAccess + ?Sized>(
    g: &N,
    budget_bytes: usize,
    vfs: &dyn Vfs,
    dir: &Path,
) -> Result<(BeIndex, SpillStats)> {
    let n = g.num_vertices();
    let m = g.num_edges() as usize;
    let mut scratch = RawScratch::new(n as usize);
    let mut link_count = vec![0u32; m];
    let mut arena = RawArena::new();
    let mut stats = SpillStats::default();
    // (wedges, blooms) of each run, for exact merge preallocation.
    let mut run_meta: Vec<(usize, usize)> = Vec::new();
    let mut dir_ready = false;

    for u in 0..n {
        process_vertex_raw(
            g,
            VertexId(u),
            None,
            &mut scratch,
            &mut arena,
            &mut link_count,
        )?;
        stats.peak_arena_bytes = stats.peak_arena_bytes.max(arena.bytes());
        if arena.bytes() >= budget_bytes && arena.num_wedges() > 0 {
            if !dir_ready {
                vfs.create_dir_all(dir)?;
                dir_ready = true;
            }
            let path = run_path(dir, run_meta.len());
            stats.spill_bytes_written += write_run(vfs, &path, &arena)?;
            run_meta.push((arena.num_wedges(), arena.num_blooms()));
            arena.clear();
        }
    }
    stats.runs = run_meta.len() as u32;

    if run_meta.is_empty() {
        // Everything fit: this *is* the sequential build.
        return Ok((assemble(arena, &link_count, None), stats));
    }

    // Merge: concatenate the runs in write order (ascending vertex
    // ranges), then the in-memory tail. Peak here is the final arena
    // plus one O(budget) run buffer.
    let total_wedges: usize = run_meta.iter().map(|&(w, _)| w).sum::<usize>() + arena.num_wedges();
    let total_blooms: usize = run_meta.iter().map(|&(_, b)| b).sum::<usize>() + arena.num_blooms();
    let mut merged = RawArena::new();
    merged.reserve_exact(total_wedges, total_blooms);
    for (k, &(wedges, blooms)) in run_meta.iter().enumerate() {
        let path = run_path(dir, k);
        let run = read_run(vfs, &path, wedges, blooms)?;
        merged.append(&run, 0..blooms);
        vfs.remove_file(&path)?;
    }
    merged.append(&arena, 0..arena.num_blooms());
    Ok((assemble(merged, &link_count, None), stats))
}

fn run_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("run-{k}.spill"))
}

/// Serializes `arena` to `path`: `wedges u64 | blooms u64 | wedge_e1 |
/// wedge_e2 | wedge_bloom | bloom_start[1..] | bloom_k | bloom_anchor |
/// fnv u64`, all little-endian. Returns the bytes written.
pub(crate) fn write_run(vfs: &dyn Vfs, path: &Path, arena: &RawArena) -> Result<u64> {
    let mut buf = Vec::with_capacity(arena.bytes() + 24);
    buf.extend_from_slice(&(arena.num_wedges() as u64).to_le_bytes());
    buf.extend_from_slice(&(arena.num_blooms() as u64).to_le_bytes());
    for arr in [&arena.wedge_e1, &arena.wedge_e2, &arena.wedge_bloom] {
        for &x in arr.iter() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    for &s in &arena.bloom_start[1..] {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    for &k in &arena.bloom_k {
        buf.extend_from_slice(&k.to_le_bytes());
    }
    for &(a, b) in &arena.bloom_anchor {
        buf.extend_from_slice(&a.to_le_bytes());
        buf.extend_from_slice(&b.to_le_bytes());
    }
    let sum = fnv_update(FNV_OFFSET, &buf);
    buf.extend_from_slice(&sum.to_le_bytes());

    let mut f = vfs.create(path)?;
    f.write_all(&buf)?;
    f.sync_data()?;
    Ok(buf.len() as u64)
}

/// Reads a run back, verifying the trailer checksum and that the
/// declared counts match both the expected metadata and the byte
/// length.
pub(crate) fn read_run(
    vfs: &dyn Vfs,
    path: &Path,
    want_wedges: usize,
    want_blooms: usize,
) -> Result<RawArena> {
    let data = vfs.read(path)?;
    if data.len() < 24 {
        return Err(Error::Corrupt(format!("spill run {path:?} truncated")));
    }
    let (body, trailer) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(
        trailer
            .try_into()
            .map_err(|_| Error::Corrupt("spill run trailer malformed".into()))?,
    );
    let computed = fnv_update(FNV_OFFSET, body);
    if stored != computed {
        return Err(Error::Corrupt(format!(
            "spill run {path:?} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let wedges = u64::from_le_bytes([
        body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
    ]) as usize;
    let blooms = u64::from_le_bytes([
        body[8], body[9], body[10], body[11], body[12], body[13], body[14], body[15],
    ]) as usize;
    if wedges != want_wedges || blooms != want_blooms {
        return Err(Error::Corrupt(format!(
            "spill run {path:?} declares {wedges} wedges / {blooms} blooms, expected {want_wedges} / {want_blooms}"
        )));
    }
    let expect_len = 16 + wedges * 12 + blooms * 16;
    if body.len() != expect_len {
        return Err(Error::Corrupt(format!(
            "spill run {path:?} has {} body bytes, expected {expect_len}",
            body.len()
        )));
    }

    let mut pos = 16usize;
    let mut u32_vec = |cnt: usize| -> Vec<u32> {
        let out = body[pos..pos + cnt * 4]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        pos += cnt * 4;
        out
    };
    let wedge_e1 = u32_vec(wedges);
    let wedge_e2 = u32_vec(wedges);
    let wedge_bloom = u32_vec(wedges);
    let mut bloom_start = Vec::with_capacity(blooms + 1);
    bloom_start.push(0);
    bloom_start.extend(u32_vec(blooms));
    // The merge slices wedges by these offsets.
    if bloom_start.windows(2).any(|w| w[0] > w[1]) || bloom_start.last() != Some(&(wedges as u32)) {
        return Err(Error::Corrupt(format!(
            "spill run {path:?} has bloom offsets that do not cover its {wedges} wedges"
        )));
    }
    let bloom_k = u32_vec(blooms);
    let anchor_flat = u32_vec(blooms * 2);
    let bloom_anchor = anchor_flat.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    Ok(RawArena {
        wedge_e1,
        wedge_e2,
        wedge_bloom,
        bloom_start,
        bloom_k,
        bloom_anchor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::vfs::MemVfs;
    use bigraph::{BipartiteGraph, GraphBuilder};

    fn wedge_heavy_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..10 {
            for v in 0..8 {
                if (u + v) % 5 != 0 {
                    b.push_edge(u, v);
                }
            }
        }
        b.push_edge(10, 0);
        b.build().unwrap()
    }

    /// Spills `backend`'s index at every budget and checks it against
    /// the in-memory build of `g`.
    fn assert_spills_identically<N: NeighborAccess>(g: &BipartiteGraph, backend: &N) {
        let reference = BeIndex::build(g);
        let mut spilled_at_least_once = false;
        for budget in [0usize, 64, 256, 1024, 4096, usize::MAX] {
            let vfs = MemVfs::new();
            let (idx, stats) =
                build_beindex_spilled(backend, budget, &vfs, Path::new("spill")).unwrap();
            assert_eq!(idx, reference, "budget={budget}");
            idx.validate(g).unwrap();
            if stats.runs > 0 {
                spilled_at_least_once = true;
                assert!(stats.spill_bytes_written > 0);
                // Run files are cleaned up after the merge.
                for name in vfs.list(Path::new("spill")).unwrap() {
                    assert!(
                        name.extension().is_none_or(|e| e != "spill"),
                        "{name:?} left behind"
                    );
                }
            } else {
                assert_eq!(stats.spill_bytes_written, 0);
            }
            assert!(stats.peak_arena_bytes > 0);
        }
        assert!(spilled_at_least_once, "budgets never triggered a spill");
    }

    #[test]
    fn spilled_build_is_identical_for_every_budget() {
        let g = wedge_heavy_graph();
        assert_spills_identically(&g, &g);
        assert_spills_identically(&g, &crate::CompressedAdjacency::from_graph(&g).unwrap());
        let vfs = MemVfs::new();
        crate::write_paged(&g, &vfs, Path::new("g.paged")).unwrap();
        let paged = crate::PagedGraph::open(&vfs, Path::new("g.paged"), 1).unwrap();
        assert_spills_identically(&g, &paged);
    }

    #[test]
    fn unlimited_budget_never_touches_the_vfs_namespace() {
        let g = wedge_heavy_graph();
        let vfs = MemVfs::new();
        let (_, stats) = build_beindex_spilled(&g, usize::MAX, &vfs, Path::new("spill")).unwrap();
        assert_eq!(stats.runs, 0);
        assert!(
            vfs.list(Path::new("spill")).is_err()
                || vfs.list(Path::new("spill")).unwrap().is_empty()
        );
    }

    #[test]
    fn run_round_trip_preserves_the_arena() {
        let mut a = RawArena::new();
        a.wedge_e1.extend([3, 1, 4]);
        a.wedge_e2.extend([1, 5, 9]);
        a.wedge_bloom.extend([0, 0, 1]);
        a.bloom_start.extend([2, 3]);
        a.bloom_k.extend([2, 1]);
        a.bloom_anchor.extend([(7, 8), (9, 10)]);
        let vfs = MemVfs::new();
        write_run(&vfs, Path::new("r"), &a).unwrap();
        let back = read_run(&vfs, Path::new("r"), 3, 2).unwrap();
        assert_eq!(back, a);
        // A run whose checksum holds but whose bloom offsets overrun its
        // wedges is rejected before the merge slices by them.
        a.bloom_start[2] = 4;
        write_run(&vfs, Path::new("r"), &a).unwrap();
        assert!(matches!(
            read_run(&vfs, Path::new("r"), 3, 2),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn every_run_byte_flip_is_detected() {
        let mut a = RawArena::new();
        a.wedge_e1.extend([1, 2]);
        a.wedge_e2.extend([3, 4]);
        a.wedge_bloom.extend([0, 0]);
        a.bloom_start.push(2);
        a.bloom_k.push(2);
        a.bloom_anchor.push((0, 5));
        let vfs = MemVfs::new();
        write_run(&vfs, Path::new("r"), &a).unwrap();
        let clean = vfs.read(Path::new("r")).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x10;
            let vfs2 = MemVfs::new();
            let mut f = vfs2.create(Path::new("r")).unwrap();
            f.write_all(&bad).unwrap();
            f.sync_data().unwrap();
            drop(f);
            assert!(
                read_run(&vfs2, Path::new("r"), 2, 1).is_err(),
                "flip at byte {i}"
            );
        }
        for cut in 0..clean.len() {
            let vfs2 = MemVfs::new();
            let mut f = vfs2.create(Path::new("r")).unwrap();
            f.write_all(&clean[..cut]).unwrap();
            f.sync_data().unwrap();
            drop(f);
            assert!(
                read_run(&vfs2, Path::new("r"), 2, 1).is_err(),
                "truncated to {cut}"
            );
        }
    }

    #[test]
    fn injected_faults_surface_as_errors_for_every_op() {
        // Run once fault-free to learn the op count, then sweep every
        // single-op ENOSPC and kill point: each must produce Err, never
        // a wrong index or a panic.
        let g = wedge_heavy_graph();
        let reference = BeIndex::build(&g);
        let budget = 256usize;
        let clean_vfs = MemVfs::new();
        build_beindex_spilled(&g, budget, &clean_vfs, Path::new("spill")).unwrap();
        let total_ops = clean_vfs.ops();
        assert!(total_ops > 0);
        for fault in [bigraph::Fault::Enospc, bigraph::Fault::Kill] {
            for op in 0..total_ops {
                let vfs = MemVfs::new();
                vfs.fail_at(op, fault);
                match build_beindex_spilled(&g, budget, &vfs, Path::new("spill")) {
                    Err(_) => {}
                    Ok((idx, _)) => {
                        // A fault armed on an op the build never reached
                        // (e.g. short-circuited ordering) must still
                        // yield the right index.
                        assert_eq!(idx, reference, "op={op} fault={fault:?}");
                    }
                }
            }
        }
    }
}
