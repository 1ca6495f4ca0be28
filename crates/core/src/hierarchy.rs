//! The bitruss hierarchy index: answer k-bitruss queries without
//! rescanning all edges.
//!
//! The whole point of computing φ for every edge (§II of the paper) is
//! that the nested k-bitruss hierarchy `H_0 ⊇ H_1 ⊇ H_2 ⊇ …` can then be
//! *queried*. [`Decomposition`]'s query methods rescan all `m` edges per
//! call; a [`BitrussHierarchy`] is built once in `O(m α(n) + n)` (a
//! counting sort suffices because `φ(e) < m`) and afterwards answers
//!
//! * [`BitrussHierarchy::k_bitruss_count`] in `O(log L)`,
//! * [`BitrussHierarchy::k_bitruss_edges`] in `O(log L + |answer| log |answer|)`
//!   (the log factor only for returning edges in ascending-id order),
//! * [`BitrussHierarchy::community_of`] and
//!   [`BitrussHierarchy::communities`] output-sensitively — only the
//!   forest nodes and edges of the answer are visited,
//! * [`BitrussHierarchy::max_k`] and [`BitrussHierarchy::level_sizes`] in
//!   `O(1)` / `O(L)`,
//!
//! where `L` is the number of distinct bitruss numbers. Two structures
//! make this work:
//!
//! 1. **a φ-sorted edge permutation** — edge ids ordered by `(φ
//!    descending, id ascending)` with one cumulative count per distinct
//!    level, so `{e : φ(e) ≥ k}` is always a prefix located by binary
//!    search;
//! 2. **a nested community forest** — one node per connected component of
//!    an `H_k` *at the highest level where that component exists in this
//!    shape*. Processing levels from φ_max downward with a union-find,
//!    a new node is created exactly when a component changes (gains
//!    edges, merges with others, or appears); absorbed components become
//!    its children. Each edge is *owned* by the node created at its own
//!    level, so the component of `H_k` containing an edge is the subtree
//!    below the highest ancestor whose level is still `≥ k`, and its
//!    edge set is the union of the owned edges in that subtree.
//!
//! The forest is the in-memory analogue of the tree-shaped community
//! indexes used for output-sensitive community search over cohesion
//! hierarchies; it persists inside [`crate::persist::binary`] snapshots
//! so a query server never rebuilds it.

use std::collections::BTreeMap;

use bigraph::{BipartiteGraph, EdgeId, Error, Result, UnionFind, VertexId};

use crate::decomposition::{Community, Decomposition};
use crate::persist::check_matching;

/// Sentinel for "no node" / "no parent" in the forest arrays.
const NONE: u32 = u32::MAX;

/// Sentinel in `vertex_max_k` for vertices with no incident edge.
const ISOLATED: u64 = u64::MAX;

/// A queryable index over a graph's bitruss decomposition: the φ-sorted
/// edge permutation plus the nested community forest (see the module
/// docs). Built once with [`BitrussHierarchy::new`]; all query methods
/// take `&self`.
///
/// The hierarchy stores edge and vertex *ids* only — pass the graph the
/// decomposition came from to the methods that materialize communities.
///
/// ```
/// use bigraph::GraphBuilder;
/// use bitruss_core::{decompose, Algorithm, BitrussHierarchy};
///
/// let g = GraphBuilder::new()
///     .add_edges([
///         (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
///         (2, 2), (2, 3), (3, 1), (3, 2), (3, 4),
///     ])
///     .build()
///     .unwrap();
/// let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
/// let h = BitrussHierarchy::new(&g, &d).unwrap();
/// assert_eq!(h.max_bitruss(), 2);
/// assert_eq!(h.k_bitruss_count(2), 6);
/// assert_eq!(h.k_bitruss_edges(2), d.k_bitruss_edges(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitrussHierarchy {
    /// Distinct bitruss numbers, ascending.
    pub(crate) levels: Vec<u64>,
    /// `count_ge[i]` = number of edges with `φ ≥ levels[i]`.
    pub(crate) count_ge: Vec<usize>,
    /// Edge ids sorted by `(φ descending, id ascending)`.
    pub(crate) perm: Vec<u32>,
    /// Level of each forest node; non-increasing in node-id order
    /// (nodes are created while sweeping levels downward).
    pub(crate) node_level: Vec<u64>,
    /// Parent of each node ([`NONE`] at roots). Parents have strictly
    /// lower levels and strictly larger node ids than their children.
    pub(crate) node_parent: Vec<u32>,
    /// CSR offsets into [`Self::node_edge_ids`], length `nodes + 1`.
    pub(crate) node_edge_offsets: Vec<usize>,
    /// Edges owned by each node (every edge owned by exactly one node —
    /// the node created at the edge's own φ level).
    pub(crate) node_edge_ids: Vec<u32>,
    /// Owning node of each edge.
    pub(crate) edge_node: Vec<u32>,
    /// Per global vertex id: max φ over incident edges, [`ISOLATED`] for
    /// degree-0 vertices.
    pub(crate) vertex_max_k: Vec<u64>,
    /// CSR child lists, derived from [`Self::node_parent`].
    child_offsets: Vec<usize>,
    children: Vec<u32>,
}

impl BitrussHierarchy {
    /// Builds the hierarchy for `(g, d)` in `O(m α(n) + n)`: one counting
    /// sort of the edges by φ, then one union-find sweep over the levels
    /// from φ_max downward.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] when `d` does not belong to `g`: the
    /// φ array length differs from the edge count, or some `φ(e) ≥ m`.
    /// On the graph φ came from, `φ(e) ≤ sup(e) ≤ m − 1`, because each
    /// butterfly through `e` is named by its opposite edge.
    pub fn new(g: &BipartiteGraph, d: &Decomposition) -> Result<Self> {
        check_matching(g, d)?;
        let m = d.phi.len();
        let n = g.num_vertices() as usize;
        let (levels, count_ge, perm) = sort_by_phi(&d.phi)?;

        // Nested community forest: sweep levels downward. `node_of_root`
        // holds, per union-find root, the most recent node of its
        // component ([`NONE`] before the component has one).
        let mut uf = UnionFind::new(n);
        let mut node_of_root: Vec<u32> = vec![NONE; n];
        let mut node_level: Vec<u64> = Vec::new();
        let mut node_parent: Vec<u32> = Vec::new();
        let mut node_edge_offsets: Vec<usize> = vec![0];
        let mut node_edge_ids: Vec<u32> = vec![0; m];
        let mut edge_node: Vec<u32> = vec![NONE; m];
        let mut vertex_max_k = vec![ISOLATED; n];
        // Per-level scratch, reused across levels.
        let mut absorbed: Vec<(u32, u32)> = Vec::new();
        let mut cursor: Vec<usize> = Vec::new();

        for (i, &level) in levels.iter().enumerate().rev() {
            // The level's edges, id-ascending; the `lo` edges above it
            // already own `node_edge_ids[..lo]`.
            let lo = count_ge.get(i + 1).copied().unwrap_or(0);
            let group = &perm[lo..count_ge[i]];

            // 1. Every component a level edge touches is absorbed: its
            //    current node becomes a child of the node this level
            //    creates for it. Taking the node out of `node_of_root`
            //    dedups it and leaves every touched root without a node.
            //    A vertex first touched here has its max φ at this level.
            absorbed.clear();
            for &e in group {
                let (u, v) = g.edge(EdgeId(e));
                let [ru, rv] = [u.0, v.0].map(|x| {
                    if vertex_max_k[x as usize] == ISOLATED {
                        vertex_max_k[x as usize] = level;
                    }
                    let r = uf.find(x);
                    let nd = std::mem::replace(&mut node_of_root[r as usize], NONE);
                    if nd != NONE {
                        absorbed.push((nd, r));
                    }
                    r
                });
                uf.merge(ru, rv);
            }

            // 2. One new node per component holding a level edge, numbered
            //    by the component's first level edge in id order. The
            //    level's nodes get contiguous ids from `first`; `cursor`
            //    counts their edges.
            let first = node_level.len() as u32;
            cursor.clear();
            for &e in group {
                let (u, _) = g.edge(EdgeId(e));
                let r = uf.find(u.0) as usize;
                let mut nd = node_of_root[r];
                if nd == NONE {
                    nd = node_level.len() as u32;
                    node_level.push(level);
                    node_parent.push(NONE);
                    node_of_root[r] = nd;
                    cursor.push(0);
                }
                edge_node[e as usize] = nd;
                cursor[(nd - first) as usize] += 1;
            }

            // 3. The level's nodes own `node_edge_ids[lo..]` in node order;
            //    a stable counting pass keeps each list id-ascending.
            let mut end = lo;
            for c in &mut cursor {
                let start = end;
                end += *c;
                node_edge_offsets.push(end);
                *c = start;
            }
            for &e in group {
                let c = &mut cursor[(edge_node[e as usize] - first) as usize];
                node_edge_ids[*c] = e;
                *c += 1;
            }

            // 4. Absorbed components hang below the node now covering them.
            for &(old_node, old_root) in &absorbed {
                node_parent[old_node as usize] = node_of_root[uf.find(old_root) as usize];
            }
        }

        let (child_offsets, children) = derive_children(&node_parent);
        Ok(Self {
            levels,
            count_ge,
            perm,
            node_level,
            node_parent,
            node_edge_offsets,
            node_edge_ids,
            edge_node,
            vertex_max_k,
            child_offsets,
            children,
        })
    }

    /// Reassembles a hierarchy from its persisted arrays, validating
    /// every structural invariant so corrupt snapshots surface as
    /// [`Error::Corrupt`] instead of panics. `m`/`n` are the edge and
    /// vertex counts of the graph the hierarchy claims to describe.
    #[allow(clippy::too_many_arguments)] // one argument per persisted section
    pub(crate) fn from_parts(
        m: usize,
        n: usize,
        levels: Vec<u64>,
        count_ge: Vec<usize>,
        perm: Vec<u32>,
        node_level: Vec<u64>,
        node_parent: Vec<u32>,
        node_edge_offsets: Vec<usize>,
        node_edge_ids: Vec<u32>,
        edge_node: Vec<u32>,
        vertex_max_k: Vec<u64>,
    ) -> Result<Self> {
        let corrupt = |msg: String| Err(Error::Corrupt(msg));
        let nodes = node_level.len();
        if perm.len() != m || node_edge_ids.len() != m || edge_node.len() != m {
            return corrupt(format!(
                "hierarchy edge arrays disagree with the graph's {m} edges"
            ));
        }
        if vertex_max_k.len() != n {
            return corrupt(format!(
                "hierarchy has {} vertex entries for {n} vertices",
                vertex_max_k.len()
            ));
        }
        if levels.len() != count_ge.len() {
            return corrupt("level and count arrays differ in length".into());
        }
        if !levels.windows(2).all(|w| w[0] < w[1]) {
            return corrupt("levels are not strictly ascending".into());
        }
        if !count_ge.windows(2).all(|w| w[0] > w[1]) || count_ge.first().is_some_and(|&c| c != m) {
            return corrupt("per-level counts are not a strict suffix-count chain".into());
        }
        if (m > 0) == levels.is_empty() {
            return corrupt("level list inconsistent with edge count".into());
        }
        if node_parent.len() != nodes {
            return corrupt("node arrays differ in length".into());
        }
        if node_edge_offsets.len() != nodes + 1
            || node_edge_offsets.first() != Some(&0)
            || node_edge_offsets.last() != Some(&m)
            || !node_edge_offsets.windows(2).all(|w| w[0] < w[1])
        {
            // Strictly increasing: every node owns at least one edge.
            return corrupt("node→edge offsets are not a valid CSR over the edges".into());
        }
        if !node_level.windows(2).all(|w| w[0] >= w[1]) {
            return corrupt("node levels are not non-increasing".into());
        }
        for (i, &p) in node_parent.iter().enumerate() {
            if p == NONE {
                continue;
            }
            let p = p as usize;
            if p >= nodes || p <= i || node_level[p] >= node_level[i] {
                return corrupt(format!("node {i} has an impossible parent"));
            }
        }
        for (nd, w) in node_edge_offsets.windows(2).enumerate() {
            for &e in &node_edge_ids[w[0]..w[1]] {
                if e as usize >= m || edge_node[e as usize] != nd as u32 {
                    return corrupt(format!("node {nd} owns edges it is not mapped to"));
                }
            }
        }
        let mut seen = vec![false; m];
        for &e in &perm {
            if e as usize >= m || std::mem::replace(&mut seen[e as usize], true) {
                return corrupt("edge permutation is not a permutation".into());
            }
        }
        let (child_offsets, children) = derive_children(&node_parent);
        Ok(Self {
            levels,
            count_ge,
            perm,
            node_level,
            node_parent,
            node_edge_offsets,
            node_edge_ids,
            edge_node,
            vertex_max_k,
            child_offsets,
            children,
        })
    }

    /// Checks the hierarchy against the graph and φ array it claims to
    /// index: the permutation order, the per-level counts, every edge's
    /// owning node level, and every vertex's max-k must all be derivable
    /// from them. Used when loading snapshots so a valid load
    /// *guarantees* query answers agree with the decomposition.
    pub(crate) fn validate_against_phi(&self, g: &BipartiteGraph, phi: &[u64]) -> Result<()> {
        let corrupt = |msg: &str| Err(Error::Corrupt(msg.into()));
        if phi.len() != self.perm.len() {
            return corrupt("hierarchy and φ array disagree on the edge count");
        }
        let mut derived_levels: Vec<u64> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        for (i, w) in self.perm.windows(2).enumerate() {
            let (a, b) = (phi[w[0] as usize], phi[w[1] as usize]);
            if a < b || (a == b && w[0] >= w[1]) {
                return corrupt("edge permutation is not sorted by (φ desc, id asc)");
            }
            if a > b {
                derived_levels.push(a);
                starts.push(i + 1);
            }
        }
        if let Some(&last) = self.perm.last() {
            derived_levels.push(phi[last as usize]);
            starts.push(self.perm.len());
        }
        derived_levels.reverse();
        starts.reverse();
        if derived_levels != self.levels || starts != self.count_ge {
            return corrupt("per-level counts do not match the φ array");
        }
        for (e, &nd) in self.edge_node.iter().enumerate() {
            if nd == NONE || self.node_level[nd as usize] != phi[e] {
                return corrupt("an edge's owning node sits at the wrong level");
            }
        }
        let mut expect = vec![ISOLATED; self.vertex_max_k.len()];
        for (e, &p) in phi.iter().enumerate() {
            let (u, v) = g.edge(EdgeId(e as u32));
            for x in [u.index(), v.index()] {
                if expect[x] == ISOLATED || expect[x] < p {
                    expect[x] = p;
                }
            }
        }
        if expect != self.vertex_max_k {
            return corrupt("per-vertex max-k values do not match the φ array");
        }
        Ok(())
    }

    /// Number of edges the hierarchy indexes.
    pub fn num_edges(&self) -> usize {
        self.perm.len()
    }

    /// Number of nodes in the nested community forest.
    pub fn num_forest_nodes(&self) -> usize {
        self.node_level.len()
    }

    /// The bitruss number of one edge (level of its owning forest node).
    #[inline]
    pub fn phi_of(&self, e: EdgeId) -> u64 {
        self.node_level[self.edge_node[e.index()] as usize]
    }

    /// The largest bitruss number present. 0 for an edgeless graph.
    pub fn max_bitruss(&self) -> u64 {
        self.levels.last().copied().unwrap_or(0)
    }

    /// The distinct bitruss numbers present, ascending.
    pub fn levels(&self) -> &[u64] {
        &self.levels
    }

    /// Number of edges per bitruss number, ascending by `k` — identical
    /// to [`Decomposition::level_sizes`], in `O(L)` instead of `O(m)`.
    pub fn level_sizes(&self) -> BTreeMap<u64, usize> {
        (0..self.levels.len())
            .map(|i| {
                let above = self.count_ge.get(i + 1).copied().unwrap_or(0);
                (self.levels[i], self.count_ge[i] - above)
            })
            .collect()
    }

    /// Number of edges of the k-bitruss `H_k = {e : φ(e) ≥ k}`, in
    /// `O(log L)`.
    pub fn k_bitruss_count(&self, k: u64) -> usize {
        let idx = self.levels.partition_point(|&l| l < k);
        if idx == self.levels.len() {
            0
        } else {
            self.count_ge[idx]
        }
    }

    /// Edge ids of the k-bitruss, ascending — identical to
    /// [`Decomposition::k_bitruss_edges`], but only the answer prefix of
    /// the φ-sorted permutation is touched (the sort restores ascending
    /// id order, so the call is `O(log L + |answer| log |answer|)`).
    pub fn k_bitruss_edges(&self, k: u64) -> Vec<EdgeId> {
        let cnt = self.k_bitruss_count(k);
        let mut out: Vec<EdgeId> = self.perm[..cnt].iter().map(|&e| EdgeId(e)).collect();
        out.sort_unstable();
        out
    }

    /// The largest `k` such that `v` has an edge in the k-bitruss, or
    /// `None` for isolated vertices. `O(1)`.
    pub fn max_k(&self, v: VertexId) -> Option<u64> {
        match self.vertex_max_k.get(v.index()) {
            Some(&ISOLATED) | None => None,
            Some(&k) => Some(k),
        }
    }

    /// The connected component of the k-bitruss containing `e`, or
    /// `None` when `φ(e) < k` (or `e` is out of range). Output-sensitive:
    /// walks up the forest to the shallowest ancestor still at level
    /// `≥ k` and collects its subtree. The returned [`Community`] is
    /// identical to the one [`Decomposition::communities`] would list.
    pub fn community_of(&self, g: &BipartiteGraph, e: EdgeId, k: u64) -> Option<Community> {
        if e.index() >= self.edge_node.len() || self.phi_of(e) < k {
            return None;
        }
        let mut nd = self.edge_node[e.index()];
        loop {
            let p = self.node_parent[nd as usize];
            if p == NONE || self.node_level[p as usize] < k {
                break;
            }
            nd = p;
        }
        Some(self.collect_community(g, nd))
    }

    /// All connected communities of the k-bitruss, largest first —
    /// the same list as [`Decomposition::communities`] (tie order among
    /// equal-sized communities is unspecified in both). Output-sensitive:
    /// nodes at level `≥ k` form a prefix of the forest, so only
    /// `O(|H_k|)` work is done.
    pub fn communities(&self, g: &BipartiteGraph, k: u64) -> Vec<Community> {
        let end = self.node_level.partition_point(|&l| l >= k);
        let mut out: Vec<Community> = (0..end)
            .filter(|&nd| {
                let p = self.node_parent[nd];
                p == NONE || self.node_level[p as usize] < k
            })
            .map(|nd| self.collect_community(g, nd as u32))
            .collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.edges.len()));
        out
    }

    /// Materializes the community rooted at forest node `root`: all owned
    /// edges of the subtree, plus their endpoint vertices.
    fn collect_community(&self, g: &BipartiteGraph, root: u32) -> Community {
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut stack = vec![root];
        while let Some(nd) = stack.pop() {
            let nd = nd as usize;
            let range = self.node_edge_offsets[nd]..self.node_edge_offsets[nd + 1];
            edges.extend(self.node_edge_ids[range].iter().map(|&e| EdgeId(e)));
            let kids = self.child_offsets[nd]..self.child_offsets[nd + 1];
            stack.extend_from_slice(&self.children[kids]);
        }
        edges.sort_unstable();
        let mut vertices: Vec<VertexId> = Vec::with_capacity(edges.len() * 2);
        for &e in &edges {
            let (u, v) = g.edge(e);
            vertices.push(u);
            vertices.push(v);
        }
        vertices.sort_unstable();
        vertices.dedup();
        Community { vertices, edges }
    }

    /// Approximate heap footprint of the hierarchy in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.levels.len() * 8
            + self.count_ge.len() * 8
            + self.perm.len() * 4
            + self.node_level.len() * 8
            + self.node_parent.len() * 4
            + self.node_edge_offsets.len() * 8
            + self.node_edge_ids.len() * 4
            + self.edge_node.len() * 4
            + self.vertex_max_k.len() * 8
            + self.child_offsets.len() * 8
            + self.children.len() * 4
    }
}

/// Counting-sorts the edge ids by `(φ descending, id ascending)` over
/// `φ_max + 1` buckets. Returns the distinct levels (ascending), the
/// number of edges with `φ ≥` each level, and the sorted ids.
///
/// # Errors
///
/// [`Error::Invariant`] when some `φ ≥ m`: no graph with `m` edges has
/// such a bitruss number, and it would size the buckets past `m`.
fn sort_by_phi(phi: &[u64]) -> Result<(Vec<u64>, Vec<usize>, Vec<u32>)> {
    let m = phi.len();
    let Some(&phi_max) = phi.iter().max() else {
        return Ok(Default::default());
    };
    if phi_max >= m as u64 {
        return Err(Error::Invariant(format!(
            "bitruss number {phi_max} is not below the edge count {m}"
        )));
    }
    // Per-level edge counts, then turned into each level's start in the
    // descending order: the number of edges above it.
    let mut start = vec![0usize; phi_max as usize + 1];
    for &p in phi {
        start[p as usize] += 1;
    }
    let mut levels: Vec<u64> = Vec::new();
    let mut count_ge: Vec<usize> = Vec::new();
    let mut above = 0;
    for (k, s) in start.iter_mut().enumerate().rev() {
        let count = std::mem::replace(s, above);
        if count > 0 {
            above += count;
            levels.push(k as u64);
            count_ge.push(above);
        }
    }
    levels.reverse();
    count_ge.reverse();
    let mut perm = vec![0u32; m];
    for (e, &p) in phi.iter().enumerate() {
        let s = &mut start[p as usize];
        perm[*s] = e as u32;
        *s += 1;
    }
    Ok((levels, count_ge, perm))
}

/// Builds CSR child lists from the parent array.
fn derive_children(node_parent: &[u32]) -> (Vec<usize>, Vec<u32>) {
    let nodes = node_parent.len();
    let mut offsets = vec![0usize; nodes + 1];
    for &p in node_parent {
        if p != NONE {
            offsets[p as usize + 1] += 1;
        }
    }
    for i in 0..nodes {
        offsets[i + 1] += offsets[i];
    }
    let mut children = vec![0u32; offsets[nodes]];
    let mut cursor = offsets.clone();
    for (c, &p) in node_parent.iter().enumerate() {
        if p != NONE {
            children[cursor[p as usize]] = c as u32;
            cursor[p as usize] += 1;
        }
    }
    (offsets, children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{decompose, Algorithm};
    use bigraph::{GraphBuilder, SplitMix64};
    use proptest::prelude::*;

    /// The comparison-sort build [`BitrussHierarchy::new`] replaced: sorts
    /// the edge ids on `(Reverse(φ), id)`, then per level sorts and
    /// dedups the absorbed nodes and sorts `(node, edge)` pairs. Kept as
    /// the reference the linear passes must reproduce array for array.
    fn new_by_sorting(g: &BipartiteGraph, d: &Decomposition) -> BitrussHierarchy {
        let phi = &d.phi;
        let m = phi.len();
        let n = g.num_vertices() as usize;

        let mut perm: Vec<u32> = (0..m as u32).collect();
        perm.sort_unstable_by_key(|&e| (std::cmp::Reverse(phi[e as usize]), e));

        let mut levels: Vec<u64> = Vec::new();
        let mut count_ge: Vec<usize> = Vec::new();
        for (i, &e) in perm.iter().enumerate() {
            let p = phi[e as usize];
            if levels.last() != Some(&p) {
                levels.push(p);
                count_ge.push(i);
            }
        }
        let mut ge: Vec<usize> = if count_ge.is_empty() {
            Vec::new()
        } else {
            let mut v = count_ge[1..].to_vec();
            v.push(m);
            v
        };
        levels.reverse();
        ge.reverse();
        let count_ge = ge;

        let mut uf = UnionFind::new(n);
        let mut node_of_root: Vec<u32> = vec![NONE; n];
        let mut node_level: Vec<u64> = Vec::new();
        let mut node_parent: Vec<u32> = Vec::new();
        let mut node_edge_offsets: Vec<usize> = vec![0];
        let mut node_edge_ids: Vec<u32> = Vec::with_capacity(m);
        let mut edge_node: Vec<u32> = vec![NONE; m];
        let mut mark: Vec<u32> = vec![0; n];
        let mut slot: Vec<u32> = vec![NONE; n];
        let mut generation: u32 = 0;

        let mut i = 0;
        while i < m {
            let level = phi[perm[i] as usize];
            let mut j = i;
            while j < m && phi[perm[j] as usize] == level {
                j += 1;
            }
            let group = &perm[i..j];
            generation += 1;

            let mut absorbed: Vec<(u32, u32)> = Vec::new();
            for &e in group {
                let (u, v) = g.edge(EdgeId(e));
                for x in [u.0, v.0] {
                    let r = uf.find(x);
                    let nd = node_of_root[r as usize];
                    if nd != NONE {
                        absorbed.push((nd, r));
                    }
                }
            }
            absorbed.sort_unstable();
            absorbed.dedup_by_key(|c| c.0);

            for &e in group {
                let (u, v) = g.edge(EdgeId(e));
                uf.union(u.0, v.0);
            }

            let mut assignment: Vec<(u32, u32)> = Vec::with_capacity(group.len());
            for &e in group {
                let (u, _) = g.edge(EdgeId(e));
                let r = uf.find(u.0) as usize;
                let nd = if mark[r] == generation {
                    slot[r]
                } else {
                    let id = node_level.len() as u32;
                    node_level.push(level);
                    node_parent.push(NONE);
                    mark[r] = generation;
                    slot[r] = id;
                    id
                };
                edge_node[e as usize] = nd;
                assignment.push((nd, e));
            }
            assignment.sort_unstable();
            let mut t = 0;
            while t < assignment.len() {
                let nd = assignment[t].0;
                while t < assignment.len() && assignment[t].0 == nd {
                    node_edge_ids.push(assignment[t].1);
                    t += 1;
                }
                node_edge_offsets.push(node_edge_ids.len());
            }

            for &(old_node, old_root) in &absorbed {
                let r = uf.find(old_root) as usize;
                node_parent[old_node as usize] = slot[r];
            }
            for &e in group {
                let (u, _) = g.edge(EdgeId(e));
                let r = uf.find(u.0) as usize;
                node_of_root[r] = slot[r];
            }
            i = j;
        }

        let mut vertex_max_k = vec![ISOLATED; n];
        for (e, &p) in phi.iter().enumerate() {
            let (u, v) = g.edge(EdgeId(e as u32));
            for x in [u.index(), v.index()] {
                if vertex_max_k[x] == ISOLATED || vertex_max_k[x] < p {
                    vertex_max_k[x] = p;
                }
            }
        }

        let (child_offsets, children) = derive_children(&node_parent);
        BitrussHierarchy {
            levels,
            count_ge,
            perm,
            node_level,
            node_parent,
            node_edge_offsets,
            node_edge_ids,
            edge_node,
            vertex_max_k,
            child_offsets,
            children,
        }
    }

    /// Figure 1/4 fixture with known bitruss numbers 2,2,2,2,2,2,1,0,1,1,0.
    fn fig1() -> (BipartiteGraph, Decomposition) {
        let g = GraphBuilder::new()
            .add_edges([
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 1),
                (3, 2),
                (3, 4),
            ])
            .build()
            .unwrap();
        let phi = vec![2, 2, 2, 2, 2, 2, 1, 0, 1, 1, 0];
        (g, Decomposition::new(phi))
    }

    /// `g` with two more upper and three more lower vertices, all
    /// isolated.
    fn with_isolated(g: &BipartiteGraph) -> BipartiteGraph {
        GraphBuilder::new()
            .with_upper(g.num_upper() + 2)
            .with_lower(g.num_lower() + 3)
            .add_edges(g.edge_pairs())
            .build()
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// BU++ decompositions of uniform and Chung-Lu graphs, with and
        /// without isolated vertices; `nu`/`nl`/`m` reach 0, the empty
        /// graph.
        #[test]
        fn linear_build_matches_sorting_on_decompositions(
            nu in 0..40u32,
            nl in 0..40u32,
            m in 0..500usize,
            powerlaw in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let g = if powerlaw {
                datagen::powerlaw::chung_lu(nu, nl, m, 1.9, 1.9, seed)
            } else {
                datagen::random::uniform(nu, nl, m, seed)
            };
            for g in [with_isolated(&g), g] {
                let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
                prop_assert_eq!(BitrussHierarchy::new(&g, &d).unwrap(), new_by_sorting(&g, &d));
            }
        }

        /// Arbitrary φ arrays with values in `0..m`: one level, a level
        /// per few edges, or three levels with wide gaps between them.
        #[test]
        fn linear_build_matches_sorting_on_arbitrary_phi(
            nu in 1..30u32,
            nl in 1..30u32,
            m in 1..300usize,
            shape in 0..3u32,
            seed in any::<u64>(),
        ) {
            let g = with_isolated(&datagen::random::uniform(nu, nl, m, seed));
            let m = u64::from(g.num_edges());
            let mut rng = SplitMix64::new(seed);
            let one = rng.next_below(m);
            let phi: Vec<u64> = (0..m)
                .map(|_| match shape {
                    0 => one,
                    1 => rng.next_below(m),
                    _ => rng.next_below(3) * ((m - 1) / 2),
                })
                .collect();
            let d = Decomposition::new(phi);
            prop_assert_eq!(BitrussHierarchy::new(&g, &d).unwrap(), new_by_sorting(&g, &d));
        }
    }

    #[test]
    fn linear_build_matches_sorting_on_the_fixtures() {
        let (g, d) = fig1();
        assert_eq!(
            BitrussHierarchy::new(&g, &d).unwrap(),
            new_by_sorting(&g, &d)
        );
        let g = GraphBuilder::new()
            .with_upper(3)
            .with_lower(2)
            .build()
            .unwrap();
        let d = Decomposition::new(vec![]);
        assert_eq!(
            BitrussHierarchy::new(&g, &d).unwrap(),
            new_by_sorting(&g, &d)
        );
    }

    #[test]
    fn phi_at_or_above_the_edge_count_is_rejected() {
        let g = GraphBuilder::new()
            .add_edges([(0, 0), (1, 0)])
            .build()
            .unwrap();
        for phi in [vec![0, 2], vec![5, 0], vec![u64::MAX, 1]] {
            let err = BitrussHierarchy::new(&g, &Decomposition::new(phi)).unwrap_err();
            assert!(matches!(err, Error::Invariant(_)), "{err}");
        }
        assert!(BitrussHierarchy::new(&g, &Decomposition::new(vec![1, 0])).is_ok());
    }

    #[test]
    fn prefix_queries_match_the_decomposition() {
        let (g, d) = fig1();
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        assert_eq!(h.max_bitruss(), 2);
        assert_eq!(h.levels(), &[0, 1, 2]);
        assert_eq!(h.level_sizes(), d.level_sizes());
        for k in 0..=3 {
            assert_eq!(h.k_bitruss_count(k), d.k_bitruss_edges(k).len(), "k={k}");
            assert_eq!(h.k_bitruss_edges(k), d.k_bitruss_edges(k), "k={k}");
        }
        for e in g.edges() {
            assert_eq!(h.phi_of(e), d.bitruss_number(e));
        }
    }

    #[test]
    fn forest_communities_match_the_decomposition() {
        let (g, d) = fig1();
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        for k in 0..=2 {
            let want = d.communities(&g, k);
            let got = h.communities(&g, k);
            assert_eq!(got.len(), want.len(), "k={k}");
            // Same multiset of communities (tie order may differ).
            let canon = |mut cs: Vec<Community>| {
                cs.sort_by_key(|c| c.edges[0]);
                cs
            };
            assert_eq!(canon(got), canon(want), "k={k}");
            for e in g.edges() {
                let direct = h.community_of(&g, e, k);
                let scanned = d
                    .communities(&g, k)
                    .into_iter()
                    .find(|c| c.edges.contains(&e));
                assert_eq!(direct, scanned, "k={k} e={e}");
            }
        }
    }

    #[test]
    fn max_k_and_isolated_vertices() {
        let g = GraphBuilder::new()
            .with_upper(3)
            .with_lower(3)
            .add_edges([(0, 0), (0, 1), (1, 0), (1, 1)])
            .build()
            .unwrap();
        let (d, _) = decompose(&g, Algorithm::BuPlusPlus);
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        assert_eq!(h.max_k(g.upper(0)), Some(1));
        assert_eq!(h.max_k(g.lower(1)), Some(1));
        assert_eq!(h.max_k(g.upper(2)), None);
        assert_eq!(h.max_k(g.lower(2)), None);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        let h = BitrussHierarchy::new(&g, &Decomposition::new(vec![])).unwrap();
        assert_eq!(h.max_bitruss(), 0);
        assert_eq!(h.k_bitruss_count(0), 0);
        assert!(h.k_bitruss_edges(0).is_empty());
        assert!(h.communities(&g, 0).is_empty());
        assert_eq!(h.num_forest_nodes(), 0);
    }

    #[test]
    fn mismatched_decomposition_is_rejected() {
        let g = GraphBuilder::new().add_edge(0, 0).build().unwrap();
        let err = BitrussHierarchy::new(&g, &Decomposition::new(vec![0, 1])).unwrap_err();
        assert!(matches!(err, Error::Invariant(_)));
    }

    #[test]
    fn forest_shape_on_the_fixture() {
        let (g, d) = fig1();
        let h = BitrussHierarchy::new(&g, &d).unwrap();
        // Level 2 forms one component, level 1 absorbs it (one node),
        // level 0 has two separate additions: (2,3) attaches to the big
        // component and (3,4) attaches too (via u3) — still one comp.
        assert_eq!(h.node_level.first(), Some(&2));
        assert_eq!(h.node_level.last(), Some(&0));
        // Every edge owned by a node at its own level.
        for e in g.edges() {
            assert_eq!(
                h.node_level[h.edge_node[e.index()] as usize],
                d.phi[e.index()]
            );
        }
        // Exactly one root (the whole graph is connected at k=0).
        let roots = h.node_parent.iter().filter(|&&p| p == NONE).count();
        assert_eq!(roots, 1);
    }
}
