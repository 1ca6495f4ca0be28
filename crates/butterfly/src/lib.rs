//! Butterfly ((2,2)-biclique) counting for bipartite graphs.
//!
//! The workhorse is [`count_per_edge`], the vertex-priority counting
//! algorithm of Wang et al. (VLDB 2019, ref.\[8\] of the paper): it
//! enumerates every *priority-obeyed wedge* `(u, v, w)` — `p(v) < p(u)` and
//! `p(w) < p(u)` — in `O(Σ_{(u,v)∈E} min{d(u), d(v)})` time. Wedges sharing
//! a start/end pair `(u, w)` form a maximal priority-obeyed bloom; a bloom
//! with `c` wedges holds `C(c,2)` butterflies and contributes `c − 1` to the
//! support of each of its edges (Lemmas 1–3 of the paper).
//!
//! The wedge enumeration is written once, in [`scan`], and every counting
//! entry point consumes it: per-edge ([`count_per_edge`], over any
//! [`NeighborAccess`](bigraph::NeighborAccess) backend with
//! [`count_per_edge_access`], sharded with [`count_per_edge_parallel`]),
//! total ([`count_total`]) and per-vertex ([`count_per_vertex`]), as does
//! the BE-Index construction of the `beindex` crate. [`parallel`] holds
//! the one sharded start-vertex driver both parallel passes run on.
//! [`naive`] provides brute-force oracles used throughout the test
//! suites.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod access;
pub mod local;
pub mod naive;
pub mod parallel;
pub mod scan;
pub mod support;
pub mod vertex;

pub use access::{
    common_neighbors, count_per_edge_access, count_per_edge_access_observed, intersect_sorted,
};
pub use local::{
    count_for_edges, count_through_edge, count_through_edge_metered, for_each_butterfly_through,
    for_each_butterfly_through_metered, for_each_butterfly_through_while,
};
pub use naive::{count_naive, enumerate_butterflies, Butterfly};
pub use parallel::{
    count_per_edge_parallel, count_per_edge_parallel_observed, par_add_assign,
    shard_start_vertices, Threads, SHARD_MIN_VERTICES,
};
pub use scan::WedgeScan;
pub use support::{count_per_edge, count_per_edge_observed, count_total, ButterflyCounts};
pub use vertex::count_per_vertex;
