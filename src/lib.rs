//! # bitruss — Efficient Bitruss Decomposition for Large-scale Bipartite Graphs
//!
//! A Rust implementation of the ICDE 2020 paper by Wang, Lin, Qin, Zhang
//! and Zhang: the **BE-Index** (an online index compressing butterflies
//! into maximal priority-obeyed blooms) and the decomposition algorithms
//! **BiT-BS**, **BiT-BU**, **BiT-BU++** and **BiT-PC** built on it, plus
//! every substrate they need — bipartite CSR graphs, butterfly counting,
//! workload generators and the full experiment harness.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`graph`] — bipartite graph substrate ([`graph::BipartiteGraph`],
//!   [`graph::GraphBuilder`], subgraphs, sampling, I/O);
//! * [`counting`] — butterfly counting ([`counting::count_per_edge`]);
//! * [`index`] — the BE-Index ([`index::BeIndex`]);
//! * [`decomposition`] — the engine, algorithms and result types
//!   ([`BitrussEngine`], [`decompose`], [`Algorithm`], [`Decomposition`]);
//! * [`dynamic`] — incremental maintenance under edge insertions and
//!   deletions ([`DynamicEngineExt`], [`UpdateBatch`]);
//! * [`server`] — the concurrent bitruss-as-a-service query server
//!   ([`BitrussServer`], [`ServerHandle`]);
//! * [`storage`] — the out-of-core tier: compressed paged graphs,
//!   page-cached reads, spill-to-disk index construction (engaged via
//!   [`EngineBuilder::memory_budget`], see `docs/STORAGE.md`);
//! * [`workloads`] — synthetic generators (including the streaming
//!   [`workloads::XlConfig`] beyond-memory workload) and the Table II
//!   dataset registry.
//!
//! ## Quickstart
//!
//! The headline API is the [`BitrussEngine`] session: one typed entry
//! point owning the full lifecycle **decompose → hierarchy → query →
//! snapshot** — build once, serve many.
//!
//! ```
//! use bitruss::{Algorithm, BitrussEngine, GraphBuilder};
//!
//! // The author–paper network of the paper's Figure 1.
//! let g = GraphBuilder::new()
//!     .add_edges([
//!         (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
//!         (2, 2), (2, 3), (3, 1), (3, 2), (3, 4),
//!     ])
//!     .build()
//!     .unwrap();
//!
//! let session = BitrussEngine::builder()
//!     .algorithm(Algorithm::pc_default())
//!     .build(g)
//!     .unwrap();
//! assert_eq!(session.max_bitruss(), 2);
//! // Query the k-bitruss hierarchy (index built lazily, cached).
//! assert_eq!(session.k_bitruss_count(2).unwrap(), 6);
//! println!(
//!     "φ_max = {}, {} support updates",
//!     session.max_bitruss(),
//!     session.metrics().unwrap().support_updates
//! );
//! ```
//!
//! Attach an [`EngineObserver`] via `builder().progress(..)` for phase
//! progress and cooperative cancellation on long runs, persist sessions
//! with `save_snapshot`, and resume them with
//! [`BitrussEngine::from_snapshot`]. One-shot callers that only need φ
//! can still use [`decompose`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Bipartite graph substrate (re-export of the `bigraph` crate).
pub mod graph {
    pub use bigraph::*;
}

/// Butterfly counting (re-export of the `butterfly` crate).
pub mod counting {
    pub use butterfly::*;
}

/// The BE-Index (re-export of the `beindex` crate).
pub mod index {
    pub use beindex::*;
}

/// Decomposition algorithms and results (re-export of `bitruss-core`).
pub mod decomposition {
    pub use bitruss_core::*;
}

/// Incremental maintenance under edge insertions/deletions (re-export
/// of the `bitruss-dynamic` crate).
pub mod dynamic {
    pub use bitruss_dynamic::*;
}

/// The bitruss-as-a-service query server: generation-snapshot isolated
/// reads over a durable single-writer update path (re-export of the
/// `bitruss-server` crate).
pub mod server {
    pub use bitruss_server::*;
}

/// The out-of-core storage tier: delta-compressed adjacency, paged
/// graph files behind a clock page cache, and spill-to-disk BE-Index
/// construction (re-export of the `bitruss-storage` crate).
pub mod storage {
    pub use bitruss_storage::*;
}

/// Workload generators and the dataset registry (re-export of `datagen`).
pub mod workloads {
    pub use datagen::*;
}

pub use bigraph::{BipartiteGraph, EdgeId, GraphBuilder, VertexId};
pub use bitruss_core::{
    bit_bs, bit_bu, bit_bu_hybrid, bit_bu_plus, bit_bu_pp, bit_bu_pp_2p, bit_bu_pp_par, bit_pc,
    decompose, decompose_observed, k_bitruss, read_decomposition, read_snapshot,
    read_snapshot_file, tip_decomposition, write_decomposition, write_snapshot,
    write_snapshot_file, Algorithm, BandPartition, BitrussEngine, BitrussHierarchy, Community,
    Decomposition, EngineBuilder, EngineObserver, HierarchyMode, MemoryReport, Metrics,
    NoopObserver, ParseAlgorithmError, PeelStrategy, Phase, Query, QueryAnswer, Snapshot,
    StitchLog, Threads, TipLayer, DEFAULT_TAU,
};
pub use bitruss_core::{
    write_bytes_atomic, write_bytes_atomic_std, Fault, JournalBatch, JournalOp, MemVfs,
    RecoveredState, RecoveryReport, SnapshotStore, StdVfs, Vfs, VfsFile,
};
pub use bitruss_dynamic::{
    DurableEngine, DynamicEngineExt, MaintenanceStats, UpdateBatch, UpdateOp,
};
pub use bitruss_server::{BitrussServer, ServerConfig, ServerHandle, StatsSnapshot};
pub use butterfly::{count_per_edge, count_per_edge_parallel, count_total, ButterflyCounts};
