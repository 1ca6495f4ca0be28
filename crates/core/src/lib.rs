//! Bitruss decomposition for large-scale bipartite graphs.
//!
//! This crate implements every decomposition algorithm of the ICDE'20
//! paper *"Efficient Bitruss Decomposition for Large-scale Bipartite
//! Graphs"* (Wang, Lin, Qin, Zhang, Zhang):
//!
//! | Algorithm | Paper | Idea |
//! |-----------|-------|------|
//! | [`algo::bit_bs`]       | Alg. 1 | baseline: peel + combinatorial butterfly enumeration |
//! | [`algo::bit_bu`]       | Alg. 4 | peel through the BE-Index |
//! | [`algo::bit_bu_plus`]  | §V-B   | + batch edge processing |
//! | [`algo::bit_bu_pp`]    | Alg. 5 | + batch bloom processing |
//! | [`algo::bit_bu_pp_par`] | ext.  | BiT-BU++/P: parallel counting, index construction and batch peeling |
//! | [`partition::bit_bu_pp_2p`] | ext. | BiT-BU++2P: two-phase partition-parallel peeling (band decomposition) |
//! | [`algo::bit_pc`]       | Alg. 7 | progressive compression: hub edges first, in candidate subgraphs |
//!
//! All of them produce the same [`Decomposition`] — the bitruss number
//! `φ(e)` of every edge — and report [`Metrics`] (support updates, phase
//! times, index sizes) matching the quantities the paper's evaluation
//! plots.
//!
//! # Quickstart
//!
//! The headline API is the [`engine::BitrussEngine`] session, which owns
//! the full lifecycle decompose → hierarchy → query → snapshot:
//!
//! ```
//! use bigraph::GraphBuilder;
//! use bitruss_core::{Algorithm, BitrussEngine};
//!
//! // The author–paper network of the paper's Figure 1.
//! let g = GraphBuilder::new()
//!     .add_edges([
//!         (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
//!         (2, 2), (2, 3), (3, 1), (3, 2), (3, 4),
//!     ])
//!     .build()
//!     .unwrap();
//! let session = BitrussEngine::builder()
//!     .algorithm(Algorithm::BuPlusPlus)
//!     .build(g)
//!     .unwrap();
//! assert_eq!(session.max_bitruss(), 2);
//! // The 2-bitruss is the dense {u0,u1,u2} × {v0,v1} block.
//! assert_eq!(session.k_bitruss_edges(2).unwrap().len(), 6);
//! ```
//!
//! One-shot callers that only need φ can still use [`decompose`], a thin
//! wrapper over the same dispatch.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algo;
pub mod bucket_queue;
pub mod decomposition;
pub mod engine;
pub mod hierarchy;
pub mod kbitruss;
pub mod metrics;
pub(crate) mod ooc;
pub mod partition;
pub mod persist;
pub mod repeel;
pub mod tip;
pub mod verify;

pub use algo::{
    bit_bs, bit_bs_observed, bit_bu, bit_bu_hybrid, bit_bu_hybrid_observed, bit_bu_observed,
    bit_bu_opts, bit_bu_plus, bit_bu_plus_observed, bit_bu_plus_opts, bit_bu_pp,
    bit_bu_pp_observed, bit_bu_pp_opts, bit_bu_pp_par, bit_bu_pp_par_observed, bit_bu_pp_par_tuned,
    bit_pc, bit_pc_observed, bit_pc_opts, decompose, decompose_observed, kmax_bound, Algorithm,
    ParseAlgorithmError, PeelStrategy, Threads, DEFAULT_TAU,
};
pub use bitruss_storage::MemoryReport;
pub use bucket_queue::BucketQueue;
pub use decomposition::{Community, Decomposition};
pub use engine::{
    BitrussEngine, EngineBuilder, EngineObserver, HierarchyMode, NoopObserver, Phase, Query,
    QueryAnswer,
};
pub use hierarchy::BitrussHierarchy;
pub use kbitruss::k_bitruss;
pub use metrics::{Metrics, UpdateHistogram};
pub use partition::{
    bit_bu_pp_2p, bit_bu_pp_2p_observed, bit_bu_pp_2p_tuned, bit_bu_pp_2p_with_outcome,
    BandPartition, StitchLog, StitchMigration, DEFAULT_NUM_BANDS,
};
pub use persist::binary::{
    read_snapshot, read_snapshot_file, write_snapshot, write_snapshot_file, Snapshot,
    FORMAT_VERSION, MIN_FORMAT_VERSION,
};
pub use persist::store::{
    write_bytes_atomic, write_bytes_atomic_std, JournalBatch, JournalOp, RecoveredState,
    RecoveryReport, SnapshotStore, MANIFEST_NAME, STORE_FORMAT_VERSION,
};
pub use persist::vfs::{Fault, MemVfs, StdVfs, Vfs, VfsFile};
pub use persist::{read_decomposition, write_decomposition};
pub use repeel::{repeel_region, RepeelStats};
pub use tip::{tip_decomposition, TipLayer};
pub use verify::{k_bitruss_fixpoint, reference_decomposition, validate_decomposition};
