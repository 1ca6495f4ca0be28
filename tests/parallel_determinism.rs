//! Determinism cross-checks for the parallel engine: parallel counting,
//! the parallel BE-Index build and BiT-BU++/P must be **bit-identical**
//! to their sequential counterparts (counting: to the brute-force
//! oracle) for every thread count, on randomized graphs. These are the
//! guarantees the merge-in-vertex-order construction and the
//! `max(MBS, ·)` composition law provide by design; this suite pins them
//! against regressions. Graphs below `SHARD_MIN_VERTICES` run one shard
//! whatever the thread count, so the counting and index strategies also
//! draw graphs past that cutoff.

use bitruss::counting::{count_naive, SHARD_MIN_VERTICES};
use bitruss::decomposition::{bit_bu_pp, bit_bu_pp_par_tuned, validate_decomposition};
use bitruss::index::BeIndex;
use bitruss::{count_per_edge_parallel, decompose, Algorithm, BipartiteGraph, Threads};
use proptest::prelude::*;

const THREAD_COUNTS: &[usize] = &[1, 2, 3, 8];

/// Random bipartite graph strategy: up to `max_n`×`max_n` vertices with a
/// variable number of edges.
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = BipartiteGraph> {
    (2..=max_n, 2..=max_n, 0..=max_m, any::<u64>())
        .prop_map(|(nu, nl, m, seed)| bitruss::workloads::random::uniform(nu, nl, m, seed))
}

/// Random graphs with more than [`SHARD_MIN_VERTICES`] vertices, so the
/// parallel passes really shard.
fn arb_sharded() -> impl Strategy<Value = BipartiteGraph> {
    let half = SHARD_MIN_VERTICES / 2;
    (
        half..=half + 200,
        half..=half + 200,
        1_000..=6_000usize,
        any::<u64>(),
    )
        .prop_map(|(nu, nl, m, seed)| bitruss::workloads::random::uniform(nu, nl, m, seed))
}

/// Skewed bipartite graph strategy (hubs present).
fn arb_skewed(max_n: u32, max_m: usize) -> impl Strategy<Value = BipartiteGraph> {
    arb_skewed_in(4, max_n, max_m)
}

/// Skewed graphs with `min_n..=max_n` vertices per layer.
fn arb_skewed_in(min_n: u32, max_n: u32, max_m: usize) -> impl Strategy<Value = BipartiteGraph> {
    (
        min_n..=max_n,
        min_n..=max_n,
        8..=max_m,
        any::<u64>(),
        15..30u32,
    )
        .prop_map(|(nu, nl, m, seed, alpha10)| {
            bitruss::workloads::powerlaw::chung_lu(
                nu,
                nl,
                m,
                f64::from(alpha10) / 10.0,
                f64::from(alpha10) / 10.0,
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The parallel index build produces the identical index — same bloom
    /// numbering, same wedge order, same CSR layout — for every thread
    /// count.
    #[test]
    fn parallel_index_build_is_bit_identical(g in prop_oneof![arb_graph(20, 120), arb_sharded()]) {
        let seq = BeIndex::build(&g);
        for &t in THREAD_COUNTS {
            let par = BeIndex::build_parallel(&g, Threads(t));
            prop_assert_eq!(&par, &seq, "threads = {}", t);
        }
    }

    /// Parallel counting equals the brute-force oracle for every thread
    /// count.
    #[test]
    fn parallel_counting_matches_the_oracle(g in prop_oneof![arb_graph(20, 120), arb_sharded()]) {
        let want = count_naive(&g);
        for &t in THREAD_COUNTS {
            prop_assert_eq!(&count_per_edge_parallel(&g, t), &want, "threads = {}", t);
        }
    }

    /// Same property on skewed graphs, whose hub vertices stress the
    /// interleaved sharding balance.
    #[test]
    fn parallel_index_build_is_bit_identical_skewed(
        g in prop_oneof![arb_skewed(32, 260), arb_skewed_in(520, 640, 5_000)]
    ) {
        let seq = BeIndex::build(&g);
        for &t in THREAD_COUNTS {
            let par = BeIndex::build_parallel(&g, Threads(t));
            prop_assert_eq!(&par, &seq, "threads = {}", t);
            par.validate(&g).unwrap();
        }
    }

    /// BiT-BU++/P produces the identical decomposition for every thread
    /// count (min_work = 0 forces the per-batch fan-out even on tiny
    /// graphs, so the parallel code path is genuinely exercised).
    #[test]
    fn parallel_decomposition_is_bit_identical(g in arb_graph(16, 80)) {
        let (seq, _) = bit_bu_pp(&g);
        for &t in THREAD_COUNTS {
            let (par, m) = bit_bu_pp_par_tuned(&g, Threads(t), 0);
            prop_assert_eq!(&par, &seq, "threads = {}", t);
            prop_assert_eq!(m.peeling_threads, t);
        }
        validate_decomposition(&g, &seq).unwrap();
    }

    /// The aggregated update count is itself deterministic across thread
    /// counts (the written-edge set per batch is thread-independent).
    #[test]
    fn update_counts_are_thread_independent(g in arb_skewed(28, 220)) {
        let mut counts = Vec::new();
        let mut decs = Vec::new();
        for &t in THREAD_COUNTS {
            let (d, m) = bit_bu_pp_par_tuned(&g, Threads(t), 0);
            counts.push(m.support_updates);
            decs.push(d);
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{:?}", counts);
        prop_assert!(decs.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn dispatcher_parallel_variant_agrees_with_sequential() {
    for seed in 0..4 {
        let g = bitruss::workloads::random::uniform(14, 14, 60, seed);
        let (seq, _) = decompose(&g, Algorithm::BuPlusPlus);
        let (par, m) = decompose(
            &g,
            Algorithm::BuPlusPlusPar {
                threads: Threads(4),
            },
        );
        assert_eq!(par, seq, "seed {seed}");
        assert_eq!(m.counting_threads, 4);
        assert_eq!(m.index_threads, 4);
        assert_eq!(m.peeling_threads, 4);
    }
}

#[test]
fn auto_threads_resolve_and_agree() {
    let g = bitruss::workloads::powerlaw::chung_lu(40, 40, 400, 2.0, 2.0, 17);
    let (seq, _) = bit_bu_pp(&g);
    let (par, m) = decompose(&g, Algorithm::parallel_auto());
    assert_eq!(par, seq);
    assert!(m.peeling_threads >= 1);
}
