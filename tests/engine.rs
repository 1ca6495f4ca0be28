//! Integration tests for the [`BitrussEngine`] session API: randomized
//! equivalence against the legacy free functions for every algorithm,
//! snapshot round-trips through `Engine::from_snapshot`, and cooperative
//! cancellation surfacing `Error::Cancelled` mid-peel without panicking.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};

use bitruss::graph::Error;
use bitruss::{
    bit_bs, bit_bu, bit_bu_hybrid, bit_bu_plus, bit_bu_pp, bit_bu_pp_par, bit_pc, Algorithm,
    BitrussEngine, EngineObserver, HierarchyMode, PeelStrategy, Phase, Threads,
};
use proptest::prelude::*;

/// A legacy free-function entry point, boxed for the equivalence lineup.
type LegacyFn = Box<dyn Fn(&bitruss::BipartiteGraph) -> (bitruss::Decomposition, bitruss::Metrics)>;

/// Every algorithm the engine dispatches, with its legacy free-function
/// counterpart.
fn lineup() -> Vec<(Algorithm, LegacyFn)> {
    vec![
        (
            Algorithm::BsIntersection,
            Box::new(|g| bit_bs(g, PeelStrategy::Intersection)),
        ),
        (
            Algorithm::BsPairEnumeration,
            Box::new(|g| bit_bs(g, PeelStrategy::PairEnumeration)),
        ),
        (Algorithm::Bu, Box::new(bit_bu)),
        (Algorithm::BuPlus, Box::new(bit_bu_plus)),
        (Algorithm::BuPlusPlus, Box::new(bit_bu_pp)),
        (
            Algorithm::BuPlusPlusPar {
                threads: Threads(3),
            },
            Box::new(|g| bit_bu_pp_par(g, Threads(3))),
        ),
        (Algorithm::BuHybrid, Box::new(bit_bu_hybrid)),
        (Algorithm::pc_default(), Box::new(|g| bit_pc(g, 0.02))),
        (Algorithm::Pc { tau: 1.0 }, Box::new(|g| bit_pc(g, 1.0))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acceptance gate: the engine's output is bit-identical to the
    /// legacy free functions for every algorithm, including the update
    /// counts the paper's evaluation relies on.
    #[test]
    fn engine_matches_legacy_free_functions(
        nu in 3..14u32,
        nl in 3..14u32,
        m in 0..70usize,
        seed in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        for (alg, legacy) in lineup() {
            let (d, metrics) = legacy(&g);
            let session = BitrussEngine::builder()
                .algorithm(alg)
                .build_borrowed(&g)
                .expect("no observer: run cannot fail");
            prop_assert_eq!(session.phi(), &d.phi[..], "{}", alg);
            prop_assert_eq!(
                session.metrics().expect("fresh session").support_updates,
                metrics.support_updates,
                "{}", alg
            );
        }
    }

    /// The engine's hierarchy-backed queries agree with Decomposition
    /// rescans on random graphs, for every level present.
    #[test]
    fn engine_queries_match_decomposition_rescans(
        nu in 3..12u32,
        nl in 3..12u32,
        m in 0..60usize,
        seed in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let session = BitrussEngine::builder().build_borrowed(&g).unwrap();
        let d = session.decomposition().clone();
        for k in 0..=session.max_bitruss() {
            prop_assert_eq!(
                session.k_bitruss_edges(k).unwrap(),
                d.k_bitruss_edges(k)
            );
            prop_assert_eq!(
                session.k_bitruss_count(k).unwrap(),
                d.k_bitruss_edges(k).len()
            );
            prop_assert_eq!(
                session.communities(k).unwrap().len(),
                d.communities(&g, k).len()
            );
        }
        prop_assert_eq!(session.level_sizes(), d.level_sizes());
    }

    /// Snapshot round-trip through the engine: save → from_snapshot
    /// preserves φ, the graph shape, and every hierarchy answer.
    #[test]
    fn snapshot_round_trip_via_from_snapshot(
        nu in 3..12u32,
        nl in 3..12u32,
        m in 0..60usize,
        seed in any::<u64>(),
    ) {
        let g = bitruss::workloads::random::uniform(nu, nl, m, seed);
        let session = BitrussEngine::builder()
            .hierarchy(HierarchyMode::Eager)
            .build_borrowed(&g)
            .unwrap();
        let mut bytes = Vec::new();
        session.save_snapshot_to(&mut bytes).unwrap();
        let resumed = BitrussEngine::from_snapshot_reader(&bytes[..]).unwrap();
        prop_assert_eq!(resumed.phi(), session.phi());
        prop_assert_eq!(resumed.graph().num_edges(), g.num_edges());
        prop_assert_eq!(resumed.graph().num_upper(), g.num_upper());
        prop_assert_eq!(resumed.graph().num_lower(), g.num_lower());
        prop_assert!(resumed.metrics().is_none());
        for k in 0..=session.max_bitruss() {
            prop_assert_eq!(
                resumed.k_bitruss_edges(k).unwrap(),
                session.k_bitruss_edges(k).unwrap()
            );
        }
    }
}

#[test]
fn snapshot_round_trip_via_file() {
    let g = bitruss::workloads::random::uniform(14, 14, 70, 77);
    let session = BitrussEngine::builder().build_borrowed(&g).unwrap();
    let path =
        std::env::temp_dir().join(format!("bitruss-engine-test-{}.snap", std::process::id()));
    session.save_snapshot(&path).unwrap();
    let resumed = BitrussEngine::from_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.phi(), session.phi());
    assert_eq!(
        resumed.k_bitruss_count(1).unwrap(),
        session.k_bitruss_count(1).unwrap()
    );
}

/// Observer that lets counting and index construction finish, then
/// requests cancellation as soon as the peeling phase has started — so
/// `Error::Cancelled` must surface *mid-peel*.
#[derive(Default)]
struct CancelMidPeel {
    peeling_started: AtomicBool,
    polls_after_peeling: AtomicU64,
}

impl EngineObserver for CancelMidPeel {
    fn on_phase_start(&self, phase: Phase, _total: u64) {
        if phase == Phase::Peeling {
            self.peeling_started.store(true, Ordering::Relaxed);
        }
    }

    fn is_cancelled(&self) -> bool {
        if self.peeling_started.load(Ordering::Relaxed) {
            self.polls_after_peeling.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

#[test]
fn cancellation_surfaces_mid_peel_without_panicking() {
    // Big enough that even the per-pop engines (BS, BU) reach their
    // CHECK_INTERVAL poll inside the peel loop.
    let g = bitruss::workloads::powerlaw::chung_lu(220, 220, 3_000, 1.9, 1.9, 4);
    for alg in [
        Algorithm::BsIntersection,
        Algorithm::Bu,
        Algorithm::BuPlus,
        Algorithm::BuPlusPlus,
        Algorithm::BuPlusPlusPar {
            threads: Threads(2),
        },
        Algorithm::BuHybrid,
        Algorithm::pc_default(),
    ] {
        let observer = Arc::new(CancelMidPeel::default());
        let err = BitrussEngine::builder()
            .algorithm(alg)
            .progress(observer.clone())
            .build_borrowed(&g)
            .expect_err("cancellation must surface as an error");
        assert!(matches!(err, Error::Cancelled), "{alg}: {err}");
        assert!(
            observer.peeling_started.load(Ordering::Relaxed),
            "{alg}: peeling never started"
        );
        assert!(
            observer.polls_after_peeling.load(Ordering::Relaxed) > 0,
            "{alg}: never polled after peeling started"
        );
    }
}

#[test]
fn cancellation_before_any_work() {
    struct Always;
    impl EngineObserver for Always {
        fn is_cancelled(&self) -> bool {
            true
        }
    }
    let g = bitruss::workloads::random::uniform(10, 10, 40, 1);
    let err = BitrussEngine::builder()
        .progress(Arc::new(Always))
        .build_borrowed(&g)
        .expect_err("pre-cancelled run must fail");
    assert!(matches!(err, Error::Cancelled));
}

#[test]
fn cancellation_covers_the_lazy_hierarchy_build() {
    // Cancel only *after* the decomposition finished: the run succeeds,
    // the first hierarchy query fails cleanly instead of panicking.
    struct CancelLater(AtomicBool);
    impl EngineObserver for CancelLater {
        fn is_cancelled(&self) -> bool {
            self.0.load(Ordering::Relaxed)
        }
    }
    let observer = Arc::new(CancelLater(AtomicBool::new(false)));
    let g = bitruss::workloads::random::uniform(10, 10, 40, 2);
    let session = BitrussEngine::builder()
        .progress(observer.clone())
        .build_borrowed(&g)
        .expect("not cancelled yet");
    observer.0.store(true, Ordering::Relaxed);
    assert!(matches!(session.k_bitruss_count(1), Err(Error::Cancelled)));
    observer.0.store(false, Ordering::Relaxed);
    assert!(session.k_bitruss_count(1).is_ok());
}

#[test]
fn observer_sees_ordered_phases() {
    // The sequential BU++ run reports Counting → IndexBuild → Peeling.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<&'static str>>, AtomicU64);
    impl EngineObserver for Recorder {
        fn on_phase_start(&self, phase: Phase, _total: u64) {
            self.0.lock().unwrap().push(phase.name());
        }
        fn on_phase_progress(&self, _phase: Phase, _done: u64, _total: u64) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }
    let observer = Arc::new(Recorder::default());
    let g = bitruss::workloads::powerlaw::chung_lu(150, 150, 2_500, 1.9, 1.9, 11);
    let session = BitrussEngine::builder()
        .algorithm(Algorithm::BuPlusPlus)
        .hierarchy(HierarchyMode::Eager)
        .progress(observer.clone())
        .build_borrowed(&g)
        .unwrap();
    assert!(session.max_bitruss() > 0);
    let phases = observer.0.lock().unwrap().clone();
    assert_eq!(
        phases,
        vec!["counting", "index-build", "peeling", "hierarchy-build"]
    );
    assert!(
        observer.1.load(Ordering::Relaxed) > 0,
        "expected progress ticks on a 2.5k-edge graph"
    );
}

#[test]
fn concurrent_first_readers_share_one_hierarchy_build() {
    // Readers released together onto one fresh generation: the first
    // builds, the rest wait for its index instead of building their own.
    // The observer holds a build open until every reader has asked for
    // the index, so unshared builds would all start before one finished.
    const READERS: usize = 8;
    #[derive(Default)]
    struct HoldBuild {
        builds: AtomicU64,
        asked: Mutex<usize>,
        all_asked: Condvar,
    }
    impl EngineObserver for HoldBuild {
        fn on_phase_start(&self, phase: Phase, _total: u64) {
            if phase == Phase::HierarchyBuild {
                self.builds.fetch_add(1, Ordering::Relaxed);
                let asked = self.asked.lock().unwrap();
                drop(self.all_asked.wait_while(asked, |n| *n < READERS).unwrap());
            }
        }
    }
    let observer = Arc::new(HoldBuild::default());
    let g = bitruss::workloads::powerlaw::chung_lu(200, 200, 2_000, 1.9, 1.9, 5);
    let session = BitrussEngine::builder()
        .progress(observer.clone())
        .build(g)
        .unwrap();
    assert_eq!(
        observer.builds.load(Ordering::Relaxed),
        0,
        "lazy: nothing built yet"
    );
    let barrier = Barrier::new(READERS);
    let built: Vec<usize> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let reader = session.clone_shared();
                let (barrier, observer) = (&barrier, &observer);
                s.spawn(move || {
                    barrier.wait();
                    *observer.asked.lock().unwrap() += 1;
                    observer.all_asked.notify_all();
                    std::ptr::from_ref(reader.hierarchy().unwrap()) as usize
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(observer.builds.load(Ordering::Relaxed), 1);
    assert!(built.iter().all(|&h| h == built[0]), "one shared index");
    assert_eq!(
        std::ptr::from_ref(session.hierarchy().unwrap()) as usize,
        built[0]
    );
}
