//! BiT-BU+ and BiT-BU++ — the batch-based optimizations of §V-B.
//!
//! *Batch edge processing* (BiT-BU+): all edges at the minimum support
//! level are peeled as one set `S` (Lemma 9: removing an edge never
//! changes φ of another edge at the same support), and the support
//! deltas they cause are aggregated per affected edge so each affected
//! edge receives **one** write per batch instead of one per removal.
//!
//! *Batch bloom processing* (BiT-BU++, Algorithm 5): additionally, each
//! bloom touched by the batch is traversed **once**: `C(B)` counts the
//! wedge pairs the batch removed from `B`, twins are settled immediately
//! with `−(k−1)` (line 12), and every surviving edge of `B` receives a
//! single `−C(B)` (line 18), with all supports clamped at the batch level
//! `MBS` (the `max(MBS, ·)` rule).
//!
//! Both produce supports identical to sequential BiT-BU — clamped
//! decrements compose: `max(f, max(f, s−a)−b) = max(f, s−a−b)` — which
//! the cross-algorithm tests exploit.

use std::time::Instant;

use beindex::{BeIndex, BloomId, WedgeId};
use bigraph::progress::{checkpoint, EngineObserver, NoopObserver, Phase};
use bigraph::{BipartiteGraph, EdgeId, Result};
use butterfly::count_per_edge_observed;

use crate::bucket_queue::BucketQueue;
use crate::decomposition::Decomposition;
use crate::metrics::Metrics;

/// Runs BiT-BU+ (batch edge processing only — the `BU+` series of
/// Figure 13).
pub fn bit_bu_plus(g: &BipartiteGraph) -> (Decomposition, Metrics) {
    bit_bu_plus_opts(g, None)
}

/// [`bit_bu_plus`] with optional update-histogram bucket bounds.
pub fn bit_bu_plus_opts(
    g: &BipartiteGraph,
    histogram_bounds: Option<&[u64]>,
) -> (Decomposition, Metrics) {
    // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
    bit_bu_plus_run(g, histogram_bounds, &NoopObserver).expect("NoopObserver never cancels")
}

/// [`bit_bu_plus`] with an [`EngineObserver`]: phase events for counting,
/// index construction and peeling, with a cancellation poll per batch.
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation; the partial φ assignment is discarded.
pub fn bit_bu_plus_observed(
    g: &BipartiteGraph,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    bit_bu_plus_run(g, None, observer)
}

pub(crate) fn bit_bu_plus_run(
    g: &BipartiteGraph,
    histogram_bounds: Option<&[u64]>,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    let mut metrics = Metrics::default();
    let m = g.num_edges() as usize;

    let t0 = Instant::now();
    let counts = count_per_edge_observed(g, observer)?;
    metrics.counting_time = t0.elapsed();
    if let Some(bounds) = histogram_bounds {
        metrics.enable_histogram(bounds.to_vec(), &counts.per_edge);
    }

    let t1 = Instant::now();
    let mut index = BeIndex::build_observed(g, observer)?;
    metrics.index_time = t1.elapsed();
    metrics.peak_index_bytes = index.memory_bytes();
    metrics.iterations = 1;

    let t2 = Instant::now();
    observer.on_phase_start(Phase::Peeling, m as u64);
    let mut supp = counts.per_edge;
    let mut phi = vec![0u64; m];
    let mut queue = BucketQueue::new(&supp, |_| true);

    // Aggregated per-edge deltas for the current batch.
    let mut delta = vec![0u64; m];
    let mut touched: Vec<u32> = Vec::new();
    let mut batch: Vec<EdgeId> = Vec::new();

    let mut popped = 0u64;
    while let Some(level) = queue.pop_level(&supp, &mut batch) {
        checkpoint(observer)?;
        popped += batch.len() as u64;
        observer.on_phase_progress(Phase::Peeling, popped, m as u64);
        for &e in &batch {
            phi[e.index()] = level;
        }
        // Sequential traversal with aggregated writes.
        for &e in &batch {
            for li in 0..index.links(e).len() {
                let w0 = WedgeId(index.links(e)[li]);
                if !index.wedge_alive(w0) {
                    continue;
                }
                let b = index.wedge_bloom(w0);
                let k = index.bloom_k(b) as u64;
                let twin = index.wedge_twin(w0, e);
                index.kill_wedge(w0);
                index.sub_bloom_k(b, 1);
                if k >= 2 && index.in_index(twin) {
                    if delta[twin.index()] == 0 {
                        touched.push(twin.0);
                    }
                    delta[twin.index()] += k - 1;
                }
                for w in index.bloom_wedges(b) {
                    if !index.wedge_alive(w) {
                        continue;
                    }
                    let (e1, e2) = index.wedge_members(w);
                    for other in [e1, e2] {
                        if index.in_index(other) {
                            if delta[other.index()] == 0 {
                                touched.push(other.0);
                            }
                            delta[other.index()] += 1;
                        }
                    }
                }
            }
            index.remove_edge_links(e);
        }
        // One write per affected surviving edge.
        for &t in &touched {
            let e = EdgeId(t);
            let d = std::mem::take(&mut delta[e.index()]);
            if d > 0 && index.in_index(e) && supp[e.index()] > level {
                let old = supp[e.index()];
                let new = level.max(old.saturating_sub(d));
                supp[e.index()] = new;
                queue.decrease(e, old, new);
                metrics.record_update(e);
            }
        }
        touched.clear();
    }
    metrics.peeling_time = t2.elapsed();
    observer.on_phase_end(Phase::Peeling);
    Ok((Decomposition::new(phi), metrics))
}

/// Runs BiT-BU++ (Algorithm 5: batch edge *and* batch bloom processing).
pub fn bit_bu_pp(g: &BipartiteGraph) -> (Decomposition, Metrics) {
    bit_bu_pp_opts(g, None)
}

/// [`bit_bu_pp`] with optional update-histogram bucket bounds.
pub fn bit_bu_pp_opts(
    g: &BipartiteGraph,
    histogram_bounds: Option<&[u64]>,
) -> (Decomposition, Metrics) {
    // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
    bit_bu_pp_run(g, histogram_bounds, &NoopObserver).expect("NoopObserver never cancels")
}

/// [`bit_bu_pp`] with an [`EngineObserver`]: phase events for counting,
/// index construction and peeling, with a cancellation poll per batch.
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation; the partial φ assignment is discarded.
pub fn bit_bu_pp_observed(
    g: &BipartiteGraph,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    bit_bu_pp_run(g, None, observer)
}

pub(crate) fn bit_bu_pp_run(
    g: &BipartiteGraph,
    histogram_bounds: Option<&[u64]>,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    let mut metrics = Metrics::default();

    let t0 = Instant::now();
    let counts = count_per_edge_observed(g, observer)?;
    metrics.counting_time = t0.elapsed();
    if let Some(bounds) = histogram_bounds {
        metrics.enable_histogram(bounds.to_vec(), &counts.per_edge);
    }

    let t1 = Instant::now();
    let mut index = BeIndex::build_observed(g, observer)?;
    metrics.index_time = t1.elapsed();
    metrics.peak_index_bytes = index.memory_bytes();
    metrics.iterations = 1;

    let dec = peel_pp(&mut index, counts.per_edge, &mut metrics, observer)?;
    Ok((dec, metrics))
}

/// The BiT-BU++ peel (Algorithm 5): pops the minimum support level off
/// the bucket queue, assigns it as φ of the whole batch, and settles the
/// batch with [`peel_batch_pp`], until every edge is assigned. Reports
/// the peeling phase and polls for cancellation once per batch. Shared
/// by the in-memory run and the budgeted (out-of-core) one, which differ
/// only in how the supports and the index were built.
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation; the partial φ assignment is discarded.
pub(crate) fn peel_pp(
    index: &mut BeIndex,
    mut supp: Vec<u64>,
    metrics: &mut Metrics,
    observer: &dyn EngineObserver,
) -> Result<Decomposition> {
    let m = supp.len();
    let t2 = Instant::now();
    observer.on_phase_start(Phase::Peeling, m as u64);
    let mut phi = vec![0u64; m];
    let mut queue = BucketQueue::new(&supp, |_| true);
    let mut state = BatchState::new(index.num_blooms());
    let mut batch: Vec<EdgeId> = Vec::new();

    let mut popped = 0u64;
    while let Some(level) = queue.pop_level(&supp, &mut batch) {
        checkpoint(observer)?;
        popped += batch.len() as u64;
        observer.on_phase_progress(Phase::Peeling, popped, m as u64);
        for &e in &batch {
            phi[e.index()] = level;
        }
        peel_batch_pp(
            index, &mut supp, &mut queue, &mut state, &batch, level, metrics, None,
        );
    }
    metrics.peeling_time = t2.elapsed();
    observer.on_phase_end(Phase::Peeling);
    Ok(Decomposition::new(phi))
}

/// Runs BiT-BU# — an extension beyond the paper combining both batch
/// optimizations at their best: each touched bloom is traversed **once**
/// per batch (as in BiT-BU++) *and* the resulting deltas are aggregated
/// per affected edge across blooms so each edge receives **one** write
/// per batch (as in BiT-BU+). Strictly fewer bloom traversals than BU+
/// and strictly fewer queue writes than BU++.
pub fn bit_bu_hybrid(g: &BipartiteGraph) -> (Decomposition, Metrics) {
    bit_bu_hybrid_run(g, &NoopObserver).expect("NoopObserver never cancels") // xtask:allow(no-panic-lib) infallible: the only Err source is observer cancellation and NoopObserver never cancels
}

/// [`bit_bu_hybrid`] with an [`EngineObserver`]: phase events for
/// counting, index construction and peeling, with a cancellation poll per
/// batch.
///
/// # Errors
///
/// Returns [`bigraph::Error::Cancelled`] when the observer requests
/// cancellation; the partial φ assignment is discarded.
pub fn bit_bu_hybrid_observed(
    g: &BipartiteGraph,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    bit_bu_hybrid_run(g, observer)
}

pub(crate) fn bit_bu_hybrid_run(
    g: &BipartiteGraph,
    observer: &dyn EngineObserver,
) -> Result<(Decomposition, Metrics)> {
    let mut metrics = Metrics::default();
    let m = g.num_edges() as usize;

    let t0 = Instant::now();
    let counts = count_per_edge_observed(g, observer)?;
    metrics.counting_time = t0.elapsed();

    let t1 = Instant::now();
    let mut index = BeIndex::build_observed(g, observer)?;
    metrics.index_time = t1.elapsed();
    metrics.peak_index_bytes = index.memory_bytes();
    metrics.iterations = 1;

    let t2 = Instant::now();
    observer.on_phase_start(Phase::Peeling, m as u64);
    let mut supp = counts.per_edge;
    let mut phi = vec![0u64; m];
    let mut queue = BucketQueue::new(&supp, |_| true);
    let mut state = BatchState::new(index.num_blooms());
    let mut delta = vec![0u64; m];
    let mut touched_edges: Vec<u32> = Vec::new();
    let mut batch: Vec<EdgeId> = Vec::new();

    let mut popped = 0u64;
    while let Some(level) = queue.pop_level(&supp, &mut batch) {
        checkpoint(observer)?;
        popped += batch.len() as u64;
        observer.on_phase_progress(Phase::Peeling, popped, m as u64);
        for &e in &batch {
            phi[e.index()] = level;
        }
        let bump = |delta: &mut Vec<u64>, touched: &mut Vec<u32>, e: EdgeId, by: u64| {
            if delta[e.index()] == 0 {
                touched.push(e.0);
            }
            delta[e.index()] += by;
        };
        // Phase 1: kill wedges, count C(B), accumulate twin deltas.
        for &e in &batch {
            for li in 0..index.links(e).len() {
                let w0 = WedgeId(index.links(e)[li]);
                if !index.wedge_alive(w0) {
                    continue;
                }
                let b = index.wedge_bloom(w0);
                let k = index.bloom_k(b) as u64;
                let twin = index.wedge_twin(w0, e);
                index.kill_wedge(w0);
                if state.c[b.index()] == 0 {
                    state.touched_blooms.push(b.0);
                }
                state.c[b.index()] += 1;
                if k >= 2 && index.in_index(twin) {
                    bump(&mut delta, &mut touched_edges, twin, k - 1);
                }
            }
            index.remove_edge_links(e);
        }
        // Phase 2: one traversal per touched bloom, accumulating −C(B)
        // per surviving member edge.
        for i in 0..state.touched_blooms.len() {
            let b = BloomId(state.touched_blooms[i]);
            let c = std::mem::take(&mut state.c[b.index()]) as u64;
            index.sub_bloom_k(b, c as u32);
            for w in index.bloom_wedges(b) {
                if !index.wedge_alive(w) {
                    continue;
                }
                let (e1, e2) = index.wedge_members(w);
                for other in [e1, e2] {
                    if index.in_index(other) {
                        bump(&mut delta, &mut touched_edges, other, c);
                    }
                }
            }
        }
        state.touched_blooms.clear();
        // Phase 3: one clamped write per affected edge.
        for &t in &touched_edges {
            let e = EdgeId(t);
            let d = std::mem::take(&mut delta[e.index()]);
            if d > 0 && index.in_index(e) && supp[e.index()] > level {
                let old = supp[e.index()];
                let new = level.max(old.saturating_sub(d));
                supp[e.index()] = new;
                queue.decrease(e, old, new);
                metrics.record_update(e);
            }
        }
        touched_edges.clear();
    }
    metrics.peeling_time = t2.elapsed();
    observer.on_phase_end(Phase::Peeling);
    Ok((Decomposition::new(phi), metrics))
}

/// Reusable per-bloom batch counters (`C(B∗)` of Algorithm 5).
pub(crate) struct BatchState {
    /// `c[b]` = wedge pairs removed from bloom `b` in the current batch.
    c: Vec<u32>,
    touched_blooms: Vec<u32>,
}

impl BatchState {
    pub(crate) fn new(num_blooms: u32) -> Self {
        Self {
            c: vec![0; num_blooms as usize],
            touched_blooms: Vec::new(),
        }
    }
}

/// One BiT-BU++ batch (Algorithm 5 lines 6–21), shared with BiT-PC.
///
/// `map`, when present, translates index edge ids to global edge ids for
/// histogram attribution.
#[allow(clippy::too_many_arguments)]
pub(crate) fn peel_batch_pp(
    index: &mut BeIndex,
    supp: &mut [u64],
    queue: &mut BucketQueue,
    state: &mut BatchState,
    batch: &[EdgeId],
    level: u64,
    metrics: &mut Metrics,
    map: Option<&[EdgeId]>,
) {
    let record = |metrics: &mut Metrics, e: EdgeId| {
        metrics.record_update(match map {
            Some(m) => m[e.index()],
            None => e,
        });
    };

    // Phase 1 (lines 6–13): count removed wedge pairs per bloom and settle
    // twins with −(k−1), k taken at batch start (bloom_k untouched here).
    for &e in batch {
        for li in 0..index.links(e).len() {
            let w0 = WedgeId(index.links(e)[li]);
            if !index.wedge_alive(w0) {
                continue; // twin also in S and processed first
            }
            let b = index.wedge_bloom(w0);
            let k = index.bloom_k(b) as u64;
            let twin = index.wedge_twin(w0, e);
            index.kill_wedge(w0);
            if state.c[b.index()] == 0 {
                state.touched_blooms.push(b.0);
            }
            state.c[b.index()] += 1;
            if k >= 2 && index.in_index(twin) && supp[twin.index()] > level {
                let old = supp[twin.index()];
                let new = level.max(old.saturating_sub(k - 1));
                supp[twin.index()] = new;
                queue.decrease(twin, old, new);
                record(metrics, twin);
            }
        }
        index.remove_edge_links(e);
    }

    // Phase 2 (lines 14–18): one traversal per touched bloom; surviving
    // edges lose C(B) each.
    for i in 0..state.touched_blooms.len() {
        let b = BloomId(state.touched_blooms[i]);
        let c = std::mem::take(&mut state.c[b.index()]) as u64;
        index.sub_bloom_k(b, c as u32);
        for w in index.bloom_wedges(b) {
            if !index.wedge_alive(w) {
                continue;
            }
            let (e1, e2) = index.wedge_members(w);
            for other in [e1, e2] {
                if index.in_index(other) && supp[other.index()] > level {
                    let old = supp[other.index()];
                    let new = level.max(old.saturating_sub(c));
                    supp[other.index()] = new;
                    queue.decrease(other, old, new);
                    record(metrics, other);
                }
            }
        }
    }
    state.touched_blooms.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bu::bit_bu;
    use crate::verify::{reference_decomposition, validate_decomposition};
    use bigraph::GraphBuilder;

    fn fig1() -> BipartiteGraph {
        GraphBuilder::new()
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
            .unwrap()
    }

    #[test]
    fn example3_batches() {
        // Example 3: the batch {e6,e7,e8} at support 1 updates only e5;
        // the next batch {e0..e5} at support 2 needs no updates at all.
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
        let (d, m) = bit_bu_pp(&g);
        assert_eq!(d.phi, vec![2, 2, 2, 2, 2, 2, 1, 1, 1]);
        // Exactly one support update in the whole run (e5: 3 → 2).
        assert_eq!(m.support_updates, 1);
    }

    #[test]
    fn all_variants_agree_on_fig1() {
        let g = fig1();
        let expect = reference_decomposition(&g);
        let (d_plus, m_plus) = bit_bu_plus(&g);
        let (d_pp, m_pp) = bit_bu_pp(&g);
        let (d_bu, m_bu) = bit_bu(&g);
        assert_eq!(d_plus, expect);
        assert_eq!(d_pp, expect);
        assert_eq!(d_bu, expect);
        validate_decomposition(&g, &d_pp).unwrap();
        // Batching can only reduce the number of updates relative to
        // per-removal peeling. (BU+ aggregates to one write per affected
        // edge per batch — the minimum — while BU++ writes once per
        // touched (bloom, edge) pair, trading a few extra writes for
        // visiting each bloom once; so both are ≤ BU but BU++ is not
        // necessarily ≤ BU+.)
        assert!(m_plus.support_updates <= m_bu.support_updates);
        assert!(m_pp.support_updates <= m_bu.support_updates);
    }

    #[test]
    fn random_graphs_match_reference() {
        for seed in 0..8 {
            let g = datagen::random::uniform(13, 15, 70, seed);
            let expect = reference_decomposition(&g);
            let (d_plus, _) = bit_bu_plus(&g);
            let (d_pp, _) = bit_bu_pp(&g);
            assert_eq!(d_plus, expect, "BU+ seed {seed}");
            assert_eq!(d_pp, expect, "BU++ seed {seed}");
        }
    }

    #[test]
    fn batching_reduces_updates_on_skewed_graphs() {
        let g = datagen::powerlaw::chung_lu(80, 80, 1_200, 1.9, 1.9, 5);
        let (d_bu, m_bu) = bit_bu(&g);
        let (d_plus, m_plus) = bit_bu_plus(&g);
        let (d_pp, m_pp) = bit_bu_pp(&g);
        assert_eq!(d_bu, d_plus);
        assert_eq!(d_bu, d_pp);
        assert!(m_plus.support_updates <= m_bu.support_updates);
        assert!(m_pp.support_updates <= m_bu.support_updates);
    }

    #[test]
    fn hybrid_agrees_and_minimizes_updates() {
        for seed in 0..6 {
            let g = datagen::random::uniform(13, 14, 65, seed);
            let expect = reference_decomposition(&g);
            let (d, _) = bit_bu_hybrid(&g);
            assert_eq!(d, expect, "seed {seed}");
        }
        // On a skewed graph: same φ, and write count equal to BU+'s
        // (both aggregate to one write per affected edge per batch)
        // which lower-bounds BU++'s per-bloom writes.
        let g = datagen::powerlaw::chung_lu(90, 90, 1_400, 1.9, 1.9, 8);
        let (d_h, m_h) = bit_bu_hybrid(&g);
        let (d_plus, m_plus) = bit_bu_plus(&g);
        let (d_pp, m_pp) = bit_bu_pp(&g);
        assert_eq!(d_h, d_plus);
        assert_eq!(d_h, d_pp);
        assert_eq!(m_h.support_updates, m_plus.support_updates);
        assert!(m_h.support_updates <= m_pp.support_updates);
    }
}
