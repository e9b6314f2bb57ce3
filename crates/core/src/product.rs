//! The product-automaton evaluation algorithm (Section 2.2).
//!
//! "A more economical approach is to construct the nfsa for p and carry
//! along the set of states of the nfsa corresponding to the path traveled so
//! far (basically, this constructs a portion of the product of the nfsa for
//! p and the instance I). The resulting algorithm has polynomial-time
//! combined data and query complexity and nlogspace data complexity."
//!
//! We track individual NFA states rather than state *sets*: a breadth-first
//! search over reachable pairs `(q, v)` of automaton state × graph node,
//! processed level by level (ε-moves stay within a level, since they consume
//! no edge). A node `v` is an answer as soon as some reachable pair `(q, v)`
//! has `q` accepting. The pair space is `O(|Q| · |V|)` — the NLOGSPACE/NC
//! bound's certificate.
//!
//! [`eval_product_csr`] is the primary entry point: it steps pairs through
//! the label-indexed [`CsrGraph`] (`graph.out(v, sym)` is a contiguous slice
//! of exactly the matching edges), so per-pair work is proportional to
//! *matching* edges rather than `outdegree × fanout`. [`eval_product`] is a
//! thin compatibility wrapper that snapshots an [`Instance`] first, and
//! [`eval_product_scan`] preserves the original scan-and-filter loop as the
//! measurable baseline (bench `t1_eval_scaling`, skewed workload).
//!
//! # Direction-optimizing expansion
//!
//! The paper fixes the *pair space*; how each BFS level sweeps it is ours
//! to optimize. Every level is expanded one of two ways
//! (Beamer-style direction-optimizing BFS, selected per level by
//! [`FrontierMode`]):
//!
//! * **push** (sparse): for each frontier pair `(q, v)` and transition
//!   `(sym, q2)`, scan the matching adjacency row — cost is exactly the sum
//!   of the frontier's row lengths;
//! * **pull** (dense): for each *unreached* pair `(q2, v2)`, merge-join the
//!   candidate node's opposite-direction label groups against the reversed
//!   transition table and probe the dense frontier bitmap, stopping at the
//!   first hit — cost is bounded by one probe per (edge, matching reverse
//!   transition), independent of frontier fan-out.
//!
//! Both strategies produce the identical next level (level k = pairs first
//! reached spelling k letters), so [`FrontierMode::Hybrid`] compares the
//! *exact* push cost (row lengths from the label index — no edge is
//! scanned to price a level) against a sound, monotonically shrinking pull
//! bound: it starts at Σ over labeled transitions of the label's edge
//! count and is debited by each newly reached pair's matching in-edge
//! count — a pull sweep only probes edges entering *unreached* pairs, so
//! the remainder always upper-bounds the probes. The chosen sweep's actual
//! scans never exceed the push price of the same level, hence hybrid never
//! scans more edges than forced sparse, and strictly fewer whenever a
//! high-fanout level re-scans rows whose targets are mostly reached (bench
//! `t15_hot_path`). All working memory comes from an [`EvalScratch`] arena
//! (generation-stamped marks, reusable frontiers) so repeated queries
//! allocate nothing after warm-up — see [`crate::scratch`].

use std::sync::atomic::{AtomicU32, Ordering};

use rpq_automata::{Nfa, StateId, Symbol};
use rpq_graph::{CsrGraph, GraphView, Instance, Oid};

use crate::request::{EvalControl, Termination};
use crate::scratch::EvalScratch;
use crate::stats::EvalStats;

/// How `product_search_with` expands each BFS level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FrontierMode {
    /// Choose push or pull per level from measured costs (the default),
    /// pricing the dense sweep with the calibrated
    /// [`PULL_SWEEP_DISCOUNT`].
    #[default]
    Hybrid,
    /// [`FrontierMode::Hybrid`] with an explicit pull-sweep discount
    /// divisor — the `rpq_optimizer::PlannerConfig::pull_sweep_discount`
    /// knob threaded down to the level pricer. Built with
    /// [`FrontierMode::hybrid_with_discount`].
    HybridTuned {
        /// Divisor for the dense sweep's O(|Q|·|V|) mark-table price
        /// (clamped to ≥ 1); larger values make pull sweeps fire earlier.
        pull_discount: usize,
    },
    /// Always sparse push expansion — the pre-optimization behavior, kept
    /// as the baseline the hybrid is asserted against (bench
    /// `t15_hot_path`).
    ForcedSparse,
    /// Always dense pull expansion — exercised by tests to pin that both
    /// sweeps answer identically.
    ForcedDense,
}

impl FrontierMode {
    /// Hybrid expansion with an explicit pull-sweep discount divisor.
    /// `hybrid_with_discount(PULL_SWEEP_DISCOUNT)` prices levels exactly
    /// like [`FrontierMode::Hybrid`].
    pub fn hybrid_with_discount(pull_discount: usize) -> FrontierMode {
        FrontierMode::HybridTuned {
            pull_discount: pull_discount.max(1),
        }
    }

    /// The pull-sweep discount divisor this mode prices dense sweeps with
    /// (the calibrated [`PULL_SWEEP_DISCOUNT`] unless tuned).
    pub fn pull_discount(self) -> usize {
        match self {
            FrontierMode::HybridTuned { pull_discount } => pull_discount.max(1),
            _ => PULL_SWEEP_DISCOUNT,
        }
    }
}

/// Divisor discounting the pull sweep's O(|Q|·|V|) mark-table reads against
/// edge probes when pricing a level: a contiguous `u32` read is far cheaper
/// than a label-group probe, but not free.
///
/// The default is *calibrated* against the per-class `push_levels` /
/// `pull_levels` telemetry the server's `Metrics` aggregate (see
/// `rpq_server::Metrics::suggest_pull_discount`): on the T15 saturating
/// workloads a divisor of 16 makes the switch fire on every
/// mostly-reached level while never pricing a sparse early level as
/// dense. Tune per deployment via
/// `rpq_optimizer::PlannerConfig::pull_sweep_discount`.
pub const PULL_SWEEP_DISCOUNT: usize = 16;

/// Result of an evaluation: sorted answers plus work counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalResult {
    /// The set `p(o, I)`, sorted by oid.
    pub answers: Vec<Oid>,
    /// Work counters.
    pub stats: EvalStats,
}

/// Shared finalization for bitmap-based engines (product, both quotient
/// variants): turn the answer bitmap into the sorted oid list and fill the
/// derived counters in one place.
pub(crate) fn finish_eval(
    answer: &[bool],
    classes_materialized: usize,
    mut stats: EvalStats,
) -> EvalResult {
    let answers: Vec<Oid> = answer
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| Oid(i as u32))
        .collect();
    stats.answers = answers.len();
    stats.classes_materialized = classes_materialized;
    EvalResult { answers, stats }
}

/// Mark `(q, v)` seen (generation-stamped) and append it to `level` if it
/// was not already seen this generation. Returns whether the pair was
/// newly marked (first reach — the moment it stops being a pull
/// candidate).
#[inline]
fn push_sparse(
    q: StateId,
    v: Oid,
    nv: usize,
    gen: u32,
    seen: &[AtomicU32],
    level: &mut Vec<(StateId, Oid)>,
) -> bool {
    let cell = &seen[q as usize * nv + v.index()];
    if cell.load(Ordering::Relaxed) != gen {
        cell.store(gen, Ordering::Relaxed);
        level.push((q, v));
        true
    } else {
        false
    }
}

/// The shrinking upper bound on a pull sweep's probes: starts at Σ over
/// labeled transitions of the label's edge count and is debited by each
/// newly reached pair's [`pair_pull_probes`] — a pull level only probes
/// edges entering *unreached* pairs, so `remaining` always dominates its
/// actual scans.
pub(crate) struct PullBound {
    /// Tracking enabled — any mode that may run a pull sweep.
    pub(crate) active: bool,
    /// Probes remaining over unreached pairs.
    pub(crate) remaining: usize,
}

impl PullBound {
    #[inline]
    pub(crate) fn debit(&mut self, probes: usize) {
        if self.active {
            self.remaining = self.remaining.saturating_sub(probes);
        }
    }
}

/// The probes a pull sweep would spend on the unreached pair `(q, v)`: one
/// per (incoming edge under the expansion adjacency, matching reverse
/// transition). Priced from label-index row lengths — no edge is scanned.
#[inline]
pub(crate) fn pair_pull_probes<G: GraphView>(
    graph: &G,
    reverse_adj: bool,
    rev_trans: &[(Symbol, StateId)],
    rev_trans_off: &[usize],
    q: StateId,
    v: Oid,
) -> usize {
    let (lo, hi) = (rev_trans_off[q as usize], rev_trans_off[q as usize + 1]);
    let mut probes = 0usize;
    for &(sym, _) in &rev_trans[lo..hi] {
        let row = if reverse_adj {
            graph.out(v, sym)
        } else {
            graph.rev(v, sym)
        };
        probes += row.len();
    }
    probes
}

/// Sparse *push* expansion of one (ε-closed) level: scan each frontier
/// pair's matching adjacency rows and mark/enqueue unseen targets.
///
/// With a `budget`, the check runs *before* each row scan, so
/// `stats.edges_scanned` never exceeds the budget; returns `true` when the
/// budget tripped (the level is then partially expanded and the caller
/// terminates the search).
#[allow(clippy::too_many_arguments)]
fn push_level<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    reverse_adj: bool,
    nv: usize,
    gen: u32,
    scratch: &mut EvalScratch,
    stats: &mut EvalStats,
    bound: &mut PullBound,
    budget: Option<usize>,
) -> bool {
    for &(q, v) in &scratch.frontier {
        for &(sym, q2) in nfa.transitions(q) {
            let targets = if reverse_adj {
                graph.rev(v, sym)
            } else {
                graph.out(v, sym)
            };
            if budget.is_some_and(|b| stats.edges_scanned + targets.len() > b) {
                return true;
            }
            stats.edges_scanned += targets.len();
            for v2 in targets {
                if push_sparse(q2, v2, nv, gen, &scratch.seen, &mut scratch.next) && bound.active {
                    bound.debit(pair_pull_probes(
                        graph,
                        reverse_adj,
                        &scratch.rev_trans,
                        &scratch.rev_trans_off,
                        q2,
                        v2,
                    ));
                }
            }
        }
    }
    false
}

/// Dense *pull* expansion of one (ε-closed) level: for every unreached
/// pair `(q2, v2)`, merge-join the candidate's opposite-direction label
/// groups against the reversed transition table and probe the densified
/// frontier, stopping at the first hit. Produces exactly the same next
/// level as [`push_level`]; `edges_scanned` counts probed endpoints only.
///
/// With a `budget`, every probe is pre-checked so `stats.edges_scanned`
/// never exceeds it; returns `true` when the budget tripped (the dense
/// arena is still left clean for the next search).
#[allow(clippy::too_many_arguments)]
fn pull_level<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    reverse_adj: bool,
    nv: usize,
    gen: u32,
    scratch: &mut EvalScratch,
    stats: &mut EvalStats,
    bound: &mut PullBound,
    budget: Option<usize>,
) -> bool {
    let nq = nfa.num_states();
    let mut tripped = false;
    // Densify the current frontier for O(1) membership probes.
    for &(q, v) in &scratch.frontier {
        scratch.dense.state_mut(q as usize).insert(v.index());
    }
    'sweep: for q2 in 0..nq {
        let (lo, hi) = (scratch.rev_trans_off[q2], scratch.rev_trans_off[q2 + 1]);
        if lo == hi {
            continue; // no labeled transition enters q2
        }
        let seg = &scratch.rev_trans[lo..hi];
        for vi in 0..nv {
            if scratch.seen[q2 * nv + vi].load(Ordering::Relaxed) == gen {
                continue;
            }
            let candidate = Oid(vi as u32);
            // The candidate's in-edges under the expansion adjacency — the
            // *opposite* orientation of the push step.
            let groups = if reverse_adj {
                graph.out_groups(candidate)
            } else {
                graph.rev_groups(candidate)
            };
            let mut si = 0usize;
            'probe: for (sym, edges) in groups {
                while si < seg.len() && seg[si].0 < sym {
                    si += 1;
                }
                if si == seg.len() {
                    break;
                }
                let mut sj = si;
                while sj < seg.len() && seg[sj].0 == sym {
                    sj += 1;
                }
                if sj == si {
                    continue;
                }
                for u in edges {
                    for &(_, qsrc) in &seg[si..sj] {
                        if budget.is_some_and(|b| stats.edges_scanned >= b) {
                            tripped = true;
                            break 'sweep;
                        }
                        stats.edges_scanned += 1;
                        if scratch.dense.state(qsrc as usize).contains(u.index()) {
                            scratch.seen[q2 * nv + vi].store(gen, Ordering::Relaxed);
                            scratch.next.push((q2 as StateId, candidate));
                            bound.debit(pair_pull_probes(
                                graph,
                                reverse_adj,
                                &scratch.rev_trans,
                                &scratch.rev_trans_off,
                                q2 as StateId,
                                candidate,
                            ));
                            break 'probe;
                        }
                    }
                }
            }
        }
    }
    // Leave the dense arena clean for the next level / next search (O(1)
    // per untouched state thanks to the maintained bit counts).
    scratch.dense.clear();
    tripped
}

/// The level-synchronous product BFS shared by the forward, backward, and
/// early-exit pair entry points, generic over any [`GraphView`] (the
/// immutable CSR snapshot or the delta overlay). `reverse_adj` selects
/// which adjacency each labeled step traverses ([`GraphView::out`] vs
/// [`GraphView::rev`]); the automaton is taken as given, so backward
/// callers pass the *reversed* NFA. With `stop_at`, the search returns as
/// soon as that node becomes an answer (the answer list is then partial —
/// pair callers consume only the flag and the stats). With `depth_cap`, BFS
/// levels beyond the cap are never expanded: sound and complete whenever
/// the cap is at least the length of the automaton's longest accepted word
/// (level k holds exactly the pairs first reached by spelling k letters),
/// which is how the planner evaluates finite-language queries without
/// paying for graph cycles the automaton cannot follow to acceptance.
///
/// `mode` selects the per-level expansion strategy (see [`FrontierMode`]);
/// all working memory comes from `scratch`, which is resized/invalidated
/// here and can be reused across calls of any `(|Q|, |V|)` shape.
///
/// `control` carries the serving-layer execution controls: the
/// cancellation flag is checked once per BFS level, and the
/// `edges_scanned` budget is enforced *before* every row scan / probe
/// inside the level sweeps, so the returned stats always satisfy
/// `edges_scanned ≤ budget`. Answers collected before an early
/// termination are a sound subset (a node is only reported once an
/// accepting pair is actually reached); the third return value says
/// whether the search ran to exhaustion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn product_search_with<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    source: Oid,
    reverse_adj: bool,
    stop_at: Option<Oid>,
    depth_cap: Option<usize>,
    mode: FrontierMode,
    control: &EvalControl,
    scratch: &mut EvalScratch,
) -> (EvalResult, bool, Termination) {
    let nq = nfa.num_states();
    let nv = graph.num_nodes();
    debug_assert!(source.index() < nv.max(1), "source must be a graph node");
    let covered = scratch.begin(nq, nv);
    let mut stats = EvalStats {
        scratch_reused: usize::from(covered),
        ..EvalStats::default()
    };
    let gen = scratch.generation();
    let mut found = false;
    let mut termination = Termination::Complete;
    let mut classes = 0usize;

    // Pull machinery: the reversed transition table, plus the shrinking
    // probe bound — each graph edge labeled `sym` is tested at most once
    // per reverse transition carrying `sym` *and only while its target
    // pair is unreached*, so the bound starts at Σ over labeled
    // transitions of edge_count(label) and is debited as pairs are
    // reached. The O(|Q|·|V|) unreached-candidate sweep is priced
    // separately (discounted: contiguous mark reads, not edge probes).
    let mut bound = PullBound {
        active: mode != FrontierMode::ForcedSparse,
        remaining: 0,
    };
    let sweep_cost = (nq * nv) / mode.pull_discount();
    if bound.active {
        scratch.build_rev_trans(nfa);
        let gstats = graph.stats();
        let mut total = 0usize;
        for q in 0..nq {
            for &(sym, _) in nfa.transitions(q as StateId) {
                total = total.saturating_add(gstats.edge_count(sym));
            }
        }
        bound.remaining = total;
    }

    if nv > 0
        && push_sparse(
            nfa.start(),
            source,
            nv,
            gen,
            &scratch.seen,
            &mut scratch.frontier,
        )
        && bound.active
    {
        bound.debit(pair_pull_probes(
            graph,
            reverse_adj,
            &scratch.rev_trans,
            &scratch.rev_trans_off,
            nfa.start(),
            source,
        ));
    }

    let mut depth = 0usize;
    'bfs: while !scratch.frontier.is_empty() {
        // Cooperative cancellation: one relaxed flag read per BFS level.
        if control.cancelled() {
            termination = Termination::Cancelled;
            break 'bfs;
        }
        // ε-closure inside the level: ε-moves advance the automaton without
        // consuming an edge, so their targets belong to the same BFS level.
        let mut i = 0;
        while i < scratch.frontier.len() {
            let (q, v) = scratch.frontier[i];
            i += 1;
            for &q2 in nfa.eps_transitions(q) {
                if push_sparse(q2, v, nv, gen, &scratch.seen, &mut scratch.frontier) && bound.active
                {
                    bound.debit(pair_pull_probes(
                        graph,
                        reverse_adj,
                        &scratch.rev_trans,
                        &scratch.rev_trans_off,
                        q2,
                        v,
                    ));
                }
            }
        }
        stats.frontier_peak = stats.frontier_peak.max(scratch.frontier.len());

        // Answer/accept pass over the closed level.
        for &(q, v) in &scratch.frontier {
            stats.pairs_visited += 1;
            if scratch.state_marks[q as usize] != gen {
                scratch.state_marks[q as usize] = gen;
                classes += 1;
            }
            if nfa.is_accepting(q) && scratch.answer_marks[v.index()] != gen {
                scratch.answer_marks[v.index()] = gen;
                scratch.answers.push(v);
                if stop_at == Some(v) {
                    found = true;
                    break 'bfs;
                }
            }
        }

        // Level `depth` holds pairs first reachable by spelling `depth`
        // letters; at the cap no longer word can be accepted, so the pairs
        // are answer-checked above but never expanded — graph edges beyond
        // the cap are not even scanned.
        if depth_cap.is_some_and(|cap| depth >= cap) {
            break 'bfs;
        }

        // Consume one graph edge per pair: both sweeps produce exactly the
        // pairs first reachable by spelling `depth + 1` letters.
        let use_pull = match mode {
            FrontierMode::ForcedSparse => false,
            FrontierMode::ForcedDense => true,
            FrontierMode::Hybrid | FrontierMode::HybridTuned { .. } => {
                // Exact cost push would pay for this level: row lengths
                // from the label index — no edge is scanned to price it.
                let mut push_cost = 0usize;
                for &(q, v) in &scratch.frontier {
                    for &(sym, _) in nfa.transitions(q) {
                        let row = if reverse_adj {
                            graph.rev(v, sym)
                        } else {
                            graph.out(v, sym)
                        };
                        push_cost = push_cost.saturating_add(row.len());
                    }
                }
                // Pull's probes are bounded by the remaining unreached
                // mass; both sweeps produce the same level, so taking the
                // cheaper one keeps hybrid ≤ forced-sparse everywhere.
                sweep_cost.saturating_add(bound.remaining) < push_cost
            }
        };
        let tripped = if use_pull {
            stats.pull_levels += 1;
            pull_level(
                nfa,
                graph,
                reverse_adj,
                nv,
                gen,
                scratch,
                &mut stats,
                &mut bound,
                control.budget,
            )
        } else {
            stats.push_levels += 1;
            push_level(
                nfa,
                graph,
                reverse_adj,
                nv,
                gen,
                scratch,
                &mut stats,
                &mut bound,
                control.budget,
            )
        };
        if tripped {
            // The level is partially expanded; everything already answered
            // stays sound, the rest of the search is abandoned.
            termination = Termination::BudgetExhausted;
            scratch.next.clear();
            break 'bfs;
        }

        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        scratch.next.clear();
        depth += 1;
    }

    // Answers were collected sparsely during the BFS — sort instead of
    // sweeping all |V| nodes.
    scratch.answers.sort_unstable();
    stats.answers = scratch.answers.len();
    stats.classes_materialized = classes;
    let answers = std::mem::take(&mut scratch.answers);
    (EvalResult { answers, stats }, found, termination)
}

/// `product_search_with` with a fresh arena, the default hybrid mode, and
/// no execution controls — the form used by the one-shot entry points
/// below (pooled callers pass their own warm scratch).
pub(crate) fn product_search<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    source: Oid,
    reverse_adj: bool,
    stop_at: Option<Oid>,
    depth_cap: Option<usize>,
) -> (EvalResult, bool) {
    let mut scratch = EvalScratch::new();
    let (res, found, _) = product_search_with(
        nfa,
        graph,
        source,
        reverse_adj,
        stop_at,
        depth_cap,
        FrontierMode::Hybrid,
        &EvalControl::UNLIMITED,
        &mut scratch,
    );
    (res, found)
}

/// Evaluate `L(nfa)` from `source` over a label-indexed snapshot by
/// frontier-based product BFS. `stats.edges_scanned` counts only the edges
/// actually delivered by the label index — on label-skewed graphs this is a
/// small fraction of what the scan-and-filter baseline touches.
///
/// Generic over any [`GraphView`]: the `_csr` suffix names the canonical
/// snapshot form, but the same search runs unchanged over a
/// `rpq_graph::DeltaGraph` overlay.
pub fn eval_product_csr<G: GraphView>(nfa: &Nfa, graph: &G, source: Oid) -> EvalResult {
    product_search(nfa, graph, source, false, None, None).0
}

/// [`eval_product_csr`] with an explicit [`FrontierMode`] and a
/// caller-provided [`EvalScratch`] — the pooled hot-path form: a warm
/// scratch whose capacity covers `|Q|·|V|` makes the whole evaluation
/// allocation-free (reported via `stats.scratch_reused`).
pub fn eval_product_csr_with<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    source: Oid,
    mode: FrontierMode,
    scratch: &mut EvalScratch,
) -> EvalResult {
    product_search_with(
        nfa,
        graph,
        source,
        false,
        None,
        None,
        mode,
        &EvalControl::UNLIMITED,
        scratch,
    )
    .0
}

/// [`eval_product_csr_with`] under serving-layer execution controls: an
/// `edges_scanned` budget and a cooperative cancellation flag
/// ([`EvalControl`]), plus an optional BFS depth cap. Returns the (sound,
/// possibly partial) answer set together with how the search ended — the
/// kernel behind controlled [`crate::EvalRequest`]s.
pub fn eval_product_controlled_csr_with<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    source: Oid,
    depth_cap: Option<usize>,
    mode: FrontierMode,
    control: &EvalControl,
    scratch: &mut EvalScratch,
) -> (EvalResult, Termination) {
    let (res, _, term) = product_search_with(
        nfa, graph, source, false, None, depth_cap, mode, control, scratch,
    );
    (res, term)
}

/// The backward (already-reversed automaton, reverse adjacency) form of
/// [`eval_product_controlled_csr_with`] — the controlled kernel for
/// target-bound requests.
pub fn eval_product_backward_controlled_reversed_csr_with<G: GraphView>(
    reversed: &Nfa,
    graph: &G,
    target: Oid,
    depth_cap: Option<usize>,
    mode: FrontierMode,
    control: &EvalControl,
    scratch: &mut EvalScratch,
) -> (EvalResult, Termination) {
    let (res, _, term) = product_search_with(
        reversed, graph, target, true, None, depth_cap, mode, control, scratch,
    );
    (res, term)
}

/// The target-bound evaluation `{o | target ∈ p(o, I)}`: all objects that
/// reach `target` by a path spelling a word of `L(nfa)`.
///
/// Runs the same frontier BFS as [`eval_product_csr`], but with the
/// *reversed* automaton ([`Nfa::reverse`]) over the *reverse* CSR adjacency
/// ([`CsrGraph::rev`]): a path `o →…→ target` spells `w ∈ L(p)` exactly
/// when the transposed path `target →…→ o` spells `reverse(w) ∈
/// L(reverse(p))`. Work is therefore proportional to edges matching the
/// query's *last* label groups first — on graphs where those are rare this
/// beats enumerating forward from every candidate source by orders of
/// magnitude (bench `t12_direction_choice`).
pub fn eval_product_backward_csr<G: GraphView>(nfa: &Nfa, graph: &G, target: Oid) -> EvalResult {
    eval_product_backward_reversed_csr(&nfa.reverse(), graph, target)
}

/// As [`eval_product_backward_csr`], but taking the *already-reversed*
/// automaton — for callers that cache [`Nfa::reverse`] across repeated
/// backward evaluations (e.g. the planner's compiled plans).
pub fn eval_product_backward_reversed_csr<G: GraphView>(
    reversed: &Nfa,
    graph: &G,
    target: Oid,
) -> EvalResult {
    product_search(reversed, graph, target, true, None, None).0
}

/// [`eval_product_backward_reversed_csr`] with an explicit mode and
/// caller-provided scratch (see [`eval_product_csr_with`]).
pub fn eval_product_backward_reversed_csr_with<G: GraphView>(
    reversed: &Nfa,
    graph: &G,
    target: Oid,
    mode: FrontierMode,
    scratch: &mut EvalScratch,
) -> EvalResult {
    product_search_with(
        reversed,
        graph,
        target,
        true,
        None,
        None,
        mode,
        &EvalControl::UNLIMITED,
        scratch,
    )
    .0
}

/// Evaluate `L(nfa)` from `source` over `instance`.
///
/// Compatibility wrapper: snapshots the instance into a [`CsrGraph`] and
/// runs [`eval_product_csr`]. Callers evaluating many queries over one
/// graph should build the snapshot once and use the CSR entry point (or the
/// `Engine` trait) directly.
pub fn eval_product(nfa: &Nfa, instance: &Instance, source: Oid) -> EvalResult {
    eval_product_csr(nfa, &CsrGraph::from(instance), source)
}

/// The original scan-and-filter product search, kept as the baseline the
/// label index is measured against: for every pair and every automaton
/// transition it scans the node's *entire* out-edge list and filters by
/// label, so `stats.edges_scanned` grows with `outdegree × fanout`.
pub fn eval_product_scan(nfa: &Nfa, instance: &Instance, source: Oid) -> EvalResult {
    fn push_scan(
        q: StateId,
        v: Oid,
        nv: usize,
        seen: &mut [bool],
        queue: &mut Vec<(StateId, Oid)>,
    ) {
        let idx = q as usize * nv + v.index();
        if !seen[idx] {
            seen[idx] = true;
            queue.push((q, v));
        }
    }

    let nq = nfa.num_states();
    let nv = instance.num_nodes();
    let mut seen = vec![false; nq * nv]; // alloc-ok: scan baseline, measured against — not a hot path
    let mut answer = vec![false; nv]; // alloc-ok: scan baseline
    let mut state_touched = vec![false; nq]; // alloc-ok: scan baseline
    let mut stats = EvalStats::default();

    let mut queue: Vec<(StateId, Oid)> = Vec::new(); // alloc-ok: scan baseline
    push_scan(nfa.start(), source, nv, &mut seen, &mut queue);
    while let Some((q, v)) = queue.pop() {
        stats.pairs_visited += 1;
        state_touched[q as usize] = true;
        if nfa.is_accepting(q) {
            answer[v.index()] = true;
        }
        for &q2 in nfa.eps_transitions(q) {
            push_scan(q2, v, nv, &mut seen, &mut queue);
        }
        for &(sym, q2) in nfa.transitions(q) {
            for &(label, v2) in instance.out_edges(v) {
                stats.edges_scanned += 1;
                if label == sym {
                    push_scan(q2, v2, nv, &mut seen, &mut queue);
                }
            }
        }
    }

    let classes = state_touched.iter().filter(|&&t| t).count();
    finish_eval(&answer, classes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::InstanceBuilder;

    fn eval(query: &str, edges: &[(&str, &str, &str)], src: &str) -> (Vec<String>, EvalStats) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for &(f, l, t) in edges {
            b.edge(f, l, t);
        }
        let (inst, names) = b.finish();
        let r = parse_regex(&mut ab, query).unwrap();
        let res = eval_product(&Nfa::thompson(&r), &inst, names[src]);
        let scan = eval_product_scan(&Nfa::thompson(&r), &inst, names[src]);
        assert_eq!(res.answers, scan.answers, "csr vs scan baseline on {query}");
        let mut out: Vec<String> = res.answers.iter().map(|&o| inst.node_name(o)).collect();
        out.sort();
        (out, res.stats)
    }

    #[test]
    fn fig2_query_ab_star() {
        let edges = [("o1", "a", "o2"), ("o2", "b", "o3"), ("o3", "b", "o2")];
        let (ans, stats) = eval("a.b*", &edges, "o1");
        assert_eq!(ans, vec!["o2", "o3"]);
        assert_eq!(stats.answers, 2);
    }

    #[test]
    fn epsilon_query_returns_source() {
        let edges = [("s", "a", "x")];
        let (ans, _) = eval("()", &edges, "s");
        assert_eq!(ans, vec!["s"]);
        let (ans, _) = eval("a*", &edges, "s");
        assert_eq!(ans, vec!["s", "x"]);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let edges = [("s", "a", "x")];
        let (ans, _) = eval("[]", &edges, "s");
        assert!(ans.is_empty());
    }

    #[test]
    fn union_and_concat() {
        let edges = [
            ("s", "a", "x"),
            ("s", "b", "y"),
            ("x", "c", "z"),
            ("y", "c", "w"),
        ];
        let (ans, _) = eval("(a+b).c", &edges, "s");
        assert_eq!(ans, vec!["w", "z"]);
    }

    #[test]
    fn cycles_terminate() {
        let edges = [("s", "a", "s")];
        let (ans, stats) = eval("a*", &edges, "s");
        assert_eq!(ans, vec!["s"]);
        // pair space is finite even though the language is infinite
        assert!(stats.pairs_visited < 20);
    }

    #[test]
    fn unreachable_labels_are_ignored() {
        let edges = [("s", "a", "x"), ("q", "b", "r")];
        let (ans, _) = eval("a.b", &edges, "s");
        assert!(ans.is_empty());
        let (ans, _) = eval("a", &edges, "s");
        assert_eq!(ans, vec!["x"]);
    }

    #[test]
    fn diamond_dedups_answers() {
        let edges = [
            ("s", "a", "x"),
            ("s", "a", "y"),
            ("x", "b", "t"),
            ("y", "b", "t"),
        ];
        let (ans, _) = eval("a.b", &edges, "s");
        assert_eq!(ans, vec!["t"]);
    }

    #[test]
    fn nested_stars() {
        let edges = [("s", "a", "x"), ("x", "b", "s"), ("x", "c", "t")];
        let (ans, _) = eval("(a.b)*.a.c", &edges, "s");
        assert_eq!(ans, vec!["t"]);
        let (ans, _) = eval("(a.b)*", &edges, "s");
        assert_eq!(ans, vec!["s"]);
    }

    #[test]
    fn bfs_levels_are_word_lengths() {
        // a chain: the pair (state, n_k) is first reached at level k, so
        // pairs_visited equals the number of distinct reachable pairs and
        // every node is answered despite the single pass per level.
        let edges = [
            ("n0", "a", "n1"),
            ("n1", "a", "n2"),
            ("n2", "a", "n3"),
            ("n3", "a", "n4"),
        ];
        let (ans, _) = eval("a*", &edges, "n0");
        assert_eq!(ans, vec!["n0", "n1", "n2", "n3", "n4"]);
    }

    #[test]
    fn backward_is_the_transpose_of_forward() {
        // t ∈ p(s, I)  ⟺  s ∈ backward(t): check the full relation on a
        // graph with cycles, a diamond, and an ε-accepting query.
        let edges = [
            ("o1", "a", "o2"),
            ("o2", "b", "o3"),
            ("o3", "b", "o2"),
            ("o1", "b", "o3"),
            ("o3", "a", "o1"),
        ];
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for &(f, l, t) in &edges {
            b.edge(f, l, t);
        }
        let (inst, _) = b.finish();
        let csr = CsrGraph::from(&inst);
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]", "(a.b)*.a"] {
            let r = parse_regex(&mut ab, qs).unwrap();
            let nfa = Nfa::thompson(&r);
            let forward: Vec<Vec<Oid>> = csr
                .nodes()
                .map(|s| eval_product_csr(&nfa, &csr, s).answers)
                .collect();
            for t in csr.nodes() {
                let backward = eval_product_backward_csr(&nfa, &csr, t).answers;
                for s in csr.nodes() {
                    assert_eq!(
                        forward[s.index()].contains(&t),
                        backward.contains(&s),
                        "{qs}: {s:?} -> {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_scans_fewer_edges_when_last_label_is_rare() {
        // hub fans out 50 hot edges; exactly one cold edge enters t. The
        // query hot.cold evaluated backward from t starts on the rare label.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..50 {
            b.edge("hub", "hot", &format!("h{i}"));
        }
        b.edge("h0", "cold", "t");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let q = parse_regex(&mut ab, "hot.cold").unwrap();
        let nfa = Nfa::thompson(&q);
        let fwd = eval_product_csr(&nfa, &csr, names["hub"]);
        let bwd = eval_product_backward_csr(&nfa, &csr, names["t"]);
        assert_eq!(fwd.answers, vec![names["t"]]);
        assert_eq!(bwd.answers, vec![names["hub"]]);
        assert!(
            bwd.stats.edges_scanned * 10 < fwd.stats.edges_scanned,
            "backward {} vs forward {}",
            bwd.stats.edges_scanned,
            fwd.stats.edges_scanned
        );
    }

    #[test]
    fn bounded_search_is_exact_at_the_word_length_cap() {
        // cyclic graph, finite query a.a + a.b (longest word: 2). The cap
        // stops the BFS at depth 2 without losing answers, and scans
        // strictly fewer edges than the uncapped search on the cycle.
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("x", "a", "s");
        b.edge("x", "b", "t");
        b.edge("t", "a", "s");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let r = parse_regex(&mut ab, "a.a + a.b").unwrap();
        let nfa = Nfa::thompson(&r);
        assert_eq!(nfa.longest_accepted_len(), Some(2));
        let mut scratch = EvalScratch::new();
        let mut capped = |nfa: &Nfa, root: &str, cap: usize, backward: bool| {
            let run = if backward {
                eval_product_backward_controlled_reversed_csr_with
            } else {
                eval_product_controlled_csr_with
            };
            let (res, term) = run(
                nfa,
                &csr,
                names[root],
                Some(cap),
                FrontierMode::Hybrid,
                &EvalControl::UNLIMITED,
                &mut scratch,
            );
            assert_eq!(term, Termination::Complete);
            res
        };
        let full = eval_product_csr(&nfa, &csr, names["s"]);
        assert_eq!(capped(&nfa, "s", 2, false).answers, full.answers);
        // a cap below the longest word is allowed but incomplete — the
        // planner never does this; documented here as the contract edge
        let short = capped(&nfa, "s", 1, false);
        assert!(short.answers.len() <= full.answers.len());
        // backward form agrees with the uncapped backward search
        let rev = nfa.reverse();
        let bwd_full = eval_product_backward_reversed_csr(&rev, &csr, names["t"]);
        assert_eq!(capped(&rev, "t", 2, true).answers, bwd_full.answers);
    }

    #[test]
    fn label_index_scans_fewer_edges_on_skew() {
        // one hub with many hot-label edges; the query follows the cold label
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..50 {
            b.edge("hub", "hot", &format!("h{i}"));
        }
        b.edge("hub", "cold", "t");
        let (inst, names) = b.finish();
        let q = parse_regex(&mut ab, "cold").unwrap();
        let nfa = Nfa::thompson(&q);
        let csr = eval_product_csr(&nfa, &CsrGraph::from(&inst), names["hub"]);
        let scan = eval_product_scan(&nfa, &inst, names["hub"]);
        assert_eq!(csr.answers, scan.answers);
        assert!(
            csr.stats.edges_scanned * 10 < scan.stats.edges_scanned,
            "label index {} vs scan {}",
            csr.stats.edges_scanned,
            scan.stats.edges_scanned
        );
    }
}
