//! Set-valued pair answers: `{(s, t) | t ∈ p(s, I)}` restricted to bound
//! source/target sets — the per-atom machinery conjunctive queries (CRPQs)
//! are joined from.
//!
//! [`crate::pair`] answers the *boolean* pair question for one (source,
//! target). A conjunctive atom `x -[p]-> y` instead needs the *set* of
//! bindings its regex induces between candidate `x` values and candidate
//! `y` values. [`PairSetResult`] carries that binding set, and the
//! kernels here produce it three ways — mirroring the pair module's
//! forward / backward / both-bound strategies:
//!
//! * [`eval_pairs_from_sources_controlled_csr_with`] — **forward**: one
//!   product BFS per source; every answer `v` of source `s` is a binding
//!   `(s, v)`. Use when the atom's source variable is bound and the
//!   target variable is free.
//! * [`eval_pairs_to_targets_controlled_csr_with`] — **backward**: the
//!   same loop over the *reversed* automaton and reverse adjacency, one
//!   search per target; answers yield bindings `(v, target)`. Use when
//!   only the target variable is bound.
//! * [`eval_pairs_bound_controlled_csr_with`] — **both bound** (the
//!   semijoin form): the forward loop with each source's answers filtered
//!   to the bound target set.
//!
//! When *neither* variable is bound, [`seed_candidates`] prunes the seed
//! set to nodes that can take at least one step of the query (or every
//! node, when the query accepts ε) before the forward kernel runs.
//!
//! Every kernel threads the serving layer's [`EvalControl`] through every
//! seed: one shared `edges_scanned` budget, per-level cancellation, and
//! the uniform soundness contract — bindings collected before an early
//! termination are true bindings, seeds not reached before exhaustion
//! simply contribute none ([`PairSetResult::termination`] says which case
//! occurred). [`EvalControl::UNLIMITED`] runs them to completion. All
//! working memory comes from the caller's [`EvalScratch`], so warm serving
//! queries stay allocation-free apart from the result vector.
//!
//! [`eval_pairs_from_sources_csr_with`] is the one bit-parallel lane form
//! kept: the reference the naive CRPQ join oracle
//! (`rpq_optimizer::execute_naive`) is built on.

use rpq_automata::{Nfa, Symbol};
use rpq_graph::{GraphView, Oid};

use crate::batch::{batch_wave_kernel_sink, lane_mask};
use crate::product::{
    eval_product_backward_controlled_reversed_csr_with, eval_product_controlled_csr_with,
    FrontierMode,
};
use crate::request::{EvalControl, Termination};
use crate::scratch::EvalScratch;
use crate::stats::EvalStats;

/// Result of a set-valued pair evaluation: the (source, target) bindings a
/// path query induces between the requested endpoint sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairSetResult {
    /// The bindings, sorted lexicographically and deduplicated.
    pub pairs: Vec<(Oid, Oid)>,
    /// Work counters (`answers` counts bindings).
    pub stats: EvalStats,
    /// Exact ([`Termination::Complete`]) or sound-subset termination.
    pub termination: Termination,
}

impl PairSetResult {
    /// An empty binding set with the given counters.
    pub fn empty(stats: EvalStats, termination: Termination) -> PairSetResult {
        PairSetResult {
            pairs: Vec::new(), // alloc-ok: result value
            stats,
            termination,
        }
    }

    /// The distinct left-hand (source) endpoints, sorted.
    pub fn distinct_sources(&self) -> Vec<Oid> {
        let mut out: Vec<Oid> = self.pairs.iter().map(|&(s, _)| s).collect(); // alloc-ok: result value
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The distinct right-hand (target) endpoints, sorted.
    pub fn distinct_targets(&self) -> Vec<Oid> {
        let mut out: Vec<Oid> = self.pairs.iter().map(|&(_, t)| t).collect(); // alloc-ok: result value
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Finalize a binding list: lexicographic order, dedup (duplicate seeds
/// each get a lane, so their bindings repeat), answer count.
fn finish_pairs(
    mut pairs: Vec<(Oid, Oid)>,
    mut stats: EvalStats,
    termination: Termination,
) -> PairSetResult {
    pairs.sort_unstable();
    pairs.dedup();
    stats.answers = pairs.len();
    PairSetResult {
        pairs,
        stats,
        termination,
    }
}

/// Forward set-valued pair evaluation: all bindings `(s, t)` with
/// `s ∈ sources` and `t ∈ p(s, I)`, by the bit-parallel lane kernel (one
/// CSR row pass advances every pending source in the wave).
pub fn eval_pairs_from_sources_csr_with<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    sources: &[Oid],
    scratch: &mut EvalScratch,
) -> PairSetResult {
    let mut pairs: Vec<(Oid, Oid)> = Vec::new(); // alloc-ok: result value
    let stats = batch_wave_kernel_sink(
        nfa,
        graph,
        sources,
        false,
        scratch,
        &mut |masks, wave_start, wave_len| {
            // Every accepting lane bit at node `v` binds `(seed, v)`.
            let live = lane_mask(wave_len);
            for (v, &mask) in masks.iter().enumerate() {
                let mut m = mask & live;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    pairs.push((sources[wave_start + lane], Oid(v as u32)));
                }
            }
        },
    );
    finish_pairs(pairs, stats, Termination::Complete)
}

/// Forward set-valued pair evaluation under serving-layer execution
/// controls: all bindings `(s, t)` with `s ∈ sources` and `t ∈ p(s, I)`,
/// one product BFS per source. One `edges_scanned` budget is shared across
/// every seed (each
/// seed's search gets whatever the budget has left), cancellation checked
/// per BFS level. Stops at the first non-complete termination; seeds not
/// yet explored contribute no bindings — still a sound subset.
pub fn eval_pairs_from_sources_controlled_csr_with<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    sources: &[Oid],
    mode: FrontierMode,
    control: &EvalControl,
    scratch: &mut EvalScratch,
) -> PairSetResult {
    controlled_seed_loop(graph, sources, control, scratch, &mut |g, s, c, scr| {
        eval_product_controlled_csr_with(nfa, g, s, None, mode, c, scr)
    })
}

/// Backward set-valued pair evaluation: all bindings `(s, t)` with
/// `t ∈ targets` and `t ∈ p(s, I)`, one search per target over the
/// *already-reversed* automaton ([`Nfa::reverse`]) and reverse adjacency
/// (see
/// [`eval_pairs_from_sources_controlled_csr_with`] for the budget
/// contract).
pub fn eval_pairs_to_targets_controlled_csr_with<G: GraphView>(
    reversed: &Nfa,
    graph: &G,
    targets: &[Oid],
    mode: FrontierMode,
    control: &EvalControl,
    scratch: &mut EvalScratch,
) -> PairSetResult {
    let res = controlled_seed_loop(graph, targets, control, scratch, &mut |g, t, c, scr| {
        eval_product_backward_controlled_reversed_csr_with(reversed, g, t, None, mode, c, scr)
    });
    // The seed loop emits (seed, answer); backward bindings are (answer,
    // seed), so flip before finalizing.
    let flipped: Vec<(Oid, Oid)> = res.pairs.iter().map(|&(t, s)| (s, t)).collect(); // alloc-ok: result value
    finish_pairs(flipped, res.stats, res.termination)
}

/// Both-bound set-valued pair evaluation (the semijoin form): bindings
/// `(s, t)` with `s ∈ sources`, `t ∈ targets`, `t ∈ p(s, I)` — the
/// per-seed controlled loop with each seed's answers filtered to the bound
/// target set.
pub fn eval_pairs_bound_controlled_csr_with<G: GraphView>(
    nfa: &Nfa,
    graph: &G,
    sources: &[Oid],
    targets: &[Oid],
    mode: FrontierMode,
    control: &EvalControl,
    scratch: &mut EvalScratch,
) -> PairSetResult {
    let mut bound: Vec<Oid> = targets.to_vec(); // alloc-ok: sorted probe copy, result-sized
    bound.sort_unstable();
    bound.dedup();
    let res = controlled_seed_loop(graph, sources, control, scratch, &mut |g, s, c, scr| {
        eval_product_controlled_csr_with(nfa, g, s, None, mode, c, scr)
    });
    let filtered: Vec<(Oid, Oid)> = res
        .pairs
        .iter()
        .copied()
        .filter(|(_, t)| bound.binary_search(t).is_ok())
        .collect(); // alloc-ok: result value
    finish_pairs(filtered, res.stats, res.termination)
}

/// A controlled single-seed kernel: `(graph, seed, remaining control,
/// scratch) → (per-seed result, termination)`.
type SeedKernel<'k, G> = dyn FnMut(&G, Oid, &EvalControl, &mut EvalScratch) -> (crate::product::EvalResult, Termination)
    + 'k;

/// The shared controlled loop: run `kernel` once per seed with whatever
/// the request budget has left, merging stats and collecting `(seed,
/// answer)` bindings. Stops at the first non-complete termination.
fn controlled_seed_loop<G: GraphView>(
    graph: &G,
    seeds: &[Oid],
    control: &EvalControl,
    scratch: &mut EvalScratch,
    kernel: &mut SeedKernel<'_, G>,
) -> PairSetResult {
    let mut pairs: Vec<(Oid, Oid)> = Vec::new(); // alloc-ok: result value
    let mut stats = EvalStats::default();
    let mut term = Termination::Complete;
    for &seed in seeds {
        let per_seed = EvalControl {
            budget: control
                .budget
                .map(|b| b.saturating_sub(stats.edges_scanned)),
            cancel: control.cancel,
        };
        let (r, t) = kernel(graph, seed, &per_seed, scratch);
        stats.merge(&r.stats);
        for &a in &r.answers {
            pairs.push((seed, a));
        }
        if !t.is_complete() {
            term = t;
            break;
        }
    }
    finish_pairs(pairs, stats, term)
}

/// Candidate seeds for an atom whose source variable is unbound: if the
/// query accepts ε every node is a candidate (it at least binds `(v, v)`);
/// otherwise only nodes with at least one out-edge labeled by a symbol
/// leaving the start state's ε-closure can bind anything, and the rest are
/// pruned before the forward kernel runs.
pub fn seed_candidates<G: GraphView>(nfa: &Nfa, graph: &G, scratch: &mut EvalScratch) -> Vec<Oid> {
    // ε-closure of the start state, via the scratch worklist (no
    // allocation on warm scratches).
    let nq = nfa.num_states();
    scratch.begin(nq.max(1), 0);
    let gen = scratch.generation();
    scratch.worklist.clear();
    let start = nfa.start();
    scratch.state_marks[start as usize] = gen;
    scratch.worklist.push((start, 0));
    let mut accepts_epsilon = nfa.is_accepting(start);
    let mut first_syms: Vec<Symbol> = Vec::new(); // alloc-ok: tiny per-query symbol set
    let mut i = 0;
    while i < scratch.worklist.len() {
        let (q, _) = scratch.worklist[i];
        i += 1;
        for &(sym, _) in nfa.transitions(q) {
            first_syms.push(sym);
        }
        for &q2 in nfa.eps_transitions(q) {
            if scratch.state_marks[q2 as usize] != gen {
                scratch.state_marks[q2 as usize] = gen;
                accepts_epsilon |= nfa.is_accepting(q2);
                scratch.worklist.push((q2, 0));
            }
        }
    }
    first_syms.sort_unstable();
    first_syms.dedup();

    let mut out: Vec<Oid> = Vec::new(); // alloc-ok: result value
    for v in (0..graph.num_nodes() as u32).map(Oid) {
        if accepts_epsilon {
            out.push(v);
            continue;
        }
        let mut si = 0usize;
        'node: for (sym, edges) in graph.out_groups(v) {
            while si < first_syms.len() && first_syms[si] < sym {
                si += 1;
            }
            if si == first_syms.len() {
                break;
            }
            if first_syms[si] == sym && !edges.is_empty() {
                out.push(v);
                break 'node;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Query;
    use crate::product::eval_product_csr;
    use rpq_automata::Alphabet;
    use rpq_graph::{CsrGraph, InstanceBuilder};
    use std::sync::atomic::AtomicBool;

    fn fig2ish() -> (Alphabet, CsrGraph) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("o1", "a", "o2");
        b.edge("o2", "b", "o3");
        b.edge("o3", "b", "o2");
        b.edge("o1", "b", "o3");
        b.edge("o3", "a", "o1");
        let (inst, _) = b.finish();
        (ab, CsrGraph::from(&inst))
    }

    fn oracle_pairs(q: &Query, csr: &CsrGraph, sources: &[Oid]) -> Vec<(Oid, Oid)> {
        let mut out: Vec<(Oid, Oid)> = sources
            .iter()
            .flat_map(|&s| {
                eval_product_csr(q.nfa(), csr, s)
                    .answers
                    .into_iter()
                    .map(move |t| (s, t))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn forward_pairs_match_per_source_oracle() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            let res = eval_pairs_from_sources_csr_with(q.nfa(), &csr, &all, &mut scratch);
            assert_eq!(res.pairs, oracle_pairs(&q, &csr, &all), "{qs}");
            assert_eq!(res.stats.answers, res.pairs.len());
            assert_eq!(res.termination, Termination::Complete);
        }
    }

    #[test]
    fn backward_pairs_match_forward_pairs() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        for qs in ["a.b*", "(a+b)*", "b.b", "()"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            let fwd = eval_pairs_from_sources_csr_with(q.nfa(), &csr, &all, &mut scratch);
            let rev = q.nfa().reverse();
            let bwd = eval_pairs_to_targets_controlled_csr_with(
                &rev,
                &csr,
                &all,
                FrontierMode::Hybrid,
                &EvalControl::UNLIMITED,
                &mut scratch,
            );
            assert_eq!(fwd.pairs, bwd.pairs, "{qs}");
        }
    }

    #[test]
    fn bound_pairs_are_the_restricted_relation() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let sources = vec![all[0], all[2]];
        let targets = vec![all[1]];
        let res = eval_pairs_bound_controlled_csr_with(
            q.nfa(),
            &csr,
            &sources,
            &targets,
            FrontierMode::Hybrid,
            &EvalControl::UNLIMITED,
            &mut scratch,
        );
        let expect: Vec<(Oid, Oid)> = oracle_pairs(&q, &csr, &sources)
            .into_iter()
            .filter(|(_, t)| targets.contains(t))
            .collect();
        assert_eq!(res.pairs, expect);
    }

    #[test]
    fn controlled_pairs_are_a_sound_subset_within_budget() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let full = oracle_pairs(&q, &csr, &all);
        for budget in 0..12 {
            let control = EvalControl {
                budget: Some(budget),
                cancel: None,
            };
            let res = eval_pairs_from_sources_controlled_csr_with(
                q.nfa(),
                &csr,
                &all,
                FrontierMode::Hybrid,
                &control,
                &mut scratch,
            );
            assert!(res.stats.edges_scanned <= budget, "budget {budget}");
            for p in &res.pairs {
                assert!(full.contains(p), "unsound binding {p:?}");
            }
            if res.termination.is_complete() {
                assert_eq!(res.pairs, full);
            }
        }
    }

    #[test]
    fn pre_set_cancel_yields_sound_subset() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let flag = AtomicBool::new(true);
        let control = EvalControl {
            budget: None,
            cancel: Some(&flag),
        };
        let res = eval_pairs_from_sources_controlled_csr_with(
            q.nfa(),
            &csr,
            &all,
            FrontierMode::Hybrid,
            &control,
            &mut scratch,
        );
        assert_eq!(res.termination, Termination::Cancelled);
        let full = oracle_pairs(&q, &csr, &all);
        for p in &res.pairs {
            assert!(full.contains(p));
        }
    }

    #[test]
    fn seed_candidates_prune_dead_sources() {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        b.edge("s", "a", "x");
        b.edge("x", "b", "t");
        b.edge("dead", "c", "s");
        let (inst, names) = b.finish();
        let csr = CsrGraph::from(&inst);
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "a.b").unwrap();
        let seeds = seed_candidates(q.nfa(), &csr, &mut scratch);
        assert_eq!(seeds, vec![names["s"]], "only s has an out-edge on 'a'");
        // ε-accepting query: every node is a candidate
        let q = Query::parse(&mut ab, "a*").unwrap();
        let seeds = seed_candidates(q.nfa(), &csr, &mut scratch);
        assert_eq!(seeds.len(), csr.num_nodes());
    }

    #[test]
    fn duplicate_seeds_dedup_in_the_binding_set() {
        let (mut ab, csr) = fig2ish();
        let mut scratch = EvalScratch::new();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        let dup = vec![Oid(0), Oid(0), Oid(2)];
        let res = eval_pairs_from_sources_csr_with(q.nfa(), &csr, &dup, &mut scratch);
        let uniq = eval_pairs_from_sources_csr_with(q.nfa(), &csr, &[Oid(0), Oid(2)], &mut scratch);
        assert_eq!(res.pairs, uniq.pairs);
    }
}
