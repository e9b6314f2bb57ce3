//! Parallel-evaluation agreement: intra-query parallelism is an
//! *optimization*, never a semantics change. The frontier-parallel product
//! BFS, the wave-parallel batch kernels, and CRPQs served by an engine
//! configured for parallelism must return exactly the sequential answers —
//! across every
//! frontier mode, forward and backward, on the immutable `CsrGraph`
//! snapshot and on a post-delta `DeltaGraph` epoch, at every degree of
//! parallelism. Budget and cancellation under parallelism must yield sound
//! *subsets* with `edges_scanned <= budget`, and the sorted outputs must
//! be bit-for-bit deterministic across repeated parallel runs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;

use rpq::automata::random::{random_regex, RegexGenConfig};
use rpq::automata::{Alphabet, Regex, Symbol};
use rpq::core::{
    eval_product_backward_parallel_reversed_csr_with, eval_product_backward_reversed_csr_with,
    eval_product_batch_csr_with, eval_product_batch_parallel_csr_with, eval_product_csr_with,
    eval_product_parallel_csr_with, eval_product_to_batch_csr_with,
    eval_product_to_batch_parallel_csr_with, EvalControl, EvalRequest, EvalScratch, FrontierMode,
    ProductEngine, Query, ScratchPool, Termination,
};
use rpq::graph::generators::random_graph;
use rpq::graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};
use rpq::optimizer::{execute_join, plan_join, HeadBindings, PlannedEngine, PlannerConfig};

const MODES: [FrontierMode; 4] = [
    FrontierMode::ForcedSparse,
    FrontierMode::ForcedDense,
    FrontierMode::Hybrid,
    FrontierMode::HybridTuned { pull_discount: 64 },
];

/// Degrees of parallelism to exercise: the sequential delegate, one extra
/// worker, and a small pool.
const DOPS: [usize; 3] = [1, 2, 4];

fn random_setup(seed: u64, nodes: usize, edges: usize) -> (Alphabet, Instance, Oid, Regex) {
    let ab = Alphabet::from_names(["a", "b", "c"]);
    let syms: Vec<Symbol> = ab.symbols().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (inst, src) = random_graph(&mut rng, nodes, edges, &syms);
    let cfg = RegexGenConfig::new(syms);
    let q = random_regex(&mut rng, &cfg);
    (ab, inst, src, q)
}

/// A post-delta epoch over `inst`: a couple of extra edges keyed off
/// `seed`, so the parallel kernels are also exercised through the overlay
/// adjacency (`DeltaGraph`), not just the flat CSR.
fn post_delta(inst: &Instance, ab: &Alphabet, seed: u64) -> DeltaGraph {
    let mut dg = DeltaGraph::from_instance(inst);
    let nodes: Vec<Oid> = CsrGraph::from(inst).nodes().collect();
    let syms: Vec<Symbol> = ab.symbols().collect();
    dg.add_edge(nodes[seed as usize % nodes.len()], syms[0], nodes[0]);
    dg.add_edge(
        nodes[0],
        syms[seed as usize % syms.len()],
        nodes[nodes.len() - 1],
    );
    dg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The frontier-parallel single-source kernel answers exactly like the
    /// sequential kernel — every mode, every DoP, forward and backward, on
    /// the CSR snapshot and a post-delta epoch.
    #[test]
    fn parallel_product_search_agrees_with_sequential(seed in 0u64..10_000) {
        let (ab, inst, src, q) = random_setup(seed, 40, 160);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let rev = nfa.reverse();
        let csr = CsrGraph::from(&inst);
        let dg = post_delta(&inst, &ab, seed);
        let pool = ScratchPool::with_capacity(8);

        fn check<G: GraphView + Sync>(
            nfa: &rpq::automata::Nfa,
            rev: &rpq::automata::Nfa,
            graph: &G,
            src: Oid,
            pool: &ScratchPool,
        ) -> Result<(), TestCaseError> {
            for mode in MODES {
                let mut seq = EvalScratch::new();
                let fwd = eval_product_csr_with(nfa, graph, src, mode, &mut seq);
                let bwd = eval_product_backward_reversed_csr_with(rev, graph, src, mode, &mut seq);
                for dop in DOPS {
                    let mut scratch = EvalScratch::new();
                    let (res, term) = eval_product_parallel_csr_with(
                        nfa, graph, src, None, mode, &EvalControl::UNLIMITED,
                        dop, pool, &mut scratch,
                    );
                    prop_assert_eq!(&res.answers, &fwd.answers, "fwd {:?} dop={}", mode, dop);
                    prop_assert_eq!(term, Termination::Complete);
                    let (res, term) = eval_product_backward_parallel_reversed_csr_with(
                        rev, graph, src, None, mode, &EvalControl::UNLIMITED,
                        dop, pool, &mut scratch,
                    );
                    prop_assert_eq!(&res.answers, &bwd.answers, "bwd {:?} dop={}", mode, dop);
                    prop_assert_eq!(term, Termination::Complete);
                }
            }
            Ok(())
        }
        check(nfa, &rev, &csr, src, &pool)?;
        check(nfa, &rev, &dg, src, &pool)?;
    }

    /// The wave-parallel batch kernels reassemble their per-wave results
    /// into exactly the sequential output — batch forward and batch
    /// backward, at every DoP, on the CSR snapshot and a post-delta epoch.
    /// More than 64 sources forces multiple waves, so the fan-out genuinely
    /// splits.
    #[test]
    fn parallel_wave_kernels_agree_with_sequential(seed in 0u64..10_000) {
        let (ab, inst, _, q) = random_setup(seed, 150, 600);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let rev = nfa.reverse();
        let csr = CsrGraph::from(&inst);
        let dg = post_delta(&inst, &ab, seed);
        let pool = ScratchPool::with_capacity(8);

        fn check<G: GraphView + Sync>(
            nfa: &rpq::automata::Nfa,
            rev: &rpq::automata::Nfa,
            graph: &G,
            pool: &ScratchPool,
        ) -> Result<(), TestCaseError> {
            let sources: Vec<Oid> = (0..graph.num_nodes() as u32).map(Oid).collect();
            let targets: Vec<Oid> = (0..graph.num_nodes() as u32).step_by(7).map(Oid).collect();
            let mut seq = EvalScratch::new();
            let batch = eval_product_batch_csr_with(nfa, graph, &sources, &mut seq);
            let to_batch = eval_product_to_batch_csr_with(rev, graph, &targets, &mut seq);
            for dop in DOPS {
                let mut scratch = EvalScratch::new();
                let b = eval_product_batch_parallel_csr_with(
                    nfa, graph, &sources, dop, pool, &mut scratch,
                );
                prop_assert_eq!(b.per_source(), batch.per_source(), "batch dop={}", dop);
                let t = eval_product_to_batch_parallel_csr_with(
                    rev, graph, &targets, dop, pool, &mut scratch,
                );
                prop_assert_eq!(t.per_source(), to_batch.per_source(), "to-batch dop={}", dop);
            }
            Ok(())
        }
        check(nfa, &rev, &csr, &pool)?;
        check(nfa, &rev, &dg, &pool)?;
    }

    /// A CRPQ served by an engine configured for intra-query parallelism
    /// returns exactly the sequential executor's bindings — free heads and
    /// restricted heads.
    #[test]
    fn parallel_engine_crpq_agrees_with_sequential_executor(seed in 0u64..10_000) {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let syms: Vec<Symbol> = ab.symbols().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, _) = random_graph(&mut rng, 30, 90, &syms);
        let cfg = RegexGenConfig::new(syms);
        let atoms = 2 + (seed as usize % 2);
        let crpq_atoms: Vec<rpq::optimizer::CrpqAtom> = (0..atoms)
            .map(|i| rpq::optimizer::CrpqAtom {
                query: Query::new(random_regex(&mut rng, &cfg), &ab),
                src: rpq::optimizer::Var(i as u32),
                dst: rpq::optimizer::Var(i as u32 + 1),
            })
            .collect();
        let crpq = rpq::optimizer::Crpq {
            atoms: crpq_atoms,
            head: (rpq::optimizer::Var(0), rpq::optimizer::Var(atoms as u32)),
            var_names: (0..=atoms).map(|i| format!("x{i}")).collect(),
        };
        let graph = CsrGraph::from(&inst);
        let engine = PlannedEngine::unconstrained(ProductEngine, ab.clone()).with_config(
            PlannerConfig { parallelism: 4, ..PlannerConfig::default() },
        );
        let sources: Vec<Oid> = graph.nodes().step_by(3).collect();
        for head_sources in [None, Some(&sources[..])] {
            let heads = HeadBindings { sources: head_sources, targets: None };
            let order = plan_join(
                &crpq, graph.stats(), &PlannerConfig::default(), head_sources.is_some(), false,
            ).order;
            let mut seq = EvalScratch::new();
            let expected = execute_join(
                &crpq, &order, &graph, heads, FrontierMode::Hybrid,
                &EvalControl::UNLIMITED, &mut seq,
            );
            prop_assert!(expected.termination.is_complete());
            let req = EvalRequest::conjunctive(head_sources.map(<[Oid]>::to_vec), None);
            let res = engine.run_crpq(&crpq, &graph, &req);
            prop_assert_eq!(res.bindings().unwrap(), &expected.pairs[..]);
            prop_assert!(res.termination.is_complete());
            prop_assert_eq!(res.stats.atoms.len(), crpq.atoms.len());
        }
    }

    /// Budget soundness under parallelism: for every budget, the parallel
    /// kernel returns a subset of the exhaustive answers, never scans more
    /// than the budget, and a `Complete` termination means the subset is
    /// exact. The per-worker budget leases must never over-scan.
    #[test]
    fn parallel_budget_is_a_sound_subset(seed in 0u64..10_000) {
        let budget = (seed as usize).wrapping_mul(31) % 64;
        let (ab, inst, src, q) = random_setup(seed, 40, 160);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let graph = CsrGraph::from(&inst);
        let pool = ScratchPool::with_capacity(8);

        let mut seq = EvalScratch::new();
        let full = eval_product_csr_with(nfa, &graph, src, FrontierMode::Hybrid, &mut seq);
        let control = EvalControl { budget: Some(budget), cancel: None };
        for dop in DOPS {
            for mode in MODES {
                let mut scratch = EvalScratch::new();
                let (res, term) = eval_product_parallel_csr_with(
                    nfa, &graph, src, None, mode, &control, dop, &pool, &mut scratch,
                );
                prop_assert!(
                    res.stats.edges_scanned <= budget,
                    "scanned {} > budget {} ({:?} dop={})",
                    res.stats.edges_scanned, budget, mode, dop
                );
                for o in &res.answers {
                    prop_assert!(
                        full.answers.binary_search(o).is_ok(),
                        "unsound answer {:?} under budget ({:?} dop={})", o, mode, dop
                    );
                }
                if term == Termination::Complete {
                    prop_assert_eq!(&res.answers, &full.answers, "{:?} dop={}", mode, dop);
                } else {
                    prop_assert_eq!(term, Termination::BudgetExhausted);
                }
            }
        }
    }

    /// A cancellation raised before the search starts stops the parallel
    /// kernel at a level boundary with a sound (possibly empty) subset.
    #[test]
    fn parallel_cancel_is_a_sound_subset(seed in 0u64..10_000) {
        let (ab, inst, src, q) = random_setup(seed, 40, 160);
        let query = Query::new(q, &ab);
        let nfa = query.nfa();
        let graph = CsrGraph::from(&inst);
        let pool = ScratchPool::with_capacity(8);
        let mut seq = EvalScratch::new();
        let full = eval_product_csr_with(nfa, &graph, src, FrontierMode::Hybrid, &mut seq);
        let flag = AtomicBool::new(true);
        let control = EvalControl { budget: None, cancel: Some(&flag) };
        for dop in DOPS {
            let mut scratch = EvalScratch::new();
            let (res, term) = eval_product_parallel_csr_with(
                nfa, &graph, src, None, FrontierMode::Hybrid, &control, dop, &pool, &mut scratch,
            );
            for o in &res.answers {
                prop_assert!(full.answers.binary_search(o).is_ok(), "unsound after cancel");
            }
            // a search that finishes before its first level boundary may
            // complete; anything longer must observe the flag
            match term {
                Termination::Cancelled => {}
                Termination::Complete => prop_assert_eq!(&res.answers, &full.answers),
                other => prop_assert!(false, "unexpected termination {:?} at dop={}", other, dop),
            }
        }
    }
}

/// Sorted parallel outputs are deterministic: repeated runs at the same
/// DoP return bit-for-bit identical answers *and* identical work counters
/// (set-identical levels price identically, so `edges_scanned` is stable
/// without any budget in play).
#[test]
fn parallel_outputs_are_deterministic_across_runs() {
    let (ab, inst, src, q) = random_setup(42, 150, 600);
    let query = Query::new(q, &ab);
    let nfa = query.nfa();
    let graph = CsrGraph::from(&inst);
    let pool = ScratchPool::with_capacity(8);
    let sources: Vec<Oid> = graph.nodes().collect();

    let mut scratch = EvalScratch::new();
    let (first, _) = eval_product_parallel_csr_with(
        nfa,
        &graph,
        src,
        None,
        FrontierMode::Hybrid,
        &EvalControl::UNLIMITED,
        4,
        &pool,
        &mut scratch,
    );
    let first_batch =
        eval_product_batch_parallel_csr_with(nfa, &graph, &sources, 4, &pool, &mut scratch);
    for run in 0..5 {
        let mut scratch = EvalScratch::new();
        let (res, term) = eval_product_parallel_csr_with(
            nfa,
            &graph,
            src,
            None,
            FrontierMode::Hybrid,
            &EvalControl::UNLIMITED,
            4,
            &pool,
            &mut scratch,
        );
        assert_eq!(res.answers, first.answers, "answers drifted on run {run}");
        assert_eq!(
            res.stats.edges_scanned, first.stats.edges_scanned,
            "work counter drifted on run {run}"
        );
        assert_eq!(term, Termination::Complete);
        let batch =
            eval_product_batch_parallel_csr_with(nfa, &graph, &sources, 4, &pool, &mut scratch);
        assert_eq!(
            batch.per_source(),
            first_batch.per_source(),
            "batch output drifted on run {run}"
        );
    }
}
