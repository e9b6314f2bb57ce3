//! The unified request/response calling convention — one entry point for
//! every evaluation shape.
//!
//! Historically each question had its own `Engine` method: `eval` (one
//! source), `eval_batch` (many sources), `eval_to` (one target),
//! `eval_to_batch` (many targets), plus the free-function pair scenario.
//! [`EvalRequest`] collapses them: a [`SourceSpec`] names the question, and
//! optional *execution controls* — a fetch budget on `edges_scanned`, a
//! cooperative cancellation flag, a [`FrontierMode`] and a direction hint —
//! ride along uniformly. [`Engine::run`] is the single engine entry point;
//! the legacy methods are thin wrappers over it, and `rpq-server` uses the
//! request form as its wire-level query type.
//!
//! ## One request path
//!
//! [`Dispatch::run`] is the only code that maps a request to kernels. It
//! takes the automaton, its reversal, an optional depth cap, a default
//! pair direction, a frontier mode, a degree of parallelism and a
//! [`ScratchPool`], and runs every arm under [`EvalRequest::control`]. A
//! request without a budget or cancellation flag gets
//! [`EvalControl::UNLIMITED`] — a control that never binds, not a second
//! code path — so its answers and `edges_scanned` are exactly those of
//! the same request with a cancel flag that is never raised. Two callers
//! exist: `rpq_optimizer::PlannedEngine::run_view` (the plan's automata,
//! depth cap and direction, and a leased degree of parallelism) and
//! [`run_default`], which sends requests with controls
//! ([`EvalRequest::is_controlled`]) and every conjunctive request there
//! with no depth cap, one worker, and forward pairs, and answers the
//! other uncontrolled shapes with the engine's own strategy.
//!
//! ## Soundness under early termination
//!
//! A budgeted or cancelled run stops mid-search, but every answer it has
//! already collected is a *true* answer: the product BFS only reports a
//! node once an accepting `(state, node)` pair is actually reached, so a
//! partial exploration yields a sound subset (the same contract as
//! [`crate::StreamingEval`]'s budget semantics, where only a fully explored
//! search reports `Terminated`). [`EvalResponse::termination`] says which
//! case occurred: [`Termination::Complete`] means the answer set is exact;
//! [`Termination::BudgetExhausted`] / [`Termination::Cancelled`] mean it is
//! a sound subset (and a pair's `reachable == false` is "not determined",
//! not "no").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rpq_automata::Nfa;
use rpq_graph::{CsrGraph, GraphView, Oid};

use crate::batch::{eval_product_matrix_csr_with, BatchResult, MatrixResult};
use crate::engine::{Engine, Query};
use crate::pair::{eval_product_pair_controlled_csr_with, PairResult};
use crate::pairset::{
    eval_pairs_bound_controlled_csr_with, eval_pairs_from_sources_controlled_csr_with,
    eval_pairs_to_targets_controlled_csr_with, seed_candidates, PairSetResult,
};
use crate::parallel::product_search_parallel;
use crate::product::{EvalResult, FrontierMode};
use crate::scratch::{EvalScratch, ScratchPool};
use crate::stats::{Direction, EvalStats};

/// Execution controls threaded into the product BFS level loops: an
/// `edges_scanned` budget and a cooperative cancellation flag. The search
/// checks the flag once per BFS level and enforces the budget *before*
/// scanning each row, so a controlled run always reports
/// `edges_scanned ≤ budget`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalControl<'a> {
    /// Hard cap on `stats.edges_scanned` (`None` = unlimited).
    pub budget: Option<usize>,
    /// Set by another thread to stop the search at the next level boundary.
    pub cancel: Option<&'a AtomicBool>,
}

impl EvalControl<'static> {
    /// No budget, no cancellation — the classic uncontrolled search.
    pub const UNLIMITED: EvalControl<'static> = EvalControl {
        budget: None,
        cancel: None,
    };
}

impl EvalControl<'_> {
    /// Has the cancellation flag been raised?
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Neither budget nor cancellation is in play.
    pub fn is_unlimited(&self) -> bool {
        self.budget.is_none() && self.cancel.is_none()
    }
}

/// How a controlled evaluation ended. Answers collected before a
/// non-complete termination are always a sound subset (see the module
/// docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The search ran to exhaustion — the answer set is exact.
    Complete,
    /// The `edges_scanned` budget tripped; answers are a sound subset.
    BudgetExhausted,
    /// The cancellation flag was raised; answers are a sound subset.
    Cancelled,
}

impl Termination {
    /// Did the search explore everything (answers are exact)?
    pub fn is_complete(&self) -> bool {
        matches!(self, Termination::Complete)
    }
}

/// Which reachability question a request asks — the axis that used to pick
/// an `Engine` method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceSpec {
    /// `p(source, I)` — the paper's question (legacy `eval`).
    Source(Oid),
    /// `p(oᵢ, I)` for every source, per-source answers (legacy
    /// `eval_batch`).
    Sources(Vec<Oid>),
    /// `{o | target ∈ p(o, I)}` (legacy `eval_to`).
    Target(Oid),
    /// The target-bound question for every target (legacy `eval_to_batch`).
    Targets(Vec<Oid>),
    /// `target ∈ p(source, I)?` (legacy pair scenario).
    Pair {
        /// Path start.
        source: Oid,
        /// Path end.
        target: Oid,
    },
    /// The full N×M reachability matrix `target ∈ p(source, I)` in one
    /// bit-parallel pass ([`MatrixResult`]).
    Matrix {
        /// Row objects (path starts).
        sources: Vec<Oid>,
        /// Column objects (path ends).
        targets: Vec<Oid>,
    },
    /// The *binding set* `{(s, t) | t ∈ p(s, I)}` restricted to optional
    /// endpoint sets — the conjunctive-query form. On a single-atom query
    /// this asks the atom's set-valued pair question directly
    /// ([`crate::pairset`]); `rpq-optimizer` routes multi-atom CRPQs
    /// through the same spec, with `sources` / `targets` restricting the
    /// head variables. `None` means the endpoint is a free variable
    /// (unrestricted).
    Conjunctive {
        /// Allowed left-endpoint (head source variable) bindings; `None` =
        /// free.
        sources: Option<Vec<Oid>>,
        /// Allowed right-endpoint (head target variable) bindings; `None` =
        /// free.
        targets: Option<Vec<Oid>>,
    },
}

/// One evaluation request: the question ([`SourceSpec`]) plus uniform
/// execution controls. Built with the constructors and `with_*` builders;
/// dispatched by [`Engine::run`].
///
/// The direction and frontier-mode fields are *hints*: engines with their
/// own strategy (or a planner) may override them; the controlled execution
/// paths honor `frontier_mode` directly.
#[derive(Clone, Debug)]
pub struct EvalRequest {
    /// The question being asked.
    pub spec: SourceSpec,
    /// Traversal-direction hint for planning engines (`None` = let the
    /// engine decide).
    pub direction: Option<Direction>,
    /// Fetch budget: hard cap on `edges_scanned` (`None` = unlimited).
    pub budget: Option<usize>,
    /// Per-level expansion strategy for the product BFS paths.
    pub frontier_mode: FrontierMode,
    /// Cooperative cancellation flag, shared with the submitting thread.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl EvalRequest {
    /// An uncontrolled request asking `spec`, with default hints. The
    /// shape-specific constructors below are shorthand over this.
    pub fn new(spec: SourceSpec) -> EvalRequest {
        EvalRequest {
            spec,
            direction: None,
            budget: None,
            frontier_mode: FrontierMode::default(),
            cancel: None,
        }
    }

    fn with_spec(spec: SourceSpec) -> EvalRequest {
        EvalRequest::new(spec)
    }

    /// Single-source request (legacy `eval`).
    pub fn source(source: Oid) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Source(source))
    }

    /// Multi-source request (legacy `eval_batch`).
    pub fn sources(sources: Vec<Oid>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Sources(sources))
    }

    /// Single-target request (legacy `eval_to`).
    pub fn target(target: Oid) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Target(target))
    }

    /// Multi-target request (legacy `eval_to_batch`).
    pub fn targets(targets: Vec<Oid>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Targets(targets))
    }

    /// Pair-reachability request.
    pub fn pair(source: Oid, target: Oid) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Pair { source, target })
    }

    /// N×M reachability-matrix request.
    pub fn matrix(sources: Vec<Oid>, targets: Vec<Oid>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Matrix { sources, targets })
    }

    /// Binding-set (conjunctive) request: all `(s, t)` pairs the query
    /// relates, optionally restricted to endpoint sets (`None` = free).
    pub fn conjunctive(sources: Option<Vec<Oid>>, targets: Option<Vec<Oid>>) -> EvalRequest {
        EvalRequest::with_spec(SourceSpec::Conjunctive { sources, targets })
    }

    /// Cap `edges_scanned` at `budget`.
    pub fn with_budget(mut self, budget: usize) -> EvalRequest {
        self.budget = Some(budget);
        self
    }

    /// Attach a cancellation flag (shared with the submitting thread).
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> EvalRequest {
        self.cancel = Some(cancel);
        self
    }

    /// Force a per-level expansion strategy.
    pub fn with_frontier_mode(mut self, mode: FrontierMode) -> EvalRequest {
        self.frontier_mode = mode;
        self
    }

    /// Hint a traversal direction to planning engines.
    pub fn with_direction(mut self, direction: Direction) -> EvalRequest {
        self.direction = Some(direction);
        self
    }

    /// Does the request carry a budget or a cancellation flag?
    /// [`run_default`] sends controlled requests to [`Dispatch::run`]
    /// instead of the engine's own strategy.
    pub fn is_controlled(&self) -> bool {
        self.budget.is_some() || self.cancel.is_some()
    }

    /// Borrow the controls in the form the kernels consume.
    pub fn control(&self) -> EvalControl<'_> {
        EvalControl {
            budget: self.budget,
            cancel: self.cancel.as_deref(),
        }
    }
}

/// The answer payload of an [`EvalResponse`], shaped by the request's
/// [`SourceSpec`].
#[derive(Clone, Debug)]
pub enum Answers {
    /// Sorted answer set (`Source` / `Target` requests).
    Nodes(Vec<Oid>),
    /// Per-source (or per-target) batched answers (`Sources` / `Targets`).
    Batch(BatchResult),
    /// Pair verdict (`Pair`). Under a non-complete termination, `false`
    /// means *not determined*.
    Reachable(bool),
    /// Bit-packed N×M matrix (`Matrix`).
    Matrix(MatrixResult),
    /// Sorted, deduplicated (source, target) binding set (`Conjunctive`).
    Bindings(Vec<(Oid, Oid)>),
}

/// The uniform evaluation response: answers, aggregated work counters, and
/// how the run ended.
#[derive(Clone, Debug)]
pub struct EvalResponse {
    /// The answer payload.
    pub answers: Answers,
    /// Aggregated work counters (mirrors the payload's stats).
    pub stats: EvalStats,
    /// Exact ([`Termination::Complete`]) or sound-subset termination.
    pub termination: Termination,
}

impl EvalResponse {
    /// Wrap a node-set result (complete).
    pub fn from_nodes(result: EvalResult) -> EvalResponse {
        EvalResponse {
            stats: result.stats.clone(),
            answers: Answers::Nodes(result.answers),
            termination: Termination::Complete,
        }
    }

    /// Wrap a batched result (complete).
    pub fn from_batch(batch: BatchResult) -> EvalResponse {
        EvalResponse {
            stats: batch.stats.clone(),
            answers: Answers::Batch(batch),
            termination: Termination::Complete,
        }
    }

    /// Wrap a pair result (complete).
    pub fn from_pair(pair: PairResult) -> EvalResponse {
        EvalResponse {
            stats: pair.stats.clone(),
            answers: Answers::Reachable(pair.reachable),
            termination: Termination::Complete,
        }
    }

    /// Wrap a matrix result (complete).
    pub fn from_matrix(matrix: MatrixResult) -> EvalResponse {
        EvalResponse {
            stats: matrix.stats.clone(),
            answers: Answers::Matrix(matrix),
            termination: Termination::Complete,
        }
    }

    /// Wrap a binding-set result, carrying its own termination.
    pub fn from_pairset(result: PairSetResult) -> EvalResponse {
        EvalResponse {
            stats: result.stats,
            answers: Answers::Bindings(result.pairs),
            termination: result.termination,
        }
    }

    /// Override the termination (builder for the controlled paths).
    pub fn terminated(mut self, termination: Termination) -> EvalResponse {
        self.termination = termination;
        self
    }

    /// The sorted answer set, if the payload is node-shaped.
    pub fn nodes(&self) -> Option<&[Oid]> {
        match &self.answers {
            Answers::Nodes(ns) => Some(ns),
            _ => None,
        }
    }

    /// The batched answers, if the payload is batch-shaped.
    pub fn batch(&self) -> Option<&BatchResult> {
        match &self.answers {
            Answers::Batch(b) => Some(b),
            _ => None,
        }
    }

    /// The pair verdict, if the payload is pair-shaped.
    pub fn reachable(&self) -> Option<bool> {
        match &self.answers {
            Answers::Reachable(r) => Some(*r),
            _ => None,
        }
    }

    /// The reachability matrix, if the payload is matrix-shaped.
    pub fn matrix(&self) -> Option<&MatrixResult> {
        match &self.answers {
            Answers::Matrix(m) => Some(m),
            _ => None,
        }
    }

    /// The (source, target) binding set, if the payload is binding-shaped.
    pub fn bindings(&self) -> Option<&[(Oid, Oid)]> {
        match &self.answers {
            Answers::Bindings(bs) => Some(bs),
            _ => None,
        }
    }

    /// Collapse into the legacy single-set form: node payloads directly,
    /// batch payloads as their union, anything else as an empty set.
    pub fn into_eval_result(self) -> EvalResult {
        let stats = self.stats;
        let answers = match self.answers {
            Answers::Nodes(ns) => ns,
            Answers::Batch(b) => b.union().to_vec(),
            Answers::Bindings(bs) => {
                // The distinct right-hand endpoints — the "reachable set"
                // reading of a binding set.
                let mut ts: Vec<Oid> = bs.into_iter().map(|(_, t)| t).collect();
                ts.sort_unstable();
                ts.dedup();
                ts
            }
            Answers::Reachable(_) | Answers::Matrix(_) => Vec::new(),
        };
        EvalResult { answers, stats }
    }

    /// Collapse into the legacy batch form: batch payloads directly, node
    /// payloads as a union-only batch, anything else as an empty batch.
    pub fn into_batch(self) -> BatchResult {
        match self.answers {
            Answers::Batch(b) => b,
            Answers::Nodes(ns) => BatchResult::union_only(ns, self.stats),
            Answers::Reachable(_) | Answers::Matrix(_) | Answers::Bindings(_) => {
                BatchResult::union_only(Vec::new(), self.stats)
            }
        }
    }

    /// Collapse into the legacy pair form (`reachable == false` for
    /// non-pair payloads).
    pub fn into_pair(self) -> PairResult {
        let reachable = matches!(self.answers, Answers::Reachable(true));
        PairResult {
            reachable,
            stats: self.stats,
        }
    }
}

/// The default [`Engine::run`] dispatch, shared by every engine that does
/// not override `run`: uncontrolled single-source and multi-source
/// requests run the engine's own [`Engine::eval`] strategy, uncontrolled
/// target, pair and matrix requests the shared backward / meet-in-the-middle
/// / matrix kernels. Controlled requests, and every conjunctive request, go
/// through [`Dispatch::run`] with no depth cap, one worker, and forward
/// pairs unless the request hints otherwise, bypassing the engine so the
/// budget binds uniformly.
///
/// Engines that *do* override `run` (for set-at-a-time strategies or
/// planning) call back into this for the arms they don't specialize.
pub fn run_default<E: Engine + ?Sized>(
    engine: &E,
    query: &Query,
    graph: &CsrGraph,
    req: &EvalRequest,
) -> EvalResponse {
    if req.is_controlled() {
        return run_dispatched(query, graph, req);
    }
    match &req.spec {
        SourceSpec::Source(s) => EvalResponse::from_nodes(engine.eval(query, graph, *s)),
        SourceSpec::Sources(ss) => {
            let mut stats = EvalStats::default();
            let mut per_source = Vec::with_capacity(ss.len());
            for &s in ss {
                let r = engine.eval(query, graph, s);
                stats.merge(&r.stats);
                per_source.push(r.answers);
            }
            EvalResponse::from_batch(BatchResult::from_per_source(per_source, stats))
        }
        SourceSpec::Target(t) => EvalResponse::from_nodes(crate::pair::eval_to(query, graph, *t)),
        SourceSpec::Targets(ts) => {
            let mut stats = EvalStats::default();
            let mut per_target = Vec::with_capacity(ts.len());
            for &t in ts {
                let r = crate::pair::eval_to(query, graph, t);
                stats.merge(&r.stats);
                per_target.push(r.answers);
            }
            EvalResponse::from_batch(BatchResult::from_per_source(per_target, stats))
        }
        SourceSpec::Pair { source, target } => {
            EvalResponse::from_pair(crate::pair::eval_pair(query, graph, *source, *target))
        }
        SourceSpec::Matrix { sources, targets } => {
            let mut scratch = EvalScratch::new();
            EvalResponse::from_matrix(eval_product_matrix_csr_with(
                query.nfa(),
                graph,
                sources,
                targets,
                &mut scratch,
            ))
        }
        SourceSpec::Conjunctive { .. } => run_dispatched(query, graph, req),
    }
}

/// [`run_default`]'s path through [`Dispatch::run`]: no depth cap, one
/// worker, forward pairs unless the request hints a direction.
fn run_dispatched(query: &Query, graph: &CsrGraph, req: &EvalRequest) -> EvalResponse {
    let reversed = query.nfa().reverse();
    Dispatch {
        nfa: query.nfa(),
        reversed: &reversed,
        depth_cap: None,
        direction: Direction::Forward,
        mode: req.frontier_mode,
        dop: 1,
        pool: &ScratchPool::new(),
    }
    .run(graph, req)
}

/// Everything [`Dispatch::run`] needs besides the request: the compiled
/// automaton and its reversal, the search bounds a planner derived, and
/// the parallel resources granted to this request.
#[derive(Debug)]
pub struct Dispatch<'a> {
    /// The query automaton.
    pub nfa: &'a Nfa,
    /// `nfa.reverse()`, for target-bound and backward searches.
    pub reversed: &'a Nfa,
    /// BFS depth cap (the longest accepted word of a finite language):
    /// levels past it are never expanded. `None` = unbounded.
    pub depth_cap: Option<usize>,
    /// Pair direction when the request carries no
    /// [`EvalRequest::direction`] hint.
    pub direction: Direction,
    /// Per-level expansion strategy for every search.
    pub mode: FrontierMode,
    /// Granted degree of parallelism (1 = sequential).
    pub dop: usize,
    /// Arena pool: the request's own scratch and every parallel worker's.
    pub pool: &'a ScratchPool,
}

impl Dispatch<'_> {
    /// The one mapping from an [`EvalRequest`] to kernels. Every arm runs
    /// under [`EvalRequest::control`] — [`EvalControl::UNLIMITED`] when
    /// the request carries neither budget nor cancellation flag, so an
    /// uncontrolled request is simply a control that never binds.
    /// Single-source and single-target arms run the frontier-parallel
    /// product BFS, which is the sequential kernel at `dop ≤ 1`.
    /// Multi-item arms (`Sources`, `Targets`, `Matrix`) run one such search
    /// per item, share one budget across items, and stop at the first
    /// non-complete termination (unexplored items report empty sets — a
    /// sound subset). `Pair` runs the direction the request hints, else
    /// [`Dispatch::direction`]; `Conjunctive` runs the per-seed pair-set
    /// kernels.
    pub fn run<G: GraphView + Sync>(&self, graph: &G, req: &EvalRequest) -> EvalResponse {
        let control = req.control();
        let mut scratch = self.pool.checkout();
        // One product BFS from `root`: the query forward over the forward
        // adjacency, or its reversal over the reverse adjacency.
        let mut search = |backward: bool, root: Oid, control: &EvalControl| {
            product_search_parallel(
                if backward { self.reversed } else { self.nfa },
                graph,
                root,
                backward,
                self.depth_cap,
                self.mode,
                control,
                self.dop,
                self.pool,
                &mut scratch,
            )
        };
        match &req.spec {
            SourceSpec::Source(s) => {
                let (res, term) = search(false, *s, &control);
                EvalResponse::from_nodes(res).terminated(term)
            }
            SourceSpec::Target(t) => {
                let (res, term) = search(true, *t, &control);
                EvalResponse::from_nodes(res).terminated(term)
            }
            SourceSpec::Sources(items) | SourceSpec::Targets(items) => {
                let backward = matches!(req.spec, SourceSpec::Targets(_));
                let mut per = Vec::with_capacity(items.len());
                let (stats, term) = per_item(items, &control, |_, item, c| {
                    let (r, t) = search(backward, item, c);
                    per.push(r.answers);
                    (r.stats, t)
                });
                per.resize(items.len(), Vec::new());
                EvalResponse::from_batch(BatchResult::from_per_source(per, stats)).terminated(term)
            }
            SourceSpec::Matrix { sources, targets } => {
                let mut matrix = MatrixResult::new(sources.clone(), targets.clone());
                let (mut stats, term) = per_item(sources, &control, |i, s, c| {
                    let (r, t) = search(false, s, c);
                    for (j, tgt) in targets.iter().enumerate() {
                        if r.answers.binary_search(tgt).is_ok() {
                            matrix.set(i, j);
                        }
                    }
                    (r.stats, t)
                });
                stats.answers = matrix.reachable_count();
                matrix.stats = stats;
                EvalResponse::from_matrix(matrix).terminated(term)
            }
            SourceSpec::Pair { source, target } => {
                let (pair, term) = eval_product_pair_controlled_csr_with(
                    self.nfa,
                    self.reversed,
                    graph,
                    *source,
                    *target,
                    req.direction.unwrap_or(self.direction),
                    self.mode,
                    &control,
                    &mut scratch,
                );
                EvalResponse::from_pair(pair).terminated(term)
            }
            SourceSpec::Conjunctive { sources, targets } => {
                let (nfa, mode) = (self.nfa, self.mode);
                EvalResponse::from_pairset(match (sources, targets) {
                    (Some(ss), Some(ts)) => eval_pairs_bound_controlled_csr_with(
                        nfa,
                        graph,
                        ss,
                        ts,
                        mode,
                        &control,
                        &mut scratch,
                    ),
                    (Some(ss), None) => eval_pairs_from_sources_controlled_csr_with(
                        nfa,
                        graph,
                        ss,
                        mode,
                        &control,
                        &mut scratch,
                    ),
                    (None, Some(ts)) => eval_pairs_to_targets_controlled_csr_with(
                        self.reversed,
                        graph,
                        ts,
                        mode,
                        &control,
                        &mut scratch,
                    ),
                    (None, None) => {
                        let seeds = seed_candidates(nfa, graph, &mut scratch);
                        eval_pairs_from_sources_controlled_csr_with(
                            nfa,
                            graph,
                            &seeds,
                            mode,
                            &control,
                            &mut scratch,
                        )
                    }
                })
            }
        }
    }
}

/// Run `search` once per item (with its index), each under whatever the
/// request budget has left after the items before it; stop at the first
/// non-complete termination. Returns the merged counters and how the loop
/// ended.
fn per_item(
    items: &[Oid],
    control: &EvalControl,
    mut search: impl FnMut(usize, Oid, &EvalControl) -> (EvalStats, Termination),
) -> (EvalStats, Termination) {
    let mut stats = EvalStats::default();
    for (i, &item) in items.iter().enumerate() {
        let remaining = EvalControl {
            budget: control
                .budget
                .map(|b| b.saturating_sub(stats.edges_scanned)),
            cancel: control.cancel,
        };
        let (item_stats, term) = search(i, item, &remaining);
        stats.merge(&item_stats);
        if !term.is_complete() {
            return (stats, term);
        }
    }
    (stats, Termination::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        DerivativeEngine, ProductEngine, Query, QuotientDfaEngine, StreamingEngine,
    };
    use rpq_automata::Alphabet;
    use rpq_graph::{CsrGraph, InstanceBuilder};

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

    fn engines() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(ProductEngine),
            Box::new(QuotientDfaEngine),
            Box::new(DerivativeEngine),
            Box::new(StreamingEngine::default()),
        ]
    }

    #[test]
    fn run_agrees_with_every_legacy_entry_point() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        for qs in ["a.b*", "(a+b)*", "b.b", "()", "[]"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            for e in engines() {
                let s = Oid(0);
                let t = Oid(2);
                let single = e.run(&q, &csr, &EvalRequest::source(s));
                assert_eq!(single.termination, Termination::Complete);
                assert_eq!(single.nodes().unwrap(), e.eval(&q, &csr, s).answers, "{qs}");

                let batch = e.run(&q, &csr, &EvalRequest::sources(all.clone()));
                assert_eq!(
                    batch.batch().unwrap().union(),
                    e.eval_batch(&q, &csr, &all).union(),
                    "{qs} {}",
                    e.name()
                );

                let to = e.run(&q, &csr, &EvalRequest::target(t));
                assert_eq!(to.nodes().unwrap(), e.eval_to(&q, &csr, t).answers);

                let to_batch = e.run(&q, &csr, &EvalRequest::targets(all.clone()));
                assert_eq!(
                    to_batch.batch().unwrap().union(),
                    e.eval_to_batch(&q, &csr, &all).union()
                );

                let pair = e.run(&q, &csr, &EvalRequest::pair(s, t));
                assert_eq!(
                    pair.reachable().unwrap(),
                    e.eval(&q, &csr, s).answers.contains(&t),
                    "{qs} {}",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn matrix_request_agrees_with_pairwise_eval() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        for qs in ["a.b*", "(a+b)*", "b.b", "()"] {
            let q = Query::parse(&mut ab, qs).unwrap();
            let resp = ProductEngine.run(&q, &csr, &EvalRequest::matrix(all.clone(), all.clone()));
            let m = resp.matrix().unwrap();
            for (i, &s) in all.iter().enumerate() {
                let fwd = ProductEngine.eval(&q, &csr, s).answers;
                for (j, &t) in all.iter().enumerate() {
                    assert_eq!(m.reachable(i, j), fwd.contains(&t), "{qs} {s:?}->{t:?}");
                }
            }
        }
    }

    /// A meet-in-the-middle pair request (run by the engine's default
    /// dispatch, which honors the direction hint).
    fn mitm(s: Oid, t: Oid) -> EvalRequest {
        EvalRequest::pair(s, t).with_direction(Direction::Bidirectional)
    }

    #[test]
    fn budget_caps_edges_scanned_and_answers_stay_sound() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let pq = Query::parse(&mut ab, "a.b*").unwrap();
        let full = ProductEngine.eval(&q, &csr, Oid(0)).answers;
        for budget in 0..8 {
            let resp =
                ProductEngine.run(&q, &csr, &EvalRequest::source(Oid(0)).with_budget(budget));
            assert!(
                resp.stats.edges_scanned <= budget,
                "scanned {} > budget {budget}",
                resp.stats.edges_scanned
            );
            for n in resp.nodes().unwrap() {
                assert!(full.contains(n), "budgeted answer {n:?} must be sound");
            }
            if resp.termination == Termination::Complete {
                assert_eq!(resp.nodes().unwrap(), full);
            }
            // meet-in-the-middle pairs: within budget, a found pair is
            // definitive, a complete verdict is exact
            for s in csr.nodes() {
                let truth = ProductEngine.eval(&pq, &csr, s).answers;
                for t in csr.nodes() {
                    let resp = ProductEngine.run(&pq, &csr, &mitm(s, t).with_budget(budget));
                    assert!(resp.stats.edges_scanned <= budget, "{s:?}->{t:?}");
                    let reachable = resp.reachable().unwrap();
                    assert!(!reachable || truth.contains(&t), "{s:?}->{t:?}");
                    if resp.termination.is_complete() {
                        assert_eq!(reachable, truth.contains(&t), "{s:?}->{t:?}");
                    }
                }
            }
        }
        // a generous budget completes exactly
        let resp = ProductEngine.run(&q, &csr, &EvalRequest::source(Oid(0)).with_budget(100_000));
        assert_eq!(resp.termination, Termination::Complete);
        assert_eq!(resp.nodes().unwrap(), full);
    }

    #[test]
    fn pre_set_cancel_flag_terminates_immediately() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "(a+b)*").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let req = EvalRequest::sources(csr.nodes().collect()).with_cancel(flag);
        let resp = ProductEngine.run(&q, &csr, &req);
        assert_eq!(resp.termination, Termination::Cancelled);
        let full: Vec<Oid> = csr.nodes().collect();
        for per in resp.batch().unwrap().per_source().unwrap() {
            for n in per {
                assert!(full.contains(n));
            }
        }
        // a meet-in-the-middle pair stops before its first level
        let flag = Arc::new(AtomicBool::new(true));
        let resp = ProductEngine.run(&q, &csr, &mitm(Oid(0), Oid(2)).with_cancel(flag));
        assert_eq!(resp.termination, Termination::Cancelled);
        assert_eq!(resp.reachable(), Some(false));
    }

    #[test]
    fn controlled_pair_found_is_definitive() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "a").unwrap();
        let resp = ProductEngine.run(
            &q,
            &csr,
            &EvalRequest::pair(Oid(0), Oid(1)).with_budget(100_000),
        );
        assert_eq!(resp.reachable(), Some(true));
        assert_eq!(resp.termination, Termination::Complete);
    }

    #[test]
    fn conjunctive_request_binds_pairs_under_every_restriction() {
        let (mut ab, csr) = fig2ish();
        let all: Vec<Oid> = csr.nodes().collect();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        // ground truth from per-source eval
        let mut full: Vec<(Oid, Oid)> = Vec::new();
        for &s in &all {
            for t in ProductEngine.eval(&q, &csr, s).answers {
                full.push((s, t));
            }
        }
        full.sort_unstable();

        let free = ProductEngine.run(&q, &csr, &EvalRequest::conjunctive(None, None));
        assert_eq!(free.bindings().unwrap(), full);
        assert_eq!(free.termination, Termination::Complete);

        let fwd = ProductEngine.run(&q, &csr, &EvalRequest::conjunctive(Some(all.clone()), None));
        assert_eq!(fwd.bindings().unwrap(), full);

        let bwd = ProductEngine.run(&q, &csr, &EvalRequest::conjunctive(None, Some(all.clone())));
        assert_eq!(bwd.bindings().unwrap(), full);

        let restricted = ProductEngine.run(
            &q,
            &csr,
            &EvalRequest::conjunctive(Some(vec![Oid(0)]), Some(vec![Oid(2)])),
        );
        let expect: Vec<(Oid, Oid)> = full
            .iter()
            .copied()
            .filter(|&(s, t)| s == Oid(0) && t == Oid(2))
            .collect();
        assert_eq!(restricted.bindings().unwrap(), expect);

        // controlled path: budget caps scans, bindings stay sound
        for budget in [0, 1, 3, 100_000] {
            let resp = ProductEngine.run(
                &q,
                &csr,
                &EvalRequest::conjunctive(None, None).with_budget(budget),
            );
            assert!(resp.stats.edges_scanned <= budget);
            for b in resp.bindings().unwrap() {
                assert!(full.contains(b), "unsound binding {b:?}");
            }
        }
    }

    #[test]
    fn response_conversions_are_total() {
        let (mut ab, csr) = fig2ish();
        let q = Query::parse(&mut ab, "a.b*").unwrap();
        let r = ProductEngine.run(&q, &csr, &EvalRequest::source(Oid(0)));
        let as_batch = r.clone().into_batch();
        assert_eq!(as_batch.union(), r.nodes().unwrap());
        let as_eval = r.clone().into_eval_result();
        assert_eq!(as_eval.answers, r.nodes().unwrap());
        assert!(!r.into_pair().reachable);
    }
}
