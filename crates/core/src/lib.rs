//! # rpq-core
//!
//! Regular path query evaluation — Section 2 of *Abiteboul & Vianu,
//! "Regular Path Queries with Constraints"*.
//!
//! A path query `p` is a regular expression over edge labels; its answer
//! `p(o, I)` is the set of objects reachable from `o` by a path spelling a
//! word of `L(p)`. This crate implements every evaluation strategy the
//! paper discusses, plus the Section 2.4 extensions, all behind one
//! calling convention:
//!
//! * [`Engine`] — the unified trait: `eval(&self, &Query, &CsrGraph, Oid)`
//!   over the label-indexed [`rpq_graph::CsrGraph`] snapshot, with shared
//!   [`EvalStats`] work counters ([`Query`] packages regex + NFA +
//!   alphabet once), plus batched multi-source evaluation via
//!   [`Engine::eval_batch`] (default: loop + stats aggregation);
//! * [`request`] — the unified request/response convention:
//!   [`Engine::run`] dispatches an [`EvalRequest`] (any question shape —
//!   single source, batch, target-bound, pair, N×M matrix — plus uniform
//!   budget/cancellation controls) to an [`EvalResponse`]; the legacy
//!   per-shape `Engine` methods are thin wrappers over it, and
//!   [`Dispatch::run`] is the one mapping from a request to kernels;
//! * [`batch`] — bit-parallel batched evaluation: the lane-partitioned
//!   product BFS ([`eval_product_batch_csr`]), its union-mode shared
//!   frontier ([`eval_product_batch_union_csr`]), and the batched
//!   quotient-DFA search ([`eval_quotient_dfa_batch_csr`]), all returning
//!   [`BatchResult`];
//! * [`ProductEngine`] / [`eval_product_csr`] — the "more economical"
//!   product-automaton BFS (PTIME combined complexity, NLOGSPACE data
//!   complexity), frontier-based and label-indexed;
//! * [`eval_product_backward_csr`] / [`pair`] — direction-aware variants:
//!   the target-bound backward BFS (reversed NFA over the reverse CSR
//!   adjacency) and the (source, target) pair scenario with forward,
//!   backward, and meet-in-the-middle strategies ([`eval_pair`],
//!   [`eval_to`]); `rpq-optimizer`'s `PlannedEngine` picks among them from
//!   per-label statistics;
//! * [`parallel`] — intra-query parallelism: the frontier-parallel
//!   product BFS ([`eval_product_parallel_csr_with`]) that chunks push
//!   levels and slab-partitions pull sweeps across `std::thread::scope`
//!   workers with budget-lease soundness, governed by a shared
//!   [`WorkerPool`];
//! * [`pairset`] — *set-valued* pair answers: the (source, target) binding
//!   sets a conjunctive-query atom induces between bound endpoint sets,
//!   with forward / backward / both-bound strategies under one shared
//!   budget ([`eval_pairs_from_sources_controlled_csr_with`] and friends)
//!   — the per-atom machinery `rpq-optimizer`'s join planner composes;
//! * [`QuotientDfaEngine`] / [`eval_quotient_dfa_csr`] — explicit quotients
//!   as lazily determinized state sets (the possibly-exponential
//!   construction the paper warns about);
//! * [`DerivativeEngine`] / [`eval_derivative_csr`] — syntactic quotients
//!   via Brzozowski derivatives, the faithful rendering of recursion (✳);
//! * [`OracleEngine`] / [`eval_oracle`] — definitional word-enumeration
//!   oracle for testing;
//! * [`StreamingEngine`] / [`StreamingEval`] — pull-based, budgeted
//!   evaluation over possibly infinite [`rpq_graph::GraphSource`]s
//!   ("eventually computable" queries, Remark 2.1);
//! * [`general`] — general path queries with character-level label patterns
//!   and the `μ` translation (Proposition 2.2, Example 2.1 / Figure 1);
//! * [`content`] — content-based selection via `content=w` self-loops.
//!
//! The historical free functions ([`eval_product`], [`eval_quotient_dfa`],
//! [`eval_derivative`]) remain as thin wrappers that snapshot the
//! [`rpq_graph::Instance`] per call; prefer building the [`CsrGraph`] once.
//!
//! ## Example
//!
//! ```
//! use rpq_automata::Alphabet;
//! use rpq_graph::{CsrGraph, InstanceBuilder};
//! use rpq_core::{Engine, ProductEngine, Query};
//!
//! let mut ab = Alphabet::new();
//! let mut b = InstanceBuilder::new(&mut ab);
//! b.edge("o1", "a", "o2");
//! b.edge("o2", "b", "o3");
//! b.edge("o3", "b", "o2");
//! let (inst, names) = b.finish();
//! let graph = CsrGraph::from(&inst); // immutable query-time snapshot
//!
//! let q = Query::parse(&mut ab, "a.b*").unwrap();
//! let res = ProductEngine.eval(&q, &graph, names["o1"]);
//! assert_eq!(res.answers.len(), 2); // {o2, o3}
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod content;
pub mod engine;
pub mod general;
pub mod oracle;
pub mod pair;
pub mod pairset;
pub mod parallel;
pub mod product;
pub mod quotient;
pub mod request;
pub mod scratch;
pub mod stats;
pub mod streaming;

pub use batch::{
    eval_product_batch_csr, eval_product_batch_csr_with, eval_product_batch_union_csr,
    eval_product_matrix_csr, eval_product_matrix_csr_with, eval_product_to_batch_csr,
    eval_product_to_batch_csr_with, eval_quotient_dfa_batch_csr, BatchResult, MatrixResult,
};
pub use engine::{
    DerivativeEngine, Engine, OracleEngine, ProductEngine, Query, QuotientDfaEngine,
    StreamingEngine,
};
pub use oracle::eval_oracle;
pub use pair::{
    eval_pair, eval_product_pair_backward_csr, eval_product_pair_backward_reversed_csr,
    eval_product_pair_controlled_csr_with, eval_product_pair_csr, eval_product_pair_forward_csr,
    eval_to, PairResult,
};
pub use pairset::{
    eval_pairs_bound_controlled_csr_with, eval_pairs_from_sources_controlled_csr_with,
    eval_pairs_from_sources_csr_with, eval_pairs_to_targets_controlled_csr_with, seed_candidates,
    PairSetResult,
};
pub use parallel::{
    eval_product_backward_parallel_reversed_csr_with, eval_product_batch_parallel_csr_with,
    eval_product_parallel_csr_with, eval_product_to_batch_parallel_csr_with, WorkerLease,
    WorkerPool, PAR_LEVEL_THRESHOLD,
};
pub use product::{
    eval_product, eval_product_backward_controlled_reversed_csr_with, eval_product_backward_csr,
    eval_product_backward_reversed_csr, eval_product_backward_reversed_csr_with,
    eval_product_controlled_csr_with, eval_product_csr, eval_product_csr_with, eval_product_scan,
    EvalResult, FrontierMode, PULL_SWEEP_DISCOUNT,
};
pub use quotient::{
    eval_derivative, eval_derivative_csr, eval_quotient_dfa, eval_quotient_dfa_csr,
};
pub use request::{
    run_default, Answers, Dispatch, EvalControl, EvalRequest, EvalResponse, SourceSpec, Termination,
};
pub use rpq_graph::CsrGraph;
pub use scratch::{EvalScratch, PooledScratch, ScratchPool};
pub use stats::{AtomStats, Direction, EvalStats};
pub use streaming::{StreamStatus, StreamingEval};
