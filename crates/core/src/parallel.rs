//! Frontier-parallel product BFS: one query on all cores.
//!
//! The sequential kernel in [`crate::product`] is level-synchronous: every
//! BFS level is a pure expansion step whose inputs (the ε-closed frontier,
//! the generation-stamped `seen` table, the label index) are fixed for the
//! duration of the sweep. That makes each level embarrassingly parallel,
//! and this module exploits it without changing any observable semantics:
//!
//! * **push levels** chunk the frontier across `std::thread::scope`
//!   workers. Workers claim fixed-size chunks from a shared atomic cursor
//!   (claims beyond a worker's static fair share are counted as *steals* —
//!   the same rebalancing a work-stealing deque buys, without one), mark
//!   newly reached pairs in the arena's generation-stamped seen table
//!   ([`EvalScratch`]'s atomic `seen`, the same table the sequential
//!   kernel uses: one `swap(gen)` per candidate, first marker wins), and append them to a per-worker next buffer taken from
//!   a pooled [`EvalScratch`]; the buffers are concatenated at the level
//!   barrier.
//! * **pull levels** partition the node range into contiguous slabs. Each
//!   `(state, node)` candidate is owned by exactly one worker, so the
//!   merge-join probe loop runs contention-free against the (read-only)
//!   densified frontier; per-worker pull-bound debits are summed at the
//!   barrier, keeping the shrinking bound accounting exact.
//!
//! Both sweeps produce the *set* of pairs first reached at the next level
//! — identical to the sequential kernel's — so the per-level push/pull
//! pricing sees identical inputs and fires identically, the hybrid ≤
//! forced-sparse edge invariant survives, and sorted answers are
//! deterministic (only the unobserved frontier *order* varies).
//!
//! **Budgets stay sound** via leases against one shared spent counter:
//! push workers reserve each adjacency row's exact length before scanning
//! it (the sequential kernel's pre-scan check, atomically); pull workers
//! draw small probe leases and return the unspent remainder, so the
//! counter equals the probes actually performed. Reservations never exceed
//! the budget, hence `edges_scanned ≤ budget` always, and a truncated
//! answer set is a sound subset exactly as in the sequential kernel.
//! Cancellation is checked at level boundaries, as before.
//!
//! Levels cheaper than [`PAR_LEVEL_THRESHOLD`] run the same worker
//! function inline on the calling thread (one code path, no spawn cost),
//! so small queries keep their sequential latency; `DoP ≤ 1` bypasses this
//! module entirely and delegates to the unchanged sequential kernel.
//!
//! [`WorkerPool`] is the *governor*: a counter of spawnable extra workers
//! shared by every query an engine serves concurrently. A query leases up
//! to `DoP − 1` permits for its lifetime (returned on drop), so total
//! fan-out never exceeds the configured parallelism no matter how many big
//! closures arrive at once — and a query granted nothing simply runs
//! sequentially.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use rpq_automata::{Nfa, StateId, Symbol};
use rpq_graph::{FrontierArena, GraphView, Oid};

use crate::batch::{batch_wave_kernel_sink, collect_wave_answers, BatchResult};
use crate::product::{pair_pull_probes, product_search_with, EvalResult, FrontierMode, PullBound};
use crate::request::{EvalControl, Termination};
use crate::scratch::{EvalScratch, PooledScratch, ScratchPool};
use crate::stats::EvalStats;

/// Minimum priced level cost (edge scans) before a level fans out to
/// worker threads; cheaper levels run inline on the calling thread.
pub const PAR_LEVEL_THRESHOLD: usize = 1 << 14;

/// Frontier pairs per shared-cursor claim in a parallel push sweep.
const PUSH_CHUNK: usize = 64;

/// Contiguous nodes per shared-cursor slab in a parallel pull sweep.
const PULL_SLAB: usize = 512;

/// Probes drawn per budget lease in a parallel pull sweep: small enough
/// that a worker parks little unspent budget (a stranded lease can trip
/// the search at most `workers × BUDGET_LEASE` probes early — never late),
/// large enough to keep the shared counter off the hot path.
const BUDGET_LEASE: usize = 64;

/// Shared governor for intra-query parallelism: a pool of "extra worker"
/// permits sized by the configured parallelism. Queries lease permits for
/// their lifetime via [`WorkerPool::lease`]; the lease's
/// [`WorkerLease::dop`] is the degree of parallelism actually granted
/// (always ≥ 1 — a query denied permits runs sequentially, it is never
/// blocked).
#[derive(Debug)]
pub struct WorkerPool {
    /// Extra-worker permits currently available.
    extra: AtomicUsize,
    /// Configured total parallelism (1 = sequential only).
    parallelism: usize,
}

impl WorkerPool {
    /// A pool allowing `parallelism` total threads across all concurrent
    /// queries (each query's own thread counts as one, so
    /// `parallelism − 1` extra-worker permits are available).
    pub fn new(parallelism: usize) -> WorkerPool {
        let parallelism = parallelism.max(1);
        WorkerPool {
            extra: AtomicUsize::new(parallelism - 1),
            parallelism,
        }
    }

    /// The configured total parallelism.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Extra-worker permits currently unleased.
    pub fn available(&self) -> usize {
        self.extra.load(Ordering::Relaxed)
    }

    /// Lease up to `target_dop − 1` extra-worker permits (whatever is
    /// available, possibly none). The permits return to the pool when the
    /// lease drops.
    pub fn lease(&self, target_dop: usize) -> WorkerLease<'_> {
        let want = target_dop.max(1) - 1;
        let mut granted = 0usize;
        let _ = self
            .extra
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |avail| {
                granted = want.min(avail);
                Some(avail - granted)
            });
        WorkerLease {
            pool: self,
            granted,
        }
    }
}

/// A query-lifetime grant of extra-worker permits from a [`WorkerPool`];
/// permits are returned on drop.
#[derive(Debug)]
pub struct WorkerLease<'a> {
    pool: &'a WorkerPool,
    granted: usize,
}

impl WorkerLease<'_> {
    /// The degree of parallelism this lease allows: the leased extra
    /// workers plus the query's own thread.
    pub fn dop(&self) -> usize {
        self.granted + 1
    }
}

impl Drop for WorkerLease<'_> {
    fn drop(&mut self) {
        self.pool.extra.fetch_add(self.granted, Ordering::Release);
    }
}

/// Per-worker accumulators, summed at each level barrier. Keeping these
/// local (one shared-counter touch per *level*, not per edge) is what
/// makes the barrier merge exact without contending on every probe.
#[derive(Default)]
struct WorkerOut {
    /// Edges scanned / probes performed by this worker.
    edges: usize,
    /// Pull-bound debits owed for pairs this worker newly reached.
    debits: usize,
    /// Cursor claims made after the worker had already processed its
    /// static fair share — the work-stealing telemetry.
    steals: usize,
}

impl WorkerOut {
    fn absorb(&mut self, other: WorkerOut) {
        self.edges += other.edges;
        self.debits += other.debits;
        self.steals += other.steals;
    }
}

/// Everything a level sweep's workers share, borrowed immutably for the
/// duration of one `std::thread::scope`.
struct LevelCtx<'a, G> {
    nfa: &'a Nfa,
    graph: &'a G,
    reverse_adj: bool,
    nq: usize,
    nv: usize,
    gen: u32,
    bound_active: bool,
    seen: &'a [AtomicU32],
    rev_trans: &'a [(Symbol, StateId)],
    rev_trans_off: &'a [usize],
    frontier: &'a [(StateId, Oid)],
    dense: &'a FrontierArena,
    /// Shared claim cursor (frontier index for push, node index for pull).
    cursor: &'a AtomicUsize,
    /// Shared budget spent counter (reservations, see module docs).
    spent: &'a AtomicUsize,
    /// Raised by the first worker that cannot reserve budget.
    tripped: &'a AtomicBool,
    budget: Option<usize>,
    /// Static fair share of claimable items per worker, for steal
    /// accounting.
    fair: usize,
}

/// Mark `(q, v)` in the atomic seen table; `true` when this call was the
/// first to reach the pair this generation (first marker wins).
#[inline]
fn mark_atomic(seen: &[AtomicU32], gen: u32, nv: usize, q: StateId, v: Oid) -> bool {
    seen[q as usize * nv + v.index()].swap(gen, Ordering::Relaxed) != gen
}

/// One push worker: claim frontier chunks from the shared cursor, scan
/// each pair's matching adjacency rows (reserving row lengths against the
/// shared budget first), and mark/enqueue unseen targets into this
/// worker's `next` buffer.
fn push_worker<G: GraphView + Sync>(
    ctx: &LevelCtx<'_, G>,
    next: &mut Vec<(StateId, Oid)>,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let total = ctx.frontier.len();
    let mut claimed = 0usize;
    loop {
        if ctx.tripped.load(Ordering::Relaxed) {
            break;
        }
        let start = ctx.cursor.fetch_add(PUSH_CHUNK, Ordering::Relaxed);
        if start >= total {
            break;
        }
        if claimed >= ctx.fair {
            out.steals += 1;
        }
        let end = (start + PUSH_CHUNK).min(total);
        claimed += end - start;
        for &(q, v) in &ctx.frontier[start..end] {
            for &(sym, q2) in ctx.nfa.transitions(q) {
                let targets = if ctx.reverse_adj {
                    ctx.graph.rev(v, sym)
                } else {
                    ctx.graph.out(v, sym)
                };
                if let Some(b) = ctx.budget {
                    // Reserve the whole row before scanning it — the
                    // sequential kernel's pre-scan check, done atomically
                    // so concurrent reservations never oversubscribe.
                    let row = targets.len();
                    let reserved =
                        ctx.spent
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                                (s + row <= b).then_some(s + row)
                            });
                    if reserved.is_err() {
                        ctx.tripped.store(true, Ordering::Relaxed);
                        return out;
                    }
                }
                out.edges += targets.len();
                for v2 in targets {
                    if mark_atomic(ctx.seen, ctx.gen, ctx.nv, q2, v2) {
                        next.push((q2, v2));
                        if ctx.bound_active {
                            out.debits += pair_pull_probes(
                                ctx.graph,
                                ctx.reverse_adj,
                                ctx.rev_trans,
                                ctx.rev_trans_off,
                                q2,
                                v2,
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

/// One pull worker: claim contiguous node slabs from the shared cursor and
/// run the sequential kernel's merge-join probe loop over every unreached
/// `(q2, v)` candidate in the slab. Slab ownership means no two workers
/// ever race on a candidate, so the mark store needs no read-modify-write.
fn pull_worker<G: GraphView + Sync>(
    ctx: &LevelCtx<'_, G>,
    next: &mut Vec<(StateId, Oid)>,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let (nq, nv) = (ctx.nq, ctx.nv);
    let mut claimed = 0usize;
    // Probes pre-paid against the shared budget but not yet performed.
    let mut lease = 0usize;
    'slabs: loop {
        if ctx.tripped.load(Ordering::Relaxed) {
            break;
        }
        let start = ctx.cursor.fetch_add(PULL_SLAB, Ordering::Relaxed);
        if start >= nv {
            break;
        }
        if claimed >= ctx.fair {
            out.steals += 1;
        }
        let end = (start + PULL_SLAB).min(nv);
        claimed += end - start;
        for q2 in 0..nq {
            let (lo, hi) = (ctx.rev_trans_off[q2], ctx.rev_trans_off[q2 + 1]);
            if lo == hi {
                continue; // no labeled transition enters q2
            }
            let seg = &ctx.rev_trans[lo..hi];
            for vi in start..end {
                if ctx.seen[q2 * nv + vi].load(Ordering::Relaxed) == ctx.gen {
                    continue;
                }
                let candidate = Oid(vi as u32);
                let groups = if ctx.reverse_adj {
                    ctx.graph.out_groups(candidate)
                } else {
                    ctx.graph.rev_groups(candidate)
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
                            if ctx.budget.is_some() && lease == 0 {
                                lease = acquire_lease(ctx.spent, ctx.budget);
                                if lease == 0 {
                                    ctx.tripped.store(true, Ordering::Relaxed);
                                    break 'slabs;
                                }
                            }
                            if ctx.budget.is_some() {
                                lease -= 1;
                            }
                            out.edges += 1;
                            if ctx.dense.state(qsrc as usize).contains(u.index()) {
                                ctx.seen[q2 * nv + vi].store(ctx.gen, Ordering::Relaxed);
                                next.push((q2 as StateId, candidate));
                                out.debits += pair_pull_probes(
                                    ctx.graph,
                                    ctx.reverse_adj,
                                    ctx.rev_trans,
                                    ctx.rev_trans_off,
                                    q2 as StateId,
                                    candidate,
                                );
                                break 'probe;
                            }
                        }
                    }
                }
            }
        }
    }
    // Return the unspent remainder so the shared counter equals the probes
    // actually performed (`edges_scanned` stays exact, not just bounded).
    if lease > 0 {
        ctx.spent.fetch_sub(lease, Ordering::Relaxed);
    }
    out
}

/// Draw up to [`BUDGET_LEASE`] probes from the shared budget; 0 when the
/// budget is exhausted.
fn acquire_lease(spent: &AtomicUsize, budget: Option<usize>) -> usize {
    let Some(b) = budget else {
        return usize::MAX;
    };
    match spent.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        (s < b).then(|| (s + BUDGET_LEASE).min(b))
    }) {
        Ok(prev) => (prev + BUDGET_LEASE).min(b) - prev,
        Err(_) => 0,
    }
}

/// Run one level sweep with `threads` workers (`threads == 1` runs the
/// worker function inline — same code path, no spawn). Worker `next`
/// buffers live in `worker_scratch` (plus the caller's own `next`); the
/// caller merges them afterwards.
#[allow(clippy::too_many_arguments)]
fn run_level<G: GraphView + Sync>(
    ctx: &LevelCtx<'_, G>,
    pull: bool,
    threads: usize,
    worker_scratch: &mut [PooledScratch<'_>],
    own_next: &mut Vec<(StateId, Oid)>,
) -> WorkerOut {
    let worker = if pull {
        pull_worker::<G>
    } else {
        push_worker::<G>
    };
    let mut out = WorkerOut::default();
    if threads <= 1 {
        out.absorb(worker(ctx, own_next));
        return out;
    }
    let extras = &mut worker_scratch[..threads - 1];
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(extras.len()); // alloc-ok: one tiny vec per parallel level, not per edge
        for w in extras.iter_mut() {
            handles.push(s.spawn(move || worker(ctx, &mut w.next)));
        }
        out.absorb(worker(ctx, own_next));
        for h in handles {
            match h.join() {
                Ok(part) => out.absorb(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// The frontier-parallel sibling of
/// [`crate::product::product_search_with`]: identical level-synchronous
/// semantics (ε-closure, answer pass, hybrid pricing, depth cap, budget,
/// cancellation), with each level's expansion fanned across up to `dop`
/// threads when its priced cost clears [`PAR_LEVEL_THRESHOLD`]. `dop ≤ 1`
/// delegates to the sequential kernel unchanged.
#[allow(clippy::too_many_arguments)]
pub(crate) fn product_search_parallel<G: GraphView + Sync>(
    nfa: &Nfa,
    graph: &G,
    source: Oid,
    reverse_adj: bool,
    depth_cap: Option<usize>,
    mode: FrontierMode,
    control: &EvalControl,
    dop: usize,
    pool: &ScratchPool,
    scratch: &mut EvalScratch,
) -> (EvalResult, Termination) {
    if dop <= 1 {
        let (res, _, term) = product_search_with(
            nfa,
            graph,
            source,
            reverse_adj,
            None,
            depth_cap,
            mode,
            control,
            scratch,
        );
        return (res, term);
    }

    let nq = nfa.num_states();
    let nv = graph.num_nodes();
    debug_assert!(source.index() < nv.max(1), "source must be a graph node");
    let covered = scratch.begin(nq, nv);
    let mut stats = EvalStats {
        scratch_reused: usize::from(covered),
        threads_used: 1,
        ..EvalStats::default()
    };
    let gen = scratch.generation();
    let mut termination = Termination::Complete;
    let mut classes = 0usize;

    // Same pull machinery as the sequential kernel (see product.rs): the
    // reversed transition table plus the shrinking probe bound, debited at
    // each level barrier by the summed per-worker debits.
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

    // Per-worker arenas: their `next` buffers receive each level's newly
    // reached pairs, merged at the barrier. Checked out once per search.
    let mut workers: Vec<PooledScratch<'_>> = (0..dop - 1).map(|_| pool.checkout()).collect(); // alloc-ok: one checkout vec per search
    for w in workers.iter_mut() {
        w.next.clear();
    }

    // Shared budget state, cumulative across levels.
    let spent = AtomicUsize::new(0);
    let tripped = AtomicBool::new(false);

    if nv > 0 && mark_atomic(&scratch.seen, gen, nv, nfa.start(), source) {
        scratch.frontier.push((nfa.start(), source));
        if bound.active {
            bound.debit(pair_pull_probes(
                graph,
                reverse_adj,
                &scratch.rev_trans,
                &scratch.rev_trans_off,
                nfa.start(),
                source,
            ));
        }
    }

    let mut depth = 0usize;
    'bfs: while !scratch.frontier.is_empty() {
        // Cooperative cancellation: one relaxed flag read per BFS level.
        if control.cancelled() {
            termination = Termination::Cancelled;
            break 'bfs;
        }
        // ε-closure inside the level (sequential: ε-fanout is tiny and the
        // in-place frontier extension wants single ownership).
        let mut i = 0;
        while i < scratch.frontier.len() {
            let (q, v) = scratch.frontier[i];
            i += 1;
            for &q2 in nfa.eps_transitions(q) {
                if mark_atomic(&scratch.seen, gen, nv, q2, v) {
                    scratch.frontier.push((q2, v));
                    if bound.active {
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
        }
        stats.frontier_peak = stats.frontier_peak.max(scratch.frontier.len());

        // Answer/accept pass over the closed level (sequential, main
        // thread — the non-atomic answer/state marks stay private).
        for &(q, v) in &scratch.frontier {
            stats.pairs_visited += 1;
            if scratch.state_marks[q as usize] != gen {
                scratch.state_marks[q as usize] = gen;
                classes += 1;
            }
            if nfa.is_accepting(q) && scratch.answer_marks[v.index()] != gen {
                scratch.answer_marks[v.index()] = gen;
                scratch.answers.push(v);
            }
        }

        if depth_cap.is_some_and(|cap| depth >= cap) {
            break 'bfs;
        }

        // Exact push price of this level — needed for the hybrid pricing
        // *and* the parallelize-or-inline gate.
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
        let use_pull = match mode {
            FrontierMode::ForcedSparse => false,
            FrontierMode::ForcedDense => true,
            FrontierMode::Hybrid | FrontierMode::HybridTuned { .. } => {
                sweep_cost.saturating_add(bound.remaining) < push_cost
            }
        };

        if use_pull {
            // Densify the current frontier for O(1) membership probes;
            // read-only for the duration of the sweep.
            for &(q, v) in &scratch.frontier {
                scratch.dense.state_mut(q as usize).insert(v.index());
            }
        }
        let level_cost = if use_pull {
            sweep_cost.saturating_add(bound.remaining)
        } else {
            push_cost
        };
        let threads = if level_cost >= PAR_LEVEL_THRESHOLD {
            dop
        } else {
            1
        };
        if threads > 1 {
            stats.parallel_levels += 1;
            stats.threads_used = stats.threads_used.max(threads);
        }
        if use_pull {
            stats.pull_levels += 1;
        } else {
            stats.push_levels += 1;
        }

        let cursor = AtomicUsize::new(0);
        let claimable = if use_pull { nv } else { scratch.frontier.len() };
        let out = {
            // Disjoint field borrows: the sweep reads the frontier, marks,
            // and transition tables, while `next` (and the worker arenas)
            // collect the produced level.
            let ctx = LevelCtx {
                nfa,
                graph,
                reverse_adj,
                nq,
                nv,
                gen,
                bound_active: bound.active,
                seen: &scratch.seen,
                rev_trans: &scratch.rev_trans,
                rev_trans_off: &scratch.rev_trans_off,
                frontier: &scratch.frontier,
                dense: &scratch.dense,
                cursor: &cursor,
                spent: &spent,
                tripped: &tripped,
                budget: control.budget,
                fair: claimable.div_ceil(threads),
            };
            run_level(&ctx, use_pull, threads, &mut workers, &mut scratch.next)
        };
        stats.edges_scanned += out.edges;
        stats.steal_count += out.steals;
        bound.debit(out.debits);
        if use_pull {
            // Leave the dense arena clean for the next level / search.
            scratch.dense.clear();
        }

        if tripped.load(Ordering::Relaxed) {
            // The level is partially expanded; everything already answered
            // stays sound, the rest of the search is abandoned.
            termination = Termination::BudgetExhausted;
            scratch.next.clear();
            for w in workers.iter_mut() {
                w.next.clear();
            }
            break 'bfs;
        }

        // Level barrier: concatenate the per-worker buffers into the next
        // frontier (set identical to the sequential kernel's; order is
        // claim-dependent and unobserved).
        for w in workers.iter_mut() {
            scratch.next.append(&mut w.next);
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        scratch.next.clear();
        depth += 1;
    }

    scratch.answers.sort_unstable();
    stats.answers = scratch.answers.len();
    stats.classes_materialized = classes;
    let answers = std::mem::take(&mut scratch.answers);
    (EvalResult { answers, stats }, termination)
}

/// Frontier-parallel forward product evaluation — the parallel sibling of
/// [`crate::eval_product_controlled_csr_with`]. `dop` is the granted
/// degree of parallelism (from a [`WorkerPool`] lease); `pool` supplies
/// the per-worker arenas. `dop ≤ 1` is exactly the sequential kernel.
#[allow(clippy::too_many_arguments)]
pub fn eval_product_parallel_csr_with<G: GraphView + Sync>(
    nfa: &Nfa,
    graph: &G,
    source: Oid,
    depth_cap: Option<usize>,
    mode: FrontierMode,
    control: &EvalControl,
    dop: usize,
    pool: &ScratchPool,
    scratch: &mut EvalScratch,
) -> (EvalResult, Termination) {
    product_search_parallel(
        nfa, graph, source, false, depth_cap, mode, control, dop, pool, scratch,
    )
}

/// The backward (already-reversed automaton, reverse adjacency) form of
/// [`eval_product_parallel_csr_with`] — the parallel sibling of
/// [`crate::eval_product_backward_controlled_reversed_csr_with`].
#[allow(clippy::too_many_arguments)]
pub fn eval_product_backward_parallel_reversed_csr_with<G: GraphView + Sync>(
    reversed: &Nfa,
    graph: &G,
    target: Oid,
    depth_cap: Option<usize>,
    mode: FrontierMode,
    control: &EvalControl,
    dop: usize,
    pool: &ScratchPool,
    scratch: &mut EvalScratch,
) -> (EvalResult, Termination) {
    product_search_parallel(
        reversed, graph, target, true, depth_cap, mode, control, dop, pool, scratch,
    )
}

/// Fan the bit-parallel wave kernel's independent 64-lane waves across up
/// to `dop` workers: wave indices are claimed from a shared cursor (claims
/// past a worker's fair share count as steals), each worker runs the
/// unchanged sequential kernel on its claimed wave with a pooled
/// [`EvalScratch`], and `per_wave` turns each wave's accepting masks into a
/// representation-specific payload. Payloads are re-assembled in wave
/// order, so every caller sees exactly the sequential kernel's output.
/// `dop ≤ 1` (or a single wave) runs the sink inline on `scratch`.
#[allow(clippy::too_many_arguments)]
fn wave_fanout<G, T, F>(
    nfa: &Nfa,
    graph: &G,
    seeds: &[Oid],
    reverse_adj: bool,
    dop: usize,
    pool: &ScratchPool,
    scratch: &mut EvalScratch,
    per_wave: F,
) -> (Vec<T>, EvalStats)
where
    G: GraphView + Sync,
    T: Send,
    F: Fn(&[u64], usize, usize) -> T + Sync,
{
    let n_waves = seeds.len().div_ceil(64);
    let threads = dop.min(n_waves.max(1));
    if threads <= 1 {
        let mut waves: Vec<T> = Vec::with_capacity(n_waves); // alloc-ok: result value
        let stats = batch_wave_kernel_sink(
            nfa,
            graph,
            seeds,
            reverse_adj,
            scratch,
            &mut |masks, wave_start, wave_len| {
                waves.push(per_wave(masks, wave_start, wave_len));
            },
        );
        return (waves, stats);
    }

    let cursor = AtomicUsize::new(0);
    let fair = n_waves.div_ceil(threads);
    // One worker body shared by the spawned threads and the calling
    // thread; all captures are immutable, so the closure is `Fn` + `Sync`.
    let work = |scr: &mut EvalScratch| -> (Vec<(usize, T)>, EvalStats, usize) {
        let mut outs: Vec<(usize, T)> = Vec::new(); // alloc-ok: per-worker result collection
        let mut wstats = EvalStats::default();
        let mut steals = 0usize;
        let mut claimed = 0usize;
        loop {
            let wi = cursor.fetch_add(1, Ordering::Relaxed);
            if wi >= n_waves {
                break;
            }
            if claimed >= fair {
                steals += 1;
            }
            claimed += 1;
            let start = wi * 64;
            let end = (start + 64).min(seeds.len());
            let s = batch_wave_kernel_sink(
                nfa,
                graph,
                &seeds[start..end],
                reverse_adj,
                scr,
                &mut |masks, _local_start, wave_len| {
                    // The sub-slice's wave starts at 0; re-anchor to the
                    // wave's global seed index for the payload builder.
                    outs.push((wi, per_wave(masks, start, wave_len)));
                },
            );
            wstats.merge(&s);
        }
        (outs, wstats, steals)
    };

    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n_waves); // alloc-ok: result assembly
    let mut stats = EvalStats::default();
    let mut steals_total = 0usize;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads - 1); // alloc-ok: one tiny vec per fan-out, not per edge
        for _ in 0..threads - 1 {
            handles.push(s.spawn(|| {
                let mut scr = pool.checkout();
                work(&mut scr)
            }));
        }
        let (outs, wstats, steals) = work(scratch);
        tagged.extend(outs);
        stats.merge(&wstats);
        steals_total += steals;
        for h in handles {
            let (outs, wstats, steals) = match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            tagged.extend(outs);
            stats.merge(&wstats);
            steals_total += steals;
        }
    });
    tagged.sort_unstable_by_key(|&(wi, _)| wi);
    stats.threads_used = stats.threads_used.max(threads);
    stats.steal_count += steals_total;
    stats.parallel_levels += 1;
    (tagged.into_iter().map(|(_, t)| t).collect(), stats)
}

/// Wave-parallel sibling of [`crate::eval_product_batch_csr_with`]: the
/// forward bit-parallel batch kernel with independent source waves fanned
/// across up to `dop` pooled workers. Identical per-source answers.
pub fn eval_product_batch_parallel_csr_with<G: GraphView + Sync>(
    nfa: &Nfa,
    graph: &G,
    sources: &[Oid],
    dop: usize,
    pool: &ScratchPool,
    scratch: &mut EvalScratch,
) -> BatchResult {
    let (waves, mut stats) = wave_fanout(
        nfa,
        graph,
        sources,
        false,
        dop,
        pool,
        scratch,
        |masks, _start, wave_len| {
            let mut per: Vec<Vec<Oid>> = Vec::new(); // alloc-ok: result value
            collect_wave_answers(masks, wave_len, &mut per);
            per
        },
    );
    let mut per_source: Vec<Vec<Oid>> = Vec::with_capacity(sources.len()); // alloc-ok: result value
    for mut w in waves {
        per_source.append(&mut w);
    }
    stats.answers = per_source.iter().map(Vec::len).sum();
    BatchResult::from_per_source(per_source, stats)
}

/// Wave-parallel sibling of [`crate::eval_product_to_batch_csr_with`]:
/// the backward batch kernel (already-reversed automaton, reverse
/// adjacency) with target waves fanned across up to `dop` workers.
pub fn eval_product_to_batch_parallel_csr_with<G: GraphView + Sync>(
    reversed: &Nfa,
    graph: &G,
    targets: &[Oid],
    dop: usize,
    pool: &ScratchPool,
    scratch: &mut EvalScratch,
) -> BatchResult {
    let (waves, mut stats) = wave_fanout(
        reversed,
        graph,
        targets,
        true,
        dop,
        pool,
        scratch,
        |masks, _start, wave_len| {
            let mut per: Vec<Vec<Oid>> = Vec::new(); // alloc-ok: result value
            collect_wave_answers(masks, wave_len, &mut per);
            per
        },
    );
    let mut per_target: Vec<Vec<Oid>> = Vec::with_capacity(targets.len()); // alloc-ok: result value
    for mut w in waves {
        per_target.append(&mut w);
    }
    stats.answers = per_target.iter().map(Vec::len).sum();
    BatchResult::from_per_source(per_target, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::{eval_product_controlled_csr_with, eval_product_csr};
    use rpq_automata::{parse_regex, Alphabet};
    use rpq_graph::{CsrGraph, InstanceBuilder};

    fn web(n: usize) -> (Alphabet, CsrGraph, Oid, Nfa) {
        let mut ab = Alphabet::new();
        let mut b = InstanceBuilder::new(&mut ab);
        for i in 0..n {
            b.edge(&format!("n{i}"), "a", &format!("n{}", (i * 7 + 1) % n));
            b.edge(&format!("n{i}"), "b", &format!("n{}", (i * 13 + 5) % n));
            if i % 3 == 0 {
                b.edge(&format!("n{i}"), "c", &format!("n{}", (i * 31 + 2) % n));
            }
        }
        let (inst, names) = b.finish();
        let r = parse_regex(&mut ab, "(a+b+c)*").unwrap();
        let nfa = Nfa::thompson(&r);
        let src = names["n0"];
        (ab, CsrGraph::from(&inst), src, nfa)
    }

    #[test]
    fn parallel_agrees_with_sequential_on_broad_closure() {
        let (_ab, graph, src, nfa) = web(400);
        let seq = eval_product_csr(&nfa, &graph, src);
        for dop in [1, 2, 4] {
            let pool = ScratchPool::new();
            let mut scratch = EvalScratch::new();
            let (res, term) = eval_product_parallel_csr_with(
                &nfa,
                &graph,
                src,
                None,
                FrontierMode::Hybrid,
                &EvalControl::UNLIMITED,
                dop,
                &pool,
                &mut scratch,
            );
            assert_eq!(term, Termination::Complete);
            assert_eq!(res.answers, seq.answers, "dop={dop}");
            assert_eq!(
                res.stats.edges_scanned, seq.stats.edges_scanned,
                "dop={dop}"
            );
        }
    }

    #[test]
    fn dop1_and_dop2_share_one_seen_table_on_a_pooled_arena() {
        // Large enough that some levels clear PAR_LEVEL_THRESHOLD, so the
        // dop=2 runs really fan out over the shared atomic table.
        let (_ab, graph, src, nfa) = web(40_000);
        let pool = ScratchPool::new();
        let mut arena = pool.checkout();
        let run = |dop: usize, arena: &mut EvalScratch| {
            eval_product_parallel_csr_with(
                &nfa,
                &graph,
                src,
                None,
                FrontierMode::Hybrid,
                &EvalControl::UNLIMITED,
                dop,
                &pool,
                arena,
            )
            .0
        };
        let reference = run(1, &mut arena);
        for order in [[1, 2], [2, 1]] {
            for _ in 0..2 {
                for dop in order {
                    let res = run(dop, &mut arena);
                    assert_eq!(res.answers, reference.answers, "dop={dop}");
                    assert_eq!(
                        res.stats.edges_scanned, reference.stats.edges_scanned,
                        "dop={dop}"
                    );
                    // One table serves both kernels: the warm arena never
                    // grows again, whichever kernel ran before.
                    assert_eq!(res.stats.scratch_reused, 1, "dop={dop}");
                    if dop == 2 {
                        assert!(res.stats.parallel_levels > 0, "levels fanned out");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_budget_is_a_sound_subset() {
        let (_ab, graph, src, nfa) = web(200);
        let full = eval_product_csr(&nfa, &graph, src);
        for budget in [0usize, 1, 17, 150, 100_000] {
            let pool = ScratchPool::new();
            let mut scratch = EvalScratch::new();
            let control = EvalControl {
                budget: Some(budget),
                cancel: None,
            };
            let (res, term) = eval_product_parallel_csr_with(
                &nfa,
                &graph,
                src,
                None,
                FrontierMode::Hybrid,
                &control,
                4,
                &pool,
                &mut scratch,
            );
            assert!(res.stats.edges_scanned <= budget, "budget={budget}");
            for o in &res.answers {
                assert!(full.answers.binary_search(o).is_ok(), "unsound answer");
            }
            if term == Termination::Complete {
                assert_eq!(res.answers, full.answers);
            }
            // sequential kernel under the same budget also stays within it
            let mut s2 = EvalScratch::new();
            let (seq, _) = eval_product_controlled_csr_with(
                &nfa,
                &graph,
                src,
                None,
                FrontierMode::Hybrid,
                &control,
                &mut s2,
            );
            assert!(seq.stats.edges_scanned <= budget);
        }
    }

    #[test]
    fn wave_fanout_agrees_with_sequential_kernels() {
        use crate::batch::{eval_product_batch_csr_with, eval_product_to_batch_csr_with};
        let (_ab, graph, _src, nfa) = web(300);
        let seeds: Vec<Oid> = (0..300).step_by(2).map(|i| Oid(i as u32)).collect();
        let targets: Vec<Oid> = (0..300).step_by(7).map(|i| Oid(i as u32)).collect();
        let reversed = nfa.reverse();

        let mut s = EvalScratch::new();
        let batch_seq = eval_product_batch_csr_with(&nfa, &graph, &seeds, &mut s);
        let to_seq = eval_product_to_batch_csr_with(&reversed, &graph, &targets, &mut s);

        for dop in [1usize, 2, 4] {
            let pool = ScratchPool::new();
            let mut scr = EvalScratch::new();
            let b =
                eval_product_batch_parallel_csr_with(&nfa, &graph, &seeds, dop, &pool, &mut scr);
            assert_eq!(b.per_source(), batch_seq.per_source(), "batch dop={dop}");
            assert_eq!(b.union(), batch_seq.union(), "batch union dop={dop}");
            assert_eq!(b.stats.answers, batch_seq.stats.answers);
            if dop > 1 {
                assert!(b.stats.threads_used >= 2, "fan-out engaged at dop={dop}");
            }

            let t = eval_product_to_batch_parallel_csr_with(
                &reversed, &graph, &targets, dop, &pool, &mut scr,
            );
            assert_eq!(t.per_source(), to_seq.per_source(), "to-batch dop={dop}");
        }
    }

    #[test]
    fn worker_pool_governs_permits() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.parallelism(), 4);
        assert_eq!(pool.available(), 3);
        let a = pool.lease(4);
        assert_eq!(a.dop(), 4);
        assert_eq!(pool.available(), 0);
        let b = pool.lease(4);
        assert_eq!(b.dop(), 1, "denied queries run sequentially");
        drop(a);
        assert_eq!(pool.available(), 3);
        let c = pool.lease(2);
        assert_eq!(c.dop(), 2);
        assert_eq!(pool.available(), 2);
        drop((b, c));
        assert_eq!(pool.available(), 3);
        // sequential-only pool grants nothing
        let seq = WorkerPool::new(1);
        assert_eq!(seq.lease(8).dop(), 1);
    }

    #[test]
    fn forced_modes_agree_in_parallel() {
        let (_ab, graph, src, nfa) = web(150);
        let seq = eval_product_csr(&nfa, &graph, src);
        for mode in [
            FrontierMode::ForcedSparse,
            FrontierMode::ForcedDense,
            FrontierMode::hybrid_with_discount(64),
        ] {
            let pool = ScratchPool::new();
            let mut scratch = EvalScratch::new();
            let (res, _) = eval_product_parallel_csr_with(
                &nfa,
                &graph,
                src,
                None,
                mode,
                &EvalControl::UNLIMITED,
                3,
                &pool,
                &mut scratch,
            );
            assert_eq!(res.answers, seq.answers, "{mode:?}");
        }
    }
}
