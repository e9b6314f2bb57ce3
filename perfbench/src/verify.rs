//! Answer verification, outside the timed window.
//!
//! Plain reads are re-answered by an independent, unconstrained
//! `ProductEngine` run forced to sparse push expansion, on a `CsrGraph`
//! rebuilt edge by edge from the read's pinned snapshot, so a wrong
//! constraint rewrite, overlay merge or kernel shortcut shows as a
//! mismatch. Conjunctive reads are re-answered by the naive reference join.

use std::collections::HashMap;

use rpq_core::{Engine, EvalRequest, EvalResponse, FrontierMode, ProductEngine, Query, SourceSpec};
use rpq_graph::{CsrGraph, DeltaGraph, GraphView, Instance, Oid};
use rpq_optimizer::{execute_naive, HeadBindings};
use rpq_server::Server;

use crate::serve::Sample;
use crate::workload::Spec;

/// Rebuild a standalone CSR snapshot from a view's effective edges.
pub fn rebuild(view: &DeltaGraph) -> CsrGraph {
    let mut edges: Vec<_> = view.edges().collect();
    edges.sort_unstable();
    let mut inst = Instance::new();
    for _ in 0..GraphView::num_nodes(view) {
        inst.add_node();
    }
    for (f, l, t) in edges {
        inst.add_edge(f, l, t);
    }
    CsrGraph::from(&inst)
}

fn oracle(q: &Query, csr: &CsrGraph, spec: SourceSpec) -> EvalResponse {
    // A budget routes the request through the controlled kernels, which
    // honor the forced frontier mode; this one can never bind.
    let req = EvalRequest::new(spec)
        .with_frontier_mode(FrontierMode::ForcedSparse)
        .with_budget(usize::MAX);
    ProductEngine.run(q, csr, &req)
}

fn sorted(v: &[Oid]) -> Vec<Oid> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// The reference bindings of one conjunctive template over one snapshot,
/// computed with the head free and filtered per sample (the naive join
/// filters its head bindings only after joining, so this is the same
/// answer). One naive join costs about a second on the `mixed_rw` graph,
/// so each snapshot checks the samples of one template only.
type Naive = Option<(usize, Vec<(Oid, Oid)>)>;

/// Check one sample against its reference answer: `Ok(true)` if it
/// matched, `Ok(false)` if it was skipped, `Err` describing a mismatch.
fn check(
    server: &Server,
    text: &str,
    s: &Sample,
    csr: &CsrGraph,
    naive: &mut Naive,
) -> Result<bool, String> {
    let mismatch = |what: &str| Err(format!("{text} {:?}: {what}", s.read.spec));
    if let Spec::Crpq(src) = s.read.spec {
        if naive.is_none() {
            let crpq = server.parse_crpq(text).map_err(|e| format!("{e:?}"))?;
            let (mut all, _) = execute_naive(&crpq, csr, HeadBindings::default());
            all.sort_unstable();
            all.dedup();
            *naive = Some((s.read.template, all));
        }
        let Some((_, all)) = naive.as_ref().filter(|(t, _)| *t == s.read.template) else {
            return Ok(false);
        };
        let want: Vec<(Oid, Oid)> = all
            .iter()
            .copied()
            .filter(|&(x, _)| x == Oid(src))
            .collect();
        let mut got = s.resp.bindings().ok_or("no bindings")?.to_vec();
        got.sort_unstable();
        return if got == want {
            Ok(true)
        } else {
            mismatch("bindings differ")
        };
    }
    let q = server.parse(text).map_err(|e| format!("{e:?}"))?;
    let check_nodes = |got: &[Oid], spec: SourceSpec| {
        let r = oracle(&q, csr, spec);
        if !r.termination.is_complete() {
            return Err("reference run incomplete".to_string());
        }
        let want = r.nodes().ok_or("reference returned no node set")?;
        if sorted(got) == sorted(want) {
            Ok(true)
        } else {
            mismatch("answer sets differ")
        }
    };
    match &s.read.spec {
        Spec::Source(_) | Spec::Target(_) => check_nodes(
            s.resp.nodes().ok_or("no node set")?,
            s.read.spec.to_source_spec(),
        ),
        Spec::Pair(..) => {
            let want = oracle(&q, csr, s.read.spec.to_source_spec()).reachable();
            if s.resp.reachable() == want {
                Ok(true)
            } else {
                mismatch("pair verdicts differ")
            }
        }
        Spec::Sources(ss) => {
            // Two members of the batch, each against its own reference run.
            let batch = s.resp.batch().ok_or("no batch")?;
            for &i in &[0, ss.len() / 2] {
                let spec = SourceSpec::Source(Oid(ss[i]));
                match batch.per_source() {
                    Some(per) => {
                        check_nodes(&per[i], spec)?;
                    }
                    None => {
                        let r = oracle(&q, csr, spec);
                        let union = sorted(batch.union());
                        let want = r.nodes().ok_or("reference returned no node set")?;
                        if want.iter().any(|o| union.binary_search(o).is_err()) {
                            return mismatch("batch union misses answers");
                        }
                    }
                }
            }
            Ok(true)
        }
        Spec::Crpq(_) => unreachable!("handled above"),
    }
}

/// Verify the samples; returns (checked, mismatches).
pub fn verify(server: &Server, templates: &[String], samples: &[Sample]) -> (usize, Vec<String>) {
    let mut by_snapshot: HashMap<*const DeltaGraph, Vec<&Sample>> = HashMap::new();
    for s in samples {
        by_snapshot
            .entry(std::sync::Arc::as_ptr(&s.snapshot))
            .or_default()
            .push(s);
    }
    let mut checked = 0;
    let mut bad = Vec::new();
    for group in by_snapshot.values() {
        let csr = rebuild(&group[0].snapshot);
        let mut naive = None;
        for s in group {
            match check(server, &templates[s.read.template], s, &csr, &mut naive) {
                Ok(true) => checked += 1,
                Ok(false) => {}
                Err(e) => {
                    checked += 1;
                    bad.push(e);
                }
            }
        }
    }
    (checked, bad)
}
