//! Layer probes of the traced run: direct, repeated calls into one layer's
//! public functions on the workload's own graph, for the per-layer metrics
//! that the traffic itself cannot isolate.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rpq_core::{EvalStats, ProductEngine, SourceSpec, Termination};
use rpq_graph::{CompactionPolicy, CsrGraph, DeltaGraph, EdgeDelta, GraphView, Oid};
use rpq_optimizer::{PlannedEngine, PlannerConfig};
use rpq_server::{Catalog, Metrics, QueryClass};

use crate::gen::Rng;
use crate::serve::{median, nproc, served_request, Bench};
use crate::workload::{CLOSURE_TEMPLATES, CRPQ_TEMPLATES};

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Mean ns per `GraphView::out` and `GraphView::rev` row walk over 4096
/// sampled `(node, label)` rows of `snap`, median of five passes.
pub fn graph_rows(b: &Bench, snap: &DeltaGraph) -> (f64, f64) {
    let mut rng = Rng::stream(b.seed, 20);
    let n = GraphView::num_nodes(snap);
    let rows: Vec<(Oid, _)> = (0..4096)
        .map(|_| (Oid(rng.below(n) as u32), b.gen.labels[rng.below(4)]))
        .collect();
    let pass = |rev: bool| {
        let t = Instant::now();
        let mut sum = 0u64;
        for &(v, l) in &rows {
            let row = if rev { snap.rev(v, l) } else { snap.out(v, l) };
            for o in row {
                sum += u64::from(o.0);
            }
        }
        black_box(sum);
        ns(t.elapsed()) / rows.len() as f64
    };
    let mut out: Vec<f64> = (0..5).map(|_| pass(false)).collect();
    let mut rev: Vec<f64> = (0..5).map(|_| pass(true)).collect();
    (median(&mut out), median(&mut rev))
}

/// Point templates of the workload (conjunctive ones excluded), at most
/// `max` of them.
fn plain_templates(b: &Bench, max: usize) -> Vec<&str> {
    b.mix
        .templates
        .iter()
        .filter(|t| !t.contains(":-"))
        .take(max)
        .map(String::as_str)
        .collect()
}

/// `PlannedEngine::plan` on a fresh engine (a memo miss: rewrite search and
/// certification under the server's constraints), median ns; and on the
/// server's warm engine (a memo hit), median ns.
pub fn plans(b: &Bench, snap: &DeltaGraph) -> (f64, f64) {
    let alphabet = b.gen.alphabet.clone();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for text in plain_templates(b, 32) {
        let q = b.server.parse(text).expect("template parses");
        let fresh = PlannedEngine::new(ProductEngine, b.set.clone(), alphabet.clone());
        let t = Instant::now();
        black_box(fresh.plan(&q, snap));
        cold.push(ns(t.elapsed()));
        b.server.engine().plan(&q, snap);
        let t = Instant::now();
        for _ in 0..100 {
            black_box(b.server.engine().plan(&q, snap));
        }
        warm.push(ns(t.elapsed()) / 100.0);
    }
    (median(&mut cold), median(&mut warm))
}

/// Mean degree of parallelism `decide_dop` picks for the workload's
/// templates.
pub fn dop_chosen(b: &Bench, snap: &DeltaGraph) -> f64 {
    let engine = b.server.engine();
    let texts = plain_templates(b, usize::MAX);
    let total: usize = texts
        .iter()
        .map(|t| {
            let q = b.server.parse(t).expect("template parses");
            engine.decide_dop(&engine.plan(&q, snap), snap)
        })
        .sum();
    total as f64 / texts.len().max(1) as f64
}

/// `Metrics::record` on a private instance, mean ns per call.
pub fn metrics_record(stats: &EvalStats) -> f64 {
    let m = Metrics::new();
    let calls = 20_000;
    let t = Instant::now();
    for i in 0..calls {
        m.record(
            QueryClass::Single,
            Duration::from_nanos(50_000 + i),
            black_box(stats),
            Termination::Complete,
        );
    }
    ns(t.elapsed()) / calls as f64
}

/// The highest out-degree nodes of the generated graph.
fn hubs(b: &Bench, k: usize) -> Vec<Oid> {
    let inst = &b.gen.instance;
    let mut v: Vec<Oid> = inst.nodes().collect();
    v.sort_by_key(|&o| (std::cmp::Reverse(inst.outdegree(o)), o));
    v.truncate(k);
    v
}

/// `run_view` time of closure templates from hub sources at parallelism 1
/// over the time at `nproc`: the intra-query speed-up on this graph.
pub fn par_speedup(b: &Bench, snap: &DeltaGraph) -> f64 {
    let engine = |p: usize| {
        PlannedEngine::new(ProductEngine, b.set.clone(), b.gen.alphabet.clone()).with_config(
            PlannerConfig {
                parallelism: p,
                ..PlannerConfig::default()
            },
        )
    };
    let (seq, par) = (engine(1), engine(nproc()));
    let sources = hubs(b, 2);
    let mut times = [0.0f64; 2];
    for text in CLOSURE_TEMPLATES.iter().take(2) {
        let q = b.server.parse(text).expect("template parses");
        for &s in &sources {
            let req = served_request(SourceSpec::Source(s));
            for (i, e) in [&seq, &par].into_iter().enumerate() {
                black_box(e.run_view(&q, snap, &req));
                let t = Instant::now();
                black_box(e.run_view(&q, snap, &req));
                times[i] += ns(t.elapsed());
            }
        }
    }
    times[0] / times[1].max(1.0)
}

/// What the conjunctive probe measured: median `crpq_plan` and
/// `run_crpq` ns, and the work counters summed over its runs.
pub struct CrpqProbe {
    pub plan_ns: f64,
    pub run_ns: f64,
    pub runs: usize,
    pub atoms: usize,
    pub atom_edges: usize,
    pub atom_bindings: usize,
    pub bindings: usize,
}

/// Conjunctive probe for workloads without conjunctive traffic: the
/// `mixed_rw` templates, each with eight bound head sources, on this graph.
pub fn crpq(b: &Bench, snap: &DeltaGraph) -> CrpqProbe {
    let engine = b.server.engine();
    let mut rng = Rng::stream(b.seed, 21);
    let inst = &b.gen.instance;
    let sources: Vec<Oid> = inst.nodes().filter(|&v| inst.outdegree(v) > 0).collect();
    let (mut plan, mut run) = (Vec::new(), Vec::new());
    let mut p = CrpqProbe {
        plan_ns: 0.0,
        run_ns: 0.0,
        runs: 0,
        atoms: 0,
        atom_edges: 0,
        atom_bindings: 0,
        bindings: 0,
    };
    for text in CRPQ_TEMPLATES {
        let crpq = b.server.parse_crpq(text).expect("template parses");
        for _ in 0..8 {
            let s = sources[rng.below(sources.len())];
            let t = Instant::now();
            black_box(engine.crpq_plan(&crpq, snap, true, false));
            plan.push(ns(t.elapsed()));
            let req = served_request(SourceSpec::Conjunctive {
                sources: Some(vec![s]),
                targets: None,
            });
            let t = Instant::now();
            let resp = engine.run_crpq(&crpq, snap, &req);
            run.push(ns(t.elapsed()));
            p.runs += 1;
            p.atoms += resp.stats.atoms.len();
            p.atom_edges += resp
                .stats
                .atoms
                .iter()
                .map(|a| a.edges_scanned)
                .sum::<usize>();
            p.atom_bindings += resp.stats.atoms.iter().map(|a| a.bindings).sum::<usize>();
            p.bindings += resp.bindings().map_or(0, <[_]>::len);
        }
    }
    p.plan_ns = median(&mut plan);
    p.run_ns = median(&mut run);
    p
}

/// Commit probe for workloads without writes: 128-edge batches on a
/// private catalog over a copy of the base graph (median ns per commit),
/// and commits on a private catalog whose policy compacts every time.
pub fn commits(b: &Bench) -> (f64, f64) {
    let base = CsrGraph::from(&b.gen.instance);
    let n = base.num_nodes();
    let mut rng = Rng::stream(b.seed, 22);
    let mut batch = || {
        let mut d = EdgeDelta::new();
        for _ in 0..128 {
            let (f, t) = (Oid(rng.below(n) as u32), Oid(rng.below(n) as u32));
            d.add(f, b.gen.labels[rng.below(4)], t);
        }
        d
    };
    let time = |catalog: &Catalog, d: &EdgeDelta| {
        let t = Instant::now();
        black_box(catalog.commit(d));
        ns(t.elapsed())
    };
    let plain = Catalog::new(base.clone()).with_policy(CompactionPolicy::NEVER);
    let mut commit: Vec<f64> = (0..32).map(|_| time(&plain, &batch())).collect();
    drop(plain);
    let always = Catalog::new(base).with_policy(CompactionPolicy {
        max_log_ratio: 0.0,
        min_log_len: 1,
        max_overlay_row_fraction: 0.0,
    });
    let mut compact: Vec<f64> = (0..3).map(|_| time(&always, &batch())).collect();
    assert_eq!(
        always.compactions(),
        3,
        "the probe policy compacts on every commit"
    );
    (median(&mut commit), median(&mut compact))
}
