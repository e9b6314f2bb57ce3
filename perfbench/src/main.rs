//! The repository benchmark: three served workloads timed end to end
//! through `Session`, plus a traced run that splits the same path into
//! layers. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod gen;
mod probes;
mod serve;
mod trace;
mod verify;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use serve::{median, Bench, Traffic};
use workload::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut spans) = (1u64, 10.0f64, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required (point_lookup, closure_scan, mixed_rw)")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

/// Nearest-rank percentile of sorted samples, and how many lie beyond it.
fn percentile(sorted: &[u64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1] as f64, sorted.len() - rank)
}

fn sorted(v: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = v.collect();
    v.sort_unstable();
    v
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU counters from `/proc/stat`: (steal ticks, all ticks). On a
/// virtual machine the host may run other guests on this one's CPUs; the
/// stolen share of a run explains timing noise no code change caused.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64)
}

/// Named metrics in print order, with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
                .expect("string write");
        }
        s.push('}');
        s
    }
}

/// Latency figures of one traffic window, as the report lines and the
/// end-to-end metrics name them.
struct Latency {
    read_p50_us: f64,
    read_tail_us: f64,
    tail_p: f64,
    tail_beyond: usize,
    reads: usize,
    read_qps: f64,
}

fn latency(kind: Kind, t: &Traffic) -> Latency {
    let reads = sorted(t.reads.iter().map(|r| r.0));
    let tail_p = kind.tail_percentile();
    let (tail, beyond) = percentile(&reads, tail_p);
    Latency {
        read_p50_us: percentile(&reads, 50.0).0 / 1e3,
        read_tail_us: tail / 1e3,
        tail_p,
        tail_beyond: beyond,
        reads: reads.len(),
        read_qps: reads.len() as f64 / t.elapsed_s,
    }
}

/// Print one report line per metric that a workload may lack, or say why
/// it has none.
fn report_latency(name: &str, samples: &[u64], tail_p: f64, none: &str) {
    if samples.is_empty() {
        println!("metric {name}_p50_us n/a ({none})");
        println!("metric {name}_tail_us n/a ({none})");
        return;
    }
    let (p50, _) = percentile(samples, 50.0);
    let (tail, beyond) = percentile(samples, tail_p);
    println!(
        "metric {name}_p50_us {:.3} us (n={})",
        p50 / 1e3,
        samples.len()
    );
    println!(
        "metric {name}_tail_us {:.3} us (p{tail_p} of n={}, {beyond} samples beyond)",
        tail / 1e3,
        samples.len()
    );
}

/// Print the verification outcome; returns the mismatch count.
fn verify_and_report(b: &Bench, samples: &[serve::Sample]) -> Result<usize, String> {
    let t = std::time::Instant::now();
    let (checked, bad) = verify::verify(&b.server, &b.mix.templates, samples);
    println!(
        "verify checked={checked} mismatches={} in {:.2}s",
        bad.len(),
        t.elapsed().as_secs_f64()
    );
    for e in bad.iter().take(8) {
        println!("verify mismatch: {e}");
    }
    if b.kind == Kind::MixedRw {
        gen::constraints_hold(&*b.server.catalog().pin(), &b.gen.labels)
            .map_err(|e| format!("write stream broke a constraint: {e}"))?;
        println!("verify constraints hold on the final snapshot");
    }
    if checked == 0 {
        return Err("no served answer was verified".into());
    }
    Ok(bad.len())
}

fn report_failures(t: &Traffic) {
    for f in &t.failures {
        println!("failure: {f}");
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end(b: &mut Bench, seconds: f64) -> Result<(bool, usize, usize, Metrics), String> {
    let ticks = cpu_ticks();
    let t = serve::traffic(b, seconds, None, 0);
    let steal = steal_share(ticks, cpu_ticks());
    let lat = latency(b.kind, &t);
    let rss = peak_rss_mb();
    let mismatches = verify_and_report(b, &t.samples)?;
    report_failures(&t);
    let failed = t.failed + mismatches;
    println!("metric setup_s {:.6} s (median of set-ups)", b.setup_s);
    println!(
        "metric read_p50_us {:.3} us (n={})",
        lat.read_p50_us, lat.reads
    );
    println!(
        "metric read_tail_us {:.3} us (p{} of n={}, {} samples beyond)",
        lat.read_tail_us, lat.tail_p, lat.reads, lat.tail_beyond
    );
    let all = sorted(t.reads.iter().map(|r| r.0));
    let ladder: Vec<String> = [75.0, 90.0, 99.0, 99.9]
        .iter()
        .map(|&p| {
            let (v, beyond) = percentile(&all, p);
            format!("p{p}={:.1}us({beyond} beyond)", v / 1e3)
        })
        .collect();
    println!("read percentiles {}", ladder.join(" "));
    if lat.tail_beyond < 10 {
        println!("warning: fewer than 10 reads beyond p{}", lat.tail_p);
    }
    println!("metric read_qps {:.1} 1/s", lat.read_qps);
    let crpq = sorted(t.reads.iter().filter(|r| r.1).map(|r| r.0));
    report_latency(
        "crpq",
        &crpq,
        lat.tail_p,
        "no conjunctive reads in this workload",
    );
    let commits = sorted(t.commits.iter().map(|c| c.0));
    report_latency("commit", &commits, 99.0, "no writes in this workload");
    let compactions = t.commits.iter().filter(|c| c.1).count();
    if b.kind == Kind::MixedRw {
        println!(
            "metric commits {} count ({compactions} compactions)",
            commits.len()
        );
        if compactions < 2 {
            println!("warning: fewer than two compactions in the window");
        }
    }
    println!(
        "metric failed_frac {:.6} ratio ({failed} of {} operations)",
        failed as f64 / t.attempted.max(1) as f64,
        t.attempted
    );
    println!("metric peak_rss_mb {rss:.1} MB");
    let lags = sorted(t.lags.iter().copied());
    println!(
        "metric bench.generator_lag_p99_us {:.3} us",
        percentile(&lags, 99.0).0 / 1e3
    );
    println!("metric bench.cpu_steal {steal:.4} ratio (host CPU time stolen during the window)");
    let mut m = Metrics::default();
    m.put("setup_s", b.setup_s, "s");
    m.put("read_p50_us", lat.read_p50_us, "us");
    m.put("read_tail_us", lat.read_tail_us, "us");
    m.put("read_qps", lat.read_qps, "1/s");
    m.put("peak_rss_mb", rss, "MB");
    Ok((mismatches == 0, t.attempted, failed, m))
}

fn median_of(spans: &[trace::Span], name: &str) -> Option<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect();
    (!v.is_empty()).then(|| median(&mut v))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The traced run: half the window untraced (counts, and the untraced
/// latency for the trace overhead), half traced, then the layer probes.
fn traced(
    b: &mut Bench,
    seconds: f64,
    spans_path: PathBuf,
) -> Result<(bool, usize, usize, Metrics), String> {
    let pool = b.server.engine().scratch_pool();
    let (allocs0, reuses0) = (pool.allocs(), pool.reuses());
    let ticks = cpu_ticks();
    let mut plain = serve::traffic(b, seconds / 2.0, None, 1);
    let steal = steal_share(ticks, cpu_ticks());
    let pool = b.server.engine().scratch_pool();
    let (allocs, reuses) = (pool.allocs() - allocs0, pool.reuses() - reuses0);
    let tracer = trace::Tracer::new();
    let mut traced = serve::traffic(b, seconds / 2.0, Some(&tracer), 2);
    let untraced_lat = latency(b.kind, &plain);
    let traced_lat = latency(b.kind, &traced);
    let spans = &traced.spans;

    let probe_start = std::time::Instant::now();
    let snap = b.server.catalog().pin();
    let (out_ns, rev_ns) = probes::graph_rows(b, &snap);
    let (plan_cold, plan_warm) = probes::plans(b, &snap);
    let dop = probes::dop_chosen(b, &snap);
    let speedup = probes::par_speedup(b, &snap);
    let record_ns = probes::metrics_record(&rpq_core::EvalStats {
        edges_scanned: 100,
        answers: 10,
        ..rpq_core::EvalStats::default()
    });
    // Only mixed_rw's own traffic has conjunctive reads and commits; on the
    // other workloads probes on their graph stand in.
    let own = b.kind == Kind::MixedRw;
    let crpq_probe = (!own).then(|| probes::crpq(b, &snap));
    let commit_probe = (!own).then(|| probes::commits(b));

    println!("probes took {:.2}s", probe_start.elapsed().as_secs_f64());
    let mut samples = std::mem::take(&mut plain.samples);
    samples.extend(std::mem::take(&mut traced.samples));
    let mismatches = verify_and_report(b, &samples)?;
    report_failures(&plain);
    report_failures(&traced);

    let s = &plain.stats;
    let reads = s.reads.max(1) as f64;
    let mut m = Metrics::default();
    m.put(
        "automata.parse_ns",
        median_of(spans, "automata.parse").unwrap_or(0.0),
        "ns",
    );
    m.put(
        "server.submit_ns",
        median_of(spans, "server.submit").unwrap_or(0.0),
        "ns",
    );
    m.put(
        "server.join_wait_ns",
        median_of(spans, "server.join").unwrap_or(0.0),
        "ns",
    );
    // Serving overhead per request: submit + join minus the replayed
    // evaluation of the same request on the same snapshot.
    let mut per_req: std::collections::HashMap<u64, (u64, u64)> = Default::default();
    for sp in spans {
        let e = per_req.entry(sp.req).or_default();
        match sp.name {
            "server.submit" | "server.join" => e.0 += sp.dur(),
            "optimizer.run_view" | "optimizer.run_crpq" => e.1 += sp.dur(),
            _ => {}
        }
    }
    let mut overhead: Vec<f64> = per_req
        .values()
        .filter(|(served, replay)| *served > 0 && *replay > 0)
        .map(|&(served, replay)| served as f64 - replay as f64)
        .collect();
    m.put("server.overhead_ns", median(&mut overhead), "ns");
    m.put(
        "server.rejected",
        b.server.metrics().rejected() as f64,
        "count",
    );
    m.put(
        "server.active_peak",
        plain.active_peak.max(traced.active_peak) as f64,
        "count",
    );
    m.put("server.metrics_record_ns", record_ns, "ns");
    let (commit_ns, compact_ns) = match commit_probe {
        Some(p) => p,
        None => {
            let mut c: Vec<f64> = plain
                .commits
                .iter()
                .filter(|c| !c.1)
                .map(|c| c.0 as f64)
                .collect();
            let mut k: Vec<f64> = plain
                .commits
                .iter()
                .filter(|c| c.1)
                .map(|c| c.0 as f64)
                .collect();
            (
                median_of(spans, "server.commit").unwrap_or_else(|| median(&mut c)),
                median_of(spans, "server.compact_commit").unwrap_or_else(|| median(&mut k)),
            )
        }
    };
    m.put("server.commit_ns", commit_ns, "ns");
    m.put("server.compact_commit_ns", compact_ns, "ns");
    m.put(
        "server.commits",
        b.server.catalog().commits() as f64,
        "count",
    );
    m.put(
        "server.compactions",
        b.server.catalog().compactions() as f64,
        "count",
    );
    m.put("graph.out_ns", out_ns, "ns");
    m.put("graph.rev_ns", rev_ns, "ns");
    m.put("graph.overlay_rows", plain.overlay_rows, "count");
    m.put("graph.log_len", plain.log_len, "count");
    m.put("graph.build_ns", b.build_ns, "ns");
    m.put("optimizer.plan_warm_ns", plan_warm, "ns");
    m.put("optimizer.plan_cold_ns", plan_cold, "ns");
    m.put(
        "optimizer.plan_hit_ratio",
        ratio(s.plan_hits as f64, (s.plan_hits + s.plan_misses) as f64),
        "ratio",
    );
    let run_view_ns = median_of(spans, "optimizer.run_view").unwrap_or(0.0);
    m.put("optimizer.run_view_ns", run_view_ns, "ns");
    m.put("optimizer.analysis_ns", s.analysis_ns as f64 / reads, "ns");
    m.put("optimizer.dop_chosen", dop, "count");
    let (crpq_plan_ns, run_crpq_ns, atoms, atom_edges, join_yield) = match &crpq_probe {
        Some(p) => (
            p.plan_ns,
            p.run_ns,
            ratio(p.atoms as f64, p.runs as f64),
            ratio(p.atom_edges as f64, p.runs as f64),
            ratio(p.bindings as f64, p.atom_bindings as f64),
        ),
        None => (
            median_of(spans, "optimizer.crpq_plan").unwrap_or(0.0),
            median_of(spans, "optimizer.run_crpq").unwrap_or(0.0),
            ratio(s.atoms as f64, s.crpqs as f64),
            ratio(s.atom_edges as f64, s.crpqs as f64),
            ratio(s.crpq_bindings as f64, s.atom_bindings as f64),
        ),
    };
    m.put("optimizer.crpq_plan_ns", crpq_plan_ns, "ns");
    m.put("optimizer.run_crpq_ns", run_crpq_ns, "ns");
    m.put("optimizer.atoms_evaluated", atoms, "count");
    m.put("optimizer.atom_edges_scanned", atom_edges, "count");
    m.put("optimizer.join_yield", join_yield, "ratio");
    m.put(
        "core.edges_scanned",
        s.edges_scanned as f64 / reads,
        "count",
    );
    m.put(
        "core.pairs_visited",
        s.pairs_visited as f64 / reads,
        "count",
    );
    m.put(
        "core.answer_yield",
        ratio(s.answers as f64, s.pairs_visited as f64),
        "ratio",
    );
    let (replay_ns, replay_edges) = spans
        .iter()
        .filter(|sp| sp.name == "optimizer.run_view")
        .fold((0u64, 0u64), |(t, e), sp| (t + sp.dur(), e + sp.work));
    m.put(
        "core.ns_per_edge",
        ratio(replay_ns as f64, replay_edges as f64),
        "ns",
    );
    m.put("core.push_levels", s.push_levels as f64 / reads, "count");
    m.put("core.pull_levels", s.pull_levels as f64 / reads, "count");
    m.put(
        "core.frontier_peak",
        s.frontier_peak as f64 / reads,
        "count",
    );
    m.put(
        "core.parallel_levels",
        s.parallel_levels as f64 / reads,
        "count",
    );
    m.put("core.threads_used", s.threads_used as f64 / reads, "count");
    m.put("core.steal_count", s.steal_count as f64 / reads, "count");
    m.put("core.par_speedup", speedup, "ratio");
    m.put(
        "core.scratch_reuse_ratio",
        ratio(reuses as f64, (allocs + reuses) as f64),
        "ratio",
    );
    let lags = sorted(plain.lags.iter().copied());
    m.put(
        "bench.generator_lag_p99_us",
        percentile(&lags, 99.0).0 / 1e3,
        "us",
    );
    m.put("bench.cpu_steal", steal, "ratio");
    m.put(
        "bench.trace_overhead",
        traced_lat.read_p50_us - untraced_lat.read_p50_us,
        "us",
    );
    // Self time per layer along the request and commit paths, per traced
    // operation.
    let ops = (traced.reads.len() + traced.commits.len()).max(1) as f64;
    let layers = trace::layer_self_ns(spans);
    for layer in ["automata", "bench", "optimizer", "server"] {
        let total = layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, t)| *t);
        m.put(&format!("{layer}.self_us"), total as f64 / ops / 1e3, "us");
    }
    for (name, value, unit) in &m.0 {
        println!("metric {name} {value:.3} {unit}");
    }
    println!(
        "trace untraced_read_p50_us={:.3} traced_read_p50_us={:.3} traced_ops={} spans={}",
        untraced_lat.read_p50_us,
        traced_lat.read_p50_us,
        ops,
        spans.len()
    );
    match trace::dump(&spans_path, spans) {
        Ok(()) => println!("trace spans written to {}", spans_path.display()),
        Err(e) => println!("trace spans not written ({}): {e}", spans_path.display()),
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed + mismatches;
    Ok((mismatches == 0, attempted, failed, m))
}

fn run(a: Args) -> Result<bool, String> {
    println!(
        "stamp workload={} seed={} seconds={} trace={} nproc={} rustc={}",
        a.kind.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        serve::nproc(),
        env!("PERFBENCH_RUSTC"),
    );
    let t = std::time::Instant::now();
    let mut b = serve::setup(a.kind, a.seed)?;
    println!(
        "graph {} (generated and set up in {:.2}s)",
        b.check,
        t.elapsed().as_secs_f64()
    );
    let t = std::time::Instant::now();
    serve::warm(&b)?;
    println!("warm-up took {:.2}s", t.elapsed().as_secs_f64());
    let (correct, attempted, failed, metrics) = if a.trace {
        let path = a.spans.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}.tsv", a.kind.name()))
        });
        traced(&mut b, a.seconds, path)?
    } else {
        end_to_end(&mut b, a.seconds)?
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
