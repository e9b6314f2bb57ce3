//! Set-up and the timed traffic: every read goes text in, answers out
//! through `Session`, and every write through `Catalog::commit`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rpq_constraints::ConstraintSet;
use rpq_core::{EvalRequest, EvalResponse, EvalStats, SourceSpec};
use rpq_graph::{CsrGraph, DeltaGraph};
use rpq_server::{Catalog, Server, ServerConfig, Session, SubmitError};

use crate::gen::{self, Generated, Rng, WriteStream};
use crate::trace::{SpanBuf, Tracer};
use crate::workload::{self, Kind, Read, ReadMix, Spec};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A served workload, ready for timed traffic.
pub struct Bench {
    pub kind: Kind,
    pub seed: u64,
    pub server: Server,
    pub set: ConstraintSet,
    pub mix: ReadMix,
    pub gen: Generated,
    pub writes: Option<WriteStream>,
    pub setup_s: f64,
    pub build_ns: f64,
    pub check: String,
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Generate the workload's graph, check it, and time set-up: the program
/// calls before the first operation (`CsrGraph::from`, `Catalog::new`,
/// server construction), repeated [`SETUP_REPS`] times. Generation is the
/// benchmark's own work and is not timed.
pub fn setup(kind: Kind, seed: u64) -> Result<Bench, String> {
    let gen = match kind {
        Kind::PointLookup | Kind::ClosureScan => gen::rmat(
            seed,
            workload::RMAT_SCALE,
            workload::RMAT_EDGES,
            workload::RMAT_SHARES,
        ),
        Kind::MixedRw => gen::community(seed, &workload::COMMUNITY, workload::COMMUNITY_EDGES),
    };
    let check = gen::self_check(&gen, seed)?;
    let mix = ReadMix::new(kind, &gen.instance);
    let mut ab = gen.alphabet.clone();
    let set = match kind {
        Kind::MixedRw => ConstraintSet::parse(&mut ab, workload::CONSTRAINTS)
            .map_err(|e| format!("constraint text: {e:?}"))?,
        _ => ConstraintSet::default(),
    };
    let writes = (kind == Kind::MixedRw).then(|| {
        WriteStream::new(
            seed,
            &workload::COMMUNITY,
            &gen,
            workload::MIXED_BATCH_EDGES,
        )
    });
    let (mut total, mut build) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let t0 = Instant::now();
        let csr = CsrGraph::from(&gen.instance);
        let t1 = Instant::now();
        let catalog = Arc::new(Catalog::new(csr));
        let s = Server::with_constraints(catalog, set.clone(), gen.alphabet.clone())
            .with_config(ServerConfig::default());
        total.push(t0.elapsed().as_secs_f64());
        build.push((t1 - t0).as_nanos() as f64);
        server = Some(s);
    }
    let server = server.expect("at least one set-up repetition");
    if kind == Kind::MixedRw {
        gen::constraints_hold(&*server.catalog().pin(), &gen.labels)?;
    }
    Ok(Bench {
        kind,
        seed,
        server,
        set,
        mix,
        gen,
        writes,
        setup_s: median(&mut total),
        build_ns: median(&mut build),
        check,
    })
}

/// A served read kept for answer verification after the timed window.
pub struct Sample {
    pub read: Read,
    pub resp: EvalResponse,
    pub snapshot: Arc<DeltaGraph>,
}

/// Sums of the work counters of served responses.
#[derive(Default, Clone, Debug)]
pub struct StatsSum {
    pub reads: usize,
    pub edges_scanned: usize,
    pub pairs_visited: usize,
    pub answers: usize,
    pub push_levels: usize,
    pub pull_levels: usize,
    pub frontier_peak: usize,
    pub parallel_levels: usize,
    pub threads_used: usize,
    pub steal_count: usize,
    pub analysis_ns: u64,
    pub plan_hits: usize,
    pub plan_misses: usize,
    pub crpqs: usize,
    pub atoms: usize,
    pub atom_edges: usize,
    pub atom_bindings: usize,
    pub crpq_bindings: usize,
}

impl StatsSum {
    pub fn add(&mut self, s: &EvalStats, crpq: bool, bindings: usize) {
        self.reads += 1;
        self.edges_scanned += s.edges_scanned;
        self.pairs_visited += s.pairs_visited;
        self.answers += s.answers;
        self.push_levels += s.push_levels;
        self.pull_levels += s.pull_levels;
        self.frontier_peak += s.frontier_peak;
        self.parallel_levels += s.parallel_levels;
        self.threads_used += s.threads_used;
        self.steal_count += s.steal_count;
        self.analysis_ns += s.analysis_ns;
        self.plan_hits += s.plan_cache_hits;
        self.plan_misses += s.plan_cache_misses;
        if crpq {
            self.crpqs += 1;
            self.atoms += s.atoms.len();
            self.atom_edges += s.atoms.iter().map(|a| a.edges_scanned).sum::<usize>();
            self.atom_bindings += s.atoms.iter().map(|a| a.bindings).sum::<usize>();
            self.crpq_bindings += bindings;
        }
    }

    fn merge(&mut self, o: &StatsSum) {
        self.reads += o.reads;
        self.edges_scanned += o.edges_scanned;
        self.pairs_visited += o.pairs_visited;
        self.answers += o.answers;
        self.push_levels += o.push_levels;
        self.pull_levels += o.pull_levels;
        self.frontier_peak += o.frontier_peak;
        self.parallel_levels += o.parallel_levels;
        self.threads_used += o.threads_used;
        self.steal_count += o.steal_count;
        self.analysis_ns += o.analysis_ns;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.crpqs += o.crpqs;
        self.atoms += o.atoms;
        self.atom_edges += o.atom_edges;
        self.atom_bindings += o.atom_bindings;
        self.crpq_bindings += o.crpq_bindings;
    }
}

/// What one timed window produced.
#[derive(Default)]
pub struct Traffic {
    /// Read latencies in ns, with a conjunctive flag.
    pub reads: Vec<(u64, bool)>,
    /// Commit latencies in ns, with a compaction flag.
    pub commits: Vec<(u64, bool)>,
    /// How late each open-loop operation (a commit) was sent, in ns.
    pub lags: Vec<u64>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub samples: Vec<Sample>,
    pub stats: StatsSum,
    pub active_peak: usize,
    pub elapsed_s: f64,
    pub spans: Vec<crate::trace::Span>,
    /// Time-averaged overlay rows and log length of the served snapshot.
    pub overlay_rows: f64,
    pub log_len: f64,
}

impl Traffic {
    fn absorb(&mut self, c: ClientOut) {
        self.reads.extend(c.reads);
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.failures.extend(c.failures);
        self.samples.extend(c.samples);
        self.stats.merge(&c.stats);
        self.active_peak = self.active_peak.max(c.active_peak);
        self.spans.extend(c.spans);
    }
}

#[derive(Default)]
struct ClientOut {
    reads: Vec<(u64, bool)>,
    /// Verification samples kept per snapshot slot.
    kept: [usize; VERIFY_SNAPSHOTS],
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    samples: Vec<Sample>,
    stats: StatsSum,
    active_peak: usize,
    spans: Vec<crate::trace::Span>,
}

impl ClientOut {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// `spec` as `Session::submit` hands it to the engine: with a
/// cancellation flag, which routes evaluation through the controlled
/// kernels. Replays use this form so they time the path the server ran.
pub fn served_request(spec: SourceSpec) -> EvalRequest {
    EvalRequest::new(spec).with_cancel(Arc::new(AtomicBool::new(false)))
}

/// Join a handle, turning a worker panic into an error.
fn join(h: rpq_server::QueryHandle) -> Result<EvalResponse, String> {
    catch_unwind(AssertUnwindSafe(|| h.join())).map_err(|_| "query worker panicked".to_string())
}

fn submit_error(e: SubmitError) -> String {
    format!("submit: {e}")
}

/// One read, text in to answers out, and the instant the answers were
/// out. Untraced it is exactly `submit_text` → `join`; traced it runs the
/// same work through the decomposed public calls (`parse` → `plan` →
/// `submit` → `join`) under spans, then replays the evaluation on the same
/// snapshot after the answers are out.
fn serve_read(
    b: &Bench,
    session: &Session<'_>,
    read: &Read,
    trace: Option<&mut SpanBuf<'_>>,
) -> (Result<EvalResponse, String>, Instant) {
    let text = b.mix.templates[read.template].as_str();
    let spec = read.spec.to_source_spec();
    let Some(buf) = trace else {
        let r = session
            .submit_text(text, spec)
            .map_err(submit_error)
            .and_then(join);
        return (r, Instant::now());
    };
    let server = &b.server;
    let snap = session.snapshot().clone();
    let req = buf.tracer.request();
    let root = buf.tracer.span_id();
    let start = buf.tracer.now();
    let mut done = None;
    let mut finish = |buf: &mut SpanBuf<'_>| {
        done = Some(Instant::now());
        buf.record("bench.request", root, 0, req, start, buf.tracer.now());
    };
    let resp = if read.is_crpq() {
        let (crpq, _) = buf.time("automata.parse", root, req, || server.parse_crpq(text));
        crpq.map_err(|e| format!("parse: {e:?}")).and_then(|crpq| {
            buf.time("optimizer.crpq_plan", root, req, || {
                server.engine().crpq_plan(&crpq, &*snap, true, false)
            });
            let (h, _) = buf.time("server.submit", root, req, || {
                session.submit_crpq(&crpq, EvalRequest::new(spec.clone()))
            });
            let h = h.map_err(submit_error)?;
            let (resp, _) = buf.time("server.join", root, req, || join(h));
            finish(buf);
            let (replay, _) = buf.time("optimizer.run_crpq", 0, req, || {
                server
                    .engine()
                    .run_crpq(&crpq, &*snap, &served_request(spec))
            });
            buf.spans.last_mut().expect("just recorded").work = replay.stats.edges_scanned as u64;
            resp
        })
    } else {
        let (q, _) = buf.time("automata.parse", root, req, || server.parse(text));
        q.map_err(|e| format!("parse: {e:?}")).and_then(|q| {
            buf.time("optimizer.plan", root, req, || {
                server.engine().plan(&q, &*snap)
            });
            let (h, _) = buf.time("server.submit", root, req, || {
                session.submit(&q, EvalRequest::new(spec.clone()))
            });
            let h = h.map_err(submit_error)?;
            let (resp, _) = buf.time("server.join", root, req, || join(h));
            finish(buf);
            let (replay, _) = buf.time("optimizer.run_view", 0, req, || {
                server.engine().run_view(&q, &*snap, &served_request(spec))
            });
            buf.spans.last_mut().expect("just recorded").work = replay.stats.edges_scanned as u64;
            resp
        })
    };
    (resp, done.unwrap_or_else(Instant::now))
}

/// Account one finished read: latency, failure, counters, sampling.
fn finish_read(
    out: &mut ClientOut,
    read: &Read,
    result: Result<EvalResponse, String>,
    latency: Duration,
    snapshot: &Arc<DeltaGraph>,
    keep_sample: bool,
) {
    out.attempted += 1;
    out.reads.push((latency.as_nanos() as u64, read.is_crpq()));
    match result {
        Err(e) => out.fail(e),
        Ok(resp) => {
            if !resp.termination.is_complete() {
                out.fail(format!("termination {:?}", resp.termination));
                return;
            }
            let bindings = resp.bindings().map_or(0, <[_]>::len);
            out.stats.add(&resp.stats, read.is_crpq(), bindings);
            if keep_sample {
                out.samples.push(Sample {
                    read: read.clone(),
                    resp,
                    snapshot: snapshot.clone(),
                });
            }
        }
    }
}

/// Verification samples per workload: (stride between sampled reads, cap
/// per client and snapshot slot).
fn sampling(kind: Kind) -> (usize, usize) {
    match kind {
        Kind::PointLookup => (997, 16),
        Kind::ClosureScan => (7, 3),
        Kind::MixedRw => (1, 16),
    }
}

/// Verification snapshots: reads are kept from at most this many
/// snapshots, fixed at even points across the window (the first kept read
/// after a point fixes its snapshot), so verification rebuilds few graphs.
const VERIFY_SNAPSHOTS: usize = 2;

/// The snapshot slot of this read (at `elapsed` of `window`, on `snap`),
/// if it is one to verify.
fn verify_slot(
    slots: &Mutex<Vec<Option<Arc<DeltaGraph>>>>,
    elapsed: Duration,
    window: Duration,
    snap: &Arc<DeltaGraph>,
) -> Option<usize> {
    let k = (elapsed.as_secs_f64() / window.as_secs_f64() * (VERIFY_SNAPSHOTS + 1) as f64) as usize;
    let k = k.checked_sub(1)?;
    let mut slots = slots.lock().expect("slot lock");
    match slots.get_mut(k)? {
        slot @ None => {
            *slot = Some(snap.clone());
            Some(k)
        }
        Some(s) => Arc::ptr_eq(s, snap).then_some(k),
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run the workload's traffic for `seconds`: closed-loop read clients,
/// each sending its next read as soon as the previous one returned, plus
/// on `mixed_rw` an open-loop writer committing at a fixed rate, each
/// commit timed from its due time (the lag is how late it was sent).
/// Sessions re-pin whenever a commit published a new epoch. With a
/// tracer, reads and commits are traced (see [`serve_read`]).
pub fn traffic(b: &mut Bench, seconds: f64, tracer: Option<&Tracer>, phase: u64) -> Traffic {
    let clients = match b.kind {
        Kind::PointLookup | Kind::MixedRw => nproc(),
        Kind::ClosureScan => 1,
    };
    let mut writes = b.writes.take();
    let b_ref: &Bench = b;
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let deadline = start + window;
    let (stride, cap) = sampling(b_ref.kind);
    let slots: Mutex<Vec<Option<Arc<DeltaGraph>>>> = Mutex::new(vec![None; VERIFY_SNAPSHOTS]);
    let mut writer = Writer::default();
    let (outs, overlay): (Vec<ClientOut>, (f64, f64)) = std::thread::scope(|sc| {
        let clients: Vec<_> = (0..clients)
            .map(|c| {
                let slots = &slots;
                sc.spawn(move || {
                    let b = b_ref;
                    let mut session = b.server.session();
                    let mut rng = Rng::stream(b.seed, 100 + phase * 64 + c as u64);
                    let mut buf = tracer.map(SpanBuf::new);
                    let mut out = ClientOut::default();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let read = b.mix.draw(&mut rng, i);
                        if b.server.catalog().epoch() != session.epoch() {
                            session.refresh();
                        }
                        let sent = Instant::now();
                        let (res, done) = serve_read(b, &session, &read, buf.as_mut());
                        out.active_peak = out.active_peak.max(b.server.active_queries());
                        let slot = i
                            .is_multiple_of(stride)
                            .then(|| verify_slot(slots, sent - start, window, session.snapshot()))
                            .flatten()
                            .filter(|&k| out.kept[k] < cap);
                        if let Some(k) = slot {
                            out.kept[k] += 1;
                        }
                        let keep = slot.is_some();
                        finish_read(&mut out, &read, res, done - sent, session.snapshot(), keep);
                        i += 1;
                    }
                    if let Some(buf) = buf {
                        out.spans = buf.spans;
                    }
                    out
                })
            })
            .collect();
        let overlay = match writes.as_mut() {
            Some(w) => writer.run(b_ref, w, start, deadline, tracer),
            None => (0.0, 0.0),
        };
        let outs = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, overlay)
    });
    let mut t = Traffic {
        elapsed_s: start.elapsed().as_secs_f64(),
        overlay_rows: overlay.0,
        log_len: overlay.1,
        ..Traffic::default()
    };
    for o in outs {
        t.absorb(o);
    }
    t.attempted += writer.commits.len();
    t.failed += writer.failed;
    if writer.failed > 0 {
        t.failures.push(format!(
            "{} commits applied fewer edges than sent",
            writer.failed
        ));
    }
    t.commits = writer.commits;
    t.lags = writer.lags;
    t.spans.extend(writer.spans);
    b.writes = writes;
    t
}

/// The open-loop writer's record.
#[derive(Default)]
struct Writer {
    commits: Vec<(u64, bool)>,
    lags: Vec<u64>,
    failed: usize,
    spans: Vec<crate::trace::Span>,
}

impl Writer {
    /// Commit one batch every `1 / MIXED_COMMITS_PER_S` until `deadline`;
    /// returns the time-averaged overlay rows and log length of the
    /// published snapshot, sampled after each commit.
    fn run(
        &mut self,
        b: &Bench,
        writes: &mut WriteStream,
        start: Instant,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> (f64, f64) {
        let period = Duration::from_secs_f64(1.0 / workload::MIXED_COMMITS_PER_S);
        let catalog = b.server.catalog();
        let mut buf = tracer.map(SpanBuf::new);
        let (mut rows, mut log) = (0.0, 0.0);
        let mut j = 0u32;
        loop {
            let due = start + period * j;
            if due >= deadline {
                break;
            }
            let delta = writes.next_batch();
            sleep_until(due);
            let sent = Instant::now();
            self.lags.push((sent - due).as_nanos() as u64);
            let t0 = buf.as_ref().map(|b| b.tracer.now());
            let commit = catalog.commit(&delta);
            let done = Instant::now();
            if let (Some(buf), Some(t0)) = (buf.as_mut(), t0) {
                let name = if commit.compacted {
                    "server.compact_commit"
                } else {
                    "server.commit"
                };
                let (id, req) = (buf.tracer.span_id(), buf.tracer.request());
                let end = t0 + (done - sent).as_nanos() as u64;
                buf.record(name, id, 0, req, t0, end);
            }
            if commit.applied != delta.len() {
                self.failed += 1;
            }
            self.commits
                .push(((done - due).as_nanos() as u64, commit.compacted));
            // Off the clock: the overlay the next reads will merge.
            let snap = catalog.pin();
            rows += snap.overlay_rows() as f64;
            log += snap.log_len() as f64;
            j += 1;
        }
        if let Some(buf) = buf {
            self.spans = buf.spans;
        }
        let n = f64::from(j.max(1));
        (rows / n, log / n)
    }
}

/// Warm the plan memo and scratch pool: every template once, untimed.
pub fn warm(b: &Bench) -> Result<(), String> {
    let session = b.server.session();
    let mut rng = Rng::stream(b.seed, 7);
    for template in 0..b.mix.templates.len() {
        let mut read = b.mix.draw(&mut rng, 0);
        while read.is_crpq() != b.mix.templates[template].contains(":-") {
            read = b.mix.draw(&mut rng, 0);
        }
        if let Spec::Sources(ss) = &mut read.spec {
            ss.truncate(8);
        }
        read.template = template;
        let resp = serve_read(b, &session, &read, None).0?;
        if !resp.termination.is_complete() {
            return Err(format!("warm-up read ended {:?}", resp.termination));
        }
    }
    Ok(())
}
