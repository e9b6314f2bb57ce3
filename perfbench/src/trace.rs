//! In-memory spans for the traced run, kept entirely in benchmark code.
//!
//! A span is one call into a layer's public function: name (`layer.call`),
//! start, end, the span that caused it, and the request it belongs to.
//! Client threads fill their own [`SpanBuf`]s; the run merges them, derives
//! each layer's self time, and writes them out as TSV.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Edges scanned inside the span, where the call reports it.
    pub work: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Id and clock source shared by every thread of one traced run.
pub struct Tracer {
    epoch: Instant,
    ids: AtomicU64,
    reqs: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            ids: AtomicU64::new(1),
            reqs: AtomicU64::new(1),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn request(&self) -> u64 {
        self.reqs.fetch_add(1, Ordering::Relaxed)
    }

    pub fn span_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }
}

/// One thread's spans.
pub struct SpanBuf<'t> {
    pub tracer: &'t Tracer,
    pub spans: Vec<Span>,
}

impl<'t> SpanBuf<'t> {
    pub fn new(tracer: &'t Tracer) -> SpanBuf<'t> {
        SpanBuf {
            tracer,
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span named `name` under `parent` (0 = root); returns
    /// its result and the span's id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.tracer.span_id();
        let start = self.tracer.now();
        let r = f();
        let end = self.tracer.now();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
            work: 0,
        });
        (r, id)
    }

    /// Record a span whose bounds were taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: u64,
        start: u64,
        end: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
            work: 0,
        });
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's (merged) intervals cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Replays of an evaluation on the request's snapshot: timed for the
/// layer metrics, but not part of any request's path.
pub const REPLAYS: [&str; 2] = ["optimizer.run_view", "optimizer.run_crpq"];

/// Total self time per layer along the request and commit paths (replays
/// excluded), in nanoseconds, sorted by layer name.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by: HashMap<&'static str, u64> = HashMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if !REPLAYS.contains(&s.name) {
            *by.entry(s.layer()).or_default() += t;
        }
    }
    let mut v: Vec<_> = by.into_iter().collect();
    v.sort_unstable();
    v
}

/// Write spans as TSV: `id parent req name start_ns end_ns self_ns work`.
pub fn dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\twork")?;
    for (s, t) in spans.iter().zip(self_times(spans)) {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start, s.end, t, s.work
        )?;
    }
    w.flush()
}
