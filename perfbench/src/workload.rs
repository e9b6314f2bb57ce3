//! The three workloads: graph, query templates, operation mix and load
//! shape. Everything here is derived from the seed alone.

use rpq_core::SourceSpec;
use rpq_graph::{Instance, Oid};

use crate::gen::{CommunityShape, Rng, Weighted};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    PointLookup,
    ClosureScan,
    MixedRw,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "point_lookup" => Some(Kind::PointLookup),
            "closure_scan" => Some(Kind::ClosureScan),
            "mixed_rw" => Some(Kind::MixedRw),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PointLookup => "point_lookup",
            Kind::ClosureScan => "closure_scan",
            Kind::MixedRw => "mixed_rw",
        }
    }

    /// The read percentile reported as `read_tail_us`, fixed per workload
    /// so runs compare like with like: the highest one whose run-to-run
    /// spread stayed steady on a 2-vCPU VM, each with well over ten reads
    /// beyond it in a 20 s run (hundreds on `point_lookup` and `mixed_rw`,
    /// ~40 on `closure_scan`). Higher percentiles are printed as well.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::PointLookup => 99.0,
            Kind::ClosureScan => 80.0,
            Kind::MixedRw => 90.0,
        }
    }
}

/// R-MAT shape of `point_lookup` and `closure_scan`.
pub const RMAT_SCALE: u32 = 18;
pub const RMAT_EDGES: usize = 1_000_000;
pub const RMAT_SHARES: [f64; 4] = [0.5, 0.25, 0.15, 0.1];

/// Community shape of `mixed_rw`.
pub const COMMUNITY: CommunityShape = CommunityShape {
    nodes: 1 << 17,
    community: 128,
    cross: 0.15,
};
pub const COMMUNITY_EDGES: usize = 500_000;

/// Path constraints served on `mixed_rw`; the generator and the write
/// stream keep both true.
pub const CONSTRAINTS: [&str; 2] = ["d <= a", "b <= c"];

/// `mixed_rw` load: `nproc` closed-loop read clients, as on
/// `point_lookup`, beside open-loop commits of `MIXED_BATCH_EDGES` edge
/// mutations at a fixed rate. At this rate the default compaction policy
/// fires every ~280 commits, four times in a 20 s window with ~2 s to
/// spare at either end.
///
/// Reads have no think time. With one, each CPU idles between reads and
/// a read's latency is mostly the virtual CPU waking up: on a 2-vCPU VM
/// one client's p50 read took 90–140 us with a 0.8 ms think time and
/// 40–50 us without, and the p90 read of four clients with a 4 ms think
/// time moved by a third from run to run with the host's load.
pub const MIXED_COMMITS_PER_S: f64 = 63.0;
pub const MIXED_BATCH_EDGES: usize = 128;
pub const MIXED_CRPQ_SHARE: f64 = 0.2;

/// Broad Kleene-closure templates of `closure_scan` (also the templates
/// the traced run's parallel-speedup probe replays).
pub const CLOSURE_TEMPLATES: [&str; 8] = [
    "(a+b)*.c",
    "a*.d",
    "b.(a+b+c+d)*.d",
    "(a+c)*.b",
    "c.(a+b)*",
    "(b+c+d)*.a",
    "a.(b+c)*.d",
    "(a+b+c)*",
];

/// `closure_scan` batch reads: sources per batch, and one batch in this
/// many reads.
pub const CLOSURE_BATCH: usize = 8;
pub const CLOSURE_BATCH_EVERY: usize = 16;

/// Conjunctive templates of `mixed_rw`, always with the head source bound.
/// Atoms are finite languages so the naive reference join stays cheap.
pub const CRPQ_TEMPLATES: [&str; 4] = [
    "ans(x, z) :- x -[a]-> y, y -[b.c?]-> z",
    "ans(x, z) :- x -[(a+d)]-> y, y -[c]-> z",
    "ans(x, w) :- x -[a]-> y, y -[b]-> z, z -[c.d?]-> w",
    "ans(x, z) :- x -[c]-> y, y -[a]-> z, x -[a.a]-> z",
];

/// Short point templates: words of length 1–3 over `atoms`, plain or with
/// the last atom optional. A fixed shuffle picks `count` of them and their
/// rank is their popularity, so every seed serves the same template mix.
///
/// There is no one-or-more (`x.x*`) form: on both graphs a `d.d*` from a
/// well-connected node runs for tens of milliseconds, which is closure
/// work, and a few of them per run would swing the tail.
fn point_templates(atoms: &[&str], count: usize) -> Vec<String> {
    let mut words: Vec<Vec<&str>> = atoms.iter().map(|&a| vec![a]).collect();
    let mut frontier = words.clone();
    for _ in 1..3 {
        let mut next = Vec::new();
        for w in &frontier {
            for &a in atoms {
                let mut w2 = w.clone();
                w2.push(a);
                next.push(w2);
            }
        }
        words.extend(next.iter().cloned());
        frontier = next;
    }
    let mut out = Vec::new();
    for w in &words {
        out.push(w.join("."));
        if w.len() >= 2 {
            let mut o = w.clone();
            let last = format!("{}?", o.pop().expect("nonempty"));
            o.push(&last);
            out.push(o.join("."));
        }
    }
    Rng::new(0x7E3A_11F0).shuffle(&mut out);
    out.truncate(count);
    out
}

/// A read's request shape, in node ids of the generated graph.
#[derive(Clone, Debug)]
pub enum Spec {
    Source(u32),
    Target(u32),
    Pair(u32, u32),
    Sources(Vec<u32>),
    /// A conjunctive query with its head source bound.
    Crpq(u32),
}

impl Spec {
    pub fn to_source_spec(&self) -> SourceSpec {
        match self {
            Spec::Source(s) => SourceSpec::Source(Oid(*s)),
            Spec::Target(t) => SourceSpec::Target(Oid(*t)),
            Spec::Pair(s, t) => SourceSpec::Pair {
                source: Oid(*s),
                target: Oid(*t),
            },
            Spec::Sources(ss) => SourceSpec::Sources(ss.iter().map(|&s| Oid(s)).collect()),
            Spec::Crpq(s) => SourceSpec::Conjunctive {
                sources: Some(vec![Oid(*s)]),
                targets: None,
            },
        }
    }
}

/// One read: a template index and a request shape.
#[derive(Clone, Debug)]
pub struct Read {
    pub template: usize,
    pub spec: Spec,
}

impl Read {
    pub fn is_crpq(&self) -> bool {
        matches!(self.spec, Spec::Crpq(_))
    }
}

/// Everything that draws reads for one workload.
pub struct ReadMix {
    pub kind: Kind,
    pub templates: Vec<String>,
    /// Template popularity over the non-conjunctive templates.
    popularity: Weighted,
    /// Index of the first conjunctive template (`templates.len()` if none).
    crpq_start: usize,
    sources: Vec<u32>,
    targets: Vec<u32>,
}

/// The top `share` of nodes by `degree`, ties broken by id.
fn top_by(degree: &[usize], share: f64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..degree.len() as u32)
        .filter(|&v| degree[v as usize] > 0)
        .collect();
    ids.sort_by_key(|&v| (std::cmp::Reverse(degree[v as usize]), v));
    ids.truncate(((degree.len() as f64 * share) as usize).max(1));
    ids
}

impl ReadMix {
    pub fn new(kind: Kind, inst: &Instance) -> ReadMix {
        let out: Vec<usize> = inst.nodes().map(|v| inst.outdegree(v)).collect();
        let ind = inst.indegrees();
        let (templates, crpq_start, sources, targets) = match kind {
            Kind::PointLookup => {
                let t = point_templates(&["a", "b", "c", "d"], 160);
                let n = t.len();
                let s = (0..out.len() as u32)
                    .filter(|&v| out[v as usize] > 0)
                    .collect();
                let tg = (0..ind.len() as u32)
                    .filter(|&v| ind[v as usize] > 0)
                    .collect();
                (t, n, s, tg)
            }
            Kind::ClosureScan => {
                let t: Vec<String> = CLOSURE_TEMPLATES.iter().map(|s| s.to_string()).collect();
                let n = t.len();
                (t, n, top_by(&out, 0.05), top_by(&ind, 0.05))
            }
            Kind::MixedRw => {
                let mut t = point_templates(&["a", "b", "c", "d", "(a+d)", "(b+c)"], 120);
                let n = t.len();
                t.extend(CRPQ_TEMPLATES.iter().map(|s| s.to_string()));
                let s = (0..out.len() as u32)
                    .filter(|&v| out[v as usize] > 0)
                    .collect();
                let tg = (0..ind.len() as u32)
                    .filter(|&v| ind[v as usize] > 0)
                    .collect();
                (t, n, s, tg)
            }
        };
        ReadMix {
            kind,
            popularity: Weighted::zipf(crpq_start, 1.0),
            templates,
            crpq_start,
            sources,
            targets,
        }
    }

    fn source(&self, rng: &mut Rng) -> u32 {
        self.sources[rng.below(self.sources.len())]
    }

    fn target(&self, rng: &mut Rng) -> u32 {
        self.targets[rng.below(self.targets.len())]
    }

    /// Draw the `i`-th read of a stream.
    pub fn draw(&self, rng: &mut Rng, i: usize) -> Read {
        match self.kind {
            Kind::PointLookup => self.point(rng),
            Kind::ClosureScan => {
                // Templates and shapes in a fixed rotation, so every run
                // weighs them alike; a batch in a fixed slot, since each
                // costs as much as a dozen single reads.
                let template = i % self.templates.len();
                let spec = if i % CLOSURE_BATCH_EVERY == CLOSURE_BATCH_EVERY - 1 {
                    Spec::Sources((0..CLOSURE_BATCH).map(|_| self.source(rng)).collect())
                } else if (i / self.templates.len()).is_multiple_of(2) {
                    Spec::Source(self.source(rng))
                } else {
                    Spec::Target(self.target(rng))
                };
                Read { template, spec }
            }
            Kind::MixedRw => {
                if rng.unit() < MIXED_CRPQ_SHARE {
                    let k = self.templates.len() - self.crpq_start;
                    Read {
                        template: self.crpq_start + rng.below(k),
                        spec: Spec::Crpq(self.source(rng)),
                    }
                } else {
                    self.point(rng)
                }
            }
        }
    }

    fn point(&self, rng: &mut Rng) -> Read {
        let template = self.popularity.pick(rng);
        let r = rng.unit();
        let spec = if r < 0.7 {
            Spec::Source(self.source(rng))
        } else if r < 0.85 {
            Spec::Target(self.target(rng))
        } else {
            Spec::Pair(self.source(rng), self.target(rng))
        };
        Read { template, spec }
    }
}
