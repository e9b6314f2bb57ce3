//! Seeded graph and write-stream generators, owned by the benchmark.
//!
//! Two graph shapes, both low-diameter and sized like a real deployment:
//!
//! * [`rmat`] — an R-MAT power-law graph (Chakrabarti et al.'s recursive
//!   quadrant model) with globally skewed labels;
//! * [`community`] — dense communities joined by random cross links, each
//!   community with its own label skew, generated so the path constraints
//!   `d <= a` and `b <= c` hold: every `d` edge has a parallel `a` edge and
//!   every `b` edge a parallel `c` edge.
//!
//! [`WriteStream`] mutates the community graph in delete/insert batches
//! that keep both constraints true, and [`self_check`] refuses a graph that
//! misses its size, label or diameter targets.

use std::collections::{HashSet, VecDeque};

use rpq_automata::{Alphabet, Symbol};
use rpq_graph::{EdgeDelta, GraphView, Instance, Oid};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut r = Rng(seed ^ 0x5851_F42D_4C95_7F2D);
        r.next_u64();
        r
    }

    /// An independent stream derived from this seed and `stream`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n < 2^32`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Sampling from a fixed discrete distribution by its cumulative weights.
#[derive(Clone, Debug)]
pub struct Weighted {
    cdf: Vec<f64>,
}

impl Weighted {
    pub fn new(weights: &[f64]) -> Weighted {
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Weighted { cdf }
    }

    /// Zipf popularity over `n` ranks with exponent `s`.
    pub fn zipf(n: usize, s: f64) -> Weighted {
        let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        Weighted::new(&w)
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The four edge labels every generated graph uses, in this order.
pub const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// One generated graph: the instance plus its alphabet and label symbols.
pub struct Generated {
    pub alphabet: Alphabet,
    pub labels: [Symbol; 4],
    pub instance: Instance,
    /// Edge groups of a constraint-closed graph (empty for R-MAT); the
    /// write stream's starting state.
    pub groups: Vec<Group>,
    /// The edge count the generator aimed for.
    pub target_edges: usize,
    /// Expected global label shares, when the generator fixes them.
    pub label_shares: Option<[f64; 4]>,
}

fn alphabet() -> (Alphabet, [Symbol; 4]) {
    let mut ab = Alphabet::new();
    let labels = LABELS.map(|l| ab.intern(l));
    (ab, labels)
}

/// Pack an edge `(from, label index, to)` for hashing and sorting in the
/// instance's row order (source, label, target).
fn pack(from: u32, label: u8, to: u32) -> u64 {
    (u64::from(from) << 34) | (u64::from(label) << 32) | u64::from(to)
}

fn unpack(e: u64) -> (u32, u8, u32) {
    ((e >> 34) as u32, ((e >> 32) & 3) as u8, e as u32)
}

/// Build an instance from packed edges; sorting first makes every row
/// insertion an append.
fn instance_from(nodes: usize, mut edges: Vec<u64>, labels: &[Symbol; 4]) -> Instance {
    edges.sort_unstable();
    let mut inst = Instance::new();
    for _ in 0..nodes {
        inst.add_node();
    }
    for e in edges {
        let (f, l, t) = unpack(e);
        inst.add_edge(Oid(f), labels[l as usize], Oid(t));
    }
    inst
}

/// R-MAT graph with `2^scale` nodes and exactly `edges` distinct labeled
/// edges (no self-loops). Node ids are scrambled so hubs are not clustered
/// at small ids; labels are drawn independently with `shares`.
pub fn rmat(seed: u64, scale: u32, edges: usize, shares: [f64; 4]) -> Generated {
    let (alphabet, labels) = alphabet();
    let n = 1usize << scale;
    let mut rng = Rng::stream(seed, 1);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    let label_pick = Weighted::new(&shares);
    // Quadrant probabilities a, b, c (d = the rest), as in Graph500.
    let (pa, pb, pc) = (0.57, 0.19, 0.19);
    let mut seen: HashSet<u64> = HashSet::with_capacity(edges * 2);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.unit();
            let (du, dv) = if r < pa {
                (0, 0)
            } else if r < pa + pb {
                (0, 1)
            } else if r < pa + pb + pc {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u == v {
            continue;
        }
        let l = label_pick.pick(&mut rng) as u8;
        let e = pack(perm[u], l, perm[v]);
        if seen.insert(e) {
            out.push(e);
        }
    }
    drop(seen);
    Generated {
        instance: instance_from(n, out, &labels),
        alphabet,
        labels,
        groups: Vec::new(),
        target_edges: edges,
        label_shares: Some(shares),
    }
}

/// A unit of the constraint-closed graph: one `a` or `c` edge, a `b` edge
/// with its parallel `c`, or a `d` edge with its parallel `a`. Inserting or
/// deleting whole groups keeps `d <= a` and `b <= c` true.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Group {
    pub from: u32,
    pub label: u8,
    pub to: u32,
}

impl Group {
    /// The packed edges of this group.
    fn edges(self) -> impl Iterator<Item = u64> {
        let partner = match self.label {
            1 => Some(2), // b -> c
            3 => Some(0), // d -> a
            _ => None,
        };
        std::iter::once(pack(self.from, self.label, self.to))
            .chain(partner.map(|p| pack(self.from, p, self.to)))
    }
}

/// Community graph shape: nodes, community size, and the share of edges
/// that leave their community.
pub struct CommunityShape {
    pub nodes: usize,
    pub community: usize,
    pub cross: f64,
}

/// Draws groups for the community graph (shared by the initial build and
/// the write stream, so inserted edges look like the base graph).
struct GroupDraw {
    shape_nodes: usize,
    community: usize,
    cross: f64,
    /// Per-community label weights: a permutation of a skewed base.
    skews: Vec<Weighted>,
}

impl GroupDraw {
    fn new(shape: &CommunityShape) -> GroupDraw {
        let base = [0.45, 0.25, 0.2, 0.1];
        let mut perms = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let p = [a, b, c, d];
                        if (0..4).all(|x| p.contains(&x)) {
                            perms.push(p);
                        }
                    }
                }
            }
        }
        let communities = shape.nodes.div_ceil(shape.community);
        let skews = (0..communities)
            .map(|k| {
                let p = perms[k % perms.len()];
                Weighted::new(&p.map(|i| base[i]))
            })
            .collect();
        GroupDraw {
            shape_nodes: shape.nodes,
            community: shape.community,
            cross: shape.cross,
            skews,
        }
    }

    /// A node of community `k`, skewed toward low offsets (local hubs).
    fn member(&self, rng: &mut Rng, k: usize) -> u32 {
        let u = rng.unit();
        let off = (u * u * self.community as f64) as usize;
        ((k * self.community + off).min(self.shape_nodes - 1)) as u32
    }

    fn draw(&self, rng: &mut Rng) -> Group {
        let k = rng.below(self.skews.len());
        let from = self.member(rng, k);
        let to_k = if rng.unit() < self.cross {
            rng.below(self.skews.len())
        } else {
            k
        };
        let to = self.member(rng, to_k);
        let label = self.skews[k].pick(rng) as u8;
        Group { from, label, to }
    }
}

/// Try to add group `g` to the edge set; refuses self-loops and any group
/// sharing an edge with a present one, so every edge has one owner.
fn try_insert(present: &mut HashSet<u64>, g: Group) -> bool {
    if g.from == g.to || g.edges().any(|e| present.contains(&e)) {
        return false;
    }
    present.extend(g.edges());
    true
}

/// Community graph with at least `edges` edges, closed under the
/// constraints `d <= a` and `b <= c`.
pub fn community(seed: u64, shape: &CommunityShape, edges: usize) -> Generated {
    let (alphabet, labels) = alphabet();
    let draw = GroupDraw::new(shape);
    let mut rng = Rng::stream(seed, 2);
    let mut present: HashSet<u64> = HashSet::with_capacity(edges * 2);
    let mut groups = Vec::new();
    while present.len() < edges {
        let g = draw.draw(&mut rng);
        if try_insert(&mut present, g) {
            groups.push(g);
        }
    }
    let instance = instance_from(shape.nodes, present.into_iter().collect(), &labels);
    Generated {
        alphabet,
        labels,
        instance,
        groups,
        target_edges: edges,
        label_shares: None,
    }
}

/// Delete/insert batches over the community graph that keep its
/// constraints true. Owns the writer's view of the edge set, so no batch
/// needs to read the served graph.
pub struct WriteStream {
    draw: GroupDraw,
    labels: [Symbol; 4],
    present: HashSet<u64>,
    groups: Vec<Group>,
    rng: Rng,
    /// Edge mutations per batch, split evenly between deletes and inserts.
    pub batch_edges: usize,
}

impl WriteStream {
    pub fn new(
        seed: u64,
        shape: &CommunityShape,
        g: &Generated,
        batch_edges: usize,
    ) -> WriteStream {
        let present = g.groups.iter().flat_map(|g| g.edges()).collect();
        WriteStream {
            draw: GroupDraw::new(shape),
            labels: g.labels,
            present,
            groups: g.groups.clone(),
            rng: Rng::stream(seed, 3),
            batch_edges,
        }
    }

    fn put(&self, d: &mut EdgeDelta, e: u64, add: bool) {
        let (f, l, t) = unpack(e);
        let (f, l, t) = (Oid(f), self.labels[l as usize], Oid(t));
        if add {
            d.add(f, l, t);
        } else {
            d.del(f, l, t);
        }
    }

    /// The next batch: whole groups deleted, then whole groups inserted
    /// (the order `DeltaGraph::apply_delta` applies them in).
    pub fn next_batch(&mut self) -> EdgeDelta {
        let mut d = EdgeDelta::new();
        let half = self.batch_edges / 2;
        while d.dels.len() < half && !self.groups.is_empty() {
            let g = self.groups.swap_remove(self.rng.below(self.groups.len()));
            for e in g.edges() {
                self.present.remove(&e);
                self.put(&mut d, e, false);
            }
        }
        while d.adds.len() < half {
            let g = self.draw.draw(&mut self.rng);
            if try_insert(&mut self.present, g) {
                self.groups.push(g);
                for e in g.edges() {
                    self.put(&mut d, e, true);
                }
            }
        }
        d
    }
}

/// Check that `view` satisfies `d <= a` and `b <= c` edge by edge.
pub fn constraints_hold<G: GraphView>(view: &G, labels: &[Symbol; 4]) -> Result<(), String> {
    let [a, b, c, d] = *labels;
    for v in 0..view.num_nodes() {
        let v = Oid(v as u32);
        for (sub, sup) in [(d, a), (b, c)] {
            let sup_row: Vec<Oid> = view.out(v, sup).collect();
            for t in view.out(v, sub) {
                if sup_row.binary_search(&t).is_err() {
                    return Err(format!("constraint violated at node {} -> {}", v.0, t.0));
                }
            }
        }
    }
    Ok(())
}

/// Refuse a graph that misses its edge target, its label mix, or the
/// low-diameter shape: unlabeled forward BFS from sampled sources must
/// finish within a few dozen levels and one of them must reach a sizeable
/// part of the graph (a chain would need thousands of levels).
pub fn self_check(g: &Generated, seed: u64) -> Result<String, String> {
    let inst = &g.instance;
    let m = inst.num_edges();
    let lo = g.target_edges;
    let hi = g.target_edges + g.target_edges / 50;
    if m < lo || m > hi {
        return Err(format!("edge count {m} outside [{lo}, {hi}]"));
    }
    let mut counts = [0usize; 4];
    for (_, l, _) in inst.edges() {
        counts[g.labels.iter().position(|&x| x == l).expect("known label")] += 1;
    }
    let shares = counts.map(|c| c as f64 / m as f64);
    for (i, &s) in shares.iter().enumerate() {
        let ok = match g.label_shares {
            Some(want) => (s - want[i]).abs() <= 0.02,
            None => s >= 0.05,
        };
        if !ok {
            return Err(format!("label {} share {s:.3} off target", LABELS[i]));
        }
    }
    let n = inst.num_nodes();
    let starts: Vec<Oid> = inst.nodes().filter(|&v| inst.outdegree(v) > 0).collect();
    let mut rng = Rng::stream(seed, 4);
    let (mut max_depth, mut max_reach) = (0usize, 0usize);
    let mut dist = vec![u32::MAX; n];
    for _ in 0..8 {
        let s = starts[rng.below(starts.len())];
        dist.fill(u32::MAX);
        dist[s.index()] = 0;
        let mut queue = VecDeque::from([s]);
        let mut reach = 0;
        while let Some(v) = queue.pop_front() {
            reach += 1;
            let dv = dist[v.index()];
            max_depth = max_depth.max(dv as usize);
            for &(_, t) in inst.out_edges(v) {
                if dist[t.index()] == u32::MAX {
                    dist[t.index()] = dv + 1;
                    queue.push_back(t);
                }
            }
        }
        max_reach = max_reach.max(reach);
    }
    if max_depth > 40 {
        return Err(format!("sampled BFS depth {max_depth} is not low-diameter"));
    }
    if max_reach * 10 < n {
        return Err(format!("sampled BFS reached only {max_reach} of {n} nodes"));
    }
    Ok(format!(
        "nodes={n} edges={m} label_shares=[{:.3},{:.3},{:.3},{:.3}] bfs_depth_max={max_depth} bfs_reach_max={max_reach}",
        shares[0], shares[1], shares[2], shares[3]
    ))
}
