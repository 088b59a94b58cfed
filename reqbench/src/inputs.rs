//! Seeded inputs: repositories, personal-schema pools, request streams,
//! and the fingerprint that shows two runs used identical inputs.
//!
//! Everything is drawn from `smx-synth` through a `StdRng` derived from
//! the run's `--seed`, so the same seed always yields the same schemas
//! and the same request sequence; the program under test only ever sees
//! the generated schemas.

use rand::prelude::*;
use rand::rngs::StdRng;
use smx_synth::{perturb_schema, Domain, Scenario, ScenarioConfig, Vocabulary};
use smx_xml::{Node, NodeId, Schema};

/// Derive an independent sub-seed for `stream` from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut h = Fnv::new();
    h.u64(seed);
    h.u64(stream);
    h.finish()
}

/// FNV-1a 64 over a canonical byte encoding of the inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Every node's name, kind, type, occurrence bounds and parent.
    pub fn schema(&mut self, schema: &Schema) {
        self.str(schema.name());
        self.u64(schema.len() as u64);
        for id in schema.node_ids() {
            let node = schema.node(id);
            self.str(&node.name);
            self.str(&format!("{:?}/{:?}/{:?}", node.kind, node.ty, node.occurs));
            self.u64(node.parent.map_or(u64::MAX, |p| p.0 as u64));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Repository schemas plus the personal schemas grafted into them.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Repository schemas in ingest order.
    pub schemas: Vec<Schema>,
    /// The personal-schema pool queries are drawn from.
    pub pool: Vec<Schema>,
    /// The domain of each pool entry.
    pub pool_domains: Vec<Domain>,
}

impl Corpus {
    /// `pool_size` scenarios spread round-robin over the four
    /// `smx-synth` domains. Scenario `i` contributes its personal schema
    /// to the pool and `derived` perturbed-graft hosts plus `noise`
    /// plain hosts (each `host_nodes` nodes) to the repository.
    pub fn generate(
        seed: u64,
        pool_size: usize,
        derived: usize,
        noise: usize,
        host_nodes: usize,
        strength: f64,
    ) -> Corpus {
        let mut corpus = Corpus {
            schemas: Vec::with_capacity(pool_size * (derived + noise)),
            pool: Vec::with_capacity(pool_size),
            pool_domains: Vec::with_capacity(pool_size),
        };
        for i in 0..pool_size {
            let domain = Domain::ALL[i % Domain::ALL.len()];
            let sc = Scenario::generate(ScenarioConfig {
                domain,
                personal_nodes: 5,
                derived_schemas: derived,
                noise_schemas: noise,
                host_nodes,
                perturbation_strength: strength,
                seed: sub_seed(seed, 1_000 + i as u64),
            });
            corpus
                .schemas
                .extend(sc.repository.iter().map(|(_, s)| s.clone()));
            corpus.pool.push(sc.personal);
            corpus.pool_domains.push(domain);
        }
        corpus
    }

    pub fn fingerprint(&self, h: &mut Fnv) {
        for s in self.schemas.iter().chain(&self.pool) {
            h.schema(s);
        }
    }
}

/// Zipf(1) ranks over `n` items: rank `r` is drawn with weight `1/(r+1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.random_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The closed-loop query sequence of `interactive`: pool indices drawn
/// Zipf(1).
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: StdRng,
    zipf: Zipf,
}

impl QueryStream {
    pub fn new(seed: u64, pool: usize) -> Self {
        QueryStream {
            rng: StdRng::seed_from_u64(sub_seed(seed, 2)),
            zipf: Zipf::new(pool),
        }
    }

    pub fn next_query(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// A ring of perturbed personal schemas: `size` uniformly drawn pool
/// schemas, each perturbed at `strength`.
pub fn perturbed_ring(seed: u64, corpus: &Corpus, size: usize, strength: f64) -> Vec<Schema> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6));
    (0..size)
        .map(|_| {
            let i = rng.random_range(0..corpus.pool.len());
            let vocab = Vocabulary::for_domain(corpus.pool_domains[i]);
            perturb_schema(&corpus.pool[i], &vocab, strength, &mut rng).0
        })
        .collect()
}

/// One `bulk_bounded` problem: a ring member, with its last node renamed
/// to a label no earlier problem carried when `novel` is set.
#[derive(Debug, Clone)]
pub struct RingProblem {
    pub member: usize,
    pub novel: Option<u64>,
    pub schema: Schema,
}

/// Batches for `bulk_bounded`. Each problem is a uniformly drawn ring
/// member, so its labels come back after their rows were evicted; every
/// `novel_every`-th problem of a batch also carries one never-seen label,
/// so the kernel scores new rows at a steady rate. Freshly perturbing
/// every request instead makes new labels rarer as the run goes on (most
/// perturbations reuse a finite vocabulary), so such a run never settles.
#[derive(Debug, Clone)]
pub struct BatchStream {
    rng: StdRng,
    batch: usize,
    novel_every: usize,
    next_novel: u64,
}

impl BatchStream {
    pub fn new(seed: u64, stream: u64, batch: usize, novel_every: usize) -> Self {
        BatchStream {
            rng: StdRng::seed_from_u64(sub_seed(seed, stream)),
            batch,
            novel_every,
            next_novel: 0,
        }
    }

    pub fn next_batch(&mut self, ring: &[Schema]) -> Vec<RingProblem> {
        (0..self.batch)
            .map(|slot| {
                let member = self.rng.random_range(0..ring.len());
                let mut schema = ring[member].clone();
                let novel = (slot % self.novel_every == 0).then(|| {
                    self.next_novel += 1;
                    self.next_novel
                });
                if let (Some(n), Some(last)) = (novel, schema.node_ids().last()) {
                    let node = schema.node_mut(last);
                    node.name = format!("{}{n}", node.name);
                }
                RingProblem {
                    member,
                    novel,
                    schema,
                }
            })
            .collect()
    }
}

/// One `churn_restart` operation. Slot draws resolve against the live
/// repository when the operation is applied (see [`resolve_slot`]).
#[derive(Debug, Clone)]
pub enum Op {
    Match(usize),
    Replace { slot_draw: u64, schema: Schema },
    Remove { slot_draw: u64 },
    Add { schema: Schema },
}

impl Op {
    pub fn fingerprint(&self, h: &mut Fnv) {
        match self {
            Op::Match(q) => {
                h.u64(0);
                h.u64(*q as u64);
            }
            Op::Replace { slot_draw, schema } => {
                h.u64(1);
                h.u64(*slot_draw);
                h.schema(schema);
            }
            Op::Remove { slot_draw } => {
                h.u64(2);
                h.u64(*slot_draw);
            }
            Op::Add { schema } => {
                h.u64(3);
                h.schema(schema);
            }
        }
    }
}

/// The `churn_restart` operation mix: 90 % Zipf(1) match requests, 10 %
/// mutations split replace 60 % / remove 20 % / add 20 %. New schemas
/// are random hosts with a perturbed pool schema grafted in, so writes
/// really change query answers.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: StdRng,
    zipf: Zipf,
    pool: Vec<Schema>,
    domains: Vec<Domain>,
    host_nodes: usize,
}

impl OpStream {
    pub fn new(seed: u64, corpus: &Corpus, host_nodes: usize) -> Self {
        OpStream {
            rng: StdRng::seed_from_u64(sub_seed(seed, 3)),
            zipf: Zipf::new(corpus.pool.len()),
            pool: corpus.pool.clone(),
            domains: corpus.pool_domains.clone(),
            host_nodes,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.rng.random_f64() < 0.9 {
            return Op::Match(self.zipf.sample(&mut self.rng));
        }
        let kind = self.rng.random_f64();
        if kind < 0.6 {
            Op::Replace {
                slot_draw: self.rng.next_u64(),
                schema: self.fresh_schema(),
            }
        } else if kind < 0.8 {
            Op::Remove {
                slot_draw: self.rng.next_u64(),
            }
        } else {
            Op::Add {
                schema: self.fresh_schema(),
            }
        }
    }

    fn fresh_schema(&mut self) -> Schema {
        let i = self.rng.random_range(0..self.pool.len());
        let domain = self.domains[i];
        let config = smx_synth::SchemaGenConfig {
            domain,
            nodes: self.host_nodes,
            max_depth: 4,
            max_fanout: 4,
        };
        let mut host = smx_synth::generate_schema("churn", &config, &mut self.rng);
        let vocab = Vocabulary::for_domain(domain);
        let (copy, _) = perturb_schema(&self.pool[i], &vocab, 0.3, &mut self.rng);
        let at = NodeId(self.rng.random_range(0..host.len()) as u32);
        graft(&mut host, at, &copy);
        host
    }
}

/// Copy `sub`'s tree under `at` in `host`.
fn graft(host: &mut Schema, at: NodeId, sub: &Schema) {
    fn rec(host: &mut Schema, parent: NodeId, sub: &Schema, node: NodeId) {
        let src = sub.node(node);
        let mut copy = Node::element(src.name.clone());
        copy.kind = src.kind;
        copy.ty = src.ty;
        copy.occurs = src.occurs;
        let id = host.add_child(parent, copy).expect("parent exists");
        for &child in &src.children {
            rec(host, id, sub, child);
        }
    }
    if let Some(root) = sub.root() {
        rec(host, at, sub, root);
    }
}

/// The slot a remove or replace draw lands on: the first live slot at or
/// after `draw mod len`, wrapping; `None` when every slot is removed.
pub fn resolve_slot(draw: u64, len: usize, is_removed: impl Fn(usize) -> bool) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let start = (draw % len as u64) as usize;
    (0..len)
        .map(|i| (start + i) % len)
        .find(|&slot| !is_removed(slot))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(16);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 16];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8]);
    }

    #[test]
    fn streams_repeat_per_seed() {
        let corpus = Corpus::generate(5, 4, 2, 2, 8, 0.4);
        let again = Corpus::generate(5, 4, 2, 2, 8, 0.4);
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        corpus.fingerprint(&mut a);
        again.fingerprint(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut ops = OpStream::new(5, &corpus, 8);
        let mut ops2 = OpStream::new(5, &corpus, 8);
        for _ in 0..50 {
            let (mut a, mut b) = (Fnv::new(), Fnv::new());
            ops.next_op().fingerprint(&mut a);
            ops2.next_op().fingerprint(&mut b);
            assert_eq!(a.finish(), b.finish());
        }
    }

    #[test]
    fn slot_resolution_skips_removed() {
        assert_eq!(resolve_slot(7, 4, |s| s == 3), Some(0));
        assert_eq!(resolve_slot(1, 4, |_| false), Some(1));
        assert_eq!(resolve_slot(1, 4, |_| true), None);
    }
}
