//! Population-wide structural deduplication of pre-order genomes.
//!
//! Breeding produces byte-identical siblings constantly: reproduction
//! children whose parents were themselves duplicates, crossovers that
//! transplant a subtree onto an identical recipient, point mutations
//! whose per-node coin flips all came up tails (probability `0.85^size`,
//! substantial for small trees), and concentrated elites late in a run.
//! The engine's fitness cache only catches children it *knows* were
//! copied verbatim; this module catches the rest by hashing each
//! pending child's genome slice, so only one representative per
//! structural equivalence class is scored.
//!
//! Determinism: grouping is pure bookkeeping. Representatives are
//! chosen in input order, results are scattered back by index, and a
//! duplicate's error is the *same `f64`* its representative's scoring
//! produced — which is bit-for-bit what scoring the duplicate itself
//! would have returned, since the scorer reads nothing but the genome
//! slice and the data. `gp.dedup_hits` / `gp.dedup_distinct` counters depend only
//! on population contents, so they are identical across thread counts.
//!
//! Constants are compared by [`f64::to_bits`], not `==`: `-0.0` and
//! `0.0` evaluate differently under some protected ops, and a NaN
//! constant must still equal itself for grouping to be stable.

use crate::genome::Node;

/// The outcome of grouping a batch of genomes by structural equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DedupGroups {
    /// Indices (into the grouped slice) of the representative — first —
    /// genome of each equivalence class, in first-seen order.
    pub reps: Vec<usize>,
    /// For each input genome, the index into [`reps`](Self::reps) of
    /// its class.
    pub assign: Vec<u32>,
}

impl DedupGroups {
    /// Genomes whose score is reused from an earlier structural twin.
    pub fn hits(&self) -> u64 {
        (self.assign.len() - self.reps.len()) as u64
    }
}

/// Groups `genomes` into structural equivalence classes with a fresh
/// [`GroupTable`].
pub fn group<G: AsRef<[Node]>>(genomes: &[G]) -> DedupGroups {
    let mut table = GroupTable::default();
    table.group_with(genomes.len(), |i| genomes[i].as_ref());
    table.groups
}

/// A grouping table that keeps its storage from one batch to the next,
/// so a fit that groups every generation allocates only while its
/// batches grow.
///
/// Open addressing with linear probing over the classes' representative
/// indices; a probe compares the stored hash first and then the genome
/// slices themselves, so a hash collision never merges two genomes.
/// Runs on the breeding thread; linear in total genome length.
#[derive(Debug, Default)]
pub struct GroupTable {
    /// Class index + 1 per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// Each class's genome hash, by class index.
    hashes: Vec<u64>,
    groups: DedupGroups,
}

impl GroupTable {
    /// Groups the `n` genomes `genome(0..n)`, replacing the previous
    /// batch's grouping. Identical to [`group`] on the same batch.
    pub fn group_with<'a>(
        &mut self,
        n: usize,
        genome: impl Fn(usize) -> &'a [Node],
    ) -> &DedupGroups {
        // At most half full, so probes stay short.
        let bits = (2 * n).max(16).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        self.slots.clear();
        self.slots.resize(1 << bits, 0);
        self.hashes.clear();
        let DedupGroups { reps, assign } = &mut self.groups;
        reps.clear();
        assign.clear();
        for i in 0..n {
            let nodes = genome(i);
            let hash = hash(nodes);
            // The top bits: the multiply in `hash` mixes upward.
            let mut slot = (hash >> (64 - bits)) as usize;
            let class = loop {
                match self.slots[slot] {
                    0 => {
                        reps.push(i);
                        self.hashes.push(hash);
                        self.slots[slot] = reps.len() as u32;
                        break reps.len() - 1;
                    }
                    c => {
                        let c = c as usize - 1;
                        if self.hashes[c] == hash && same(genome(reps[c]), nodes) {
                            break c;
                        }
                        slot = (slot + 1) & mask;
                    }
                }
            };
            assign.push(class as u32);
        }
        &self.groups
    }
}

/// A multiply-rotate hash over one word per node: much cheaper than
/// SipHash, and collisions only cost an extra comparison, never a wrong
/// merge.
fn hash(nodes: &[Node]) -> u64 {
    nodes.iter().fold(0u64, |h, node| {
        let word = match *node {
            Node::Const(c) => c.to_bits(),
            Node::Var(i) => 1 << 32 | u64::from(i),
            Node::Unary(u) => 2 << 32 | u as u64,
            Node::Binary(b) => 3 << 32 | b as u64,
        };
        (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// Structural equality: node by node, constants by bit pattern (so
/// NaN == NaN and -0.0 != 0.0).
fn same(a: &[Node], b: &[Node]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| match (*a, *b) {
            (Node::Const(x), Node::Const(y)) => x.to_bits() == y.to_bits(),
            (a, b) => a == b,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, Expr};
    use crate::FunctionSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_genomes(seed: u64, n: usize) -> Vec<Vec<Node>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut nodes = Vec::new();
                crate::genome::random(
                    &mut rng,
                    4,
                    false,
                    2,
                    &FunctionSet::full(),
                    (-10.0, 10.0),
                    &mut nodes,
                );
                nodes
            })
            .collect()
    }

    #[test]
    fn duplicates_collapse_to_one_representative() {
        let base = random_genomes(1, 8);
        // Two copies of each genome.
        let genomes: Vec<&[Node]> = base.iter().chain(&base).map(Vec::as_slice).collect();
        let groups = group(&genomes);
        // The random base set may itself contain structural twins, so the
        // expected class count comes from grouping it alone.
        let distinct = group(&base).reps.len();
        assert_eq!(groups.reps.len(), distinct);
        assert_eq!(groups.hits(), (genomes.len() - distinct) as u64);
        for (i, &class) in groups.assign.iter().enumerate() {
            let rep = groups.reps[class as usize];
            assert!(same(genomes[rep], genomes[i]));
        }
    }

    #[test]
    fn distinct_programs_stay_distinct() {
        let genomes = random_genomes(2, 64);
        let groups = group(&genomes);
        // Representatives must be pairwise structurally distinct.
        for (a, &ra) in groups.reps.iter().enumerate() {
            for &rb in &groups.reps[a + 1..] {
                assert!(!same(&genomes[ra], &genomes[rb]));
            }
        }
        assert_eq!(groups.assign.len(), genomes.len());
        // Signed zeros differ under the protected operators.
        assert_eq!(
            group(&[[Node::Const(0.0)], [Node::Const(-0.0)]]).reps.len(),
            2
        );
    }

    #[test]
    fn nan_constants_group_with_themselves() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Const(f64::NAN)),
            Box::new(Expr::Var(0)),
        );
        let nodes = e.to_nodes();
        let groups = group(&[nodes.clone(), nodes]);
        assert_eq!(groups.reps.len(), 1);
        assert_eq!(groups.hits(), 1);
    }
}
