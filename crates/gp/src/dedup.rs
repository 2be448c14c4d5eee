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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::genome::Node;

/// The outcome of grouping a batch of genomes by structural equality.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Groups `genomes` into structural equivalence classes. A hash map
/// keyed on the slice itself, so hash collisions can never merge
/// distinct genomes. Runs on the breeding thread; linear in total
/// genome length.
pub fn group<G: AsRef<[Node]>>(genomes: &[G]) -> DedupGroups {
    let mut reps: Vec<usize> = Vec::new();
    let mut assign: Vec<u32> = Vec::with_capacity(genomes.len());
    let mut classes: HashMap<Key<'_>, u32, BuildHasherDefault<WordHasher>> =
        HashMap::with_capacity_and_hasher(genomes.len(), Default::default());
    for (i, genome) in genomes.iter().enumerate() {
        let class = *classes.entry(Key(genome.as_ref())).or_insert_with(|| {
            reps.push(i);
            (reps.len() - 1) as u32
        });
        assign.push(class);
    }
    DedupGroups { reps, assign }
}

/// A genome as a map key: hashed and compared node by node, constants
/// by bit pattern (so NaN == NaN and -0.0 != 0.0).
struct Key<'a>(&'a [Node]);

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        for node in self.0 {
            match *node {
                Node::Const(c) => h.write_u64(c.to_bits()),
                Node::Var(i) => h.write_u64(1 << 32 | u64::from(i)),
                Node::Unary(u) => h.write_u64(2 << 32 | u as u64),
                Node::Binary(b) => h.write_u64(3 << 32 | b as u64),
            }
        }
    }
}

/// A multiply-rotate hasher over the one word [`Key`] writes per node:
/// much cheaper than SipHash, and collisions only cost an extra
/// comparison, never a wrong merge.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(other.0).all(|(a, b)| match (*a, *b) {
                (Node::Const(x), Node::Const(y)) => x.to_bits() == y.to_bits(),
                (a, b) => a == b,
            })
    }
}

impl Eq for Key<'_> {}

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
            assert!(Key(genomes[rep]) == Key(genomes[i]));
        }
    }

    #[test]
    fn distinct_programs_stay_distinct() {
        let genomes = random_genomes(2, 64);
        let groups = group(&genomes);
        // Representatives must be pairwise structurally distinct.
        for (a, &ra) in groups.reps.iter().enumerate() {
            for &rb in &groups.reps[a + 1..] {
                assert!(Key(&genomes[ra]) != Key(&genomes[rb]));
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
