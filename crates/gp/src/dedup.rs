//! Population-wide structural deduplication of compiled programs.
//!
//! Breeding produces byte-identical siblings constantly: reproduction
//! children whose parents were themselves duplicates, crossovers that
//! transplant a subtree onto an identical recipient, point mutations
//! whose per-node coin flips all came up tails (probability `0.85^size`,
//! substantial for small trees), and concentrated elites late in a run.
//! The engine's fitness cache only catches children it *knows* were
//! copied verbatim; this module catches the rest by hashing each
//! pending child's compiled postfix program and scoring one
//! representative per structural equivalence class.
//!
//! Determinism: grouping is pure bookkeeping. Representatives are
//! chosen in input order, results are scattered back by index, and a
//! duplicate's error is the *same `f64`* its representative's scoring
//! produced — which is bit-for-bit what scoring the duplicate itself
//! would have returned, since equal programs run the exact same
//! instruction sequence. `gp.dedup_hits` / `gp.dedup_distinct` counters
//! depend only on population contents, so they are identical across
//! thread counts.
//!
//! Constants are compared by [`f64::to_bits`], not `==`: `-0.0` and
//! `0.0` evaluate differently under some protected ops, and a NaN
//! constant must still equal itself for grouping to be stable.

use std::collections::HashMap;

use crate::compile::{CompiledExpr, Op};
use crate::expr::{BinaryOp, UnaryOp};

/// The outcome of grouping a batch of programs by structural equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupGroups {
    /// Indices (into the grouped slice) of the representative — first —
    /// program of each equivalence class, in first-seen order.
    pub reps: Vec<usize>,
    /// For each input program, the index into [`reps`](Self::reps) of
    /// its class.
    pub assign: Vec<u32>,
}

impl DedupGroups {
    /// Programs whose score is reused from an earlier structural twin.
    pub fn hits(&self) -> u64 {
        (self.assign.len() - self.reps.len()) as u64
    }
}

/// Groups `programs` into structural equivalence classes.
///
/// Hash-bucketed (FNV-1a over the encoded ops) with a full
/// [`structural_eq`] check inside each bucket, so hash collisions can
/// never merge distinct programs. Runs on the breeding thread; cost is
/// linear in total program length and amounts to ~1% of one
/// generation's scoring work.
pub fn group(programs: &[CompiledExpr]) -> DedupGroups {
    let mut reps: Vec<usize> = Vec::new();
    let mut assign: Vec<u32> = Vec::with_capacity(programs.len());
    // hash → indices into `reps` whose programs share it.
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::with_capacity(programs.len());
    for (i, program) in programs.iter().enumerate() {
        let hash = structural_hash(program.ops());
        let bucket = buckets.entry(hash).or_default();
        let found = bucket
            .iter()
            .copied()
            .find(|&g| structural_eq(programs[reps[g as usize]].ops(), program.ops()));
        let class = found.unwrap_or_else(|| {
            let g = reps.len() as u32;
            reps.push(i);
            bucket.push(g);
            g
        });
        assign.push(class);
    }
    DedupGroups { reps, assign }
}

/// FNV-1a over a canonical byte encoding of each op.
pub fn structural_hash(ops: &[Op]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h = OFFSET;
    for op in ops {
        match *op {
            Op::Const(c) => {
                eat(&mut h, 0);
                eat_f64(&mut h, c);
            }
            Op::Var(i) => {
                eat(&mut h, 1);
                eat_u32(&mut h, i);
            }
            Op::Unary(u) => {
                eat(&mut h, 2);
                eat(&mut h, unary_code(u));
            }
            Op::Binary(b) => {
                eat(&mut h, 3);
                eat(&mut h, binary_code(b));
            }
            Op::VarVar(b, x, y) => {
                eat(&mut h, 4);
                eat(&mut h, binary_code(b));
                eat_u32(&mut h, x);
                eat_u32(&mut h, y);
            }
            Op::VarConst(b, x, c) => {
                eat(&mut h, 5);
                eat(&mut h, binary_code(b));
                eat_u32(&mut h, x);
                eat_f64(&mut h, c);
            }
            Op::ConstVar(b, c, x) => {
                eat(&mut h, 6);
                eat(&mut h, binary_code(b));
                eat_f64(&mut h, c);
                eat_u32(&mut h, x);
            }
            Op::TopVar(b, x) => {
                eat(&mut h, 7);
                eat(&mut h, binary_code(b));
                eat_u32(&mut h, x);
            }
            Op::TopConst(b, c) => {
                eat(&mut h, 8);
                eat(&mut h, binary_code(b));
                eat_f64(&mut h, c);
            }
            Op::VarUnary(u, x) => {
                eat(&mut h, 9);
                eat(&mut h, unary_code(u));
                eat_u32(&mut h, x);
            }
        }
    }
    h
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn eat(h: &mut u64, byte: u8) {
    *h ^= u64::from(byte);
    *h = h.wrapping_mul(FNV_PRIME);
}

fn eat_u32(h: &mut u64, v: u32) {
    for byte in v.to_le_bytes() {
        eat(h, byte);
    }
}

fn eat_f64(h: &mut u64, v: f64) {
    for byte in v.to_bits().to_le_bytes() {
        eat(h, byte);
    }
}

/// Structural equality: same ops in the same order, with constants
/// compared by bit pattern (so NaN == NaN and -0.0 != 0.0).
pub fn structural_eq(a: &[Op], b: &[Op]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| op_eq(*x, *y))
}

fn op_eq(a: Op, b: Op) -> bool {
    match (a, b) {
        (Op::Const(x), Op::Const(y)) => x.to_bits() == y.to_bits(),
        (Op::Var(x), Op::Var(y)) => x == y,
        (Op::Unary(x), Op::Unary(y)) => x == y,
        (Op::Binary(x), Op::Binary(y)) => x == y,
        (Op::VarVar(ba, xa, ya), Op::VarVar(bb, xb, yb)) => ba == bb && xa == xb && ya == yb,
        (Op::VarConst(ba, xa, ca), Op::VarConst(bb, xb, cb)) => {
            ba == bb && xa == xb && ca.to_bits() == cb.to_bits()
        }
        (Op::ConstVar(ba, ca, xa), Op::ConstVar(bb, cb, xb)) => {
            ba == bb && ca.to_bits() == cb.to_bits() && xa == xb
        }
        (Op::TopVar(ba, xa), Op::TopVar(bb, xb)) => ba == bb && xa == xb,
        (Op::TopConst(ba, ca), Op::TopConst(bb, cb)) => ba == bb && ca.to_bits() == cb.to_bits(),
        (Op::VarUnary(ua, xa), Op::VarUnary(ub, xb)) => ua == ub && xa == xb,
        _ => false,
    }
}

fn unary_code(u: UnaryOp) -> u8 {
    match u {
        UnaryOp::Sqrt => 0,
        UnaryOp::Log => 1,
        UnaryOp::Abs => 2,
        UnaryOp::Neg => 3,
        UnaryOp::Sin => 4,
        UnaryOp::Cos => 5,
        UnaryOp::Tan => 6,
        UnaryOp::Inv => 7,
    }
}

fn binary_code(b: BinaryOp) -> u8 {
    match b {
        BinaryOp::Add => 0,
        BinaryOp::Sub => 1,
        BinaryOp::Mul => 2,
        BinaryOp::Div => 3,
        BinaryOp::Max => 4,
        BinaryOp::Min => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_programs(seed: u64, n: usize) -> Vec<CompiledExpr> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let e = Expr::random_grow(
                    &mut rng,
                    4,
                    2,
                    &UnaryOp::ALL,
                    &BinaryOp::ALL,
                    (-10.0, 10.0),
                );
                CompiledExpr::compile(&e)
            })
            .collect()
    }

    #[test]
    fn duplicates_collapse_to_one_representative() {
        let base = random_programs(1, 8);
        // Interleave two copies of each program.
        let mut programs = Vec::new();
        for p in &base {
            programs.push(p.clone());
        }
        for p in &base {
            programs.push(p.clone());
        }
        let groups = group(&programs);
        // The random base set may itself contain structural twins, so the
        // expected class count comes from grouping it alone.
        let distinct = group(&base).reps.len();
        assert_eq!(groups.reps.len(), distinct);
        assert_eq!(groups.hits(), (programs.len() - distinct) as u64);
        for (i, &class) in groups.assign.iter().enumerate() {
            let rep = groups.reps[class as usize];
            assert!(structural_eq(programs[rep].ops(), programs[i].ops()));
        }
    }

    #[test]
    fn distinct_programs_stay_distinct() {
        let programs = random_programs(2, 64);
        let groups = group(&programs);
        // Representatives must be pairwise structurally distinct.
        for (a, &ra) in groups.reps.iter().enumerate() {
            for &rb in &groups.reps[a + 1..] {
                assert!(!structural_eq(programs[ra].ops(), programs[rb].ops()));
            }
        }
        assert_eq!(groups.assign.len(), programs.len());
    }

    #[test]
    fn nan_constants_group_with_themselves() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Const(f64::NAN)),
            Box::new(Expr::Var(0)),
        );
        let p = CompiledExpr::compile(&e);
        let groups = group(&[p.clone(), p]);
        assert_eq!(groups.reps.len(), 1);
        assert_eq!(groups.hits(), 1);
    }
}
