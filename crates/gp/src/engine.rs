//! The genetic-programming engine: initialization, selection, variation,
//! and the paper's two stopping criteria.
//!
//! # Performance and determinism
//!
//! Three choices keep the engine fast without perturbing a single
//! result:
//!
//! * a generation is one struct-of-arrays `Generation`: every flat
//!   pre-order genome ([`crate::genome`]) back to back in one node
//!   arena, an end offset per individual, and error and fitness
//!   columns. A fit keeps two and swaps them each generation, breeding
//!   into the cleared spare, so every variation operator appends its child
//!   straight into the arena by slice splices and in-place edits. In
//!   steady state breeding allocates nothing per child, frees nothing
//!   per individual, and measures depth with a stack the fit reuses;
//! * pending children are deduplicated on their genome slices, and only
//!   the distinct representatives are scored, each straight from its
//!   pre-order slice by the batch evaluator ([`crate::score`]) over a
//!   column-major [`Columns`] view — bit-identical to the recursive
//!   walker;
//! * each generation is bred *sequentially* (all RNG draws happen here,
//!   selecting from the previous, fully-scored generation) and then scored
//!   with one `par_map` over the [`dpr_par`] pool in index order. Inside
//!   the pipeline each fit is already one task of the per-sensor fan-out,
//!   so that call is nested and drains inline; only a standalone fit
//!   reaches the pool. Individuals carried over unchanged — the elite,
//!   reproduction children, and depth-limit fallbacks — reuse their
//!   parent's cached score instead of being re-evaluated.
//!
//! Because scoring is pure and its outputs are reassembled in input order,
//! a run with `DPR_THREADS=8` produces exactly the same [`FittedModel`] as
//! a single-threaded run.
//!
//! Each phase runs under its own child span of `gp.fit` — `gp.breed` and
//! `gp.score` once per generation, `gp.polish` and `gp.refit` once per
//! phase — so a trace shows where a fit's time went.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::score::{self, Columns};
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::genome::{self, Node};
use crate::model::FittedModel;
use crate::scaling::ScalePlan;
use crate::{Dataset, Metric};

/// The `dpr_prof` label scoring calls run under.
const SCORE_LABEL: &str = "gp.score";

/// Which functions the engine may use as tree nodes.
///
/// [`FunctionSet::full`] is the paper's 14-function set;
/// [`FunctionSet::arithmetic`] restricts to `+ - * /` for ablations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSet {
    /// Allowed unary functions.
    pub unary: Vec<UnaryOp>,
    /// Allowed binary functions.
    pub binary: Vec<BinaryOp>,
}

impl FunctionSet {
    /// All 14 functions (paper §6).
    pub fn full() -> Self {
        FunctionSet {
            unary: UnaryOp::ALL.to_vec(),
            binary: BinaryOp::ALL.to_vec(),
        }
    }

    /// Arithmetic only: `+ - * /`.
    pub fn arithmetic() -> Self {
        FunctionSet {
            unary: Vec::new(),
            binary: vec![BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div],
        }
    }
}

impl Default for FunctionSet {
    fn default() -> Self {
        Self::full()
    }
}

/// Engine configuration.
///
/// [`GpConfig::paper`] matches the settings reported in §4.3: a maximum of
/// 30 generations with 1000 formulas per generation, mean-absolute-error
/// fitness, and both stopping criteria. [`GpConfig::fast`] is a smaller
/// budget suitable for unit tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpConfig {
    /// Individuals per generation (paper: 1000).
    pub population_size: usize,
    /// Stopping criterion (i): maximum number of generations (paper: 30).
    pub max_generations: usize,
    /// Stopping criterion (ii): stop once the best (scaled-space) error
    /// falls to or below this threshold.
    pub stop_threshold: f64,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Probability that a child is produced by subtree crossover.
    pub crossover_prob: f64,
    /// Probability of subtree mutation.
    pub subtree_mutation_prob: f64,
    /// Probability of hoist mutation.
    pub hoist_mutation_prob: f64,
    /// Probability of point mutation (remaining mass is reproduction).
    pub point_mutation_prob: f64,
    /// Hard depth limit for any individual.
    pub max_depth: usize,
    /// Initial tree depths for ramped half-and-half, inclusive.
    pub init_depth: (usize, usize),
    /// Range of ephemeral random constants.
    pub const_range: (f64, f64),
    /// Fitness metric (paper: mean absolute error).
    pub metric: Metric,
    /// Parsimony coefficient: size penalty added to selection fitness.
    pub parsimony: f64,
    /// Whether to apply the Tab. 2 scaling (ablation toggle).
    pub scale: bool,
    /// Whether to seed a fraction of the initial population with affine /
    /// product templates (informed initialization; ablation toggle).
    pub seeded_init: bool,
    /// Hill-climbing iterations polishing the winner's constants.
    pub polish_iters: usize,
    /// Whether to run the closed-form residual refit on the winner
    /// (ablation toggle; see `refit` module docs).
    pub refit: bool,
    /// Allowed functions.
    pub functions: FunctionSet,
    /// RNG seed — every run is deterministic given the seed.
    pub seed: u64,
}

impl GpConfig {
    /// The paper's configuration: 1000 formulas × up to 30 generations.
    pub fn paper(seed: u64) -> Self {
        GpConfig {
            population_size: 1000,
            max_generations: 30,
            stop_threshold: 0.005,
            tournament_size: 7,
            crossover_prob: 0.65,
            subtree_mutation_prob: 0.12,
            hoist_mutation_prob: 0.05,
            point_mutation_prob: 0.12,
            max_depth: 9,
            init_depth: (2, 5),
            const_range: (-10.0, 10.0),
            metric: Metric::MeanAbsoluteError,
            parsimony: 0.001,
            scale: true,
            seeded_init: true,
            polish_iters: 2000,
            refit: true,
            functions: FunctionSet::full(),
            seed,
        }
    }

    /// A reduced budget for unit tests and quick experiments.
    pub fn fast(seed: u64) -> Self {
        GpConfig {
            population_size: 256,
            max_generations: 20,
            polish_iters: 800,
            ..GpConfig::paper(seed)
        }
    }
}

/// Progress record of one fitting run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpReport {
    /// Best (scaled-space, unpenalized) error after each generation.
    pub best_error_history: Vec<f64>,
    /// Which stopping criterion fired: `true` if the fitness threshold
    /// stopped the run, `false` if the generation budget ran out.
    pub stopped_by_threshold: bool,
}

/// The winner that polishing and refit edit.
struct Individual {
    genome: Vec<Node>,
    /// Raw metric error in scaled space (no parsimony).
    error: f64,
    /// Selection fitness: error plus parsimony penalty.
    fitness: f64,
}

/// One generation, struct-of-arrays: individual `i` is the genome
/// `nodes[ends[i - 1]..ends[i]]` (from 0 for the first) with `error[i]` (raw metric error in scaled space)
/// and `fitness[i]` (error plus parsimony penalty, for selection).
#[derive(Default)]
struct Generation {
    nodes: Vec<Node>,
    ends: Vec<usize>,
    error: Vec<f64>,
    fitness: Vec<f64>,
}

impl Generation {
    /// Empties the generation, keeping its storage for the next one.
    fn clear(&mut self) {
        self.nodes.clear();
        self.ends.clear();
        self.error.clear();
        self.fitness.clear();
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn genome(&self, i: usize) -> &[Node] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.nodes[start..self.ends[i]]
    }

    /// Closes the individual whose nodes were appended since the last
    /// one closed, with a `score` carried over from its parent or, when `None`, a
    /// placeholder that [`SymbolicRegressor::score_pending`] fills in.
    fn push(&mut self, score: Option<(f64, f64)>) {
        self.ends.push(self.nodes.len());
        let (error, fitness) = score.unwrap_or((f64::NAN, f64::NAN));
        self.error.push(error);
        self.fitness.push(fitness);
    }

    /// Index of the lowest-error individual (the first, on ties).
    fn best_index(&self) -> usize {
        self.error
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .expect("population is non-empty")
    }
}

/// Buffers one fit reuses across its generations.
#[derive(Default)]
struct Scratch {
    /// Indices of the individuals of the generation being bred that
    /// still need scoring.
    pending: Vec<usize>,
    /// The depth scan's stack.
    depth: Vec<usize>,
    table: crate::dedup::GroupTable,
}

/// How one individual of one generation was produced — the per-child
/// breeding record the evidence ledger's lineage walk-back consumes.
/// Only collected while an evidence capture is active; collection
/// consumes no RNG draws, so recorded and unrecorded runs are
/// bit-identical.
struct BreedRec {
    op: &'static str,
    /// Parent index in the previous generation (`None` for generation 0).
    parent: Option<u32>,
    /// Crossover donor index in the previous generation.
    donor: Option<u32>,
    parent_error: Option<f64>,
}

impl BreedRec {
    fn init(op: &'static str) -> Self {
        BreedRec {
            op,
            parent: None,
            donor: None,
            parent_error: None,
        }
    }
}

/// The symbolic-regression engine.
///
/// Owns its RNG; repeated [`fit`](Self::fit) calls continue the stream, so
/// construct a fresh regressor (same seed) to reproduce a run exactly.
#[derive(Debug)]
pub struct SymbolicRegressor {
    config: GpConfig,
    rng: StdRng,
    last_report: Option<GpReport>,
}

impl SymbolicRegressor {
    /// Creates an engine from a configuration.
    pub fn new(config: GpConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        SymbolicRegressor {
            config,
            rng,
            last_report: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }

    /// The report of the most recent [`fit`](Self::fit) call.
    pub fn last_report(&self) -> Option<&GpReport> {
        self.last_report.as_ref()
    }

    /// Fits a formula to the data set and returns the winning model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a zero population or tournament
    /// size.
    pub fn fit(&mut self, data: &Dataset) -> FittedModel {
        assert!(self.config.population_size > 0, "population must be positive");
        assert!(self.config.tournament_size > 0, "tournament must be positive");
        let _span = dpr_telemetry::Span::enter("gp.fit");
        dpr_telemetry::counter("gp.fits").inc(1);

        let plan = if self.config.scale {
            ScalePlan::for_dataset(data)
        } else {
            ScalePlan::identity(data.n_vars())
        };
        let scaled = plan.apply(data);
        let cols = Columns::from_dataset(&scaled);
        let started = Instant::now();

        // Evidence lineage is recorded only when a capture is active.
        // Recording consumes no RNG draws, so captured and bare runs
        // produce bit-identical models.
        let lineage_on = dpr_evidence::active();
        let mut breeding: Vec<Vec<BreedRec>> = Vec::new();
        let mut cache_hits: u64 = 0;

        let mut evaluations: u64 = 0;
        let mut scratch = Scratch::default();
        let mut population = Generation::default();
        let mut spare = Generation::default();
        let init_recs = self.init_population(&mut population, &mut scratch, &cols, lineage_on);
        self.score_pending(
            &mut population,
            &mut scratch,
            &cols,
            &mut evaluations,
            &mut cache_hits,
        );
        if lineage_on {
            breeding.push(init_recs);
        }
        let mut history = Vec::with_capacity(self.config.max_generations);
        let mut stopped_by_threshold = false;
        let mut generations = 0;

        for _gen in 0..self.config.max_generations {
            generations += 1;
            let best = population
                .error
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            history.push(best);
            if best <= self.config.stop_threshold {
                stopped_by_threshold = true;
                break;
            }
            let recs =
                self.next_generation(&population, &mut spare, &mut scratch, &cols, lineage_on);
            self.score_pending(
                &mut spare,
                &mut scratch,
                &cols,
                &mut evaluations,
                &mut cache_hits,
            );
            std::mem::swap(&mut population, &mut spare);
            if lineage_on {
                breeding.push(recs);
            }
        }
        // Record the final state's best as well.
        let best_idx = population.best_index();
        // Ancestry walk-back: from the winner's index in the final
        // generation, follow parent indices to generation 0. The result
        // reads oldest-first.
        let mut steps = Vec::new();
        if lineage_on {
            let mut idx = best_idx;
            for (g, recs) in breeding.iter().enumerate().rev() {
                let rec = &recs[idx];
                steps.push(dpr_evidence::LineageStep {
                    generation: g as u32,
                    op: rec.op.to_string(),
                    parent: rec.parent,
                    donor: rec.donor,
                    parent_error: rec.parent_error,
                });
                match rec.parent {
                    Some(p) => idx = p as usize,
                    None => break,
                }
            }
            steps.reverse();
        }
        let mut best = Individual {
            genome: population.genome(best_idx).to_vec(),
            error: population.error[best_idx],
            fitness: population.fitness[best_idx],
        };
        if let Some(&last) = history.last() {
            if best.error < last {
                history.push(best.error);
            }
        }
        let post_gen = breeding.len() as u32;
        let post_step = |steps: &mut Vec<dpr_evidence::LineageStep>,
                             op: &str,
                             pre_error: f64| {
            steps.push(dpr_evidence::LineageStep {
                generation: post_gen,
                op: op.to_string(),
                parent: None,
                donor: None,
                parent_error: dpr_evidence::finite(pre_error),
            });
        };

        // Constant polishing: hill-climb the winner's numeric leaves.
        let pre_polish = best.error;
        self.polish(&mut best, &cols, &mut evaluations);
        if lineage_on && best.error < pre_polish {
            post_step(&mut steps, "polish", pre_polish);
        }

        // Closed-form residual correction for missed low-order terms, and
        // a pure low-order candidate raced against the GP winner.
        if self.config.refit {
            let refit_span = dpr_telemetry::Span::enter("gp.refit");
            dpr_telemetry::counter("gp.refit_attempts").inc(1);
            let winner = Expr::from_nodes(&best.genome);
            let candidates = [
                ("refit-residual", crate::refit::residual_refit(&winner, &scaled, self.config.metric)),
                ("refit-loworder", crate::refit::loworder_candidate(&scaled)),
            ];
            for (op, candidate) in candidates {
                let Some(candidate) = candidate else { continue };
                let genome = candidate.to_nodes();
                evaluations += cols.n_rows() as u64;
                let error = score_genome(&genome, &cols, self.config.metric);
                if error < best.error {
                    if lineage_on {
                        post_step(&mut steps, op, best.error);
                    }
                    best.fitness = self.fitness(error, genome.len());
                    best.genome = genome;
                    best.error = error;
                    dpr_telemetry::counter("gp.refit_applied").inc(1);
                }
            }
            drop(refit_span);
            // Polish again: grafted coefficients interact with the original
            // constants.
            let pre_polish = best.error;
            self.polish(&mut best, &cols, &mut evaluations);
            if lineage_on && best.error < pre_polish {
                post_step(&mut steps, "polish", pre_polish);
            }
        }

        let expr = Expr::from_nodes(&best.genome).simplify();
        let model = FittedModel {
            expr,
            plan,
            train_error: 0.0,
            metric: self.config.metric,
            generations,
            evaluations,
        };
        let train_error = model.error_on(data);
        dpr_telemetry::counter("gp.generations").inc(generations as u64);
        dpr_telemetry::counter("gp.evaluations").inc(evaluations);
        // Throughput gauge: row evaluations per second for this fit. The
        // gauge (not a counter) keeps the latest rate visible in traces.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            dpr_telemetry::gauge("gp.evals_per_sec").set((evaluations as f64 / elapsed) as i64);
        }
        if stopped_by_threshold {
            dpr_telemetry::counter("gp.threshold_stops").inc(1);
        }
        // The best-fitness trajectory: one sample per generation, so the
        // histogram shows how fast the population converged.
        let trajectory = dpr_telemetry::histogram("gp.best_error_trajectory");
        for &err in &history {
            if err.is_finite() {
                trajectory.record(err);
            }
        }
        if lineage_on {
            dpr_evidence::record(dpr_evidence::Event::Lineage(dpr_evidence::Lineage {
                subject: dpr_evidence::subject().unwrap_or_default(),
                steps,
                best_error_history: history.iter().map(|&e| dpr_evidence::finite(e)).collect(),
                final_error: dpr_evidence::finite(train_error),
                cache_hits,
                evaluations,
                generations: generations as u32,
                stopped_by_threshold,
                expression: model.expr.to_string(),
            }));
        }
        self.last_report = Some(GpReport {
            best_error_history: history,
            stopped_by_threshold,
        });
        FittedModel {
            train_error,
            ..model
        }
    }

    /// Selection fitness: the raw error plus the parsimony penalty on
    /// genome size; non-finite errors always lose.
    fn fitness(&self, error: f64, size: usize) -> f64 {
        if error.is_finite() {
            error + self.config.parsimony * size as f64
        } else {
            f64::INFINITY
        }
    }

    /// Scores the individuals of `generation` listed in
    /// `scratch.pending`, writing their error and fitness columns.
    ///
    /// The rest — individuals breeding copied over unchanged — carry
    /// their parent's score and are not re-scored. The pending genomes
    /// are deduplicated on their slices, and the distinct
    /// representatives' slices are mapped through the [`dpr_par`] pool.
    /// A fit that is itself a task of the pipeline's sensor fan-out makes
    /// a nested call, which drains inline on that task's thread.
    ///
    /// Scoring is pure, results come back in index order, and a
    /// duplicate reuses the bit-identical error its representative
    /// computed, so the outcome is bit-identical for any `DPR_THREADS`.
    /// `evaluations` stays the *logical* count (pending × rows)
    /// regardless of dedup; the physical saving shows up in
    /// `gp.dedup_hits`.
    fn score_pending(
        &self,
        generation: &mut Generation,
        scratch: &mut Scratch,
        cols: &Columns,
        evaluations: &mut u64,
        cache_hits: &mut u64,
    ) {
        let _span = dpr_telemetry::Span::enter("gp.score");
        let pending = &scratch.pending;
        *evaluations += (pending.len() * cols.n_rows()) as u64;
        let hits = (generation.len() - pending.len()) as u64;
        if hits > 0 {
            dpr_telemetry::counter("gp.fitness_cache_hits").inc(hits);
            *cache_hits += hits;
        }

        let genomes: &Generation = generation;
        let groups = scratch
            .table
            .group_with(pending.len(), |k| genomes.genome(pending[k]));
        if !pending.is_empty() {
            dpr_telemetry::counter("gp.dedup_distinct").inc(groups.reps.len() as u64);
            if groups.hits() > 0 {
                dpr_telemetry::counter("gp.dedup_hits").inc(groups.hits());
            }
        }
        let metric = self.config.metric;
        // Labelled so the profile store attributes the pool call (and its
        // per-worker busy/idle/alloc accounting) to GP fitness scoring.
        let errors: Vec<f64> = dpr_prof::with_label(SCORE_LABEL, || {
            dpr_par::Pool::from_env().par_map(&groups.reps, |&r| {
                score_genome(genomes.genome(pending[r]), cols, metric)
            })
        });

        for (&i, &class) in pending.iter().zip(&groups.assign) {
            let error = errors[class as usize];
            generation.error[i] = error;
            generation.fitness[i] = self.fitness(error, generation.genome(i).len());
        }
    }

    /// Breeds generation 0 into the empty `population`: template seeds,
    /// then ramped half-and-half. All of it is pending scoring.
    fn init_population(
        &mut self,
        population: &mut Generation,
        scratch: &mut Scratch,
        cols: &Columns,
        lineage: bool,
    ) -> Vec<BreedRec> {
        let _span = dpr_telemetry::Span::enter("gp.breed");
        let n = self.config.population_size;
        let n_vars = cols.n_vars();
        let mut recs = Vec::with_capacity(if lineage { n } else { 0 });

        // Informed template seeding (~6% of the population): affine and
        // product skeletons with random constants. These do not contain
        // the answer — GP still has to tune every coefficient — but they
        // mirror gplearn's practical bias toward low-order structure.
        if self.config.seeded_init {
            let templates = n / 16;
            for _ in 0..templates {
                self.random_template(n_vars, &mut population.nodes);
                population.push(None);
                if lineage {
                    recs.push(BreedRec::init("seed-template"));
                }
            }
        }

        // Ramped half-and-half for the rest. Generation happens first (all
        // RNG draws, sequential); scoring follows in one parallel pass.
        let (lo, hi) = self.config.init_depth;
        let mut depth = lo;
        while population.len() < n {
            let full = population.len().is_multiple_of(2);
            genome::random(
                &mut self.rng,
                depth,
                full,
                n_vars,
                &self.config.functions,
                self.config.const_range,
                &mut population.nodes,
            );
            population.push(None);
            if lineage {
                recs.push(BreedRec::init(if full { "init-full" } else { "init-grow" }));
            }
            depth = if depth >= hi { lo } else { depth + 1 };
        }
        scratch.pending.clear();
        scratch.pending.extend(0..n);
        recs
    }

    /// Appends a random low-order template: `c0*Xi + c1`,
    /// `c0*X0 + c1*X1 + c2`, or `c0*(X0*X1) + c1`. Constants are drawn in
    /// pre-order.
    fn random_template(&mut self, n_vars: usize, out: &mut Vec<Node>) {
        use BinaryOp::{Add, Mul};
        use Node::{Binary, Var};
        let c = |rng: &mut StdRng| Node::Const(genome::round3(rng.gen_range(-10.0..=10.0f64)));
        let rng = &mut self.rng;
        match rng.gen_range(0..3) {
            1 if n_vars > 1 => out.extend_from_slice(&[
                Binary(Add),
                Binary(Add),
                Binary(Mul),
                c(rng),
                Var(0),
                Binary(Mul),
                c(rng),
                Var(1),
                c(rng),
            ]),
            2 if n_vars > 1 => out.extend_from_slice(&[
                Binary(Add),
                Binary(Mul),
                c(rng),
                Binary(Mul),
                Var(0),
                Var(1),
                c(rng),
            ]),
            _ => out.extend_from_slice(&[
                Binary(Add),
                Binary(Mul),
                c(rng),
                Var(rng.gen_range(0..n_vars) as u32),
                c(rng),
            ]),
        }
    }

    /// Tournament selection, returning the winner's *index* so breeding can
    /// record parent identities for the evidence ledger. An earlier draw
    /// wins ties.
    fn tournament(&mut self, fitness: &[f64]) -> usize {
        let mut best: Option<usize> = None;
        for _ in 0..self.config.tournament_size {
            let candidate = self.rng.gen_range(0..fitness.len());
            best = match best {
                Some(b) if fitness[b] <= fitness[candidate] => Some(b),
                _ => Some(candidate),
            };
        }
        best.expect("tournament size is positive")
    }

    /// Breeds the next generation into `next`, which is cleared first,
    /// and lists its children that need scoring in `scratch.pending`.
    ///
    /// The breeding loop runs sequentially and consumes the RNG stream in
    /// a fixed order: selection draws only depend on the *previous*
    /// generation's (already known) scores, never on a sibling's. Scoring
    /// of the bred children then happens in one deterministic parallel
    /// pass via [`Self::score_pending`].
    ///
    /// Fitness-cache rule: a score is carried over only when the child is
    /// a copy of the parent genome — the elite copy, a reproduction
    /// child, or a depth-limit fallback. Any variation operator
    /// invalidates the cache unconditionally; the structural dedup pass
    /// in [`Self::score_pending`] then catches variation children that
    /// came out identical anyway (and identical siblings).
    fn next_generation(
        &mut self,
        population: &Generation,
        next: &mut Generation,
        scratch: &mut Scratch,
        cols: &Columns,
        lineage: bool,
    ) -> Vec<BreedRec> {
        let _span = dpr_telemetry::Span::enter("gp.breed");
        let n = population.len();
        next.clear();
        scratch.pending.clear();
        let mut recs = Vec::with_capacity(if lineage { n } else { 0 });

        // Elitism: the best individual survives unchanged, score and all.
        let elite_idx = population.best_index();
        let elite_error = population.error[elite_idx];
        next.nodes.extend_from_slice(population.genome(elite_idx));
        next.push(Some((elite_error, population.fitness[elite_idx])));
        if lineage {
            recs.push(BreedRec {
                op: "elite",
                parent: Some(elite_idx as u32),
                donor: None,
                parent_error: dpr_evidence::finite(elite_error),
            });
        }

        let (p_cx, p_sub, p_hoist, p_point) = (
            self.config.crossover_prob,
            self.config.subtree_mutation_prob,
            self.config.hoist_mutation_prob,
            self.config.point_mutation_prob,
        );
        let max_depth = self.config.max_depth;
        let n_vars = cols.n_vars();
        while next.len() < n {
            let roll: f64 = self.rng.gen();
            let picked_idx = self.tournament(&population.fitness);
            let parent_score = (population.error[picked_idx], population.fitness[picked_idx]);
            let parent = population.genome(picked_idx);
            let out = &mut next.nodes;
            let start = out.len();
            let (cached, op, donor_idx) = if roll < p_cx {
                let donor_idx = self.tournament(&population.fitness);
                self.crossover(parent, population.genome(donor_idx), out);
                (None, "crossover", Some(donor_idx))
            } else if roll < p_cx + p_sub {
                self.subtree_mutation(parent, n_vars, out);
                (None, "subtree-mutation", None)
            } else if roll < p_cx + p_sub + p_hoist {
                self.hoist_mutation(parent, out);
                (None, "hoist-mutation", None)
            } else if roll < p_cx + p_sub + p_hoist + p_point {
                self.point_mutation(parent, n_vars, out);
                (None, "point-mutation", None)
            } else {
                // Reproduction: the child IS the parent — reuse its score.
                out.extend_from_slice(parent);
                (Some(parent_score), "reproduction", None)
            };
            let depth = genome::depth(&out[start..], &mut scratch.depth);
            let (cached, op) = if depth > max_depth {
                out.truncate(start);
                out.extend_from_slice(parent);
                (Some(parent_score), "depth-fallback")
            } else {
                (cached, op)
            };
            if cached.is_none() {
                scratch.pending.push(next.len());
            }
            next.push(cached);
            if lineage {
                recs.push(BreedRec {
                    op,
                    parent: Some(picked_idx as u32),
                    donor: donor_idx.map(|d| d as u32),
                    parent_error: dpr_evidence::finite(parent_score.0),
                });
            }
        }
        recs
    }

    /// Subtree crossover: appends `recipient` with a random subtree
    /// replaced by a random subtree of `donor`.
    fn crossover(&mut self, recipient: &[Node], donor: &[Node], out: &mut Vec<Node>) {
        let at = self.rng.gen_range(0..recipient.len());
        let from = self.rng.gen_range(0..donor.len());
        let graft = &donor[from..genome::subtree_end(donor, from)];
        splice(recipient, at, graft, out);
    }

    /// Subtree mutation: appends `parent` with a random subtree replaced
    /// by a fresh grown tree.
    fn subtree_mutation(&mut self, parent: &[Node], n_vars: usize, out: &mut Vec<Node>) {
        let at = self.rng.gen_range(0..parent.len());
        let end = genome::subtree_end(parent, at);
        out.extend_from_slice(&parent[..at]);
        genome::random(
            &mut self.rng,
            3,
            false,
            n_vars,
            &self.config.functions,
            self.config.const_range,
            out,
        );
        out.extend_from_slice(&parent[end..]);
    }

    /// Hoist mutation: appends `parent` with a random subtree replaced by
    /// one of its own subtrees, shrinking the individual (bloat control).
    fn hoist_mutation(&mut self, parent: &[Node], out: &mut Vec<Node>) {
        let at = self.rng.gen_range(0..parent.len());
        let inner = at + self.rng.gen_range(0..genome::subtree_end(parent, at) - at);
        let graft = &parent[inner..genome::subtree_end(parent, inner)];
        splice(parent, at, graft, out);
    }

    /// Point mutation: appends a copy of `parent`, then independently
    /// perturbs constants and swaps operators or variables at ~15% of its
    /// nodes, visited in pre-order.
    fn point_mutation(&mut self, parent: &[Node], n_vars: usize, out: &mut Vec<Node>) {
        let start = out.len();
        out.extend_from_slice(parent);
        for node in &mut out[start..] {
            if !self.rng.gen_bool(0.15) {
                continue;
            }
            match node {
                Node::Const(v) => {
                    // Mix multiplicative and additive perturbations so both
                    // large and near-zero constants can move.
                    if self.rng.gen_bool(0.5) {
                        *v *= 1.0 + self.rng.gen_range(-0.2..0.2);
                    } else {
                        *v += self.rng.gen_range(-0.5..0.5);
                    }
                }
                Node::Var(i) => {
                    if n_vars > 1 {
                        *i = self.rng.gen_range(0..n_vars) as u32;
                    }
                }
                Node::Unary(op) => {
                    if let Some(new_op) = self.config.functions.unary.choose(&mut self.rng) {
                        *op = *new_op;
                    }
                }
                Node::Binary(op) => {
                    if let Some(new_op) = self.config.functions.binary.choose(&mut self.rng) {
                        *op = *new_op;
                    }
                }
            }
        }
    }

    /// Hill-climb the winner's constants: propose a perturbation of one
    /// constant at a time and keep it if the (scaled-space) error improves.
    ///
    /// Each proposal is written into the winner's genome, scored, and
    /// the old constant restored if it is rejected.
    fn polish(&mut self, best: &mut Individual, cols: &Columns, evaluations: &mut u64) {
        let _span = dpr_telemetry::Span::enter("gp.polish");
        // Genome positions of the constants, in pre-order.
        let slots: Vec<usize> = (0..best.genome.len())
            .filter(|&i| matches!(best.genome[i], Node::Const(_)))
            .collect();
        if self.config.polish_iters == 0 || slots.is_empty() {
            return;
        }
        for iter in 0..self.config.polish_iters {
            // Annealed step size: start coarse, end fine.
            let t = iter as f64 / self.config.polish_iters as f64;
            let sigma = 0.25 * (1.0 - t) + 0.002;
            let slot = slots[self.rng.gen_range(0..slots.len())];
            let Node::Const(old) = best.genome[slot] else {
                unreachable!("slots hold constants")
            };
            let proposed = if self.rng.gen_bool(0.5) {
                old * (1.0 + self.rng.gen_range(-sigma..sigma))
            } else {
                old + self.rng.gen_range(-sigma..sigma)
            };
            best.genome[slot] = Node::Const(proposed);
            *evaluations += cols.n_rows() as u64;
            let error = score_genome(&best.genome, cols, self.config.metric);
            if error < best.error {
                best.error = error;
                best.fitness = self.fitness(error, best.genome.len());
            } else {
                best.genome[slot] = Node::Const(old);
            }
        }
    }
}

/// Scores one genome with this thread's batch scratch.
fn score_genome(genome: &[Node], cols: &Columns, metric: Metric) -> f64 {
    score::with_thread_scratch(|scratch| score::error_on(genome, cols, metric, scratch))
}

/// Appends `parent` with the subtree rooted at `at` replaced by `graft`.
fn splice(parent: &[Node], at: usize, graft: &[Node], out: &mut Vec<Node>) {
    let end = genome::subtree_end(parent, at);
    out.extend_from_slice(&parent[..at]);
    out.extend_from_slice(graft);
    out.extend_from_slice(&parent[end..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(config: GpConfig, data: &Dataset) -> FittedModel {
        SymbolicRegressor::new(config).fit(data)
    }

    #[test]
    fn recovers_identity() {
        let data = Dataset::from_pairs((0..30).map(|i| (f64::from(i), f64::from(i)))).unwrap();
        let model = fit(GpConfig::fast(1), &data);
        assert!(model.train_error < 0.1, "error {}", model.train_error);
    }

    #[test]
    fn recovers_linear_scale_offset() {
        // Y = 1.8X - 40 (OBD-II coolant in Fahrenheit).
        let data =
            Dataset::from_pairs((160..=192).map(|x| (f64::from(x), 1.8 * f64::from(x) - 40.0)))
                .unwrap();
        let model = fit(GpConfig::fast(2), &data);
        assert!(
            model.agrees_with(|x| 1.8 * x[0] - 40.0, &[(160.0, 192.0)], 0.02),
            "got {model} with error {}",
            model.train_error
        );
    }

    #[test]
    fn recovers_product_formula() {
        // Y = X0*X1/5 — the paper's KWP engine-speed formula.
        let data = Dataset::from_triples((0..60).map(|i| {
            let x0 = f64::from(150 + (i * 7) % 100);
            let x1 = f64::from(10 + (i * 3) % 20);
            ((x0, x1), x0 * x1 / 5.0)
        }))
        .unwrap();
        let model = fit(GpConfig::fast(3), &data);
        assert!(
            model.agrees_with(
                |x| x[0] * x[1] / 5.0,
                &[(150.0, 249.0), (10.0, 29.0)],
                0.03
            ),
            "got {model} with error {}",
            model.train_error
        );
    }

    #[test]
    fn threshold_stops_early_on_trivial_data() {
        let data = Dataset::from_pairs((1..40).map(|i| (f64::from(i), f64::from(i)))).unwrap();
        let mut engine = SymbolicRegressor::new(GpConfig::fast(4));
        let model = engine.fit(&data);
        let report = engine.last_report().unwrap();
        assert!(report.stopped_by_threshold);
        assert!(model.generations < engine.config().max_generations);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::from_pairs((0..25).map(|i| {
            let x = f64::from(i * 9 % 200);
            (x, 0.5 * x + 3.0)
        }))
        .unwrap();
        let a = fit(GpConfig::fast(99), &data);
        let b = fit(GpConfig::fast(99), &data);
        assert_eq!(a.expr, b.expr);
        assert_eq!(a.train_error, b.train_error);
    }

    #[test]
    fn constant_target_learned_as_constant() {
        let data = Dataset::from_pairs((0..20).map(|i| (f64::from(i), 7.0))).unwrap();
        let model = fit(GpConfig::fast(5), &data);
        assert!(model.train_error < 0.05);
        assert!((model.predict(&[100.0]) - 7.0).abs() < 0.5);
    }

    #[test]
    fn arithmetic_function_set_excludes_trig() {
        let config = GpConfig {
            functions: FunctionSet::arithmetic(),
            ..GpConfig::fast(6)
        };
        let data = Dataset::from_pairs((1..30).map(|i| (f64::from(i), 2.0 * f64::from(i)))).unwrap();
        let model = fit(config, &data);
        let printed = model.expr.to_string();
        for banned in ["sin", "cos", "tan", "sqrt", "log"] {
            assert!(!printed.contains(banned), "{printed}");
        }
        assert!(model.train_error < 0.5);
    }

    #[test]
    fn lineage_event_traces_winner_back_to_init() {
        let data = Dataset::from_pairs((0..30).map(|i| {
            let x = f64::from(i * 7 % 120);
            (x, 0.4 * x + 2.0)
        }))
        .unwrap();
        // Fit once without capture, once inside a capture: same model.
        let bare = fit(GpConfig::fast(11), &data);
        let (model, events) = dpr_evidence::capture(|| {
            dpr_evidence::with_subject("rpm", || fit(GpConfig::fast(11), &data))
        });
        assert_eq!(bare.expr, model.expr, "capture must not perturb the run");
        assert_eq!(bare.train_error, model.train_error);

        let lineages: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                dpr_evidence::Event::Lineage(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lineages.len(), 1);
        let lineage = lineages[0];
        assert_eq!(lineage.subject, "rpm");
        assert_eq!(lineage.expression, model.expr.to_string());
        assert_eq!(lineage.evaluations, model.evaluations);
        assert_eq!(lineage.generations as usize, model.generations);
        assert!(!lineage.steps.is_empty());
        // Oldest step is an initialization op at generation 0; every
        // later in-run step names its parent in the previous generation.
        let first = &lineage.steps[0];
        assert_eq!(first.generation, 0);
        assert!(
            first.op.starts_with("init") || first.op == "seed-template",
            "unexpected origin op {}",
            first.op
        );
        assert!(first.parent.is_none());
        let in_run: Vec<_> = lineage
            .steps
            .iter()
            .filter(|s| (s.generation as usize) < model.generations)
            .collect();
        for pair in in_run.windows(2) {
            assert_eq!(pair[1].generation, pair[0].generation + 1);
            assert!(pair[1].parent.is_some());
        }
        assert!(lineage.best_error_history.last().copied().flatten().is_some());
    }

    #[test]
    fn report_history_is_nonincreasing() {
        let data = Dataset::from_pairs((0..40).map(|i| {
            let x = f64::from(i);
            (x, x * x * 0.01)
        }))
        .unwrap();
        let mut engine = SymbolicRegressor::new(GpConfig::fast(7));
        engine.fit(&data);
        let history = &engine.last_report().unwrap().best_error_history;
        for pair in history.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12, "history must not regress");
        }
    }
}
