//! The genetic-programming engine: initialization, selection, variation,
//! and the paper's two stopping criteria.
//!
//! # Performance and determinism
//!
//! Fitness scoring is the engine's hot loop (population × generations ×
//! rows). Two optimizations keep it fast without perturbing a single
//! result:
//!
//! * every individual is flattened to a [`CompiledExpr`] and scored with
//!   the batch evaluator over a column-major [`Columns`] view — both
//!   bit-identical to the recursive walker;
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

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::compile::{BatchScratch, Columns, CompiledExpr};
use crate::expr::{BinaryOp, Expr, UnaryOp};
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

struct Individual {
    expr: Expr,
    /// Raw metric error in scaled space (no parsimony).
    error: f64,
    /// Selection fitness: error plus parsimony penalty.
    fitness: f64,
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
        let (mut population, init_recs) =
            self.init_population(&cols, &mut evaluations, &mut cache_hits, lineage_on);
        if lineage_on {
            breeding.push(init_recs);
        }
        let mut history = Vec::with_capacity(self.config.max_generations);
        let mut stopped_by_threshold = false;
        let mut generations = 0;

        for _gen in 0..self.config.max_generations {
            generations += 1;
            let best = population
                .iter()
                .map(|i| i.error)
                .fold(f64::INFINITY, f64::min);
            history.push(best);
            if best <= self.config.stop_threshold {
                stopped_by_threshold = true;
                break;
            }
            let (next, recs) = self.next_generation(
                population,
                &cols,
                &mut evaluations,
                &mut cache_hits,
                lineage_on,
            );
            population = next;
            if lineage_on {
                breeding.push(recs);
            }
        }
        // Record the final state's best as well.
        let best_idx = population
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.error.total_cmp(&b.error))
            .map(|(i, _)| i)
            .expect("population is non-empty");
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
        let mut best = population.swap_remove(best_idx);
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
        let mut scratch = BatchScratch::new();
        let pre_polish = best.error;
        self.polish(&mut best, &cols, &mut scratch, &mut evaluations);
        if lineage_on && best.error < pre_polish {
            post_step(&mut steps, "polish", pre_polish);
        }

        // Closed-form residual correction for missed low-order terms, and
        // a pure low-order candidate raced against the GP winner.
        if self.config.refit {
            dpr_telemetry::counter("gp.refit_attempts").inc(1);
            if let Some(corrected) = crate::refit::residual_refit(&best.expr, &scaled, self.config.metric) {
                let (error, fitness) = self.evaluate(&corrected, &cols, &mut scratch, &mut evaluations);
                if error < best.error {
                    if lineage_on {
                        post_step(&mut steps, "refit-residual", best.error);
                    }
                    best.expr = corrected;
                    best.error = error;
                    best.fitness = fitness;
                    dpr_telemetry::counter("gp.refit_applied").inc(1);
                }
            }
            if let Some(candidate) = crate::refit::loworder_candidate(&scaled) {
                let (error, fitness) = self.evaluate(&candidate, &cols, &mut scratch, &mut evaluations);
                if error < best.error {
                    if lineage_on {
                        post_step(&mut steps, "refit-loworder", best.error);
                    }
                    best.expr = candidate;
                    best.error = error;
                    best.fitness = fitness;
                    dpr_telemetry::counter("gp.refit_applied").inc(1);
                }
            }
            // Polish again: grafted coefficients interact with the original
            // constants.
            let pre_polish = best.error;
            self.polish(&mut best, &cols, &mut scratch, &mut evaluations);
            if lineage_on && best.error < pre_polish {
                post_step(&mut steps, "polish", pre_polish);
            }
        }

        let expr = best.expr.simplify();
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

    /// Scores one expression: compile, batch-evaluate, apply the parsimony
    /// penalty. Used by the sequential tail (polish, refit) — population
    /// scoring goes through [`Self::score_pending`].
    fn evaluate(
        &self,
        expr: &Expr,
        cols: &Columns,
        scratch: &mut BatchScratch,
        evaluations: &mut u64,
    ) -> (f64, f64) {
        *evaluations += cols.n_rows() as u64;
        let error = CompiledExpr::compile(expr).error_on(cols, self.config.metric, scratch);
        let fitness = if error.is_finite() {
            error + self.config.parsimony * expr.size() as f64
        } else {
            f64::INFINITY
        };
        (error, fitness)
    }

    /// Turns bred expressions into scored individuals.
    ///
    /// Entries carrying a cached `(error, fitness)` — individuals the
    /// breeding phase copied over unchanged — are not re-scored. The rest
    /// are compiled once on the breeding thread, deduplicated by compiled
    /// program structure, and the distinct programs are mapped through
    /// the [`dpr_par`] pool. A fit that is itself a task of the pipeline's
    /// sensor fan-out makes a nested call, which drains inline on that
    /// task's thread.
    ///
    /// Scoring is pure, results come back in index order, and a
    /// duplicate reuses the bit-identical error its representative
    /// computed, so the outcome is bit-identical for any `DPR_THREADS`.
    /// `evaluations` stays the *logical* count (pending × rows)
    /// regardless of dedup; the physical saving shows up in
    /// `gp.dedup_hits`.
    fn score_pending(
        &self,
        planned: Vec<(Expr, Option<(f64, f64)>)>,
        cols: &Columns,
        evaluations: &mut u64,
        cache_hits: &mut u64,
    ) -> Vec<Individual> {
        let pending: Vec<usize> = planned
            .iter()
            .enumerate()
            .filter(|(_, (_, cached))| cached.is_none())
            .map(|(i, _)| i)
            .collect();
        *evaluations += (pending.len() * cols.n_rows()) as u64;
        let hits = (planned.len() - pending.len()) as u64;
        if hits > 0 {
            dpr_telemetry::counter("gp.fitness_cache_hits").inc(hits);
            *cache_hits += hits;
        }

        // Compile on the breeding thread: dedup needs the programs
        // anyway, compilation is ~1% of scoring cost, and it keeps the
        // workers purely arithmetic.
        let programs: Vec<CompiledExpr> = pending
            .iter()
            .map(|&i| CompiledExpr::compile(&planned[i].0))
            .collect();
        let groups = crate::dedup::group(&programs);
        if !programs.is_empty() {
            dpr_telemetry::counter("gp.dedup_distinct").inc(groups.reps.len() as u64);
            if groups.hits() > 0 {
                dpr_telemetry::counter("gp.dedup_hits").inc(groups.hits());
            }
        }
        let distinct: Vec<&CompiledExpr> = groups.reps.iter().map(|&r| &programs[r]).collect();

        let metric = self.config.metric;
        // Labelled so the profile store attributes the pool call (and its
        // per-worker busy/idle/alloc accounting) to GP fitness scoring.
        let errors: Vec<f64> = dpr_prof::with_label(SCORE_LABEL, || {
            dpr_par::Pool::from_env().par_map(&distinct, |program| {
                crate::compile::with_thread_scratch(|scratch| {
                    program.error_on(cols, metric, scratch)
                })
            })
        });

        // `pending` is in index order, so fresh scores interleave back
        // into the cached ones by consuming the assignments in sequence.
        let parsimony = self.config.parsimony;
        let mut next_pending = 0usize;
        planned
            .into_iter()
            .map(|(expr, cached)| {
                let (error, fitness) = cached.unwrap_or_else(|| {
                    let error = errors[groups.assign[next_pending] as usize];
                    next_pending += 1;
                    let fitness = if error.is_finite() {
                        error + parsimony * expr.size() as f64
                    } else {
                        f64::INFINITY
                    };
                    (error, fitness)
                });
                Individual { expr, error, fitness }
            })
            .collect()
    }

    fn init_population(
        &mut self,
        cols: &Columns,
        evaluations: &mut u64,
        cache_hits: &mut u64,
        lineage: bool,
    ) -> (Vec<Individual>, Vec<BreedRec>) {
        let n = self.config.population_size;
        let n_vars = cols.n_vars();
        let mut exprs = Vec::with_capacity(n);
        let mut recs = Vec::new();

        // Informed template seeding (~6% of the population): affine and
        // product skeletons with random constants. These do not contain
        // the answer — GP still has to tune every coefficient — but they
        // mirror gplearn's practical bias toward low-order structure.
        if self.config.seeded_init {
            let templates = n / 16;
            for _ in 0..templates {
                let expr = self.random_template(n_vars);
                exprs.push(expr);
                if lineage {
                    recs.push(BreedRec::init("seed-template"));
                }
            }
        }

        // Ramped half-and-half for the rest. Generation happens first (all
        // RNG draws, sequential); scoring follows in one parallel pass.
        let (lo, hi) = self.config.init_depth;
        let unary = self.config.functions.unary.clone();
        let binary = self.config.functions.binary.clone();
        let mut depth = lo;
        while exprs.len() < n {
            let full = exprs.len() % 2 == 0;
            let expr = if full {
                Expr::random_full(
                    &mut self.rng,
                    depth,
                    n_vars,
                    &unary,
                    &binary,
                    self.config.const_range,
                )
            } else {
                Expr::random_grow(
                    &mut self.rng,
                    depth,
                    n_vars,
                    &unary,
                    &binary,
                    self.config.const_range,
                )
            };
            exprs.push(expr);
            if lineage {
                recs.push(BreedRec::init(if full { "init-full" } else { "init-grow" }));
            }
            depth = if depth >= hi { lo } else { depth + 1 };
        }
        let pop = self.score_pending(
            exprs.into_iter().map(|e| (e, None)).collect(),
            cols,
            evaluations,
            cache_hits,
        );
        (pop, recs)
    }

    /// A random low-order template: `c0*Xi + c1`, `c0*Xi + c1*Xj + c2`, or
    /// `c0*Xi*Xj + c1`.
    fn random_template(&mut self, n_vars: usize) -> Expr {
        let c = |rng: &mut StdRng| {
            Expr::Const((rng.gen_range(-10.0..=10.0f64) * 1000.0).round() / 1000.0)
        };
        let var = |rng: &mut StdRng| Expr::Var(rng.gen_range(0..n_vars));
        let mul = |a: Expr, b: Expr| Expr::Binary(BinaryOp::Mul, Box::new(a), Box::new(b));
        let add = |a: Expr, b: Expr| Expr::Binary(BinaryOp::Add, Box::new(a), Box::new(b));
        match self.rng.gen_range(0..3) {
            0 => {
                let t = mul(c(&mut self.rng), var(&mut self.rng));
                add(t, c(&mut self.rng))
            }
            1 if n_vars > 1 => {
                let t0 = mul(c(&mut self.rng), Expr::Var(0));
                let t1 = mul(c(&mut self.rng), Expr::Var(1));
                add(add(t0, t1), c(&mut self.rng))
            }
            _ if n_vars > 1 => {
                let t = mul(c(&mut self.rng), mul(Expr::Var(0), Expr::Var(1)));
                add(t, c(&mut self.rng))
            }
            _ => {
                let t = mul(c(&mut self.rng), var(&mut self.rng));
                add(t, c(&mut self.rng))
            }
        }
    }

    /// Tournament selection, returning the winner's *index* so breeding can
    /// record parent identities for the evidence ledger. Draw order and the
    /// tie-breaking rule (an earlier draw wins ties) are unchanged from the
    /// original reference-returning implementation.
    fn tournament(&mut self, population: &[Individual]) -> usize {
        let mut best: Option<usize> = None;
        for _ in 0..self.config.tournament_size {
            let candidate = self.rng.gen_range(0..population.len());
            best = match best {
                Some(b) if population[b].fitness <= population[candidate].fitness => Some(b),
                _ => Some(candidate),
            };
        }
        best.expect("tournament size is positive")
    }

    /// Breeds and scores the next generation.
    ///
    /// The breeding loop runs sequentially and consumes the RNG stream in
    /// exactly the order the fully-sequential engine did: selection draws
    /// only depend on the *previous* generation's (already known) scores,
    /// never on a sibling's. Scoring of the bred children then happens in
    /// one deterministic parallel pass via [`Self::score_pending`].
    ///
    /// Fitness-cache rule: a score is carried over only when the child is
    /// byte-for-byte the parent expression — the elite copy, a
    /// reproduction child, or a depth-limit fallback. Any variation
    /// operator invalidates the cache unconditionally; the structural
    /// dedup pass in [`Self::score_pending`] then catches variation
    /// children that came out identical anyway (and identical siblings)
    /// at the compiled-program level, where the comparison is a cheap
    /// slice walk instead of a tree traversal.
    fn next_generation(
        &mut self,
        population: Vec<Individual>,
        cols: &Columns,
        evaluations: &mut u64,
        cache_hits: &mut u64,
        lineage: bool,
    ) -> (Vec<Individual>, Vec<BreedRec>) {
        let n = population.len();
        let mut planned: Vec<(Expr, Option<(f64, f64)>)> = Vec::with_capacity(n);
        let mut recs = Vec::new();

        // Elitism: the best individual survives unchanged, score and all.
        let elite_idx = population
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.error.total_cmp(&b.error))
            .map(|(i, _)| i)
            .expect("population is non-empty");
        planned.push((
            population[elite_idx].expr.clone(),
            Some((population[elite_idx].error, population[elite_idx].fitness)),
        ));
        if lineage {
            recs.push(BreedRec {
                op: "elite",
                parent: Some(elite_idx as u32),
                donor: None,
                parent_error: dpr_evidence::finite(population[elite_idx].error),
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
        while planned.len() < n {
            let roll: f64 = self.rng.gen();
            let picked_idx = self.tournament(&population);
            let picked = &population[picked_idx];
            let parent_score = (picked.error, picked.fitness);
            let parent = picked.expr.clone();
            let (child, cached, op, donor_idx) = if roll < p_cx {
                let donor_idx = self.tournament(&population);
                let donor = population[donor_idx].expr.clone();
                (self.crossover(&parent, &donor), None, "crossover", Some(donor_idx))
            } else if roll < p_cx + p_sub {
                (self.subtree_mutation(&parent, n_vars), None, "subtree-mutation", None)
            } else if roll < p_cx + p_sub + p_hoist {
                (self.hoist_mutation(&parent), None, "hoist-mutation", None)
            } else if roll < p_cx + p_sub + p_hoist + p_point {
                (self.point_mutation(&parent, n_vars), None, "point-mutation", None)
            } else {
                // Reproduction: the child IS the parent — reuse its score.
                (parent.clone(), Some(parent_score), "reproduction", None)
            };
            let (child, cached, op) = if child.depth() > max_depth {
                (parent, Some(parent_score), "depth-fallback")
            } else {
                (child, cached, op)
            };
            planned.push((child, cached));
            if lineage {
                recs.push(BreedRec {
                    op,
                    parent: Some(picked_idx as u32),
                    donor: donor_idx.map(|d| d as u32),
                    parent_error: dpr_evidence::finite(parent_score.0),
                });
            }
        }
        let pop = self.score_pending(planned, cols, evaluations, cache_hits);
        (pop, recs)
    }

    /// Subtree crossover: replace a random node of `recipient` with a
    /// random subtree of `donor`.
    fn crossover(&mut self, recipient: &Expr, donor: &Expr) -> Expr {
        let mut child = recipient.clone();
        let at = self.rng.gen_range(0..child.size());
        let from = self.rng.gen_range(0..donor.size());
        *child.node_mut(at) = donor.node(from).clone();
        child
    }

    /// Subtree mutation: replace a random node with a fresh grown tree.
    fn subtree_mutation(&mut self, parent: &Expr, n_vars: usize) -> Expr {
        let mut child = parent.clone();
        let at = self.rng.gen_range(0..child.size());
        let unary = self.config.functions.unary.clone();
        let binary = self.config.functions.binary.clone();
        let fresh = Expr::random_grow(
            &mut self.rng,
            3,
            n_vars,
            &unary,
            &binary,
            self.config.const_range,
        );
        *child.node_mut(at) = fresh;
        child
    }

    /// Hoist mutation: replace a random node with one of its own subtrees,
    /// shrinking the individual (bloat control).
    fn hoist_mutation(&mut self, parent: &Expr) -> Expr {
        let mut child = parent.clone();
        let at = self.rng.gen_range(0..child.size());
        let node = child.node(at).clone();
        let inner_at = self.rng.gen_range(0..node.size());
        let hoisted = node.node(inner_at).clone();
        *child.node_mut(at) = hoisted;
        child
    }

    /// Point mutation: independently perturb constants and swap operators
    /// or variables at ~15% of nodes.
    fn point_mutation(&mut self, parent: &Expr, n_vars: usize) -> Expr {
        let mut child = parent.clone();
        let size = child.size();
        let unary = self.config.functions.unary.clone();
        let binary = self.config.functions.binary.clone();
        for idx in 0..size {
            if !self.rng.gen_bool(0.15) {
                continue;
            }
            let node = child.node_mut(idx);
            match node {
                Expr::Const(v) => {
                    // Mix multiplicative and additive perturbations so both
                    // large and near-zero constants can move.
                    if self.rng.gen_bool(0.5) {
                        *v *= 1.0 + self.rng.gen_range(-0.2..0.2);
                    } else {
                        *v += self.rng.gen_range(-0.5..0.5);
                    }
                }
                Expr::Var(i) => {
                    if n_vars > 1 {
                        *i = self.rng.gen_range(0..n_vars);
                    }
                }
                Expr::Unary(op, _) => {
                    if let Some(new_op) = unary.choose(&mut self.rng) {
                        *op = *new_op;
                    }
                }
                Expr::Binary(op, _, _) => {
                    if let Some(new_op) = binary.choose(&mut self.rng) {
                        *op = *new_op;
                    }
                }
            }
        }
        child
    }

    /// Hill-climb the winner's constants: propose a perturbation of one
    /// constant at a time and keep it if the (scaled-space) error improves.
    fn polish(
        &mut self,
        best: &mut Individual,
        cols: &Columns,
        scratch: &mut BatchScratch,
        evaluations: &mut u64,
    ) {
        if self.config.polish_iters == 0 {
            return;
        }
        let n_consts = best.expr.clone().constants_mut().len();
        if n_consts == 0 {
            return;
        }
        for iter in 0..self.config.polish_iters {
            // Annealed step size: start coarse, end fine.
            let t = iter as f64 / self.config.polish_iters as f64;
            let sigma = 0.25 * (1.0 - t) + 0.002;
            let mut candidate = best.expr.clone();
            {
                let mut consts = candidate.constants_mut();
                let which = self.rng.gen_range(0..consts.len());
                let c = &mut *consts[which];
                if self.rng.gen_bool(0.5) {
                    *c *= 1.0 + self.rng.gen_range(-sigma..sigma);
                } else {
                    *c += self.rng.gen_range(-sigma..sigma);
                }
            }
            let (error, fitness) = self.evaluate(&candidate, cols, scratch, evaluations);
            if error < best.error {
                best.expr = candidate;
                best.error = error;
                best.fitness = fitness;
            }
        }
    }
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
