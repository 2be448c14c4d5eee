//! Analysis passes over the captures: set-up with its reference
//! analyses, and the `car` workload.

use crate::check::{verify, Outcome, Tally};
use crate::inputs::{self, CarInput};
use crate::layers::{self, PoolDelta, Sample, Window};
use crate::metrics::{self, median, smooth_quantile, Report, Values};
use dp_reverser::{DpReverser, PrecisionReport, ReverseEngineeringResult};
use dpr_capture::CaptureReader;
use dpr_telemetry::{Collector, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capture sets generated per set-up: `setup_s` is their median
/// generation time plus the reference analysis, and the sets must be
/// byte-identical.
pub const SETUP_REPEATS: usize = 3;

/// How a pass spreads the captures over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One car per worker of a pool this wide, as `dpr-bench fleet`
    /// fans a campaign out: the quickest way to make the references.
    Pool(usize),
    /// One car after another on the calling thread: the `car` workload.
    Sequential,
}

/// One analyzed capture.
#[derive(Debug)]
pub struct Analysis {
    /// What the analyzer recovered.
    pub result: ReverseEngineeringResult,
    /// The benchmark's timings of the run.
    pub sample: Sample,
}

/// Decodes and analyzes one capture inside a fresh telemetry registry,
/// as the service's workers do; `spans` attaches a collector to it.
pub fn analyze(input: &CarInput, car: usize, spans: bool) -> Result<Analysis, String> {
    let registry = Arc::new(Registry::new());
    let collector = spans.then(|| {
        let collector = Arc::new(Collector::new());
        registry.add_sink(Arc::clone(&collector) as _);
        collector
    });
    dpr_telemetry::scoped(registry, || {
        let started = Instant::now();
        let reader = CaptureReader::new(input.capture.as_slice())
            .map_err(|e| format!("{:?}: unreadable capture: {e}", input.id))?;
        let (session, stats) = reader.read_session();
        let decode = started.elapsed();
        let pipeline = DpReverser::new(dpr_bench::experiment_config(input.id, input.seed));
        let started = Instant::now();
        let result = pipeline.analyze_replay(&session);
        let sample = Sample {
            car,
            decode,
            records: stats.records_read,
            analyze: started.elapsed(),
            trace: result.trace.clone(),
            spans: collector.map(|c| c.records()).unwrap_or_default(),
            ..Sample::default()
        };
        Ok(Analysis { result, sample })
    })
}

/// Analyzes every capture once, in `order` (indices into `inputs`),
/// returning outcomes in that order and the pass's wall time.
pub fn pass(
    inputs: &[CarInput],
    order: &[usize],
    shape: Shape,
    spans: bool,
) -> (Vec<Result<Analysis, String>>, Duration) {
    let indexed: Vec<(usize, &CarInput)> = order.iter().map(|&car| (car, &inputs[car])).collect();
    let run = |&(car, input): &(usize, &CarInput)| analyze(input, car, spans);
    let started = Instant::now();
    let outcomes = match shape {
        Shape::Pool(threads) => dpr_par::Pool::new(threads).par_map(&indexed, run),
        Shape::Sequential => indexed.iter().map(run).collect(),
    };
    (outcomes, started.elapsed())
}

/// Scores a result against the ground truth of the simulated vehicle its
/// capture was recorded from, rebuilt from the profile and seed.
pub fn score(input: &CarInput, result: &ReverseEngineeringResult) -> PrecisionReport {
    let vehicle =
        dpr_vehicle::profiles::build(input.id, input.seed).attach(&mut dpr_can::CanBus::new());
    dp_reverser::evaluate(result, &vehicle)
}

/// Times `canonical_json` on a result and records it on its sample.
fn canonical(result: &ReverseEngineeringResult, sample: &mut Sample) -> String {
    let started = Instant::now();
    let json = result.canonical_json();
    sample.json = started.elapsed();
    sample.json_bytes = json.len();
    json
}

/// What set-up produced.
#[derive(Debug)]
pub struct Setup {
    /// The captures, in car order.
    pub inputs: Vec<CarInput>,
    /// Canonical JSON of each capture's reference analysis.
    pub references: Vec<String>,
    /// The reference analyses' timings.
    pub samples: Vec<Sample>,
    /// Formula precision of the reference results.
    pub precision: PrecisionReport,
    /// Wall time of the reference pass.
    pub reference_wall: Duration,
    /// Median capture-set generation time plus the reference analysis.
    pub setup_s: f64,
    /// Whether every generation produced byte-identical captures.
    pub deterministic: bool,
}

/// Generates the captures [`SETUP_REPEATS`] times and analyzes them
/// once in `shape`, in car order, for the references.
pub fn setup(shape: Shape) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs: Option<Vec<CarInput>> = None;
    let mut deterministic = true;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let generated = inputs::generate();
        times.push(started.elapsed().as_secs_f64());
        deterministic &= inputs
            .as_ref()
            .is_none_or(|previous| *previous == generated);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set-up generates the captures at least once");
    let started = Instant::now();
    let in_order: Vec<usize> = (0..inputs.len()).collect();
    let (analyses, reference_wall) = pass(&inputs, &in_order, shape, false);
    let mut references = Vec::with_capacity(inputs.len());
    let mut samples = Vec::with_capacity(inputs.len());
    let mut precision = PrecisionReport::default();
    for (input, analysis) in inputs.iter().zip(analyses) {
        let Analysis { result, mut sample } = analysis?;
        references.push(canonical(&result, &mut sample));
        precision.merge(score(input, &result));
        samples.push(sample);
    }
    Ok(Setup {
        setup_s: median(&times) + started.elapsed().as_secs_f64(),
        inputs,
        references,
        samples,
        precision,
        reference_wall,
        deterministic,
    })
}

/// Runs the `car` workload: whole passes over the 18 captures, one car
/// after another in the seed's order for the pass, until `seconds` have
/// gone (at least one pass), each result checked against its reference.
///
/// Each car's time is its median over the passes, so a few seconds of
/// host slowdown that hit one pass do not move it; `analysis_s` sums
/// those medians and the job quantiles are taken over them.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let (shape, threads) = (Shape::Sequential, dpr_par::threads());
    // In a traced run the reference pass has the workload's own shape,
    // so it is also the untraced baseline of the tracing overhead.
    let setup = setup(if traced { shape } else { Shape::Pool(threads) })?;

    let window = Duration::from_secs(seconds);
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut car_ms = vec![Vec::new(); setup.inputs.len()];
    let mut samples = Vec::new();
    let mut precision: Option<PrecisionReport> = None;
    let mut cpu_s = 0.0;
    crate::set_profiling(traced);
    let prof_before = dpr_prof::snapshot();
    let started = Instant::now();
    loop {
        let order = inputs::round_order(seed, walls.len(), setup.inputs.len());
        let cpu_before = metrics::cpu_seconds();
        crate::alloc_tally::set_counting(traced);
        let (analyses, wall) = pass(&setup.inputs, &order, shape, traced);
        crate::alloc_tally::set_counting(false);
        cpu_s += metrics::cpu_seconds() - cpu_before;
        walls.push(wall);
        let mut pass_precision = PrecisionReport::default();
        for (&car, analysis) in order.iter().zip(analyses) {
            let input = &setup.inputs[car];
            let what = format!("{:?}", input.id);
            let Analysis { result, mut sample } = match analysis {
                Ok(analysis) => analysis,
                Err(why) => {
                    tally.record(&what, &Outcome::Error(why));
                    continue;
                }
            };
            let json = canonical(&result, &mut sample);
            tally.record(&what, &verify(json.as_bytes(), &setup.references[car]));
            if precision.is_none() {
                pass_precision.merge(score(input, &result));
            }
            car_ms[car].push((sample.decode + sample.analyze).as_secs_f64() * 1e3);
            samples.push(sample);
        }
        precision.get_or_insert(pass_precision);
        if started.elapsed() + wall / 2 >= window {
            break;
        }
    }
    let pool = PoolDelta::between(&prof_before, &dpr_prof::snapshot());
    crate::set_profiling(false);

    let pass_s: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
    let car_ms: Vec<f64> = car_ms.iter().map(|times| median(times)).collect();
    let mut lines = vec![
        format!(
            "{} pass(es) over {} captures, pass wall {:?} s; reference pass {:.3} s; set-up {:.3} s",
            walls.len(),
            setup.inputs.len(),
            pass_s,
            setup.reference_wall.as_secs_f64(),
            setup.setup_s,
        ),
        pool.verdict(threads),
    ];
    if let Some(first) = &tally.first_failure {
        lines.push(format!("first failure: {first}"));
    }
    let values = if traced {
        let window = Window {
            wall: walls.iter().sum(),
            cpu_s,
            threads,
            pool,
            allocs: crate::alloc_tally::read(),
            overhead_share: median(&pass_s) / setup.reference_wall.as_secs_f64() - 1.0,
            serve: None,
        };
        let (values, table) = layers::per_layer(&samples, &window);
        lines.extend(table);
        values
    } else {
        let precision = precision.unwrap_or_default();
        Values::from([
            ("setup_s", setup.setup_s),
            ("analysis_s", car_ms.iter().sum::<f64>() / 1e3),
            ("job_p50_ms", smooth_quantile(&car_ms, 0.5)),
            ("job_p90_ms", smooth_quantile(&car_ms, 0.9)),
            ("ok_share", tally.ok_share()),
            ("formula_precision", precision.formula_precision()),
            ("peak_rss_mb", metrics::peak_rss_mb()),
        ])
    };
    Ok(Report {
        correct: tally.failed() == 0 && setup.deterministic,
        tally,
        values,
        lines,
    })
}
