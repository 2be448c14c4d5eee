//! The end-to-end pipeline: capture + video in, recovered protocol out.

use dpr_can::{BusLog, Micros};
use dpr_capture::{CaptureReader, CaptureSession};
use dpr_cps::clock::{align_by_obd, retime_readings};
use dpr_cps::script::ExecutionLog;
use dpr_frames::{analyze_capture, Scheme};
use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
use dpr_ocr::{filter_readings, read_frames, OcrChannel, RangeBook};
use dpr_tool::UiFrame;
use serde::{Deserialize, Serialize};

use dpr_baselines::{PolynomialFit, Regressor};

use crate::associate::{match_series_two_pass, LabelSeries, MatchScore};
use crate::result::{RecoveredEcr, RecoveredEsv, RecoveredKind, ReverseEngineeringResult};

/// The `dpr_prof` label of the inference stage's per-sensor fan-out, so
/// the pool profile tells that job apart from other pool calls in the
/// process (a fleet run's per-car fan-out, a bench sweep).
pub const INFERENCE_LABEL: &str = "inference";

/// How the pipeline aligns camera time with bus time (paper §9.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Alignment {
    /// Clocks are already synchronized (NTP happened out of band).
    None,
    /// Estimate the offset from decodable OBD-II traffic in the capture.
    ByObd,
    /// Apply a known offset estimate (e.g. from simulated NTP).
    FixedOffset(i64),
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// The car's transport scheme (prerequisite domain knowledge, §6).
    pub scheme: Scheme,
    /// The OCR noise channel to read the video with.
    pub ocr: OcrChannel,
    /// Stage-1 plausibility ranges for the incorrect-ESV filter.
    pub range_book: RangeBook,
    /// Genetic-programming settings for formula inference.
    pub gp: GpConfig,
    /// Clock alignment method.
    pub align: Alignment,
    /// Minimum `(X, Y)` pairs required before inferring a formula.
    pub min_pairs: usize,
    /// Association confidence threshold.
    pub match_threshold: f64,
    /// Maximum X-to-Y timestamp distance when pairing.
    pub pair_window: Micros,
    /// Whether to run the §3.3 incorrect-ESV filter and the pairing-level
    /// robust trim (ablation toggle; both on in the paper's pipeline).
    pub use_filter: bool,
}

impl PipelineConfig {
    /// The paper's settings: full GP budget (1000 × 30).
    pub fn paper(scheme: Scheme, seed: u64) -> Self {
        PipelineConfig {
            scheme,
            ocr: OcrChannel::new(0.9976, seed),
            range_book: RangeBook::standard(),
            gp: GpConfig::paper(seed),
            align: Alignment::None,
            min_pairs: 6,
            match_threshold: 0.5,
            // Tight enough that an X sample only pairs with the display
            // frame of its own poll round: page transitions (≥ ~0.5 s of
            // stylus travel) leave no stale cross-page pairs.
            pair_window: Micros::from_millis(350),
            use_filter: true,
        }
    }

    /// A reduced GP budget for tests and quick runs.
    pub fn fast(scheme: Scheme, seed: u64) -> Self {
        PipelineConfig {
            gp: GpConfig::fast(seed),
            ..Self::paper(scheme, seed)
        }
    }
}

/// The DP-Reverser pipeline.
///
/// Construct once per capture; [`analyze`](Self::analyze) is deterministic
/// given the configuration seed.
#[derive(Debug, Clone)]
pub struct DpReverser {
    config: PipelineConfig,
}

impl DpReverser {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        DpReverser { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Like [`analyze`](Self::analyze), but auto-detects the transport
    /// scheme from the capture ([`dpr_frames::Scheme::detect`]) instead of
    /// trusting the configured one — one step beyond the paper, which
    /// lists scheme knowledge as a prerequisite (§6).
    pub fn analyze_auto(
        &self,
        log: &BusLog,
        frames: &[UiFrame],
        execution: Option<&ExecutionLog>,
    ) -> ReverseEngineeringResult {
        let detected = Scheme::detect(log);
        if detected == self.config.scheme {
            return self.analyze(log, frames, execution);
        }
        let config = PipelineConfig {
            scheme: detected,
            ..self.config.clone()
        };
        DpReverser::new(config).analyze(log, frames, execution)
    }

    /// Runs the full analysis: frames analysis (§3.2), screenshot analysis
    /// (§3.3), request-message analysis (§3.4), and response-message
    /// analysis (§3.5). The optional execution log adds semantic labels to
    /// recovered control records.
    pub fn analyze(
        &self,
        log: &BusLog,
        frames: &[UiFrame],
        execution: Option<&ExecutionLog>,
    ) -> ReverseEngineeringResult {
        let registry = dpr_telemetry::registry();
        let tracer = dpr_telemetry::TraceBuilder::new(registry);
        self.analyze_with(tracer, log, frames, execution)
    }

    /// Offline entry point: replays a recorded session
    /// ([`dpr_capture`]) through the same stages as a live run. Given a
    /// capture recorded from a collection run, the result is
    /// bit-identical to [`analyze`](Self::analyze) on that run's
    /// artifacts (the capture's clicker actions stand in for the
    /// execution log; a capture without any becomes `execution: None`).
    /// Damaged records are skipped, not fatal — the reader's tallies
    /// land on the trace's `capture` stage as `capture.crc_skipped` /
    /// `capture.records_read`.
    pub fn analyze_capture<R: std::io::Read>(
        &self,
        reader: CaptureReader<R>,
    ) -> ReverseEngineeringResult {
        let registry = dpr_telemetry::registry();
        let mut tracer = dpr_telemetry::TraceBuilder::new(registry);
        let (session, _stats) = tracer.stage("capture", || reader.read_session());
        self.analyze_session(tracer, &session)
    }

    /// Like [`analyze_capture`](Self::analyze_capture) for an already
    /// reconstructed [`CaptureSession`].
    pub fn analyze_replay(&self, session: &CaptureSession) -> ReverseEngineeringResult {
        let registry = dpr_telemetry::registry();
        let tracer = dpr_telemetry::TraceBuilder::new(registry);
        self.analyze_session(tracer, session)
    }

    fn analyze_session(
        &self,
        tracer: dpr_telemetry::TraceBuilder,
        session: &CaptureSession,
    ) -> ReverseEngineeringResult {
        let execution = (!session.execution.entries.is_empty()).then_some(&session.execution);
        self.analyze_with(tracer, &session.log, &session.frames, execution)
    }

    /// The shared stage machinery behind the live and replay entry
    /// points; `tracer` may already carry replay-side stages.
    ///
    /// The whole stage sequence runs inside a [`dpr_evidence::capture`],
    /// so the per-stage hooks in the substrate crates (transport rejects,
    /// reassembly provenance, OCR verdicts, alignment decisions, GP
    /// lineage) all land on one decision log; [`dpr_evidence::assemble`]
    /// then joins it into one [`dpr_evidence::EvidenceChain`] per
    /// recovered sensor. Every input to the log is simulation-clock data,
    /// so a replayed capture yields a byte-identical ledger.
    fn analyze_with(
        &self,
        tracer: dpr_telemetry::TraceBuilder,
        log: &BusLog,
        frames: &[UiFrame],
        execution: Option<&ExecutionLog>,
    ) -> ReverseEngineeringResult {
        let ((mut result, descs, names), events) =
            dpr_evidence::capture(|| self.run_stages(tracer, log, frames, execution));
        result.evidence = dpr_evidence::assemble(&events, &descs, names);
        result
    }

    /// The pipeline stages proper; returns the result (with an empty
    /// evidence ledger) plus the sensor descriptors [`Self::analyze_with`]
    /// joins the event log against and the association's names.
    fn run_stages(
        &self,
        mut tracer: dpr_telemetry::TraceBuilder,
        log: &BusLog,
        frames: &[UiFrame],
        execution: Option<&ExecutionLog>,
    ) -> (
        ReverseEngineeringResult,
        Vec<dpr_evidence::SensorDesc>,
        dpr_evidence::Names,
    ) {
        let _run_span = dpr_telemetry::Span::enter("pipeline");

        // ——— diagnostic frames analysis ———
        let capture = tracer.stage("transport", || analyze_capture(log, self.config.scheme));

        // ——— screenshot analysis ———
        let (readings, offset) = tracer.stage("ocr", || {
            let raw_readings = read_frames(frames, &self.config.ocr);
            let offset = match self.config.align {
                Alignment::None => 0,
                Alignment::FixedOffset(o) => o,
                Alignment::ByObd => align_by_obd(log, &raw_readings).unwrap_or(0),
            };
            let retimed = if offset != 0 {
                retime_readings(&raw_readings, offset)
            } else {
                raw_readings
            };
            let readings: Vec<_> = if self.config.use_filter {
                filter_readings(&retimed, &self.config.range_book)
            } else {
                retimed.into_iter().filter(|r| r.value.is_some()).collect()
            };
            (readings, offset)
        });

        // Group Y series by (screen, label): one stable sort keeps each
        // label's readings in their original order, then split the runs.
        let mut sorted: Vec<_> = readings.iter().collect();
        sorted.sort_by(|a, b| (&a.screen, &a.label).cmp(&(&b.screen, &b.label)));
        let y_series: Vec<LabelSeries> = sorted
            .chunk_by(|a, b| a.screen == b.screen && a.label == b.label)
            .map(|run| {
                let series: Vec<(Micros, f64)> = run
                    .iter()
                    .filter_map(|r| r.value.map(|v| (r.at, v)))
                    .collect();
                ((run[0].screen.clone(), run[0].label.clone()), series)
            })
            .collect();

        // ——— request-message analysis: associate ids with labels ———
        let matches = tracer.stage("association", || {
            match_series_two_pass(
                &capture.extraction.series,
                &y_series,
                self.config.pair_window,
                self.config.match_threshold,
            )
        });

        // ——— response-message analysis: infer formulas ———
        // One pool job per car: sensors are independent and each GP run is
        // seeded by its key, so they fit in parallel. Each task holds back
        // its evidence events and histogram observations, and they are
        // replayed here in `matches` order, so the ledger and metrics read
        // exactly as a sequential run wrote them.
        let mut inferred = tracer.stage("inference", || {
            let outcomes = dpr_prof::with_label(INFERENCE_LABEL, || {
                dpr_par::Pool::from_env().par_map(&matches, |m| {
                    dpr_telemetry::defer_observations(|| {
                        dpr_evidence::capture(|| {
                            self.infer_match(&capture.extraction.series, &y_series, m)
                        })
                    })
                })
            });
            let mut inferred = Vec::new();
            for (m, ((esv, events), observations)) in matches.iter().zip(outcomes) {
                events.into_iter().for_each(dpr_evidence::record);
                observations.replay();
                if let Some(esv) = esv {
                    inferred.push((esv, (m.series_idx as u32, m.label_idx as u32)));
                }
            }
            inferred
        });
        inferred.sort_by_key(|(e, _)| e.key);

        // ——— ECR recovery ———
        let ecrs = tracer.stage("ecr", || recover_ecrs(&capture.extraction, execution));

        // Join keys for evidence assembly: which association indices fed
        // each recovered sensor.
        let (esvs, descs): (Vec<RecoveredEsv>, Vec<dpr_evidence::SensorDesc>) = inferred
            .into_iter()
            .map(|(e, (series_idx, label_idx))| {
                let desc = dpr_evidence::SensorDesc {
                    key: e.key.to_string(),
                    screen: e.screen.clone(),
                    label: e.label.clone(),
                    kind: if e.has_formula() { "formula" } else { "enumeration" }.to_string(),
                    formula: e.pretty_formula(),
                    series_idx,
                    label_idx,
                    score: dpr_evidence::finite(e.match_score),
                    pairs: e.pairs as u32,
                };
                (e, desc)
            })
            .unzip();

        // The names the candidate events' indices point at, resolved
        // once for the whole run.
        let names = dpr_evidence::Names {
            series: capture
                .extraction
                .series
                .iter()
                .map(|s| s.key.to_string())
                .collect(),
            labels: y_series.into_iter().map(|(name, _)| name).collect(),
        };

        let result = ReverseEngineeringResult {
            esvs,
            ecrs,
            stats: capture.stats,
            negatives: capture.extraction.negatives,
            alignment_offset_us: offset,
            trace: tracer.finish(),
            evidence: dpr_evidence::EvidenceLedger::default(),
        };
        (result, descs, names)
    }

    /// One inference task: a match with too few pairs is recorded as
    /// such, any other is handed to [`Self::infer_one`].
    fn infer_match(
        &self,
        series: &[dpr_frames::EsvSeries],
        y_series: &[LabelSeries],
        m: &MatchScore,
    ) -> Option<RecoveredEsv> {
        if m.pairs.len() < self.config.min_pairs {
            crate::associate::record_candidate(
                m.series_idx,
                m.label_idx,
                m.score,
                m.pairs.len(),
                dpr_evidence::CandidateDecision::TooFewPairs,
            );
            return None;
        }
        let ((screen, label), _) = &y_series[m.label_idx];
        self.infer_one(&series[m.series_idx], screen, label, m)
    }

    /// Infers the decoding rule for one matched (identifier, label) pair.
    fn infer_one(
        &self,
        series: &dpr_frames::EsvSeries,
        screen: &str,
        label: &str,
        m: &MatchScore,
    ) -> Option<RecoveredEsv> {
        // Robust trim: pairs whose Y came from a neighbouring poll round
        // (or a surviving OCR error) sit far off the underlying relation;
        // fit a quick low-order model and drop large-residual pairs before
        // the expensive inference. This is the pairing-level analogue of
        // the paper's observation (i) in §4.3 about display-lag noise.
        let trimmed = if self.config.use_filter {
            robust_trim(&m.pairs)
        } else {
            m.pairs.clone()
        };
        let m = &MatchScore {
            series_idx: m.series_idx,
            label_idx: m.label_idx,
            score: m.score,
            pairs: trimmed,
        };
        if m.pairs.len() < self.config.min_pairs {
            // The robust trim ate too much of the pairing — record why
            // this accepted candidate still produced no sensor.
            crate::associate::record_candidate(
                m.series_idx,
                m.label_idx,
                m.score,
                m.pairs.len(),
                dpr_evidence::CandidateDecision::TooFewPairs,
            );
            return None;
        }
        // Trim constant second columns: the paper observes that a pinned
        // scale byte collapses a two-variable formula, and GP should then
        // work in one variable.
        let two_cols = m.pairs.iter().any(|(x, _)| x.len() > 1) && {
            let first = m.pairs[0].0.get(1).copied().unwrap_or(0.0);
            m.pairs
                .iter()
                .any(|(x, _)| (x.get(1).copied().unwrap_or(first) - first).abs() > 1e-9)
        };
        let rows: Vec<Vec<f64>> = m
            .pairs
            .iter()
            .map(|(x, _)| {
                if two_cols {
                    vec![x[0], x.get(1).copied().unwrap_or(0.0)]
                } else {
                    vec![x[0]]
                }
            })
            .collect();
        let ys: Vec<f64> = m.pairs.iter().map(|(_, y)| *y).collect();

        let x_ranges: Vec<(f64, f64)> = (0..rows[0].len())
            .map(|c| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for r in &rows {
                    lo = lo.min(r[c]);
                    hi = hi.max(r[c]);
                }
                (lo, hi)
            })
            .collect();

        // Enumeration detection: the displayed value equals the raw byte
        // and takes few small integer values.
        let equal = m
            .pairs
            .iter()
            .filter(|(x, y)| (x[0] - y).abs() < 1e-9)
            .count();
        let mut distinct: Vec<u64> = ys.iter().map(|y| y.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if equal * 10 >= m.pairs.len() * 9
            && distinct.len() <= 12
            && ys.iter().all(|y| y.fract() == 0.0 && (0.0..=20.0).contains(y))
        {
            return Some(RecoveredEsv {
                key: series.key,
                f_type: series.f_type,
                screen: screen.to_string(),
                label: label.to_string(),
                kind: RecoveredKind::Enumeration,
                pairs: m.pairs.len(),
                x_ranges,
                match_score: m.score,
            });
        }

        let data = Dataset::new(rows, ys).ok()?;
        // Deterministic per-signal seed so each ESV's GP run is
        // reproducible independently of processing order.
        let seed = self.config.gp.seed ^ key_hash(series.key);
        let mut engine = SymbolicRegressor::new(GpConfig {
            seed,
            ..self.config.gp.clone()
        });
        // Tag the fit's lineage event with the sensor it belongs to.
        let model =
            dpr_evidence::with_subject(&series.key.to_string(), || engine.fit(&data));
        Some(RecoveredEsv {
            key: series.key,
            f_type: series.f_type,
            screen: screen.to_string(),
            label: label.to_string(),
            kind: RecoveredKind::Formula(model),
            pairs: m.pairs.len(),
            x_ranges,
            match_score: m.score,
        })
    }
}

/// Drops pairs more than six residual-MADs away from a quick low-order
/// fit. Keeps the input unchanged when the fit fails or the trim would
/// remove more than a third of the data.
fn robust_trim(pairs: &[(Vec<f64>, f64)]) -> Vec<(Vec<f64>, f64)> {
    let mut current = pairs.to_vec();
    // Iterate: an outlier cluster can bend the first fit enough to mask
    // part of itself; re-fitting on the kept set unmasks the rest.
    for _ in 0..3 {
        if current.len() < 12 {
            break;
        }
        let rows: Vec<Vec<f64>> = current.iter().map(|(x, _)| x.clone()).collect();
        let ys: Vec<f64> = current.iter().map(|(_, y)| *y).collect();
        let Ok(data) = Dataset::new(rows, ys) else {
            break;
        };
        let Some(model) = PolynomialFit.fit(&data) else {
            break;
        };
        let residuals: Vec<f64> = current
            .iter()
            .map(|(x, y)| (model.predict(x) - y).abs())
            .collect();
        let mut sorted = residuals.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mad = sorted[sorted.len() / 2].max(1e-9);
        let kept: Vec<(Vec<f64>, f64)> = current
            .iter()
            .zip(&residuals)
            .filter(|(_, r)| **r <= 6.0 * mad)
            .map(|(p, _)| p.clone())
            .collect();
        if kept.len() == current.len() {
            break; // fixpoint
        }
        if kept.len() * 3 < pairs.len() * 2 {
            break; // refuse to throw away more than a third of the data
        }
        current = kept;
    }
    current
}

fn key_hash(key: dpr_frames::SourceKey) -> u64 {
    use dpr_frames::SourceKey::*;
    let raw = match key {
        UdsDid(d) => 0x1_0000u64 + u64::from(d),
        Kwp { local_id, slot } => 0x2_0000u64 + (u64::from(local_id) << 4) + slot as u64,
        Obd(p) => 0x3_0000u64 + u64::from(p),
    };
    let mut z = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Recovers control records, attaching the active-test label clicked just
/// before each procedure when the execution log is available.
fn recover_ecrs(
    extraction: &dpr_frames::Extraction,
    execution: Option<&ExecutionLog>,
) -> Vec<RecoveredEcr> {
    let nav = ["[Back]", "[Next Page]", "[Prev Page]", "wait", "Read Data Stream", "Active Test"];
    extraction
        .procedures
        .iter()
        .map(|p| {
            // Find the adjustment time for this procedure.
            let adjust_at = extraction
                .ecrs
                .iter()
                .find(|e| e.target == p.target && e.param == 0x03 && e.state == p.state)
                .map(|e| e.at);
            let label = match (execution, adjust_at) {
                (Some(log), Some(at)) => log
                    .entries
                    .iter()
                    .rfind(|e| e.at <= at && !nav.contains(&e.action.as_str()))
                    .map(|e| e.action.clone()),
                _ => None,
            };
            RecoveredEcr {
                target: p.target,
                state: p.state.clone(),
                complete_pattern: p.complete_pattern,
                label,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_cps::{collect_vehicle, CollectConfig};
    use dpr_tool::{ToolProfile, ToolSession};
    use dpr_vehicle::profiles::{self, CarId};

    fn quick_collect(id: CarId, seed: u64) -> dpr_cps::CollectionReport {
        let car = profiles::build(id, seed);
        let spec = profiles::spec(id);
        let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).unwrap());
        collect_vehicle(
            session,
            &CollectConfig {
                read_wait: Micros::from_secs(4),
                ..CollectConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn pipeline_recovers_esvs_on_a_small_car() {
        // Car M: 4 formula ESVs + 14 enums — small enough for a unit test.
        let report = quick_collect(CarId::M, 31);
        let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, 31));
        let result = pipeline.analyze(&report.log, &report.frames, Some(&report.execution));

        assert!(
            result.formula_esvs().count() >= 3,
            "recovered only {} formula ESVs",
            result.formula_esvs().count()
        );
        assert!(
            result.enum_esvs().count() >= 10,
            "recovered only {} enum ESVs",
            result.enum_esvs().count()
        );
        // Every recovered ESV carries a semantic label.
        assert!(result.esvs.iter().all(|e| !e.label.is_empty()));
        // Tab. 9 style stats were tallied.
        assert!(result.stats.total() > 0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let report = quick_collect(CarId::M, 5);
        let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, 5));
        let a = pipeline.analyze(&report.log, &report.frames, None);
        let b = pipeline.analyze(&report.log, &report.frames, None);
        assert_eq!(a, b);
    }

    #[test]
    fn ecr_recovery_labels_components() {
        // Car O: 4 ECRs over UDS 0x2F.
        let report = quick_collect(CarId::O, 13);
        let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, 13));
        let result = pipeline.analyze(&report.log, &report.frames, Some(&report.execution));
        assert_eq!(result.ecrs.len(), 4, "{:?}", result.ecrs);
        assert!(result.ecrs.iter().all(|e| e.complete_pattern));
        assert!(result.ecrs.iter().all(|e| e.label.is_some()));
    }
}
