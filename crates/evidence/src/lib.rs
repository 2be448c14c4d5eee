//! Per-formula provenance: the evidence ledger.
//!
//! Every stage of the DP-Reverser pipeline emits typed [`Event`]s while
//! a recorder is active — which CAN frames fed each reassembled
//! payload, which reassembly attempts were rejected (and why), which
//! OCR samples were read and kept, which alignment candidates were
//! considered with what score, and the generation-by-generation lineage
//! of the winning GP expression. [`assemble`] links those events by
//! their stable ids into one [`EvidenceChain`] per recovered sensor,
//! and [`render`] prints a chain as the human-readable story from raw
//! frame to final formula.
//!
//! The ledger stores what it knows once. Alignment candidates live in
//! one run-wide table that chains refer to by index, and candidates
//! that formed no pairs are only counted. Series and label names sit in
//! two name tables; a candidate carries only indices into them.
//! [`EvidenceLedger::sensor`] expands one chain into the
//! self-contained [`SensorEvidence`] that `explain` and
//! `/evidence/<sensor>` show.
//!
//! The recorder is a thread-local buffer stack ([`capture`]): recording
//! costs nothing unless a capture is active, and every event carries
//! only simulation-clock data, so a ledger from a live run is
//! bit-identical to one from a `.dprcap` replay of the same session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

// ———————————————————————————— recorder ————————————————————————————

thread_local! {
    static BUFFERS: RefCell<Vec<Vec<Event>>> = const { RefCell::new(Vec::new()) };
    static SUBJECTS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with an active evidence recorder on this thread, returning
/// its result plus every [`Event`] recorded while it ran. Nestable; the
/// innermost capture receives the events. Panic-safe: the buffer is
/// popped even if `f` unwinds.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            BUFFERS.with(|b| b.borrow_mut().pop());
        }
    }
    BUFFERS.with(|b| b.borrow_mut().push(Vec::new()));
    let guard = PopGuard;
    let result = f();
    let events = BUFFERS.with(|b| b.borrow_mut().pop()).unwrap_or_default();
    std::mem::forget(guard);
    (result, events)
}

/// Appends an event to the innermost active capture on this thread.
/// A no-op (the event is dropped) when no capture is active.
pub fn record(event: Event) {
    BUFFERS.with(|b| {
        if let Some(buffer) = b.borrow_mut().last_mut() {
            buffer.push(event);
        }
    });
}

/// Whether a capture is active on this thread — gate expensive
/// event construction on this.
pub fn active() -> bool {
    BUFFERS.with(|b| !b.borrow().is_empty())
}

/// Runs `f` with `subject` as the current evidence subject (the sensor
/// key a nested stage, e.g. a GP fit, should tag its events with).
pub fn with_subject<R>(subject: &str, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            SUBJECTS.with(|s| s.borrow_mut().pop());
        }
    }
    SUBJECTS.with(|s| s.borrow_mut().push(subject.to_string()));
    let _guard = PopGuard;
    f()
}

/// The innermost subject set by [`with_subject`], if any.
pub fn subject() -> Option<String> {
    SUBJECTS.with(|s| s.borrow().last().cloned())
}

/// Maps a possibly non-finite float into the serializable domain:
/// NaN and ±inf become `None` (JSON has no spelling for them).
pub fn finite(f: f64) -> Option<f64> {
    f.is_finite().then_some(f)
}

// ———————————————————————————— events ————————————————————————————

/// One wide event from one pipeline stage. Events are linked into
/// chains by stable ids: reassembled payloads by `(id, at_us)`, OCR
/// samples by `sample_id`, alignment candidates by
/// `(series_idx, label_idx)`, and GP lineages by sensor `subject`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A transport-layer reassembly completed (`dpr-frames` over
    /// `dpr-transport`): `frame_times_us` are the raw CAN frames that
    /// fed this payload.
    Reassembled(Reassembled),
    /// A reassembly attempt was rejected, tagged with the
    /// `TransportError` kind the metrics taxonomy uses
    /// (`transport.<scheme>.reject.<kind>`).
    ReassemblyReject(ReassemblyReject),
    /// A sensor value was extracted from a reassembled payload
    /// (`dpr-frames::extract`), linked to the diagnostic request that
    /// elicited it.
    FieldSample(FieldSample),
    /// One OCR reading of one screen widget (`dpr-ocr`), with the
    /// channel's calibrated confidence.
    OcrSample(OcrSample),
    /// The filter's verdict on one OCR sample (`kept`,
    /// `rejected_unparsed`, `rejected_range`, `rejected_outlier`).
    OcrVerdict(OcrVerdict),
    /// One alignment candidate considered by `associate` with its
    /// match score and accept/reject reason. Later events for the same
    /// `(series_idx, label_idx)` supersede earlier ones (e.g. a
    /// second-pass rescue overrides a first-pass rejection).
    Candidate(Candidate),
    /// The winning GP expression's generation-by-generation lineage.
    Lineage(Lineage),
}

/// See [`Event::Reassembled`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reassembled {
    /// Transport scheme: `isotp`, `vwtp`, or `bmw`.
    pub scheme: String,
    /// Raw CAN arbitration id the payload arrived on.
    pub id: u32,
    /// Completion timestamp (simulation microseconds).
    pub at_us: u64,
    /// Timestamps of the raw frames that fed this payload.
    pub frame_times_us: Vec<u64>,
    /// Reassembled payload length in bytes.
    pub len: u32,
}

/// See [`Event::ReassemblyReject`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReassemblyReject {
    /// Transport scheme: `isotp`, `vwtp`, or `bmw`.
    pub scheme: String,
    /// Error kind, matching `TransportError::kind()` plus the
    /// pseudo-kind `superseded` (an in-flight reassembly displaced by
    /// a new first/single frame).
    pub kind: String,
    /// Raw CAN id, when the rejecting layer knows it.
    pub id: Option<u32>,
    /// Rejection timestamp, when the rejecting layer knows it.
    pub at_us: Option<u64>,
}

/// See [`Event::FieldSample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSample {
    /// Sensor key (the `SourceKey` display form, e.g. `DID 0xF40D`).
    pub key: String,
    /// Raw CAN id of the response payload.
    pub id: u32,
    /// Response timestamp — joins to [`Reassembled`] on `(id, at_us)`.
    pub at_us: u64,
    /// Timestamp of the diagnostic request that elicited the response.
    pub request_at_us: Option<u64>,
}

/// See [`Event::OcrSample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcrSample {
    /// Stable sample id: the reading's index in the OCR output stream.
    pub sample_id: u32,
    /// Screenshot timestamp (simulation microseconds).
    pub at_us: u64,
    /// Screen the widget was read from.
    pub screen: String,
    /// Widget label.
    pub label: String,
    /// The text the OCR channel produced.
    pub text: String,
    /// The text parsed as a number, when it parses.
    pub value: Option<f64>,
    /// Whether the read reproduced the widget text exactly.
    pub exact: bool,
    /// The OCR channel's calibrated per-value accuracy.
    pub confidence: f64,
}

/// See [`Event::OcrVerdict`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcrVerdict {
    /// The sample this verdict applies to.
    pub sample_id: u32,
    /// `kept`, `rejected_unparsed`, `rejected_range`, or
    /// `rejected_outlier`.
    pub verdict: String,
}

/// Why an alignment candidate was accepted or rejected. [`code`]
/// (CandidateDecision::code) is the stable string the ledger, tests,
/// and `dpr-bench explain` all share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateDecision {
    /// Above threshold and won the greedy assignment in pass one.
    AcceptedStrict,
    /// Below the strict threshold but rescued by the relaxed second
    /// pass over unclaimed series and labels.
    AcceptedRescued,
    /// Scored below the (possibly relaxed) threshold.
    BelowThreshold,
    /// Scored well, but its series was already claimed by a better
    /// candidate.
    SeriesClaimed,
    /// Scored well, but its label was already claimed by a better
    /// candidate.
    LabelClaimed,
    /// Accepted by association but dropped by the pipeline: too few
    /// aligned pairs to attempt inference.
    TooFewPairs,
}

impl CandidateDecision {
    /// The stable reason code (`accepted_strict`, `accepted_rescued`,
    /// `below_threshold`, `series_claimed`, `label_claimed`,
    /// `too_few_pairs`).
    pub fn code(self) -> &'static str {
        match self {
            CandidateDecision::AcceptedStrict => "accepted_strict",
            CandidateDecision::AcceptedRescued => "accepted_rescued",
            CandidateDecision::BelowThreshold => "below_threshold",
            CandidateDecision::SeriesClaimed => "series_claimed",
            CandidateDecision::LabelClaimed => "label_claimed",
            CandidateDecision::TooFewPairs => "too_few_pairs",
        }
    }

    /// Whether this decision means the candidate made it into the
    /// final assignment.
    pub fn accepted(self) -> bool {
        matches!(
            self,
            CandidateDecision::AcceptedStrict | CandidateDecision::AcceptedRescued
        )
    }
}

/// See [`Event::Candidate`]; also one row of the ledger's candidate
/// table. It names its series and label by index only: the ledger's
/// name tables resolve them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Index of the extracted series in the association input.
    pub series_idx: u32,
    /// Index of the label series in the association input.
    pub label_idx: u32,
    /// Match score; `None` when the score was not finite.
    pub score: Option<f64>,
    /// Number of time-aligned pairs the score was computed over.
    pub pairs: u32,
    /// The decision and its reason.
    pub decision: CandidateDecision,
}

/// A [`Candidate`] with its series and label names resolved: how
/// [`SensorEvidence`] and [`render`] show it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedCandidate {
    /// Index of the extracted series in the association input.
    pub series_idx: u32,
    /// Index of the label series in the association input.
    pub label_idx: u32,
    /// Sensor key of the extracted series.
    pub key: String,
    /// Screen of the label series.
    pub screen: String,
    /// Label of the label series.
    pub label: String,
    /// Match score; `None` when the score was not finite.
    pub score: Option<f64>,
    /// Number of time-aligned pairs the score was computed over.
    pub pairs: u32,
    /// The decision and its reason.
    pub decision: CandidateDecision,
}

/// One step in a winning expression's ancestry: the operation that
/// produced the ancestor alive in `generation`. Serialized as the array
/// `[generation, op, parent, donor, parent_error]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageStep {
    /// The generation this ancestor belongs to (0 = initial population).
    pub generation: u32,
    /// The operator that produced it: `seed-template`, `init-full`,
    /// `init-grow`, `elite`, `crossover`, `subtree-mutation`,
    /// `hoist-mutation`, `point-mutation`, `reproduction`,
    /// `depth-fallback`, or a post-run refinement (`polish`,
    /// `refit-residual`, `refit-loworder`).
    pub op: String,
    /// Population index of the parent in the previous generation.
    pub parent: Option<u32>,
    /// Population index of the crossover donor, when applicable.
    pub donor: Option<u32>,
    /// The parent's training error at breeding time.
    pub parent_error: Option<f64>,
}

/// The array form [`LineageStep`] serializes as.
type StepRow = (u32, String, Option<u32>, Option<u32>, Option<f64>);

impl Serialize for LineageStep {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.generation, &self.op, self.parent, self.donor, self.parent_error).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for LineageStep {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (generation, op, parent, donor, parent_error) = StepRow::deserialize(deserializer)?;
        Ok(LineageStep {
            generation,
            op,
            parent,
            donor,
            parent_error,
        })
    }
}

/// See [`Event::Lineage`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lineage {
    /// The sensor key this fit belongs to (set via [`with_subject`]).
    pub subject: String,
    /// The winner's ancestry from generation 0 to the final
    /// expression, including post-run refinement steps.
    pub steps: Vec<LineageStep>,
    /// Best training error after each generation (`None` = not finite).
    pub best_error_history: Vec<Option<f64>>,
    /// Training error of the final expression.
    pub final_error: Option<f64>,
    /// Fitness-cache hits during this fit.
    pub cache_hits: u64,
    /// Expression evaluations during this fit.
    pub evaluations: u64,
    /// Generations actually run.
    pub generations: u32,
    /// Whether the fit stopped early on the error threshold.
    pub stopped_by_threshold: bool,
    /// The final expression, canonically formatted.
    pub expression: String,
}

// ———————————————————————————— chains ————————————————————————————

/// What the pipeline knows about one recovered sensor — the join keys
/// [`assemble`] uses to pull that sensor's events out of the log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorDesc {
    /// Sensor key (`SourceKey` display form).
    pub key: String,
    /// Screen the matched label lives on.
    pub screen: String,
    /// The matched widget label.
    pub label: String,
    /// `formula` or `enumeration`.
    pub kind: String,
    /// The recovered formula (or enumeration summary), pretty-printed.
    pub formula: String,
    /// Association series index (joins [`Candidate`] events).
    pub series_idx: u32,
    /// Association label index (joins [`Candidate`] events).
    pub label_idx: u32,
    /// The winning match score.
    pub score: Option<f64>,
    /// Aligned pairs behind the winning match.
    pub pairs: u32,
}

/// One extracted sample's provenance: when it arrived, on which CAN
/// id, which request elicited it, and which raw frames fed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleProvenance {
    /// Response timestamp (simulation microseconds).
    pub at_us: u64,
    /// Raw CAN id the response arrived on.
    pub can_id: u32,
    /// Timestamp of the eliciting diagnostic request.
    pub request_at_us: Option<u64>,
    /// How long before `at_us` each raw frame feeding the reassembled
    /// response payload arrived; [`SampleProvenance::frame_times_us`]
    /// turns them back into timestamps.
    pub frame_offsets_us: Vec<i64>,
}

impl SampleProvenance {
    /// The raw frame timestamps feeding the response payload.
    pub fn frame_times_us(&self) -> impl Iterator<Item = u64> + '_ {
        self.frame_offsets_us
            .iter()
            .map(|&off| (self.at_us as i64).wrapping_sub(off) as u64)
    }
}

/// One OCR reading of a chain's widget, with its filter verdict
/// (`unfiltered` when the pipeline ran without the OCR filter). The
/// screen and label are the chain's own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcrRecord {
    /// Stable sample id: the reading's index in the OCR output stream.
    pub sample_id: u32,
    /// Screenshot timestamp (simulation microseconds).
    pub at_us: u64,
    /// The text the OCR channel produced.
    pub text: String,
    /// The text parsed as a number, when it parses.
    pub value: Option<f64>,
    /// Whether the read reproduced the widget text exactly.
    pub exact: bool,
    /// The OCR channel's calibrated per-value accuracy.
    pub confidence: f64,
    /// The filter's verdict on it.
    pub verdict: String,
}

/// The full per-sensor provenance chain: raw frames → reassembly →
/// field extraction → OCR samples → alignment decision → GP lineage →
/// final formula.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvidenceChain {
    /// Sensor key (`SourceKey` display form).
    pub sensor: String,
    /// URL-safe slug of the sensor key (`did-0xf40d`).
    pub slug: String,
    /// Screen the matched label lives on.
    pub screen: String,
    /// The matched widget label.
    pub label: String,
    /// `formula` or `enumeration`.
    pub kind: String,
    /// The recovered formula, pretty-printed.
    pub formula: String,
    /// The winning match score.
    pub match_score: Option<f64>,
    /// Aligned pairs behind the winning match.
    pub match_pairs: u32,
    /// Every extracted sample of this sensor with its frame provenance.
    pub samples: Vec<SampleProvenance>,
    /// Every OCR sample of the matched widget with its filter verdict.
    pub ocr: Vec<OcrRecord>,
    /// The alignment candidates that touched this sensor's series or
    /// label and formed pairs, with final (superseding) decisions: rows
    /// of [`EvidenceLedger::candidates`], ascending.
    pub candidates: Vec<u32>,
    /// How many more candidates touched this sensor's series or label
    /// but formed no pairs.
    pub zero_pair_candidates: u32,
    /// The winning GP expression's lineage (formula sensors only).
    pub lineage: Option<Lineage>,
}

/// One chain made self-contained: the chain plus its candidates with
/// names resolved. What `/evidence/<sensor>` serves and the JSON-lines
/// evidence export writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorEvidence {
    /// The chain as the ledger stores it.
    pub chain: EvidenceChain,
    /// The rows `chain.candidates` points at, in the same order.
    pub candidates: Vec<NamedCandidate>,
}

/// The whole run's evidence: one chain per recovered sensor, the
/// candidate table and name tables the chains refer to, plus the
/// run-level transport reject tallies (keyed `<scheme>.<kind>`, the
/// same taxonomy as the `transport.<scheme>.reject.<kind>` counters).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EvidenceLedger {
    /// One chain per recovered sensor, in report order.
    pub chains: Vec<EvidenceChain>,
    /// Every candidate that formed pairs and touched some chain, once,
    /// in `(series_idx, label_idx)` order.
    pub candidates: Vec<Candidate>,
    /// The association's names: series keys and label `(screen,
    /// label)`s by index.
    pub names: Names,
    /// Reassembly rejects tallied by `<scheme>.<kind>`.
    pub rejects: BTreeMap<String, u64>,
}

/// The names of the association input, by index: what a
/// [`Candidate`]'s `series_idx` and `label_idx` point at.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Names {
    /// Sensor key (`SourceKey` display form) of each extracted series.
    pub series: Vec<String>,
    /// `(screen, label)` of each label series.
    pub labels: Vec<(String, String)>,
}

impl EvidenceLedger {
    /// The chain whose slug is `slug`, if any.
    pub fn chain(&self, slug: &str) -> Option<&EvidenceChain> {
        self.chains.iter().find(|c| c.slug == slug)
    }

    /// Candidate-table row `row` with its names resolved. An index the
    /// name tables do not cover resolves to an empty name.
    pub fn named(&self, row: u32) -> Option<NamedCandidate> {
        let c = self.candidates.get(row as usize)?;
        let key = self.names.series.get(c.series_idx as usize);
        let label = self.names.labels.get(c.label_idx as usize);
        Some(NamedCandidate {
            series_idx: c.series_idx,
            label_idx: c.label_idx,
            key: key.cloned().unwrap_or_default(),
            screen: label.map(|l| l.0.clone()).unwrap_or_default(),
            label: label.map(|l| l.1.clone()).unwrap_or_default(),
            score: c.score,
            pairs: c.pairs,
            decision: c.decision,
        })
    }

    /// `chain` made self-contained: the chain plus its named candidates.
    pub fn expand(&self, chain: &EvidenceChain) -> SensorEvidence {
        SensorEvidence {
            chain: chain.clone(),
            candidates: chain.candidates.iter().filter_map(|&row| self.named(row)).collect(),
        }
    }

    /// The self-contained evidence of the chain whose slug is `slug`.
    pub fn sensor(&self, slug: &str) -> Option<SensorEvidence> {
        self.chain(slug).map(|chain| self.expand(chain))
    }
}

/// Lowercases a sensor name into a URL-safe slug: alphanumerics are
/// kept, every other run of characters becomes one `-`.
///
/// ```
/// assert_eq!(dpr_evidence::slug("DID 0xF40D"), "did-0xf40d");
/// assert_eq!(dpr_evidence::slug("local id 0x01 slot 2"), "local-id-0x01-slot-2");
/// ```
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// Links a run's recorded events into one [`EvidenceChain`] per sensor
/// in `sensors`, plus the candidate table and run-level reject tallies.
/// `names` resolves the candidates' indices; it is stored as is.
pub fn assemble(events: &[Event], sensors: &[SensorDesc], names: Names) -> EvidenceLedger {
    // Join indexes. Later events supersede earlier ones where the ids
    // collide (OCR verdicts, candidate decisions).
    let mut reassembled: BTreeMap<(u32, u64), &Reassembled> = BTreeMap::new();
    let mut fields: BTreeMap<&str, Vec<&FieldSample>> = BTreeMap::new();
    let mut ocr_samples: Vec<&OcrSample> = Vec::new();
    let mut verdicts: BTreeMap<u32, &str> = BTreeMap::new();
    let mut decided: BTreeMap<(u32, u32), &Candidate> = BTreeMap::new();
    let mut lineages: BTreeMap<&str, &Lineage> = BTreeMap::new();
    let mut rejects: BTreeMap<String, u64> = BTreeMap::new();

    for event in events {
        match event {
            Event::Reassembled(r) => {
                reassembled.insert((r.id, r.at_us), r);
            }
            Event::ReassemblyReject(r) => {
                *rejects.entry(format!("{}.{}", r.scheme, r.kind)).or_default() += 1;
            }
            Event::FieldSample(f) => fields.entry(&f.key).or_default().push(f),
            Event::OcrSample(s) => ocr_samples.push(s),
            Event::OcrVerdict(v) => {
                verdicts.insert(v.sample_id, &v.verdict);
            }
            Event::Candidate(c) => {
                decided.insert((c.series_idx, c.label_idx), c);
            }
            Event::Lineage(l) => {
                lineages.insert(&l.subject, l);
            }
        }
    }

    // A candidate touches a chain through its series or its label.
    // Label series are unique per `(screen, label)`, so a chain's label
    // is its label index.
    let touches = |desc: &SensorDesc, c: &Candidate| {
        c.series_idx == desc.series_idx || c.label_idx == desc.label_idx
    };
    // The table: each candidate that formed pairs and touches some
    // chain, once, in key order.
    let rows: BTreeMap<(u32, u32), u32> = decided
        .iter()
        .filter(|(_, c)| c.pairs > 0 && sensors.iter().any(|desc| touches(desc, c)))
        .enumerate()
        .map(|(row, (&at, _))| (at, row as u32))
        .collect();
    let chains = sensors
        .iter()
        .map(|desc| {
            let mut zero_pair_candidates = 0;
            let mut candidates = Vec::new();
            for (at, _) in decided.iter().filter(|(_, c)| touches(desc, c)) {
                match rows.get(at) {
                    Some(&row) => candidates.push(row),
                    None => zero_pair_candidates += 1,
                }
            }
            let samples = fields
                .get(desc.key.as_str())
                .map(|list| {
                    list.iter()
                        .map(|f| SampleProvenance {
                            at_us: f.at_us,
                            can_id: f.id,
                            request_at_us: f.request_at_us,
                            frame_offsets_us: reassembled
                                .get(&(f.id, f.at_us))
                                .map(|r| {
                                    r.frame_times_us
                                        .iter()
                                        .map(|&t| (f.at_us as i64).wrapping_sub(t as i64))
                                        .collect()
                                })
                                .unwrap_or_default(),
                        })
                        .collect()
                })
                .unwrap_or_default();
            let ocr = ocr_samples
                .iter()
                .filter(|s| s.screen == desc.screen && s.label == desc.label)
                .map(|s| OcrRecord {
                    sample_id: s.sample_id,
                    at_us: s.at_us,
                    text: s.text.clone(),
                    value: s.value,
                    exact: s.exact,
                    confidence: s.confidence,
                    verdict: verdicts
                        .get(&s.sample_id)
                        .map_or_else(|| "unfiltered".to_string(), |v| v.to_string()),
                })
                .collect();
            EvidenceChain {
                sensor: desc.key.clone(),
                slug: slug(&desc.key),
                screen: desc.screen.clone(),
                label: desc.label.clone(),
                kind: desc.kind.clone(),
                formula: desc.formula.clone(),
                match_score: desc.score,
                match_pairs: desc.pairs,
                samples,
                ocr,
                candidates,
                zero_pair_candidates,
                lineage: lineages.get(desc.key.as_str()).map(|l| (*l).clone()),
            }
        })
        .collect();
    let candidates = rows.keys().map(|at| decided[at].clone()).collect();

    EvidenceLedger {
        chains,
        candidates,
        names,
        rejects,
    }
}

// ———————————————————————————— rendering ————————————————————————————

fn fmt_score(score: Option<f64>) -> String {
    score.map_or_else(|| "n/a".to_string(), |s| format!("{s:.3}"))
}

fn fmt_us(us: u64) -> String {
    format!("{:.3}s", us as f64 / 1e6)
}

/// Renders one chain as the human-readable story `dpr-bench explain`
/// prints: frames → reassembly → OCR → alignment → lineage → formula.
pub fn render(evidence: &SensorEvidence) -> String {
    use std::fmt::Write;
    let chain = &evidence.chain;
    let mut out = String::new();
    let _ = writeln!(out, "sensor {} ({} on screen {:?})", chain.sensor, chain.label, chain.screen);
    let _ = writeln!(
        out,
        "  verdict: {} — {}  (match score {}, {} aligned pairs)",
        chain.kind,
        chain.formula,
        fmt_score(chain.match_score),
        chain.match_pairs,
    );

    let frames: usize = chain.samples.iter().map(|s| s.frame_offsets_us.len()).sum();
    let _ = writeln!(
        out,
        "  bus evidence: {} samples reassembled from {} raw CAN frames",
        chain.samples.len(),
        frames,
    );
    for sample in chain.samples.iter().take(3) {
        let req = sample
            .request_at_us
            .map_or_else(|| "?".to_string(), fmt_us);
        let _ = writeln!(
            out,
            "    {} on 0x{:03X}: request at {}, {} frame(s) {}",
            fmt_us(sample.at_us),
            sample.can_id,
            req,
            sample.frame_offsets_us.len(),
            sample
                .frame_times_us()
                .take(4)
                .map(fmt_us)
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    if chain.samples.len() > 3 {
        let _ = writeln!(out, "    … {} more samples", chain.samples.len() - 3);
    }

    let kept = chain.ocr.iter().filter(|r| r.verdict == "kept").count();
    let exact = chain.ocr.iter().filter(|r| r.exact).count();
    let confidence = chain.ocr.first().map_or(0.0, |r| r.confidence);
    let _ = writeln!(
        out,
        "  screen evidence: {} OCR samples of {:?} ({} kept, {} exact, confidence {confidence})",
        chain.ocr.len(),
        chain.label,
        kept,
        exact,
    );
    for record in chain.ocr.iter().take(3) {
        let _ = writeln!(
            out,
            "    sample {} at {}: {:?} → {} [{}]",
            record.sample_id,
            fmt_us(record.at_us),
            record.text,
            record
                .value
                .map_or_else(|| "unparsed".to_string(), |v| v.to_string()),
            record.verdict,
        );
    }
    if chain.ocr.len() > 3 {
        let _ = writeln!(out, "    … {} more samples", chain.ocr.len() - 3);
    }

    let _ = writeln!(
        out,
        "  alignment: {} candidate(s) considered, {} of them formed no pairs",
        evidence.candidates.len() + chain.zero_pair_candidates as usize,
        chain.zero_pair_candidates,
    );
    for c in &evidence.candidates {
        let _ = writeln!(
            out,
            "    {} ↔ {:?}: score {} over {} pairs → {}",
            c.key,
            c.label,
            fmt_score(c.score),
            c.pairs,
            c.decision.code(),
        );
    }

    match &chain.lineage {
        Some(l) => {
            let _ = writeln!(
                out,
                "  GP lineage: {} generations, {} evaluations, {} cache hits{}",
                l.generations,
                l.evaluations,
                l.cache_hits,
                if l.stopped_by_threshold { ", stopped by threshold" } else { "" },
            );
            for step in &l.steps {
                let parent = step
                    .parent
                    .map_or_else(|| "-".to_string(), |p| format!("#{p}"));
                let donor = step
                    .donor
                    .map_or_else(String::new, |d| format!(" × #{d}"));
                let _ = writeln!(
                    out,
                    "    gen {:>3}: {} (parent {parent}{donor}, parent error {})",
                    step.generation,
                    step.op,
                    fmt_score(step.parent_error),
                );
            }
            let _ = writeln!(
                out,
                "    final error {} → {}",
                fmt_score(l.final_error),
                l.expression,
            );
        }
        None if chain.kind == "formula" => {
            let _ = writeln!(out, "  GP lineage: (not recorded)");
        }
        None => {
            let _ = writeln!(out, "  GP lineage: none (recovered by enumeration, not GP)");
        }
    }
    out
}

/// Renders the run-level reject tallies (one line per
/// `<scheme>.<kind>`), or a placeholder when there were none.
pub fn render_rejects(rejects: &BTreeMap<String, u64>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if rejects.is_empty() {
        let _ = writeln!(out, "transport rejects: none");
    } else {
        let _ = writeln!(out, "transport rejects:");
        for (kind, n) in rejects {
            let _ = writeln!(out, "  {kind}: {n}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_and_pops() {
        assert!(!active());
        let ((), events) = capture(|| {
            assert!(active());
            record(Event::OcrVerdict(OcrVerdict {
                sample_id: 7,
                verdict: "kept".to_string(),
            }));
        });
        assert_eq!(events.len(), 1);
        assert!(!active());
        // Recording without a capture is a silent no-op.
        record(Event::OcrVerdict(OcrVerdict {
            sample_id: 8,
            verdict: "kept".to_string(),
        }));
    }

    #[test]
    fn nested_capture_gets_inner_events() {
        let (inner, outer) = capture(|| {
            record(Event::OcrVerdict(OcrVerdict {
                sample_id: 1,
                verdict: "kept".to_string(),
            }));
            let ((), inner) = capture(|| {
                record(Event::OcrVerdict(OcrVerdict {
                    sample_id: 2,
                    verdict: "kept".to_string(),
                }));
            });
            inner
        });
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn subject_nests() {
        assert_eq!(subject(), None);
        with_subject("DID 0x01", || {
            assert_eq!(subject().as_deref(), Some("DID 0x01"));
            with_subject("DID 0x02", || {
                assert_eq!(subject().as_deref(), Some("DID 0x02"));
            });
            assert_eq!(subject().as_deref(), Some("DID 0x01"));
        });
        assert_eq!(subject(), None);
    }

    #[test]
    fn slug_is_url_safe() {
        assert_eq!(slug("DID 0xF40D"), "did-0xf40d");
        assert_eq!(slug("PID 0x0C"), "pid-0x0c");
        assert_eq!(slug("local id 0x01 slot 2"), "local-id-0x01-slot-2");
        assert_eq!(slug("  weird//name  "), "weird-name");
        assert_eq!(slug(""), "");
    }

    #[test]
    fn finite_maps_non_finite_to_none() {
        assert_eq!(finite(1.5), Some(1.5));
        assert_eq!(finite(f64::NAN), None);
        assert_eq!(finite(f64::INFINITY), None);
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Reassembled(Reassembled {
                scheme: "isotp".to_string(),
                id: 0x7E8,
                at_us: 1_000,
                frame_times_us: vec![900, 950, 1_000],
                len: 12,
            }),
            Event::ReassemblyReject(ReassemblyReject {
                scheme: "isotp".to_string(),
                kind: "sequence_mismatch".to_string(),
                id: None,
                at_us: None,
            }),
            Event::ReassemblyReject(ReassemblyReject {
                scheme: "isotp".to_string(),
                kind: "sequence_mismatch".to_string(),
                id: None,
                at_us: None,
            }),
            Event::FieldSample(FieldSample {
                key: "DID 0xF40D".to_string(),
                id: 0x7E8,
                at_us: 1_000,
                request_at_us: Some(800),
            }),
            Event::OcrSample(OcrSample {
                sample_id: 0,
                at_us: 1_100,
                screen: "Live Data".to_string(),
                label: "Speed".to_string(),
                text: "42".to_string(),
                value: Some(42.0),
                exact: true,
                confidence: 0.998,
            }),
            Event::OcrVerdict(OcrVerdict {
                sample_id: 0,
                verdict: "kept".to_string(),
            }),
            // Superseded decision: first below threshold, then rescued.
            Event::Candidate(Candidate {
                series_idx: 0,
                label_idx: 0,
                score: Some(0.4),
                pairs: 9,
                decision: CandidateDecision::BelowThreshold,
            }),
            Event::Candidate(Candidate {
                series_idx: 0,
                label_idx: 0,
                score: Some(0.4),
                pairs: 9,
                decision: CandidateDecision::AcceptedRescued,
            }),
            Event::Lineage(Lineage {
                subject: "DID 0xF40D".to_string(),
                steps: vec![LineageStep {
                    generation: 0,
                    op: "seed-template".to_string(),
                    parent: None,
                    donor: None,
                    parent_error: None,
                }],
                best_error_history: vec![Some(0.5), Some(0.0)],
                final_error: Some(0.0),
                cache_hits: 3,
                evaluations: 100,
                generations: 2,
                stopped_by_threshold: true,
                expression: "x0 / 2".to_string(),
            }),
        ]
    }

    fn sample_names() -> Names {
        Names {
            series: vec!["DID 0xF40D".to_string()],
            labels: vec![("Live Data".to_string(), "Speed".to_string())],
        }
    }

    fn sample_desc() -> SensorDesc {
        SensorDesc {
            key: "DID 0xF40D".to_string(),
            screen: "Live Data".to_string(),
            label: "Speed".to_string(),
            kind: "formula".to_string(),
            formula: "X0 / 2".to_string(),
            series_idx: 0,
            label_idx: 0,
            score: Some(0.4),
            pairs: 9,
        }
    }

    fn sample_ledger(events: &[Event]) -> EvidenceLedger {
        assemble(events, &[sample_desc()], sample_names())
    }

    #[test]
    fn assemble_links_events_into_a_chain() {
        let ledger = sample_ledger(&sample_events());
        assert_eq!(ledger.rejects.get("isotp.sequence_mismatch"), Some(&2));
        assert_eq!(ledger.chains.len(), 1);
        let chain = &ledger.chains[0];
        assert_eq!(chain.slug, "did-0xf40d");
        assert_eq!(chain.samples.len(), 1);
        assert_eq!(chain.samples[0].frame_offsets_us, vec![100, 50, 0]);
        let times: Vec<u64> = chain.samples[0].frame_times_us().collect();
        assert_eq!(times, vec![900, 950, 1_000]);
        assert_eq!(chain.samples[0].request_at_us, Some(800));
        assert_eq!(chain.ocr.len(), 1);
        assert_eq!(chain.ocr[0].verdict, "kept");
        // The later (rescued) decision supersedes the earlier rejection.
        assert_eq!(chain.candidates, vec![0]);
        assert_eq!(chain.zero_pair_candidates, 0);
        assert_eq!(ledger.candidates.len(), 1);
        assert_eq!(ledger.candidates[0].decision, CandidateDecision::AcceptedRescued);
        assert_eq!(chain.lineage.as_ref().unwrap().expression, "x0 / 2");
        assert!(ledger.chain("did-0xf40d").is_some());
        assert!(ledger.chain("nope").is_none());
        // Expanded, the candidate carries its names again.
        let sensor = ledger.sensor("did-0xf40d").expect("chain");
        assert_eq!(sensor.candidates.len(), 1);
        assert_eq!(sensor.candidates[0].key, "DID 0xF40D");
        assert_eq!(sensor.candidates[0].screen, "Live Data");
        assert_eq!(sensor.candidates[0].label, "Speed");
        assert!(ledger.sensor("nope").is_none());
    }

    #[test]
    fn candidates_are_stored_once_and_zero_pair_ones_counted() {
        // Two sensors: series 0 ↔ label 0 and series 1 ↔ label 1. The
        // cross candidates touch both chains; one formed no pairs.
        let decide = |series_idx, label_idx, pairs| {
            Event::Candidate(Candidate {
                series_idx,
                label_idx,
                score: Some(0.1),
                pairs,
                decision: CandidateDecision::BelowThreshold,
            })
        };
        let events = vec![
            decide(1, 1, 9),
            decide(0, 0, 9),
            decide(0, 1, 0),
            decide(1, 0, 4),
            decide(2, 2, 0),
        ];
        let desc = |series_idx: u32| SensorDesc {
            key: format!("DID 0x0{series_idx}"),
            label_idx: series_idx,
            series_idx,
            ..sample_desc()
        };
        let names = Names {
            series: (0..3).map(|i| format!("DID 0x0{i}")).collect(),
            labels: (0..3).map(|i| ("E".to_string(), format!("L{i}"))).collect(),
        };
        let ledger = assemble(&events, &[desc(0), desc(1)], names);
        let rows: Vec<(u32, u32)> =
            ledger.candidates.iter().map(|c| (c.series_idx, c.label_idx)).collect();
        assert_eq!(rows, vec![(0, 0), (1, 0), (1, 1)]);
        assert_eq!(ledger.chains[0].candidates, vec![0, 1]);
        assert_eq!(ledger.chains[0].zero_pair_candidates, 1);
        assert_eq!(ledger.chains[1].candidates, vec![1, 2]);
        assert_eq!(ledger.chains[1].zero_pair_candidates, 1);
        let shared = ledger.named(1).expect("row 1");
        assert_eq!((shared.key.as_str(), shared.label.as_str()), ("DID 0x01", "L0"));
        assert!(ledger.named(3).is_none());
    }

    #[test]
    fn lineage_steps_serialize_as_arrays() {
        let step = LineageStep {
            generation: 3,
            op: "crossover".to_string(),
            parent: Some(5),
            donor: None,
            parent_error: Some(0.5),
        };
        let text = dpr_telemetry::json::to_string(&step).expect("serialize");
        assert_eq!(text, r#"[3,"crossover",5,null,0.5]"#);
        let back: LineageStep = dpr_telemetry::json::from_str(&text).expect("parse");
        assert_eq!(back, step);
    }

    #[test]
    fn render_tells_the_whole_story() {
        let ledger = sample_ledger(&sample_events());
        let text = render(&ledger.sensor("did-0xf40d").expect("chain"));
        for needle in [
            "DID 0xF40D",
            "X0 / 2",
            "raw CAN frames",
            "OCR samples",
            "accepted_rescued",
            "GP lineage",
            "seed-template",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let rejects = render_rejects(&ledger.rejects);
        assert!(rejects.contains("isotp.sequence_mismatch: 2"), "{rejects}");
        assert!(render_rejects(&BTreeMap::new()).contains("none"));
    }

    #[test]
    fn decision_codes_are_stable() {
        let all = [
            (CandidateDecision::AcceptedStrict, "accepted_strict"),
            (CandidateDecision::AcceptedRescued, "accepted_rescued"),
            (CandidateDecision::BelowThreshold, "below_threshold"),
            (CandidateDecision::SeriesClaimed, "series_claimed"),
            (CandidateDecision::LabelClaimed, "label_claimed"),
            (CandidateDecision::TooFewPairs, "too_few_pairs"),
        ];
        for (decision, code) in all {
            assert_eq!(decision.code(), code);
        }
        assert!(CandidateDecision::AcceptedStrict.accepted());
        assert!(CandidateDecision::AcceptedRescued.accepted());
        assert!(!CandidateDecision::BelowThreshold.accepted());
    }

    /// One fan-out task's events. Both tasks decide on the same
    /// candidate, so the ledger depends on the order they are replayed in.
    fn run_task(task: usize) {
        let decision = [CandidateDecision::AcceptedStrict, CandidateDecision::TooFewPairs][task];
        record(Event::Candidate(Candidate {
            series_idx: 0,
            label_idx: 0,
            score: Some(0.7),
            pairs: 9,
            decision,
        }));
        if task == 0 {
            with_subject("DID 0xF40D", || {
                record(sample_events().pop().expect("a lineage event"));
            });
        }
    }

    #[test]
    fn events_captured_on_other_threads_replay_to_the_sequential_ledger() {
        let stages = &sample_events()[..6];
        let ((), sequential) = capture(|| {
            stages.iter().cloned().for_each(record);
            (0..2).for_each(run_task);
        });
        let (per_task, replayed) = capture(|| {
            stages.iter().cloned().for_each(record);
            let per_task: Vec<Vec<Event>> = std::thread::scope(|scope| {
                let tasks: Vec<_> = (0..2)
                    .map(|task| scope.spawn(move || capture(|| run_task(task)).1))
                    .collect();
                tasks.into_iter().map(|t| t.join().expect("task")).collect()
            });
            per_task.iter().flatten().cloned().for_each(record);
            per_task
        });
        assert_eq!(replayed, sequential);
        let ledger = sample_ledger(&replayed);
        assert_eq!(ledger, sample_ledger(&sequential));
        assert_eq!(ledger.candidates[0].decision, CandidateDecision::TooFewPairs);
        // Replaying in any other order gives a different ledger.
        let mut reversed = stages.to_vec();
        reversed.extend(per_task.into_iter().rev().flatten());
        assert_ne!(sample_ledger(&reversed), ledger);
    }

    #[test]
    fn a_panicking_task_leaves_no_capture_behind() {
        let verdict = |sample_id| {
            Event::OcrVerdict(OcrVerdict {
                sample_id,
                verdict: "kept".to_string(),
            })
        };
        let ((), outer) = capture(|| {
            std::thread::scope(|scope| {
                let task = scope.spawn(|| {
                    let result = std::panic::catch_unwind(|| capture(|| panic!("task failed")));
                    assert!(result.is_err());
                    active()
                });
                assert!(!task.join().expect("task thread"), "task thread kept a capture");
            });
            let result = std::panic::catch_unwind(|| {
                capture(|| {
                    record(verdict(1));
                    panic!("task failed");
                })
            });
            assert!(result.is_err());
            // The calling thread is back in its own capture.
            record(verdict(2));
        });
        assert_eq!(outer, vec![verdict(2)]);
        assert!(!active());
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let ledger = sample_ledger(&sample_events());
        let text = dpr_telemetry::json::to_string(&ledger).expect("serialize");
        let back: EvidenceLedger = dpr_telemetry::json::from_str(&text).expect("parse");
        assert_eq!(back, ledger);
        // And once more: serialization is deterministic.
        assert_eq!(dpr_telemetry::json::to_string(&back).unwrap(), text);
    }
}
