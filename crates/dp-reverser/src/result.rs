//! Result model: what DP-Reverser recovers.

use dpr_frames::{EcrTarget, FrameStats, SourceKey};
use dpr_gp::FittedModel;
use dpr_telemetry::PipelineTrace;
use serde::{Deserialize, Serialize};

/// What was recovered for one readable signal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecoveredKind {
    /// A formula mapping raw response values to the displayed value.
    Formula(FittedModel),
    /// An enumeration: the raw value is displayed as-is (door open/closed
    /// …) — the paper's "#ESV (Enum)" category.
    Enumeration,
}

/// One reverse-engineered ESV: the identifier, its recovered semantics
/// (the UI label), and the decoding rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveredEsv {
    /// The request-side identifier (DID / local-id slot / PID).
    pub key: SourceKey,
    /// For KWP slots, the formula-type byte seen on the wire.
    pub f_type: Option<u8>,
    /// The screen (ECU page) the signal was read from.
    pub screen: String,
    /// The recovered semantic meaning: the label the tool displays.
    pub label: String,
    /// The decoding rule.
    pub kind: RecoveredKind,
    /// Number of `(X, Y)` pairs the inference used.
    pub pairs: usize,
    /// Observed range of each raw input column.
    pub x_ranges: Vec<(f64, f64)>,
    /// The association confidence from series matching.
    pub match_score: f64,
}

impl RecoveredEsv {
    /// Whether a formula (not an enumeration) was recovered.
    pub fn has_formula(&self) -> bool {
        matches!(self.kind, RecoveredKind::Formula(_))
    }

    /// A one-line human-readable summary.
    pub fn describe(&self) -> String {
        match &self.kind {
            RecoveredKind::Formula(m) => {
                format!("{} [{}] <- {}", self.key, self.label, m.describe())
            }
            RecoveredKind::Enumeration => {
                format!("{} [{}] <- enumeration (raw value)", self.key, self.label)
            }
        }
    }

    /// The recovered rule in the paper's presentation form: a closed-form
    /// formula where one explains the model over the observed range, the
    /// raw expression otherwise.
    pub fn pretty_formula(&self) -> String {
        match &self.kind {
            RecoveredKind::Enumeration => "enumeration".to_string(),
            RecoveredKind::Formula(m) => crate::canonicalize(m, &self.x_ranges)
                .map(|f| f.to_string())
                .unwrap_or_else(|| m.describe()),
        }
    }
}

/// One reverse-engineered ECU-control record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveredEcr {
    /// The addressed component identifier.
    pub target: EcrTarget,
    /// The control state sent with the short-term adjustment.
    pub state: Vec<u8>,
    /// Whether the full freeze → adjust → return pattern was seen (§4.5).
    pub complete_pattern: bool,
    /// The recovered semantic meaning (the active-test button label
    /// clicked just before the procedure), when the click log allows it.
    pub label: Option<String>,
}

/// The complete output of one pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReverseEngineeringResult {
    /// Recovered readable signals.
    pub esvs: Vec<RecoveredEsv>,
    /// Recovered control records.
    pub ecrs: Vec<RecoveredEcr>,
    /// Frame-kind statistics of the capture (Tab. 9).
    pub stats: FrameStats,
    /// Negative responses observed.
    pub negatives: usize,
    /// The clock offset (camera − bus, µs) the pipeline corrected for.
    pub alignment_offset_us: i64,
    /// Observability data of the run: per-stage wall time and counters.
    /// Compares equal by design — wall times are not part of the result.
    pub trace: PipelineTrace,
    /// The run's evidence ledger: one provenance chain per recovered
    /// sensor (frames → reassembly → OCR → alignment → GP lineage) plus
    /// run-level transport reject tallies. Built from simulation-clock
    /// data only, so live and replayed runs compare byte-identical.
    pub evidence: dpr_evidence::EvidenceLedger,
}

/// A result serialized with its trace zeroed out.
struct Canonical<'a>(&'a ReverseEngineeringResult);

impl Serialize for Canonical<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        // Destructured in full so a new field cannot be left out.
        let ReverseEngineeringResult {
            esvs,
            ecrs,
            stats,
            negatives,
            alignment_offset_us,
            trace: _,
            evidence,
        } = self.0;
        let mut result = serializer.serialize_struct("ReverseEngineeringResult", 7)?;
        result.serialize_field("esvs", esvs)?;
        result.serialize_field("ecrs", ecrs)?;
        result.serialize_field("stats", stats)?;
        result.serialize_field("negatives", negatives)?;
        result.serialize_field("alignment_offset_us", alignment_offset_us)?;
        result.serialize_field("trace", &PipelineTrace::default())?;
        result.serialize_field("evidence", evidence)?;
        result.end()
    }
}

impl ReverseEngineeringResult {
    /// Recovered ESVs that carry formulas.
    pub fn formula_esvs(&self) -> impl Iterator<Item = &RecoveredEsv> {
        self.esvs.iter().filter(|e| e.has_formula())
    }

    /// The result as canonical JSON with the observability trace zeroed
    /// out. Per-stage wall times differ run to run even when the
    /// recovered artifacts are byte-identical, so every identity
    /// comparison (record/replay determinism, service-vs-direct) goes
    /// through this form.
    ///
    /// The result is serialized in place, field by field in declaration
    /// order with an empty trace written in the trace's slot, so the
    /// bytes are those of a copy with its trace reset, without the copy.
    pub fn canonical_json(&self) -> String {
        dpr_telemetry::json::to_string(&Canonical(self))
            .expect("a recovered result always serializes")
    }

    /// Reconstructs the manufacturer's KWP 2000 formula-type table — the
    /// paper's third KWP reverse-engineering target: "the corresponding
    /// formula used to transform ESV in the response message to actual
    /// ESV". For every formula-type byte observed on the wire, the
    /// canonicalized formula of each recovered slot of that type is
    /// collected; slots of one type share one formula by construction, so
    /// the entries are the recovered table rows.
    pub fn kwp_formula_table(&self) -> Vec<(u8, String, usize)> {
        let mut by_type: std::collections::BTreeMap<u8, std::collections::BTreeMap<String, usize>> =
            Default::default();
        for esv in &self.esvs {
            let Some(f_type) = esv.f_type else { continue };
            *by_type
                .entry(f_type)
                .or_default()
                .entry(esv.pretty_formula())
                .or_default() += 1;
        }
        by_type
            .into_iter()
            .map(|(f_type, votes)| {
                let count = votes.values().sum();
                // Majority vote over the (near-identical) recovered forms;
                // ties break toward the lexicographically smallest form.
                let best = votes
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                    .expect("entry only created when a formula is pushed")
                    .0;
                (f_type, best, count)
            })
            .collect()
    }

    /// Recovered ESVs classified as enumerations.
    pub fn enum_esvs(&self) -> impl Iterator<Item = &RecoveredEsv> {
        self.esvs.iter().filter(|e| !e.has_formula())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_formats() {
        let esv = RecoveredEsv {
            key: SourceKey::UdsDid(0xF40D),
            f_type: None,
            screen: "Engine - Data Stream p1".into(),
            label: "Vehicle Speed".into(),
            kind: RecoveredKind::Enumeration,
            pairs: 40,
            x_ranges: vec![(0.0, 200.0)],
            match_score: 0.99,
        };
        assert!(esv.describe().contains("Vehicle Speed"));
        assert!(esv.describe().contains("0xF40D"));
        assert!(!esv.has_formula());
    }

    #[test]
    fn result_partitions_esvs() {
        let enum_esv = RecoveredEsv {
            key: SourceKey::UdsDid(1),
            f_type: None,
            screen: String::new(),
            label: "Door".into(),
            kind: RecoveredKind::Enumeration,
            pairs: 5,
            x_ranges: vec![],
            match_score: 1.0,
        };
        let result = ReverseEngineeringResult {
            esvs: vec![enum_esv],
            ecrs: vec![],
            stats: FrameStats::default(),
            negatives: 0,
            alignment_offset_us: 0,
            trace: PipelineTrace::default(),
            evidence: dpr_evidence::EvidenceLedger::default(),
        };
        assert_eq!(result.formula_esvs().count(), 0);
        assert_eq!(result.enum_esvs().count(), 1);
    }

    #[test]
    fn canonical_json_is_the_result_with_its_trace_reset() {
        let esv = RecoveredEsv {
            key: SourceKey::UdsDid(0xF40D),
            f_type: Some(7),
            screen: "Engine".into(),
            label: "Speed \"km/h\"".into(),
            kind: RecoveredKind::Enumeration,
            pairs: 12,
            x_ranges: vec![(0.0, 255.0)],
            match_score: 0.5,
        };
        let mut trace = PipelineTrace {
            total_us: 1234,
            job_id: Some("job-7".into()),
            ..PipelineTrace::default()
        };
        trace.counters.insert("frames".into(), 9);
        let result = ReverseEngineeringResult {
            esvs: vec![esv],
            ecrs: vec![RecoveredEcr {
                target: EcrTarget::Local30(4),
                state: vec![3, 0],
                complete_pattern: true,
                label: None,
            }],
            stats: FrameStats::default(),
            negatives: 2,
            alignment_offset_us: -40,
            trace,
            evidence: dpr_evidence::EvidenceLedger::default(),
        };
        let mut stripped = result.clone();
        stripped.trace = PipelineTrace::default();
        assert_eq!(
            result.canonical_json(),
            dpr_telemetry::json::to_string(&stripped).expect("serializes")
        );
        assert!(!result.canonical_json().contains("job-7"));
    }
}
