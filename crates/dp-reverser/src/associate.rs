//! Associating traffic series with screen series.
//!
//! The frames analysis yields an `X` series per identifier; the screenshot
//! analysis yields a `Y` series per screen label. Before formulas can be
//! inferred, each label must be matched to the identifier that feeds it
//! (paper §3.4: the semantic meaning of a DID *is* the text shown on the
//! UI). We match by value correlation: the raw values and the displayed
//! values co-move through the (unknown) formula, so the label whose series
//! best correlates with an identifier's series — over the features `X0`,
//! `X1`, and `X0·X1` — is its meaning. Assignment is greedy
//! highest-score-first, one label per identifier.

use dpr_can::Micros;
use dpr_frames::EsvSeries;
use serde::{Deserialize, Serialize};

/// A displayed-value series: the `(screen, label)` scope plus its
/// timestamped readings.
pub type LabelSeries = ((String, String), Vec<(Micros, f64)>);

/// One candidate association with its evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchScore {
    /// Index into the X-series list.
    pub series_idx: usize,
    /// Index into the Y-series list.
    pub label_idx: usize,
    /// Correlation-based confidence in `0..=1`.
    pub score: f64,
    /// The paired samples `(x values, y)` used for inference.
    pub pairs: Vec<(Vec<f64>, f64)>,
}

/// Records one alignment candidate's decision on the evidence log
/// (no-op outside a [`dpr_evidence::capture`]). Decisions recorded
/// later for the same `(series_idx, label_idx)` supersede earlier
/// ones when the ledger is assembled, so the relaxed second pass can
/// overwrite a pass-one `below_threshold` with `accepted_rescued`.
/// The event carries indices only; assembly resolves the names.
pub(crate) fn record_candidate(
    series_idx: usize,
    label_idx: usize,
    score: f64,
    pairs: usize,
    decision: dpr_evidence::CandidateDecision,
) {
    if !dpr_evidence::active() {
        return;
    }
    dpr_evidence::record(dpr_evidence::Event::Candidate(dpr_evidence::Candidate {
        series_idx: series_idx as u32,
        label_idx: label_idx as u32,
        score: dpr_evidence::finite(score),
        pairs: pairs as u32,
        decision,
    }));
}

/// Average-rank transform for Spearman correlation.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation magnitude — robust to the residual OCR
/// outliers that slip past the two-stage filter.
fn abs_spearman(xs: &[f64], ys: &[f64]) -> f64 {
    abs_pearson(&ranks(xs), &ranks(ys))
}

/// The stronger of Pearson and Spearman magnitudes.
fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    abs_pearson(xs, ys).max(abs_spearman(xs, ys))
}

/// Pearson correlation magnitude; 0 when either side is constant.
fn abs_pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 3 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx < 1e-12 || vy < 1e-12 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).abs()
}

/// Builds the `(X, Y)` pairs for one candidate: each X sample takes the
/// nearest-in-time Y value within `window` (paper §3.5 Step 1).
pub(crate) fn pair_series(
    x: &EsvSeries,
    y: &[(Micros, f64)],
    window: Micros,
) -> Vec<(Vec<f64>, f64)> {
    let mut out = Vec::new();
    if y.is_empty() {
        return out;
    }
    let mut j = 0usize;
    for (t, vals) in &x.samples {
        // Advance j to the closest y timestamp (y is time-sorted).
        while j + 1 < y.len() && y[j + 1].0.abs_diff(*t) <= y[j].0.abs_diff(*t) {
            j += 1;
        }
        if y[j].0.abs_diff(*t) <= window {
            let mut cols = vals.clone();
            cols.truncate(2);
            out.push((cols, y[j].1));
        }
    }
    out
}

/// The first and last timestamp of `times` in microseconds; `None`
/// when empty.
fn span(times: impl Iterator<Item = Micros>) -> Option<(u64, u64)> {
    times.map(Micros::as_micros).fold(None, |span, t| match span {
        None => Some((t, t)),
        Some((lo, hi)) => Some((lo.min(t), hi.max(t))),
    })
}

/// Pairs one candidate like [`pair_series`], but answers without
/// scanning when the two series' time spans, widened by `window`, never
/// overlap: no X sample can then have a Y value within `window`, so
/// [`pair_series`] would return no pairs either.
fn pair_spans(
    x: &EsvSeries,
    x_span: Option<(u64, u64)>,
    y: &[(Micros, f64)],
    y_span: Option<(u64, u64)>,
    window: Micros,
) -> Vec<(Vec<f64>, f64)> {
    let w = window.as_micros();
    match (x_span, y_span) {
        (Some((x_lo, x_hi)), Some((y_lo, y_hi)))
            if x_hi.saturating_add(w) >= y_lo && y_hi.saturating_add(w) >= x_lo =>
        {
            pair_series(x, y, window)
        }
        _ => Vec::new(),
    }
}

/// Every X and Y series' time span, for [`pair_spans`].
type Spans = (Vec<Option<(u64, u64)>>, Vec<Option<(u64, u64)>>);

fn spans(xs: &[EsvSeries], ys: &[LabelSeries]) -> Spans {
    (
        xs.iter().map(|x| span(x.samples.iter().map(|(t, _)| *t))).collect(),
        ys.iter().map(|(_, y)| span(y.iter().map(|(t, _)| *t))).collect(),
    )
}

/// Scores one candidate pairing: the best absolute Pearson correlation
/// over the features `X0`, `X1`, `X0·X1`, with two special cases — exact
/// equality (enumerations) scores 1.0, and matching constants score 0.35
/// (weak, but assignable when nothing else claims the label).
pub(crate) fn score_pairs(pairs: &[(Vec<f64>, f64)]) -> f64 {
    if pairs.len() < 3 {
        return 0.0;
    }
    let ys: Vec<f64> = pairs.iter().map(|(_, y)| *y).collect();
    let x0: Vec<f64> = pairs.iter().map(|(x, _)| x[0]).collect();
    let equal = pairs
        .iter()
        .filter(|(x, y)| (x[0] - y).abs() < 1e-9)
        .count();
    if equal * 10 >= pairs.len() * 9 {
        return 1.0;
    }
    let mut best = correlation(&x0, &ys);
    if pairs[0].0.len() > 1 {
        let x1: Vec<f64> = pairs.iter().map(|(x, _)| x[1]).collect();
        let prod: Vec<f64> = pairs.iter().map(|(x, _)| x[0] * x[1]).collect();
        best = best.max(correlation(&x1, &ys)).max(correlation(&prod, &ys));
    }
    if best > 0.0 {
        return best;
    }
    // Both sides constant: weak compatibility signal.
    let y_const = ys.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9);
    let x_const = x0.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9);
    if y_const && x_const {
        0.35
    } else {
        0.0
    }
}

/// Greedy bipartite matching between X series and Y label series. Returns
/// accepted matches, highest score first; each series and each label is
/// used at most once, and scores below `threshold` are discarded.
pub fn match_series(
    xs: &[EsvSeries],
    ys: &[LabelSeries],
    window: Micros,
    threshold: f64,
) -> Vec<MatchScore> {
    let mut candidates: Vec<MatchScore> = Vec::new();
    let (x_spans, y_spans) = spans(xs, ys);
    for (si, x) in xs.iter().enumerate() {
        for (li, (_, y)) in ys.iter().enumerate() {
            let pairs = pair_spans(x, x_spans[si], y, y_spans[li], window);
            let score = score_pairs(&pairs);
            dpr_telemetry::counter("pipeline.pairs_formed").inc(pairs.len() as u64);
            if score >= threshold {
                dpr_telemetry::counter("pipeline.matches_above_threshold").inc(1);
                candidates.push(MatchScore {
                    series_idx: si,
                    label_idx: li,
                    score,
                    pairs,
                });
            } else {
                dpr_telemetry::counter("pipeline.matches_below_threshold").inc(1);
                record_candidate(
                    si,
                    li,
                    score,
                    pairs.len(),
                    dpr_evidence::CandidateDecision::BelowThreshold,
                );
            }
        }
    }
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut used_series = vec![false; xs.len()];
    let mut used_labels = vec![false; ys.len()];
    let mut accepted = Vec::new();
    for c in candidates {
        if used_series[c.series_idx] || used_labels[c.label_idx] {
            let decision = if used_series[c.series_idx] {
                dpr_evidence::CandidateDecision::SeriesClaimed
            } else {
                dpr_evidence::CandidateDecision::LabelClaimed
            };
            record_candidate(c.series_idx, c.label_idx, c.score, c.pairs.len(), decision);
            continue;
        }
        used_series[c.series_idx] = true;
        used_labels[c.label_idx] = true;
        record_candidate(
            c.series_idx,
            c.label_idx,
            c.score,
            c.pairs.len(),
            dpr_evidence::CandidateDecision::AcceptedStrict,
        );
        accepted.push(c);
    }
    accepted
}

/// Two-pass matching: the strict pass at `threshold`, then a relaxed pass
/// (0.6 × threshold) over whatever is left — a still-unclaimed label and
/// series that prefer each other are almost certainly a genuine pair whose
/// correlation was depressed by residual noise.
pub fn match_series_two_pass(
    xs: &[EsvSeries],
    ys: &[LabelSeries],
    window: Micros,
    threshold: f64,
) -> Vec<MatchScore> {
    let mut accepted = match_series(xs, ys, window, threshold);
    let mut used_series = vec![false; xs.len()];
    let mut used_labels = vec![false; ys.len()];
    for m in &accepted {
        used_series[m.series_idx] = true;
        used_labels[m.label_idx] = true;
    }
    let mut second: Vec<MatchScore> = Vec::new();
    let (x_spans, y_spans) = spans(xs, ys);
    for (si, x) in xs.iter().enumerate() {
        if used_series[si] {
            continue;
        }
        for (li, (_, y)) in ys.iter().enumerate() {
            if used_labels[li] {
                continue;
            }
            let pairs = pair_spans(x, x_spans[si], y, y_spans[li], window);
            let score = score_pairs(&pairs);
            if score >= threshold * 0.6 {
                second.push(MatchScore {
                    series_idx: si,
                    label_idx: li,
                    score,
                    pairs,
                });
            }
        }
    }
    second.sort_by(|a, b| b.score.total_cmp(&a.score));
    for c in second {
        if used_series[c.series_idx] || used_labels[c.label_idx] {
            let decision = if used_series[c.series_idx] {
                dpr_evidence::CandidateDecision::SeriesClaimed
            } else {
                dpr_evidence::CandidateDecision::LabelClaimed
            };
            record_candidate(c.series_idx, c.label_idx, c.score, c.pairs.len(), decision);
            continue;
        }
        used_series[c.series_idx] = true;
        used_labels[c.label_idx] = true;
        dpr_telemetry::counter("pipeline.matches_rescued").inc(1);
        record_candidate(
            c.series_idx,
            c.label_idx,
            c.score,
            c.pairs.len(),
            dpr_evidence::CandidateDecision::AcceptedRescued,
        );
        accepted.push(c);
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_frames::SourceKey;

    fn x_series(key: u16, f: impl Fn(usize) -> Vec<f64>) -> EsvSeries {
        EsvSeries {
            key: SourceKey::UdsDid(key),
            f_type: None,
            samples: (0..30)
                .map(|i| (Micros::from_millis(i as u64 * 100), f(i)))
                .collect(),
        }
    }

    fn y_series(f: impl Fn(usize) -> f64) -> Vec<(Micros, f64)> {
        (0..30)
            .map(|i| (Micros::from_millis(i as u64 * 100 + 20), f(i)))
            .collect()
    }

    #[test]
    fn pearson_detects_linear_relation() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        assert!(abs_pearson(&xs, &ys) > 0.999);
        let flat = vec![5.0; 20];
        assert_eq!(abs_pearson(&xs, &flat), 0.0);
    }

    #[test]
    fn matching_assigns_correct_labels() {
        // DID 1 drives "Speed" (y = x), DID 2 drives "Coolant" (y = 0.5x).
        let xs = vec![
            x_series(1, |i| vec![(i * 7 % 100) as f64]),
            x_series(2, |i| vec![(i * 13 % 90) as f64]),
        ];
        let ys = vec![
            (
                ("E".to_string(), "Speed".to_string()),
                y_series(|i| (i * 7 % 100) as f64),
            ),
            (
                ("E".to_string(), "Coolant".to_string()),
                y_series(|i| (i * 13 % 90) as f64 * 0.5),
            ),
        ];
        let matches = match_series(&xs, &ys, Micros::from_millis(500), 0.5);
        assert_eq!(matches.len(), 2);
        for m in &matches {
            assert_eq!(m.series_idx, m.label_idx, "matched to the wrong label");
            assert!(m.score > 0.9);
        }
    }

    #[test]
    fn enumeration_equality_scores_perfectly() {
        let pairs: Vec<(Vec<f64>, f64)> = (0..20)
            .map(|i| (vec![(i % 2) as f64], (i % 2) as f64))
            .collect();
        assert_eq!(score_pairs(&pairs), 1.0);
    }

    #[test]
    fn product_formula_detected_via_cross_feature() {
        // y = x0*x1/5 where both vary and neither alone correlates
        // strongly.
        let pairs: Vec<(Vec<f64>, f64)> = (0..40)
            .map(|i| {
                let x0 = (100 + (i * 37) % 120) as f64;
                let x1 = (10 + (i * 23) % 20) as f64;
                (vec![x0, x1], x0 * x1 / 5.0)
            })
            .collect();
        assert!(score_pairs(&pairs) > 0.9);
    }

    #[test]
    fn unrelated_series_rejected() {
        let xs = vec![x_series(1, |i| vec![(i * 7 % 100) as f64])];
        // Deterministic "noise" uncorrelated with x.
        let ys = vec![(
            ("E".to_string(), "Noise".to_string()),
            y_series(|i| ((i * 6151 + 13) % 97) as f64),
        )];
        let matches = match_series(&xs, &ys, Micros::from_millis(500), 0.6);
        assert!(matches.is_empty(), "{matches:?}");
    }

    #[test]
    fn pairing_respects_the_window() {
        let x = x_series(1, |i| vec![i as f64]);
        // Y series 10 s away from every X sample.
        let y: Vec<(Micros, f64)> = (0..30)
            .map(|i| (Micros::from_secs(100 + i as u64), i as f64))
            .collect();
        let pairs = pair_series(&x, &y, Micros::from_millis(500));
        assert!(pairs.is_empty());
    }

    #[test]
    fn span_check_pairs_exactly_like_the_full_scan() {
        // X samples at 5.0..7.9 s; 5-sample Y series starting so that
        // they end or begin just outside, exactly on, and just inside
        // the 350 ms window on either side.
        let mut x = x_series(1, |i| vec![i as f64]);
        for (t, _) in &mut x.samples {
            *t = Micros::from_millis(t.as_micros() / 1_000 + 5_000);
        }
        let window = Micros::from_millis(350);
        let x_span = span(x.samples.iter().map(|(t, _)| *t));
        for start_ms in [0, 4_249, 4_250, 4_300, 6_000, 8_250, 8_251, 20_000] {
            let y: Vec<(Micros, f64)> = (0..5)
                .map(|i| (Micros::from_millis(start_ms + i * 100), i as f64))
                .collect();
            let y_span = span(y.iter().map(|(t, _)| *t));
            assert_eq!(
                pair_spans(&x, x_span, &y, y_span, window),
                pair_series(&x, &y, window),
                "Y from {start_ms} ms"
            );
        }
        assert!(pair_spans(&x, x_span, &[], None, window).is_empty());
    }

    #[test]
    fn one_label_claimed_once() {
        // Two identical X series compete for one label; only one wins.
        let xs = vec![
            x_series(1, |i| vec![(i % 50) as f64]),
            x_series(2, |i| vec![(i % 50) as f64]),
        ];
        let ys = vec![(
            ("E".to_string(), "Speed".to_string()),
            y_series(|i| (i % 50) as f64),
        )];
        let matches = match_series(&xs, &ys, Micros::from_millis(500), 0.5);
        assert_eq!(matches.len(), 1);
    }

    /// Candidate decisions recorded under a capture, keyed by indices.
    fn decisions(
        events: &[dpr_evidence::Event],
    ) -> Vec<(u32, u32, &'static str)> {
        events
            .iter()
            .filter_map(|e| match e {
                dpr_evidence::Event::Candidate(c) => {
                    Some((c.series_idx, c.label_idx, c.decision.code()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rejection_below_threshold_lands_on_the_ledger() {
        let xs = vec![x_series(1, |i| vec![(i * 7 % 100) as f64])];
        let ys = vec![(
            ("E".to_string(), "Noise".to_string()),
            y_series(|i| ((i * 6151 + 13) % 97) as f64),
        )];
        let (matches, events) = dpr_evidence::capture(|| {
            match_series_two_pass(&xs, &ys, Micros::from_millis(500), 0.9)
        });
        assert!(matches.is_empty());
        let recorded = decisions(&events);
        assert!(
            recorded.contains(&(0, 0, "below_threshold")),
            "{recorded:?}"
        );
        // The relaxed pass didn't rescue it, so no later decision
        // supersedes the rejection.
        assert_eq!(recorded.last().unwrap().2, "below_threshold");
    }

    #[test]
    fn rejection_label_claimed_lands_on_the_ledger() {
        // Two identical series compete for one label: the greedy loser's
        // label is already claimed when its turn comes.
        let xs = vec![
            x_series(1, |i| vec![(i % 50) as f64]),
            x_series(2, |i| vec![(i % 50) as f64]),
        ];
        let ys = vec![(
            ("E".to_string(), "Speed".to_string()),
            y_series(|i| (i % 50) as f64),
        )];
        let (matches, events) = dpr_evidence::capture(|| {
            match_series_two_pass(&xs, &ys, Micros::from_millis(500), 0.5)
        });
        assert_eq!(matches.len(), 1);
        let recorded = decisions(&events);
        let winner = matches[0].series_idx as u32;
        let loser = 1 - winner;
        assert!(
            recorded.contains(&(winner, 0, "accepted_strict")),
            "{recorded:?}"
        );
        assert!(
            recorded.contains(&(loser, 0, "label_claimed")),
            "{recorded:?}"
        );
    }

    #[test]
    fn rescued_match_supersedes_its_first_pass_rejection() {
        // A constant pair scores 0.35: below the 0.5 strict threshold,
        // above the 0.3 relaxed one — rejected in pass one, rescued in
        // pass two. The rescue is recorded *after* the rejection, so the
        // ledger's last-decision-wins join keeps the acceptance.
        let xs = vec![x_series(1, |_| vec![5.0])];
        let ys = vec![(
            ("E".to_string(), "Battery".to_string()),
            y_series(|_| 12.0),
        )];
        let (matches, events) = dpr_evidence::capture(|| {
            match_series_two_pass(&xs, &ys, Micros::from_millis(500), 0.5)
        });
        assert_eq!(matches.len(), 1, "{matches:?}");
        let recorded = decisions(&events);
        let first = recorded
            .iter()
            .position(|d| *d == (0, 0, "below_threshold"))
            .expect("pass-one rejection recorded");
        let second = recorded
            .iter()
            .position(|d| *d == (0, 0, "accepted_rescued"))
            .expect("pass-two rescue recorded");
        assert!(first < second, "{recorded:?}");
    }
}
