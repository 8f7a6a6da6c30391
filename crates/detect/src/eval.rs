//! Matching detections against a reference set and scoring accuracy.
//!
//! Two uses, mirroring the paper:
//!
//! 1. **Protocol matching** (§3.3.2): when cloud labels arrive at the edge,
//!    each edge label is matched to the overlapping cloud label (the bigger
//!    overlap wins when there are several candidates), producing three
//!    cases — erroneous (no match), correct (match, same name), corrected
//!    (match, different name) — plus cloud labels with no edge counterpart.
//! 2. **Accuracy scoring** (§5.1): "We consider the YOLOv3 output to be the
//!    ground truth... When the overlap between the truth boundaries and the
//!    predicted boundaries is more than 10%, we consider the prediction
//!    correct." F-score is computed from the resulting TP/FP/FN counts.

use croesus_sim::stats::PrecisionRecall;
use croesus_video::LabelClass;

use crate::detection::Detection;

/// The outcome of matching one detection against the reference set.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchOutcome {
    /// Overlapping reference exists and the class name agrees.
    Correct {
        /// Index of the matched reference detection.
        reference: usize,
    },
    /// Overlapping reference exists but the class name differs — the
    /// final section is called with the overlapping (correct) label.
    Corrected {
        /// Index of the matched reference detection.
        reference: usize,
    },
    /// No overlapping reference — the detection was erroneous; the final
    /// section is called with an empty label.
    Erroneous,
}

/// Result of matching a set of detections to a reference set.
#[derive(Clone, Debug, Default)]
pub struct Matching {
    /// Per-detection outcome, parallel to the input detections.
    pub outcomes: Vec<MatchOutcome>,
    /// Indices of reference detections that no input detection matched —
    /// these trigger fresh initial+final sections (§3.3.2).
    pub unmatched_references: Vec<usize>,
}

impl Matching {
    /// Count of correct matches.
    pub fn correct(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, MatchOutcome::Correct { .. }))
            .count()
    }

    /// Count of corrected (overlap, wrong name) matches.
    pub fn corrected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, MatchOutcome::Corrected { .. }))
            .count()
    }

    /// Count of erroneous (no overlap) detections.
    pub fn erroneous(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, MatchOutcome::Erroneous))
            .count()
    }
}

/// Match `detections` against `references` by bounding-box overlap.
///
/// A detection matches the reference with the greatest overlap fraction
/// above `overlap_threshold`; each reference is matched at most once
/// (greedy, in order of decreasing overlap, which resolves the paper's
/// "the one with the bigger overlap is chosen").
pub fn match_detections(
    detections: &[Detection],
    references: &[Detection],
    overlap_threshold: f64,
) -> Matching {
    // Candidate (overlap, det, ref) triples above threshold.
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for (di, d) in detections.iter().enumerate() {
        for (ri, r) in references.iter().enumerate() {
            let ov = d.bbox.overlap_fraction(&r.bbox);
            if ov > overlap_threshold {
                candidates.push((ov, di, ri));
            }
        }
    }
    // Greatest overlap first; ties broken by (det, ref) index for determinism.
    candidates.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("overlap is never NaN")
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });

    let mut det_matched: Vec<Option<usize>> = vec![None; detections.len()];
    let mut ref_taken = vec![false; references.len()];
    for (_, di, ri) in candidates {
        if det_matched[di].is_none() && !ref_taken[ri] {
            det_matched[di] = Some(ri);
            ref_taken[ri] = true;
        }
    }

    let outcomes = detections
        .iter()
        .enumerate()
        .map(|(di, d)| match det_matched[di] {
            Some(ri) if references[ri].class == d.class => MatchOutcome::Correct { reference: ri },
            Some(ri) => MatchOutcome::Corrected { reference: ri },
            None => MatchOutcome::Erroneous,
        })
        .collect();

    let unmatched_references = ref_taken
        .iter()
        .enumerate()
        .filter(|(_, taken)| !**taken)
        .map(|(ri, _)| ri)
        .collect();

    Matching {
        outcomes,
        unmatched_references,
    }
}

/// Score `detections` against `references` for one query class, producing
/// TP/FP/FN counts à la §5.1. Only detections and references of the query
/// class participate.
pub fn score_against(
    detections: &[Detection],
    references: &[Detection],
    query: &LabelClass,
    overlap_threshold: f64,
) -> PrecisionRecall {
    let dets: Vec<Detection> = detections
        .iter()
        .filter(|d| d.is_class(query))
        .cloned()
        .collect();
    let refs: Vec<Detection> = references
        .iter()
        .filter(|r| r.is_class(query))
        .cloned()
        .collect();
    let m = match_detections(&dets, &refs, overlap_threshold);
    let tp = m.correct() as u64;
    let fp = dets.len() as u64 - tp;
    let fn_ = m.unmatched_references.len() as u64 + m.corrected() as u64;
    PrecisionRecall { tp, fp, fn_ }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_video::BoundingBox;

    fn det(class: &str, conf: f64, x: f64, y: f64, w: f64, h: f64) -> Detection {
        Detection::new(class.into(), conf, BoundingBox::new(x, y, w, h))
    }

    #[test]
    fn exact_match_is_correct() {
        let d = vec![det("car", 0.9, 0.1, 0.1, 0.2, 0.2)];
        let r = vec![det("car", 0.95, 0.1, 0.1, 0.2, 0.2)];
        let m = match_detections(&d, &r, 0.10);
        assert_eq!(m.outcomes, vec![MatchOutcome::Correct { reference: 0 }]);
        assert!(m.unmatched_references.is_empty());
    }

    #[test]
    fn wrong_name_is_corrected() {
        let d = vec![det("bus", 0.9, 0.1, 0.1, 0.2, 0.2)];
        let r = vec![det("car", 0.95, 0.12, 0.12, 0.2, 0.2)];
        let m = match_detections(&d, &r, 0.10);
        assert_eq!(m.outcomes, vec![MatchOutcome::Corrected { reference: 0 }]);
    }

    #[test]
    fn no_overlap_is_erroneous() {
        let d = vec![det("car", 0.9, 0.0, 0.0, 0.1, 0.1)];
        let r = vec![det("car", 0.95, 0.7, 0.7, 0.2, 0.2)];
        let m = match_detections(&d, &r, 0.10);
        assert_eq!(m.outcomes, vec![MatchOutcome::Erroneous]);
        assert_eq!(m.unmatched_references, vec![0]);
    }

    #[test]
    fn bigger_overlap_wins_with_multiple_candidates() {
        let d = vec![det("car", 0.9, 0.1, 0.1, 0.3, 0.3)];
        let near = det("car", 0.95, 0.1, 0.1, 0.3, 0.3); // full overlap
        let far = det("car", 0.95, 0.3, 0.3, 0.3, 0.3); // partial overlap
        let r = vec![far, near];
        let m = match_detections(&d, &r, 0.10);
        assert_eq!(m.outcomes, vec![MatchOutcome::Correct { reference: 1 }]);
        assert_eq!(m.unmatched_references, vec![0]);
    }

    #[test]
    fn each_reference_matched_at_most_once() {
        // Two detections over one reference: only one may claim it.
        let d = vec![
            det("car", 0.9, 0.1, 0.1, 0.2, 0.2),
            det("car", 0.8, 0.12, 0.12, 0.2, 0.2),
        ];
        let r = vec![det("car", 0.95, 0.1, 0.1, 0.2, 0.2)];
        let m = match_detections(&d, &r, 0.10);
        let correct = m.correct();
        let erroneous = m.erroneous();
        assert_eq!(correct, 1);
        assert_eq!(erroneous, 1);
    }

    #[test]
    fn unmatched_cloud_labels_are_reported() {
        let d = vec![];
        let r = vec![
            det("car", 0.95, 0.1, 0.1, 0.2, 0.2),
            det("person", 0.9, 0.6, 0.6, 0.1, 0.2),
        ];
        let m = match_detections(&d, &r, 0.10);
        assert_eq!(m.unmatched_references, vec![0, 1]);
    }

    #[test]
    fn matching_is_deterministic_under_ties() {
        let d = vec![
            det("car", 0.9, 0.1, 0.1, 0.2, 0.2),
            det("car", 0.9, 0.1, 0.1, 0.2, 0.2),
        ];
        let r = vec![
            det("car", 0.9, 0.1, 0.1, 0.2, 0.2),
            det("car", 0.9, 0.1, 0.1, 0.2, 0.2),
        ];
        let m1 = match_detections(&d, &r, 0.10);
        let m2 = match_detections(&d, &r, 0.10);
        assert_eq!(m1.outcomes, m2.outcomes);
        assert_eq!(m1.correct(), 2);
    }

    #[test]
    fn score_perfect_agreement() {
        let d = vec![det("car", 0.9, 0.1, 0.1, 0.2, 0.2)];
        let pr = score_against(&d, &d, &"car".into(), 0.10);
        assert_eq!(pr.tp, 1);
        assert_eq!(pr.fp, 0);
        assert_eq!(pr.fn_, 0);
        assert_eq!(pr.f_score(), 1.0);
    }

    #[test]
    fn score_counts_fp_and_fn() {
        let d = vec![
            det("car", 0.9, 0.0, 0.0, 0.1, 0.1), // no ref overlap -> FP
            det("car", 0.9, 0.5, 0.5, 0.2, 0.2), // TP
        ];
        let r = vec![
            det("car", 0.95, 0.5, 0.5, 0.2, 0.2),   // matched
            det("car", 0.95, 0.8, 0.1, 0.15, 0.15), // missed -> FN
        ];
        let pr = score_against(&d, &r, &"car".into(), 0.10);
        assert_eq!((pr.tp, pr.fp, pr.fn_), (1, 1, 1));
    }

    #[test]
    fn score_ignores_other_classes() {
        let d = vec![
            det("person", 0.9, 0.1, 0.1, 0.2, 0.2),
            det("car", 0.9, 0.5, 0.5, 0.2, 0.2),
        ];
        let r = vec![det("car", 0.95, 0.5, 0.5, 0.2, 0.2)];
        let pr = score_against(&d, &r, &"car".into(), 0.10);
        assert_eq!((pr.tp, pr.fp, pr.fn_), (1, 0, 0));
    }

    #[test]
    fn corrected_label_counts_as_fn_for_query() {
        // The edge said "bus" where the reference says "car": for the query
        // "car" this is a missed car (FN); the "bus" detection is not a
        // query-class detection so it is not an FP for "car".
        let d = vec![det("bus", 0.9, 0.5, 0.5, 0.2, 0.2)];
        let r = vec![det("car", 0.95, 0.5, 0.5, 0.2, 0.2)];
        let pr = score_against(&d, &r, &"car".into(), 0.10);
        assert_eq!((pr.tp, pr.fp, pr.fn_), (0, 0, 1));
    }

    #[test]
    fn empty_inputs_score_zero() {
        let pr = score_against(&[], &[], &"car".into(), 0.10);
        assert_eq!(pr, PrecisionRecall::default());
    }
}
