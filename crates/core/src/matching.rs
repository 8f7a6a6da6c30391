//! Final-stage label matching (§3.3.2, "Final Transaction Section").
//!
//! When the cloud labels for a frame arrive, each edge label is matched to
//! the overlapping cloud label (bigger overlap wins). Three cases follow:
//!
//! 1. no overlapping cloud label → the edge label was **erroneous**; the
//!    final section is called with an empty label;
//! 2. overlap and the *same* name → **correct**; the final section is
//!    called with the same label;
//! 3. overlap but a *different* name → **corrected**; the final section is
//!    called with the overlapping cloud label.
//!
//! Cloud labels no edge label matched trigger *fresh* initial+final
//! sections (the "second pattern" of §2.1).

use croesus_detect::{match_detections, Detection, MatchOutcome};

/// How one edge label fared against the cloud labels.
#[derive(Clone, Debug, PartialEq)]
pub enum LabelVerdict {
    /// Case 2: the edge label was right.
    Correct,
    /// Case 3: an object was there, but the name was wrong.
    Corrected(Detection),
    /// Case 1: nothing was there.
    Erroneous,
}

/// The input handed to a final section: what the initial section believed,
/// and what the cloud says (§3.2: "it is anticipated for the final section
/// to observe what the input labels were to the initial section ... and
/// what the initial section did").
#[derive(Clone, Debug)]
pub struct FinalInput {
    /// The edge label that triggered the transaction, if any (fresh
    /// transactions triggered by unmatched cloud labels have none).
    pub edge_label: Option<Detection>,
    /// The verdict for the edge label.
    pub verdict: LabelVerdict,
}

impl FinalInput {
    /// Input for a transaction whose edge label was confirmed.
    pub fn correct(edge: Detection) -> Self {
        FinalInput {
            edge_label: Some(edge),
            verdict: LabelVerdict::Correct,
        }
    }

    /// Input for a transaction kept at the edge without cloud validation —
    /// the keep interval assumes correctness.
    pub fn assumed_correct(edge: Detection) -> Self {
        FinalInput::correct(edge)
    }
}

/// The outcome of matching one frame's edge labels against cloud labels.
#[derive(Clone, Debug)]
pub struct FrameMatch {
    /// Per edge label (parallel to the input), the final-section input.
    pub inputs: Vec<FinalInput>,
    /// Cloud labels with no edge counterpart: each triggers a fresh
    /// initial+final pair.
    pub missed: Vec<Detection>,
}

impl FrameMatch {
    /// Counts of (correct, corrected, erroneous) edge labels.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for i in &self.inputs {
            match i.verdict {
                LabelVerdict::Correct => c.0 += 1,
                LabelVerdict::Corrected(_) => c.1 += 1,
                LabelVerdict::Erroneous => c.2 += 1,
            }
        }
        c
    }
}

/// Match a frame's surviving edge labels against the cloud labels using
/// the configured overlap threshold (X% in the paper, 10% by default).
pub fn match_edge_to_cloud(
    edge_labels: &[Detection],
    cloud_labels: &[Detection],
    overlap_threshold: f64,
) -> FrameMatch {
    let m = match_detections(edge_labels, cloud_labels, overlap_threshold);
    let inputs = edge_labels
        .iter()
        .zip(&m.outcomes)
        .map(|(edge, outcome)| match outcome {
            MatchOutcome::Correct { .. } => FinalInput {
                edge_label: Some(edge.clone()),
                verdict: LabelVerdict::Correct,
            },
            MatchOutcome::Corrected { reference } => FinalInput {
                edge_label: Some(edge.clone()),
                verdict: LabelVerdict::Corrected(cloud_labels[*reference].clone()),
            },
            MatchOutcome::Erroneous => FinalInput {
                edge_label: Some(edge.clone()),
                verdict: LabelVerdict::Erroneous,
            },
        })
        .collect();
    let missed = m
        .unmatched_references
        .iter()
        .map(|&ri| cloud_labels[ri].clone())
        .collect();
    FrameMatch { inputs, missed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_video::BoundingBox;

    fn det(class: &str, conf: f64, x: f64) -> Detection {
        Detection::new(class.into(), conf, BoundingBox::new(x, 0.4, 0.2, 0.2))
    }

    #[test]
    fn all_three_cases_plus_missed() {
        let edge = vec![
            det("car", 0.8, 0.0), // matches cloud car at 0.02 → correct
            det("bus", 0.6, 0.3), // matches cloud car at 0.32 → corrected
            det("car", 0.5, 0.7), // no cloud counterpart → erroneous
        ];
        let cloud = vec![
            det("car", 0.95, 0.02),
            det("car", 0.9, 0.32),
            // No edge counterpart: placed in a different frame region.
            Detection::new("person".into(), 0.9, BoundingBox::new(0.55, 0.0, 0.2, 0.2)),
        ];
        let m = match_edge_to_cloud(&edge, &cloud, 0.10);
        assert_eq!(m.counts(), (1, 1, 1));
        assert_eq!(m.inputs[0].verdict, LabelVerdict::Correct);
        match &m.inputs[1].verdict {
            LabelVerdict::Corrected(c) => assert_eq!(c.class, "car".into()),
            other => panic!("expected corrected, got {other:?}"),
        }
        assert_eq!(m.inputs[2].verdict, LabelVerdict::Erroneous);
        // The person cloud label was never matched → fresh transaction.
        assert_eq!(m.missed.len(), 1);
        assert_eq!(m.missed[0].class, "person".into());
    }

    #[test]
    fn empty_edge_set_reports_all_cloud_as_missed() {
        let cloud = vec![det("car", 0.9, 0.1), det("dog", 0.8, 0.6)];
        let m = match_edge_to_cloud(&[], &cloud, 0.10);
        assert!(m.inputs.is_empty());
        assert_eq!(m.missed.len(), 2);
    }

    #[test]
    fn empty_cloud_set_marks_all_edge_erroneous() {
        let edge = vec![det("car", 0.9, 0.1)];
        let m = match_edge_to_cloud(&edge, &[], 0.10);
        assert_eq!(m.counts(), (0, 0, 1));
        assert!(m.missed.is_empty());
    }
}
