//! The transactions bank (§3.3.2, "Initialization and Setup").
//!
//! "The transaction bank is a data structure that maintains the application
//! transactions and what triggers each transaction. ... it maintains a
//! table, where each row corresponds to a class of labels and the
//! transactions that would be triggered from that class of labels." A row
//! may also require an auxiliary-device input (the study-room reservation
//! is triggered by a click *and* a building label).

use std::sync::Arc;

use croesus_detect::Detection;
use croesus_sim::DetRng;
use croesus_txn::{RwSet, SectionCtx, SectionOutput, TxnError};
use croesus_video::LabelClass;

use crate::matching::FinalInput;

/// An initial-section body.
pub type InitialBody = Box<dyn FnOnce(&mut SectionCtx) -> Result<SectionOutput, TxnError> + Send>;

/// A final-section body, fed the [`FinalInput`] produced by label matching.
pub type FinalSectionBody =
    Box<dyn FnOnce(&mut SectionCtx, &FinalInput) -> Result<SectionOutput, TxnError> + Send>;

/// A concrete transaction ready to run: declared read/write sets plus the
/// two section bodies. The final section receives the [`FinalInput`]
/// produced by label matching.
pub struct TxnInstance {
    /// Initial section's declared read/write set.
    pub initial_rw: RwSet,
    /// Final section's (potential) read/write set.
    pub final_rw: RwSet,
    /// The initial section body.
    pub initial: InitialBody,
    /// The final section body.
    pub final_section: FinalSectionBody,
}

/// A transaction template: stamps out [`TxnInstance`]s for triggers.
pub trait TxnTemplate: Send + Sync {
    /// Template name.
    fn name(&self) -> &str;

    /// Create an instance for a triggering detection.
    fn instantiate(&self, trigger: &Detection, rng: &mut DetRng) -> TxnInstance;
}

/// One row of the bank: a class group, the label classes belonging to it,
/// an optional auxiliary-input requirement, and the template to trigger.
pub struct TriggerRule {
    /// Row name, e.g. "Buildings".
    pub class_group: String,
    /// Label classes in this group. Empty means "any label" (for rules
    /// triggered purely by auxiliary input).
    pub classes: Vec<LabelClass>,
    /// Auxiliary input kind required in addition to (or instead of) a
    /// label, e.g. `"click"`.
    pub requires_aux: Option<String>,
    /// The transaction template this rule triggers.
    pub template: Arc<dyn TxnTemplate>,
}

impl TriggerRule {
    /// Whether `class` belongs to this rule's group.
    pub fn matches_class(&self, class: &LabelClass) -> bool {
        self.classes.is_empty() || self.classes.contains(class)
    }
}

/// The transactions bank.
#[derive(Default)]
pub struct TransactionsBank {
    rules: Vec<TriggerRule>,
}

impl TransactionsBank {
    /// An empty bank.
    pub fn new() -> Self {
        TransactionsBank::default()
    }

    /// Register a rule; builder style.
    pub fn with_rule(mut self, rule: TriggerRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Register a rule.
    pub fn register(&mut self, rule: TriggerRule) {
        self.rules.push(rule);
    }

    /// All rules.
    pub fn rules(&self) -> &[TriggerRule] {
        &self.rules
    }

    /// Rules triggered by a detected label alone (no auxiliary input).
    pub fn triggered_by_label(&self, detection: &Detection) -> Vec<&TriggerRule> {
        self.rules
            .iter()
            .filter(|r| r.requires_aux.is_none() && r.matches_class(&detection.class))
            .collect()
    }

    /// Rules triggered by an auxiliary input of `kind`, paired with the
    /// matching label among the most recent detections (the input
    /// processing component "matches a received auxiliary input with the
    /// labels from the most recently detected labels"). Rules with an
    /// empty class list trigger without a label.
    pub fn triggered_by_aux<'a>(
        &'a self,
        kind: &str,
        recent: &'a [Detection],
    ) -> Vec<(&'a TriggerRule, Option<&'a Detection>)> {
        self.rules
            .iter()
            .filter(|r| r.requires_aux.as_deref() == Some(kind))
            .filter_map(|r| {
                if r.classes.is_empty() {
                    Some((r, None))
                } else {
                    // Pick the matching label closest to the frame centre
                    // (the paper's Task-2 tie-break).
                    recent
                        .iter()
                        .filter(|d| r.matches_class(&d.class))
                        .min_by(|a, b| {
                            a.bbox
                                .distance_to_frame_center()
                                .partial_cmp(&b.bbox.distance_to_frame_center())
                                .expect("distances are never NaN")
                        })
                        .map(|d| (r, Some(d)))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_video::BoundingBox;

    struct Noop;
    impl TxnTemplate for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn instantiate(&self, _trigger: &Detection, _rng: &mut DetRng) -> TxnInstance {
            TxnInstance {
                initial_rw: RwSet::new(),
                final_rw: RwSet::new(),
                initial: Box::new(|_| Ok(SectionOutput::new())),
                final_section: Box::new(|_, _| Ok(SectionOutput::new())),
            }
        }
    }

    fn det(class: &str, x: f64) -> Detection {
        Detection::new(class.into(), 0.9, BoundingBox::new(x, 0.4, 0.2, 0.2))
    }

    fn bank() -> TransactionsBank {
        TransactionsBank::new()
            .with_rule(TriggerRule {
                class_group: "Buildings".into(),
                classes: vec!["building".into()],
                requires_aux: None,
                template: Arc::new(Noop),
            })
            .with_rule(TriggerRule {
                class_group: "Reservation".into(),
                classes: vec!["building".into()],
                requires_aux: Some("click".into()),
                template: Arc::new(Noop),
            })
            .with_rule(TriggerRule {
                class_group: "Menu".into(),
                classes: vec![],
                requires_aux: Some("menu".into()),
                template: Arc::new(Noop),
            })
    }

    #[test]
    fn label_triggers_matching_rule_only() {
        let b = bank();
        let hits = b.triggered_by_label(&det("building", 0.4));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].class_group, "Buildings");
        assert!(b.triggered_by_label(&det("shuttle", 0.4)).is_empty());
    }

    #[test]
    fn aux_rule_needs_matching_recent_label() {
        let b = bank();
        let recent = vec![det("building", 0.1)];
        let hits = b.triggered_by_aux("click", &recent);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].1.is_some());
        // No recent building → reservation does not fire.
        let recent = [det("dog", 0.1)];
        assert!(b.triggered_by_aux("click", &recent).is_empty());
    }

    #[test]
    fn aux_picks_label_closest_to_center() {
        let b = bank();
        let recent = vec![det("building", 0.0), det("building", 0.4)];
        let hits = b.triggered_by_aux("click", &recent);
        let picked = hits[0].1.unwrap();
        assert_eq!(picked.bbox.x, 0.4, "the centred label wins");
    }

    #[test]
    fn classless_aux_rule_fires_without_labels() {
        let b = bank();
        let hits = b.triggered_by_aux("menu", &[]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].1.is_none());
    }

    #[test]
    fn unknown_aux_kind_matches_nothing() {
        let b = bank();
        assert!(b
            .triggered_by_aux("shake", &[det("building", 0.1)])
            .is_empty());
    }

    #[test]
    fn instantiated_template_runs() {
        let b = bank();
        let mut rng = DetRng::new(1);
        let inst = b.rules()[0]
            .template
            .instantiate(&det("building", 0.4), &mut rng);
        assert_eq!(inst.initial_rw, RwSet::new());
        assert_eq!(inst.final_rw, RwSet::new());
    }
}
