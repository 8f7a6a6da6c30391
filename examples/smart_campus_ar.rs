//! The paper's running example (§2.1): a smart-campus AR application.
//!
//! Task 1 — whenever the headset detects a *building*, read its info from
//! the edge database and render it. Task 2 — when the user clicks the
//! auxiliary device, reserve a study room in the currently-detected
//! building. The edge model sometimes detects the *wrong* building; the
//! final section then fixes the rendered info, moves the reservation, and
//! apologizes.
//!
//! ```sh
//! cargo run --release --example smart_campus_ar
//! ```

use std::sync::Arc;

use croesus::core::{
    match_edge_to_cloud, FinalInput, LabelVerdict, TransactionsBank, TriggerRule, TxnInstance,
    TxnTemplate,
};
use croesus::detect::Detection;
use croesus::sim::DetRng;
use croesus::store::{KvStore, LockManager, LockPolicy, TxnId, Value};
use croesus::txn::{ExecutorCore, ProtocolKind, RwSet, SectionOutput};
use croesus::video::BoundingBox;

/// Task 1: display information about a detected building.
struct DisplayBuildingInfo;

impl TxnTemplate for DisplayBuildingInfo {
    fn name(&self) -> &str {
        "display-building-info"
    }

    fn instantiate(&self, trigger: &Detection, _rng: &mut DetRng) -> TxnInstance {
        let guessed = format!("info/{}", trigger.class);
        let initial_rw = RwSet::new().read(guessed.as_str());
        // The final section may need to read *any* building's info (the
        // corrected label is unknown until the cloud responds), and writes
        // the rendered-state key.
        let final_rw = RwSet::new()
            .read("info/engineering")
            .read("info/library")
            .write("render/building-info");
        let guessed_initial = guessed.clone();
        TxnInstance {
            initial_rw,
            final_rw,
            initial: Box::new(move |ctx| {
                let info = ctx.read(guessed_initial.as_str())?;
                Ok(SectionOutput {
                    response: info.into_iter().collect(),
                })
            }),
            final_section: Box::new(move |ctx, input: &FinalInput| {
                match &input.verdict {
                    LabelVerdict::Correct => {} // rendered info was right
                    LabelVerdict::Corrected(correct) => {
                        let right = ctx.read(format!("info/{}", correct.class).as_str())?;
                        ctx.write(
                            "render/building-info",
                            format!(
                                "APOLOGY: showing {} ({})",
                                correct.class,
                                right
                                    .and_then(|v| v.as_str().map(String::from))
                                    .unwrap_or_default()
                            ),
                        )?;
                    }
                    LabelVerdict::Erroneous => {
                        ctx.write("render/building-info", "APOLOGY: no building here")?;
                    }
                }
                Ok(SectionOutput::new())
            }),
        }
    }
}

/// Task 2: reserve a study room in the centre-most detected building.
struct ReserveStudyRoom;

impl TxnTemplate for ReserveStudyRoom {
    fn name(&self) -> &str {
        "reserve-study-room"
    }

    fn instantiate(&self, trigger: &Detection, _rng: &mut DetRng) -> TxnInstance {
        let guessed = trigger.class.name().to_string();
        let rooms_all = ["rooms/engineering", "rooms/library"];
        let initial_rw = RwSet::new()
            .read(format!("rooms/{guessed}").as_str())
            .write(format!("rooms/{guessed}").as_str());
        let mut final_rw = RwSet::new().write("render/reservation");
        for r in rooms_all {
            final_rw = final_rw.read(r).write(r);
        }
        let g1 = guessed.clone();
        let g2 = guessed;
        TxnInstance {
            initial_rw,
            final_rw,
            initial: Box::new(move |ctx| {
                let key = format!("rooms/{g1}");
                let free = ctx
                    .read(key.as_str())?
                    .and_then(|v| v.as_int())
                    .unwrap_or(0);
                if free > 0 {
                    ctx.write(key.as_str(), free - 1)?;
                    Ok(SectionOutput::respond(format!("reserved in {g1}")))
                } else {
                    Ok(SectionOutput::respond("no rooms available"))
                }
            }),
            final_section: Box::new(move |ctx, input: &FinalInput| {
                if let LabelVerdict::Corrected(correct) = &input.verdict {
                    // Undo the wrong reservation, book the right building.
                    let wrong = format!("rooms/{g2}");
                    let w = ctx
                        .read(wrong.as_str())?
                        .and_then(|v| v.as_int())
                        .unwrap_or(0);
                    ctx.write(wrong.as_str(), w + 1)?;
                    let right = format!("rooms/{}", correct.class);
                    let r = ctx
                        .read(right.as_str())?
                        .and_then(|v| v.as_int())
                        .unwrap_or(0);
                    if r > 0 {
                        ctx.write(right.as_str(), r - 1)?;
                        ctx.write(
                            "render/reservation",
                            format!("APOLOGY: moved your reservation to {}", correct.class),
                        )?;
                    } else {
                        ctx.write(
                            "render/reservation",
                            format!(
                                "APOLOGY: {} has no rooms; reservation cancelled",
                                correct.class
                            ),
                        )?;
                    }
                }
                Ok(SectionOutput::new())
            }),
        }
    }
}

fn det(class: &str, conf: f64) -> Detection {
    Detection::new(
        class.into(),
        conf,
        BoundingBox::centered(0.5, 0.5, 0.3, 0.3),
    )
}

fn main() {
    // The edge database: building info and study-room counts.
    let store = Arc::new(KvStore::new());
    store.put(
        "info/engineering".into(),
        Value::from("3 study rooms, open late"),
    );
    store.put(
        "info/library".into(),
        Value::from("12 study rooms, quiet floors"),
    );
    store.put("rooms/engineering".into(), Value::Int(1));
    store.put("rooms/library".into(), Value::Int(5));

    let executor = ProtocolKind::MsIa.build(ExecutorCore::new(
        store,
        Arc::new(LockManager::new(LockPolicy::Block)),
    ));
    let bank = TransactionsBank::new()
        .with_rule(TriggerRule {
            class_group: "Buildings".into(),
            classes: vec!["engineering".into(), "library".into()],
            requires_aux: None,
            template: Arc::new(DisplayBuildingInfo),
        })
        .with_rule(TriggerRule {
            class_group: "Reservation".into(),
            classes: vec!["engineering".into(), "library".into()],
            requires_aux: Some("click".into()),
            template: Arc::new(ReserveStudyRoom),
        });
    let mut rng = DetRng::new(7);

    // Frame 1: the edge model says "engineering" (it is actually the
    // library — the cloud will correct it). The user also clicks.
    let edge_label = det("engineering", 0.55);
    println!(
        "edge detected: {} (confidence {:.2})",
        edge_label.class, edge_label.confidence
    );

    let mut pendings = Vec::new();
    let run_initial = |name: &str, inst: croesus::core::TxnInstance, pendings: &mut Vec<_>| {
        let handle = executor.begin(
            TxnId(pendings.len() as u64),
            &[inst.initial_rw.clone(), inst.final_rw.clone()],
        );
        let initial = inst.initial;
        let (out, pending) = executor
            .stage(handle, &inst.initial_rw, |ctx| initial(ctx.section_mut()))
            .expect("initial section commits");
        println!("  [initial commit] {name} → {:?}", out.response);
        pendings.push((
            pending.expect("two stages declared"),
            inst.final_rw,
            inst.final_section,
        ));
    };
    for rule in bank.triggered_by_label(&edge_label) {
        let inst = rule.template.instantiate(&edge_label, &mut rng);
        run_initial(rule.template.name(), inst, &mut pendings);
    }
    let recent = [edge_label.clone()];
    for (rule, label) in bank.triggered_by_aux("click", &recent) {
        let label = label.expect("reservation needs a building label");
        let inst = rule.template.instantiate(label, &mut rng);
        run_initial(rule.template.name(), inst, &mut pendings);
    }

    // The cloud's verdict arrives ~1.2 s later: it was the library. The
    // label is matched once; every transaction it triggered receives the
    // same verdict.
    let cloud_labels = vec![det("library", 0.97)];
    println!("\ncloud says: {}", cloud_labels[0].class);
    let matched = match_edge_to_cloud(&[edge_label], &cloud_labels, 0.10);
    let verdict = matched.inputs[0].clone();

    for (pending, final_rw, body) in pendings {
        let input = verdict.clone();
        executor
            .stage(pending, &final_rw, move |ctx| {
                body(ctx.section_mut(), &input)
            })
            .expect("final sections cannot abort");
    }

    let store = executor.store();
    println!("\nfinal state:");
    for key in [
        "render/building-info",
        "render/reservation",
        "rooms/engineering",
        "rooms/library",
    ] {
        println!("  {key} = {:?}", store.get(&key.into()));
    }
    assert_eq!(
        store.get(&"rooms/engineering".into()).as_deref(),
        Some(&Value::Int(1)),
        "the wrong reservation was returned"
    );
    assert_eq!(
        store.get(&"rooms/library".into()).as_deref(),
        Some(&Value::Int(4)),
        "the corrected reservation landed in the library"
    );
    println!("\nthe guess was wrong, the final stage fixed it, and the user got an apology.");
}
