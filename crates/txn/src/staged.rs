//! The generalized m-stage transaction discipline (§3.5).
//!
//! "In a general multi-stage model, there are m stages s₀, …, s_{m−1}. …
//! A transaction consists of m sections, each one (tᵢ) corresponding to a
//! stage (sᵢ)." Sections run in stage order; each acquires its declared
//! locks, executes, commits, and releases — the MS-IA discipline extended
//! to m sections. If thresholding stops the frame at stage i, "the sequence
//! stops and the remaining transaction sections are performed" — the caller
//! simply runs the remaining stages back-to-back.
//!
//! Stage progression is enforced by the type system: each committed stage
//! returns a [`TxnHandle`](crate::TxnHandle) for the next one inside its
//! [`StageOutcome`](crate::StageOutcome), and handles are not clonable.
//!
//! The schedule is [`ProtocolKind::Staged`](crate::ProtocolKind::Staged)'s
//! arm of [`Executor::run_stage`](crate::Executor::run_stage), MS-IA's with
//! one difference: *every* stage — including the last — registers its
//! footprint with the apology manager, so any stage of a committed
//! transaction remains a retractable guess until the application confirms
//! it.

#[cfg(test)]
mod tests {
    use crate::history::{HistoryRecorder, SectionKind};
    use crate::model::{RwSet, TxnError};
    use crate::protocol::{Executor, ExecutorCore, ProtocolKind};
    use croesus_store::{KvStore, LockManager, LockPolicy, TxnId, Value};
    use std::sync::Arc;

    fn executor() -> Executor {
        ProtocolKind::Staged.build(
            ExecutorCore::new(
                Arc::new(KvStore::new()),
                Arc::new(LockManager::new(LockPolicy::Block)),
            )
            .with_history(HistoryRecorder::new()),
        )
    }

    #[test]
    fn three_stage_transaction_commits_in_order() {
        let ex = executor();
        let rw = RwSet::new().write("x");
        let t = ex.begin(TxnId(1), &[rw.clone(), rw.clone(), rw.clone()]);
        let (_, t) = ex.stage(t, &rw, |ctx| ctx.write("x", 0)).unwrap();
        let (_, t) = ex.stage(t.unwrap(), &rw, |ctx| ctx.write("x", 1)).unwrap();
        let (_, done) = ex.stage(t.unwrap(), &rw, |ctx| ctx.write("x", 2)).unwrap();
        assert!(done.is_none());
        assert_eq!(ex.store().get(&"x".into()).as_deref(), Some(&Value::Int(2)));
        let checker = ex.history().unwrap().checker();
        checker.check_stage_order().unwrap();
        checker.check_ms_ia(&[]).unwrap();
        assert_eq!(ex.stats().snapshot().commits, 1);
    }

    #[test]
    fn handle_kinds_map_to_sections() {
        let ex = executor();
        let empty = [RwSet::new(), RwSet::new(), RwSet::new(), RwSet::new()];
        let t = ex.begin(TxnId(1), &empty);
        assert_eq!(t.section_kind(), SectionKind::Initial);
        assert_eq!(t.stage(), 0);
        assert!(!t.is_final());
        let (_, t) = ex.stage(t, &RwSet::new(), |_| Ok(())).unwrap();
        let t = t.unwrap();
        assert_eq!(t.section_kind(), SectionKind::Intermediate(0));
        let (_, t) = ex.stage(t, &RwSet::new(), |_| Ok(())).unwrap();
        let t = t.unwrap();
        assert_eq!(t.section_kind(), SectionKind::Intermediate(1));
        let (_, t) = ex.stage(t, &RwSet::new(), |_| Ok(())).unwrap();
        let t = t.unwrap();
        assert_eq!(t.section_kind(), SectionKind::Final);
        assert!(t.is_final());
    }

    #[test]
    fn two_stages_behave_like_initial_final() {
        let ex = executor();
        let t = ex.begin(TxnId(9), &[RwSet::new(), RwSet::new()]);
        let (_, t) = ex.stage(t, &RwSet::new(), |_| Ok(())).unwrap();
        let (_, done) = ex.stage(t.unwrap(), &RwSet::new(), |_| Ok(())).unwrap();
        assert!(done.is_none());
        ex.history().unwrap().checker().check_ms_ia(&[]).unwrap();
    }

    #[test]
    fn first_stage_failure_aborts_cleanly() {
        let ex = executor();
        let rw = RwSet::new().write("x");
        let t = ex.begin(TxnId(1), &[rw.clone(), rw.clone(), rw.clone()]);
        let r = ex.stage(t, &rw, |ctx| {
            ctx.write("x", 1)?;
            Err::<(), _>(TxnError::Invariant("bad trigger".into()))
        });
        assert!(r.is_err());
        assert!(!ex.store().contains(&"x".into()));
        assert_eq!(ex.stats().snapshot().aborts, 1);
    }

    #[test]
    fn locks_released_between_stages() {
        let store = Arc::new(KvStore::new());
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let ex =
            ProtocolKind::Staged.build(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
        let rw = RwSet::new().write("x");
        let t = ex.begin(TxnId(1), &[rw.clone(), rw.clone(), rw.clone()]);
        let (_, _t) = ex.stage(t, &rw, |ctx| ctx.write("x", 1)).unwrap();
        // Another transaction can lock x between stages.
        assert!(locks
            .lock(TxnId(2), &"x".into(), croesus_store::LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn intermediate_guesses_are_retractable() {
        let ex = executor();
        let rw = RwSet::new().write("guess");
        let t = ex.begin(TxnId(1), &[rw.clone(), rw.clone(), rw.clone()]);
        let (_, t) = ex.stage(t, &rw, |ctx| ctx.write("guess", 1)).unwrap();
        let _ = t;
        let report = ex
            .apologies()
            .retract(TxnId(1), ex.store(), "stage-0 was wrong");
        assert_eq!(report.retracted.len(), 1);
        assert!(!ex.store().contains(&"guess".into()));
    }

    #[test]
    fn final_stage_footprint_stays_retractable() {
        // The staged discipline registers *every* stage — unlike MS-IA,
        // whose final section is the reconciliation itself.
        let ex = executor();
        let rw = RwSet::new().write("g");
        let t = ex.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let (_, t) = ex.stage(t, &rw, |ctx| ctx.write("g", 1)).unwrap();
        ex.stage(t.unwrap(), &rw, |ctx| ctx.write("g", 2)).unwrap();
        let report = ex.apologies().retract(TxnId(1), ex.store(), "all wrong");
        // Both stages' entries roll back, in reverse commit order.
        assert!(!report.retracted.is_empty());
        assert!(report.retracted.iter().all(|t| *t == TxnId(1)));
        assert!(!ex.store().contains(&"g".into()));
    }

    #[test]
    fn retraction_covers_disjoint_stage_footprints() {
        // Each stage registers its own entry; retracting the transaction
        // must roll back *all* of them even when the footprints share no
        // keys (no cascade path between the entries).
        let ex = executor();
        let s0 = RwSet::new().write("a");
        let s1 = RwSet::new().write("b");
        let t = ex.begin(TxnId(1), &[s0.clone(), s1.clone()]);
        let (_, t) = ex.stage(t, &s0, |ctx| ctx.write("a", 1)).unwrap();
        ex.stage(t.unwrap(), &s1, |ctx| ctx.write("b", 2)).unwrap();
        let report = ex.apologies().retract(TxnId(1), ex.store(), "all wrong");
        assert_eq!(report.retracted.len(), 2, "both stage entries retract");
        assert!(!ex.store().contains(&"a".into()));
        assert!(!ex.store().contains(&"b".into()));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_stage_panics() {
        executor().begin(TxnId(1), &[RwSet::new()]);
    }
}
