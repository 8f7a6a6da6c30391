//! The multi-player AR token game of §4.4 — guesses, apologies, cascading
//! retraction, and the invariant-preserving merge that retains unaffected
//! state.
//!
//! Players: A (50 tokens), B (10), C (0), D (0). Three transfers execute
//! optimistically on edge detections: t1: A→B 50, t2: B→C 10, t3: B→C 50.
//! The cloud later reveals t1's recipient was actually **D**. A naive
//! cascade would retract t2 and t3 too; the §4.4 merge keeps t2 (B really
//! did have 10 tokens of its own) and retracts only t3.
//!
//! ```sh
//! cargo run --release --example token_game
//! ```

use std::sync::Arc;

use croesus::store::{Key, KvStore, LockManager, LockPolicy, TxnId, Value};
use croesus::txn::{ExecutorCore, Invariant, NonNegativeInvariant, ProtocolKind, RwSet};

fn balance(store: &KvStore, player: &str) -> i64 {
    store
        .get(&player.into())
        .and_then(|v| v.as_int())
        .unwrap_or(0)
}

fn print_balances(store: &KvStore, when: &str) {
    println!(
        "{when}: A={} B={} C={} D={}",
        balance(store, "A"),
        balance(store, "B"),
        balance(store, "C"),
        balance(store, "D")
    );
}

fn main() {
    let store = Arc::new(KvStore::new());
    for (p, v) in [("A", 50i64), ("B", 10), ("C", 0), ("D", 0)] {
        store.put(p.into(), Value::Int(v));
    }
    let executor = ProtocolKind::MsIa.build(ExecutorCore::new(
        Arc::clone(&store),
        Arc::new(LockManager::new(LockPolicy::Block)),
    ));
    print_balances(&store, "start");

    // transfer(from, to, amount): the initial section is the guess. Under
    // MS-IA the declared final rw-set is advisory — the final stage locks
    // whatever it actually needs when the cloud verdict arrives.
    let transfer = |id: u64, from: &'static str, to: &'static str, amount: i64| {
        let rw = RwSet::new().read(from).write(from).read(to).write(to);
        let handle = executor.begin(TxnId(id), &[rw.clone(), RwSet::new()]);
        let (_, next) = executor
            .stage(handle, &rw, move |ctx| {
                let f = ctx.read(from)?.and_then(|v| v.as_int()).unwrap_or(0);
                let t = ctx.read(to)?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write(from, f - amount)?;
                ctx.write(to, t + amount)?;
                Ok(())
            })
            .expect("initial commits");
        next.expect("two stages declared")
    };

    let p1 = transfer(1, "A", "B", 50);
    let p2 = transfer(2, "B", "C", 10);
    let p3 = transfer(3, "B", "C", 50);
    print_balances(&store, "after guesses (t1: A→B 50, t2: B→C 10, t3: B→C 50)");

    // t2 and t3's cloud inputs were correct: their final sections terminate.
    executor.stage(p2, &RwSet::new(), |_| Ok(())).unwrap();
    executor.stage(p3, &RwSet::new(), |_| Ok(())).unwrap();

    // t1's final section learns the recipient was D, not B. A full cascade
    // would drag t2 and t3 down with it; the invariant-confluent merge
    // reconciles instead: move the 50 tokens to D, keep t2 (B's own 10
    // tokens legitimately went to C), and retract only what B could not
    // have sent — the 50 tokens of t3.
    let rw = RwSet::new()
        .read("A")
        .write("A")
        .read("B")
        .write("B")
        .read("C")
        .write("C")
        .read("D")
        .write("D");
    let store_for_check = Arc::clone(&store);
    executor
        .stage(p1, &rw, move |ctx| {
            // 1. Redirect the transfer: B's windfall goes to D instead.
            let b = ctx.read("B")?.and_then(|v| v.as_int()).unwrap_or(0);
            let d = ctx.read("D")?.and_then(|v| v.as_int()).unwrap_or(0);
            ctx.write("B", b - 50)?;
            ctx.write("D", d + 50)?;
            // 2. Check the invariant: no player below zero.
            let inv = NonNegativeInvariant::over(
                ["A".into(), "B".into(), "C".into(), "D".into()] as [Key; 4]
            );
            if let Err(violation) = inv.check(&store_for_check) {
                println!("invariant violated after redirect: {violation}");
                // 3. Merge: B is at -50 because t3 spent tokens B never
                //    truly had. Retract t3's effect (C gives back 50,
                //    B returns to 0) and apologize; t2's 10 tokens stand.
                let b = ctx.read("B")?.and_then(|v| v.as_int()).unwrap_or(0);
                let c = ctx.read("C")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("B", b + 50)?;
                ctx.write("C", c - 50)?;
                println!(
                    "apology: t3's 50-token transfer B→C was retracted \
                     (B and C receive a free game item)"
                );
            }
            Ok(())
        })
        .unwrap();

    print_balances(&store, "after t1's final section (correct recipient: D)");

    // The invariant now holds and the merge retained t2.
    let inv =
        NonNegativeInvariant::over(["A".into(), "B".into(), "C".into(), "D".into()] as [Key; 4]);
    inv.check(&store).expect("merge restored the invariant");
    assert_eq!(balance(&store, "A"), 0);
    assert_eq!(balance(&store, "B"), 0);
    assert_eq!(
        balance(&store, "C"),
        10,
        "t2's legitimate transfer survived the merge"
    );
    assert_eq!(
        balance(&store, "D"),
        50,
        "the rightful recipient got the tokens"
    );
    println!("\nmerge retained t2, retracted only t3 — minimal retraction, invariants restored.");
}
