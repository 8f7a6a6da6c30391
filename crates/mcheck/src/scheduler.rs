//! The deterministic scheduler: virtual tasks on real threads, lockstep
//! turn handoff.
//!
//! Each virtual task runs on its own OS thread, but at most one task
//! executes at a time: every instrumented point
//! ([`croesus_store::sched::yield_point`] and friends) parks the task and
//! hands the turn back to the driver, which picks the next task to run.
//! The sequence of picks — one [`Decision`] per point where more than one
//! task was ready — fully determines the execution, so a schedule is a
//! plain decision list that can be replayed, minimized, or enumerated.
//!
//! Threads are freshly spawned per schedule and the world is rebuilt from
//! scratch, so replaying a decision prefix is stateless: same scenario +
//! same decisions ⇒ same execution (asserted at replay time).

use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::thread;

use croesus_sim::DetRng;
use croesus_store::sched::{self, SchedHook};

/// A task body: runs to completion under the scheduler's control.
pub(crate) type TaskFn = Box<dyn FnOnce() + Send + 'static>;

/// One scheduling choice: at a point where `arity` continuations were
/// considered branch-worthy, continuation `chosen` was taken. (`arity` is
/// 1 at pruned or forced points — the DFS will not branch there.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Index into the ready-task list at this point.
    pub chosen: usize,
    /// How many alternatives the DFS may still try here.
    pub arity: usize,
}

/// A replayable schedule: the sampling seed that produced it (if any) and
/// the exact decision list. `Display` prints the compact
/// `seed=…/decisions=[…]` form quoted in violation reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Seed of the sampling RNG, `None` for DFS-discovered schedules.
    pub seed: Option<u64>,
    /// The decision list, in schedule order.
    pub decisions: Vec<Decision>,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.seed {
            Some(s) => write!(f, "seed={s:#x} ")?,
            None => write!(f, "dfs ")?,
        }
        write!(f, "decisions=[")?;
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}/{}", d.chosen, d.arity)?;
        }
        write!(f, "]")
    }
}

/// How one schedule ended.
#[derive(Clone, Debug)]
pub enum RunEnd {
    /// Every task ran to completion.
    Complete,
    /// No task could make progress: each live task sat at a block point.
    Deadlock {
        /// `task index @ label` for every blocked task.
        blocked: Vec<String>,
    },
    /// A task panicked (an assertion inside the system under test).
    Panic {
        /// The panic payload, stringified.
        message: String,
    },
}

/// Counters accumulated across schedules.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Points where more than one task was ready (branching opportunities).
    pub decision_points: u64,
    /// Branching points collapsed because the state hash was already seen.
    pub pruned_points: u64,
}

/// How the driver picks at decision points beyond the replayed prefix.
pub(crate) enum Mode<'a> {
    /// Depth-first enumeration: first choice at new points, consulting the
    /// seen-state set to avoid re-branching on converged states.
    Dfs {
        /// State hashes already expanded (shared across the whole search).
        seen: &'a mut HashSet<u64>,
        /// Whether to collapse converged states at all.
        prune: bool,
    },
    /// Uniform random choice at every point (seeded, replayable).
    Sample {
        /// The schedule's private RNG stream.
        rng: &'a mut DetRng,
    },
    /// Follow the decision list exactly (counterexample replay).
    Replay,
}

const DRIVER: usize = usize::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Ready,
    Running,
    Blocked,
    Done,
}

struct State {
    /// Whose turn it is: `DRIVER` or a task index.
    turn: usize,
    status: Vec<Status>,
    /// Last label each task stopped at (for deadlock reports).
    labels: Vec<&'static str>,
    /// Instrumented points each task has passed — its virtual program
    /// counter, part of the pruning hash.
    yields: Vec<u32>,
    /// Set when the driver abandons the run; parked tasks unwind.
    aborting: bool,
    /// First real task panic, if any.
    panic: Option<String>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Sentinel panic payload used to unwind tasks parked at a scheduling
/// point when the driver abandons the run. Never reported.
struct AbortToken;

/// Tasks unwound on abandonment poison the state mutex; the scheduler's
/// invariants don't depend on it, so recover the guard.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait_state<'a>(shared: &'a Shared, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    shared
        .cv
        .wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Set on task threads so the process-wide panic hook stays silent for
    /// their (expected, captured) panics.
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static PANIC_HOOK: Once = Once::new();

fn install_quiet_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET.with(std::cell::Cell::get) {
                return;
            }
            prev(info);
        }));
    });
}

/// The per-task side of the handoff: installed as the thread's
/// [`SchedHook`], it parks the task at every instrumented point until the
/// driver hands the turn back.
struct TaskHook {
    shared: Arc<Shared>,
    id: usize,
}

impl TaskHook {
    fn hand_to_driver(&self, new_status: Status, label: &'static str) {
        let mut st = lock_state(&self.shared);
        st.status[self.id] = new_status;
        st.labels[self.id] = label;
        st.yields[self.id] += 1;
        st.turn = DRIVER;
        self.shared.cv.notify_all();
        while st.turn != self.id {
            if st.aborting {
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            st = wait_state(&self.shared, st);
        }
        st.status[self.id] = Status::Running;
    }
}

impl SchedHook for TaskHook {
    fn yield_point(&self, label: &'static str) {
        self.hand_to_driver(Status::Ready, label);
    }

    fn block_point(&self, label: &'static str) {
        self.hand_to_driver(Status::Blocked, label);
    }

    fn progress(&self, _label: &'static str) {
        // A resource was released: blocked tasks may be schedulable again.
        // The releasing task keeps running (no turn change).
        let mut st = lock_state(&self.shared);
        for s in st.status.iter_mut() {
            if *s == Status::Blocked {
                *s = Status::Ready;
            }
        }
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn task_main(shared: Arc<Shared>, id: usize, f: TaskFn) {
    install_quiet_panic_hook();
    QUIET.with(|q| q.set(true));
    // Wait for the first turn: even a task's first instruction runs only
    // when the driver picks it.
    {
        let mut st = lock_state(&shared);
        while st.turn != id {
            if st.aborting {
                st.status[id] = Status::Done;
                return;
            }
            st = wait_state(&shared, st);
        }
        st.status[id] = Status::Running;
    }
    sched::install(Arc::new(TaskHook {
        shared: Arc::clone(&shared),
        id,
    }));
    let result = catch_unwind(AssertUnwindSafe(f));
    sched::uninstall();
    let mut st = lock_state(&shared);
    if let Err(payload) = result {
        if !payload.is::<AbortToken>() && st.panic.is_none() {
            st.panic = Some(format!("task {id}: {}", payload_message(payload)));
        }
    }
    st.status[id] = Status::Done;
    st.turn = DRIVER;
    shared.cv.notify_all();
}

/// Run one schedule to its end.
///
/// `decisions` is both input and output: the prefix already present is
/// replayed verbatim (the DFS backtracking contract), and every decision
/// point past it appends a new entry according to `mode`. `fingerprint`
/// hashes the world (store, log bytes, history) for state pruning; it runs
/// with every task parked.
pub(crate) fn run_schedule(
    tasks: Vec<TaskFn>,
    decisions: &mut Vec<Decision>,
    mut mode: Mode<'_>,
    fingerprint: &mut dyn FnMut() -> u64,
    stats: &mut SchedStats,
) -> RunEnd {
    let n = tasks.len();
    assert!(n > 0, "a schedule needs at least one task");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            turn: DRIVER,
            status: vec![Status::Ready; n],
            labels: vec!["start"; n],
            yields: vec![0; n],
            aborting: false,
            panic: None,
        }),
        cv: Condvar::new(),
    });
    let handles: Vec<_> = tasks
        .into_iter()
        .enumerate()
        .map(|(id, f)| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("mcheck-task-{id}"))
                .spawn(move || task_main(shared, id, f))
                .expect("spawn mcheck task thread")
        })
        .collect();

    let mut depth = 0usize;
    let end = loop {
        let mut st = lock_state(&shared);
        while st.turn != DRIVER {
            st = wait_state(&shared, st);
        }
        if let Some(message) = st.panic.take() {
            break RunEnd::Panic { message };
        }
        let ready: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Ready)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            if st.status.iter().all(|s| *s == Status::Done) {
                break RunEnd::Complete;
            }
            let blocked = st
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == Status::Blocked)
                .map(|(i, _)| format!("task {i} @ {}", st.labels[i]))
                .collect();
            break RunEnd::Deadlock { blocked };
        }

        let chosen = if depth < decisions.len() {
            // Replaying a prefix: the execution must be deterministic.
            let d = decisions[depth];
            assert!(
                d.chosen < ready.len(),
                "non-deterministic replay: decision {depth} chose {} of {} ready tasks",
                d.chosen,
                ready.len()
            );
            d.chosen
        } else {
            if ready.len() > 1 {
                stats.decision_points += 1;
            }
            let (chosen, arity) = match &mut mode {
                Mode::Dfs { seen, prune } => {
                    let arity = if ready.len() > 1 && *prune {
                        let mut h = std::collections::hash_map::DefaultHasher::new();
                        use std::hash::{Hash, Hasher};
                        fingerprint().hash(&mut h);
                        for i in 0..n {
                            (st.status[i] as u8, st.labels[i], st.yields[i]).hash(&mut h);
                        }
                        if seen.insert(h.finish()) {
                            ready.len()
                        } else {
                            stats.pruned_points += 1;
                            1
                        }
                    } else {
                        ready.len()
                    };
                    (0, arity)
                }
                Mode::Sample { rng } => (rng.index(ready.len()), ready.len()),
                Mode::Replay => (0, 1),
            };
            decisions.push(Decision { chosen, arity });
            chosen
        };

        st.turn = ready[chosen];
        depth += 1;
        shared.cv.notify_all();
    };

    // Abandon whatever is still parked and reap the threads.
    {
        let mut st = lock_state(&shared);
        st.aborting = true;
        shared.cv.notify_all();
    }
    for h in handles {
        let _ = h.join();
    }
    end
}

/// DFS backtracking: bump the deepest decision that still has an untried
/// alternative and drop everything after it. Returns `false` when the
/// whole space is exhausted.
pub fn advance(decisions: &mut Vec<Decision>) -> bool {
    while let Some(d) = decisions.last_mut() {
        if d.chosen + 1 < d.arity {
            d.chosen += 1;
            return true;
        }
        decisions.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Two tasks, each yielding twice: the DFS must enumerate every
    /// interleaving of their yield points — C(4,2) = 6 schedules.
    #[test]
    fn dfs_enumerates_all_interleavings() {
        let mut decisions = Vec::new();
        let mut seen = HashSet::new();
        let mut stats = SchedStats::default();
        let mut orders = HashSet::new();
        loop {
            let order = Arc::new(Mutex::new(Vec::new()));
            let tasks: Vec<TaskFn> = (0..2u8)
                .map(|t| {
                    let order = Arc::clone(&order);
                    Box::new(move || {
                        for step in 0..2u8 {
                            order.lock().unwrap().push((t, step));
                            croesus_store::sched::yield_point(if t == 0 { "a" } else { "b" });
                        }
                    }) as TaskFn
                })
                .collect();
            let end = run_schedule(
                tasks,
                &mut decisions,
                Mode::Dfs {
                    seen: &mut seen,
                    prune: false,
                },
                &mut || 0,
                &mut stats,
            );
            assert!(matches!(end, RunEnd::Complete));
            orders.insert(order.lock().unwrap().clone());
            if !advance(&mut decisions) {
                break;
            }
        }
        assert_eq!(orders.len(), 6, "C(4,2) interleavings of 2×2 yields");
    }

    /// A replayed decision list reproduces the exact same execution.
    #[test]
    fn replay_is_deterministic() {
        let run = |decisions: &mut Vec<Decision>, mode_seed: Option<u64>| -> Vec<(u8, u8)> {
            let order = Arc::new(Mutex::new(Vec::new()));
            let tasks: Vec<TaskFn> = (0..3u8)
                .map(|t| {
                    let order = Arc::clone(&order);
                    Box::new(move || {
                        for step in 0..2u8 {
                            order.lock().unwrap().push((t, step));
                            croesus_store::sched::yield_point("step");
                        }
                    }) as TaskFn
                })
                .collect();
            let mut stats = SchedStats::default();
            let end = match mode_seed {
                Some(seed) => {
                    let mut rng = DetRng::new(seed);
                    run_schedule(
                        tasks,
                        decisions,
                        Mode::Sample { rng: &mut rng },
                        &mut || 0,
                        &mut stats,
                    )
                }
                None => run_schedule(tasks, decisions, Mode::Replay, &mut || 0, &mut stats),
            };
            assert!(matches!(end, RunEnd::Complete));
            let v = order.lock().unwrap().clone();
            v
        };
        let mut decisions = Vec::new();
        let sampled = run(&mut decisions, Some(0xDECADE));
        let replayed = run(&mut decisions.clone(), None);
        assert_eq!(sampled, replayed);
    }

    /// Two tasks blocked with nobody to wake them is reported as deadlock.
    #[test]
    fn all_blocked_is_a_deadlock() {
        let mut decisions = Vec::new();
        let mut stats = SchedStats::default();
        let tasks: Vec<TaskFn> = (0..2)
            .map(|_| {
                Box::new(|| {
                    croesus_store::sched::block_point("stuck.forever");
                }) as TaskFn
            })
            .collect();
        let end = run_schedule(tasks, &mut decisions, Mode::Replay, &mut || 0, &mut stats);
        match end {
            RunEnd::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked[0].contains("stuck.forever"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// A task panic is captured (not printed) and ends the schedule; the
    /// sibling task parked at a yield point is unwound cleanly.
    #[test]
    fn task_panic_is_captured_and_run_abandoned() {
        let mut decisions = Vec::new();
        let mut stats = SchedStats::default();
        let finished = Arc::new(AtomicUsize::new(0));
        let fin = Arc::clone(&finished);
        let tasks: Vec<TaskFn> = vec![
            Box::new(|| panic!("invariant broken: the model caught it")),
            Box::new(move || {
                croesus_store::sched::yield_point("parked");
                // Unreachable under decision list [0,...]: the panic ends
                // the run while this task is parked.
                fin.fetch_add(1, Ordering::Relaxed);
            }),
        ];
        let end = run_schedule(tasks, &mut decisions, Mode::Replay, &mut || 0, &mut stats);
        match end {
            RunEnd::Panic { message } => {
                assert!(message.contains("invariant broken"), "got: {message}")
            }
            other => panic!("expected panic, got {other:?}"),
        }
    }

    #[test]
    fn advance_walks_the_odometer() {
        let mut d = vec![
            Decision {
                chosen: 0,
                arity: 2,
            },
            Decision {
                chosen: 1,
                arity: 2,
            },
        ];
        assert!(advance(&mut d)); // inner exhausted → bump outer
        assert_eq!(
            d,
            vec![Decision {
                chosen: 1,
                arity: 2
            }]
        );
        assert!(!advance(&mut d), "all alternatives spent");
    }

    #[test]
    fn trace_displays_compactly() {
        let t = Trace {
            seed: Some(0xBEEF),
            decisions: vec![
                Decision {
                    chosen: 1,
                    arity: 3,
                },
                Decision {
                    chosen: 0,
                    arity: 1,
                },
            ],
        };
        assert_eq!(t.to_string(), "seed=0xbeef decisions=[1/3 0/1]");
    }
}
