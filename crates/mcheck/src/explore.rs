//! Schedule-space exploration: exhaustive DFS with state-hash pruning,
//! falling back to seeded random sampling when the space is too large.

use std::collections::HashSet;
use std::sync::Arc;

use croesus_sim::DetRng;

use crate::scheduler::{advance, run_schedule, Mode, RunEnd, SchedStats, TaskFn, Trace};

/// What to explore and how hard.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// DFS budget: stop enumerating (and fall back to sampling) after this
    /// many schedules.
    pub max_schedules: usize,
    /// Sampled schedules to run when the DFS did not exhaust the space.
    pub samples: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_schedules: 50_000,
            samples: 500,
        }
    }
}

/// An invariant violation with the schedule that produced it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Replay this trace through [`replay`] to reproduce the violation.
    pub trace: Trace,
    /// What went wrong.
    pub message: String,
}

/// The outcome of exploring one scenario.
#[derive(Debug, Default)]
pub struct Report {
    /// Scenario name.
    pub name: String,
    /// Schedules actually run (DFS + sampled).
    pub schedules: u64,
    /// Whether the DFS enumerated the whole space within budget.
    pub exhaustive: bool,
    /// Decision-point counters.
    pub stats: SchedStats,
    /// Schedules that ran every task to completion.
    pub completes: u64,
    /// Schedules that deadlocked.
    pub deadlocks: u64,
    /// Schedules that panicked inside the system under test.
    pub panics: u64,
    /// The invariant violation found, if any (the first one stops the
    /// search), with its replayable trace.
    pub violations: Vec<Violation>,
}

/// A model-checking scenario: builds a fresh world per schedule, describes
/// the tasks that race over it, fingerprints it for pruning, and checks
/// the invariants once the schedule ends.
pub trait Scenario {
    /// The shared state the tasks race over.
    type World: Send + Sync + 'static;

    /// Scenario name (for reports).
    fn name(&self) -> String;

    /// A fresh world. Called once per schedule — state never leaks between
    /// schedules, which is what makes decision-list replay sound.
    fn build(&self) -> Arc<Self::World>;

    /// The racing tasks, each capturing its own `Arc` of the world.
    fn tasks(&self, world: &Arc<Self::World>) -> Vec<TaskFn>;

    /// Hash of everything that determines future behaviour (store
    /// contents, log bytes, history). Task positions are hashed by the
    /// scheduler itself.
    fn fingerprint(&self, world: &Self::World) -> u64;

    /// Check invariants after the schedule ended. `Err` is a violation.
    fn check(&self, world: &Self::World, end: &RunEnd) -> Result<(), String>;
}

fn run_one<S: Scenario>(
    scenario: &S,
    decisions: &mut Vec<crate::scheduler::Decision>,
    mode: Mode<'_>,
    report: &mut Report,
) -> (Arc<S::World>, RunEnd) {
    let world = scenario.build();
    let tasks = scenario.tasks(&world);
    let fp_world = Arc::clone(&world);
    let end = {
        let mut fingerprint = || scenario.fingerprint(&fp_world);
        run_schedule(tasks, decisions, mode, &mut fingerprint, &mut report.stats)
    };
    report.schedules += 1;
    match &end {
        RunEnd::Complete => report.completes += 1,
        RunEnd::Deadlock { .. } => report.deadlocks += 1,
        RunEnd::Panic { .. } => report.panics += 1,
    }
    (world, end)
}

/// Seed for the sampling RNG (each sample forks its own stream).
const SEED: u64 = 0xC805_B10C;

/// Explore a scenario: exhaustive DFS with state-hash pruning first, seeded
/// sampling if the DFS budget runs out. Stops at the first violation.
pub fn explore<S: Scenario>(scenario: &S, config: &Config) -> Report {
    let mut report = Report {
        name: scenario.name(),
        ..Report::default()
    };
    let mut seen: HashSet<u64> = HashSet::new();
    let mut decisions = Vec::new();

    loop {
        if report.schedules as usize >= config.max_schedules {
            break;
        }
        let (world, end) = run_one(
            scenario,
            &mut decisions,
            Mode::Dfs {
                seen: &mut seen,
                prune: true,
            },
            &mut report,
        );
        if let Err(message) = scenario.check(&world, &end) {
            report.violations.push(Violation {
                trace: Trace {
                    seed: None,
                    decisions: decisions.clone(),
                },
                message,
            });
            return report;
        }
        if !advance(&mut decisions) {
            report.exhaustive = true;
            break;
        }
    }

    if !report.exhaustive {
        // The space was too large to enumerate: sample seeded random
        // schedules instead. Each sample forks its own RNG stream so a
        // violating sample is replayable from (seed, stream) alone.
        let base = DetRng::new(SEED);
        for stream in 0..config.samples as u64 {
            let mut rng = base.fork(stream);
            let mut decisions = Vec::new();
            let (world, end) = run_one(
                scenario,
                &mut decisions,
                Mode::Sample { rng: &mut rng },
                &mut report,
            );
            if let Err(message) = scenario.check(&world, &end) {
                report.violations.push(Violation {
                    trace: Trace {
                        seed: Some(SEED),
                        decisions,
                    },
                    message,
                });
                break;
            }
        }
    }

    report
}

/// Replay a recorded trace against a fresh world; returns the run end and
/// the invariant check result. The decision list alone pins the execution.
pub fn replay<S: Scenario>(scenario: &S, trace: &Trace) -> (RunEnd, Result<(), String>) {
    let mut report = Report::default();
    let mut decisions = trace.decisions.clone();
    let (world, end) = run_one(scenario, &mut decisions, Mode::Replay, &mut report);
    let check = scenario.check(&world, &end);
    (end, check)
}
