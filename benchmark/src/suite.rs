//! The parent process: runs trials one at a time in child processes,
//! checks them against each other, aggregates medians and reports.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::env::{fingerprint, out_dir};
use crate::json::{obj, Json};
use crate::metrics::{self as m, Gate, Metric};
use crate::stats::{summarize, Summary};
use crate::workloads::{find, Workload, WORKLOADS};

/// One finished trial, as the parent sees it.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Correctness failures: the child's own, or why it produced no record.
    pub failures: Vec<String>,
    pub attempted: u64,
    /// Frames in the stream the trial replayed.
    pub frames: u64,
    pub digest: String,
    pub outcome: String,
    pub values: BTreeMap<String, f64>,
}

impl Trial {
    fn broken(why: String) -> Trial {
        Trial {
            failures: vec![why],
            attempted: 1,
            frames: 0,
            digest: String::new(),
            outcome: String::new(),
            values: BTreeMap::new(),
        }
    }

    fn parse(line: &str) -> Result<Trial, String> {
        let json = Json::parse(line)?;
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let count = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Ok(Trial {
            failures: json
                .get("failures")
                .and_then(Json::as_arr)
                .ok_or("no failures list")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            attempted: count("attempted"),
            frames: count("frames"),
            digest: text("digest"),
            outcome: text("outcome"),
            values: json
                .get("values")
                .and_then(Json::as_obj)
                .ok_or("no values")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        })
    }
}

/// Run one trial in a child process and wait for it. The child's standard
/// error passes through (check failures, panics); its last line of
/// standard output is the record.
pub fn run_trial(w: &Workload, seed: u64, txns: u64, traced: bool) -> Trial {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let output = Command::new(exe)
        .args(["--child", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--txns", &txns.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(e) => return Trial::broken(format!("could not start the trial: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(line) = stdout.lines().last() else {
        return Trial::broken(format!("the trial printed nothing ({})", output.status));
    };
    match Trial::parse(line) {
        Ok(mut trial) => {
            if !output.status.success() && trial.failures.is_empty() {
                trial
                    .failures
                    .push(format!("the trial ended with {}", output.status));
            }
            trial
        }
        Err(e) => Trial::broken(format!("unreadable trial record: {e} ({})", output.status)),
    }
}

/// Every trial of one workload in one set of runs.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRuns {
    pub untraced: Vec<Trial>,
    pub traced: Vec<Trial>,
    /// Failures only visible across trials (counts that did not repeat, an
    /// outcome that differs from the reference workload's).
    pub cross_failures: Vec<String>,
}

impl WorkloadRuns {
    fn trials(&self) -> impl Iterator<Item = &Trial> {
        self.untraced.iter().chain(&self.traced)
    }

    pub fn failures(&self) -> Vec<&str> {
        self.trials()
            .flat_map(|t| &t.failures)
            .chain(&self.cross_failures)
            .map(String::as_str)
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failures().is_empty()
    }

    /// Frames in the stream (the same in every trial of a seed).
    pub fn frames(&self) -> u64 {
        self.trials().map(|t| t.frames).max().unwrap_or(0)
    }

    /// Every untraced trial must report identical exact counts.
    fn check_repeatable(&mut self, name: &str) {
        if let Some(first) = self.untraced.first() {
            if self.untraced.iter().any(|t| t.digest != first.digest) {
                self.cross_failures
                    .push(format!("{name}: trials disagree on exact counts"));
            }
        }
    }

    /// Commits, corrections and final store must equal the reference's.
    fn check_equals(&mut self, name: &str, reference_name: &str, reference: Option<&Trial>) {
        let (Some(mine), Some(reference)) = (self.untraced.first(), reference) else {
            return;
        };
        if mine.outcome != reference.outcome {
            self.cross_failures.push(format!(
                "{name} must equal {reference_name}: [{}] vs [{}]",
                mine.outcome, reference.outcome
            ));
        }
    }

    /// Per-metric summary over the trials that reported it. A trial that
    /// failed a check counts all its operations as failed.
    pub fn summaries(&self, traced: bool) -> BTreeMap<String, Summary> {
        let trials = if traced { &self.traced } else { &self.untraced };
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for trial in trials {
            for (name, value) in &trial.values {
                let value = if name == m::OPS_FAILED_SHARE && !trial.failures.is_empty() {
                    1.0
                } else {
                    *value
                };
                samples.entry(name.clone()).or_default().push(value);
            }
        }
        samples
            .into_iter()
            .map(|(name, values)| (name, summarize(&values)))
            .collect()
    }
}

/// One full set of runs: every selected workload, `trials` rounds.
pub type RunSet = BTreeMap<&'static str, WorkloadRuns>;

/// What to run.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub quick: bool,
    pub trials: usize,
    pub trace: bool,
}

fn cross_check(set: &mut RunSet) {
    let firsts: BTreeMap<&str, Trial> = set
        .iter()
        .filter_map(|(name, runs)| Some((*name, runs.untraced.first()?.clone())))
        .collect();
    for (name, runs) in set.iter_mut() {
        runs.check_repeatable(name);
        if let Some(reference) = find(name).and_then(|w| w.must_equal) {
            runs.check_equals(name, reference, firsts.get(reference));
        }
    }
}

/// Run the plan: trial rounds with the workloads interleaved inside each
/// round, so that drift in the machine hits every workload alike; then one
/// traced trial per workload when asked.
pub fn run_set(plan: &Plan) -> RunSet {
    let mut set: RunSet = WORKLOADS
        .iter()
        .map(|w| (w.name, WorkloadRuns::default()))
        .collect();
    for round in 0..plan.trials {
        for w in &WORKLOADS {
            eprintln!("trial {}/{} {}", round + 1, plan.trials, w.name);
            let trial = run_trial(w, plan.seed, w.txns(plan.quick), false);
            set.get_mut(w.name).expect("planned").untraced.push(trial);
        }
    }
    if plan.trace {
        for w in &WORKLOADS {
            eprintln!("traced {}", w.name);
            let trial = run_trial(w, plan.seed, w.txns(plan.quick), true);
            set.get_mut(w.name).expect("planned").traced.push(trial);
        }
    }
    cross_check(&mut set);
    set
}

/// Run one workload for a time budget instead of a trial count: trials
/// repeat until another would overrun `seconds` (two at least, so a median
/// means something). This is the acceptance driver's entry point.
pub fn run_for(w: &'static Workload, seed: u64, seconds: u64, traced: bool) -> WorkloadRuns {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut set = RunSet::new();
    // The reference outcome comes first so its cost counts against the budget.
    if let (false, Some(reference)) = (traced, w.must_equal.and_then(find)) {
        let runs = set.entry(reference.name).or_default();
        runs.untraced
            .push(run_trial(reference, seed, reference.txns(false), false));
    }
    let min_trials = if traced { 1 } else { 2 };
    let mut trials = Vec::new();
    loop {
        let trial_started = Instant::now();
        trials.push(run_trial(w, seed, w.txns(false), traced));
        let next_would_end = started.elapsed() + trial_started.elapsed();
        if trials.len() >= min_trials && next_would_end > budget {
            break;
        }
    }
    let runs = set.entry(w.name).or_default();
    if traced {
        runs.traced = trials;
    } else {
        runs.untraced = trials;
    }
    cross_check(&mut set);
    let mut runs = set.remove(w.name).expect("just inserted");
    // A broken reference trial is this workload's failure too.
    for other in set.values() {
        runs.cross_failures
            .extend(other.failures().iter().map(|f| f.to_string()));
    }
    runs
}

/// The acceptance driver's result line.
pub fn contract_line(w: &Workload, runs: &WorkloadRuns, traced: bool) -> Json {
    let listed: &[Metric] = if traced {
        &m::PER_LAYER
    } else {
        &m::END_TO_END
    };
    let summaries = runs.summaries(traced);
    // A workload listed in BENCHMARK.json owes the driver every metric.
    let correct =
        runs.correct() && (!w.gated || listed.iter().all(|m| summaries.contains_key(m.name)));
    let attempted: u64 = runs.trials().map(|t| t.attempted).sum();
    obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted.max(1))),
        // Protocol aborts are the system's designed answer to a conflict
        // and repeat exactly for a seed; they are reported as
        // `txn.protocol.aborts`. A failed operation here is one the
        // benchmark's checks caught going wrong.
        (
            "failed",
            Json::from(if correct { 0 } else { attempted.max(1) }),
        ),
        (
            "metrics",
            obj(listed.iter().filter_map(|metric| {
                let summary = summaries.get(metric.name)?;
                Some((
                    metric.name,
                    obj([
                        ("value", Json::from(summary.median)),
                        ("unit", Json::from(metric.unit)),
                    ]),
                ))
            })),
        ),
    ])
}

fn gate_text(gate: Gate) -> String {
    match gate {
        Gate::Bound(b) => format!("{:.0}%", b * 100.0),
        Gate::Exact => "exact".to_string(),
        Gate::Layer => "-".to_string(),
    }
}

fn print_table(title: &str, metrics: &[Metric], summaries: &BTreeMap<String, Summary>) {
    println!("  {title}");
    println!(
        "    {:<40} {:>14} {:>14} {:>14} {:>3} {:>7}  {:<6} {:<6} bound",
        "metric", "median", "q1", "q3", "n", "spread", "unit", "better"
    );
    for metric in metrics {
        match summaries.get(metric.name) {
            Some(s) => println!(
                "    {:<40} {:>14.4} {:>14.4} {:>14.4} {:>3} {:>6.1}%  {:<6} {:<6} {}",
                metric.name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                metric.unit,
                metric.better.as_str(),
                gate_text(metric.gate)
            ),
            None => println!("    {:<40} {:>14}", metric.name, "not reported"),
        }
    }
}

/// Everything the untraced trials measure: the bounded metrics, then the
/// latency tails and the failed share, which carry no relative bound.
fn untraced_metrics() -> Vec<Metric> {
    let unbounded = [m::INITIAL_P99, m::FINAL_P99, m::OPS_FAILED_SHARE];
    let mut metrics = m::END_TO_END.to_vec();
    metrics.extend(unbounded.map(|name| *m::find(name).expect("listed")));
    metrics
}

/// Print every metric by name with its unit, workload by workload.
pub fn print_report(plan: &Plan, set: &RunSet) {
    for w in &WORKLOADS {
        let runs = &set[w.name];
        println!(
            "\n{} ({}) — {} transactions in {} frames, seed {}, {}",
            w.name,
            if w.gated {
                "in BENCHMARK.json"
            } else {
                "suite only"
            },
            w.txns(plan.quick),
            runs.frames(),
            plan.seed,
            if runs.correct() {
                "outputs correct"
            } else {
                "CHECKS FAILED"
            }
        );
        print_table(
            "end to end (untraced trials)",
            &untraced_metrics(),
            &runs.summaries(false),
        );
        if plan.trace {
            print_table(
                "per layer (traced trial)",
                &m::PER_LAYER,
                &runs.summaries(true),
            );
        }
        for failure in runs.failures() {
            println!("  FAILED: {failure}");
        }
    }
}

fn summaries_json(metrics: &[Metric], summaries: &BTreeMap<String, Summary>) -> Json {
    obj(metrics.iter().filter_map(|metric| {
        let s = summaries.get(metric.name)?;
        Some((
            metric.name,
            obj([
                ("median", Json::from(s.median)),
                ("q1", Json::from(s.q1)),
                ("q3", Json::from(s.q3)),
                ("n", Json::from(s.n)),
                ("unit", Json::from(metric.unit)),
                ("direction", Json::from(metric.better.as_str())),
                (
                    "bound",
                    match metric.gate {
                        Gate::Bound(b) => Json::from(b),
                        Gate::Exact => Json::from("exact"),
                        Gate::Layer => Json::Null,
                    },
                ),
            ]),
        ))
    }))
}

/// The run record: fingerprint plus every metric's summary per workload.
pub fn result_json(plan: &Plan, set: &RunSet) -> Json {
    obj([
        (
            "fingerprint",
            fingerprint(plan.seed, plan.quick, plan.trials),
        ),
        (
            "workloads",
            obj(WORKLOADS.iter().map(|w| {
                let runs = &set[w.name];
                (
                    w.name,
                    obj([
                        ("why", Json::from(w.why)),
                        ("stream_txns", Json::from(w.txns(plan.quick))),
                        ("frames", Json::from(runs.frames())),
                        ("correct", Json::from(runs.correct())),
                        (
                            "failures",
                            Json::Arr(runs.failures().into_iter().map(Json::from).collect()),
                        ),
                        (
                            "end_to_end",
                            summaries_json(&untraced_metrics(), &runs.summaries(false)),
                        ),
                        (
                            "per_layer",
                            summaries_json(&m::PER_LAYER, &runs.summaries(true)),
                        ),
                    ]),
                )
            })),
        ),
    ])
}

pub fn write_result(json: &Json, file: &str) {
    let path = out_dir().join(file);
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, json.render_pretty()));
    match written {
        Ok(()) => println!("\nresult written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Two sets of the same binary, back to back: per workload row, each
/// end-to-end metric's two medians, their relative difference and the
/// bound. Returns whether every pair agrees within its bound.
pub fn print_self_check(plan: &Plan, first: &RunSet, second: &RunSet) -> bool {
    let mut agree = true;
    println!(
        "\nself-check: two sets of {} trials, same binary, same seed",
        plan.trials
    );
    println!(
        "  {:<16} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first median", "second median", "diff", "bound"
    );
    for w in &WORKLOADS {
        let (a, b) = (
            first[w.name].summaries(false),
            second[w.name].summaries(false),
        );
        for metric in &m::END_TO_END {
            let Gate::Bound(bound) = metric.gate else {
                continue;
            };
            let (Some(a), Some(b)) = (a.get(metric.name), b.get(metric.name)) else {
                continue;
            };
            let diff = (b.median - a.median) / a.median;
            let ok = diff.abs() <= bound;
            agree &= ok;
            println!(
                "  {:<16} {:<26} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%{}",
                w.name,
                metric.name,
                a.median,
                b.median,
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    agree
}
