//! The Croesus benchmark. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 42
//!     every workload, 5 trials each, outputs checked, every metric printed,
//!     result JSON written to benchmark/out/result.json
//!   --trace        add one traced trial per workload (per-layer metrics)
//!   --quick        short streams, 2 trials
//!   --self-check   two full sets back to back, compared against the bounds
//!   --trials N     trials per workload
//!
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload edge-cpu --seed 7 --seconds 10 --trace 0
//!     one workload for a time budget; the last line of standard output is
//!     the acceptance driver's JSON object (`--trace 1`: per-layer metrics)
//! ```

mod driver;
mod env;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod suite;
mod trial;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use suite::Plan;

const USAGE: &str =
    "usage: croesus-benchmark [--seed N] [--trials N] [--quick] [--trace] [--self-check]
       croesus-benchmark --workload NAME --seed N --seconds S --trace 0|1";

#[derive(Debug, Default)]
struct Args {
    seed: Option<u64>,
    trials: Option<usize>,
    quick: bool,
    /// `--trace` alone (suite) or `--trace 0|1` (one workload, child trial).
    trace: bool,
    self_check: bool,
    workload: Option<String>,
    seconds: Option<u64>,
    child: Option<String>,
    txns: Option<u64>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
        value
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    }
    let mut args = Args::default();
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seed = Some(number(flag, it.next())?),
            "--trials" => args.trials = Some(number(flag, it.next())?),
            "--seconds" => args.seconds = Some(number(flag, it.next())?),
            "--txns" => args.txns = Some(number(flag, it.next())?),
            "--quick" => args.quick = true,
            "--self-check" => args.self_check = true,
            "--trace" => {
                args.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--workload" => {
                args.workload = Some(it.next().ok_or("--workload needs a name")?.clone())
            }
            "--child" => args.child = Some(it.next().ok_or("--child needs a name")?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn workload_named(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", names.join(", "))
    })
}

fn run(args: Args, born: Instant) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(42);
    if let Some(name) = &args.child {
        let trial = trial::TrialArgs {
            workload: workload_named(name)?,
            seed,
            txns: args.txns.ok_or("--child needs --txns")?,
            traced: args.trace,
        };
        trial::run(&trial, born);
    }
    if let Some(name) = &args.workload {
        let w = workload_named(name)?;
        let seconds = args.seconds.ok_or("--workload needs --seconds")?;
        let runs = suite::run_for(w, seed, seconds, args.trace);
        for failure in runs.failures() {
            eprintln!("FAILED: {failure}");
        }
        println!("{}", suite::contract_line(w, &runs, args.trace).render());
        return Ok(ExitCode::SUCCESS);
    }
    let plan = Plan {
        seed,
        quick: args.quick,
        trials: args.trials.unwrap_or(if args.quick { 2 } else { 5 }),
        trace: args.trace,
    };
    let first = suite::run_set(&plan);
    suite::print_report(&plan, &first);
    suite::write_result(&suite::result_json(&plan, &first), "result.json");
    let mut ok = first.values().all(suite::WorkloadRuns::correct);
    if args.self_check {
        let second = suite::run_set(&plan);
        suite::write_result(&suite::result_json(&plan, &second), "result-second.json");
        ok &= second.values().all(suite::WorkloadRuns::correct);
        ok &= suite::print_self_check(&plan, &first, &second);
    }
    if ok {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("benchmark FAILED: see the failures above");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    // Taken first: a trial's set-up time runs from here.
    let born = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|args| run(args, born)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
