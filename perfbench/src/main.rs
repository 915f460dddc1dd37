//! End-to-end benchmark of the `/v1` why-service.
//!
//! ```text
//! perfbench --workload <cold-why|hot-why|live-mix|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run starts the real HTTP server (`wqe_serve::http::HttpServer`
//! over a store-backed `QueryService`, as `wqe-cli serve --http` does)
//! inside this process, drives it over loopback sockets from at most
//! `nproc` client threads, checks every answer against an exact
//! reference computed outside the timed window, and prints one JSON
//! object as the last line of standard output. With `--trace 0` the
//! object carries the end-to-end metrics; with `--trace 1` the run also
//! repeats the window with tracing on and reports the per-layer metrics
//! instead. `--workload all` runs every workload, each in its own child
//! process, and prints every result line.
//!
//! Inputs come only from `--seed`; generated question suites are cached
//! per seed under `.perfbench/` in the working directory.

mod client;
mod cold;
mod common;
mod hot;
mod inputs;
mod layers;
mod live;
mod spec;
mod stats;
mod trace;

use serde_json::{json, Map, Value};
use std::process::{Command, ExitCode, Stdio};

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["cold-why", "hot-why", "live-mix"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only generate and cache the inputs (the child-process half of a
    /// run; see [`prepare_in_child`]).
    pub prepare: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut prepare = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--prepare" => prepare = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        prepare,
    })
}

/// Metric values with their names and units.
pub type Metrics = Vec<(String, f64, String)>;

/// What a workload run hands back for printing.
pub struct Outcome {
    /// Every answer check and spec round trip passed. The run is correct
    /// only if, in addition, no operation failed.
    pub checks_passed: bool,
    /// Operations attempted in the timed window(s).
    pub attempted: u64,
    /// Operations that failed: non-2xx, shed/rejected, connection errors,
    /// answer mismatches.
    pub failed: u64,
    /// The end-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Metrics,
    /// Metrics printed for the reader but not gated (they do not apply
    /// to every workload).
    pub extra: Metrics,
    /// The per-layer metrics (reported with `--trace 1`).
    pub per_layer: Metrics,
}

/// This program with the run's seed, window and trace flag, for
/// `workload`.
fn own_command(args: &Args, workload: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    Ok(cmd)
}

/// Runs `cmd` to its end; reports on standard error and returns false
/// when it could not start or did not succeed.
fn succeeds(what: &str, cmd: Result<Command, String>) -> bool {
    match cmd.and_then(|mut c| c.status().map_err(|e| format!("cannot start {what}: {e}"))) {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("perfbench: {what} exited with {status}");
            false
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            false
        }
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        ok &= succeeds(&format!("workload {w}"), own_command(args, w));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Generates the run's inputs in a child process and waits for it: the
/// generators' memory never enters this process, whose `VmHWM` is the
/// `peak_rss_mb` metric.
fn prepare_in_child(args: &Args) -> bool {
    let cmd = own_command(args, &args.workload).map(|mut c| {
        c.args(["--prepare", "1"]).stdout(Stdio::null());
        c
    });
    succeeds("input generation", cmd)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold-why|hot-why|live-mix|all> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.prepare {
        let prepared = match args.workload.as_str() {
            "cold-why" => cold::prepare(&args),
            "hot-why" => hot::prepare(&args),
            _ => live::prepare(&args),
        };
        return match prepared {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: preparing {} failed: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    if !prepare_in_child(&args) {
        return ExitCode::FAILURE;
    }
    println!("host {}", common::host_facts());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "cold-why" => cold::run(&args),
        "hot-why" => hot::run(&args),
        _ => live::run(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let shown = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (name, value, unit) in shown.iter().chain(&outcome.extra) {
        println!("metric {name} {value} {unit}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let correct = outcome.checks_passed && outcome.failed == 0;
    println!(
        "checks correct={correct} attempted={} failed={} error_rate={error_rate}",
        outcome.attempted, outcome.failed
    );
    let mut metrics = Map::new();
    for (name, value, unit) in shown {
        metrics.insert(name.clone(), json!({ "value": value, "unit": unit }));
    }
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{result}");
    // Every figure is printed either way; a failed check or operation
    // still fails the run.
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
