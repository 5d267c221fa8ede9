//! End-to-end benchmark of the ugraph workspace.
//!
//! ```text
//! ugraph-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one workload through the public APIs of `ugraph-cluster`,
//! `ugraph-metrics` and `ugraph-server`, checks every answer, and prints
//! human-readable notes followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` replays the workload through
//! bench-side timing wrappers and reports the per-layer ones. See
//! `README.md` beside this crate.

mod cpu;
mod inproc;
mod metrics;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

use report::Outcome;
use ugraph_cluster::ClusterConfig;

/// Sampling threads of every session, server session and evaluation pool.
/// With one thread an op runs wholly on the thread that times it, and the
/// benchmark stays off a shared host's scheduler: with one thread per core,
/// an op waited for whichever of its threads the host had descheduled.
/// Answers do not depend on the thread count.
pub const SOLVER_THREADS: usize = 1;

/// `ClusterConfig::default()` with [`SOLVER_THREADS`]: the configuration of
/// every session the benchmark opens, in process or served.
pub fn solver_config() -> ClusterConfig {
    ClusterConfig::default().with_threads(SOLVER_THREADS)
}

/// The seed whose answer digests are recorded below.
const DEFAULT_SEED: u64 = 1;

/// The workloads, each with the digest of its answers under
/// [`DEFAULT_SEED`]: a run with that seed fails unless it reproduces them.
const WORKLOADS: [(&str, u64); 4] = [
    ("ppi-sweep", 0x2a1b_e1b1_4548_6877),
    ("table2-depth", 0x35fa_824f_142c_cf60),
    ("budget-large", 0xc37d_0139_a399_27c4),
    ("serve-mixed", 0x27b6_71ec_69c0_9cfb),
];

const USAGE: &str =
    "usage: ugraph-perfbench --workload <ppi-sweep|table2-depth|budget-large|serve-mixed> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 30.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS.iter().map(|(n, _)| *n).find(|n| *n == value);
                workload = Some(name.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let expected = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|&(_, digest)| digest)
        .filter(|_| args.seed == DEFAULT_SEED);
    let mut out = Outcome::default();
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload {
        "ppi-sweep" => inproc::run(
            "ppi-sweep",
            &inproc::Plan::ppi_sweep(seed),
            seconds,
            trace,
            expected,
            &mut out,
        ),
        "table2-depth" => inproc::run(
            "table2-depth",
            &inproc::Plan::table2_depth(seed),
            seconds,
            trace,
            expected,
            &mut out,
        ),
        "budget-large" => inproc::run(
            "budget-large",
            &inproc::Plan::budget_large(seed),
            seconds,
            trace,
            expected,
            &mut out,
        ),
        _ => serve::run(seed, seconds, trace, expected, &mut out),
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "# error_rate = {} ({} of {} ops failed)",
        report::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!("{}", out.result_line());
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve-mixed --seed 5 --seconds 20 --trace 1").unwrap();
        assert_eq!(a, Args { workload: "serve-mixed", seed: 5, seconds: 20.0, trace: true });
        assert_eq!(parse("--workload ppi-sweep").unwrap().seed, DEFAULT_SEED);
        for bad in
            ["", "--workload nope", "--workload ppi-sweep --trace 2", "--seed 1", "--workload"]
        {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
