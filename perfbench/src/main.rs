//! End-to-end and per-layer benchmark of the DMA-aware memory simulator.
//!
//! ```text
//! perfbench --workload <storage|database|observed|sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--ms <trace ms>]
//! ```
//!
//! Prints a short human report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` in this directory for what
//! each workload and metric means.

mod guard;
mod ledger;
mod report;
mod single;
mod spans;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_line, Values, END_TO_END, PER_LAYER};
use single::Kind;
use spans::SpanLog;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ms: Option<u64>,
}

/// What a workload run produced.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
    report: Vec<String>,
    errors: Vec<String>,
    spans: Option<SpanLog>,
}

const USAGE: &str = "usage: perfbench --workload <storage|database|observed|sweep> --seed <n> \
                     --seconds <s> --trace <0|1> [--ms <trace ms>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ms = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            // 0 is accepted here so the workloads' own guard refuses it
            // with its message, like any length that yields no transfers.
            "--ms" => match value.parse::<u64>() {
                Ok(n) if n <= 10_000 => ms = Some(n),
                _ => return Err(bad("a trace length of at most 10000 ms")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["storage", "database", "observed", "sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        ms,
    })
}

/// Writes the traced run's spans next to the benchmark sources.
fn write_spans(args: &Args, log: &SpanLog) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, log.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "storage" => single::run(Kind::Storage, &args),
        "database" => single::run(Kind::Database, &args),
        "observed" => single::run(Kind::Observed, &args),
        _ => sweep::run(&args),
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match report::peak_rss_mb() {
        Ok(mb) => {
            out.values.insert("peak_rss_mb", mb);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    for line in &out.report {
        println!("# {line}");
    }
    println!("# peak RSS {:.1} MB", out.values["peak_rss_mb"]);
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    if let Some(log) = &out.spans {
        match write_spans(&args, log) {
            Ok(path) => println!(
                "# {} spans written to {}",
                log.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, table, &out.values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload storage --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("storage", 7, 10.0, true)
        );
        assert_eq!(a.ms, None);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload storage --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload storage --seed -1 --seconds 10 --trace 0",
            "--workload storage --seed 7 --seconds 10 --trace 2",
            "--workload storage --seed 7 --seconds 10 --trace 0 --ms 10001",
            "--workload storage --seed 7 --seconds 10 --trace 0 --traces 2",
            "--workload storage --seed 7 --seconds nan --trace 0",
            "--workload storage --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
