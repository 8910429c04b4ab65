//! `pdbench`: the fleet benchmark of the PDAgent reproduction.
//!
//! ```text
//! pdbench --workload <bulk_pi|roaming|fleet_ops|lossy> [--seed N] [--seconds S]
//!         [--trace 0|1] [--record FILE]
//! pdbench --compare A.jsonl B.jsonl
//! ```
//!
//! A run generates its inputs from the seed, then builds and runs instances
//! of the workload's fleet until `--seconds` have passed (at least one full
//! pass), checking every result. Untraced, it prints the end-to-end metrics;
//! `--trace 1` wraps every node for in-situ self time, replays the layer
//! functions on the run's inputs and prints the per-layer metrics. Human
//! lines come first; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A failed check exits 1.
//! See README.md for the workloads, the metrics and the compare mode.

mod compare;
mod layers;
mod report;
mod stats;
mod timed;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use crate::report::RunReport;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
    compare: Option<(String, String)>,
}

fn usage() -> String {
    let names: Vec<&str> = workload::SHAPES.iter().map(|s| s.name).collect();
    format!(
        "usage: pdbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]\n       pdbench --compare A.jsonl B.jsonl",
        names.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        record: None,
        compare: None,
    };
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record" => args.record = Some(value(&mut it, &flag)?),
            "--compare" => {
                let a = value(&mut it, &flag)?;
                let b = value(&mut it, &flag)?;
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A fixed integer loop, timed: shows drift of the host between runs.
fn calibrate_ms() -> f64 {
    let mut runs = [0.0; 3];
    for r in &mut runs {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..10_000_000u64 {
            x = (x.rotate_left(5) ^ i).wrapping_mul(0x0000_0100_0000_01b3);
        }
        std::hint::black_box(x);
        *r = t.elapsed().as_secs_f64() * 1e3;
    }
    stats::median(&runs)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pdbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(shape) = args.workload.as_deref().and_then(workload::shape) else {
        eprintln!("pdbench: missing or unknown --workload\n{}", usage());
        return ExitCode::from(2);
    };

    // One worker steps every shard. On a 2-core host two workers ran
    // fleet_ops slower and four times noisier than one, and a pinned count
    // keeps results independent of the host's core count.
    std::env::set_var("PDAGENT_BENCH_THREADS", "1");
    let calib_ms = calibrate_ms();
    let mut report = RunReport::new(shape, args.seed, args.trace, calib_ms);
    let started = Instant::now();
    let mut k = 0usize;
    loop {
        let index = k % shape.instances;
        report.run_instance(index, k >= shape.instances);
        k += 1;
        // Untraced runs finish at least one full pass (the deterministic
        // metrics are taken over it); traced runs at least two instances.
        let enough = if args.trace {
            k >= 2
        } else {
            k >= shape.instances
        };
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    report.rss_mb = peak_rss_mb();

    let (text, json) = report.render();
    print!("{text}");
    println!("{json}");
    if let Some(path) = &args.record {
        let line = report.record_line(&json);
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = written {
            eprintln!("pdbench: could not append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn command_line_parses() {
        let a = parse(&[
            "--workload",
            "lossy",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("lossy"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&["--trace", "yes"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
    }
}
