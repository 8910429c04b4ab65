//! The chaos matrix: sweep deterministic fault schedules across the soak's
//! gateway / MAS / federation / paging planes and hold every system
//! invariant (`pdagent_bench::chaos_matrix`) at epoch barriers and at
//! quiesce.
//!
//! ```text
//! cargo run -p pdagent-bench --release --bin chaos [--classes a,b,..]
//!     [--intensities 0.3,0.8] [--seeds 42,43] [--shards 1,2] [--out DIR]
//! cargo run -p pdagent-bench --release --bin chaos -- --replay <repro.json>
//! ```
//!
//! Grid mode runs every `class × intensity × seed × shard-count` cell,
//! prints the pass/fail table, and writes `BENCH_chaos.json`. Any invariant
//! violation is shrunk to a minimal still-failing plan and serialized to
//! `<out>/repro-<seed>.json` (default `target/chaos/`); the process then
//! exits 1 so CI uploads the reproducers. `--replay` loads one of those
//! files, re-runs the recorded case, and exits 0 only if the recorded
//! violation reproduces.

use std::time::Instant;

use pdagent_bench::chaos_matrix::{plan_for, run_case, shrink_case, Repro};
use pdagent_bench::report::{write_bench_report, Json};
use pdagent_net::chaos::FaultKind;

fn parse_list<T: std::str::FromStr>(s: &str) -> Vec<T> {
    s.split(',').filter_map(|x| x.trim().parse().ok()).collect()
}

fn replay(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let repro = match Repro::parse(text.trim_end()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos: cannot parse {path}: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "replaying {path}: seed {}, {} cell(s) x {} device(s), {} shard(s), {} fault(s)",
        repro.seed,
        repro.cells,
        repro.devices_per_cell,
        repro.shards,
        repro.plan.faults.len()
    );
    let result = repro.replay();
    for v in &result.violations {
        println!("  VIOLATED {} at {}: {}", v.invariant, v.phase, v.detail);
    }
    let reproduced = repro
        .violated
        .iter()
        .all(|name| result.violations.iter().any(|v| &v.invariant == name));
    if reproduced {
        println!("reproduced: recorded violation(s) {:?} still fail", repro.violated);
        std::process::exit(0);
    }
    println!(
        "NOT reproduced: recorded {:?}, observed {:?}",
        repro.violated,
        result.violations.iter().map(|v| v.invariant.as_str()).collect::<Vec<_>>()
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut classes: Vec<FaultKind> = FaultKind::all().to_vec();
    let mut intensities: Vec<f64> = vec![0.3, 0.8];
    let mut seeds: Vec<u64> = vec![42, 43];
    let mut shard_list: Vec<usize> = vec![1, 2];
    let mut out_dir = String::from("target/chaos");
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = args.get(i + 1).cloned();
        match (flag, val) {
            ("--replay", Some(path)) => replay(&path),
            ("--classes", Some(v)) => {
                classes = v
                    .split(',')
                    .filter_map(|n| FaultKind::from_name(n.trim()))
                    .collect();
            }
            ("--intensities", Some(v)) => intensities = parse_list(&v),
            ("--seeds", Some(v)) => seeds = parse_list(&v),
            ("--shards", Some(v)) => shard_list = parse_list(&v),
            ("--out", Some(v)) => out_dir = v,
            _ => {
                eprintln!("chaos: unknown or incomplete flag {flag}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if classes.is_empty() || intensities.is_empty() || seeds.is_empty() || shard_list.is_empty()
    {
        eprintln!("chaos: empty grid");
        std::process::exit(2);
    }

    let cases = classes.len() * intensities.len() * seeds.len() * shard_list.len();
    println!(
        "chaos matrix: {} class(es) x {} intensit(ies) x {} seed(s) x {} shard count(s) = {cases} case(s)",
        classes.len(),
        intensities.len(),
        seeds.len(),
        shard_list.len()
    );
    println!(
        "\n{:<11} {:>9} {:>6} {:>7} {:>9}  violated",
        "class", "intensity", "seed", "shards", "verdict"
    );

    let wall = Instant::now();
    let mut rows: Vec<Json> = Vec::new();
    let mut failures = 0usize;
    let mut total_events = 0u64;
    let mut class_pass: Vec<(FaultKind, u32, u32)> =
        classes.iter().map(|&c| (c, 0u32, 0u32)).collect();
    for &class in &classes {
        for &intensity in &intensities {
            for &seed in &seeds {
                for &shards in &shard_list {
                    let mut spec = pdagent_bench::chaos_matrix::matrix_spec(seed);
                    spec.shards = shards;
                    let plan = plan_for(class, intensity, spec.devices_per_cell);
                    let result = run_case(&spec, &plan);
                    total_events += result.outcome.events;
                    let violated: Vec<String> =
                        result.violations.iter().map(|v| v.invariant.clone()).collect();
                    let pass = violated.is_empty();
                    println!(
                        "{:<11} {:>9.2} {:>6} {:>7} {:>9}  {}",
                        class.name(),
                        intensity,
                        seed,
                        shards,
                        if pass { "pass" } else { "FAIL" },
                        violated.join(",")
                    );
                    let slot =
                        class_pass.iter_mut().find(|(c, _, _)| *c == class).expect("class slot");
                    if pass {
                        slot.1 += 1;
                    } else {
                        slot.2 += 1;
                        failures += 1;
                        // Shrink to the first violated invariant and leave a
                        // replayable reproducer behind for the post-mortem.
                        let target = violated[0].clone();
                        println!("  shrinking toward minimal plan violating {target} ...");
                        let shrunk = shrink_case(&spec, &plan, &target, 24);
                        let repro = Repro::from_case(&spec, &shrunk, violated.clone());
                        match repro.write_to(std::path::Path::new(&out_dir)) {
                            Ok(path) => println!(
                                "  wrote {} ({} fault(s); replay with --replay)",
                                path.display(),
                                shrunk.faults.len()
                            ),
                            Err(e) => eprintln!("  could not write reproducer: {e}"),
                        }
                    }
                    rows.push(Json::obj(vec![
                        ("class", Json::Str(class.name().to_owned())),
                        ("intensity", intensity.into()),
                        ("seed", seed.into()),
                        ("shards", shards.into()),
                        ("pass", pass.into()),
                        ("violated", Json::Arr(violated.into_iter().map(Json::Str).collect())),
                        ("lost_agents", result.outcome.lost_agents.into()),
                        ("duplicate_executions", result.outcome.duplicate_executions.into()),
                        ("epoch_regressions", result.outcome.epoch_regressions.into()),
                        (
                            "dropped_pages",
                            result.outcome.paging.as_ref().map_or(0, |p| p.dropped).into(),
                        ),
                        (
                            "chaos_activity",
                            Json::Arr(
                                result.outcome.chaos_activity.iter().map(|&n| n.into()).collect(),
                            ),
                        ),
                    ]));
                }
            }
        }
    }

    let per_class: Vec<Json> = class_pass
        .iter()
        .map(|&(c, pass, fail)| {
            Json::obj(vec![
                ("class", Json::Str(c.name().to_owned())),
                ("pass", pass.into()),
                ("fail", fail.into()),
            ])
        })
        .collect();
    let results = Json::obj(vec![
        ("cases", cases.into()),
        ("failures", failures.into()),
        ("per_class", Json::Arr(per_class)),
        ("rows", Json::Arr(rows)),
    ]);
    match write_bench_report("chaos", wall.elapsed().as_secs_f64(), total_events, results) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write BENCH_chaos.json: {e}"),
    }

    if failures > 0 {
        println!("chaos matrix: {failures}/{cases} case(s) FAILED; reproducers in {out_dir}/");
        std::process::exit(1);
    }
    println!("chaos matrix: all {cases} case(s) passed every invariant");
}
