//! The NeuroPlan benchmark: one seeded workload per process.
//!
//! ```text
//! perfbench --workload <plan_b|plan_c|replan_b|serve_mix> --seed <u64>
//!           --seconds <secs> --trace <0|1>
//! ```
//!
//! Human-readable lines first; the last line of standard output is the
//! JSON result: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics traced. The exit
//! code is 0 whenever a result line was printed; `correct` carries the
//! verdict.

mod common;
mod ledger;
mod metrics;
mod plan;
mod replan;
mod serve;
mod stats;
mod timing_env;

use common::RunArgs;
use metrics::Outcome;
use np_topology::TopologyPreset;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["plan_b", "plan_c", "replan_b", "serve_mix"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse() -> (String, RunArgs) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) if WORKLOADS.contains(&w.as_str()) => (
            w,
            RunArgs {
                seed,
                seconds,
                trace,
            },
        ),
        _ => usage(),
    }
}

fn main() {
    let (workload, args) = parse();
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::default();
    match workload.as_str() {
        "plan_b" => plan::run(TopologyPreset::B, 5, &args, &mut out),
        "plan_c" => plan::run(TopologyPreset::C, 2, &args, &mut out),
        "replan_b" => replan::run(&args, &mut out),
        "serve_mix" => serve::run(&args, &mut out),
        _ => unreachable!("validated by parse"),
    }
    if args.trace && workload != "serve_mix" {
        // The daemon's counters depend on request timing (which cache
        // entries survive), so only the batch workloads are exact.
        ledger::check(&workload, args.seed, &mut out);
    }
    if !args.trace {
        match common::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.error("VmHWM unavailable in /proc/self/status"),
        }
    }
    for &(name, unit) in metrics::registry(args.trace) {
        match out.values.get(name) {
            Some(v) => println!("{name} {v} {unit}"),
            None => println!("{name}: not measured"),
        }
    }
    println!("{}", out.result_line(args.trace));
}
