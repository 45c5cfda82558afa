//! `e2ebench`: the closed-loop end-to-end benchmark of the COSMOS
//! reproduction, from CQL text to delivery at the user's proxy.
//!
//! ```text
//! e2ebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! e2ebench compare <a> <b>
//! e2ebench manifest
//! ```

mod harness;
mod measure;
mod report;
mod spec;
mod trace;
mod workloads;

use harness::{run, Outcome, RunConfig, Scale};
use std::process::ExitCode;

fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "sensor-join" => run::<workloads::sensor_join::SensorJoin>(cfg),
        "filter-fanout" => run::<workloads::filter_fanout::FilterFanout>(cfg),
        "placement-churn" => run::<workloads::placement_churn::PlacementChurn>(cfg),
        "lossy-recovery" => run::<workloads::lossy_recovery::LossyRecovery>(cfg),
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2ebench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      e2ebench compare <a> <b>\n\
         \x20      e2ebench manifest",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else { return usage() };
            return report::compare(a, b);
        }
        _ => {}
    }
    let mut workload = None;
    let mut out = None;
    let mut cfg =
        RunConfig { seed: 42, seconds: spec::RUN_SECONDS as f64, trace: false, scale: Scale::Full };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--out" => {
                out = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v: f64| cfg.seconds = v).is_ok() && cfg.seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    cfg.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else { return usage() };
    if workload == "all" {
        return report::run_all(&args);
    }
    let Some(outcome) = run_workload(&workload, &cfg) else { return usage() };
    report::emit(&outcome, out.as_deref())
}

#[cfg(test)]
mod tests;
