//! What a run leaves behind: the human summary (stderr), the driver's JSON
//! object (last line of stdout), the trace file, and the flat
//! `workload metric value unit` lines that `compare` reads. The vendored
//! `serde_json` has no parser, so the flat file is the machine-readable
//! result and the JSON is written by hand.

use crate::harness::Outcome;
use crate::measure::median;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode};

/// The per-layer timings a user would feel; `compare` prints them.
const TIMINGS: [&str; 3] =
    ["pipeline.records_per_s", "pipeline.record_latency_p50_us", "pipeline.reconfig_p50_ms"];

/// Where a traced run writes its spans.
const TRACE_DIR: &str = "results/e2e";

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The driver's result object.
pub fn result_json(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, unit, value)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", finite(*value));
    }
    out.push_str("}}");
    out
}

/// The flat lines of one run.
fn flat_lines(o: &Outcome) -> String {
    let w = o.workload;
    let mut out = String::new();
    for (name, unit, value) in &o.metrics {
        let _ = writeln!(out, "{w} {name} {} {unit}", finite(*value));
    }
    let _ = writeln!(out, "{w} failed_share {} ratio", o.failed as f64 / o.attempted as f64);
    let _ = writeln!(out, "{w} delivery_digest.{} {} hash", o.seed, o.digest);
    out
}

fn summary(o: &Outcome) -> String {
    let mut out = format!(
        "{} seed {} {}: {} ({} of {} records failed), delivery digest {:016x}\n",
        o.workload,
        o.seed,
        if o.traced { "traced" } else { "untraced" },
        if o.correct { "correct" } else { "INCORRECT" },
        o.failed,
        o.attempted,
        o.digest
    );
    for p in &o.problems {
        let _ = writeln!(out, "  problem: {p}");
    }
    for (name, unit, value) in &o.metrics {
        let _ = writeln!(out, "  {name:<34} {value:>16.4} {unit}");
    }
    if !o.shares.is_empty() {
        out.push_str("  share of the fixed-phase loop by layer (span self time):\n");
        for (name, share) in &o.shares {
            let _ = writeln!(out, "    {name:<24} {:>6.1} %", 100.0 * share);
        }
    }
    out
}

/// Prints the run; exits non-zero without a result line if the outputs
/// were wrong.
pub fn emit(o: &Outcome, flat: Option<&str>) -> ExitCode {
    eprint!("{}", summary(o));
    if o.traced {
        let path = format!("{TRACE_DIR}/trace-{}.json", o.workload);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, o.tracer.to_json(o.workload, o.seed)));
        match written {
            Ok(()) => eprintln!("  {} spans written to {path}", o.tracer.len()),
            Err(e) => eprintln!("  could not write {path}: {e}"),
        }
    }
    if let Some(path) = flat {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(flat_lines(o).as_bytes()));
        if let Err(e) = appended {
            eprintln!("could not append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_json(o));
    ExitCode::SUCCESS
}

/// `--workload all`: one child process per workload, one after the other,
/// so that each workload's peak memory is its own.
pub fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let child_args: Vec<&str> =
            args.iter().map(|a| if a == "all" { w.name } else { a.as_str() }).collect();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("could not run {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Flat = BTreeMap<(String, String), Vec<String>>;

fn read_flat(path: &str) -> Result<Flat, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Flat::new();
    for (n, line) in text.lines().enumerate() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, _unit] = fields.as_slice() else {
            return Err(format!("{path}:{}: expected `workload metric value unit`", n + 1));
        };
        out.entry((workload.to_string(), metric.to_string())).or_default().push(value.to_string());
    }
    Ok(out)
}

fn numbers(flat: &Flat, workload: &str, metric: &str) -> Vec<f64> {
    flat.get(&(workload.to_string(), metric.to_string()))
        .map(|vs| vs.iter().filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default()
}

/// Compares two sets of runs. Returns the table and whether `b` is no
/// worse than `a` on every (workload, end-to-end metric) pair.
pub fn compare_flat(a: &Flat, b: &Flat) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<30} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median a", "median b", "delta", "bound"
    );
    let mut ok = true;
    for w in WORKLOADS.iter().map(|w| w.name) {
        if !a.keys().chain(b.keys()).any(|(kw, _)| kw == w) {
            continue;
        }
        for m in &END_TO_END {
            let (mut xa, mut xb) = (numbers(a, w, m.name), numbers(b, w, m.name));
            if xa.is_empty() || xb.is_empty() {
                let _ = writeln!(out, "{w:<16} {:<30} missing in one set  FAIL", m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&mut xa), median(&mut xb));
            let delta = (mb - ma) / ma;
            let worse = if m.better == Better::Lower { delta } else { -delta };
            let pass = worse <= m.bound;
            ok &= pass;
            let _ = writeln!(
                out,
                "{w:<16} {:<30} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.1}%  {}",
                m.name,
                100.0 * delta,
                100.0 * m.bound,
                if pass { "ok" } else { "REGRESSION" }
            );
        }
        // Timings carry no bound on this host; shown when both sets hold
        // traced runs, never judged.
        for name in TIMINGS {
            let (mut xa, mut xb) = (numbers(a, w, name), numbers(b, w, name));
            if !xa.is_empty() && !xb.is_empty() {
                let (ma, mb) = (median(&mut xa), median(&mut xb));
                let _ = writeln!(
                    out,
                    "{w:<16} {name:<30} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6}  not judged",
                    100.0 * (mb - ma) / ma,
                    "-"
                );
            }
        }
        let worst = |f: &Flat| numbers(f, w, "failed_share").into_iter().fold(0.0, f64::max);
        let (fa, fb) = (worst(a), worst(b));
        let pass = fb <= fa;
        ok &= pass;
        let _ = writeln!(
            out,
            "{w:<16} {:<30} {fa:>14.6} {fb:>14.6} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "0",
            if pass { "ok" } else { "MORE FAILURES" }
        );
    }
    // One digest per (workload, seed): the same inputs must give the same
    // deliveries on both sides.
    for (key, va) in a.iter().filter(|((_, m), _)| m.starts_with("delivery_digest.")) {
        let Some(vb) = b.get(key) else { continue };
        let same = va.iter().chain(vb).all(|v| v == &va[0]);
        ok &= same;
        let _ = writeln!(
            out,
            "{:<16} {:<30} {}",
            key.0,
            key.1,
            if same { "identical" } else { "DELIVERIES DIFFER" }
        );
    }
    (out, ok)
}

/// `e2ebench compare <a> <b>`.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let (fa, fb) = match (read_flat(a), read_flat(b)) {
        (Ok(fa), Ok(fb)) => (fa, fb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (table, ok) = compare_flat(&fa, &fb);
    print!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(lines: &[&str]) -> Flat {
        let mut out = Flat::new();
        for l in lines {
            let f: Vec<&str> = l.split_whitespace().collect();
            out.entry((f[0].into(), f[1].into())).or_default().push(f[2].into());
        }
        out
    }

    fn full(cost: &str, failed: &str, digest: &str) -> Flat {
        let mut lines: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "comm_cost_per_record" { cost } else { "10" };
                format!("sensor-join {} {v} u", m.name)
            })
            .collect();
        lines.push("sensor-join pipeline.records_per_s 5 1/s".to_string());
        lines.push(format!("sensor-join failed_share {failed} ratio"));
        lines.push(format!("sensor-join delivery_digest.42 {digest} hash"));
        flat(&lines.iter().map(String::as_str).collect::<Vec<_>>())
    }

    #[test]
    fn compare_passes_within_the_bound_and_fails_beyond_it() {
        let bound =
            END_TO_END.iter().find(|m| m.name == "comm_cost_per_record").expect("listed").bound;
        let dearer = |by: f64| full(&format!("{}", 1000.0 * (1.0 + by)), "0", "7");
        let base = full("1000", "0", "7");
        assert!(compare_flat(&base, &dearer(bound - 0.05)).1, "within the bound");
        let (table, ok) = compare_flat(&base, &dearer(bound + 0.05));
        assert!(!ok && table.contains("REGRESSION"), "{table}");
        assert!(table.contains("not judged"), "timings are shown: {table}");
        assert!(compare_flat(&base, &full("500", "0", "7")).1, "cheaper is never a regression");
    }

    #[test]
    fn compare_rejects_new_failures_changed_deliveries_and_gaps() {
        let base = full("1000", "0", "7");
        assert!(!compare_flat(&base, &full("1000", "0.001", "7")).1);
        assert!(!compare_flat(&base, &full("1000", "0", "8")).1);
        let mut gap = full("1000", "0", "7");
        gap.remove(&("sensor-join".to_string(), "setup_s".to_string()));
        assert!(!compare_flat(&base, &gap).1);
    }
}
