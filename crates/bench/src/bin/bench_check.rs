//! Bench-regression guard for CI.
//!
//! Compares a freshly generated `BENCH_micro.json` against the committed
//! baseline and fails (exit 1) when any benchmark present in **both**
//! files regressed by more than the tolerance (default 25% on the
//! median). New entries are reported but tolerated — adding benchmarks
//! must not break CI. Entries present in the baseline but **missing**
//! from the current run are a hard failure (listed by name): a silently
//! disappearing benchmark is exactly how coverage regresses unnoticed.
//! Intentional renames land with a regenerated baseline, so they never
//! trip this.
//!
//! The committed baseline comes from whatever machine last regenerated
//! it, which is rarely the CI runner: absolute nanoseconds are not
//! comparable across hosts. The guard therefore normalizes by machine
//! speed first — each benchmark's current/baseline ratio is divided by
//! the **median ratio** across all shared benchmarks (clamped to
//! [0.25, 4.0] so a pathological baseline cannot hide everything). A
//! uniformly slower runner shifts every ratio equally and normalizes
//! away; a genuine regression stands out against the others.
//!
//! ```text
//! cargo run --release -p cosmos-bench --bin bench_check -- \
//!     baseline.json BENCH_micro.json [tolerance-percent]
//! ```
//!
//! The vendored `serde_json` stub has no parser, so the snapshot's fixed
//! shape is scanned directly: objects with a `"name"` string and a
//! `"median_ns"` number ([`cosmos_bench::parse`], shared with the
//! registry's own test).

use cosmos_bench::parse;
use std::process::ExitCode;

fn load(path: &str) -> Vec<(String, f64)> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let rows = parse(&body);
    assert!(!rows.is_empty(), "no benchmark entries found in {path}");
    rows
}

/// One compared benchmark: name, baseline ns, current ns, and the
/// speed-adjusted delta percentage (the single place that formula lives).
struct Row {
    name: String,
    base: f64,
    cur: f64,
    delta: f64,
}

impl Row {
    fn new(name: &str, base: f64, cur: f64, speed: f64) -> Self {
        let adjusted = base * speed;
        let delta = (cur - adjusted) / adjusted * 100.0;
        Self { name: name.to_string(), base, cur, delta }
    }
}

/// The benchmarks that got *faster*, best first — the rows whose adjusted
/// delta is negative. Reported alongside regressions so wins — e.g. a
/// churn optimization landing a 10× drop — are visible in CI output, not
/// just silently "ok".
fn top_improvements(rows: &[Row]) -> Vec<&Row> {
    let mut wins: Vec<&Row> = rows.iter().filter(|r| r.delta < 0.0).collect();
    wins.sort_by(|a, b| a.delta.total_cmp(&b.delta));
    wins
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: bench_check <baseline.json> <current.json> [tolerance-percent]");
        return ExitCode::FAILURE;
    }
    let tolerance: f64 = args.get(3).map_or(25.0, |t| t.parse().expect("numeric tolerance"));
    let baseline = load(&args[1]);
    let current = load(&args[2]);
    // Machine-speed factor: the median current/baseline ratio over shared
    // benchmarks, clamped so the guard stays meaningful.
    let mut ratios: Vec<f64> = baseline
        .iter()
        .filter_map(|(name, base)| {
            current.iter().find(|(n, _)| n == name).map(|(_, cur)| cur / base)
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speed = if ratios.is_empty() { 1.0 } else { ratios[ratios.len() / 2] }.clamp(0.25, 4.0);
    println!("machine-speed factor (median ratio): {speed:.3}");
    let mut failed = false;
    let mut missing: Vec<&str> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for (name, base) in &baseline {
        match current.iter().find(|(n, _)| n == name) {
            None => missing.push(name),
            Some((_, cur)) => rows.push(Row::new(name, *base, *cur, speed)),
        }
    }
    for row in &rows {
        let Row { name, base, cur, delta } = row;
        let verdict = if *delta > tolerance {
            failed = true;
            "FAIL "
        } else {
            "ok   "
        };
        println!("{verdict}{name}: {base:.0} -> {cur:.0} ns ({delta:+.1}% vs speed-adjusted)");
    }
    for (name, cur) in &current {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("new   {name}: {cur:.0} ns (no baseline; tolerated)");
        }
    }
    let wins = top_improvements(&rows);
    if !wins.is_empty() {
        println!("top improvements (speed-adjusted):");
        for Row { name, base, cur, delta } in wins.iter().take(3) {
            println!("  {name}: {base:.0} -> {cur:.0} ns ({delta:+.1}%)");
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "bench_check: {} baseline benchmark(s) missing from the current run:",
            missing.len()
        );
        for name in &missing {
            eprintln!("  MISSING {name}");
        }
        eprintln!("(removed or renamed? regenerate and commit the baseline alongside)");
        return ExitCode::FAILURE;
    }
    if failed {
        eprintln!("bench_check: regression beyond {tolerance:.0}% tolerance");
        return ExitCode::FAILURE;
    }
    println!("bench_check: within {tolerance:.0}% tolerance");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn parses_snapshot_shape() {
        let body = r#"{
  "benchmarks": [
    { "name": "a/b", "median_ns": 123.5 },
    { "name": "c", "median_ns": 7 }
  ]
}"#;
        assert_eq!(parse(body), vec![("a/b".to_string(), 123.5), ("c".to_string(), 7.0)]);
    }

    #[test]
    fn tolerates_noise_text() {
        assert!(parse("no benchmarks here").is_empty());
    }

    #[test]
    fn improvements_ranked_best_first() {
        let rows = |speed: f64| {
            vec![
                super::Row::new("steady", 100.0, 100.0, speed),
                super::Row::new("small-win", 100.0, 80.0, speed),
                super::Row::new("big-win", 1000.0, 100.0, speed),
                super::Row::new("regressed", 100.0, 150.0, speed),
            ]
        };
        let rows_even = rows(1.0);
        let wins = super::top_improvements(&rows_even);
        let names: Vec<&str> = wins.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["big-win", "small-win"], "best first; non-wins excluded");
        assert!((wins[0].delta - -90.0).abs() < 1e-9);
        // A speed factor below 1 (baseline machine was slower) turns the
        // small win into a wash; only the big one survives adjustment.
        let rows_adjusted = rows(0.5);
        let wins = super::top_improvements(&rows_adjusted);
        let names: Vec<&str> = wins.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["big-win"]);
    }
}
