//! The one trial runner of the randomized differential suites, and the
//! draws more than one suite makes. A suite is a named loop of trials, each
//! a pure function of its index (drawn from `rng_for(trial, suite)`), that
//! marks its progress with [`step`]; [`run`] replays one trial alone when
//! `COSMOS_REPLAY=<suite>:<trial>` names it.

use cosmos_net::{NodeId, Topology};
use cosmos_query::Scalar;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The op index that stands for a trial's checks after its last op.
pub const FINAL: u32 = u32::MAX;

thread_local! {
    /// Op index of the step the running trial is in, for failure reports.
    static OP: Cell<u32> = const { Cell::new(0) };
}

/// `true` under `COSMOS_STRESS=1`: suites run more and longer trials.
pub fn stress() -> bool {
    std::env::var("COSMOS_STRESS").is_ok_and(|v| v == "1")
}

/// Marks the running trial as being at op `op` ([`FINAL`] once its
/// schedule is done).
pub fn step(op: u32) {
    OP.set(op);
}

/// Runs trials `0..trials` of `suite`, or only the one `COSMOS_REPLAY`
/// names (a replay of another suite runs this one in full). A failing trial
/// prints its op and the command that replays it alone, in the same build
/// and at the same size, before its panic goes on. Returns whether every
/// trial ran: a suite asserts its activity floors only on a full run.
pub fn run(suite: &str, trials: u64, trial: impl FnMut(u64)) -> bool {
    let replay = std::env::var("COSMOS_REPLAY").ok();
    run_selected(suite, trials, replayed(replay.as_deref(), suite), trial)
}

/// The trial of `suite` that a `COSMOS_REPLAY` value names, if any.
fn replayed(replay: Option<&str>, suite: &str) -> Option<u64> {
    let (name, trial) = replay?.rsplit_once(':')?;
    let parse = || trial.parse().unwrap_or_else(|_| panic!("COSMOS_REPLAY={name}:{trial}"));
    (name == suite).then(parse)
}

fn run_selected(suite: &str, trials: u64, only: Option<u64>, mut trial: impl FnMut(u64)) -> bool {
    if let Some(t) = only {
        assert!(t < trials, "COSMOS_REPLAY={suite}:{t}, but {suite} runs {trials} trials");
    }
    for t in (0..trials).filter(|&t| only.is_none_or(|o| o == t)) {
        OP.set(0);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| trial(t))) {
            let op = OP.get();
            let at = if op == FINAL { "the final checks".to_owned() } else { format!("op {op}") };
            let replay = command(suite, t);
            eprintln!("{suite} trial {t} failed at {at}; replay it with\n    {replay}");
            resume_unwind(panic);
        }
    }
    only.is_none()
}

/// The command that runs trial `t` of `suite` alone, in the build profile
/// and at the size of the running process.
fn command(suite: &str, t: u64) -> String {
    let stress = if stress() { " COSMOS_STRESS=1" } else { "" };
    let release = if cfg!(debug_assertions) { "" } else { " --release" };
    let mut cmd = format!("COSMOS_REPLAY={suite}:{t}{stress} cargo test{release}");
    let package = std::env::var("CARGO_PKG_NAME").ok();
    if let Some(package) = &package {
        cmd += &format!(" -p {package}");
    }
    let exe = std::env::current_exe().ok();
    let stem = exe.as_deref().and_then(|e| e.file_stem()?.to_str());
    if let Some(target) = target_arg(package.as_deref(), stem) {
        cmd += &format!(" {target}");
    }
    // The test harness names each test's thread after the test.
    if let Some(test) = std::thread::current().name().filter(|&n| n != "main") {
        cmd += &format!(" -- --exact {test}");
    }
    cmd
}

/// The `cargo test` flag that selects the test binary whose file stem is
/// `stem`: its target's name plus the hash cargo appends, where a crate's
/// unit tests run in a binary named after its library (`--lib`) and an
/// integration test in one named after its file (`--test <file>`).
fn target_arg(package: Option<&str>, stem: Option<&str>) -> Option<String> {
    let (target, _hash) = stem?.rsplit_once('-')?;
    let lib = package.is_some_and(|p| p.replace('-', "_") == target);
    Some(if lib { "--lib".to_owned() } else { format!("--test {target}") })
}

/// A random connected topology of `nodes` brokers: a spanning tree plus up
/// to `extra_edges` more links, which give failures paths to re-route over.
pub fn random_topology(rng: &mut StdRng, nodes: Range<u32>, extra_edges: Range<u32>) -> Topology {
    let n = rng.gen_range(nodes);
    let mut topo = Topology::new(n as usize);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        topo.add_edge(NodeId(i), NodeId(j), rng.gen_range(1.0..5.0));
    }
    for _ in 0..rng.gen_range(extra_edges) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && topo.edge_latency(NodeId(a), NodeId(b)).is_none() {
            topo.add_edge(NodeId(a), NodeId(b), rng.gen_range(1.0..5.0));
        }
    }
    topo
}

/// A value in -5..45: an integer, or a float three times in ten.
pub fn random_scalar(rng: &mut StdRng) -> Scalar {
    if rng.gen_bool(0.3) {
        Scalar::Float(rng.gen_range(-5.0..45.0))
    } else {
        Scalar::Int(rng.gen_range(-5i64..45))
    }
}

/// Every link of `topo` once, as `(lower, higher)` endpoints.
pub fn edges_of(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for u in topo.nodes() {
        for (v, _) in topo.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replay_runs_one_trial_of_its_own_suite() {
        assert_eq!(replayed(None, "chaos"), None);
        assert_eq!(replayed(Some("chaos:3"), "chaos"), Some(3));
        assert_eq!(replayed(Some("chaos:3"), "chaos-replay"), None);
        let ran = |only| {
            let mut ran = Vec::new();
            (run_selected("chaos", 5, only, |t| ran.push(t)), ran)
        };
        assert_eq!(ran(None), (true, vec![0, 1, 2, 3, 4]));
        assert_eq!(ran(Some(3)), (false, vec![3]));
    }

    #[test]
    #[should_panic(expected = "COSMOS_REPLAY=chaos:x")]
    fn a_replay_of_this_suite_names_a_trial_number() {
        replayed(Some("chaos:x"), "chaos");
    }

    #[test]
    fn a_replay_names_the_binary_the_trial_ran_in() {
        let arg = |stem| target_arg(Some("cosmos-core"), Some(stem));
        assert_eq!(arg("cosmos_core-0f1e2d3c4b5a6978").as_deref(), Some("--lib"));
        assert_eq!(arg("coarsen_dense-0f1e2d3c4b5a6978").as_deref(), Some("--test coarsen_dense"));
        assert_eq!(target_arg(None, Some("chaos-0f1e")).as_deref(), Some("--test chaos"));
        assert_eq!(arg("nohash"), None);
    }

    #[test]
    fn a_failing_trial_ends_the_run_with_its_own_panic() {
        let mut ran = Vec::new();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_selected("chaos", 5, None, |t| {
                ran.push(t);
                assert!(t != 2, "planted");
            })
        }));
        assert_eq!(*run.unwrap_err().downcast::<&str>().unwrap(), "planted");
        assert_eq!(ran, [0, 1, 2]);
    }
}
