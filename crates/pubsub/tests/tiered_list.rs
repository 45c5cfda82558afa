//! Differential twin suite for the tiered threshold lists: a
//! [`TieredList`] driven through randomized insert / tombstone / sweep /
//! probe interleavings against a dense sorted `Vec` reference applying
//! the original `partition_point` semantics. The tiered layout must hold
//! the **identical global element order** (equal keys included — inserts
//! land before stored equal keys, exactly like the dense
//! `partition_point(total_cmp is_lt)` insert), and every walk must yield
//! the same elements in the same order as the dense range it replaces:
//! the counting index's numeric prefix/suffix/equal probes and the
//! covering probes' `total_cmp` ones, `-0.0`/`0.0` included. NaN keys
//! are excluded by construction (the routing index drops NaN thresholds
//! before the lists ever see them),
//! so the twin pins NaN handling at the probe side only.

use cosmos_oracle::trial;
use cosmos_pubsub::tiered::{TieredList, RUN_MAX};
use cosmos_util::rng::rng_for;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// The dense reference: the exact layout and insert rule the routing
/// index used before the tiered conversion.
#[derive(Default)]
struct DenseTwin(Vec<(f64, u32)>);

impl DenseTwin {
    fn insert(&mut self, key: f64, value: u32) {
        let at = self.0.partition_point(|(k, _)| k.total_cmp(&key).is_lt());
        self.0.insert(at, (key, value));
    }

    fn retain_vals(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.0.retain(|&(_, v)| keep(v));
    }
}

/// Element-for-element equality, keys compared bitwise so `-0.0` and
/// `0.0` stay distinguishable.
fn assert_same_elements(tiered: &TieredList, dense: &DenseTwin, ctx: &str) {
    assert_eq!(tiered.len(), dense.0.len(), "{ctx}: length");
    let got: Vec<(u64, u32)> = tiered.iter().map(|(k, v)| (k.to_bits(), v)).collect();
    let want: Vec<(u64, u32)> = dense.0.iter().map(|&(k, v)| (k.to_bits(), v)).collect();
    assert_eq!(got, want, "{ctx}: global element order");
}

/// Compares every walk family against the dense `partition_point`
/// windows for one probe value: the numeric match probes (`<`, `<=`,
/// `>`, `>=`, `=`) and the `total_cmp` covering probes.
fn assert_same_walks(tiered: &TieredList, dense: &DenseTwin, v: f64, ctx: &str) {
    let collect = |walk: &dyn Fn(&mut Vec<u32>)| {
        let mut out = Vec::new();
        walk(&mut out);
        out
    };
    let vals = |r: &[(f64, u32)]| r.iter().map(|&(_, m)| m).collect::<Vec<u32>>();

    // Numeric: `attr > t` ⇔ prefix t < v.
    let got = collect(&|out| tiered.for_prefix(|k| k < v, |run| out.extend(vals(run))));
    let end = dense.0.partition_point(|(k, _)| *k < v);
    assert_eq!(got, vals(&dense.0[..end]), "{ctx}: prefix k < {v}");
    // `attr >= t` ⇔ prefix t <= v.
    let got = collect(&|out| tiered.for_prefix(|k| k <= v, |run| out.extend(vals(run))));
    let end = dense.0.partition_point(|(k, _)| *k <= v);
    assert_eq!(got, vals(&dense.0[..end]), "{ctx}: prefix k <= {v}");
    // `attr < t` ⇔ suffix t > v.
    let got = collect(&|out| tiered.for_suffix(|k| k > v, |run| out.extend(vals(run))));
    let start = dense.0.partition_point(|(k, _)| *k <= v);
    assert_eq!(got, vals(&dense.0[start..]), "{ctx}: suffix k > {v}");
    // `attr <= t` ⇔ suffix t >= v.
    let got = collect(&|out| tiered.for_suffix(|k| k >= v, |run| out.extend(vals(run))));
    let start = dense.0.partition_point(|(k, _)| *k < v);
    assert_eq!(got, vals(&dense.0[start..]), "{ctx}: suffix k >= {v}");
    // `attr = t` ⇔ the numeric equal range.
    let got = collect(&|out| {
        tiered.for_eq(|k| k < v, |k| k <= v, |run| out.extend(vals(run)));
    });
    let lo = dense.0.partition_point(|(k, _)| *k < v);
    let hi = dense.0.partition_point(|(k, _)| *k <= v);
    assert_eq!(got, vals(&dense.0[lo..hi]), "{ctx}: eq {v}");

    // Covering probes: total_cmp orderings (the covering bound walks).
    let got = collect(&|out| {
        tiered.for_prefix(|k| k.total_cmp(&v).is_le(), |run| out.extend(vals(run)));
    });
    let end = dense.0.partition_point(|(k, _)| k.total_cmp(&v).is_le());
    assert_eq!(got, vals(&dense.0[..end]), "{ctx}: total_cmp prefix <= {v}");
    let got = collect(&|out| {
        tiered.for_suffix(|k| k.total_cmp(&v).is_ge(), |run| out.extend(vals(run)));
    });
    let start = dense.0.partition_point(|(k, _)| k.total_cmp(&v).is_lt());
    assert_eq!(got, vals(&dense.0[start..]), "{ctx}: total_cmp suffix >= {v}");
    let got = collect(&|out| {
        tiered.for_eq(
            |k| k.total_cmp(&v).is_lt(),
            |k| k.total_cmp(&v).is_le(),
            |run| out.extend(vals(run)),
        );
    });
    let lo = dense.0.partition_point(|(k, _)| k.total_cmp(&v).is_lt());
    let hi = dense.0.partition_point(|(k, _)| k.total_cmp(&v).is_le());
    assert_eq!(got, vals(&dense.0[lo..hi]), "{ctx}: total_cmp eq {v}");
}

/// Key pool biased toward collisions and the signed-zero pair, so runs
/// fill with long equal-key stretches and every boundary case fires.
fn random_key(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..10) {
        0 => -0.0,
        1 => 0.0,
        2..=5 => f64::from(rng.gen_range(-20i32..20)),
        _ => rng.gen_range(-1_000.0..1_000.0),
    }
}

/// The randomized interleaving driver: inserts (collision-heavy keys),
/// tombstones applied through per-run sweeps, and probe checks after
/// every phase, across populations crossing several run splits.
#[test]
fn tiered_list_equals_dense_twin_under_churn() {
    let probes = [-0.0, 0.0, -1.0, 5.0, 19.0, -1_000.0, 1_000.0, 0.5];
    trial::run("tiered-twin", 12, |trial| {
        let mut rng = rng_for(trial, "tiered-twin");
        let mut tiered = TieredList::new();
        let mut dense = DenseTwin::default();
        let mut next_val = 0u32;
        for phase in 0..rng.gen_range(3u32..7) {
            trial::step(phase);
            // Insert burst: enough to split runs several times over.
            for _ in 0..rng.gen_range(1..3 * RUN_MAX) {
                let k = random_key(&mut rng);
                tiered.insert(k, next_val);
                dense.insert(k, next_val);
                next_val += 1;
            }
            let ctx = format!("trial {trial} phase {phase} after inserts");
            assert_same_elements(&tiered, &dense, &ctx);
            for &v in &probes {
                assert_same_walks(&tiered, &dense, v, &ctx);
            }
            // Tombstone sweep: kill a random residue class, as the
            // index's `sweep_dead` does when tombstones dominate.
            let (m, r) = (rng.gen_range(2u32..7), rng.gen_range(0u32..2));
            tiered.retain_vals(|val| val % m != r);
            dense.retain_vals(|val| val % m != r);
            let ctx = format!("trial {trial} phase {phase} after sweep % {m} != {r}");
            assert_same_elements(&tiered, &dense, &ctx);
            for &v in &probes {
                assert_same_walks(&tiered, &dense, v, &ctx);
            }
        }
    });
}

#[derive(Debug, Clone)]
enum Op {
    Insert(f64),
    Sweep { modulus: u32, residue: u32 },
    Probe(f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Key distribution mirrors `random_key`: signed zeros, a small
    // collision-heavy integer band, and a wide float band.
    (0u32..9, 0u32..10, -1_000.0..1_000.0f64, -15i32..15, 2u32..6, 0u32..3).prop_map(
        |(kind, key_kind, wide, narrow, modulus, residue)| {
            let key = match key_kind {
                0 => -0.0,
                1 => 0.0,
                2..=5 => f64::from(narrow),
                _ => wide,
            };
            match kind {
                0..=5 => Op::Insert(key),
                6 => Op::Sweep { modulus, residue },
                _ => Op::Probe(key),
            }
        },
    )
}

proptest! {
    /// Property form of the twin: any interleaving of inserts, sweeps,
    /// and probes keeps the tiered list element-identical to the dense
    /// reference and every walk window equal.
    #[test]
    fn tiered_twin_holds_for_arbitrary_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut tiered = TieredList::new();
        let mut dense = DenseTwin::default();
        let mut next_val = 0u32;
        for op in &ops {
            match *op {
                Op::Insert(k) => {
                    tiered.insert(k, next_val);
                    dense.insert(k, next_val);
                    next_val += 1;
                }
                Op::Sweep { modulus, residue } => {
                    tiered.retain_vals(|v| v % modulus != residue);
                    dense.retain_vals(|v| v % modulus != residue);
                }
                Op::Probe(v) => assert_same_walks(&tiered, &dense, v, "proptest"),
            }
        }
        assert_same_elements(&tiered, &dense, "proptest final");
        assert_same_walks(&tiered, &dense, 0.0, "proptest final");
    }
}
