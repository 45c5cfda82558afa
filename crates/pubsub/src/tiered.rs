//! Tiered sorted threshold lists: the storage layout behind the counting
//! match index — and the covering probes run over it — at large
//! populations.
//!
//! # Why
//!
//! The routing index keeps sorted `(threshold, member)` lists per
//! `(attribute, operator)` — binary-searched on the match path, which is
//! cheap at any size, but *inserted into* on every install. A dense `Vec`
//! pays an O(list) memmove per insert: invisible at the 5000-subscription
//! bench points, linear at the 100k–1M populations the paper assumes. A
//! node near a stream source accumulates the forwarding entries of the
//! whole population, so at scale a single subscribe was moving megabytes.
//!
//! # Layout
//!
//! A [`TieredList`] is a sequence of sorted **runs** of bounded size
//! ([`RUN_MAX`]) under a fan-out **directory** of run-minimum keys:
//!
//! ```text
//! mins: [ k0,        k1,        k2,  ... ]   (directory, one key per run)
//! runs: [ [k0 ..],   [k1 ..],   [k2 ..] ]   (sorted, ≤ RUN_MAX entries)
//! ```
//!
//! An insert binary-searches the directory, then memmoves **at most one
//! run** (splitting a full run in half); a lookup or range walk descends
//! the directory and binary-searches within the boundary runs only. Small
//! lists are a single run — exactly the dense layout, one flat
//! binary-searched scan, so small partitions pay no directory overhead
//! at all.
//!
//! Keys are ordered by [`f64::total_cmp`] and the insertion point falls
//! *before* any equal keys, exactly as the dense lists' `partition_point`
//! did — a tiered list holds its elements in the **identical global
//! order** as the dense `Vec` it replaces, so every walk that was
//! bit-identical before stays bit-identical (asserted element-for-element
//! by the differential twin suite in `tests/tiered_list.rs`).
//!
//! # Range walks
//!
//! Callers probe with monotone key predicates: [`TieredList::for_prefix`]
//! (a downward-closed predicate: satisfied keys form a prefix),
//! [`TieredList::for_suffix`] (upward-closed), and [`TieredList::for_eq`]
//! (an equal range bracketed by a strict/non-strict predicate pair). Each
//! walk visits whole interior runs and binary-searches only the boundary
//! runs, and yields run *slices* in ascending key order — the counting
//! walk's bump loop consumes the same contiguous `&[(f64, u32)]` windows
//! it consumed before. Both the numeric orderings (`<`, `<=`: the match
//! probes) and the `total_cmp` orderings (the covering probes) are
//! monotone along the storage order, `-0.0`/`0.0` included, so one walk
//! implementation serves both probe families.
//!
//! # Tombstones
//!
//! The lists store member references whose liveness the *owner* tracks;
//! dead references are skipped during walks and swept by
//! [`TieredList::retain_vals`] — per-run compaction: each run is retained
//! in place, emptied runs are dropped, and adjacent underfull runs merge.
//! No global rebuild, no order change among survivors. Owners trigger the
//! sweep with the same [`tombstones_dominate`] policy that governs every
//! other compaction in the routing plane.

/// Maximum entries per run: the bound on the memmove a single insert can
/// pay. Splits produce two half-full runs, so steady-state runs hold
/// 128–256 entries — small enough that one run is a couple of cache
/// lines' worth of work, large enough that the directory stays tiny
/// (a 1M-entry list has a ~8k-key directory).
pub const RUN_MAX: usize = 256;

/// Minimum tombstone count before any compaction is worth considering:
/// below this, rebuilds would churn more than the stale references cost.
const COMPACT_MIN_DEAD: usize = 16;

/// The single compaction policy of the routing plane: a tombstone
/// population *dominates* once it is past the fixed floor **and** at
/// least half the stored total. The routing table and the per-run sweeps
/// of the tiered threshold lists both compact on exactly this rule.
pub fn tombstones_dominate(dead: usize, total: usize) -> bool {
    dead > COMPACT_MIN_DEAD && dead * 2 >= total
}

/// A sorted `(key, value)` list stored as bounded runs under a directory
/// of run-minimum keys. See the module docs for the layout and the
/// ordering contract.
#[derive(Debug, Default)]
pub struct TieredList {
    /// Sorted runs in ascending key order; every run is non-empty and
    /// holds at most [`RUN_MAX`] entries.
    runs: Vec<Vec<(f64, u32)>>,
    /// `mins[i]` is `runs[i][0].0` — the fan-out directory.
    mins: Vec<f64>,
    len: usize,
}

impl TieredList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `(key, value)` at the position the dense list's
    /// `partition_point(total_cmp is_lt)` would have chosen — before any
    /// equal keys — memmoving at most one run and splitting it when full.
    pub fn insert(&mut self, key: f64, value: u32) {
        self.len += 1;
        if self.runs.is_empty() {
            self.runs.push(vec![(key, value)]);
            self.mins.push(key);
            return;
        }
        // The last run whose minimum is strictly below the key holds the
        // insertion point (equal-key ties land at the end of that run,
        // which still precedes every stored equal key globally); a key
        // below every minimum goes to the front of the first run.
        let r = self.mins.partition_point(|m| m.total_cmp(&key).is_lt()).saturating_sub(1);
        let run = &mut self.runs[r];
        let at = run.partition_point(|(k, _)| k.total_cmp(&key).is_lt());
        run.insert(at, (key, value));
        self.mins[r] = run[0].0;
        if run.len() > RUN_MAX {
            let tail = run.split_off(run.len() / 2);
            self.mins.insert(r + 1, tail[0].0);
            self.runs.insert(r + 1, tail);
        }
    }

    /// All entries in ascending key order — identical, element for
    /// element, to the dense list this layout replaces.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.runs.iter().flatten().copied()
    }

    /// Visits the maximal prefix whose keys satisfy `pred` (which must be
    /// downward-closed along the storage order: once false, false for all
    /// larger keys), as run slices in ascending key order. Whole interior
    /// runs are passed without inspection; only the boundary run is
    /// binary-searched.
    pub fn for_prefix(&self, pred: impl Fn(f64) -> bool, mut f: impl FnMut(&[(f64, u32)])) {
        // Number of runs whose *minimum* satisfies the predicate: every
        // run before the last of those is entirely inside the prefix
        // (its keys are bounded by the next run's satisfying minimum).
        let r = self.mins.partition_point(|m| pred(*m));
        if r == 0 {
            return;
        }
        for run in &self.runs[..r - 1] {
            f(run);
        }
        let boundary = &self.runs[r - 1];
        let end = boundary.partition_point(|(k, _)| pred(*k));
        if end > 0 {
            f(&boundary[..end]);
        }
    }

    /// Visits the maximal suffix whose keys satisfy `pred` (upward-closed
    /// along the storage order), as run slices in ascending key order.
    pub fn for_suffix(&self, pred: impl Fn(f64) -> bool, mut f: impl FnMut(&[(f64, u32)])) {
        // Runs whose minimum fails the predicate: all but the last are
        // entirely outside the suffix; from the first satisfying minimum
        // on, runs are entirely inside.
        let s = self.mins.partition_point(|m| !pred(*m));
        if s > 0 {
            let boundary = &self.runs[s - 1];
            let start = boundary.partition_point(|(k, _)| !pred(*k));
            if start < boundary.len() {
                f(&boundary[start..]);
            }
        }
        for run in &self.runs[s..] {
            f(run);
        }
    }

    /// Visits the equal range bracketed by a strict/non-strict predicate
    /// pair — `lt(k)` ⇔ `k` is strictly below the probe, `le(k)` ⇔ `k`
    /// is at or below it — as run slices in ascending key order. This is
    /// the dense list's `[partition_point(lt), partition_point(le))`
    /// window, which may span runs.
    pub fn for_eq(
        &self,
        lt: impl Fn(f64) -> bool,
        le: impl Fn(f64) -> bool,
        mut f: impl FnMut(&[(f64, u32)]),
    ) {
        let start = self.mins.partition_point(|m| lt(*m)).saturating_sub(1);
        let end = self.mins.partition_point(|m| le(*m));
        for run in &self.runs[start..end] {
            let lo = run.partition_point(|(k, _)| lt(*k));
            let hi = run.partition_point(|(k, _)| le(*k));
            if lo < hi {
                f(&run[lo..hi]);
            }
        }
    }

    /// Releases growth slack: the runs and directory keep what they hold.
    pub fn shrink_to_fit(&mut self) {
        self.runs.iter_mut().for_each(Vec::shrink_to_fit);
        self.runs.shrink_to_fit();
        self.mins.shrink_to_fit();
    }

    /// Per-run tombstone sweep: retains the entries `keep` accepts, in
    /// place, run by run; emptied runs are dropped and adjacent underfull
    /// survivors merged (never past the split steady state, so a sweep
    /// cannot force the next insert to immediately re-split). Relative
    /// order of survivors is unchanged.
    pub fn retain_vals(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let mut swept: Vec<Vec<(f64, u32)>> = Vec::with_capacity(self.runs.len());
        for mut run in self.runs.drain(..) {
            run.retain(|&(_, v)| keep(v));
            if run.is_empty() {
                continue;
            }
            match swept.last_mut() {
                Some(prev) if prev.len() + run.len() <= RUN_MAX / 2 => prev.extend(run),
                _ => swept.push(run),
            }
        }
        self.runs = swept;
        self.mins.clear();
        self.mins.extend(self.runs.iter().map(|r| r[0].0));
        self.len = self.runs.iter().map(Vec::len).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(list: &TieredList) -> Vec<(f64, u32)> {
        list.iter().collect()
    }

    #[test]
    fn insert_matches_dense_partition_point_order() {
        let keys = [5.0, 1.0, 3.0, 3.0, -2.0, 3.0, 9.0, -0.0, 0.0, 7.5];
        let mut tiered = TieredList::new();
        let mut oracle: Vec<(f64, u32)> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            tiered.insert(k, i as u32);
            let at = oracle.partition_point(|(t, _)| t.total_cmp(&k).is_lt());
            oracle.insert(at, (k, i as u32));
        }
        assert_eq!(dense(&tiered).len(), oracle.len());
        for (a, b) in dense(&tiered).iter().zip(&oracle) {
            assert_eq!(a.0.total_cmp(&b.0), std::cmp::Ordering::Equal);
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn runs_split_and_stay_bounded() {
        let mut list = TieredList::new();
        for i in 0..10_000u32 {
            // Adversarial order: alternating ends plus a dense middle.
            let k = match i % 3 {
                0 => f64::from(i),
                1 => -f64::from(i),
                _ => f64::from(i % 7),
            };
            list.insert(k, i);
        }
        assert_eq!(list.len(), 10_000);
        assert!(list.runs.iter().all(|r| !r.is_empty() && r.len() <= RUN_MAX));
        assert_eq!(list.mins.len(), list.runs.len());
        for (i, run) in list.runs.iter().enumerate() {
            assert_eq!(list.mins[i].total_cmp(&run[0].0), std::cmp::Ordering::Equal);
            assert!(run.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()));
        }
        let flat = dense(&list);
        assert!(flat.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()));
    }

    #[test]
    fn walks_match_dense_partition_points() {
        let mut list = TieredList::new();
        let mut oracle: Vec<(f64, u32)> = Vec::new();
        for i in 0..3_000u32 {
            let k = f64::from(i % 600) / 2.0;
            list.insert(k, i);
            let at = oracle.partition_point(|(t, _)| t.total_cmp(&k).is_lt());
            oracle.insert(at, (k, i));
        }
        for v in [0.0, 0.25, 150.0, 299.5, -1.0, 1_000.0] {
            let mut got: Vec<u32> = Vec::new();
            list.for_prefix(|k| k < v, |run| got.extend(run.iter().map(|&(_, m)| m)));
            let end = oracle.partition_point(|(t, _)| *t < v);
            let want: Vec<u32> = oracle[..end].iter().map(|&(_, m)| m).collect();
            assert_eq!(got, want, "prefix < {v}");

            let mut got: Vec<u32> = Vec::new();
            list.for_suffix(|k| k >= v, |run| got.extend(run.iter().map(|&(_, m)| m)));
            let start = oracle.partition_point(|(t, _)| *t < v);
            let want: Vec<u32> = oracle[start..].iter().map(|&(_, m)| m).collect();
            assert_eq!(got, want, "suffix >= {v}");

            let mut got: Vec<u32> = Vec::new();
            list.for_eq(|k| k < v, |k| k <= v, |run| got.extend(run.iter().map(|&(_, m)| m)));
            let lo = oracle.partition_point(|(t, _)| *t < v);
            let hi = oracle.partition_point(|(t, _)| *t <= v);
            let want: Vec<u32> = oracle[lo..hi].iter().map(|&(_, m)| m).collect();
            assert_eq!(got, want, "eq {v}");
        }
    }

    #[test]
    fn signed_zero_walks_are_symmetric() {
        // Storage order is total_cmp (-0.0 before 0.0); numeric probes
        // must treat the pair as one equal range.
        let mut list = TieredList::new();
        list.insert(0.0, 0);
        list.insert(-0.0, 1);
        list.insert(-1.0, 2);
        list.insert(1.0, 3);
        let mut got: Vec<u32> = Vec::new();
        list.for_eq(|k| k < 0.0, |k| k <= 0.0, |run| got.extend(run.iter().map(|&(_, m)| m)));
        assert_eq!(got, vec![1, 0], "both zeros in the equal range, storage order");
        let mut got: Vec<u32> = Vec::new();
        list.for_prefix(|k| k < -0.0, |run| got.extend(run.iter().map(|&(_, m)| m)));
        assert_eq!(got, vec![2], "numeric < -0.0 excludes both zeros");
        let mut got: Vec<u32> = Vec::new();
        list.for_suffix(|k| k >= -0.0, |run| got.extend(run.iter().map(|&(_, m)| m)));
        assert_eq!(got, vec![1, 0, 3], "numeric >= -0.0 includes both zeros");
    }

    #[test]
    fn retain_vals_sweeps_per_run_and_merges() {
        let mut list = TieredList::new();
        for i in 0..5_000u32 {
            list.insert(f64::from(i), i);
        }
        let runs_before = list.runs.len();
        list.retain_vals(|v| v % 5 == 0);
        assert_eq!(list.len(), 1_000);
        assert!(list.runs.len() < runs_before, "underfull neighbours merged");
        assert!(list.runs.iter().all(|r| !r.is_empty() && r.len() <= RUN_MAX));
        let flat = dense(&list);
        assert!(flat.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(flat.iter().all(|&(_, v)| v % 5 == 0));
        // Survivor order unchanged.
        assert_eq!(
            flat.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            (0..5_000).step_by(5).collect::<Vec<u32>>()
        );
        // Sweeping everything leaves a valid empty list that still accepts inserts.
        list.retain_vals(|_| false);
        assert!(list.is_empty());
        list.insert(3.0, 7);
        assert_eq!(dense(&list), vec![(3.0, 7)]);
    }

    #[test]
    fn compaction_policy_boundaries() {
        // The floor: at or below COMPACT_MIN_DEAD tombstones, never.
        assert!(!tombstones_dominate(COMPACT_MIN_DEAD, 0));
        assert!(!tombstones_dominate(16, 20));
        // Above the floor, domination needs dead * 2 >= total.
        assert!(tombstones_dominate(17, 34));
        assert!(!tombstones_dominate(17, 35));
        assert!(tombstones_dominate(20, 40));
        assert!(!tombstones_dominate(20, 41));
        assert!(tombstones_dominate(100, 100));
    }
}
