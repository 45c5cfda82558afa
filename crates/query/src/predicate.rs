//! Predicate evaluation and implication.
//!
//! Implication powers two paper mechanisms:
//!
//! 1. **Subscription covering** in the Pub/Sub: a node only propagates a
//!    subscription to its neighbor if no already-forwarded subscription
//!    covers it (Siena semantics, §1.2).
//! 2. **Query containment** for result-stream sharing (§2.1): query `Q`
//!    covers `Q'` only when `Q`'s filters are implied by `Q'`'s.

use crate::ast::{AttrRef, CmpOp, Predicate, Scalar};
use cosmos_util::intern::Symbol;

/// Source of attribute values for predicate evaluation: a (joined) tuple.
pub trait AttrSource {
    /// The value bound to `attr`, or `None` when absent.
    fn value(&self, attr: &AttrRef) -> Option<Scalar>;

    /// The timestamp (ms) of the tuple from relation `alias`, or `None`.
    fn timestamp(&self, alias: Symbol) -> Option<i64>;
}

/// Compares two scalars under `op`; `None` when the types are incomparable.
pub fn compare(op: CmpOp, l: &Scalar, r: &Scalar) -> Option<bool> {
    match (l, r) {
        (Scalar::Str(a), Scalar::Str(b)) => match op {
            CmpOp::Eq => Some(a == b),
            CmpOp::Ne => Some(a != b),
            CmpOp::Lt => Some(a < b),
            CmpOp::Le => Some(a <= b),
            CmpOp::Gt => Some(a > b),
            CmpOp::Ge => Some(a >= b),
        },
        _ => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            Some(op.eval_f64(a, b))
        }
    }
}

/// Evaluates one predicate against a tuple.
///
/// Returns `None` if a referenced attribute/timestamp is missing or the
/// comparison is type-incoherent — callers treat that as "does not satisfy".
pub fn eval_predicate<S: AttrSource>(p: &Predicate, src: &S) -> Option<bool> {
    match p {
        Predicate::Cmp { attr, op, value } => compare(*op, &src.value(attr)?, value),
        Predicate::JoinCmp { left, op, right } => {
            compare(*op, &src.value(left)?, &src.value(right)?)
        }
        Predicate::TimeDelta { left, right, min_ms, max_ms } => {
            let delta = src.timestamp(*left)? - src.timestamp(*right)?;
            Some(*min_ms <= delta && delta <= *max_ms)
        }
    }
}

/// Returns `true` if predicate `p` logically implies predicate `q`
/// (every tuple satisfying `p` satisfies `q`).
///
/// Sound but not complete: it reasons about pairs of comparison predicates
/// over the *same attribute* (numeric or string) and syntactic equality for
/// join / time-delta predicates (including the flipped form of a join
/// comparison). `false` answers may be spurious; `true` answers are always
/// correct — exactly the property covering/containment needs.
pub fn implies(p: &Predicate, q: &Predicate) -> bool {
    if p == q {
        return true;
    }
    match (p, q) {
        (
            Predicate::Cmp { attr: ap, op: op1, value: c1 },
            Predicate::Cmp { attr: aq, op: op2, value: c2 },
        ) if ap == aq => implies_cmp(*op1, c1, *op2, c2),
        (
            Predicate::JoinCmp { left: l1, op: o1, right: r1 },
            Predicate::JoinCmp { left: l2, op: o2, right: r2 },
        ) => l1 == r2 && r1 == l2 && o1.flipped() == *o2,
        (
            Predicate::TimeDelta { left: l1, right: r1, min_ms: lo1, max_ms: hi1 },
            Predicate::TimeDelta { left: l2, right: r2, min_ms: lo2, max_ms: hi2 },
        ) => {
            (l1 == l2 && r1 == r2 && lo2 <= lo1 && hi1 <= hi2)
                || (l1 == r2 && r1 == l2 && *lo2 <= -hi1 && -lo1 <= *hi2)
        }
        _ => false,
    }
}

fn implies_cmp(op1: CmpOp, c1: &Scalar, op2: CmpOp, c2: &Scalar) -> bool {
    // String comparisons: only handle the equality fragment.
    if let (Scalar::Str(s1), Scalar::Str(s2)) = (c1, c2) {
        return match (op1, op2) {
            (CmpOp::Eq, CmpOp::Eq) => s1 == s2,
            (CmpOp::Eq, CmpOp::Ne) => s1 != s2,
            (CmpOp::Ne, CmpOp::Ne) => s1 == s2,
            _ => false,
        };
    }
    let (Some(a), Some(b)) = (c1.as_f64(), c2.as_f64()) else {
        return false;
    };
    threshold_implies(op1, a, op2, b)
}

/// Numeric threshold-level implication: does `attr op_s t_s` imply
/// `attr op_g t_g` for the *same* attribute? This is the skeleton of
/// [`implies`] on the numeric comparison fragment — the form covering
/// indexes prune candidates with, where predicates have already been
/// reduced to `(attribute, operator, threshold)` triples (see
/// `IndexableCmp`). Agrees with [`implies`] on every numeric
/// `Cmp`/`Cmp` pair by construction (it *is* that code path).
pub fn threshold_implies(op_s: CmpOp, t_s: f64, op_g: CmpOp, t_g: f64) -> bool {
    use CmpOp::*;
    match (op_s, op_g) {
        // Lower-bound family.
        (Gt, Gt) => t_s >= t_g,
        (Gt, Ge) => t_s >= t_g,
        (Ge, Ge) => t_s >= t_g,
        (Ge, Gt) => t_s > t_g,
        // Upper-bound family.
        (Lt, Lt) => t_s <= t_g,
        (Lt, Le) => t_s <= t_g,
        (Le, Le) => t_s <= t_g,
        (Le, Lt) => t_s < t_g,
        // Point constraints.
        (Eq, _) => op_g.eval_f64(t_s, t_g),
        // x ≠ t_g follows from any constraint excluding t_g.
        (Gt, Ne) => t_s >= t_g,
        (Ge, Ne) => t_s > t_g,
        (Lt, Ne) => t_s <= t_g,
        (Le, Ne) => t_s < t_g,
        (Ne, Ne) => t_s == t_g,
        _ => false,
    }
}

/// The weakest predicate in our language implied by **both** `p` and `q`
/// (`p ⇒ r` and `q ⇒ r`), used when merging queries: the merged filter must
/// pass every tuple either input query passes.
///
/// Because comparison predicates over one attribute form chains under
/// implication, the weakest common consequence — when one exists at all — is
/// simply whichever of the two predicates is implied by the other. Returns
/// `None` when neither implies the other (e.g. `a > 10` vs `a < 5`), in
/// which case the caller must drop the constraint entirely.
pub fn weakest_common(p: &Predicate, q: &Predicate) -> Option<Predicate> {
    if implies(p, q) {
        Some(q.clone())
    } else if implies(q, p) {
        Some(p.clone())
    } else {
        None
    }
}

/// Estimates the selectivity of a numeric comparison given a value range —
/// used by the workload/statistics layer to size result rates.
///
/// Assumes values uniform over `[lo, hi]`. Clamped to `[0, 1]`.
pub fn selectivity_uniform(op: CmpOp, c: f64, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return 1.0;
    }
    let frac_below = ((c - lo) / (hi - lo)).clamp(0.0, 1.0);
    match op {
        CmpOp::Lt | CmpOp::Le => frac_below,
        CmpOp::Gt | CmpOp::Ge => 1.0 - frac_below,
        CmpOp::Eq => 0.05_f64.min(1.0 / (hi - lo)),
        CmpOp::Ne => 1.0 - 0.05_f64.min(1.0 / (hi - lo)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{eval_compiled, CompiledPredicate};
    use crate::record::Record;
    use proptest::prelude::*;
    use std::collections::HashMap;

    struct MapSource {
        values: HashMap<(Symbol, Symbol), Scalar>,
        times: HashMap<Symbol, i64>,
    }

    impl MapSource {
        fn new() -> Self {
            Self { values: HashMap::new(), times: HashMap::new() }
        }
        fn with(mut self, rel: &str, attr: &str, v: Scalar) -> Self {
            self.values.insert((rel.into(), attr.into()), v);
            self
        }
        fn at(mut self, rel: &str, ts: i64) -> Self {
            self.times.insert(rel.into(), ts);
            self
        }
    }

    impl AttrSource for MapSource {
        fn value(&self, attr: &AttrRef) -> Option<Scalar> {
            self.values.get(&(attr.relation, attr.attr)).cloned()
        }
        fn timestamp(&self, alias: Symbol) -> Option<i64> {
            self.times.get(&alias).copied()
        }
    }

    fn cmp(attr: &str, op: CmpOp, v: i64) -> Predicate {
        Predicate::Cmp { attr: AttrRef::new("R", attr), op, value: Scalar::Int(v) }
    }

    #[test]
    fn eval_selection() {
        let src = MapSource::new().with("R", "a", Scalar::Int(15));
        assert_eq!(eval_predicate(&cmp("a", CmpOp::Gt, 10), &src), Some(true));
        assert_eq!(eval_predicate(&cmp("a", CmpOp::Gt, 20), &src), Some(false));
        assert_eq!(eval_predicate(&cmp("b", CmpOp::Gt, 0), &src), None);
    }

    #[test]
    fn eval_join_and_timedelta() {
        let src = MapSource::new()
            .with("R", "b", Scalar::Int(3))
            .with("S", "b", Scalar::Int(3))
            .at("R", 1_000)
            .at("S", 1_500);
        let join = Predicate::JoinCmp {
            left: AttrRef::new("R", "b"),
            op: CmpOp::Eq,
            right: AttrRef::new("S", "b"),
        };
        assert_eq!(eval_predicate(&join, &src), Some(true));
        let td =
            Predicate::TimeDelta { left: "R".into(), right: "S".into(), min_ms: -1_000, max_ms: 0 };
        assert_eq!(eval_predicate(&td, &src), Some(true));
        let tight =
            Predicate::TimeDelta { left: "R".into(), right: "S".into(), min_ms: -100, max_ms: 0 };
        assert_eq!(eval_predicate(&tight, &src), Some(false));
    }

    /// The conjunction the engines evaluate (`compiled::eval_compiled`)
    /// reads a missing attribute as "does not satisfy" — what
    /// `eval_predicate`'s `None` means.
    #[test]
    fn eval_conjunction_with_missing_attr_is_false() {
        let rec = Record::new("R", 0).with("a", Scalar::Int(15));
        let conj = |preds: &[Predicate]| {
            let compiled: Vec<CompiledPredicate> =
                preds.iter().map(CompiledPredicate::compile).collect();
            let reference = preds.iter().all(|p| eval_predicate(p, &rec).unwrap_or(false));
            assert_eq!(eval_compiled(&compiled, &rec), reference);
            reference
        };
        assert!(conj(&[cmp("a", CmpOp::Gt, 10)]));
        assert!(!conj(&[cmp("a", CmpOp::Gt, 10), cmp("zzz", CmpOp::Lt, 0)]));
    }

    #[test]
    fn implication_lower_bounds() {
        assert!(implies(&cmp("a", CmpOp::Gt, 20), &cmp("a", CmpOp::Gt, 10)));
        assert!(implies(&cmp("a", CmpOp::Gt, 10), &cmp("a", CmpOp::Ge, 10)));
        assert!(implies(&cmp("a", CmpOp::Ge, 11), &cmp("a", CmpOp::Gt, 10)));
        assert!(!implies(&cmp("a", CmpOp::Ge, 10), &cmp("a", CmpOp::Gt, 10)));
        assert!(!implies(&cmp("a", CmpOp::Gt, 10), &cmp("a", CmpOp::Gt, 20)));
    }

    #[test]
    fn implication_upper_bounds_and_eq() {
        assert!(implies(&cmp("a", CmpOp::Lt, 5), &cmp("a", CmpOp::Lt, 10)));
        assert!(implies(&cmp("a", CmpOp::Le, 5), &cmp("a", CmpOp::Lt, 6)));
        assert!(implies(&cmp("a", CmpOp::Eq, 7), &cmp("a", CmpOp::Gt, 5)));
        assert!(implies(&cmp("a", CmpOp::Eq, 7), &cmp("a", CmpOp::Ne, 8)));
        assert!(!implies(&cmp("a", CmpOp::Eq, 7), &cmp("a", CmpOp::Gt, 7)));
        assert!(implies(&cmp("a", CmpOp::Gt, 8), &cmp("a", CmpOp::Ne, 8)));
        assert!(!implies(&cmp("a", CmpOp::Ne, 8), &cmp("a", CmpOp::Gt, 7)));
    }

    #[test]
    fn implication_different_attrs_is_false() {
        assert!(!implies(&cmp("a", CmpOp::Gt, 10), &cmp("b", CmpOp::Gt, 5)));
    }

    #[test]
    fn join_implication_handles_flip() {
        let p = Predicate::JoinCmp {
            left: AttrRef::new("R", "b"),
            op: CmpOp::Lt,
            right: AttrRef::new("S", "b"),
        };
        let q = Predicate::JoinCmp {
            left: AttrRef::new("S", "b"),
            op: CmpOp::Gt,
            right: AttrRef::new("R", "b"),
        };
        assert!(implies(&p, &q));
        assert!(implies(&q, &p));
    }

    #[test]
    fn timedelta_implication_widening() {
        let narrow =
            Predicate::TimeDelta { left: "A".into(), right: "B".into(), min_ms: -100, max_ms: 0 };
        let wide =
            Predicate::TimeDelta { left: "A".into(), right: "B".into(), min_ms: -500, max_ms: 10 };
        assert!(implies(&narrow, &wide));
        assert!(!implies(&wide, &narrow));
        // Flipped orientation: −Δ bounds swap and negate.
        let flipped =
            Predicate::TimeDelta { left: "B".into(), right: "A".into(), min_ms: 0, max_ms: 100 };
        assert!(implies(&narrow, &flipped));
        assert!(implies(&flipped, &narrow));
    }

    #[test]
    fn string_implication() {
        let eq_a = Predicate::Cmp {
            attr: AttrRef::new("R", "s"),
            op: CmpOp::Eq,
            value: Scalar::Str("a".into()),
        };
        let ne_b = Predicate::Cmp {
            attr: AttrRef::new("R", "s"),
            op: CmpOp::Ne,
            value: Scalar::Str("b".into()),
        };
        assert!(implies(&eq_a, &ne_b));
        assert!(!implies(&ne_b, &eq_a));
    }

    /// `threshold_implies` is the numeric fragment of `implies` — the two
    /// must agree on every float comparison pair, including NaN (which
    /// implies and is implied by nothing).
    #[test]
    fn threshold_implies_agrees_with_implies() {
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        let consts = [-2.5f64, 0.0, -0.0, 1.0, 3.5, f64::NAN];
        let fcmp = |op: CmpOp, c: f64| Predicate::Cmp {
            attr: AttrRef::new("R", "a"),
            op,
            value: Scalar::Float(c),
        };
        for &op1 in &ops {
            for &c1 in &consts {
                for &op2 in &ops {
                    for &c2 in &consts {
                        assert_eq!(
                            threshold_implies(op1, c1, op2, c2),
                            implies(&fcmp(op1, c1), &fcmp(op2, c2)),
                            "diverged on {op1:?} {c1} vs {op2:?} {c2}"
                        );
                    }
                }
            }
        }
        assert!(!threshold_implies(CmpOp::Gt, f64::NAN, CmpOp::Gt, 0.0));
        assert!(!threshold_implies(CmpOp::Gt, 0.0, CmpOp::Gt, f64::NAN));
    }

    #[test]
    fn weakest_common_picks_the_weaker() {
        let p = cmp("a", CmpOp::Gt, 20);
        let q = cmp("a", CmpOp::Gt, 10);
        assert_eq!(weakest_common(&p, &q), Some(q.clone()));
        assert_eq!(weakest_common(&q, &p), Some(q.clone()));
        assert_eq!(weakest_common(&p, &cmp("a", CmpOp::Lt, 5)), None);
        assert_eq!(weakest_common(&cmp("b", CmpOp::Gt, 1), &p), None);
    }

    #[test]
    fn selectivity_estimates() {
        assert!((selectivity_uniform(CmpOp::Gt, 5.0, 0.0, 10.0) - 0.5).abs() < 1e-9);
        assert!((selectivity_uniform(CmpOp::Lt, 2.5, 0.0, 10.0) - 0.25).abs() < 1e-9);
        assert_eq!(selectivity_uniform(CmpOp::Gt, -5.0, 0.0, 10.0), 1.0);
        assert_eq!(selectivity_uniform(CmpOp::Lt, -5.0, 0.0, 10.0), 0.0);
    }

    /// Exhaustive soundness check of `implies` for integer comparisons by
    /// brute-force evaluation over a sample domain.
    #[test]
    fn implies_is_sound_on_numeric_domain() {
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        let consts = [-2i64, 0, 1, 3];
        let domain = -5..=5i64;
        for &op1 in &ops {
            for &c1 in &consts {
                for &op2 in &ops {
                    for &c2 in &consts {
                        let p = cmp("a", op1, c1);
                        let q = cmp("a", op2, c2);
                        if implies(&p, &q) {
                            for x in domain.clone() {
                                let src = MapSource::new().with("R", "a", Scalar::Int(x));
                                let sat_p = eval_predicate(&p, &src).unwrap();
                                let sat_q = eval_predicate(&q, &src).unwrap();
                                assert!(
                                    !sat_p || sat_q,
                                    "claimed {p} => {q} but x = {x} violates it"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// `weakest_common` must be implied by both inputs whenever defined.
        #[test]
        fn prop_weakest_common_is_implied_by_both(
            op1 in 0usize..6, c1 in -20i64..20,
            op2 in 0usize..6, c2 in -20i64..20,
        ) {
            let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
            let p = cmp("a", ops[op1], c1);
            let q = cmp("a", ops[op2], c2);
            if let Some(r) = weakest_common(&p, &q) {
                prop_assert!(implies(&p, &r), "{p} should imply {r}");
                prop_assert!(implies(&q, &r), "{q} should imply {r}");
            }
        }

        /// Implication must be transitive on the fragment it accepts.
        #[test]
        fn prop_implies_transitive(
            op in proptest::sample::select(vec![CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]),
            c1 in -20i64..20, c2 in -20i64..20, c3 in -20i64..20,
        ) {
            let p = cmp("a", op, c1);
            let q = cmp("a", op, c2);
            let r = cmp("a", op, c3);
            if implies(&p, &q) && implies(&q, &r) {
                prop_assert!(implies(&p, &r));
            }
        }
    }
}
