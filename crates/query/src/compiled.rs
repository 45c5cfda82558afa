//! Symbol-compiled predicates for the per-tuple hot path.
//!
//! [`crate::predicate::eval_predicate`] resolves every `AttrRef` through
//! an [`AttrSource`](crate::predicate::AttrSource) and clones each value, on
//! every tuple. A [`CompiledPredicate`] does that resolution **once per
//! query**: it takes the [`Symbol`]s the parser interned into the AST,
//! folds the `timestamp` pseudo-attribute, and evaluation asks the tuple
//! source for values by symbol — integer compares against the tuple's
//! schema, no `Scalar` clones (values flow as borrowed [`ScalarRef`]s).
//!
//! The engine (`cosmos-engine`) and the broker's routing index
//! (`cosmos-pubsub`) both compile their filters through this module;
//! [`eval_ast`] gives the compiled verdict straight from the AST, for
//! holders that keep only the AST. The `AttrSource` evaluator remains for
//! AST-level tooling (containment, implication) and as the semantic
//! reference the compiled path is tested against.

use crate::ast::{AttrRef, CmpOp, Predicate, Scalar};
use cosmos_util::intern::{sym_timestamp, Symbol};

/// A borrowed view of a [`Scalar`] — `Copy`, so predicate evaluation never
/// clones a `String`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarRef<'a> {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Borrowed string.
    Str(&'a str),
}

impl<'a> ScalarRef<'a> {
    /// Numeric view, if numeric.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ScalarRef::Int(i) => Some(i as f64),
            ScalarRef::Float(f) => Some(f),
            ScalarRef::Str(_) => None,
        }
    }
}

impl<'a> From<&'a Scalar> for ScalarRef<'a> {
    fn from(s: &'a Scalar) -> Self {
        match s {
            Scalar::Int(i) => ScalarRef::Int(*i),
            Scalar::Float(f) => ScalarRef::Float(*f),
            Scalar::Str(s) => ScalarRef::Str(s),
        }
    }
}

/// Compares two scalar views under `op`; `None` when incomparable.
pub fn compare_ref(op: CmpOp, l: ScalarRef<'_>, r: ScalarRef<'_>) -> Option<bool> {
    match (l, r) {
        (ScalarRef::Str(a), ScalarRef::Str(b)) => Some(match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }),
        _ => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            Some(op.eval_f64(a, b))
        }
    }
}

/// Source of attribute values addressed by interned symbols.
///
/// The `timestamp` pseudo-attribute is *not* special-cased here — compiled
/// predicates resolve it before calling `value`, so implementations only
/// serve stored attributes.
pub trait SymSource {
    /// The value of `attr` on relation `rel`, or `None` when absent.
    fn value(&self, rel: Symbol, attr: Symbol) -> Option<ScalarRef<'_>>;

    /// The event time (ms) of the tuple bound to `rel`, or `None`.
    fn timestamp(&self, rel: Symbol) -> Option<i64>;
}

/// One operand of a compiled comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A stored attribute.
    Attr {
        /// Relation alias.
        rel: Symbol,
        /// Attribute name.
        attr: Symbol,
    },
    /// The relation's event time.
    Timestamp {
        /// Relation alias.
        rel: Symbol,
    },
}

impl Operand {
    /// Resolves an `AttrRef`, folding the `timestamp` pseudo-attribute.
    pub fn compile(attr: &AttrRef) -> Operand {
        let rel = attr.relation;
        if attr.attr == sym_timestamp() {
            Operand::Timestamp { rel }
        } else {
            Operand::Attr { rel, attr: attr.attr }
        }
    }

    #[inline]
    fn resolve<'a, S: SymSource>(self, src: &'a S) -> Option<ScalarRef<'a>> {
        match self {
            Operand::Attr { rel, attr } => src.value(rel, attr),
            Operand::Timestamp { rel } => Some(ScalarRef::Int(src.timestamp(rel)?)),
        }
    }
}

/// A predicate with all names resolved to symbols at compile time.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledPredicate {
    /// Selection: `attr op constant`.
    Cmp {
        /// Left operand.
        operand: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Constant right-hand side.
        value: Scalar,
    },
    /// Join: `left op right`.
    JoinCmp {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// `min_ms <= ts(left) − ts(right) <= max_ms`.
    TimeDelta {
        /// Minuend relation.
        left: Symbol,
        /// Subtrahend relation.
        right: Symbol,
        /// Inclusive lower bound (ms).
        min_ms: i64,
        /// Inclusive upper bound (ms).
        max_ms: i64,
    },
}

impl CompiledPredicate {
    /// Resolves `p`'s names to symbols.
    pub fn compile(p: &Predicate) -> CompiledPredicate {
        match p {
            Predicate::Cmp { attr, op, value } => CompiledPredicate::Cmp {
                operand: Operand::compile(attr),
                op: *op,
                value: value.clone(),
            },
            Predicate::JoinCmp { left, op, right } => CompiledPredicate::JoinCmp {
                left: Operand::compile(left),
                op: *op,
                right: Operand::compile(right),
            },
            Predicate::TimeDelta { left, right, min_ms, max_ms } => CompiledPredicate::TimeDelta {
                left: *left,
                right: *right,
                min_ms: *min_ms,
                max_ms: *max_ms,
            },
        }
    }

    /// Compiles a whole conjunction.
    pub fn compile_all(preds: &[Predicate]) -> Vec<CompiledPredicate> {
        preds.iter().map(CompiledPredicate::compile).collect()
    }

    /// Evaluates against a symbol-addressed source. `None` when a
    /// referenced attribute is missing or the comparison is
    /// type-incoherent — callers treat that as "does not satisfy".
    #[inline]
    pub fn eval<S: SymSource>(&self, src: &S) -> Option<bool> {
        match self {
            CompiledPredicate::Cmp { operand, op, value } => {
                compare_ref(*op, operand.resolve(src)?, value.into())
            }
            CompiledPredicate::JoinCmp { left, op, right } => {
                compare_ref(*op, left.resolve(src)?, right.resolve(src)?)
            }
            CompiledPredicate::TimeDelta { left, right, min_ms, max_ms } => {
                let delta = src.timestamp(*left)? - src.timestamp(*right)?;
                Some(*min_ms <= delta && delta <= *max_ms)
            }
        }
    }
}

/// Evaluates a compiled conjunction; missing values make it false.
#[inline]
pub fn eval_compiled<S: SymSource>(preds: &[CompiledPredicate], src: &S) -> bool {
    preds.iter().all(|p| p.eval(src).unwrap_or(false))
}

/// Evaluates an AST predicate against a symbol-addressed source: the
/// verdict [`CompiledPredicate::eval`] gives for its compiled form, with
/// the `timestamp` pseudo-attribute folded on the way. Nothing is built
/// or cloned, so whoever holds only the AST (a broker subscription)
/// evaluates it per message without keeping a compiled twin.
#[inline]
pub fn eval_ast<S: SymSource>(p: &Predicate, src: &S) -> Option<bool> {
    match p {
        Predicate::Cmp { attr, op, value } => {
            compare_ref(*op, Operand::compile(attr).resolve(src)?, value.into())
        }
        Predicate::JoinCmp { left, op, right } => compare_ref(
            *op,
            Operand::compile(left).resolve(src)?,
            Operand::compile(right).resolve(src)?,
        ),
        Predicate::TimeDelta { left, right, min_ms, max_ms } => {
            let delta = src.timestamp(*left)? - src.timestamp(*right)?;
            Some(*min_ms <= delta && delta <= *max_ms)
        }
    }
}

/// Evaluates an AST conjunction ([`eval_ast`]); missing values make it
/// false.
#[inline]
pub fn eval_ast_all<S: SymSource>(preds: &[Predicate], src: &S) -> bool {
    preds.iter().all(|p| eval_ast(p, src).unwrap_or(false))
}

/// The left-hand side of an indexable comparison: a stored attribute or
/// the event-time pseudo-attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexOperand {
    /// A stored attribute of the indexed relation.
    Attr(Symbol),
    /// The relation's event timestamp.
    Timestamp,
}

/// An extracted `attr op constant` comparison suitable for a sorted
/// threshold index (Siena-style counting index): the operand addresses the
/// indexed relation, the operator is an order/equality comparison (never
/// `!=` — its satisfied set is a complement, which a counting index cannot
/// represent as a contiguous range), and the constant is numeric.
///
/// The threshold is the constant's `f64` view. This is exactly faithful to
/// evaluation semantics: [`compare_ref`] also compares mixed numerics
/// through `f64`, so an index over `f64` thresholds satisfies a predicate
/// if and only if [`CompiledPredicate::eval`] would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexableCmp {
    /// What the predicate reads from the message/tuple.
    pub operand: IndexOperand,
    /// The comparison operator (`Lt`/`Le`/`Gt`/`Ge`/`Eq`).
    pub op: CmpOp,
    /// The constant right-hand side as `f64`.
    pub threshold: f64,
}

impl CompiledPredicate {
    /// Extracts the indexable form of this predicate for relation `rel`,
    /// or `None` when it must be evaluated residually: join and time-delta
    /// predicates, `!=`, string constants, and comparisons addressing a
    /// different relation (which can never hold on `rel`'s messages, but
    /// residual evaluation reports that honestly).
    pub fn indexable_for(&self, rel: Symbol) -> Option<IndexableCmp> {
        let CompiledPredicate::Cmp { operand, op, value } = self else {
            return None;
        };
        if matches!(op, CmpOp::Ne) {
            return None;
        }
        let threshold = value.as_f64()?;
        let operand = match *operand {
            Operand::Attr { rel: r, attr } if r == rel => IndexOperand::Attr(attr),
            Operand::Timestamp { rel: r } if r == rel => IndexOperand::Timestamp,
            _ => return None,
        };
        Some(IndexableCmp { operand, op: *op, threshold })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{eval_predicate, AttrSource};
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
            self.values.insert((Symbol::intern(rel), Symbol::intern(attr)), v);
            self
        }
        fn at(mut self, rel: &str, ts: i64) -> Self {
            self.times.insert(Symbol::intern(rel), ts);
            self
        }
    }

    impl SymSource for MapSource {
        fn value(&self, rel: Symbol, attr: Symbol) -> Option<ScalarRef<'_>> {
            self.values.get(&(rel, attr)).map(Into::into)
        }
        fn timestamp(&self, rel: Symbol) -> Option<i64> {
            self.times.get(&rel).copied()
        }
    }

    impl AttrSource for MapSource {
        fn value(&self, attr: &AttrRef) -> Option<Scalar> {
            if attr.attr == "timestamp" {
                return AttrSource::timestamp(self, attr.relation).map(Scalar::Int);
            }
            self.values.get(&(attr.relation, attr.attr)).cloned()
        }
        fn timestamp(&self, alias: Symbol) -> Option<i64> {
            self.times.get(&alias).copied()
        }
    }

    fn sources() -> Vec<MapSource> {
        vec![
            MapSource::new().with("R", "a", Scalar::Int(15)).at("R", 1_000),
            MapSource::new().with("R", "a", Scalar::Int(5)).at("R", 1_000),
            MapSource::new()
                .with("R", "a", Scalar::Float(7.5))
                .with("R", "s", Scalar::Str("x".into()))
                .at("R", 2_000),
            MapSource::new()
                .with("R", "b", Scalar::Int(3))
                .with("S", "b", Scalar::Int(3))
                .at("R", 1_000)
                .at("S", 1_500),
        ]
    }

    fn predicates() -> Vec<Predicate> {
        vec![
            Predicate::Cmp { attr: AttrRef::new("R", "a"), op: CmpOp::Gt, value: Scalar::Int(10) },
            Predicate::Cmp {
                attr: AttrRef::new("R", "s"),
                op: CmpOp::Eq,
                value: Scalar::Str("x".into()),
            },
            Predicate::Cmp {
                attr: AttrRef::new("R", "timestamp"),
                op: CmpOp::Ge,
                value: Scalar::Int(1_500),
            },
            Predicate::JoinCmp {
                left: AttrRef::new("R", "b"),
                op: CmpOp::Eq,
                right: AttrRef::new("S", "b"),
            },
            Predicate::JoinCmp {
                left: AttrRef::new("R", "timestamp"),
                op: CmpOp::Lt,
                right: AttrRef::new("S", "timestamp"),
            },
            Predicate::TimeDelta { left: "R".into(), right: "S".into(), min_ms: -1_000, max_ms: 0 },
        ]
    }

    /// The compiled evaluator and the symbol-addressed AST evaluator must
    /// agree with the `AttrSource` reference on every (predicate, source)
    /// pair, including `None` (missing attrs).
    #[test]
    fn compiled_matches_reference_semantics() {
        for p in predicates() {
            let c = CompiledPredicate::compile(&p);
            for (i, src) in sources().iter().enumerate() {
                let reference = eval_predicate(&p, src);
                assert_eq!(c.eval(src), reference, "compiled diverged on {p} source {i}");
                assert_eq!(eval_ast(&p, src), reference, "AST diverged on {p} source {i}");
            }
        }
    }

    #[test]
    fn conjunction_short_circuits_missing_as_false() {
        let preds = CompiledPredicate::compile_all(&[
            Predicate::Cmp { attr: AttrRef::new("R", "a"), op: CmpOp::Gt, value: Scalar::Int(10) },
            Predicate::Cmp { attr: AttrRef::new("R", "zzz"), op: CmpOp::Lt, value: Scalar::Int(0) },
        ]);
        let src = &sources()[0];
        assert!(!eval_compiled(&preds, src));
        assert!(eval_compiled(&preds[..1], src));
    }

    #[test]
    fn scalar_ref_is_allocation_free_view() {
        let s = Scalar::Str("hello".into());
        let r: ScalarRef<'_> = (&s).into();
        assert_eq!(r, ScalarRef::Str("hello"));
        assert_eq!(ScalarRef::Int(3).as_f64(), Some(3.0));
        assert_eq!(ScalarRef::Str("x").as_f64(), None);
        assert_eq!(compare_ref(CmpOp::Lt, ScalarRef::Str("a"), ScalarRef::Str("b")), Some(true));
        assert_eq!(compare_ref(CmpOp::Gt, ScalarRef::Str("a"), ScalarRef::Int(1)), None);
    }
}
