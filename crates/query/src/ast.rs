//! Abstract syntax for the CQL subset.
//!
//! Every stream, alias and attribute name in the tree is a [`Symbol`],
//! interned by the parser as the name enters the AST. Consumers (the
//! compiled predicates, the engines, the broker's subscriptions) use the
//! symbol they are handed, and name comparisons on the AST compare
//! integers. Interned names follow the leak rule of
//! [`cosmos_util::intern`]: they live for the process. That adds no new
//! kind of leak, since every name a query carries was interned anyway
//! when it was compiled, subscribed or hosted; only a query rejected
//! partway through parsing may now leave the names read before the error
//! interned. [`Scalar::Str`] is a value, not a name, and stays a `String`.

use cosmos_util::intern::Symbol;
use std::fmt;

// A parsed population is held whole (per query, per installed
// subscription), so the node sizes are a scaling term.
const _: () = assert!(std::mem::size_of::<AttrRef>() <= 8);
const _: () = assert!(std::mem::size_of::<RelationRef>() <= 24);
const _: () = assert!(std::mem::size_of::<Predicate>() <= 48);
const _: () = assert!(std::mem::size_of::<ProjItem>() <= 16);
// Records are most of every large resident set (inputs, windows, replay
// logs, checkpoints): a stream symbol, a schema id, the timestamp and the
// payload's fat pointer.
const _: () = assert!(std::mem::size_of::<crate::record::Record>() <= 32);

/// Globally unique identifier for a submitted continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// A scalar constant in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String literal.
    Str(String),
}

impl Scalar {
    /// Numeric view of the scalar, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(*i as f64),
            Scalar::Float(f) => Some(*f),
            Scalar::Str(_) => None,
        }
    }

    /// Approximate wire bytes of the value payload: 8 for numbers, the
    /// string length plus a 4-byte length prefix for strings. Shared by
    /// the engine tuple and Pub/Sub message size models.
    pub fn wire_size(&self) -> usize {
        match self {
            Scalar::Int(_) | Scalar::Float(_) => 8,
            Scalar::Str(s) => 4 + s.len(),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int(i) => write!(f, "{i}"),
            Scalar::Float(x) => write!(f, "{x}"),
            Scalar::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A qualified attribute reference `alias.attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrRef {
    /// The relation alias from the `FROM` clause (e.g. `S1`).
    pub relation: Symbol,
    /// The attribute name (e.g. `snowHeight`).
    pub attr: Symbol,
}

impl AttrRef {
    /// Convenience constructor; interns both names.
    pub fn new(relation: impl Into<Symbol>, attr: impl Into<Symbol>) -> Self {
        Self { relation: relation.into(), attr: attr.into() }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.relation, self.attr)
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Applies the operator to an ordered pair.
    pub fn eval_f64(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }

    /// The operator with flipped operand order (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A conjunct of the `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Selection: `attr op constant`.
    Cmp {
        /// Attribute on the left.
        attr: AttrRef,
        /// Comparison operator.
        op: CmpOp,
        /// Constant on the right.
        value: Scalar,
    },
    /// Join: `left op right` over two relations' attributes.
    JoinCmp {
        /// Attribute of the left relation.
        left: AttrRef,
        /// Comparison operator.
        op: CmpOp,
        /// Attribute of the right relation.
        right: AttrRef,
    },
    /// Window containment over timestamps:
    /// `min_ms <= ts(left) − ts(right) <= max_ms`.
    ///
    /// Used as the *residual* filter when splitting a shared result stream
    /// (§2.1: `−30(minute) ≤ S1.timestamp − S2.timestamp ≤ 0`).
    TimeDelta {
        /// Alias whose timestamp is the minuend.
        left: Symbol,
        /// Alias whose timestamp is the subtrahend.
        right: Symbol,
        /// Lower bound in milliseconds (inclusive).
        min_ms: i64,
        /// Upper bound in milliseconds (inclusive).
        max_ms: i64,
    },
}

impl Predicate {
    /// Returns `true` for a single-relation selection predicate.
    pub fn is_selection(&self) -> bool {
        matches!(self, Predicate::Cmp { .. })
    }

    /// Returns `true` for a join predicate.
    pub fn is_join(&self) -> bool {
        matches!(self, Predicate::JoinCmp { .. })
    }

    /// Aliases this predicate mentions.
    pub fn relations(&self) -> impl Iterator<Item = Symbol> {
        let pair = match self {
            Predicate::Cmp { attr, .. } => [Some(attr.relation), None],
            Predicate::JoinCmp { left, right, .. } => [Some(left.relation), Some(right.relation)],
            Predicate::TimeDelta { left, right, .. } => [Some(*left), Some(*right)],
        };
        pair.into_iter().flatten()
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { attr, op, value } => write!(f, "{attr} {op} {value}"),
            Predicate::JoinCmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::TimeDelta { left, right, min_ms, max_ms } => {
                write!(f, "{min_ms} <= {left}.timestamp - {right}.timestamp <= {max_ms}")
            }
        }
    }
}

/// A window specification on a `FROM` relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Window {
    /// `[Now]`: only the latest instant (width 0).
    Now,
    /// `[Range n unit]`: a sliding window of the given width in
    /// milliseconds.
    Range(u64),
    /// `[Unbounded]`: the entire history.
    Unbounded,
}

impl Window {
    /// Window width in milliseconds; `None` means unbounded.
    pub fn width_ms(&self) -> Option<u64> {
        match self {
            Window::Now => Some(0),
            Window::Range(ms) => Some(*ms),
            Window::Unbounded => None,
        }
    }

    /// Returns `true` if `self` contains every tuple `other` contains
    /// (window containment: wider or equal).
    pub fn contains(&self, other: &Window) -> bool {
        match (self.width_ms(), other.width_ms()) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a >= b,
        }
    }

    /// The smallest window containing both.
    pub fn union(&self, other: &Window) -> Window {
        match (self.width_ms(), other.width_ms()) {
            (None, _) | (_, None) => Window::Unbounded,
            (Some(a), Some(b)) => {
                let w = a.max(b);
                if w == 0 {
                    Window::Now
                } else {
                    Window::Range(w)
                }
            }
        }
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Window::Now => f.write_str("[Now]"),
            Window::Range(ms) => {
                if ms % 3_600_000 == 0 && *ms > 0 {
                    write!(f, "[Range {} Hours]", ms / 3_600_000)
                } else if ms % 60_000 == 0 && *ms > 0 {
                    write!(f, "[Range {} Minutes]", ms / 60_000)
                } else if ms % 1000 == 0 && *ms > 0 {
                    write!(f, "[Range {} Seconds]", ms / 1000)
                } else {
                    write!(f, "[Range {ms} Milliseconds]")
                }
            }
            Window::Unbounded => f.write_str("[Unbounded]"),
        }
    }
}

/// One relation in the `FROM` clause: stream name, window, alias.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationRef {
    /// Source stream name (e.g. `Station1`).
    pub stream: Symbol,
    /// Window specification.
    pub window: Window,
    /// Alias used to qualify attributes; defaults to the stream name.
    pub alias: Symbol,
}

impl fmt::Display for RelationRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.alias == self.stream {
            write!(f, "{} {}", self.stream, self.window)
        } else {
            write!(f, "{} {} {}", self.stream, self.window, self.alias)
        }
    }
}

/// A windowed aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggFunc {
    /// Number of tuples in the window.
    Count,
    /// Sum of a numeric attribute over the window.
    Sum,
    /// Arithmetic mean over the window.
    Avg,
    /// Minimum over the window.
    Min,
    /// Maximum over the window.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One item of the `SELECT` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjItem {
    /// `*` — all attributes of all relations.
    All,
    /// `alias.*` — all attributes of one relation.
    AllOf(Symbol),
    /// A single qualified attribute.
    Attr(AttrRef),
    /// A windowed aggregate, e.g. `AVG(S1.snowHeight)`.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated attribute.
        attr: AttrRef,
    },
}

impl fmt::Display for ProjItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjItem::All => f.write_str("*"),
            ProjItem::AllOf(alias) => write!(f, "{alias}.*"),
            ProjItem::Attr(a) => write!(f, "{a}"),
            ProjItem::Agg { func, attr } => write!(f, "{func}({attr})"),
        }
    }
}

/// A parsed continuous query (conjunctive select-project-join over windowed
/// streams).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projection list, in source order.
    pub projection: Vec<ProjItem>,
    /// `FROM` relations, in source order.
    pub relations: Vec<RelationRef>,
    /// Conjunctive `WHERE` predicates.
    pub predicates: Vec<Predicate>,
}

impl Query {
    /// The relation with the given alias, if any.
    pub fn relation(&self, alias: &str) -> Option<&RelationRef> {
        self.relations.iter().find(|r| r.alias == alias)
    }

    /// Stream names this query reads, in `FROM` order.
    pub fn streams(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(|r| r.stream.as_str())
    }

    /// Selection (single-relation) predicates.
    pub fn selection_predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.is_selection())
    }

    /// Join predicates.
    pub fn join_predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.is_join())
    }

    /// Selection predicates restricted to one alias — these are what the
    /// Pub/Sub pushes toward the source for early filtering: an engine
    /// host's feed filters each stream by the cover
    /// ([`crate::containment::covering_selection`]) of every hosted
    /// relation's selection on it.
    pub fn selection_predicates_for(&self, alias: Symbol) -> Vec<&Predicate> {
        self.predicates
            .iter()
            .filter(|p| matches!(p, Predicate::Cmp { attr, .. } if attr.relation == alias))
            .collect()
    }

    /// Returns `true` when the `SELECT` list contains aggregate functions.
    pub fn has_aggregates(&self) -> bool {
        self.projection.iter().any(|p| matches!(p, ProjItem::Agg { .. }))
    }

    /// Returns `true` if every predicate and projection item refers to an
    /// alias declared in `FROM`, and aliases are unique.
    pub fn is_well_formed(&self) -> bool {
        let mut aliases: Vec<Symbol> = self.relations.iter().map(|r| r.alias).collect();
        let total = aliases.len();
        aliases.sort_unstable();
        aliases.dedup();
        if aliases.len() != total {
            return false;
        }
        let known = |a: Symbol| aliases.binary_search(&a).is_ok();
        let preds_ok = self.predicates.iter().all(|p| p.relations().all(known));
        let proj_ok = self.projection.iter().all(|p| match *p {
            ProjItem::All => true,
            ProjItem::AllOf(a) => known(a),
            ProjItem::Attr(ar) | ProjItem::Agg { attr: ar, .. } => known(ar.relation),
        });
        preds_ok && proj_ok && !self.projection.is_empty() && !self.relations.is_empty()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, p) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, " FROM ")?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        if !self.predicates.is_empty() {
            write!(f, " WHERE ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Query {
        Query {
            projection: vec![ProjItem::AllOf("S2".into())],
            relations: vec![
                RelationRef {
                    stream: "Station1".into(),
                    window: Window::Range(30 * 60_000),
                    alias: "S1".into(),
                },
                RelationRef { stream: "Station2".into(), window: Window::Now, alias: "S2".into() },
            ],
            predicates: vec![
                Predicate::JoinCmp {
                    left: AttrRef::new("S1", "snowHeight"),
                    op: CmpOp::Gt,
                    right: AttrRef::new("S2", "snowHeight"),
                },
                Predicate::Cmp {
                    attr: AttrRef::new("S1", "snowHeight"),
                    op: CmpOp::Ge,
                    value: Scalar::Int(10),
                },
            ],
        }
    }

    #[test]
    fn well_formedness() {
        let q = sample_query();
        assert!(q.is_well_formed());
        let mut bad = q.clone();
        bad.predicates.push(Predicate::Cmp {
            attr: AttrRef::new("S9", "x"),
            op: CmpOp::Lt,
            value: Scalar::Int(1),
        });
        assert!(!bad.is_well_formed());
        let mut dup = q.clone();
        dup.relations.push(dup.relations[0].clone());
        assert!(!dup.is_well_formed());
    }

    #[test]
    fn selection_vs_join_split() {
        let q = sample_query();
        assert_eq!(q.selection_predicates().count(), 1);
        assert_eq!(q.join_predicates().count(), 1);
        assert_eq!(q.selection_predicates_for("S1".into()).len(), 1);
        assert_eq!(q.selection_predicates_for("S2".into()).len(), 0);
    }

    #[test]
    fn window_containment_laws() {
        assert!(Window::Unbounded.contains(&Window::Range(100)));
        assert!(Window::Range(100).contains(&Window::Range(100)));
        assert!(Window::Range(200).contains(&Window::Now));
        assert!(!Window::Now.contains(&Window::Range(1)));
        assert!(!Window::Range(100).contains(&Window::Unbounded));
        assert_eq!(Window::Range(100).union(&Window::Range(50)), Window::Range(100));
        assert_eq!(Window::Now.union(&Window::Now), Window::Now);
        assert_eq!(Window::Now.union(&Window::Unbounded), Window::Unbounded);
    }

    #[test]
    fn display_round_trips_sensibly() {
        let q = sample_query();
        let text = q.to_string();
        assert!(text.contains("SELECT S2.*"));
        assert!(text.contains("[Range 30 Minutes]"));
        assert!(text.contains("[Now]"));
        assert!(text.contains("S1.snowHeight >= 10"));
    }

    #[test]
    fn cmpop_flip_is_involutive_on_order_ops() {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            assert_eq!(op.flipped().flipped(), op);
            // a op b == b op.flipped() a
            assert_eq!(op.eval_f64(1.0, 2.0), op.flipped().eval_f64(2.0, 1.0));
        }
    }

    #[test]
    fn scalar_numeric_view() {
        assert_eq!(Scalar::Int(3).as_f64(), Some(3.0));
        assert_eq!(Scalar::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Scalar::Str("x".into()).as_f64(), None);
    }
}
