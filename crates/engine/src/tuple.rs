//! Schema-indexed tuples and joined tuples.
//!
//! # Performance architecture
//!
//! The tuple data plane is symbol-interned, schema-indexed, and
//! payload-shared:
//!
//! - A [`Tuple`] **is** a [`cosmos_query::record::Record`] — `{ stream:
//!   Symbol, schema: u32, timestamp, Arc<[Scalar]> }`, 32 bytes. Tuples of
//!   the same shape share one interned schema, named by its id, so the
//!   payload carries **no attribute names at all** — attribute lookup is a
//!   linear scan over `u32`s in the schema (sensor schemas are narrow, so
//!   this beats hashing) — and cloning a tuple bumps one reference count. The
//!   Pub/Sub `Message` is the same type, so records cross the
//!   broker→engine boundary without conversion.
//! - A [`JoinedTuple`] stores positional `(alias: Symbol, Arc<Tuple>)`
//!   parts. Component tuples are `Arc`-shared because one window tuple
//!   typically participates in many join outputs.
//! - Turning a [`JoinedTuple`] into a result tuple is one mechanism, a
//!   **column plan**: the output schema (`alias.attr` names) plus an
//!   emit-mask, a pure function of the part aliases, the part schemas and
//!   which columns are kept, built once per shape and hung off the owner
//!   ([`ProjPlanCache`]) — the only place a plan is cached; the uncached
//!   entry points ([`JoinedTuple::flatten`],
//!   `ResultTuple::project_compiled`) build it per call.
//!   [`JoinedTuple::flatten`] is the plan that keeps every column;
//!   projection (`ResultTuple::project*`) supplies its own keep rule. The
//!   per-tuple work is copying scalars — no `format!`, no `String`
//!   allocation.
//!
//! String-based constructors (`Tuple::new("R", ts).with("k", v)`,
//! `tuple.get("k")`) remain as thin compatibility shims: they intern on
//! the way in, so tests and examples read naturally while the hot paths
//! stay symbol-only.

use cosmos_query::compiled::{ScalarRef, SymSource};
use cosmos_query::predicate::AttrSource;
use cosmos_query::{AttrRef, Scalar};
use cosmos_util::intern::{sym_timestamp, Schema, Symbol};
use cosmos_util::PlanCache;
use std::sync::Arc;

/// A single stream tuple — the engine-side name of the unified,
/// `Arc`-shared [`cosmos_query::record::Record`].
pub type Tuple = cosmos_query::record::Record;

/// A column plan for one combination of part shapes: the output schema
/// plus an emit-mask over the concatenated `[timestamp, attrs…]` column
/// stream of all parts.
#[derive(Debug, Clone)]
pub(crate) struct ProjPlan {
    schema: &'static Schema,
    mask: Arc<[bool]>,
}

/// An owner-attached column-plan cache for one keep rule — one
/// `CompiledProjection` (see `ResultTuple::project_cached`), or "every
/// column" ([`JoinedTuple::flatten_cached`]): hang it off whatever owns the
/// rule — a compiled residual, a route entry, a bench loop. Part shapes
/// (`(alias, schema id)` pairs) key the lookup and are compared against
/// the stored keys directly, so repeat shapes never allocate a cache key.
#[derive(Debug, Default)]
pub struct ProjPlanCache {
    plans: PlanCache<Box<[(Symbol, u32)]>, ProjPlan>,
}

impl ProjPlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `joined`'s part shapes, built under `keeps` on a miss.
    pub(crate) fn plan_for(
        &mut self,
        joined: &JoinedTuple,
        keeps: impl Fn(Symbol, Symbol) -> bool,
    ) -> &ProjPlan {
        let parts = &joined.parts;
        self.plans.get_or_insert_with(
            |key| {
                key.len() == parts.len()
                    && key
                        .iter()
                        .zip(parts)
                        .all(|(&(ka, ks), (pa, pt))| ka == *pa && ks == pt.schema().id())
            },
            || parts.iter().map(|(a, t)| (*a, t.schema().id())).collect(),
            || joined.build_plan(keeps),
        )
    }
}

/// A join output: one source tuple per relation alias, in join order.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedTuple {
    parts: Vec<(Symbol, Arc<Tuple>)>,
}

impl JoinedTuple {
    /// Builds a joined tuple from `(alias, tuple)` parts.
    pub fn new(parts: Vec<(Symbol, Arc<Tuple>)>) -> Self {
        Self { parts }
    }

    /// The component tuple bound to `alias` — the hot path.
    #[inline]
    pub fn part(&self, alias: Symbol) -> Option<&Tuple> {
        self.parts.iter().find(|(a, _)| *a == alias).map(|(_, t)| t.as_ref())
    }

    /// Iterates over `(alias, tuple)` parts in join order.
    pub fn parts(&self) -> impl Iterator<Item = (Symbol, &Tuple)> {
        self.parts.iter().map(|(a, t)| (*a, t.as_ref()))
    }

    /// The largest component timestamp — the output's event time.
    pub fn timestamp(&self) -> i64 {
        self.parts.iter().map(|(_, t)| t.timestamp).max().unwrap_or(0)
    }

    /// Flattens into a result tuple with `alias.attr` attribute names,
    /// plus per-alias `alias.timestamp` attributes so downstream consumers
    /// (e.g. residual window filters) retain the component times.
    /// Colliding output names keep their first occurrence.
    ///
    /// Compat shim: plans the layout on every call. Repeated flattening
    /// goes through [`JoinedTuple::flatten_cached`].
    pub fn flatten(&self, result_stream: impl Into<Symbol>) -> Tuple {
        self.apply_plan(&self.build_plan(|_, _| true), result_stream)
    }

    /// [`JoinedTuple::flatten`] with an owner-attached plan cache —
    /// flattening is the projection that keeps every column: the
    /// steady-state path copies scalars only.
    pub fn flatten_cached(
        &self,
        cache: &mut ProjPlanCache,
        result_stream: impl Into<Symbol>,
    ) -> Tuple {
        self.apply_plan(cache.plan_for(self, |_, _| true), result_stream)
    }

    /// Builds the column plan for this tuple's part shapes: per part its
    /// `alias.timestamp` (always kept, so residual filters downstream can
    /// re-check window bounds) followed by `alias.attr` for each component
    /// column `keeps(alias, attr)` admits. Colliding names — a stored
    /// attribute named `timestamp`, a repeated alias — keep their first
    /// occurrence, matching the legacy string-keyed shadowing.
    pub(crate) fn build_plan(&self, keeps: impl Fn(Symbol, Symbol) -> bool) -> ProjPlan {
        let ts = sym_timestamp();
        let mut attrs = Vec::new();
        let mut mask = Vec::new();
        let mut push = |sym: Symbol, keep: bool| {
            let emit = keep && !attrs.contains(&sym);
            if emit {
                attrs.push(sym);
            }
            mask.push(emit);
        };
        for (alias, t) in &self.parts {
            push(Symbol::dotted(*alias, ts), true);
            for &attr in t.schema().attrs() {
                push(Symbol::dotted(*alias, attr), keeps(*alias, attr));
            }
        }
        ProjPlan { schema: Schema::intern(&attrs), mask: mask.into() }
    }

    /// Emits the columns `plan` keeps, on `result_stream`.
    pub(crate) fn apply_plan(&self, plan: &ProjPlan, result_stream: impl Into<Symbol>) -> Tuple {
        Tuple::build(result_stream, self.timestamp(), plan.schema, |values| {
            let mut keep = plan.mask.iter();
            for (_, t) in &self.parts {
                if *keep.next().expect("mask covers all columns") {
                    values.push(Scalar::Int(t.timestamp));
                }
                for v in t.values() {
                    if *keep.next().expect("mask covers all columns") {
                        values.push(v.clone());
                    }
                }
            }
        })
    }
}

impl SymSource for JoinedTuple {
    #[inline]
    fn value(&self, rel: Symbol, attr: Symbol) -> Option<ScalarRef<'_>> {
        self.part(rel)?.get_sym(attr).map(Into::into)
    }

    #[inline]
    fn timestamp(&self, rel: Symbol) -> Option<i64> {
        self.part(rel).map(|t| t.timestamp)
    }
}

impl AttrSource for JoinedTuple {
    fn value(&self, attr: &AttrRef) -> Option<Scalar> {
        let part = self.part(attr.relation)?;
        if attr.attr == sym_timestamp() {
            return Some(Scalar::Int(part.timestamp));
        }
        part.get_sym(attr.attr).cloned()
    }

    fn timestamp(&self, alias: Symbol) -> Option<i64> {
        self.part(alias).map(|t| t.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::compiled::CompiledPredicate;
    use cosmos_query::predicate::eval_predicate;
    use cosmos_query::{CmpOp, Predicate};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn joined() -> JoinedTuple {
        JoinedTuple::new(vec![
            (
                "S1".into(),
                Arc::new(Tuple::new("Station1", 1_000).with("snowHeight", Scalar::Int(30))),
            ),
            (
                "S2".into(),
                Arc::new(Tuple::new("Station2", 2_000).with("snowHeight", Scalar::Int(10))),
            ),
        ])
    }

    #[test]
    fn attr_source_resolves_alias_and_timestamp() {
        let j = joined();
        assert_eq!(AttrSource::value(&j, &AttrRef::new("S1", "snowHeight")), Some(Scalar::Int(30)));
        assert_eq!(
            AttrSource::value(&j, &AttrRef::new("S1", "timestamp")),
            Some(Scalar::Int(1_000))
        );
        assert_eq!(AttrSource::value(&j, &AttrRef::new("S3", "snowHeight")), None);
        assert_eq!(AttrSource::timestamp(&j, "S2".into()), Some(2_000));
        assert_eq!(j.timestamp(), 2_000);
    }

    #[test]
    fn join_predicate_evaluation() {
        let j = joined();
        let p = Predicate::JoinCmp {
            left: AttrRef::new("S1", "snowHeight"),
            op: CmpOp::Gt,
            right: AttrRef::new("S2", "snowHeight"),
        };
        assert_eq!(eval_predicate(&p, &j), Some(true));
        assert_eq!(CompiledPredicate::compile(&p).eval(&j), Some(true));
        let td = Predicate::TimeDelta {
            left: "S1".into(),
            right: "S2".into(),
            min_ms: -30 * 60_000,
            max_ms: 0,
        };
        assert_eq!(eval_predicate(&td, &j), Some(true));
        assert_eq!(CompiledPredicate::compile(&td).eval(&j), Some(true));
    }

    #[test]
    fn flatten_prefixes_attributes() {
        let j = joined();
        let flat = j.flatten("result");
        assert_eq!(flat.stream, "result");
        assert_eq!(flat.timestamp, 2_000);
        assert_eq!(flat.get("S1.snowHeight"), Some(&Scalar::Int(30)));
        assert_eq!(flat.get("S1.timestamp"), Some(&Scalar::Int(1_000)));
        assert_eq!(flat.get("S2.snowHeight"), Some(&Scalar::Int(10)));
    }

    #[test]
    fn flatten_shares_schema_across_tuples_of_same_shape() {
        let a = joined().flatten("res");
        let b = joined().flatten("res");
        assert_eq!(a.schema().id(), b.schema().id());
        assert!(std::ptr::eq(a.schema(), b.schema()));
    }

    #[test]
    fn tuple_accessors() {
        let t = Tuple::new("R", 5).with("a", Scalar::Int(1));
        assert_eq!(t.get("a"), Some(&Scalar::Int(1)));
        assert_eq!(t.get("b"), None);
        assert_eq!(t.get_sym(Symbol::intern("a")), Some(&Scalar::Int(1)));
        // 16-byte header + 4-byte symbol + 8-byte int payload.
        assert_eq!(t.wire_size(), 28);
        assert!(t.to_string().contains("R@5"));
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn wire_size_charges_actual_string_payload() {
        let small = Tuple::new("R", 0).with("s", Scalar::Str("ab".into()));
        let big = Tuple::new("R", 0).with("s", Scalar::Str("a".repeat(100)));
        assert_eq!(small.wire_size(), 16 + 4 + 4 + 2);
        assert_eq!(big.wire_size(), 16 + 4 + 4 + 100);
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn tuples_of_same_shape_share_schema() {
        let a = Tuple::new("R", 0).with("k", Scalar::Int(1)).with("v", Scalar::Int(2));
        let b = Tuple::new("R", 1).with("k", Scalar::Int(3)).with("v", Scalar::Int(4));
        assert!(std::ptr::eq(a.schema(), b.schema()));
        assert_eq!(a.schema().id(), b.schema().id());
    }

    proptest! {
        /// Payload sharing must be invisible to byte accounting: a clone
        /// (refcount bump) costs the same wire bytes as its source, a
        /// retained projection charges exactly the kept attributes, and
        /// flattening `Arc`-shared parts charges the same bytes as
        /// flattening freshly built deep copies of the same content.
        #[test]
        fn prop_sharing_preserves_wire_size(
            vals in proptest::collection::vec(-100i64..100, 1..6),
            str_lens in proptest::collection::vec(0usize..13, 0..3),
            keep_mask in proptest::collection::vec(0u32..2, 1..10),
        ) {
            let mut t = Tuple::new("R", 7);
            let mut names = Vec::new();
            for (i, v) in vals.iter().enumerate() {
                let name = format!("n{i}");
                t = t.with(name.as_str(), Scalar::Int(*v));
                names.push(name);
            }
            for (i, len) in str_lens.iter().enumerate() {
                let name = format!("s{i}");
                t = t.with(name.as_str(), Scalar::Str("x".repeat(*len)));
                names.push(name);
            }
            // Clone: refcount bump, identical bytes.
            prop_assert_eq!(t.clone().wire_size(), t.wire_size());
            // Retain: the shared source charges exactly the kept content.
            let keep: BTreeSet<Symbol> = names
                .iter()
                .zip(keep_mask.iter().cycle())
                .filter(|(_, k)| **k == 1)
                .map(|(n, _)| Symbol::intern(n))
                .collect();
            let kept_payload: usize = t
                .iter()
                .filter(|(a, _)| keep.contains(a))
                .map(|(_, v)| 4 + v.wire_size())
                .sum();
            prop_assert_eq!(t.retaining(&keep).wire_size(), 16 + kept_payload);
            // Flatten: Arc-shared parts vs deep-copied parts, same bytes.
            let deep = Tuple::from_parts(t.stream, t.timestamp, t.schema(), t.values().to_vec());
            let part = Arc::new(t.clone());
            let shared_parts = JoinedTuple::new(vec![
                ("A".into(), Arc::clone(&part)),
                ("B".into(), Arc::clone(&part)),
            ]);
            let deep_parts = JoinedTuple::new(vec![
                ("A".into(), Arc::new(deep.clone())),
                ("B".into(), Arc::new(deep)),
            ]);
            let f_shared = shared_parts.flatten("res");
            let f_deep = deep_parts.flatten("res");
            prop_assert_eq!(f_shared.wire_size(), f_deep.wire_size());
            prop_assert_eq!(f_shared, f_deep);
            // The source is untouched by all of the above.
            prop_assert_eq!(t.clone().wire_size(), t.wire_size());
        }
    }
}
