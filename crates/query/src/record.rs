//! The unified, `Arc`-shared record type of the data plane.
//!
//! # Why one type
//!
//! The engine's `Tuple` and the Pub/Sub `Message` evolved into byte-identical
//! schema-indexed records — `{stream, timestamp, schema, payload}` —
//! maintained in parallel in two crates. [`Record`] collapses them into one
//! definition here (where [`Scalar`] lives); `cosmos_engine::tuple::Tuple`
//! and `cosmos_pubsub::subscription::Message` are aliases of it, so a record
//! crossing the broker→engine boundary is *the same value*, not a re-keyed
//! copy.
//!
//! # Why 32 bytes: a schema id and an `Arc<[Scalar]>`
//!
//! A record is a stream [`Symbol`], a `u32` schema id, the `i64` timestamp
//! and the payload's fat pointer: 32 bytes inline. The schema is interned
//! and never freed (`cosmos_util::intern`), so the record names it by id
//! and [`Record::schema`] resolves the id lock-free; no reference count is
//! kept for it.
//!
//! The payload is shared, not owned: `clone()` is one reference-count bump.
//! That makes every fan-out point zero-copy — a broker delivering one
//! message to hundreds of matched subscribers, a multi-hop relay forwarding
//! an unprojected record, a shared-execution engine splitting one result to
//! many member queries — where an owned `Vec<Scalar>` forced a deep copy
//! per consumer. Construction still pays one allocation
//! ([`Record::from_parts`]); everything downstream bumps a counter.
//!
//! [`Record::wire_size`] charges the *content* (per attribute: a 4-byte
//! symbol id plus the value's actual payload), never the sharing: a shared
//! and a deep-copied record of equal content cost the same bytes, so link
//! traffic accounting is unaffected by who holds the payload.

use crate::ast::{AttrRef, Scalar};
use crate::compiled::{ScalarRef, SymSource};
use crate::predicate::AttrSource;
use cosmos_util::intern::{sym_timestamp, Schema, Symbol};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The empty payload, shared process-wide so `Record::new` never allocates.
fn empty_payload() -> Arc<[Scalar]> {
    static EMPTY: OnceLock<Arc<[Scalar]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Vec::new().into()))
}

/// A stream record: stream (or alias) tag, event timestamp, and a
/// positional scalar payload indexed by an interned [`Schema`], which the
/// record names by id.
///
/// The payload is `Arc`-shared: cloning a record bumps one reference
/// count (the payload's) and copies no scalar. See the module docs.
#[derive(Clone, PartialEq)]
pub struct Record {
    /// The stream this record belongs to.
    pub stream: Symbol,
    schema: u32,
    /// Event time in milliseconds.
    pub timestamp: i64,
    payload: Arc<[Scalar]>,
}

impl Record {
    /// Creates an empty record (compat shim; interns `stream`).
    pub fn new(stream: impl Into<Symbol>, timestamp: i64) -> Self {
        Self {
            stream: stream.into(),
            schema: Schema::empty().id(),
            timestamp,
            payload: empty_payload(),
        }
    }

    /// Builds a record from an owned payload — the construction hot path
    /// (one allocation to move the values into the shared slice).
    ///
    /// # Panics
    ///
    /// Panics if `values` and `schema` disagree on arity.
    pub fn from_parts(
        stream: impl Into<Symbol>,
        timestamp: i64,
        schema: &'static Schema,
        values: Vec<Scalar>,
    ) -> Self {
        assert_eq!(schema.len(), values.len(), "schema/values arity mismatch");
        Self { stream: stream.into(), schema: schema.id(), timestamp, payload: values.into() }
    }

    /// Builds a record by filling a right-sized buffer — the emit-path
    /// constructor. (Measured against a reused thread-local scratch
    /// buffer drained into the `Arc`: the plain exact-capacity `Vec` plus
    /// `into()` wins, so that is what this does.)
    ///
    /// # Panics
    ///
    /// Panics if the filled buffer and `schema` disagree on arity.
    pub fn build(
        stream: impl Into<Symbol>,
        timestamp: i64,
        schema: &'static Schema,
        fill: impl FnOnce(&mut Vec<Scalar>),
    ) -> Self {
        let mut buf = Vec::with_capacity(schema.len());
        fill(&mut buf);
        assert_eq!(schema.len(), buf.len(), "schema/values arity mismatch");
        let payload: Arc<[Scalar]> = buf.into();
        Self { stream: stream.into(), schema: schema.id(), timestamp, payload }
    }

    /// Builds a record on an already-shared payload — the zero-copy
    /// constructor projection/fan-out paths use.
    ///
    /// # Panics
    ///
    /// Panics if `payload` and `schema` disagree on arity.
    pub fn from_shared(
        stream: impl Into<Symbol>,
        timestamp: i64,
        schema: &'static Schema,
        payload: Arc<[Scalar]>,
    ) -> Self {
        assert_eq!(schema.len(), payload.len(), "schema/payload arity mismatch");
        Self { stream: stream.into(), schema: schema.id(), timestamp, payload }
    }

    /// Adds an attribute (builder-style compat shim; re-interns the
    /// extended schema, so repeated shapes still share one schema).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already present — schemas are positional
    /// indices, so duplicate names are rejected at construction.
    pub fn with(self, name: impl Into<Symbol>, value: Scalar) -> Self {
        let schema = self.schema().with(name.into());
        Record::build(self.stream, self.timestamp, schema, |buf| {
            buf.extend(self.payload.iter().cloned());
            buf.push(value);
        })
    }

    /// The record's schema, resolved from its id without a lock.
    #[inline]
    pub fn schema(&self) -> &'static Schema {
        Schema::resolve(self.schema)
    }

    /// The positional payload.
    pub fn values(&self) -> &[Scalar] {
        &self.payload
    }

    /// The same payload under a different schema — pure schema rewriting
    /// (e.g. alias renaming) shares the scalars untouched.
    ///
    /// # Panics
    ///
    /// Panics if `schema`'s arity differs from this record's.
    pub fn with_schema(&self, schema: &'static Schema) -> Record {
        assert_eq!(schema.len(), self.payload.len(), "schema/payload arity mismatch");
        Record {
            stream: self.stream,
            schema: schema.id(),
            timestamp: self.timestamp,
            payload: Arc::clone(&self.payload),
        }
    }

    /// Looks up an attribute value by symbol — the hot path.
    #[inline]
    pub fn get_sym(&self, attr: Symbol) -> Option<&Scalar> {
        self.schema().index_of(attr).map(|i| &self.payload[i])
    }

    /// Looks up an attribute value by name (compat shim; never interns).
    pub fn get(&self, name: &str) -> Option<&Scalar> {
        self.get_sym(Symbol::lookup(name)?)
    }

    /// Iterates `(attribute, value)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Scalar)> {
        self.schema().attrs().iter().copied().zip(self.payload.iter())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// `true` when the record has no attributes.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The record restricted to the attributes in `keep`, a sorted slice
    /// (binary-searched) — the broker's early-projection step, uncached:
    /// the projected schema is filtered and interned per call (so it is
    /// the one interned schema of its shape). The broker's hot paths cache
    /// that plan on the route entry that owns the projection instead
    /// (`CachedProjection` in `cosmos-pubsub`).
    pub fn retaining(&self, keep: &[Symbol]) -> Record {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "`keep` must be sorted and unique");
        let kept = |a: &Symbol| keep.binary_search(a).is_ok();
        let attrs: Vec<Symbol> = self.schema().attrs().iter().copied().filter(kept).collect();
        let schema = Schema::intern(&attrs);
        Record::build(self.stream, self.timestamp, schema, |buf| {
            for (a, v) in self.iter() {
                if kept(&a) {
                    buf.push(v.clone());
                }
            }
        })
    }

    /// Approximate wire size in bytes: a 16-byte header (stream tag +
    /// timestamp), then per attribute a 4-byte symbol id plus the value's
    /// actual payload — 8 bytes for numbers, length plus a 4-byte length
    /// prefix for strings. Sharing is invisible here: the engine and the
    /// broker charge the same bytes for the same content, whether the
    /// payload is `Arc`-shared or not.
    pub fn wire_size(&self) -> usize {
        16 + self.payload.iter().map(|v| 4 + v.wire_size()).sum::<usize>()
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("stream", &self.stream)
            .field("timestamp", &self.timestamp)
            .field("schema", self.schema())
            .field("payload", &self.payload)
            .finish()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}{{", self.stream, self.timestamp)?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl SymSource for Record {
    #[inline]
    fn value(&self, rel: Symbol, attr: Symbol) -> Option<ScalarRef<'_>> {
        if rel != self.stream {
            return None;
        }
        self.get_sym(attr).map(Into::into)
    }

    #[inline]
    fn timestamp(&self, rel: Symbol) -> Option<i64> {
        (rel == self.stream).then_some(self.timestamp)
    }
}

impl AttrSource for Record {
    fn value(&self, attr: &AttrRef) -> Option<Scalar> {
        if self.stream != attr.relation {
            return None;
        }
        // The `timestamp` pseudo-attribute resolves to the header, exactly
        // as the compiled evaluator does — AST-level and compiled filter
        // evaluation agree on records.
        if attr.attr == sym_timestamp() {
            return Some(Scalar::Int(self.timestamp));
        }
        self.get_sym(attr.attr).cloned()
    }

    fn timestamp(&self, alias: Symbol) -> Option<i64> {
        (self.stream == alias).then_some(self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_payload() {
        let r = Record::new("R", 5).with("a", Scalar::Int(1)).with("b", Scalar::Str("xy".into()));
        let c = r.clone();
        assert_eq!(r, c);
        assert!(Arc::ptr_eq(&r.payload, &c.payload), "clone must share, not copy");
        assert!(std::ptr::eq(r.schema(), c.schema()));
        assert_eq!(r.schema, c.schema);
    }

    #[test]
    fn with_schema_shares_payload() {
        let r = Record::new("R", 0).with("a", Scalar::Int(1));
        let renamed = r.with_schema(Schema::intern(&[Symbol::intern("z")]));
        assert!(Arc::ptr_eq(&r.payload, &renamed.payload));
        assert_eq!(renamed.get("z"), Some(&Scalar::Int(1)));
        assert_eq!(renamed.wire_size(), r.wire_size());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn with_schema_rejects_arity_mismatch() {
        let r = Record::new("R", 0).with("a", Scalar::Int(1));
        let _ = r.with_schema(Schema::empty());
    }

    #[test]
    fn retaining_projects_and_recomputes_size() {
        let r = Record::new("R", 9).with("a", Scalar::Int(1)).with("b", Scalar::Int(2));
        let p = r.retaining(&[Symbol::intern("a")]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.get("a"), Some(&Scalar::Int(1)));
        assert_eq!(p.timestamp, 9);
        assert!(p.wire_size() < r.wire_size());
    }

    #[test]
    fn empty_records_share_one_payload() {
        let a = Record::new("R", 0);
        let b = Record::new("S", 1);
        assert!(Arc::ptr_eq(&a.payload, &b.payload));
    }
}
