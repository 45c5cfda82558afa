//! Global symbol interning and schema interning for the tuple data plane.
//!
//! Every stream name, relation alias, and attribute name in the system is
//! a short string drawn from a small, slowly-growing universe, while the
//! tuples carrying them number in the millions and the queries naming them
//! in the thousands. Interning maps each distinct string to a [`Symbol`] —
//! a `u32` — once: the CQL parser interns a name as it enters the query
//! AST, and records intern theirs when built, so the per-tuple hot paths
//! (predicate evaluation, window-join probing, broker filtering and early
//! projection, join flattening) and the per-query ones (compiling,
//! subscribing, covering) compare and hash integers instead of strings and
//! never allocate.
//!
//! [`Schema`] extends the same idea to attribute *lists*: tuples with the
//! same shape share one interned schema (symbol → column index), so a
//! tuple's payload is a bare scalar slice indexed positionally. A schema is
//! named by its `u32` id ([`Schema::id`]), which resolves back to the
//! schema lock-free ([`Schema::resolve`]) through the same kind of
//! append-only table that backs [`Symbol::as_str`]: a record carries the
//! id, not a pointer, and derived-schema caches — like the join-flatten
//! cache in `cosmos-engine` — key on it.
//!
//! Interned strings and schemas are leaked (`&'static str`,
//! `&'static Schema`): the universe of names and of record shapes is
//! bounded by the workload definition, not by traffic, so this is the
//! standard time/space trade for interners, and it is what lets a schema
//! be shared with no reference count.
//!
//! # Examples
//!
//! ```
//! use cosmos_util::intern::{Schema, Symbol};
//!
//! let a = Symbol::intern("snowHeight");
//! let b = Symbol::intern("snowHeight");
//! assert_eq!(a, b); // equal strings intern to the same symbol
//! assert_eq!(a.as_str(), "snowHeight");
//!
//! let schema = Schema::intern(&[Symbol::intern("k"), Symbol::intern("v")]);
//! assert_eq!(schema.index_of(Symbol::intern("v")), Some(1));
//! let same = Schema::intern(&[Symbol::intern("k"), Symbol::intern("v")]);
//! assert_eq!(schema.id(), same.id()); // equal attr lists share a schema
//! assert!(std::ptr::eq(Schema::resolve(schema.id()), schema));
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string: `u32`-sized, `Copy`, compared and hashed as an
/// integer. Equal strings always intern to the same symbol, across
/// threads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct StringInterner {
    map: HashMap<&'static str, u32>,
    len: u32,
}

fn string_interner() -> &'static RwLock<StringInterner> {
    static INTERNER: OnceLock<RwLock<StringInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(StringInterner { map: HashMap::new(), len: 0 }))
}

/// Lock-free id → value resolution: append-only chunks of geometrically
/// growing capacity (chunk `c` holds `64 << c` entries), each slot written
/// once under its interner's write lock and thereafter read with two
/// `OnceLock` loads — a resolve never takes a lock, which matters because
/// the data plane resolves a symbol per routing-table entry and a schema
/// per record lookup. One table backs [`Symbol::as_str`], another
/// [`Schema::resolve`].
const RESOLVE_CHUNKS: usize = 26;

struct ResolveTable<T: 'static> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; RESOLVE_CHUNKS],
}

impl<T> ResolveTable<T> {
    const fn new() -> Self {
        Self { chunks: [const { OnceLock::new() }; RESOLVE_CHUNKS] }
    }

    /// `(chunk, offset)` of id `id`.
    #[inline]
    fn slot(id: u32) -> (usize, usize) {
        let k = (id / 64) + 1;
        let chunk = (31 - k.leading_zeros()) as usize;
        let start = 64 * ((1u32 << chunk) - 1);
        (chunk, (id - start) as usize)
    }

    fn store(&self, id: u32, value: T) {
        let (chunk, offset) = Self::slot(id);
        assert!(chunk < RESOLVE_CHUNKS, "intern table overflow");
        let slab = self.chunks[chunk].get_or_init(|| {
            let cap = 64usize << chunk;
            (0..cap).map(|_| OnceLock::new()).collect::<Vec<_>>().into_boxed_slice()
        });
        if slab[offset].set(value).is_err() {
            panic!("intern slot {id} written twice");
        }
    }

    #[inline]
    fn get(&self, id: u32) -> Option<&T> {
        let (chunk, offset) = Self::slot(id);
        self.chunks.get(chunk)?.get()?[offset].get()
    }
}

static STRINGS: ResolveTable<&'static str> = ResolveTable::new();

thread_local! {
    /// Per-thread string → symbol fast path; hits cost one hash, no lock.
    static INTERN_CACHE: RefCell<HashMap<&'static str, Symbol>> =
        RefCell::new(HashMap::new());
}

impl Symbol {
    /// Interns `s`, returning its symbol (stable for the process lifetime).
    pub fn intern(s: &str) -> Symbol {
        if let Some(sym) = INTERN_CACHE.with_borrow(|c| c.get(s).copied()) {
            return sym;
        }
        let sym = Self::intern_global(s);
        INTERN_CACHE.with_borrow_mut(|c| c.insert(sym.as_str(), sym));
        sym
    }

    fn intern_global(s: &str) -> Symbol {
        let interner = string_interner();
        if let Some(&id) = interner.read().unwrap_or_else(|e| e.into_inner()).map.get(s) {
            return Symbol(id);
        }
        let mut w = interner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = w.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = w.len;
        w.len = w.len.checked_add(1).expect("symbol table overflow");
        STRINGS.store(id, leaked);
        w.map.insert(leaked, id);
        Symbol(id)
    }

    /// The symbol for `s` if it was interned before; never allocates.
    pub fn lookup(s: &str) -> Option<Symbol> {
        if let Some(sym) = INTERN_CACHE.with_borrow(|c| c.get(s).copied()) {
            return Some(sym);
        }
        string_interner().read().unwrap_or_else(|e| e.into_inner()).map.get(s).copied().map(Symbol)
    }

    /// The interned string. Lock-free (two atomic loads).
    pub fn as_str(self) -> &'static str {
        STRINGS.get(self.0).expect("dangling symbol id")
    }

    /// The raw table index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The interned symbol for `"{alias}.{attr}"`, built (and allocated)
    /// only the first time a given pair is seen — per-thread caches make
    /// repeat lookups two `u32` hashes with no locking.
    pub fn dotted(alias: Symbol, attr: Symbol) -> Symbol {
        DOTTED_CACHE.with_borrow_mut(|cache| {
            *cache
                .entry((alias, attr))
                .or_insert_with(|| Symbol::intern(&format!("{}.{}", alias.as_str(), attr.as_str())))
        })
    }

    /// Splits a dotted symbol back into `(alias, attr)` symbols; `None`
    /// when the string has no `.`. Allocation-free for names already
    /// interned via [`Symbol::dotted`].
    pub fn split_dotted(self) -> Option<(Symbol, Symbol)> {
        let (alias, attr) = self.as_str().split_once('.')?;
        Some((Symbol::intern(alias), Symbol::intern(attr)))
    }
}

thread_local! {
    static DOTTED_CACHE: RefCell<HashMap<(Symbol, Symbol), Symbol>> =
        RefCell::new(HashMap::new());
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

/// The well-known `timestamp` symbol (every tuple exposes its event time
/// under this pseudo-attribute).
pub fn sym_timestamp() -> Symbol {
    static TS: OnceLock<Symbol> = OnceLock::new();
    *TS.get_or_init(|| Symbol::intern("timestamp"))
}

/// An interned attribute list: maps attribute symbols to column indices.
///
/// Schemas are deduplicated globally and never freed, like symbols — equal
/// attribute lists share one `&'static Schema` and one `id`, and the id
/// resolves back to the schema lock-free ([`Schema::resolve`]) — so "same
/// shape" checks and derived-schema caches are integer comparisons, and a
/// record names its schema with a `u32`.
#[derive(PartialEq, Eq)]
pub struct Schema {
    id: u32,
    attrs: Box<[Symbol]>,
}

struct SchemaInterner {
    map: HashMap<&'static [Symbol], &'static Schema>,
}

fn schema_interner() -> &'static RwLock<SchemaInterner> {
    static INTERNER: OnceLock<RwLock<SchemaInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(SchemaInterner { map: HashMap::new() }))
}

static SCHEMAS: ResolveTable<&'static Schema> = ResolveTable::new();

thread_local! {
    /// Per-thread `(schema id, appended attr)` → extended schema cache.
    static EXTEND_CACHE: RefCell<HashMap<(u32, Symbol), &'static Schema>> =
        RefCell::new(HashMap::new());
}

impl Schema {
    /// Interns an attribute list.
    ///
    /// # Panics
    ///
    /// Panics on duplicate attributes — a schema is a positional index, so
    /// a repeated name would make `index_of` ambiguous.
    pub fn intern(attrs: &[Symbol]) -> &'static Schema {
        let interner = schema_interner();
        if let Some(&existing) = interner.read().unwrap_or_else(|e| e.into_inner()).map.get(attrs) {
            return existing;
        }
        // Validate before taking the write lock so a panic cannot leave it
        // poisoned mid-insert.
        for (i, a) in attrs.iter().enumerate() {
            assert!(!attrs[..i].contains(a), "duplicate attribute {a} in schema {attrs:?}");
        }
        let mut w = interner.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&existing) = w.map.get(attrs) {
            return existing;
        }
        let id = u32::try_from(w.map.len()).expect("schema table overflow");
        let schema: &'static Schema = Box::leak(Box::new(Schema { id, attrs: attrs.into() }));
        SCHEMAS.store(id, schema);
        w.map.insert(&schema.attrs, schema);
        schema
    }

    /// The schema whose [`id`](Schema::id) is `id`. Lock-free (two atomic
    /// loads), like [`Symbol::as_str`].
    ///
    /// # Panics
    ///
    /// Panics if no schema has that id.
    #[inline]
    pub fn resolve(id: u32) -> &'static Schema {
        SCHEMAS.get(id).expect("dangling schema id")
    }

    /// The empty schema.
    pub fn empty() -> &'static Schema {
        static EMPTY: OnceLock<&'static Schema> = OnceLock::new();
        EMPTY.get_or_init(|| Schema::intern(&[]))
    }

    /// This schema extended by `attr` (interned). A per-thread cache keyed
    /// by `(schema id, attr)` makes the builder-style tuple constructors
    /// (`.with(...)` chains) two small hashes per attribute on repeat
    /// shapes instead of a global-lock schema interning.
    pub fn with(&self, attr: Symbol) -> &'static Schema {
        EXTEND_CACHE.with_borrow_mut(|cache| {
            *cache.entry((self.id, attr)).or_insert_with(|| {
                let mut attrs = self.attrs.to_vec();
                attrs.push(attr);
                Schema::intern(&attrs)
            })
        })
    }

    /// Globally unique id (equal attribute lists ⇒ equal ids).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The attribute list, in column order.
    pub fn attrs(&self) -> &[Symbol] {
        &self.attrs
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// `true` when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The column index of `attr`. Linear scan over `u32`s — sensor
    /// schemas are narrow, so this beats hashing.
    pub fn index_of(&self, attr: Symbol) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema").field("id", &self.id).field("attrs", &self.attrs).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_intern_to_same_symbol() {
        let a = Symbol::intern("alpha-test");
        let b = Symbol::intern("alpha-test");
        let c = Symbol::intern("beta-test");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn round_trip_through_str() {
        let s = Symbol::intern("round-trip-value");
        assert_eq!(s.as_str(), "round-trip-value");
        assert_eq!(s, "round-trip-value");
        assert_eq!(s.to_string(), "round-trip-value");
        assert_eq!(Symbol::from("round-trip-value"), s);
        assert_eq!(Symbol::lookup("round-trip-value"), Some(s));
        assert_eq!(Symbol::lookup("never-interned-xyzzy"), None);
    }

    #[test]
    fn cross_thread_stability() {
        let here = Symbol::intern("cross-thread-name");
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mine = Symbol::intern("cross-thread-name");
                    let unique = Symbol::intern(&format!("cross-thread-{i}"));
                    (mine, unique)
                })
            })
            .collect();
        let mut uniques = Vec::new();
        for h in handles {
            let (mine, unique) = h.join().unwrap();
            assert_eq!(mine, here, "same string must be the same symbol on every thread");
            uniques.push(unique);
        }
        uniques.sort_unstable();
        uniques.dedup();
        assert_eq!(uniques.len(), 8, "distinct strings must stay distinct");
    }

    #[test]
    fn dotted_builds_and_splits() {
        let alias = Symbol::intern("S1");
        let attr = Symbol::intern("snowHeight");
        let dotted = Symbol::dotted(alias, attr);
        assert_eq!(dotted.as_str(), "S1.snowHeight");
        assert_eq!(Symbol::dotted(alias, attr), dotted);
        assert_eq!(dotted.split_dotted(), Some((alias, attr)));
        assert_eq!(alias.split_dotted(), None);
    }

    #[test]
    fn schema_interning_dedupes() {
        let k = Symbol::intern("schema-k");
        let v = Symbol::intern("schema-v");
        let a = Schema::intern(&[k, v]);
        let b = Schema::intern(&[k, v]);
        let c = Schema::intern(&[v, k]);
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a, b));
        assert_ne!(a.id(), c.id(), "column order is part of schema identity");
        assert_eq!(a.index_of(k), Some(0));
        assert_eq!(a.index_of(v), Some(1));
        assert_eq!(c.index_of(k), Some(1));
        assert_eq!(a.index_of(Symbol::intern("schema-missing")), None);
    }

    #[test]
    fn schemas_resolve_to_one_schema_on_every_thread() {
        let attrs = [Symbol::intern("cross-thread-k"), Symbol::intern("cross-thread-v")];
        let here = Schema::intern(&attrs);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mine = Schema::intern(&attrs);
                    let unique =
                        Schema::intern(&[Symbol::intern(&format!("cross-thread-col-{i}"))]);
                    (mine, unique, Schema::resolve(unique.id()))
                })
            })
            .collect();
        let mut uniques = Vec::new();
        for h in handles {
            let (mine, unique, resolved) = h.join().unwrap();
            assert!(std::ptr::eq(mine, here), "same attrs must be the same schema on every thread");
            assert!(std::ptr::eq(Schema::resolve(mine.id()), here));
            assert!(
                std::ptr::eq(resolved, unique),
                "a schema resolves to itself on its own thread"
            );
            assert!(std::ptr::eq(Schema::resolve(unique.id()), unique), "… and on this one");
            uniques.push(unique.id());
        }
        uniques.sort_unstable();
        uniques.dedup();
        assert_eq!(uniques.len(), 8, "distinct attr lists must stay distinct");
    }

    #[test]
    fn schema_ids_round_trip_across_chunk_boundaries() {
        let col = Symbol::intern("chunk-boundary-col");
        let mut n = 0;
        while Schema::intern(&[col, Symbol::intern(&format!("chunk-boundary-{n}"))]).id() < 193 {
            n += 1;
        }
        // Chunk 0 holds ids 0..64, chunk 1 64..192, chunk 2 from 192.
        for id in [0, 63, 64, 191, 192] {
            let schema = Schema::resolve(id);
            assert_eq!(schema.id(), id);
            assert!(std::ptr::eq(Schema::intern(schema.attrs()), schema));
        }
    }

    #[test]
    fn schema_with_extends() {
        let base = Schema::empty();
        assert!(base.is_empty());
        let k = Symbol::intern("extend-k");
        let one = base.with(k);
        assert_eq!(one.len(), 1);
        assert_eq!(one.attrs(), &[k]);
        // Extending again with the same symbol would duplicate — covered by
        // the panic contract, exercised below.
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn schema_rejects_duplicates() {
        let k = Symbol::intern("dup-k");
        let _ = Schema::intern(&[k, k]);
    }

    #[test]
    fn timestamp_symbol_is_stable() {
        assert_eq!(sym_timestamp(), Symbol::intern("timestamp"));
    }
}
