//! CQL-subset continuous query language for the COSMOS reproduction.
//!
//! The paper's users submit continuous queries "specified in an SQL-like
//! language similar to CQL" (§2). The subset this crate implements is exactly
//! what the paper's examples exercise (Figure 1, Table 1):
//!
//! - `SELECT` lists with `*`, `alias.*`, and qualified attributes,
//! - `FROM` with per-relation windows: `[Now]`, `[Range n unit]`,
//!   `[Unbounded]`,
//! - conjunctive `WHERE` clauses of selection predicates
//!   (`S1.snowHeight >= 10`) and join predicates
//!   (`R.b = S.b`, `S1.snowHeight > S2.snowHeight`).
//!
//! Every stream, alias and attribute name in the AST is a
//! [`Symbol`](cosmos_util::intern::Symbol), interned by the parser as the
//! name enters the tree and never freed (the leak rule of
//! [`cosmos_util::intern`]); everything downstream compares and hashes the
//! symbols it is handed.
//!
//! On top of the AST the crate provides:
//!
//! - [`parser`]: a recursive-descent parser with helpful errors,
//! - [`predicate`]: evaluation and *implication* checking for predicates
//!   (needed both for early filtering in the Pub/Sub and for containment),
//! - [`containment`]: the extension of classical query containment /
//!   equivalence to window-based continuous queries (§2.1, ref \[25\]) used to
//!   share result streams: merging overlapping queries into one covering
//!   query plus residual per-user subscription filters.
//!
//! # Examples
//!
//! ```
//! use cosmos_query::parse_query;
//!
//! let q3 = parse_query(
//!     "SELECT S2.* \
//!      FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
//!      WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
//! )?;
//! assert_eq!(q3.relations.len(), 2);
//! assert_eq!(q3.selection_predicates().count(), 1);
//! # Ok::<(), cosmos_query::parser::ParseError>(())
//! ```

pub mod ast;
pub mod compiled;
pub mod containment;
pub mod parser;
pub mod predicate;
pub mod record;

pub use ast::{
    AggFunc, AttrRef, CmpOp, Predicate, ProjItem, Query, QueryId, RelationRef, Scalar, Window,
};
pub use compiled::{eval_compiled, CompiledPredicate, ScalarRef, SymSource};
pub use containment::{coverer_bounds, covers, merge_queries, CoverBounds, MergedQuery};
pub use parser::{parse_query, ParseError};
pub use record::Record;
