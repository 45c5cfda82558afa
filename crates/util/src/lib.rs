//! Shared utilities for the COSMOS reproduction.
//!
//! This crate hosts the small, dependency-free building blocks that the rest
//! of the workspace leans on:
//!
//! - [`InterestSet`]: a packed bit vector over *substreams*, the paper's
//!   representation of a query's data interest (§3.2: "we partition each
//!   stream into a number of substreams, and represent each query's data
//!   interest as a bit vector").
//! - [`zipf::Zipf`]: a deterministic Zipfian sampler used by the workload
//!   generator (the paper draws substream popularity with θ = 0.8).
//! - [`stats`]: mean and population standard deviation of a slice, used
//!   to report the load-deviation figures.
//! - [`rng`]: seed-derivation helpers so every experiment is reproducible.
//! - [`intern`]: global [`Symbol`] and [`Schema`] interners backing the
//!   schema-indexed tuple data plane — stream/attribute names become `u32`
//!   symbols, tuple shapes become interned `&'static Schema`s named by a
//!   `u32` id, and the per-tuple hot paths (predicate evaluation, join
//!   flattening, broker filtering and early projection) compare integers
//!   instead of strings.
//! - [`plancache`]: [`PlanCache`], the owner-attached cache every column
//!   plan of the engine and the broker hangs off — the only plan cache;
//!   nothing in the planes keeps one per thread or per process.
//! - [`vecmap`]: [`VecMap`], a map kept as one sorted vector — what the
//!   routing plane uses where it holds tens of thousands of maps with one
//!   or two keys each.
//! - [`one_or_many`]: [`OneOrMany`], a vector that keeps its first element
//!   inline — what a stream partition stores its members and hop groups
//!   in, where nearly every partition holds one of each.
//!
//! # Examples
//!
//! ```
//! use cosmos_util::InterestSet;
//!
//! let mut a = InterestSet::new(128);
//! a.insert(3);
//! a.insert(64);
//! let mut b = InterestSet::new(128);
//! b.insert(64);
//! assert_eq!(a.intersection_count(&b), 1);
//! ```

pub mod bitset;
pub mod intern;
pub mod one_or_many;
pub mod plancache;
pub mod rng;
pub mod stats;
pub mod timer;
pub mod vecmap;
pub mod zipf;

pub use bitset::InterestSet;
pub use intern::{Schema, Symbol};
pub use one_or_many::OneOrMany;
pub use plancache::PlanCache;
pub use timer::{EventQueue, Stopwatch};
pub use vecmap::VecMap;
