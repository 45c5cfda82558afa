//! COSMOS core: the massive-query-distribution middleware of the paper.
//!
//! COSMOS ("COoperated and Self-tuning Management Of Streaming data")
//! distributes continuous queries — in units of whole queries, not
//! operators — across the stream processors of a wide-area system so that
//! (a) processor load stays balanced and (b) the weighted communication
//! cost of the underlying Pub/Sub is minimized (§3.1.1). The problem is
//! modeled as mapping a *query graph* onto a *network graph* (§3.1.2) and
//! solved hierarchically by a tree of coordinators (§3.3).
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1.2 graph model, WEC (eqn 3.2), load constraint (eqn 3.1) | [`graph`] |
//! | §3.2 substream bit-vector interests | [`spec`] (+ `cosmos_util::InterestSet`) |
//! | §3.3 coordinator tree (clusters of size `[k, 3k−1]`, medians) | [`hierarchy`] |
//! | §3.4 Algorithm 1: query graph coarsening | [`coarsen`] |
//! | §3.5 Algorithm 2: greedy + iterative-refinement graph mapping | [`mapping`] |
//! | §3.5 hierarchical top-down distribution with uncoarsening | [`distribute`] |
//! | §3.6 online insertion of new queries through the tree | [`online`] |
//! | §3.7 Algorithm 3: diffusion-based adaptive redistribution | [`adaptive`] |
//! | §3.8 statistics collection, [`stats::StatDelta`] change stream | [`stats`] |
//! | §3.7/§3.8 delta-driven incremental optimizer (memoized pipeline) | [`incremental`] |
//!
//! Three documented deviations from the paper: anchor n-vertices never
//! collapse and matching is gain-aware ([`coarsen`]), and a distribution
//! ends with a query-level refinement on the modelled multicast + unicast
//! cost itself, where the paper's uncoarsening stops at whole level-1
//! clusters ([`distribute`]).
//!
//! The incremental layer sits across the optimizer pipeline: it keeps
//! per-coordinator coarsening results and placement memos alive between
//! adaptation rounds, so a round whose
//! [`stats::StatDelta`] stream touched few vertices re-does only the
//! covering subtrees' work while remaining observationally equal to a
//! fresh optimizer's round with the same seed.
//! [`IncrementalOptimizer::round`] is the only way to run a round.
//!
//! # Examples
//!
//! ```
//! use cosmos_core::spec::QuerySpec;
//! use cosmos_core::distribute::Distributor;
//! use cosmos_core::hierarchy::CoordinatorTree;
//! use cosmos_net::{Deployment, TransitStubConfig};
//! use cosmos_pubsub::SubstreamTable;
//! use cosmos_util::InterestSet;
//!
//! let topo = TransitStubConfig::small().generate(7);
//! let dep = Deployment::assign(topo, 3, 6, 7);
//! let tree = CoordinatorTree::build(&dep, 2);
//! let table = SubstreamTable::random(50, 3, 1.0, 10.0, 7);
//! let queries: Vec<QuerySpec> = (0..20)
//!     .map(|i| QuerySpec {
//!         id: cosmos_query::QueryId(i),
//!         interest: InterestSet::from_indices(50, [(i as usize) % 50, (i as usize * 7) % 50]),
//!         load: 1.0,
//!         proxy: dep.processors()[(i as usize) % 6],
//!         result_rate: 1.0,
//!         state_size: 1.0,
//!     })
//!     .collect();
//! let distributor = Distributor::new(&dep, &tree, &table);
//! let outcome = distributor.distribute(&queries, 7);
//! assert_eq!(outcome.assignment.len(), 20);
//! ```

pub mod adaptive;
pub mod coarsen;
pub mod distribute;
pub mod graph;
pub mod hierarchy;
pub mod incremental;
pub mod mapping;
pub mod online;
pub mod spec;
pub mod stats;

pub use graph::{NetworkGraph, QueryGraph};
pub use hierarchy::CoordinatorTree;
pub use incremental::IncrementalOptimizer;
pub use spec::{Assignment, QuerySpec};
pub use stats::StatDelta;
