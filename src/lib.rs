//! COSMOS — a middleware for massive query optimization in large-scale
//! distributed stream systems.
//!
//! This is the façade crate of the reproduction of Zhou, Aberer, and Tan,
//! *"Toward Massive Query Optimization in Large-Scale Distributed Stream
//! Systems"* (Middleware 2008). It re-exports the workspace crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`util`] | `cosmos-util` | interest bit vectors, Zipf, statistics |
//! | [`net`] | `cosmos-net` | transit-stub topologies, shortest paths, deployments |
//! | [`query`] | `cosmos-query` | CQL subset, predicates, containment & merging |
//! | [`pubsub`] | `cosmos-pubsub` | content-based Pub/Sub, covering, traffic model |
//! | [`engine`] | `cosmos-engine` | continuous-query engine, shared execution |
//! | [`core`] | `cosmos-core` | graphs, coarsening, mapping, hierarchy, online, adaptive |
//! | [`baselines`] | `cosmos-baselines` | Naive/Random and operator placement |
//! | [`workload`] | `cosmos-workload` | paper workloads, sensors, simulation driver |
//!
//! # Quickstart
//!
//! ```
//! use cosmos::workload::{PaperParams, Simulation};
//!
//! // Build the paper's environment at 5% scale and distribute 200 queries.
//! let mut sim = Simulation::build(PaperParams::scaled(0.05), 42);
//! let batch = sim.arrivals(200, 1);
//! let distributor = sim.distributor();
//! let outcome = distributor.distribute(&batch, 2);
//! drop(distributor);
//! sim.apply(outcome.assignment);
//! assert!(sim.comm_cost() > 0.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench/`
//! for the binaries regenerating every table and figure of the paper.

pub use cosmos_baselines as baselines;
pub use cosmos_core as core;
pub use cosmos_engine as engine;
pub use cosmos_net as net;
pub use cosmos_pubsub as pubsub;
pub use cosmos_query as query;
pub use cosmos_util as util;
pub use cosmos_workload as workload;
