//! Workload generation and the experiment simulation driver.
//!
//! Everything §4.1 specifies about the simulation study lives here:
//!
//! - [`params::PaperParams`]: the experimental constants (4096-node
//!   transit-stub topology, 100 sources, 256 processors, 20 000 substreams
//!   with rates 1–10 B/s, g = 20 query groups with Zipf θ = 0.8 hot spots,
//!   queries requesting 100–200 substreams) plus a uniform `scaled(f)`
//!   knob so benches can run the same *shape* at laptop sizes. The load
//!   tolerance α = 0.1 is no parameter either: it is
//!   [`cosmos_core::distribute::ALPHA`].
//!   (The paper's 200 s adaptation interval is no parameter: the drivers
//!   run one adaptation round per event.)
//! - [`generator`]: the group-permuted Zipfian query generator ("to model
//!   different groups having different hot spots, we generate g random
//!   permutations of the substreams"); query load proportional to input
//!   rate.
//! - [`sensors`]: the SensorScope substitute for the prototype study —
//!   synthetic snow-station sensors with random-walk readings, CQL query
//!   generation (1–3 selections + timestamp joins), and the mapping of CQL
//!   queries onto abstract [`cosmos_core::spec::QuerySpec`]s.
//! - [`sim`]: the [`sim::Simulation`] driver: holds the deployment, the
//!   (mutable) substream table, the coordinator tree and the current
//!   assignment; measures Pub/Sub communication cost and load deviation;
//!   applies query arrivals, rate perturbations, and adaptation rounds.

pub mod generator;
pub mod params;
pub mod sensors;
pub mod sim;

pub use params::{PaperParams, RecoveryParams};
pub use sim::{FaultOp, RecoverySim, Simulation};
