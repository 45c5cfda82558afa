//! Content-based Publish/Subscribe substrate (Siena-style) for COSMOS.
//!
//! The paper adopts a distributed Pub/Sub as the communication substrate
//! (§1.2–§1.3): data sources *advertise*, consumers *subscribe* with content
//! constraints, and brokers route messages so that (1) a message crosses
//! each link at most once, (2) messages are filtered and projected as early
//! as possible, and (3) sources and consumers stay loosely coupled.
//!
//! Six layers:
//!
//! - [`subscription`]: subscription content — per-stream projections and
//!   filters exactly as §2.1 describes (`S`, `P`, `F` lists) — plus the
//!   covering relation used to merge subscriptions inside the network.
//! - [`index`]: the per-node routing index — stream partitioning plus a
//!   Siena-style counting predicate index over filter constants — that
//!   makes broker matching sublinear in routing-table size, and the one
//!   matcher every publish path runs, with its match state owned by
//!   whoever matches.
//! - [`broker`]: a message-level broker network over a physical topology:
//!   advertisement-guided subscription propagation with covering-based
//!   pruning, indexed routing tables per node, reverse-path message
//!   forwarding with per-link traffic accounting (Figure 2's behaviour,
//!   reproducible in tests).
//! - [`fault`] / [`reliable`]: the fault plane — a seeded, deterministic
//!   per-link fault schedule (drop / duplicate / reorder) countered by
//!   per-link reliable exactly-once delivery (sequence numbers,
//!   cumulative acks sent only with news and at most once per link
//!   delay, retransmission with bounded backoff over simulated time,
//!   dedup windows), converging bit-for-bit to the fault-free delivery
//!   log.
//! - [`recovery`]: the crash-recovery plane — the network side of
//!   `cosmos-engine`'s upstream-backup protocol (`ReplayHost`):
//!   engine-hosting brokers checkpoint their operator state against a
//!   monotone input watermark on a simulated-time tick, while one replay
//!   log per host retains every record published toward it until a
//!   checkpoint acknowledges it; on crash + restore the engine reloads its
//!   last checkpoint, the unacked suffix replays, and the recovered output
//!   log converges bit-for-bit to the crash-free run.
//! - [`traffic`]: the rate-based cost model the large-scale experiments use:
//!   each substream's delivery cost is its rate times the latency-weighted
//!   multicast tree connecting its source to every interested processor,
//!   plus unicast result-stream costs. This is the "weighted communication
//!   cost" metric of §4.
//!
//! Beside them, [`snapshot`] freezes the broker's routing tables into an
//! immutable [`RoutingSnapshot`] on demand, refreezing only the nodes
//! churn touched. Nothing publishes through it; the end-to-end harness
//! times the freeze.
//!
//! # Examples
//!
//! ```
//! use cosmos_pubsub::subscription::{Subscription, StreamProjection};
//! use cosmos_net::NodeId;
//!
//! let broad = Subscription::builder(NodeId(6))
//!     .stream("R", StreamProjection::All, vec![])
//!     .build();
//! let narrow = Subscription::builder(NodeId(7))
//!     .stream("R", StreamProjection::attrs(["a"]), vec![])
//!     .build();
//! assert!(broad.covers(&narrow));
//! assert!(!narrow.covers(&broad));
//! ```

pub mod broker;
pub mod fault;
pub mod index;
pub mod recovery;
pub mod reliable;
pub mod snapshot;
pub mod subscription;
pub mod tiered;
pub mod traffic;

pub use broker::{BrokerNetwork, Delivery, DeliveryLog, LinkStats};
pub use fault::{FaultAction, FaultConfig, FaultPlan};
pub use index::{RoutingFootprint, RoutingTable};
pub use recovery::RecoveryNetwork;
pub use reliable::LossyNetwork;
pub use snapshot::RoutingSnapshot;
pub use subscription::{CachedProjection, Message, StreamProjection, SubId, Subscription};
pub use tiered::TieredList;
pub use traffic::{PlacementCost, QueryTraffic, SubstreamTable, TrafficModel};
