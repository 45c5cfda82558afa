//! Transit-Stub topology generation (the GT-ITM model, reimplemented).
//!
//! Structure, following Zegura/Calvert/Bhattacharjee's Transit-Stub model:
//!
//! - `transit_domains` transit domains; the domains are connected into a ring
//!   plus random chords so the core survives any single failure.
//! - Each transit domain has `transit_nodes_per_domain` nodes connected as a
//!   ring plus random chords (intra-transit latencies).
//! - Each transit node attaches `stub_domains_per_transit` stub domains of
//!   `stub_nodes_per_domain` nodes each; a stub domain is a random connected
//!   subgraph (spanning tree + extra edges) with small intra-stub latencies,
//!   linked to its transit node through a random gateway stub node.
//!
//! Latency classes mirror wide-area reality: intra-stub (LAN/metro) ≪
//! stub-transit (regional) < intra-transit (national backbone) <
//! inter-transit (inter-continental). Figure-level experiments only consume
//! role assignments and pairwise latencies, so matching GT-ITM's *structure*
//! suffices for reproduction.

use crate::graph::{NodeId, Topology};
use rand::Rng;
use rand::SeedableRng;

/// Inclusive latency range for one edge tier, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct LatencyRange {
    /// Lower bound (ms).
    pub min: f64,
    /// Upper bound (ms).
    pub max: f64,
}

impl LatencyRange {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.max <= self.min {
            self.min
        } else {
            rng.gen_range(self.min..=self.max)
        }
    }
}

/// Configuration of the Transit-Stub generator.
///
/// # Examples
///
/// ```
/// use cosmos_net::TransitStubConfig;
///
/// let topo = TransitStubConfig::paper_scale().generate(7);
/// assert!(topo.node_count() >= 4096);
/// assert!(topo.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct TransitStubConfig {
    /// Number of transit (core) domains.
    pub transit_domains: usize,
    /// Transit nodes per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Stub domains hanging off each transit node.
    pub stub_domains_per_transit: usize,
    /// Nodes per stub domain.
    pub stub_nodes_per_domain: usize,
    /// Probability of each possible extra intra-stub edge beyond the
    /// spanning tree.
    pub stub_extra_edge_prob: f64,
    /// Extra random chords inside each transit domain ring.
    pub transit_extra_chords: usize,
    /// Extra random inter-domain links beyond the domain ring.
    pub inter_domain_extra_links: usize,
    /// Latency of intra-stub edges.
    pub intra_stub_latency: LatencyRange,
    /// Latency of stub-to-transit access edges.
    pub stub_transit_latency: LatencyRange,
    /// Latency of edges inside a transit domain.
    pub intra_transit_latency: LatencyRange,
    /// Latency of edges between transit domains.
    pub inter_transit_latency: LatencyRange,
}

impl TransitStubConfig {
    /// The paper's simulation scale: ≈4096 nodes.
    ///
    /// 4 transit domains × 8 transit nodes = 32 core nodes; each transit node
    /// carries 4 stub domains × 32 nodes = 4096 stub nodes; 4128 total.
    pub fn paper_scale() -> Self {
        Self {
            transit_domains: 4,
            transit_nodes_per_domain: 8,
            stub_domains_per_transit: 4,
            stub_nodes_per_domain: 32,
            stub_extra_edge_prob: 0.04,
            transit_extra_chords: 4,
            inter_domain_extra_links: 2,
            intra_stub_latency: LatencyRange { min: 1.0, max: 5.0 },
            stub_transit_latency: LatencyRange { min: 5.0, max: 20.0 },
            intra_transit_latency: LatencyRange { min: 10.0, max: 40.0 },
            inter_transit_latency: LatencyRange { min: 50.0, max: 150.0 },
        }
    }

    /// A small topology (≈70 nodes) for tests and examples.
    pub fn small() -> Self {
        Self {
            transit_domains: 2,
            transit_nodes_per_domain: 3,
            stub_domains_per_transit: 2,
            stub_nodes_per_domain: 5,
            stub_extra_edge_prob: 0.1,
            transit_extra_chords: 1,
            inter_domain_extra_links: 1,
            intra_stub_latency: LatencyRange { min: 1.0, max: 5.0 },
            stub_transit_latency: LatencyRange { min: 5.0, max: 20.0 },
            intra_transit_latency: LatencyRange { min: 10.0, max: 40.0 },
            inter_transit_latency: LatencyRange { min: 50.0, max: 150.0 },
        }
    }

    /// A wide-area topology shaped like the paper's PlanetLab deployment:
    /// several continents (transit domains) with inter-continental latencies
    /// of 100–300 ms. ≈90 nodes; the prototype experiment samples 30.
    pub fn planetlab_scale() -> Self {
        Self {
            transit_domains: 5,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit: 2,
            stub_nodes_per_domain: 4,
            stub_extra_edge_prob: 0.15,
            transit_extra_chords: 1,
            inter_domain_extra_links: 2,
            intra_stub_latency: LatencyRange { min: 2.0, max: 10.0 },
            stub_transit_latency: LatencyRange { min: 10.0, max: 40.0 },
            intra_transit_latency: LatencyRange { min: 20.0, max: 60.0 },
            inter_transit_latency: LatencyRange { min: 100.0, max: 300.0 },
        }
    }

    /// Total node count this configuration will produce.
    pub fn node_count(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes_per_domain;
        transit + transit * self.stub_domains_per_transit * self.stub_nodes_per_domain
    }

    /// Generates the topology deterministically from `seed`.
    ///
    /// Node numbering: transit nodes first (domain-major), then stub nodes
    /// grouped by their transit node.
    ///
    /// # Panics
    ///
    /// Panics if any dimension parameter is zero.
    pub fn generate(&self, seed: u64) -> Topology {
        assert!(self.transit_domains > 0, "need at least one transit domain");
        assert!(self.transit_nodes_per_domain > 0, "need transit nodes");
        assert!(self.stub_domains_per_transit > 0, "need stub domains");
        assert!(self.stub_nodes_per_domain > 0, "need stub nodes");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_transit = self.transit_domains * self.transit_nodes_per_domain;
        let mut topo = Topology::new(self.node_count());

        // --- Intra-transit-domain edges: ring + chords.
        for d in 0..self.transit_domains {
            let base = d * self.transit_nodes_per_domain;
            let k = self.transit_nodes_per_domain;
            if k > 1 {
                for i in 0..k {
                    let u = NodeId((base + i) as u32);
                    let v = NodeId((base + (i + 1) % k) as u32);
                    if u != v && !topo.has_edge(u, v) {
                        topo.add_edge(u, v, self.intra_transit_latency.sample(&mut rng));
                    }
                }
                for _ in 0..self.transit_extra_chords {
                    let a = base + rng.gen_range(0..k);
                    let b = base + rng.gen_range(0..k);
                    if a != b && !topo.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                        topo.add_edge(
                            NodeId(a as u32),
                            NodeId(b as u32),
                            self.intra_transit_latency.sample(&mut rng),
                        );
                    }
                }
            }
        }

        // --- Inter-transit-domain edges: domain ring + random extras.
        if self.transit_domains > 1 {
            for d in 0..self.transit_domains {
                let e = (d + 1) % self.transit_domains;
                if d == e {
                    continue;
                }
                let a = d * self.transit_nodes_per_domain
                    + rng.gen_range(0..self.transit_nodes_per_domain);
                let b = e * self.transit_nodes_per_domain
                    + rng.gen_range(0..self.transit_nodes_per_domain);
                topo.add_edge(
                    NodeId(a as u32),
                    NodeId(b as u32),
                    self.inter_transit_latency.sample(&mut rng),
                );
            }
            for _ in 0..self.inter_domain_extra_links {
                let d = rng.gen_range(0..self.transit_domains);
                let e = rng.gen_range(0..self.transit_domains);
                if d == e {
                    continue;
                }
                let a = d * self.transit_nodes_per_domain
                    + rng.gen_range(0..self.transit_nodes_per_domain);
                let b = e * self.transit_nodes_per_domain
                    + rng.gen_range(0..self.transit_nodes_per_domain);
                if !topo.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                    topo.add_edge(
                        NodeId(a as u32),
                        NodeId(b as u32),
                        self.inter_transit_latency.sample(&mut rng),
                    );
                }
            }
        }

        // --- Stub domains.
        let mut next = n_transit;
        for t in 0..n_transit {
            for _ in 0..self.stub_domains_per_transit {
                let base = next;
                let k = self.stub_nodes_per_domain;
                next += k;
                // Random spanning tree: node i attaches to a random earlier node.
                for i in 1..k {
                    let j = rng.gen_range(0..i);
                    topo.add_edge(
                        NodeId((base + i) as u32),
                        NodeId((base + j) as u32),
                        self.intra_stub_latency.sample(&mut rng),
                    );
                }
                // Extra intra-stub edges.
                for i in 0..k {
                    for j in (i + 1)..k {
                        if rng.gen_bool(self.stub_extra_edge_prob)
                            && !topo.has_edge(NodeId((base + i) as u32), NodeId((base + j) as u32))
                        {
                            topo.add_edge(
                                NodeId((base + i) as u32),
                                NodeId((base + j) as u32),
                                self.intra_stub_latency.sample(&mut rng),
                            );
                        }
                    }
                }
                // Gateway: a random stub node links to the transit node.
                let gw = base + rng.gen_range(0..k);
                topo.add_edge(
                    NodeId(gw as u32),
                    NodeId(t as u32),
                    self.stub_transit_latency.sample(&mut rng),
                );
            }
        }
        topo
    }

    /// Node ids of the stub nodes in a generated topology.
    pub fn stub_nodes(&self) -> Vec<NodeId> {
        let n_transit = (self.transit_domains * self.transit_nodes_per_domain) as u32;
        (n_transit..self.node_count() as u32).map(NodeId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::ShortestPathTree;

    #[test]
    fn paper_scale_has_expected_size() {
        let cfg = TransitStubConfig::paper_scale();
        assert_eq!(cfg.node_count(), 4128);
        assert!(cfg.node_count() >= 4096);
    }

    #[test]
    fn generated_topology_is_connected() {
        for seed in [0, 1, 42] {
            let topo = TransitStubConfig::small().generate(seed);
            assert!(topo.is_connected(), "seed {seed} produced a disconnected topology");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TransitStubConfig::small();
        let a = cfg.generate(5);
        let b = cfg.generate(5);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for u in a.nodes() {
            let mut ea: Vec<_> = a.neighbors(u).collect();
            let mut eb: Vec<_> = b.neighbors(u).collect();
            ea.sort_by_key(|x| x.0);
            eb.sort_by_key(|x| x.0);
            assert_eq!(ea.len(), eb.len());
            for (x, y) in ea.iter().zip(&eb) {
                assert_eq!(x.0, y.0);
                assert!((x.1 - y.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = TransitStubConfig::small();
        let a = cfg.generate(1);
        let b = cfg.generate(2);
        // Edge sets almost surely differ; compare via total latency out of node 0.
        let la: f64 = a.neighbors(NodeId(0)).map(|(_, l)| l).sum();
        let lb: f64 = b.neighbors(NodeId(0)).map(|(_, l)| l).sum();
        assert!((la - lb).abs() > 1e-9);
    }

    #[test]
    fn stub_to_stub_crossing_domains_is_slower_than_intra_stub() {
        let cfg = TransitStubConfig::small();
        let topo = cfg.generate(3);
        let stubs = cfg.stub_nodes();
        // Nodes in the same stub domain (consecutive ids within a block).
        let a = stubs[0];
        let b = stubs[1];
        // A stub from the other transit domain: the last block.
        let z = *stubs.last().unwrap();
        let spt = ShortestPathTree::compute(&topo, a);
        let near = spt.distance(b).unwrap();
        let far = spt.distance(z).unwrap();
        assert!(far > near, "cross-domain distance {far} should exceed intra-stub distance {near}");
    }

    #[test]
    fn planetlab_scale_latencies_reach_intercontinental_range() {
        let cfg = TransitStubConfig::planetlab_scale();
        let topo = cfg.generate(11);
        assert!(topo.is_connected());
        let spt = ShortestPathTree::compute(&topo, NodeId(0));
        let max = topo.nodes().filter_map(|n| spt.distance(n)).fold(0.0, f64::max);
        assert!(max >= 100.0, "expected some ≥100ms path, got {max}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Any well-formed configuration yields a connected topology of
            /// the advertised size, for any seed.
            #[test]
            fn prop_generated_topologies_are_connected(
                domains in 1usize..4,
                transit in 1usize..4,
                stubs in 1usize..3,
                stub_nodes in 1usize..8,
                seed in 0u64..50,
            ) {
                let cfg = TransitStubConfig {
                    transit_domains: domains,
                    transit_nodes_per_domain: transit,
                    stub_domains_per_transit: stubs,
                    stub_nodes_per_domain: stub_nodes,
                    stub_extra_edge_prob: 0.05,
                    transit_extra_chords: 1,
                    inter_domain_extra_links: 1,
                    intra_stub_latency: LatencyRange { min: 1.0, max: 5.0 },
                    stub_transit_latency: LatencyRange { min: 5.0, max: 20.0 },
                    intra_transit_latency: LatencyRange { min: 10.0, max: 40.0 },
                    inter_transit_latency: LatencyRange { min: 50.0, max: 150.0 },
                };
                let topo = cfg.generate(seed);
                prop_assert_eq!(topo.node_count(), cfg.node_count());
                prop_assert!(topo.is_connected());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one transit domain")]
    fn zero_domains_panics() {
        let mut cfg = TransitStubConfig::small();
        cfg.transit_domains = 0;
        let _ = cfg.generate(0);
    }
}
