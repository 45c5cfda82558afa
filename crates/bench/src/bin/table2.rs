//! Table 2: WEC of three mapping schemes on the Figure 5 example.
//!
//! The paper's toy instance: two sources, two processors, four queries
//! where Q3's data interest is contained in Q1's (an overlap edge). Three
//! schemes are compared — queries at their proxies (scheme 1), the optimum
//! when sharing is ignored (scheme 2), and the sharing-aware mapping that
//! co-locates Q1 and Q3 (scheme 3). The paper reports WEC 165 / 115 / 110;
//! the figure's exact edge weights are not recoverable from the published
//! text, so our absolute numbers differ — the *ordering* (and the fact that
//! Algorithm 2 finds the sharing-aware scheme) is the reproduced result.
//! Schemes are priced with the model the distributor uses: a substream's
//! rate shared among the queries that read it (`effective_rates`).

use cosmos_core::graph::{
    edge_weight, effective_rates, NetVertex, NetworkGraph, QgVertex, QueryGraph,
};
use cosmos_core::mapping::map_graph;
use cosmos_net::NodeId;
use cosmos_query::QueryId;
use cosmos_util::InterestSet;

const U: usize = 16;

fn build() -> (QueryGraph, NetworkGraph) {
    // Substreams 0..8 originate at s1 (node 0), 8..16 at s2 (node 1).
    let mk = |id: u64, lo: usize, hi: usize, proxy: u32| {
        QgVertex::for_query(
            QueryId(id),
            InterestSet::from_indices(U, lo..hi),
            0.1,
            NodeId(proxy),
            1.0,
            1.0,
        )
    };
    let vertices = vec![
        mk(1, 0, 8, 2),   // Q1: reads s1 heavily, result to n1
        mk(2, 8, 16, 2),  // Q2: reads s2, result to n1
        mk(3, 0, 4, 3),   // Q3: interest contained in Q1's, result to n2
        mk(4, 12, 16, 3), // Q4: reads s2, result to n2
        QgVertex::for_net(NodeId(0), InterestSet::from_indices(U, 0..8)), // s1
        QgVertex::for_net(NodeId(1), InterestSet::from_indices(U, 8..16)), // s2
        QgVertex::for_net(NodeId(2), InterestSet::new(U)), // n1
        QgVertex::for_net(NodeId(3), InterestSet::new(U)), // n2
    ];
    let rates = effective_rates(&vertices[..4], &[1.0; U]);
    let mut qg = QueryGraph::new(vertices);
    for i in 0..qg.len() {
        for j in (i + 1)..qg.len() {
            let w = edge_weight(&qg.vertices[i], &qg.vertices[j], &rates);
            qg.set_edge(i, j, w);
        }
    }
    let pos = |n: NodeId| -> f64 {
        match n.0 {
            0 => 0.0, // s1
            2 => 1.0, // n1
            3 => 6.0, // n2
            1 => 7.0, // s2
            _ => unreachable!("figure 5 has four network nodes"),
        }
    };
    let ng = NetworkGraph::build(
        vec![
            NetVertex { node: NodeId(2), capability: 1.0 },
            NetVertex { node: NodeId(3), capability: 1.0 },
        ],
        vec![
            NetVertex { node: NodeId(0), capability: 0.0 },
            NetVertex { node: NodeId(1), capability: 0.0 },
        ],
        move |a, b| (pos(a) - pos(b)).abs(),
    );
    (qg, ng)
}

fn pin(v: &QgVertex) -> Option<usize> {
    match v.net_node()?.0 {
        2 => Some(0),
        3 => Some(1),
        0 => Some(2),
        1 => Some(3),
        _ => None,
    }
}

fn scheme_wec(qg: &QueryGraph, ng: &NetworkGraph, scheme: [usize; 4]) -> (f64, [f64; 2]) {
    let mut mapping = vec![0usize; qg.len()];
    mapping[..4].copy_from_slice(&scheme);
    #[allow(clippy::needless_range_loop)]
    for i in 4..qg.len() {
        mapping[i] = pin(&qg.vertices[i]).expect("net vertices pin");
    }
    let wec = cosmos_core::graph::wec(qg, ng, &mapping);
    let loads = cosmos_core::graph::target_loads(qg, ng, &mapping);
    (wec, [loads[0], loads[1]])
}

fn main() {
    let (qg, ng) = build();
    println!("=== Table 2: mapping schemes on the Figure 5 example");
    println!("{:<44} {:>12} {:>12}", "Scheme", "Load n1/n2", "WEC");
    let rows = [
        ("1: queries at their proxies (Q1,Q2->n1; Q3,Q4->n2)", [0, 0, 1, 1]),
        ("2: optimal ignoring sharing (Q1,Q4->n1; Q2,Q3->n2)", [0, 1, 1, 0]),
        ("3: sharing-aware (Q1,Q3->n1; Q2,Q4->n2)", [0, 1, 0, 1]),
    ];
    let mut results = Vec::new();
    for (name, scheme) in rows {
        let (wec, loads) = scheme_wec(&qg, &ng, scheme);
        println!("{name:<44} {:>6.1}/{:<5.1} {wec:>12.1}", loads[0], loads[1]);
        results.push(serde_json::json!({"scheme": name, "wec": wec, "loads": loads}));
    }
    // And what Algorithm 2 actually finds.
    let found = map_graph(&qg, &ng, &pin, 0.1);
    println!(
        "{:<44} {:>6.1}/{:<5.1} {:>12.1}",
        "Algorithm 2 (greedy + refinement)", found.loads[0], found.loads[1], found.wec
    );
    results
        .push(serde_json::json!({"scheme": "algorithm2", "wec": found.wec, "loads": found.loads}));
    let (w1, _) = scheme_wec(&qg, &ng, [0, 0, 1, 1]);
    let (w2, _) = scheme_wec(&qg, &ng, [0, 1, 1, 0]);
    let (w3, _) = scheme_wec(&qg, &ng, [0, 1, 0, 1]);
    assert!(w1 > w3, "scheme 1 must be worst");
    assert!(w2 >= w3, "sharing-aware must be at least as good");
    assert!(found.wec <= w3 + 1e-9, "Algorithm 2 must find the best scheme");
    println!("\nPaper: 165 / 115 / 110 (exact edge weights not recoverable; ordering reproduced)");
    cosmos_bench::write_result("table2", &serde_json::json!({"rows": results}));
}
