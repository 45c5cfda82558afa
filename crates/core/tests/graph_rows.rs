//! The adjacency rows of [`QueryGraph`] against a `BTreeMap` model.

use cosmos_core::graph::{QgVertex, QueryGraph};
use cosmos_net::NodeId;
use cosmos_query::QueryId;
use cosmos_util::InterestSet;
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Random `set_edge` / clear sequences against a `BTreeMap` model of
    /// the adjacency: after every operation each row reads back equal to
    /// the model's — same neighbors, ascending, same weight bits —
    /// through `neighbors`, `edge`, `degree`, and `edge_count`.
    #[test]
    fn prop_rows_match_btreemap_model(
        ops in proptest::collection::vec((0u8..4, 0usize..10, 0usize..10, 0.25f64..8.0), 1..120),
    ) {
        const N: usize = 10;
        // Rows hold whatever weight they are given; the vertices' own
        // content plays no part.
        let vertices: Vec<QgVertex> = (0..N as u64)
            .map(|i| {
                QgVertex::for_query(QueryId(i), InterestSet::new(16), 1.0, NodeId(99), 0.5, 1.0)
            })
            .collect();
        let mut g = QueryGraph::new(vertices);
        let mut model: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); N];
        for (step, &(op, i, j, w)) in ops.iter().enumerate() {
            match op {
                0..=2 if i != j => {
                    g.set_edge(i, j, w);
                    model[i].insert(j, w);
                    model[j].insert(i, w);
                }
                3 if i != j => {
                    g.set_edge(i, j, 0.0);
                    model[i].remove(&j);
                    model[j].remove(&i);
                }
                _ => {}
            }
            let bits = |w: f64| w.to_bits();
            for (a, row) in model.iter().enumerate() {
                let got: Vec<(usize, u64)> = g.neighbors(a).map(|(x, w)| (x, bits(w))).collect();
                let want: Vec<(usize, u64)> = row.iter().map(|(&x, &w)| (x, bits(w))).collect();
                prop_assert_eq!(&got, &want, "step {}: row {} diverged", step, a);
                prop_assert_eq!(g.degree(a), want.len());
                for b in 0..N {
                    let want = row.get(&b).copied().unwrap_or(0.0);
                    prop_assert_eq!(bits(g.edge(a, b)), bits(want), "step {}: edge({}, {})", step, a, b);
                }
            }
            let edges = model.iter().map(BTreeMap::len).sum::<usize>() / 2;
            prop_assert_eq!(g.edge_count(), edges);
        }
    }
}
