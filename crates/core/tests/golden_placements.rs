//! Golden placements: the optimizer's answers on the `placement-churn`
//! standing population, recorded by PR 21 — the commit that made the query
//! graph charge a shared substream once and coarsening collapse only what
//! co-location pays for, the first to move placements *on purpose* since
//! commit 3cbb866 (the last one with `BTreeMap`/`HashMap` adjacencies and
//! selection heaps), whose answers every kernel rewrite in between
//! reproduced. Any change to the kernel — adjacency layout, match
//! selection, weight summation order — must reproduce them bit for bit; a
//! drift in a tie-break or a rounding shows up here in tier-1, not only in
//! the e2e delivery digests.

use cosmos_core::spec::Assignment;
use cosmos_util::rng::derive_seed;
use cosmos_workload::{PaperParams, Simulation};

const SEED: u64 = 0xC4A2;

/// One base-36 digit per query in `QueryId` order: the index of its
/// processor in `Deployment::processors()`.
const DISTRIBUTE: &str = "\
    a410120757550145297caa4ac531c10052a50298a46876a6c49ba24ba316928583309b8214c43990198c719a\
    69b88113988195b40b91b2522206c01c52928aa4589a360bc16a65176cb6b1422652c0365968628768311a05\
    375900a32104226a5b27972613c0c64a24b2c53050cb9ca3119b021a763a7b71380b094485908b0c45231771\
    577252972738c441c65a9c0a4075184282231c20c0438b0ab9ac93b1451c3c8c397b41732c7209b19859867b\
    8ba0679248578b81119b5b0c9c6640acca408033c6c431174217697c0ac062cb739b32c03a937b917849229a\
    725b68235423b49a8aab1b79754c7906518211913641037a9898a2596a476c5c08c677b191ccc2664784725a\
    6157b3b05ac0ba424cc4c8b55c7b0661a80994765637b1636147bb41ca346c466a198c6cba67a6a90094c7a8\
    21476c34516417065b805b9306515a2288566127a5245168565b587998a461b2a571c8ab27374998c6201aab\
    93c30584c4ba85b63734b203931bab88c86c27114b79102b0baa4358bb27c578c11c844079b329950047264c\
    b7a64838";
const DISTRIBUTE_FP: u64 = 0x9dc2_5abe_0b58_83e8;
const ADAPT: &str = "\
    9410150757550145290caa4ac531c10752950298a26876a6c8aba24ba3169b858330978214c4399019cc71aa\
    6988811392c195b80591325b7276c01c52528aa4389a3602c16a65176cb6b14b2655c036a968628768311a05\
    365900a32104226a52b797261310c64a84b2c53050cb9ca3119b0b1976397b71380b494485908b0c45291771\
    567b32a72038cb41c65a9c0a40751842c4531c2020438b0ab5ac93b1454c3c2c397b41732c0279b1a859837b\
    8ba7676348508281119b520c9c6640acc5408033c6c2a1104217697c0ac062cb739b32c0399378917849229a\
    745b68235423a49a8a9b1b7975bc7906578211913641037a98a8a25a6a413c5c0c2677b491ccc266478472aa\
    6157b3b059c0ba424cc4c8b55c7b0661a14994765637b13361408b41ca346c466a198c6cba67a6a90794c098\
    21476c34516417065bc05b9306515a2888566187a5445168565b581a5ca461b2a541c8ab27373998c6271a98\
    93230384cbba85b63734bb03931bab8cc86c87114279172b0baab358b2271678c11c834079b325960740264c\
    b7a64838";
const ADAPT_FP: u64 = 0xa205_247f_b6db_2460;

/// FNV-1a over the sorted `(QueryId, NodeId)` pairs.
fn fingerprint(pairs: &[(u64, u32)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(q, n) in pairs {
        eat(&q.to_le_bytes());
        eat(&n.to_le_bytes());
    }
    h
}

fn check(what: &str, sim: &Simulation, got: &Assignment, golden: &str, golden_fp: u64) {
    let mut pairs: Vec<(u64, u32)> = got.iter().map(|(q, n)| (q.0, n.0)).collect();
    pairs.sort_unstable();
    let fp = fingerprint(&pairs);
    if fp == golden_fp {
        return;
    }
    let procs = sim.dep.processors();
    let digits: String = pairs
        .iter()
        .map(|&(_, n)| {
            let at = procs.iter().position(|p| p.0 == n).expect("placed on a processor");
            char::from_digit(at as u32, 36).expect("fewer than 36 processors")
        })
        .collect();
    let first = digits.chars().zip(golden.chars()).position(|(a, b)| a != b);
    match first {
        Some(i) => panic!(
            "{what}: fingerprint {fp:#018x} != golden {golden_fp:#018x}; first differing query \
             is {} — placed on processor #{}, golden #{}",
            pairs[i].0,
            &digits[i..=i],
            &golden[i..=i]
        ),
        None => panic!(
            "{what}: fingerprint {fp:#018x} != golden {golden_fp:#018x}; {} queries placed, \
             golden has {}\n{digits}",
            pairs.len(),
            golden.len()
        ),
    }
}

#[test]
fn distribute_and_one_adapt_round_reproduce_the_recorded_placements() {
    let mut sim = Simulation::build(PaperParams::scaled(0.05), SEED);
    sim.arrivals(800, derive_seed(SEED, "standing"));
    let placed = sim.distributor().distribute(&sim.specs, derive_seed(SEED, "distribute"));
    check("distribute", &sim, &placed.assignment, DISTRIBUTE, DISTRIBUTE_FP);

    sim.apply(placed.assignment);
    sim.perturb_rates(sim.table.len() / 100, 1.5, derive_seed(SEED, "perturb"));
    let adapted = sim.adapt_round(derive_seed(SEED, "adapt"));
    check("adapt_wholesale", &sim, &adapted.assignment, ADAPT, ADAPT_FP);
}
