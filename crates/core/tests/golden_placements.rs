//! Golden placements: the optimizer's answers on the `placement-churn`
//! standing population, recorded by PR 22 — the commit that ends
//! `distribute` with a query-level refinement on the modelled multicast +
//! unicast cost, so placements moved *on purpose* (201 of the 800 queries,
//! and the adaptation round that starts from them). PR 21 (a shared
//! substream charged once, gain-aware matching) was the one before; from
//! commit 3cbb866 (the last one with `BTreeMap`/`HashMap` adjacencies and
//! selection heaps) until then every kernel rewrite reproduced one set of
//! answers. Any change to the kernel — adjacency layout, match selection,
//! weight summation order, the refinement's visiting order or tie-break —
//! must reproduce them bit for bit; a drift in a tie-break or a rounding
//! shows up here in tier-1, not only in the e2e delivery digests.
//!
//! `ADAPT` / `ADAPT_FP` were re-pinned once since, by the commit that ends
//! every adaptation round with the same refinement, priced for moving
//! (`state_size × d(old host, new host)`) and held to phase 2's balance
//! band: the round's answer moved on purpose, `distribute`'s did not.

use cosmos_core::spec::Assignment;
use cosmos_util::rng::derive_seed;
use cosmos_workload::{PaperParams, Simulation};

const SEED: u64 = 0xC4A2;

/// One base-36 digit per query in `QueryId` order: the index of its
/// processor in `Deployment::processors()`.
const DISTRIBUTE: &str = "\
    a0101a07a7aa014a8a7caa4aca31c107525a0758ab1801a1c858a84b9311ab8583b0578b14c4255015cc715a\
    6588811b58c155bb0751385b7276c01c52588aa0385a3602c16a65176cb6b14b265ac03655686b8768211a05\
    365500a32104226652b797361360c64a24b2c53050cb5ca3119b021a763a7b713802094485908b0c49261771\
    a6723b57b728c241c6525c09407a1842c4531c8020438b0ab9ac9321456c3c8c397bb17b2c7209b1a859827b\
    8ba7171302572881119b580c9c6640acca408033c6c271174216696c0ac068cb639b22c03a9372917849729a\
    745b68b354b2749a8aab1b7975bc7906518211913641037a9898a6596a472c5c0c8677b191ccc26647847252\
    6157b2b059c02a424cc4c8ba5c7b0661a60954765637b12b61068b41ca346c466a198c6cba67a6a90094c7ac\
    81476cb4516417065bc058930651592288a66187a564a168565b58755ca46182a541c8a227b7b998c6201aab\
    93630384c2bab5263734bb03921bab8cc86c8711487917b20baab35287276608c11c824075b329960047264c\
    b7a64838";
const DISTRIBUTE_FP: u64 = 0xb1e2_b690_1bdf_48eb;
const ADAPT: &str = "\
    a4101a07a4aa014aaa7ca54aca31c107585a0458521901a6c85bab429311abb58380578814c4255015cc719a\
    65b2811259c155b20751385b7876c01c5b588aa43b5a3608c16a65176c2621488659c036556b629768211a05\
    365500a3210482615bb797361310c64a84b2c53050cb9ca3119b021a763a7b71380249449590bb0c49841771\
    96423b57b78bc241c6585c09407a1248c453198080438b0a29ac9321454c3c8c39782172bc7809b1a899b27b\
    bba7171348572881119b980c9c6640acca40b033c6c271174814694c09c06bcb439b28c0399372917849789a\
    045b68b354b2749a2aab1b79758c7906949911963641037a9899a3596a462c5c0c96772791ccc86647847959\
    6157b22059c029484cc4c8ba5c7b0661a64954765637b6226141b246ca3469466a192c6c2967a6a90094c7ac\
    b1476c24516417065bc09893065659b2b8a661b7a534a16b56589b135ca46128a541c8a287272992c6201aab\
    93330384c28ab5263734b8039218a88ccb6c8711487a17b20b3a2352b4271608c11cb24075b399960047b64c\
    b7a64b3b";
const ADAPT_FP: u64 = 0x3475_933d_ff95_566f;

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
    check("adapt_round", &sim, &adapted.assignment, ADAPT, ADAPT_FP);
}
