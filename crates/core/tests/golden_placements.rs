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
//!
//! Both were re-pinned together by the commit that lets the refinement
//! move groups — every query of a processor reading one substream, priced
//! together with the substream charged once — in sweeps alternating with
//! the single-query ones: both answers moved on purpose.

use cosmos_core::spec::Assignment;
use cosmos_util::rng::derive_seed;
use cosmos_workload::{PaperParams, Simulation};

const SEED: u64 = 0xC4A2;

/// One base-36 digit per query in `QueryId` order: the index of its
/// processor in `Deployment::processors()`.
const DISTRIBUTE: &str = "\
    a0101a07a7aa014a8a7caa4aca31c107525a0758ab1801a1c85bab4b9311ab858320578b14c4b55015cc415a\
    15b8811b58c155bb0751385b7276c01c52528aa0385a3602c16a65176cb6b14b265ac03655686b8768211a05\
    365500a32104226652b797361360c64a24b2c53050cb5ca3119b021a763a7b713802094485908b0c49241771\
    a6723b57b7b8c241c6525c09407a1842c4531c8020438b0a89ac9321457c3c8c397b217b2c7209b1a859827b\
    8ba7171302572881119b580c9c6640acca408033c6c271174217697c0ac068cb739b22c03a9372917849729a\
    745b68b354b2449a8aab1b7975bc7906548211913641037a9898a4591a462c5c0c8677b491ccc21647847252\
    6157b2b059c0ba424cc4c8ba5c7b0161a60954765637b12261068b41ca346c466a198c6cba67a6a90094c7ac\
    81476cb4516417065bc058930651592288a66187a544a168565b58655ca46182a541c8a227b7b998c6201aab\
    93430384c28ab5263734bb03921bab8cc86c8711487917b20baa835280276678c16c824075b329960047264c\
    b7a64838";
const DISTRIBUTE_FP: u64 = 0x9b12_6466_67d1_6b32;
const ADAPT: &str = "\
    a4101a07a4aa014a8a7caa4aca31c107985a0458a81b01a1c25bab429311abb5b320578214c4255015cc419a\
    15b281185bc155b20751385b7876c01c58588aa03b5a3608c16a65176c2681428655c036556b623768211a05\
    365500a32104826158b797361360c64a84b2c53050cb9ca3119b081a763a7b11380219443590bb0c49841771\
    56423b57b78bc246c6585c09407a1248c4531c8080438b0a89ac9321457c3c3c39782172bc7809b1a899b272\
    bba7671308572881119b580c9c6640acca40b033c6c271674817690c09c06bcb739b28c03a9372917849789a\
    745b68b354b2749a2aab1b79752c7906943311913641037a9893a4596a468c5c0c36778491cccb6647844353\
    6157b22059c029484cc4c3ba5c7b0666a64954765637b1226146b241ca346c466a198c6c2967a6a90094c7ac\
    b1476c24516417065bc09893065159b2b8a661b7a544a66b56529b695ca46128a541c8a237272998c6201a9b\
    93430384c22ab5263734b2039212a23c8b6c8711487917b20b9a2352b0276648c13cb24075b339964047864c\
    b7a64b3b";
const ADAPT_FP: u64 = 0x1501_236e_dccb_d694;

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
