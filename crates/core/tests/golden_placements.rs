//! Golden placements: the optimizer's answers on the `placement-churn`
//! standing population, recorded on commit 3cbb866 (the last one with
//! `BTreeMap`/`HashMap` adjacencies and selection heaps). Any change to the
//! kernel — adjacency layout, match selection, weight summation order —
//! must reproduce them bit for bit; a drift in a tie-break or a rounding
//! shows up here in tier-1, not only in the e2e delivery digests.

use cosmos_core::spec::Assignment;
use cosmos_util::rng::derive_seed;
use cosmos_workload::{PaperParams, Simulation};

const SEED: u64 = 0xC4A2;

/// One base-36 digit per query in `QueryId` order: the index of its
/// processor in `Deployment::processors()`.
const DISTRIBUTE: &str = "\
    4513143c4c460154273976579651a10c6944304b682b3272920b7598751245878a8370981a95844314991167\
    868bb1104b91468b3661a24832cba01949629767a5465b0b91b6241029b2815abb0393ab04288bb32b811734\
    58463075b735928179817c521a23a25725bb97a3639c69651148380402543cc1520204a7b443ac0aa69c1c03\
    488b5c6ca3889250926b6a3773c01a59954519b393a59536b6606a81561aa9995408b100593b36c17b6680c8\
    8c7c8c259973bbb1114c0930492853699770a3559294371c521c27c936a32828056c28a3a40a38613b54cb06\
    35482a5a65c20567b7451cc0002a04326cbb116158a13a074b727076b7a16a79399bc08071a99a225385c272\
    b16c80b344832658599552c749ccc821610505c842a0c188b1078a5196a5ba52b716a92a462368763c459049\
    a1532987412513327ca36b7a0b6167a8a272215306c541ba4b6b48104a6511a874719b722060b47b5bbc176c\
    0aca3ab992b6b7b2a0a7ca3a42147a2a2889b01152361c8b0c678a788c2c1bc981198653c6c520020093b2a9\
    cc727858";
const DISTRIBUTE_FP: u64 = 0x717d_6951_100c_2d9b;
const ADAPT: &str = "\
    451314304046a154873976579651a1006b443a4b68283272980c7c98751245c7ca837ac81a95844314994167\
    26cb8118489146c83661a84c3b0299194b68b765ac4652a89126241329b2815ab20993a8042c2bb32b811734\
    a24639758735b2217cc470521aa3a257b5cb97a3639c6965114c380432543c015b9254a58443cc9aa620100a\
    420b5c60c38c9b5092686a3753071b5b954519b383a58c36b6606a81564aa98954088198593b56c17866cb08\
    cc7820255873bbb1114c0b34492253699759c355929b371a5817270936932c9ca56c88a3a40a38613b540b06\
    354c2aca65cba567874c1c07a0b90432608b116152a13a074b78707627a1ba7939b20a8071a99c2253850b7b\
    2160cbb34493b658599598c7490c02216155050242a0c1882150cb5196a52a522716b92a8623627630459a49\
    c1532985412513327cb36b7a526167a8c27221a30605412c426b4c104a6511a87451987bb090847b9280176c\
    0a7a3ab998b6c7b2a3a5ca3a4b1876ba9c29b011583610cbac678a78c0b012989119c95346cab0723093b2a9\
    ca729c5c";
const ADAPT_FP: u64 = 0x4739_45f5_f2f9_cc40;

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
