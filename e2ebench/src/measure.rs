//! Measurement helpers shared by the workloads: quantiles, the process's
//! peak memory, per-link traffic accumulation, named counters and the
//! order-insensitive delivery digest.

use cosmos_net::{NodeId, Topology};
use cosmos_pubsub::{LinkStats, Message};
use cosmos_query::Scalar;
use cosmos_util::rng::splitmix64;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Quantile `q` in `[0, 1]` of `xs` (nearest rank on the sorted values);
/// 0 for no samples. Sorts `xs`.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() - 1) as f64 * q).round() as usize]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named counters. Updated a few times per batch, never per record.
#[derive(Debug, Default, Clone)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(v);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// Per-link traffic summed over many stats resets. The brokers' delivery
/// log can only be cleared together with their link counters, so every
/// batch folds the counters in here before the reset. Keyed in link order
/// so the cost sum is the same float on every run of one seed.
#[derive(Debug, Default, Clone)]
pub struct LinkLedger(BTreeMap<(NodeId, NodeId), LinkStats>);

impl LinkLedger {
    pub fn absorb(&mut self, stats: Vec<((NodeId, NodeId), LinkStats)>) {
        for (link, s) in stats {
            let e = self.0.entry(link).or_default();
            e.messages += s.messages;
            e.bytes += s.bytes;
        }
    }

    pub fn messages(&self) -> u64 {
        self.0.values().map(|s| s.messages).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.0.values().map(|s| s.bytes).sum()
    }

    /// `Σ_links bytes × latency`, the measured weighted communication
    /// cost, against the latencies of the topology as it was built.
    pub fn cost(&self, latency: &BTreeMap<(NodeId, NodeId), f64>) -> f64 {
        self.0
            .iter()
            .map(|(link, s)| s.bytes as f64 * latency.get(link).copied().unwrap_or(0.0))
            .sum()
    }
}

/// Latency of every link, keyed `(low, high)` as the brokers key traffic.
pub fn link_latencies(topo: &Topology) -> BTreeMap<(NodeId, NodeId), f64> {
    let mut out = BTreeMap::new();
    for u in topo.nodes() {
        for (v, lat) in topo.neighbors(u) {
            if u <= v {
                out.insert((u, v), lat);
            }
        }
    }
    out
}

/// Word-at-a-time multiplicative hasher (the Fx scheme): a delivery is
/// hashed on the consumer side of the loop, where SipHash would cost a
/// tenth of what the brokers spend delivering it.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.word(w);
    }

    fn finish(&self) -> u64 {
        // Full avalanche, so that summing hashes into a digest mixes well.
        splitmix64(self.0)
    }
}

/// Content hash of one delivered record under a tag (subscription or
/// query id). Symbols hash by their text, not their interned index, so the
/// value is the same in every process.
pub fn delivery_hash(tag: u64, record: &Message) -> u64 {
    let mut h = WordHasher::default();
    h.write_u64(tag);
    record.stream.as_str().hash(&mut h);
    h.write_u64(record.timestamp as u64);
    for (attr, value) in record.iter() {
        attr.as_str().hash(&mut h);
        match value {
            Scalar::Int(i) => h.write_u64(*i as u64),
            Scalar::Float(f) => h.write_u64(f.to_bits() ^ (1 << 63)),
            Scalar::Str(s) => s.hash(&mut h),
        }
    }
    h.finish()
}

/// Hash of a delivery's shape only: recipient, event time and size. A
/// tenth of the cost of [`delivery_hash`], so the digest can cover every
/// delivery of the fixed phase without the harness outweighing the
/// brokers; the content itself is checked on the verified prefix.
#[inline]
pub fn shape_hash(tag: u64, record: &Message) -> u64 {
    splitmix64(splitmix64(tag) ^ (record.timestamp as u64) ^ ((record.wire_size() as u64) << 48))
}

/// Order-insensitive digest of a delivery multiset: the wrapping sum of
/// the per-delivery hashes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn add(&mut self, h: u64) {
        self.0 = self.0.wrapping_add(h);
    }
}

/// Size of the symmetric difference of two multisets of hashes: how many
/// deliveries are missing, extra or altered. Sorts both.
pub fn multiset_difference(a: &mut [u64], b: &mut [u64]) -> u64 {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_take_the_nearest_rank() {
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut xs), 3.0);
        assert_eq!(quantile(&mut xs, 1.0), 5.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn multiset_difference_counts_both_sides() {
        assert_eq!(multiset_difference(&mut [3, 1, 1], &mut [1, 3, 1]), 0);
        assert_eq!(multiset_difference(&mut [1, 1, 2], &mut [1, 2, 2, 9]), 3);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = Message::new("S", 1).with("v", Scalar::Int(1));
        let b = Message::new("S", 2).with("v", Scalar::Int(1));
        let (mut x, mut y) = (Digest::default(), Digest::default());
        x.add(delivery_hash(1, &a));
        x.add(delivery_hash(2, &b));
        y.add(delivery_hash(2, &b));
        y.add(delivery_hash(1, &a));
        assert_eq!(x, y);
        assert_ne!(delivery_hash(1, &a), delivery_hash(1, &b));
        assert_ne!(delivery_hash(1, &a), delivery_hash(2, &a));
    }

    #[test]
    fn ledger_cost_weights_bytes_by_latency() {
        let mut topo = Topology::new(3);
        topo.add_edge(NodeId(0), NodeId(1), 2.0);
        topo.add_edge(NodeId(2), NodeId(1), 5.0);
        let lat = link_latencies(&topo);
        let mut ledger = LinkLedger::default();
        ledger.absorb(vec![((NodeId(0), NodeId(1)), LinkStats { messages: 1, bytes: 10 })]);
        ledger.absorb(vec![
            ((NodeId(0), NodeId(1)), LinkStats { messages: 1, bytes: 10 }),
            ((NodeId(1), NodeId(2)), LinkStats { messages: 2, bytes: 4 }),
        ]);
        assert_eq!((ledger.messages(), ledger.bytes()), (4, 24));
        assert_eq!(ledger.cost(&lat), 20.0 * 2.0 + 4.0 * 5.0);
    }
}
