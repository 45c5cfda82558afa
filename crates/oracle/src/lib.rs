//! The references the differential suites hold the fast planes to, each
//! computed the slow and obvious way: [`ReferenceNetwork`] for
//! `cosmos_pubsub::BrokerNetwork`, and [`ReferenceEngine`] for
//! `cosmos_engine::StreamEngine`.
//!
//! Incremental maintenance is correct when it equals recomputation from
//! scratch (Liu, Ives & Loo, arXiv 1409.6288). [`ReferenceNetwork`] is that
//! recomputation and shares no code with what it checks: it keeps the
//! topology, the advertisements and the live subscriptions in subscribe
//! order, and derives the rest — flat per-node tables by the textbook
//! covering rule (Siena; the paper's Figure 2), matching by evaluating
//! every entry. A churn operation edits the inputs and drops the tables.
//! [`trial`] runs and replays the suites' randomized trials.
//! Test and bench support only: no library links it outside its tests.

mod engine;
pub mod trial;

pub use engine::ReferenceEngine;

use cosmos_net::{NodeId, ShortestPathTree, Topology};
use cosmos_pubsub::broker::{BrokerNetwork, Delivery, LinkStats};
use cosmos_pubsub::subscription::{Message, StreamProjection, SubId, Subscription};
use cosmos_util::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One routing entry: a subscription (restricted to one source's streams
/// when it forwards) and the neighbour it points at; `None` delivers here.
type Entry = (Subscription, Option<NodeId>);

/// `general` can stand in for `specific` on a link: it matches whatever it
/// matches (`covers`) and keeps every attribute it needs further down.
pub fn stands_in_for(general: &Subscription, specific: &Subscription) -> bool {
    let kept =
        |s: &Symbol| general.needs(*s).is_some_and(|g| g.covers(specific.streams[s].needs()));
    general.covers(specific) && specific.streams.keys().all(kept)
}

/// A broker network recomputed from its inputs (see the crate docs). Churn
/// operations take what the network under test accepted and report nothing.
pub struct ReferenceNetwork {
    topo: Topology,
    /// Stream → advertising node.
    sources: HashMap<Symbol, NodeId>,
    /// Live subscriptions in subscribe order.
    population: Vec<Subscription>,
    /// Per-node tables of the inputs: dropped by a churn operation, built on demand.
    tables: Option<Vec<Vec<Entry>>>,
    /// Covering checks made by every table build so far, and how many held.
    pub confirmations: (u64, u64),
    /// Every delivery so far, in publish order.
    pub log: Vec<Delivery>,
    /// Traffic counters of every link that carried a message.
    pub links: BTreeMap<(NodeId, NodeId), LinkStats>,
}

impl ReferenceNetwork {
    /// Wraps a topology; every node is a broker.
    pub fn new(topo: Topology) -> Self {
        let (sources, population, log, links) = Default::default();
        Self { topo, sources, population, tables: None, confirmations: (0, 0), log, links }
    }

    /// Advertises `stream` as produced by `source`.
    pub fn advertise(&mut self, stream: impl Into<Symbol>, source: NodeId) {
        self.sources.insert(stream.into(), source);
        self.tables = None;
    }

    /// Adds `sub` at the end of the population; a live id is replaced, and
    /// moves to the end. Otherwise an arrival is the next step of the
    /// sequence the standing tables were built from, and extends them.
    pub fn subscribe(&mut self, sub: Subscription) {
        if self.population.iter().any(|s| s.id == sub.id) {
            self.unsubscribe(sub.id);
        }
        if let Some(mut tables) = self.tables.take() {
            self.install(&mut tables, &sub);
            self.tables = Some(tables);
        }
        self.population.push(sub);
    }

    /// Removes subscription `id`.
    pub fn unsubscribe(&mut self, id: SubId) {
        self.population.retain(|s| s.id != id);
        self.tables = None;
    }

    /// Removes link `{a, b}`.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        self.topo.remove_edge(a, b);
        self.tables = None;
    }

    /// Adds link `{a, b}` (a crashed broker comes back link by link).
    pub fn restore_link(&mut self, a: NodeId, b: NodeId, latency: f64) {
        self.topo.add_edge(a, b, latency);
        self.tables = None;
    }

    /// Crashes broker `n`: its links and its subscribers are gone for good.
    pub fn fail_node(&mut self, n: NodeId) {
        self.topo.remove_node(n);
        self.population.retain(|s| s.subscriber != n);
        self.tables = None;
    }

    /// Installs `sub` by the textbook rule: a local entry at the subscriber,
    /// then per advertised source of its streams a walk up that source's
    /// shortest-path tree with `sub` restricted to the source's streams. A
    /// hop holding a same-direction entry of another subscription that can
    /// stand in for the restriction ends the walk; otherwise the restriction
    /// replaces the same-direction entries it can stand in for.
    fn install(&mut self, tables: &mut [Vec<Entry>], sub: &Subscription) {
        tables[sub.subscriber.index()].push((sub.clone(), None));
        let mut by_source: BTreeMap<NodeId, Vec<Symbol>> = BTreeMap::new();
        for stream in sub.streams.keys() {
            if let Some(&source) = self.sources.get(stream) {
                by_source.entry(source).or_default().push(*stream);
            }
        }
        let (tried, held) = &mut self.confirmations;
        let mut confirm = |holds: bool| {
            (*tried, *held) = (*tried + 1, *held + u64::from(holds));
            holds
        };
        for (source, streams) in by_source {
            let streams = streams.iter().map(|s| (*s, sub.streams[s].clone())).collect();
            let part = Subscription { id: sub.id, subscriber: sub.subscriber, streams };
            let tree = ShortestPathTree::compute(&self.topo, source);
            for hop in tree.path_to(sub.subscriber).unwrap_or_default().windows(2).rev() {
                let (table, down) = (&mut tables[hop[0].index()], Some(hop[1]));
                let rival = |e: &Entry| e.1 == down && e.0.id != part.id;
                if table.iter().any(|e| rival(e) && confirm(stands_in_for(&e.0, &part))) {
                    break;
                }
                table.retain(|e| !(rival(e) && confirm(stands_in_for(&part, &e.0))));
                table.push((part.clone(), down));
            }
        }
    }

    /// The tables of the current inputs, built from nothing when a churn
    /// operation dropped them.
    fn tables(&mut self) -> &[Vec<Entry>] {
        if self.tables.is_none() {
            let mut tables = vec![Vec::new(); self.topo.node_count()];
            let population = std::mem::take(&mut self.population);
            population.iter().for_each(|sub| self.install(&mut tables, sub));
            (self.population, self.tables) = (population, Some(tables));
        }
        self.tables.as_deref().expect("just built")
    }

    /// Publishes `msg` from its advertised source, if any; returns the delivery count.
    pub fn publish(&mut self, msg: Message) -> usize {
        let Some(&source) = self.sources.get(&msg.stream) else { return 0 };
        self.tables();
        let before = self.log.len();
        self.forward(source, None, &msg);
        self.log.len() - before
    }

    /// Evaluates every entry of `node`'s table against `msg`: matching local
    /// entries deliver in table order, then each neighbour a matching entry
    /// points at (other than `from`), in ascending order, is sent what
    /// every *matching* entry toward it needs of the stream, and does the
    /// same.
    fn forward(&mut self, node: NodeId, from: Option<NodeId>, msg: &Message) {
        let table = &self.tables.as_ref().expect("built by publish")[node.index()];
        let matched: Vec<&Entry> = table.iter().filter(|e| e.0.matches(msg)).collect();
        for (sub, _) in matched.iter().filter(|e| e.1.is_none()) {
            let message = sub.project_unchecked(msg).expect("matched, so requested");
            self.log.push(Delivery { sub: sub.id, node, message });
        }
        let hops: BTreeSet<NodeId> = matched.iter().filter_map(|e| e.1).collect();
        let mut sent = Vec::new();
        for next in hops.into_iter().filter(|&next| Some(next) != from) {
            let toward = matched.iter().filter(|e| e.1 == Some(next));
            let needs = toward.filter_map(|e| e.0.needs(msg.stream));
            let nothing = StreamProjection::Attrs(BTreeSet::new());
            sent.push(match needs.fold(nothing, |all, needs| all.union(needs)) {
                StreamProjection::All => (next, msg.clone()),
                StreamProjection::Attrs(keep) => (next, msg.retaining(&keep)),
            });
        }
        for (next, msg) in sent {
            let link = self.links.entry((node.min(next), node.max(next))).or_default();
            (link.messages, link.bytes) = (link.messages + 1, link.bytes + msg.wire_size() as u64);
            self.forward(next, Some(node), &msg);
        }
    }

    /// [`ReferenceNetwork::links`] as the network under test reports its own.
    pub fn all_link_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        self.links.iter().map(|(&link, &stats)| (link, stats)).collect()
    }
}

/// Panics unless `net`'s routing tables are the ones `reference` builds from
/// nothing, node by node, **up to swapping same-direction forwarding entries
/// that can stand in for each other**: of two subscriptions that cover each
/// other a rebuild lets the earlier subscriber hold the links they share, a
/// repair whichever stood there when the other was re-routed onto them — no
/// delivery or link counter can tell. Every live entry is paired off with a
/// rebuilt one in the same direction that is the same subscription (an id
/// and a stream set name one entry) or covers it and is covered by it, and
/// none may be left. Mutual covering is an equivalence: first fit will do.
pub fn assert_tables_equivalent(net: &BrokerNetwork, reference: &mut ReferenceNetwork) {
    let rebuilt = reference.tables();
    for node in net.topology().nodes() {
        let mut unpaired: Vec<&Entry> = rebuilt[node.index()].iter().collect();
        for (sub, to) in net.table_entries(node) {
            let same = |e: &&Entry| {
                e.1 == to && e.0.id == sub.id && e.0.streams.keys().eq(sub.streams.keys())
            };
            let swapped = |e: &&Entry| {
                to.is_some() && e.1 == to && stands_in_for(&e.0, sub) && stands_in_for(sub, &e.0)
            };
            let at = unpaired.iter().position(same).or_else(|| unpaired.iter().position(swapped));
            let Some(at) = at else {
                panic!("{node:?}: no rebuilt entry answers {sub:?} toward {to:?}");
            };
            unpaired.remove(at);
        }
        assert!(unpaired.is_empty(), "{node:?}: the rebuilt table also holds {unpaired:?}");
    }
}
