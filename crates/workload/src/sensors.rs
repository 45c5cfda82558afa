//! The SensorScope substitute for the prototype study (§4.2).
//!
//! The paper deploys on PlanetLab with "real readings from 100 sensors
//! deployed in our SensorScope project" and GSN as the engine; "5 nodes act
//! as the data sources, each with equal number of sensors. A number
//! (250–4000) of random queries are generated. Each query contains one to
//! three random selection predicates on the sensor readings and sensor
//! types together with one to three join predicates on the timestamp. A
//! random node is chosen as the proxy for each query."
//!
//! We cannot ship SensorScope data, so [`SensorScenario`] synthesizes it:
//! one stream per sensor with random-walk `snowHeight` / `temperature`
//! readings (realistic alpine ranges), CQL queries drawn exactly per the
//! quoted recipe, and the mapping from a CQL query to the abstract
//! [`QuerySpec`] the optimizer consumes (interest = the sensors read).
//!
//! Rates are what the readings carry: a sensor's declared rate is the wire
//! size of one of its readings, in bytes per reading period, so the
//! optimizer's source cost is the bytes the brokers forward per period.
//! A query's result rate stays a declared tenth of its input: the
//! `sensor-join` harness measures 0.164, but `lossy-recovery` ships no
//! results, and an estimate from each query's predicates would overshoot
//! for the queries that lose their equal-timestamp joins.

use cosmos_core::spec::QuerySpec;
use cosmos_engine::tuple::Tuple;
use cosmos_net::{Deployment, NodeId, TransitStubConfig};
use cosmos_pubsub::SubstreamTable;
use cosmos_query::{parse_query, Query, QueryId, Scalar};
use cosmos_util::intern::{Schema, Symbol};
use cosmos_util::rng::{rng_for, rng_for_indexed};
use cosmos_util::InterestSet;
use rand::Rng;
use std::collections::HashMap;

/// A synthetic sensor-network deployment.
#[derive(Debug)]
pub struct SensorScenario {
    /// Wide-area deployment (PlanetLab-like latencies).
    pub dep: Deployment,
    /// One substream per sensor.
    pub table: SubstreamTable,
    /// Sensor stream names, indexed by sensor id.
    pub streams: Vec<String>,
    /// Stream name → rate: the wire bytes of one reading, per reading
    /// period (the table's rates, by name).
    pub stream_rate: HashMap<String, f64>,
    /// Stream name → source node.
    pub stream_source: HashMap<String, NodeId>,
    /// Stream symbol → sensor id.
    sensor_of: HashMap<Symbol, usize>,
}

/// The three columns of every reading.
fn reading_schema() -> &'static Schema {
    Schema::intern(&["snowHeight", "temperature", "sensorType"].map(Symbol::intern))
}

/// One reading of `sensor`, published on `stream`.
fn reading(
    stream: Symbol,
    schema: &'static Schema,
    sensor: usize,
    timestamp: i64,
    snow: f64,
    temp: f64,
) -> Tuple {
    Tuple::build(stream, timestamp, schema, |values| {
        values.extend([
            Scalar::Int(snow.round() as i64),
            Scalar::Int(temp.round() as i64),
            Scalar::Int((sensor % 3) as i64),
        ])
    })
}

impl SensorScenario {
    /// Builds the §4.2 environment: `n_sensors` spread evenly over
    /// `n_sources` source nodes, `n_processors` PlanetLab-like nodes.
    pub fn build(n_sensors: usize, n_sources: usize, n_processors: usize, seed: u64) -> Self {
        let mut cfg = TransitStubConfig::planetlab_scale();
        // Make sure the topology is large enough for the requested roles.
        while cfg.node_count() < n_sources + n_processors + 4 {
            cfg.stub_nodes_per_domain += 2;
        }
        let topo = cfg.generate(seed);
        let dep = Deployment::assign(topo, n_sources, n_processors, seed);
        let streams: Vec<String> = (0..n_sensors).map(|i| format!("Sensor{i}")).collect();
        let symbols: Vec<Symbol> = streams.iter().map(|name| Symbol::intern(name)).collect();
        let schema = reading_schema();
        let rates = symbols
            .iter()
            .enumerate()
            .map(|(i, &stream)| reading(stream, schema, i, 0, 0.0, 0.0).wire_size() as f64)
            .collect();
        let sensor_of = symbols.into_iter().enumerate().map(|(i, stream)| (stream, i)).collect();
        let table =
            SubstreamTable::from_parts((0..n_sensors).map(|s| s % n_sources).collect(), rates);
        let mut stream_rate = HashMap::new();
        let mut stream_source = HashMap::new();
        for (i, name) in streams.iter().enumerate() {
            stream_rate.insert(name.clone(), table.rate(i));
            stream_source.insert(name.clone(), dep.sources()[table.source_index(i)]);
        }
        Self { dep, table, streams, stream_rate, stream_source, sensor_of }
    }

    /// Generates `n` random CQL queries per the paper's recipe, returning
    /// `(id, query, proxy)` triples.
    pub fn generate_cql(&self, n: usize, seed: u64) -> Vec<(QueryId, Query, NodeId)> {
        let mut rng = rng_for(seed, "sensor-queries");
        let procs = self.dep.processors();
        (0..n)
            .map(|i| {
                let a = rng.gen_range(0..self.streams.len());
                let mut b = rng.gen_range(0..self.streams.len());
                if b == a {
                    b = (b + 1) % self.streams.len();
                }
                let w1 = rng.gen_range(10..=60);
                let n_sel = rng.gen_range(1..=3);
                let mut preds: Vec<String> = Vec::new();
                for _ in 0..n_sel {
                    let (alias, attr) =
                        if rng.gen_bool(0.5) { ("X", "snowHeight") } else { ("Y", "temperature") };
                    let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
                    let c: i64 = if attr == "snowHeight" {
                        rng.gen_range(0..120)
                    } else {
                        rng.gen_range(-30..25)
                    };
                    preds.push(format!("{alias}.{attr} {op} {c}"));
                }
                // 1–3 join predicates on the timestamp.
                let n_join = rng.gen_range(1..=3);
                let join_ops = ["=", ">=", "<="];
                for j in 0..n_join {
                    preds.push(format!("X.timestamp {} Y.timestamp", join_ops[j % 3]));
                }
                let text = format!(
                    "SELECT X.*, Y.* FROM {} [Range {w1} Seconds] X, {} [Now] Y WHERE {}",
                    self.streams[a],
                    self.streams[b],
                    preds.join(" AND "),
                );
                let query = parse_query(&text).expect("generated CQL must parse");
                let proxy = procs[rng.gen_range(0..procs.len())];
                (QueryId(i as u64), query, proxy)
            })
            .collect()
    }

    /// Maps a CQL query onto the abstract spec the distribution layer uses:
    /// interest = the sensor substreams the query reads.
    pub fn to_spec(&self, id: QueryId, query: &Query, proxy: NodeId) -> QuerySpec {
        let interest = InterestSet::from_indices(
            self.streams.len(),
            query.relations.iter().filter_map(|r| self.sensor_of.get(&r.stream).copied()),
        );
        let input_rate = interest.weighted_len(self.table.rates());
        QuerySpec {
            id,
            interest,
            load: input_rate * 0.001,
            proxy,
            result_rate: input_rate * 0.1,
            state_size: 1.0,
        }
    }

    /// Synthesizes `n` random-walk readings for `sensor`, one per
    /// `period_ms`, starting at `t0_ms`. Every reading has the same three
    /// columns, so the schema is interned once and each reading is built
    /// in one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is out of range.
    pub fn readings(
        &self,
        sensor: usize,
        n: usize,
        t0_ms: i64,
        period_ms: i64,
        seed: u64,
    ) -> Vec<Tuple> {
        assert!(sensor < self.streams.len(), "unknown sensor {sensor}");
        let mut rng = rng_for_indexed(seed, "readings", sensor as u64);
        let mut snow: f64 = rng.gen_range(0.0..80.0);
        let mut temp: f64 = rng.gen_range(-15.0..10.0);
        let stream = Symbol::intern(&self.streams[sensor]);
        let schema = reading_schema();
        (0..n)
            .map(|i| {
                snow = (snow + rng.gen_range(-3.0f64..3.0)).clamp(0.0, 150.0);
                temp = (temp + rng.gen_range(-1.0f64..1.0)).clamp(-40.0, 35.0);
                reading(stream, schema, sensor, t0_ms + i as i64 * period_ms, snow, temp)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> SensorScenario {
        SensorScenario::build(20, 5, 10, 1)
    }

    #[test]
    fn build_assigns_roles() {
        let s = scenario();
        assert_eq!(s.dep.sources().len(), 5);
        assert_eq!(s.dep.processors().len(), 10);
        assert_eq!(s.streams.len(), 20);
        // Sensors spread evenly: 4 per source.
        for src in 0..5 {
            let count = (0..20).filter(|&i| s.table.source_index(i) == src).count();
            assert_eq!(count, 4);
        }
    }

    #[test]
    fn generated_queries_parse_and_follow_recipe() {
        let s = scenario();
        let qs = s.generate_cql(25, 2);
        assert_eq!(qs.len(), 25);
        for (_, q, proxy) in &qs {
            assert_eq!(q.relations.len(), 2);
            let sels = q.selection_predicates().count();
            assert!((1..=3).contains(&sels), "{sels} selections");
            let joins = q.join_predicates().count();
            assert!((1..=3).contains(&joins), "{joins} joins");
            assert!(s.dep.processors().contains(proxy));
        }
    }

    #[test]
    fn to_spec_reads_the_right_sensors() {
        let s = scenario();
        let (id, q, proxy) = s.generate_cql(1, 3).remove(0);
        let spec = s.to_spec(id, &q, proxy);
        assert_eq!(spec.interest.len(), 2);
        for stream in q.streams() {
            let idx = s.streams.iter().position(|n| n == stream).unwrap();
            assert!(spec.interest.contains(idx), "interest must include {stream}");
        }
    }

    /// `sensor-join` renders its generated CQL with `Display` and parses it
    /// back, so the rendering of its 4 000 queries is an input of that
    /// workload: this pins it byte for byte (64-bit FNV-1a over the texts,
    /// one per line).
    #[test]
    fn sensor_join_cql_rendering_is_pinned() {
        let s = SensorScenario::build(100, 5, 30, 0x5E45);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (_, q, _) in s.generate_cql(4_000, 0x5E45) {
            for b in q.to_string().bytes().chain([b'\n']) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0x7a00_60cb_6a6d_7c3e, "rendered CQL changed: {hash:#018x}");
    }

    #[test]
    fn readings_are_ordered_and_in_range() {
        let s = scenario();
        let r = s.readings(3, 50, 1_000, 500, 4);
        assert_eq!(r.len(), 50);
        for (i, t) in r.iter().enumerate() {
            assert_eq!(t.timestamp, 1_000 + i as i64 * 500);
            let snow = t.get("snowHeight").unwrap().as_f64().unwrap();
            assert!((0.0..=150.0).contains(&snow));
        }
    }

    /// The readings as a chain of `.with()` steps builds them: one
    /// intermediate record per column.
    fn readings_by_with(
        s: &SensorScenario,
        sensor: usize,
        n: usize,
        t0_ms: i64,
        period_ms: i64,
        seed: u64,
    ) -> Vec<Tuple> {
        let mut rng = rng_for_indexed(seed, "readings", sensor as u64);
        let mut snow: f64 = rng.gen_range(0.0..80.0);
        let mut temp: f64 = rng.gen_range(-15.0..10.0);
        (0..n)
            .map(|i| {
                snow = (snow + rng.gen_range(-3.0f64..3.0)).clamp(0.0, 150.0);
                temp = (temp + rng.gen_range(-1.0f64..1.0)).clamp(-40.0, 35.0);
                Tuple::new(s.streams[sensor].clone(), t0_ms + i as i64 * period_ms)
                    .with("snowHeight", Scalar::Int(snow.round() as i64))
                    .with("temperature", Scalar::Int(temp.round() as i64))
                    .with("sensorType", Scalar::Int((sensor % 3) as i64))
            })
            .collect()
    }

    #[test]
    fn readings_equal_the_with_chain() {
        let s = scenario();
        for seed in [1, 7, 42] {
            for sensor in [0, 1, 2, 13, 19] {
                // Equal stream, schema id, timestamp and payload.
                assert_eq!(
                    s.readings(sensor, 40, 250, 1_000, seed),
                    readings_by_with(&s, sensor, 40, 250, 1_000, seed),
                    "sensor {sensor}, seed {seed}"
                );
            }
        }
    }

    /// A declared rate is what the sensor's generator emits per reading
    /// period: the wire size of one reading, whatever the period or seed.
    #[test]
    fn rates_are_the_bytes_of_one_reading() {
        let s = scenario();
        for (period, seed) in [(500, 4), (1_000, 4), (500, 42), (1_000, 42)] {
            for sensor in 0..s.streams.len() {
                let bytes = s.readings(sensor, 1, 250, period, seed)[0].wire_size() as f64;
                assert_eq!(s.table.rate(sensor), bytes, "sensor {sensor}");
                assert_eq!(s.stream_rate[&s.streams[sensor]], bytes, "sensor {sensor}");
            }
        }
    }

    #[test]
    fn readings_are_deterministic() {
        let s = scenario();
        let a = s.readings(0, 10, 0, 1000, 9);
        let b = s.readings(0, 10, 0, 1000, 9);
        assert_eq!(a, b);
    }
}
