//! Regression tests for the symbol-interning / schema-indexing refactor of
//! the tuple data plane: results must be indistinguishable from the
//! original string-keyed implementation — same attribute names, same
//! values, same ordering, same predicate semantics.

use cosmos::engine::exec::{CompiledProjection, StreamEngine};
use cosmos::engine::tuple::{JoinedTuple, Tuple};
use cosmos::query::compiled::CompiledPredicate;
use cosmos::query::predicate::eval_predicate;
use cosmos::query::{parse_query, AttrRef, CmpOp, Predicate, QueryId, Scalar};
use cosmos::util::{Schema, Symbol};
use std::sync::Arc;

fn t(stream: &str, ts: i64, kv: &[(&str, i64)]) -> Tuple {
    let mut tup = Tuple::new(stream, ts);
    for (k, v) in kv {
        tup = tup.with(*k, Scalar::Int(*v));
    }
    tup
}

/// `flatten` must emit exactly the names and order the string-based
/// implementation produced: per part, `alias.timestamp` then `alias.attr`
/// in attribute order, parts in join order.
#[test]
fn flatten_output_matches_legacy_naming() {
    let joined = JoinedTuple::new(vec![
        ("S1".into(), Arc::new(t("Station1", 1_000, &[("snowHeight", 30), ("temp", -3)]))),
        ("S2".into(), Arc::new(t("Station2", 2_000, &[("snowHeight", 10)]))),
    ]);
    let flat = joined.flatten("result");
    let entries: Vec<(String, Scalar)> =
        flat.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
    assert_eq!(
        entries,
        vec![
            ("S1.timestamp".to_string(), Scalar::Int(1_000)),
            ("S1.snowHeight".to_string(), Scalar::Int(30)),
            ("S1.temp".to_string(), Scalar::Int(-3)),
            ("S2.timestamp".to_string(), Scalar::Int(2_000)),
            ("S2.snowHeight".to_string(), Scalar::Int(10)),
        ]
    );
    assert_eq!(flat.stream, "result");
    assert_eq!(flat.timestamp, 2_000);
}

/// Compiled predicate evaluation must agree with the string-based
/// reference evaluator on every operator/value/attribute combination,
/// including missing attributes and the `timestamp` pseudo-attribute.
#[test]
fn compiled_predicates_match_string_evaluation() {
    let joined = JoinedTuple::new(vec![
        ("A".into(), Arc::new(t("R", 500, &[("v", 7), ("k", 1)]))),
        ("B".into(), Arc::new(t("S", 900, &[("v", 9), ("k", 1)]))),
    ]);
    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
    let attrs = ["v", "k", "timestamp", "missing"];
    let mut checked = 0;
    for alias in ["A", "B", "C"] {
        for attr in attrs {
            for op in ops {
                for c in [-1i64, 0, 1, 7, 9, 500, 900] {
                    let p = Predicate::Cmp {
                        attr: AttrRef::new(alias, attr),
                        op,
                        value: Scalar::Int(c),
                    };
                    assert_eq!(
                        CompiledPredicate::compile(&p).eval(&joined),
                        eval_predicate(&p, &joined),
                        "diverged on {p}"
                    );
                    checked += 1;
                }
            }
        }
    }
    for (la, lat) in [("A", "v"), ("A", "timestamp"), ("B", "k")] {
        for (ra, rat) in [("B", "v"), ("B", "timestamp"), ("A", "missing")] {
            for op in ops {
                let p = Predicate::JoinCmp {
                    left: AttrRef::new(la, lat),
                    op,
                    right: AttrRef::new(ra, rat),
                };
                assert_eq!(
                    CompiledPredicate::compile(&p).eval(&joined),
                    eval_predicate(&p, &joined),
                    "diverged on {p}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 500);
}

/// End-to-end engine results (projected, rendered to strings) must be
/// byte-identical to what the legacy representation produced for the
/// paper's running example.
#[test]
fn projected_results_render_identically() {
    let src = "SELECT S1.snowHeight, S2.snowHeight \
               FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
               WHERE S1.snowHeight > S2.snowHeight";
    let q = parse_query(src).unwrap();
    let mut engine = StreamEngine::new();
    engine.add_query(QueryId(1), q.clone());
    engine.push(t("Station1", 0, &[("snowHeight", 30), ("windSpeed", 5)]));
    let out = engine.push(t("Station2", 60_000, &[("snowHeight", 10)]));
    assert_eq!(out.len(), 1);
    let projected = out[0].project_compiled(&CompiledProjection::compile(&q.projection), "res");
    let rendered: Vec<String> = projected.iter().map(|(k, v)| format!("{k}={v}")).collect();
    assert_eq!(
        rendered,
        vec!["S1.timestamp=0", "S1.snowHeight=30", "S2.timestamp=60000", "S2.snowHeight=10",]
    );
    // The non-projected attribute is gone; display text matches the legacy
    // `stream@ts{k=v, ...}` format.
    assert_eq!(projected.get("S1.windSpeed"), None);
    assert_eq!(
        projected.to_string(),
        "res@60000{S1.timestamp=0, S1.snowHeight=30, S2.timestamp=60000, S2.snowHeight=10}"
    );
}

/// A stored attribute literally named `timestamp` collides with the
/// synthetic `alias.timestamp` column; flatten and projection must shadow
/// it (first occurrence wins, like the legacy string-keyed layout), never
/// panic.
#[test]
fn stored_timestamp_attribute_is_shadowed_not_fatal() {
    let joined = JoinedTuple::new(vec![(
        "A".into(),
        Arc::new(Tuple::new("R", 5).with("timestamp", Scalar::Int(99)).with("v", Scalar::Int(1))),
    )]);
    let flat = joined.flatten("res");
    // The synthetic event-time column wins; the stored attr is shadowed.
    assert_eq!(flat.get("A.timestamp"), Some(&Scalar::Int(5)));
    assert_eq!(flat.get("A.v"), Some(&Scalar::Int(1)));
    assert_eq!(flat.len(), 2);

    let q = parse_query("SELECT * FROM R [Now] A").unwrap();
    let mut engine = StreamEngine::new();
    engine.add_query(QueryId(1), q.clone());
    let out = engine
        .push(Tuple::new("R", 5).with("timestamp", Scalar::Int(99)).with("v", Scalar::Int(1)));
    assert_eq!(out.len(), 1);
    let projected = out[0].project_compiled(&CompiledProjection::compile(&q.projection), "res");
    assert_eq!(projected.get("A.timestamp"), Some(&Scalar::Int(5)));
    assert_eq!(projected.get("A.v"), Some(&Scalar::Int(1)));
}

/// On Pub/Sub messages, the `timestamp` pseudo-attribute resolves to the
/// header for both the compiled and the string-based evaluator — they
/// must agree (and agree with the engine's tuple views).
#[test]
fn message_timestamp_filters_agree_between_evaluators() {
    use cosmos::pubsub::Message;
    let msg = Message::new("R", 200).with("v", Scalar::Int(7));
    for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
        for c in [100i64, 200, 300] {
            let p =
                Predicate::Cmp { attr: AttrRef::new("R", "timestamp"), op, value: Scalar::Int(c) };
            let compiled = CompiledPredicate::compile(&p).eval(&msg);
            let reference = eval_predicate(&p, &msg);
            assert_eq!(compiled, reference, "diverged on {p}");
            assert_eq!(compiled, Some(op.eval_f64(200.0, c as f64)));
        }
    }
}

/// The schema layer itself: same shape ⇒ same interned schema; symbol
/// round-trips hold across the facade crate boundary.
#[test]
fn schema_identity_across_crate_boundary() {
    let a = t("R", 0, &[("k", 1), ("v", 2)]);
    let b = t("R", 9, &[("k", 5), ("v", 6)]);
    assert!(std::ptr::eq(a.schema(), b.schema()));
    assert_eq!(a.schema().id(), b.schema().id());
    let k = Symbol::intern("k");
    assert_eq!(a.schema().index_of(k), Some(0));
    assert_eq!(Schema::intern(&[k]).attrs(), &[k]);
}
