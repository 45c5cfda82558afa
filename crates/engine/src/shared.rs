//! Shared execution with result-stream splitting (§2.1).
//!
//! "At each site, if there are multiple queries with overlapping results,
//! the COSMOS component will compose a new query Q whose result is the
//! superset of the overlapping queries and only inserts this Q into the
//! processing engine." The users' results are then recovered by residual
//! subscriptions on the shared result stream.
//!
//! [`SharedEngine`] implements exactly that: greedy grouping of mergeable
//! queries, one covering query per group registered in the underlying
//! [`StreamEngine`], and per-member residual filters/projections splitting
//! each emitted result. The splitting invariant — *shared execution emits
//! exactly the per-query results independent execution would* — is what the
//! tests (including property tests) pin down.

use crate::checkpoint::{Recoverable, StreamCheckpoint};
use crate::exec::{CompiledProjection, EngineStats, ProjPlanCache, StreamEngine};
use crate::tuple::Tuple;
use cosmos_query::compiled::{eval_compiled, CompiledPredicate};
use cosmos_query::containment::merge_queries;
use cosmos_query::{Query, QueryId};
use cosmos_util::intern::{Schema, Symbol};
use cosmos_util::PlanCache;

/// A member's residual subscription, fully symbol-compiled at build time
/// so splitting a shared result costs no string work per tuple. Both
/// halves of the split live in deduplicated group tables: the residual
/// *filters* in [`Group::filter_sets`] (members with identical residual
/// conjunctions share one set, evaluated once per shared result) and the
/// *output shape* in [`Group::proj_classes`] (members with identical
/// projections and alias renames share one projected record per result).
#[derive(Debug)]
struct ResidualCompiled {
    /// The member query this residual recovers.
    query: QueryId,
    /// Index into [`Group::filter_sets`] of this member's residual
    /// conjunction.
    filter_set: u32,
    /// Index into [`Group::proj_classes`] of this member's output shape.
    proj_class: u32,
}

/// One distinct output shape within a group: a projection over merged
/// aliases plus the renames back to member aliases. Members of the class
/// receive `Arc`-clones of a single projected record per shared result —
/// the dominant sharing win when many members ask for the same columns.
#[derive(Debug)]
struct OutputClass {
    /// The class's projection over merged aliases.
    projection: CompiledProjection,
    /// Resolved projection plans per part shape — splitting a shared
    /// result allocates nothing beyond the one class output payload.
    plans: ProjPlanCache,
    /// `(merged alias, member alias)` renames for the output schema.
    pairs: Vec<(Symbol, Symbol)>,
    /// Projected schema id → renamed schema; the rename is a pure
    /// function of the schema and `pairs`, so repeat shapes skip the
    /// schema interner.
    renamed: PlanCache<u32, &'static Schema>,
}

/// One group of merged queries.
#[derive(Debug)]
struct Group {
    /// Engine-internal id of the merged (covering) query.
    merged_id: QueryId,
    /// Shared result stream tag (paper: derived from the processor's
    /// unique identifier).
    result_stream: Symbol,
    /// Per-member compiled residuals, in member order.
    residuals: Vec<ResidualCompiled>,
    /// Distinct residual filter conjunctions (structural equality of the
    /// compiled predicates). Many members of a merged group carry the
    /// *same* residual — e.g. every member that contributed the weakest
    /// threshold — so each distinct conjunction is evaluated once per
    /// shared result and the verdict fans out to the whole equivalence
    /// class.
    filter_sets: Vec<Vec<CompiledPredicate>>,
    /// Scratch: per-result verdict per filter set (`None` = not yet
    /// evaluated for the current result).
    verdicts: Vec<Option<bool>>,
    /// Distinct output shapes (projection + renames). Each class projects
    /// a shared result once; every passing member of the class gets an
    /// `Arc`-clone of that one record.
    proj_classes: Vec<OutputClass>,
    /// Scratch: per-result projected record per class (`None` = not yet
    /// built for the current result).
    class_outputs: Vec<Option<Tuple>>,
}

/// Matches relations of `member` to `merged` by stream name in `FROM` order,
/// returning `(merged_alias, member_alias)` symbol pairs.
fn alias_pairs(merged: &Query, member: &Query) -> Vec<(Symbol, Symbol)> {
    let mut used = vec![false; merged.relations.len()];
    let mut out = Vec::new();
    for mrel in &member.relations {
        if let Some((gi, grel)) = merged
            .relations
            .iter()
            .enumerate()
            .find(|(gi, grel)| !used[*gi] && grel.stream == mrel.stream)
        {
            used[gi] = true;
            out.push((grel.alias, mrel.alias));
        }
    }
    out
}

/// A stream engine that shares work between overlapping queries.
///
/// # Examples
///
/// ```
/// use cosmos_engine::SharedEngine;
/// use cosmos_engine::tuple::Tuple;
/// use cosmos_query::{parse_query, QueryId, Scalar};
///
/// let q3 = parse_query(
///     "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
///      WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10")?;
/// let q4 = parse_query(
///     "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
///      FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
///      WHERE S1.snowHeight > S2.snowHeight")?;
/// let mut shared = SharedEngine::build(vec![(QueryId(3), q3), (QueryId(4), q4)]);
/// assert_eq!(shared.group_count(), 1); // one merged query runs, not two
/// shared.push(Tuple::new("Station1", 0).with("snowHeight", Scalar::Int(30)));
/// let out = shared.push(Tuple::new("Station2", 1_000).with("snowHeight", Scalar::Int(5)));
/// assert_eq!(out.len(), 2); // both users get their result
/// # Ok::<(), cosmos_query::ParseError>(())
/// ```
#[derive(Debug)]
pub struct SharedEngine {
    engine: StreamEngine,
    /// The merged query of group `gi` runs as `u64::MAX − gi`, so a shared
    /// result's query id names its group's slot.
    groups: Vec<Group>,
}

impl SharedEngine {
    /// Groups `queries` greedily (each query joins the first group it merges
    /// with) and registers one covering query per group.
    pub fn build(queries: Vec<(QueryId, Query)>) -> Self {
        let mut membership: Vec<Vec<(QueryId, Query)>> = Vec::new();
        for (id, q) in queries {
            let mut placed = false;
            for group in &mut membership {
                let mut candidate: Vec<(QueryId, &Query)> =
                    group.iter().map(|(i, q)| (*i, q)).collect();
                candidate.push((id, &q));
                if merge_queries(&candidate).is_some() {
                    group.push((id, q.clone()));
                    placed = true;
                    break;
                }
            }
            if !placed {
                membership.push(vec![(id, q)]);
            }
        }

        let mut engine = StreamEngine::new();
        let mut groups = Vec::new();
        for (gi, members) in membership.into_iter().enumerate() {
            let refs: Vec<(QueryId, &Query)> = members.iter().map(|(i, q)| (*i, q)).collect();
            let merged = merge_queries(&refs).expect("group members were verified mergeable");
            // Internal ids live far above user ids to avoid collisions.
            let merged_id = QueryId(u64::MAX - gi as u64);
            // Compile every residual once: filters, projection, renames.
            // Identical residual conjunctions collapse into one shared
            // filter set, and identical (projection, renames) collapse
            // into one projection class — so splitting evaluates each
            // distinct conjunction once per result and projects each
            // distinct output shape once per result.
            let mut filter_sets: Vec<Vec<CompiledPredicate>> = Vec::new();
            let mut proj_classes: Vec<OutputClass> = Vec::new();
            let residuals: Vec<ResidualCompiled> = merged
                .residuals
                .iter()
                .map(|r| {
                    let (_, member_query) = members
                        .iter()
                        .find(|(id, _)| *id == r.query)
                        .expect("residual for unknown member");
                    let compiled = CompiledPredicate::compile_all(&r.filters);
                    let filter_set = match filter_sets.iter().position(|s| *s == compiled) {
                        Some(s) => s,
                        None => {
                            filter_sets.push(compiled);
                            filter_sets.len() - 1
                        }
                    };
                    let projection = CompiledProjection::compile(&r.projection);
                    let pairs = alias_pairs(&merged.query, member_query);
                    let proj_class = match proj_classes
                        .iter()
                        .position(|c| c.projection == projection && c.pairs == pairs)
                    {
                        Some(c) => c,
                        None => {
                            proj_classes.push(OutputClass {
                                projection,
                                plans: ProjPlanCache::new(),
                                pairs,
                                renamed: PlanCache::new(),
                            });
                            proj_classes.len() - 1
                        }
                    };
                    ResidualCompiled {
                        query: r.query,
                        filter_set: u32::try_from(filter_set).expect("filter set overflow"),
                        proj_class: u32::try_from(proj_class).expect("projection class overflow"),
                    }
                })
                .collect();
            engine.add_query(merged_id, merged.query);
            let verdicts = vec![None; filter_sets.len()];
            let class_outputs = vec![None; proj_classes.len()];
            groups.push(Group {
                merged_id,
                result_stream: Symbol::intern(&format!("shared-{gi}")),
                residuals,
                filter_sets,
                verdicts,
                proj_classes,
                class_outputs,
            });
        }
        Self { engine, groups }
    }

    /// Number of merged groups (= queries actually running in the engine).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of distinct residual filter conjunctions across all groups —
    /// the number of residual evaluations one shared result can cost at
    /// most. With heavy duplication this is far below the member count.
    pub fn residual_set_count(&self) -> usize {
        self.groups.iter().map(|g| g.filter_sets.len()).sum()
    }

    /// Monotone input watermark of the underlying merged-query engine.
    pub fn watermark(&self) -> u64 {
        self.engine.watermark()
    }

    /// Pushes a tuple; returns `(query, result)` pairs after splitting the
    /// shared result streams with each member's residual subscription.
    /// Each distinct residual conjunction is evaluated once per shared
    /// result, and each distinct projection class is projected once per
    /// shared result — passing members of a class receive `Arc`-clones of
    /// the same record (member output order is unchanged).
    pub fn push(&mut self, tuple: Tuple) -> Vec<(QueryId, Tuple)> {
        let results = self.engine.push(tuple);
        let mut out = Vec::new();
        for r in results {
            let group = &mut self.groups[(u64::MAX - r.query.0) as usize];
            debug_assert_eq!(group.merged_id, r.query, "result from another group's query");
            let Group {
                result_stream,
                residuals,
                filter_sets,
                verdicts,
                proj_classes,
                class_outputs,
                ..
            } = group;
            let result_stream = *result_stream;
            verdicts.iter_mut().for_each(|v| *v = None);
            class_outputs.iter_mut().for_each(|c| *c = None);
            for residual in residuals.iter() {
                // Residual filters are in merged aliases; the joined tuple
                // exposes exactly those aliases.
                let set = residual.filter_set as usize;
                let passes = *verdicts[set]
                    .get_or_insert_with(|| eval_compiled(&filter_sets[set], &r.joined));
                if !passes {
                    continue;
                }
                let cls = residual.proj_class as usize;
                let record = class_outputs[cls].get_or_insert_with(|| {
                    let class = &mut proj_classes[cls];
                    let projected =
                        r.project_cached(&class.projection, &mut class.plans, result_stream);
                    rename_aliases(projected, class)
                });
                out.push((residual.query, record.clone()));
            }
        }
        out
    }
}

/// A shared engine checkpoints its inner merged-query engine alone: all
/// of its mutable state lives there (groups, residual filters and
/// projection plans are compiled shape; verdicts are per-push scratch), and
/// grouping is deterministic, so equal builds produce equal merged query
/// sets. Its counters are the merged queries' probes and emits.
impl Recoverable for SharedEngine {
    type Output = (QueryId, Tuple);

    fn build(queries: &[(QueryId, Query)]) -> Self {
        SharedEngine::build(queries.to_vec())
    }

    fn push(&mut self, tuple: Tuple) -> Vec<(QueryId, Tuple)> {
        SharedEngine::push(self, tuple)
    }

    fn checkpoint(&self) -> StreamCheckpoint {
        self.engine.checkpoint()
    }

    fn restore(&mut self, cp: &StreamCheckpoint) {
        self.engine.restore(cp);
    }

    fn stats(&self) -> EngineStats {
        self.engine.total_stats()
    }
}

/// Renames `merged_alias.attr` attribute names back to the member query's
/// own aliases, so users see the schema they asked for. Pure schema work:
/// the `Arc`-shared payload is reused untouched, and the renamed schema is
/// cached on the class per input schema and interned (so equal shapes keep
/// sharing one schema).
fn rename_aliases(t: Tuple, class: &mut OutputClass) -> Tuple {
    let OutputClass { pairs, renamed, .. } = class;
    let id = t.schema().id();
    let schema = *renamed.get_or_insert_with(
        |&k| k == id,
        || id,
        || {
            let attrs: Vec<Symbol> = t
                .schema()
                .attrs()
                .iter()
                .map(|&name| match name.split_dotted() {
                    Some((alias, attr)) => match pairs.iter().find(|(m, _)| *m == alias) {
                        Some((_, orig)) => Symbol::dotted(*orig, attr),
                        None => name,
                    },
                    None => name,
                })
                .collect();
            Schema::intern(&attrs)
        },
    );
    t.with_schema(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_query::{parse_query, Scalar};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn t(stream: &str, ts: i64, kv: &[(&str, i64)]) -> Tuple {
        let mut tup = Tuple::new(stream, ts);
        for (k, v) in kv {
            tup = tup.with(*k, Scalar::Int(*v));
        }
        tup
    }

    fn paper_queries() -> Vec<(QueryId, Query)> {
        vec![
            (
                QueryId(3),
                parse_query(
                    "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
                     WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
                )
                .unwrap(),
            ),
            (
                QueryId(4),
                parse_query(
                    "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
                     FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
                     WHERE S1.snowHeight > S2.snowHeight",
                )
                .unwrap(),
            ),
        ]
    }

    /// Runs the same tuple sequence through a SharedEngine and through
    /// independent engines; returns (shared, independent) result multisets
    /// keyed by query id and flattened content.
    fn run_both(
        queries: Vec<(QueryId, Query)>,
        tuples: Vec<Tuple>,
    ) -> (BTreeSet<String>, BTreeSet<String>) {
        let mut shared = SharedEngine::build(queries.clone());
        let mut shared_out = BTreeSet::new();
        for tup in &tuples {
            for (id, result) in shared.push(tup.clone()) {
                let mut vals: Vec<String> =
                    result.iter().map(|(k, v)| format!("{k}={v}")).collect();
                vals.sort();
                shared_out.insert(format!("{id}:{}", vals.join(",")));
            }
        }
        let mut indep = StreamEngine::new();
        for (id, q) in &queries {
            indep.add_query(*id, q.clone());
        }
        let mut indep_out = BTreeSet::new();
        let projections: std::collections::HashMap<QueryId, CompiledProjection> =
            queries.iter().map(|(i, q)| (*i, CompiledProjection::compile(&q.projection))).collect();
        for tup in &tuples {
            for r in indep.push(tup.clone()) {
                let projected = r.project_compiled(&projections[&r.query], "x");
                let mut vals: Vec<String> =
                    projected.iter().map(|(k, v)| format!("{k}={v}")).collect();
                vals.sort();
                indep_out.insert(format!("{}:{}", r.query, vals.join(",")));
            }
        }
        (shared_out, indep_out)
    }

    #[test]
    fn paper_q3_q4_share_one_engine_query() {
        let queries = paper_queries();
        let shared = SharedEngine::build(queries.clone());
        assert_eq!(shared.group_count(), 1);
        assert_eq!(shared.engine.query_count(), 1);
        assert!(shared.engine.query(shared.groups[0].merged_id).is_some());
        // The one engine query is the group's merge, as `build` makes it.
        let refs: Vec<(QueryId, &Query)> = queries.iter().map(|(i, q)| (*i, q)).collect();
        let merged = merge_queries(&refs).expect("Q3 and Q4 merge").query;
        // Q5: no selection filter, 1-hour window.
        assert_eq!(merged.selection_predicates().count(), 0);
        assert_eq!(merged.relation("S1").unwrap().window, cosmos_query::Window::Range(3_600_000));
    }

    #[test]
    fn splitting_respects_original_windows_and_filters() {
        let mut shared = SharedEngine::build(paper_queries());
        // S1 tuple 45 minutes before S2's: inside Q4's 1h window, outside
        // Q3's 30 min window.
        shared.push(t("Station1", 0, &[("snowHeight", 30)]));
        let out = shared.push(t("Station2", 45 * 60_000, &[("snowHeight", 5)]));
        let ids: Vec<QueryId> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![QueryId(4)], "only Q4 sees a 45-minute-old S1 tuple");
        // S1 tuple with snowHeight below 10, 10 minutes old: Q4 only again.
        shared.push(t("Station1", 50 * 60_000, &[("snowHeight", 7)]));
        let out = shared.push(t("Station2", 55 * 60_000, &[("snowHeight", 3)]));
        let ids: Vec<QueryId> = out.iter().map(|(id, _)| *id).collect();
        assert!(ids.contains(&QueryId(4)));
        assert!(!ids.contains(&QueryId(3)), "Q3 requires snowHeight >= 10");
        // Tall, recent S1 tuple: both.
        shared.push(t("Station1", 56 * 60_000, &[("snowHeight", 40)]));
        let out = shared.push(t("Station2", 57 * 60_000, &[("snowHeight", 2)]));
        let mut ids: Vec<QueryId> = out.iter().map(|(id, _)| *id).collect();
        ids.sort();
        assert!(ids.contains(&QueryId(3)) && ids.contains(&QueryId(4)));
    }

    #[test]
    fn shared_equals_independent_on_paper_workload() {
        let mut tuples = Vec::new();
        for i in 0..40i64 {
            tuples.push(t("Station1", i * 5 * 60_000, &[("snowHeight", (i * 7) % 25)]));
            tuples.push(t("Station2", i * 5 * 60_000 + 60_000, &[("snowHeight", (i * 3) % 20)]));
        }
        let (shared, indep) = run_both(paper_queries(), tuples);
        assert_eq!(shared, indep);
        assert!(!shared.is_empty(), "workload should produce results");
    }

    #[test]
    fn identical_residuals_share_one_filter_set() {
        // 20 members, two distinct selection thresholds: the members with
        // the same threshold carry identical residual conjunctions, so the
        // group holds far fewer filter sets than members — and splitting
        // still recovers exactly the per-member results.
        let queries: Vec<(QueryId, Query)> = (0..20u64)
            .map(|i| {
                let th = if i % 2 == 0 { 10 } else { 20 };
                (
                    QueryId(i),
                    parse_query(&format!(
                        "SELECT R.v FROM R [Range 60 Seconds], S [Now] \
                         WHERE R.k = S.k AND R.v > {th}"
                    ))
                    .unwrap(),
                )
            })
            .collect();
        let mut shared = SharedEngine::build(queries.clone());
        assert_eq!(shared.group_count(), 1);
        assert!(
            shared.residual_set_count() <= 3,
            "two distinct thresholds must collapse to at most a handful of \
             filter sets, got {}",
            shared.residual_set_count()
        );
        shared.push(t("R", 0, &[("k", 1), ("v", 15)]));
        let out = shared.push(t("S", 500, &[("k", 1)]));
        let ids: Vec<QueryId> = out.iter().map(|(id, _)| *id).collect();
        // v = 15 passes only the even members' threshold (10).
        assert_eq!(ids, (0..20).filter(|i| i % 2 == 0).map(QueryId).collect::<Vec<_>>());
        shared.push(t("R", 1_000, &[("k", 2), ("v", 25)]));
        let out = shared.push(t("S", 1_500, &[("k", 2)]));
        assert_eq!(out.len(), 20, "v = 25 passes both thresholds");
    }

    #[test]
    fn identical_projections_share_one_output_record() {
        // 20 members differing only in selection threshold: identical
        // projections and renames collapse to a single projection class,
        // so a passing result is projected once and every member's copy
        // shares the same payload allocation.
        let queries: Vec<(QueryId, Query)> = (0..20u64)
            .map(|i| {
                (
                    QueryId(i),
                    parse_query(&format!(
                        "SELECT R.v FROM R [Range 60 Seconds], S [Now] \
                         WHERE R.k = S.k AND R.v > {}",
                        i % 2 * 10
                    ))
                    .unwrap(),
                )
            })
            .collect();
        let mut shared = SharedEngine::build(queries);
        assert_eq!(shared.group_count(), 1);
        assert_eq!(
            shared.groups[0].proj_classes.len(),
            1,
            "identical projections + renames must share one class"
        );
        shared.push(t("R", 0, &[("k", 1), ("v", 30)]));
        let out = shared.push(t("S", 500, &[("k", 1)]));
        assert_eq!(out.len(), 20);
        let first = &out[0].1;
        for (id, result) in &out {
            assert_eq!(result, first, "{id}: same class, same record content");
            assert!(
                std::ptr::eq(result.values().as_ptr(), first.values().as_ptr()),
                "{id}: class members must share one payload allocation"
            );
        }

        // Distinct member aliases force distinct classes even with equal
        // column lists — the rename is part of the output shape.
        let queries = vec![
            (QueryId(1), parse_query("SELECT X.v FROM R [Now] X").unwrap()),
            (QueryId(2), parse_query("SELECT Y.v FROM R [Now] Y").unwrap()),
        ];
        let shared = SharedEngine::build(queries);
        assert_eq!(shared.group_count(), 1);
        assert_eq!(shared.groups[0].proj_classes.len(), 2);
    }

    #[test]
    fn group_lookup_preserves_output_order() {
        // Two groups (different relation sets) plus a duplicated member in
        // the first: one R tuple completes results for *both* merged
        // queries. The map-based group lookup must leave the output order
        // exactly as the scan produced it — merged queries in engine
        // registration order, members in group member order.
        let queries = vec![
            (QueryId(1), parse_query("SELECT R.v FROM R [Now] WHERE R.v > 0").unwrap()),
            (
                QueryId(2),
                parse_query("SELECT R.v, S.v FROM R [Now], S [Range 10 Seconds] WHERE R.k = S.k")
                    .unwrap(),
            ),
            (QueryId(3), parse_query("SELECT R.v FROM R [Now] WHERE R.v > 0").unwrap()),
        ];
        let mut shared = SharedEngine::build(queries);
        assert_eq!(shared.group_count(), 2);
        shared.push(t("S", 0, &[("k", 1), ("v", 7)]));
        let out = shared.push(t("R", 500, &[("k", 1), ("v", 4)]));
        let ids: Vec<QueryId> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            ids,
            vec![QueryId(1), QueryId(3), QueryId(2)],
            "group order then member order, unchanged by the keyed lookup"
        );
    }

    #[test]
    fn unmergeable_queries_run_separately() {
        let queries = vec![
            (QueryId(1), parse_query("SELECT * FROM A [Now]").unwrap()),
            (QueryId(2), parse_query("SELECT * FROM B [Now]").unwrap()),
        ];
        let shared = SharedEngine::build(queries);
        assert_eq!(shared.group_count(), 2);
    }

    #[test]
    fn projection_differs_per_member() {
        let queries = vec![
            (QueryId(1), parse_query("SELECT R.a FROM R [Now]").unwrap()),
            (QueryId(2), parse_query("SELECT R.b FROM R [Now]").unwrap()),
        ];
        let mut shared = SharedEngine::build(queries);
        assert_eq!(shared.group_count(), 1);
        let out = shared.push(t("R", 0, &[("a", 1), ("b", 2)]));
        assert_eq!(out.len(), 2);
        for (id, result) in out {
            if id == QueryId(1) {
                assert!(result.get("R.a").is_some());
                assert!(result.get("R.b").is_none());
            } else {
                assert!(result.get("R.b").is_some());
                assert!(result.get("R.a").is_none());
            }
        }
    }

    #[test]
    fn alias_renaming_for_members() {
        let queries = vec![
            (QueryId(1), parse_query("SELECT X.v FROM R [Now] X").unwrap()),
            (QueryId(2), parse_query("SELECT Y.v FROM R [Now] Y").unwrap()),
        ];
        let mut shared = SharedEngine::build(queries);
        assert_eq!(shared.group_count(), 1);
        let out = shared.push(t("R", 0, &[("v", 5)]));
        assert_eq!(out.len(), 2);
        for (id, result) in out {
            let expect = if id == QueryId(1) { "X.v" } else { "Y.v" };
            assert!(result.get(expect).is_some(), "{id} should see {expect}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Shared execution must equal independent execution for random
        /// threshold/window variations of a two-query workload.
        #[test]
        fn prop_shared_equals_independent(
            th1 in 0i64..30, th2 in 0i64..30,
            w1 in 1u64..60, w2 in 1u64..60,
            vals in proptest::collection::vec((0i64..40, 0i64..40), 5..25),
        ) {
            let q1 = parse_query(&format!(
                "SELECT R.v, S.v FROM R [Range {w1} Seconds], S [Now] \
                 WHERE R.k = S.k AND R.v > {th1}"
            )).unwrap();
            let q2 = parse_query(&format!(
                "SELECT R.v FROM R [Range {w2} Seconds], S [Now] \
                 WHERE R.k = S.k AND R.v > {th2}"
            )).unwrap();
            let mut tuples = Vec::new();
            for (i, (rv, sv)) in vals.iter().enumerate() {
                let ts = i as i64 * 10_000;
                tuples.push(t("R", ts, &[("k", 1), ("v", *rv)]));
                tuples.push(t("S", ts + 5_000, &[("k", 1), ("v", *sv)]));
            }
            let (shared, indep) =
                run_both(vec![(QueryId(1), q1), (QueryId(2), q2)], tuples);
            prop_assert_eq!(shared, indep);
        }
    }
}
