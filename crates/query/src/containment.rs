//! Containment and merging of window-based continuous queries (§2.1).
//!
//! When several queries with overlapping results are placed on the same
//! processor, COSMOS "compose\[s\] a new query Q whose result is the superset
//! of the overlapping queries and only inserts this Q into the processing
//! engine"; each user then retrieves their own result by a Pub/Sub
//! subscription carrying *residual* projection and filters (the paper's
//! `p3₂` / `p4₂` example, which splits `Q5`'s stream back into `Q3`'s and
//! `Q4`'s results).
//!
//! The containment theory extends classical conjunctive-query containment
//! with windows (ref \[25\]): `Q` covers `Q'` when, relation by relation,
//! `Q`'s windows contain `Q'`'s, `Q`'s filters are implied by `Q'`'s,
//! the join predicates agree, and `Q`'s projection retains everything `Q'`
//! projects.

use crate::ast::{AttrRef, CmpOp, Predicate, ProjItem, Query, QueryId, RelationRef};
use crate::predicate::{implies, weakest_common};
use cosmos_util::intern::Symbol;

/// Alias mapping `specific alias → general alias` built by matching streams.
///
/// Returns `None` when the two queries do not read the same multiset of
/// streams. Duplicate stream names match in `FROM` order.
fn match_relations<'a>(general: &'a Query, specific: &'a Query) -> Option<Vec<(usize, usize)>> {
    if general.relations.len() != specific.relations.len() {
        return None;
    }
    let mut used = vec![false; general.relations.len()];
    let mut pairs = Vec::with_capacity(general.relations.len());
    for (si, srel) in specific.relations.iter().enumerate() {
        let gi = general
            .relations
            .iter()
            .enumerate()
            .position(|(gi, grel)| !used[gi] && grel.stream == srel.stream)?;
        used[gi] = true;
        pairs.push((si, gi));
    }
    Some(pairs)
}

/// Maps `specific`'s aliases to `general`'s along the matched `pairs`
/// (`(specific index, general index)`); an unmatched alias maps to itself.
fn alias_map<'a>(
    pairs: &'a [(usize, usize)],
    general: &'a Query,
    specific: &'a Query,
) -> impl Fn(Symbol) -> Symbol + 'a {
    move |s| {
        pairs
            .iter()
            .find(|&&(si, _)| specific.relations[si].alias == s)
            .map_or(s, |&(_, gi)| general.relations[gi].alias)
    }
}

/// Renames relation aliases in a predicate according to `map(old) -> new`.
fn rename_predicate(p: &Predicate, map: &dyn Fn(Symbol) -> Symbol) -> Predicate {
    let ren = |a: &AttrRef| AttrRef { relation: map(a.relation), attr: a.attr };
    match p {
        Predicate::Cmp { attr, op, value } => {
            Predicate::Cmp { attr: ren(attr), op: *op, value: value.clone() }
        }
        Predicate::JoinCmp { left, op, right } => {
            Predicate::JoinCmp { left: ren(left), op: *op, right: ren(right) }
        }
        Predicate::TimeDelta { left, right, min_ms, max_ms } => Predicate::TimeDelta {
            left: map(*left),
            right: map(*right),
            min_ms: *min_ms,
            max_ms: *max_ms,
        },
    }
}

fn rename_proj(item: &ProjItem, map: &dyn Fn(Symbol) -> Symbol) -> ProjItem {
    let ren = |a: &AttrRef| AttrRef { relation: map(a.relation), attr: a.attr };
    match item {
        ProjItem::All => ProjItem::All,
        ProjItem::AllOf(a) => ProjItem::AllOf(map(*a)),
        ProjItem::Attr(ar) => ProjItem::Attr(ren(ar)),
        ProjItem::Agg { func, attr } => ProjItem::Agg { func: *func, attr: ren(attr) },
    }
}

/// Does projection item `g` retain everything `s` projects?
///
/// Aggregates only cover themselves: `AVG(S.x)` over a *wider* window is a
/// different value, not a superset, so even `*` does not cover an
/// aggregate item.
fn proj_item_covers(g: &ProjItem, s: &ProjItem) -> bool {
    match (g, s) {
        (ProjItem::Agg { .. }, _) | (_, ProjItem::Agg { .. }) => g == s,
        (ProjItem::All, _) => true,
        (ProjItem::AllOf(a), ProjItem::AllOf(b)) => a == b,
        (ProjItem::AllOf(a), ProjItem::Attr(ar)) => *a == ar.relation,
        (ProjItem::Attr(a), ProjItem::Attr(b)) => a == b,
        _ => false,
    }
}

/// Returns `true` when `general`'s continuous result stream is a superset of
/// `specific`'s — i.e. a user subscribed to `general`'s output with
/// `specific`'s residual filters would see exactly `specific`'s result.
///
/// Sound but not complete (see [`implies`]).
///
/// # Examples
///
/// ```
/// use cosmos_query::{parse_query, covers};
///
/// let q4 = parse_query(
///     "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
///      FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
///      WHERE S1.snowHeight > S2.snowHeight")?;
/// let q3 = parse_query(
///     "SELECT S2.snowHeight, S2.timestamp \
///      FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
///      WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10")?;
/// assert!(covers(&q4, &q3));
/// assert!(!covers(&q3, &q4));
/// # Ok::<(), cosmos_query::ParseError>(())
/// ```
pub fn covers(general: &Query, specific: &Query) -> bool {
    let Some(pairs) = match_relations(general, specific) else {
        return false;
    };
    let alias_of = alias_map(&pairs, general, specific);

    // 1. Window containment per matched relation.
    for &(si, gi) in &pairs {
        if !general.relations[gi].window.contains(&specific.relations[si].window) {
            return false;
        }
    }

    // 2. Join predicates must agree (set equality up to flipping), after
    //    renaming the specific side into the general side's aliases.
    let gen_joins: Vec<&Predicate> = general.join_predicates().collect();
    let spec_joins: Vec<Predicate> =
        specific.join_predicates().map(|p| rename_predicate(p, &alias_of)).collect();
    if gen_joins.len() != spec_joins.len() {
        return false;
    }
    let same_join = |a: &Predicate, b: &Predicate| implies(a, b) && implies(b, a);
    for g in &gen_joins {
        if !spec_joins.iter().any(|s| same_join(g, s)) {
            return false;
        }
    }

    // 3. Every selection filter of the general query must be implied by the
    //    specific query's conjunction (single-predicate witness suffices for
    //    the comparison fragment).
    let spec_sels: Vec<Predicate> =
        specific.selection_predicates().map(|p| rename_predicate(p, &alias_of)).collect();
    for g in general.selection_predicates() {
        if !spec_sels.iter().any(|s| implies(s, g)) {
            return false;
        }
    }

    // 4. Projection: everything the specific query projects must survive.
    let spec_proj: Vec<ProjItem> =
        specific.projection.iter().map(|p| rename_proj(p, &alias_of)).collect();
    for s in &spec_proj {
        if !general.projection.iter().any(|g| proj_item_covers(g, s)) {
            return false;
        }
    }
    true
}

/// The residual subscription a user installs to split their query's result
/// out of a shared (merged) result stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualSubscription {
    /// Which query this residual reconstructs.
    pub query: QueryId,
    /// The user's original projection, applied on the shared stream.
    pub projection: Vec<ProjItem>,
    /// Filters re-imposing the user's original selection predicates **and**
    /// original window bounds (as [`Predicate::TimeDelta`] constraints).
    pub filters: Vec<Predicate>,
}

/// A merged (covering) query plus the residual subscriptions reconstructing
/// each input query's result from the merged stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedQuery {
    /// The covering query actually inserted into the processing engine.
    pub query: Query,
    /// One residual per merged input query.
    pub residuals: Vec<ResidualSubscription>,
}

/// Window-containment bounds of a query as pairwise [`Predicate::TimeDelta`]
/// constraints between its relations (the paper's
/// `−30(minute) ≤ S1.timestamp − S2.timestamp ≤ 0`).
///
/// For relations `ri [wi]`, `rj [wj]`, a join output pairs a tuple of `ri`
/// with one of `rj` only when `−wi ≤ ts(ri) − ts(rj) ≤ wj` (a tuple may be
/// up to its own window's width older than the tuple that joins with it).
/// Unbounded windows impose no constraint on their side.
pub fn window_bound_predicates(q: &Query) -> Vec<Predicate> {
    let mut out = Vec::new();
    for i in 0..q.relations.len() {
        for j in (i + 1)..q.relations.len() {
            let (ri, rj) = (&q.relations[i], &q.relations[j]);
            let lo = ri.window.width_ms().map(|w| -(w as i64));
            let hi = rj.window.width_ms().map(|w| w as i64);
            if lo.is_none() && hi.is_none() {
                continue;
            }
            out.push(Predicate::TimeDelta {
                left: ri.alias,
                right: rj.alias,
                min_ms: lo.unwrap_or(i64::MIN / 2),
                max_ms: hi.unwrap_or(i64::MAX / 2),
            });
        }
    }
    out
}

fn dedup_projection(items: Vec<ProjItem>) -> Vec<ProjItem> {
    let mut out: Vec<ProjItem> = Vec::new();
    for item in items {
        if out.iter().any(|g| proj_item_covers(g, &item)) {
            continue;
        }
        out.retain(|g| !proj_item_covers(&item, g));
        out.push(item);
    }
    out
}

/// The weakest conjunction implied by each of `readers`' selections: a
/// filter passing every tuple that any one reader's conjunction passes.
///
/// Each reader is one conjunction, already renamed into a shared namespace
/// — a relation's selection qualified by its stream
/// ([`stream_selection`]) when covering a stream's readers, or by the
/// general query's aliases when merging queries. The fold keeps, reader by
/// reader, the [`weakest_common`] consequence of every pair of a predicate
/// kept so far and one of the reader's (one copy per equivalent result),
/// so each predicate kept is implied by one predicate of every reader.
/// A reader with no selection ends the fold with no filter, and no later
/// reader is drawn from `readers` (a lazy iterator builds no more of
/// them). This is the one generalisation rule: [`merge_pair`]'s selection
/// half is this fold over its two inputs.
///
/// # Examples
///
/// ```
/// use cosmos_query::containment::{covering_selection, stream_selection};
/// use cosmos_query::parse_query;
///
/// let q1 = parse_query("SELECT * FROM Station1 [Now] A WHERE A.snowHeight > 10")?;
/// let q2 = parse_query("SELECT * FROM Station1 [Now] B WHERE B.snowHeight > 20")?;
/// let cover = covering_selection([
///     stream_selection(&q1, &q1.relations[0]),
///     stream_selection(&q2, &q2.relations[0]),
/// ]);
/// assert_eq!(cover, stream_selection(&q1, &q1.relations[0])); // Station1.snowHeight > 10
/// # Ok::<(), cosmos_query::ParseError>(())
/// ```
pub fn covering_selection(readers: impl IntoIterator<Item = Vec<Predicate>>) -> Vec<Predicate> {
    let mut readers = readers.into_iter();
    let mut cover = readers.next().unwrap_or_default();
    while !cover.is_empty() {
        let Some(reader) = readers.next() else { break };
        let mut next: Vec<Predicate> = Vec::new();
        for kept in &cover {
            for p in &reader {
                if let Some(r) = weakest_common(kept, p) {
                    if !next.iter().any(|e| implies(e, &r) && implies(&r, e)) {
                        next.push(r);
                    }
                }
            }
        }
        cover = next;
    }
    cover
}

/// The selection predicates of `rel` (one of `q`'s relations), qualified
/// by its stream instead of its alias — the form a subscription's filters
/// take, and a reader of [`covering_selection`] over that stream.
pub fn stream_selection(q: &Query, rel: &RelationRef) -> Vec<Predicate> {
    let to_stream = |alias: Symbol| if alias == rel.alias { rel.stream } else { alias };
    q.selection_predicates_for(rel.alias)
        .into_iter()
        .map(|p| rename_predicate(p, &to_stream))
        .collect()
}

/// Merges two compatible queries into a covering query.
///
/// Returns `None` when the queries are not mergeable (different streams or
/// join predicates). The result's windows are per-relation unions, its
/// selection filters are the weakest common consequences of the two input
/// filter sets (constraints present in only one input are dropped), and its
/// projection is the union. Aliases follow `a`.
pub fn merge_pair(a: &Query, b: &Query) -> Option<Query> {
    let pairs = match_relations(a, b)?;
    let alias_of = alias_map(&pairs, a, b);

    // Join predicates must agree.
    let a_joins: Vec<&Predicate> = a.join_predicates().collect();
    let b_joins: Vec<Predicate> =
        b.join_predicates().map(|p| rename_predicate(p, &alias_of)).collect();
    if a_joins.len() != b_joins.len() {
        return None;
    }
    let same_join = |x: &Predicate, y: &Predicate| implies(x, y) && implies(y, x);
    for g in &a_joins {
        if !b_joins.iter().any(|s| same_join(g, s)) {
            return None;
        }
    }

    // Windows: per-relation union.
    let mut relations = a.relations.clone();
    for &(bi, ai) in &pairs {
        relations[ai].window = a.relations[ai].window.union(&b.relations[bi].window);
    }

    // Selection filters: the cover of both inputs' selections, `b`'s in
    // `a`'s aliases (comparisons on different aliases have no common
    // consequence, so this covers relation by relation).
    let merged_sels = covering_selection([
        a.selection_predicates().cloned().collect(),
        b.selection_predicates().map(|p| rename_predicate(p, &alias_of)).collect(),
    ]);

    // Projection union.
    let b_proj: Vec<ProjItem> = b.projection.iter().map(|p| rename_proj(p, &alias_of)).collect();
    let projection = dedup_projection(a.projection.iter().cloned().chain(b_proj).collect());

    let mut predicates: Vec<Predicate> = a.join_predicates().cloned().collect();
    predicates.extend(merged_sels);
    Some(Query { projection, relations, predicates })
}

/// Merges a set of queries into one covering query plus per-query residual
/// subscriptions (the full §2.1 mechanism).
///
/// Returns `None` when the input is empty or any pair fails to merge. Each
/// residual contains the input query's original projection (renamed to the
/// merged query's aliases), its original selection filters, and its window
/// bounds as time-delta constraints — which is exactly what the paper's
/// `p3₂`/`p4₂` subscriptions carry.
///
/// # Examples
///
/// ```
/// use cosmos_query::{parse_query, merge_queries, QueryId};
///
/// let q3 = parse_query(
///     "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
///      WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10")?;
/// let q4 = parse_query(
///     "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
///      FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
///      WHERE S1.snowHeight > S2.snowHeight")?;
/// let merged = merge_queries(&[(QueryId(3), &q3), (QueryId(4), &q4)]).unwrap();
/// // The covering query has the 1-hour window and no snowHeight filter (Q5).
/// assert_eq!(merged.query.selection_predicates().count(), 0);
/// assert_eq!(merged.residuals.len(), 2);
/// # Ok::<(), cosmos_query::ParseError>(())
/// ```
pub fn merge_queries(inputs: &[(QueryId, &Query)]) -> Option<MergedQuery> {
    let (&(_, first), rest) = inputs.split_first()?;
    let mut merged = first.clone();
    for &(_, q) in rest {
        merged = merge_pair(&merged, q)?;
    }
    // Residuals are computed against the *final* merged query's aliases.
    let mut residuals = Vec::with_capacity(inputs.len());
    for &(id, q) in inputs {
        let pairs = match_relations(&merged, q)?;
        let alias_of = alias_map(&pairs, &merged, q);
        let projection: Vec<ProjItem> =
            q.projection.iter().map(|p| rename_proj(p, &alias_of)).collect();
        let mut filters: Vec<Predicate> =
            q.selection_predicates().map(|p| rename_predicate(p, &alias_of)).collect();
        // Window bounds, in the merged aliases. Skip bounds the merged
        // query's own windows already enforce exactly.
        let q_renamed = Query {
            projection: projection.clone(),
            relations: pairs
                .iter()
                .map(|&(qi, mi)| RelationRef {
                    alias: merged.relations[mi].alias,
                    ..q.relations[qi]
                })
                .collect(),
            predicates: vec![],
        };
        for bound in window_bound_predicates(&q_renamed) {
            let merged_bounds = window_bound_predicates(&merged);
            let already = merged_bounds.iter().any(|m| implies(m, &bound));
            if !already {
                filters.push(bound);
            }
        }
        residuals.push(ResidualSubscription { query: id, projection, filters });
    }
    Some(MergedQuery { query: merged, residuals })
}

/// Checks equivalence: each query covers the other.
pub fn equivalent(a: &Query, b: &Query) -> bool {
    covers(a, b) && covers(b, a)
}

/// The per-attribute threshold skeleton a *covering* (weaker) comparison
/// must satisfy, derived from the specific side's indexable comparisons on
/// one attribute.
///
/// Covering indexes (the Pub/Sub routing tables' covering-based merge)
/// reduce "which installed subscriptions could cover this one?" to a
/// candidate search over `(attribute, operator, threshold)` triples: a
/// general comparison `attr op t_g` can only be implied by the specific
/// conjunction when its threshold falls inside the bound this skeleton
/// records — lower-bound operators (`>`/`>=`) need `t_g ≤ lower_max`,
/// upper-bound operators (`<`/`<=`) need `t_g ≥ upper_min`, and equality
/// needs `t_g ∈ eq_values`. The bounds are *inclusive
/// over-approximations* of [`crate::predicate::threshold_implies`]
/// (strict-vs-nonstrict operator pairs are rounded outward), so a range
/// probe yields a superset of the true coverers and a final exact
/// confirmation pass stays necessary — exactly the sound-but-not-complete
/// contract covering already has.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverBounds {
    /// Largest lower-bound (`>`/`>=`) threshold a coverer may carry on
    /// this attribute, or `None` when nothing on the specific side can
    /// imply a lower bound at all.
    pub lower_max: Option<f64>,
    /// Smallest upper-bound (`<`/`<=`) threshold a coverer may carry, or
    /// `None` when nothing can imply an upper bound.
    pub upper_min: Option<f64>,
    /// The only values a coverer's `=` comparison may take (numeric
    /// equality is implied solely by an equal point constraint).
    pub eq_values: Vec<f64>,
}

/// Builds the [`CoverBounds`] for one attribute from the specific side's
/// `(operator, threshold)` comparisons on it. NaN thresholds imply
/// nothing and contribute nothing.
pub fn coverer_bounds(comps: impl IntoIterator<Item = (CmpOp, f64)>) -> CoverBounds {
    let mut bounds = CoverBounds::default();
    for (op, t) in comps {
        if t.is_nan() {
            continue;
        }
        match op {
            // `attr > t` / `attr >= t` implies weaker lower bounds up to
            // `t` itself; `attr = t` implies lower bounds below `t`.
            CmpOp::Gt | CmpOp::Ge => {
                bounds.lower_max = Some(bounds.lower_max.map_or(t, |m| m.max(t)));
            }
            CmpOp::Lt | CmpOp::Le => {
                bounds.upper_min = Some(bounds.upper_min.map_or(t, |m| m.min(t)));
            }
            CmpOp::Eq => {
                bounds.lower_max = Some(bounds.lower_max.map_or(t, |m| m.max(t)));
                bounds.upper_min = Some(bounds.upper_min.map_or(t, |m| m.min(t)));
                bounds.eq_values.push(t);
            }
            // `!=` implies only `!=`, which is never part of a covering
            // skeleton (its satisfied set is not an interval).
            CmpOp::Ne => {}
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Window;
    use crate::parser::parse_query;
    use proptest::{prop_assert, prop_assert_eq};

    fn q3() -> Query {
        parse_query(
            "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
             WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
        )
        .unwrap()
    }

    fn q4() -> Query {
        parse_query(
            "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
             FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
             WHERE S1.snowHeight > S2.snowHeight",
        )
        .unwrap()
    }

    fn q5() -> Query {
        parse_query(
            "SELECT S2.*, S1.snowHeight, S1.timestamp \
             FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
             WHERE S1.snowHeight > S2.snowHeight",
        )
        .unwrap()
    }

    #[test]
    fn paper_q5_covers_q3_and_q4() {
        assert!(covers(&q5(), &q3()));
        assert!(covers(&q5(), &q4()));
        assert!(!covers(&q3(), &q5()));
        assert!(!covers(&q4(), &q3())); // Q3 projects S2.*, Q4 keeps only two S2 attrs
    }

    #[test]
    fn merging_q3_q4_reconstructs_q5() {
        let merged = merge_queries(&[(QueryId(3), &q3()), (QueryId(4), &q4())]).unwrap();
        assert!(equivalent(&merged.query, &q5()), "merged = {}", merged.query);
        // Residual for Q3 carries the snowHeight filter and the 30-minute bound.
        let r3 = &merged.residuals[0];
        assert!(r3
            .filters
            .iter()
            .any(|f| matches!(f, Predicate::Cmp { attr, .. } if attr.attr == "snowHeight")));
        assert!(r3.filters.iter().any(|f| matches!(
            f,
            Predicate::TimeDelta { min_ms, max_ms, .. } if *min_ms == -30 * 60_000 && *max_ms == 0
        )));
        // Residual for Q4's window equals the merged window, so only the
        // (redundant) bound may be dropped; no snowHeight filter.
        let r4 = &merged.residuals[1];
        assert!(!r4.filters.iter().any(|f| f.is_selection()));
    }

    #[test]
    fn window_bounds_for_paper_example() {
        let bounds = window_bound_predicates(&q3());
        assert_eq!(bounds.len(), 1);
        match &bounds[0] {
            Predicate::TimeDelta { left, right, min_ms, max_ms } => {
                assert_eq!(left, "S1");
                assert_eq!(right, "S2");
                assert_eq!(*min_ms, -(30 * 60_000));
                assert_eq!(*max_ms, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn covers_requires_window_containment() {
        let wide = parse_query("SELECT * FROM R [Range 2 Hours]").unwrap();
        let narrow = parse_query("SELECT * FROM R [Range 1 Hour]").unwrap();
        assert!(covers(&wide, &narrow));
        assert!(!covers(&narrow, &wide));
    }

    #[test]
    fn covers_requires_filter_weakening() {
        let weak = parse_query("SELECT * FROM R [Now] WHERE R.a > 5").unwrap();
        let strong = parse_query("SELECT * FROM R [Now] WHERE R.a > 10").unwrap();
        assert!(covers(&weak, &strong));
        assert!(!covers(&strong, &weak));
        let unrelated = parse_query("SELECT * FROM R [Now] WHERE R.b > 0").unwrap();
        assert!(!covers(&unrelated, &weak));
    }

    #[test]
    fn covers_requires_same_streams() {
        let a = parse_query("SELECT * FROM R [Now]").unwrap();
        let b = parse_query("SELECT * FROM S [Now]").unwrap();
        assert!(!covers(&a, &b));
        let two = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.x = S.x").unwrap();
        assert!(!covers(&a, &two));
    }

    #[test]
    fn covers_requires_same_joins() {
        let eq = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.b = S.b").unwrap();
        let lt = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.b < S.b").unwrap();
        assert!(!covers(&eq, &lt));
        // Flipped join orientation is the same predicate.
        let flipped = parse_query("SELECT * FROM R [Now], S [Now] WHERE S.b = R.b").unwrap();
        assert!(covers(&eq, &flipped));
        assert!(covers(&flipped, &eq));
    }

    #[test]
    fn merge_incompatible_returns_none() {
        let a = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.b = S.b").unwrap();
        let b = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.b < S.b").unwrap();
        assert!(merge_pair(&a, &b).is_none());
        let c = parse_query("SELECT * FROM T [Now]").unwrap();
        assert!(merge_pair(&a, &c).is_none());
    }

    #[test]
    fn merge_drops_one_sided_filters_and_widens_windows() {
        let a = parse_query("SELECT R.x FROM R [Range 10 Seconds] WHERE R.a > 10").unwrap();
        let b = parse_query("SELECT R.y FROM R [Range 20 Seconds] WHERE R.b < 3").unwrap();
        let m = merge_pair(&a, &b).unwrap();
        assert_eq!(m.relations[0].window, Window::Range(20_000));
        // Filters on different attributes have no common consequence → dropped.
        assert_eq!(m.selection_predicates().count(), 0);
        assert_eq!(m.projection.len(), 2);
        assert!(covers(&m, &a));
        assert!(covers(&m, &b));
    }

    #[test]
    fn merge_keeps_weakest_common_filter() {
        let a = parse_query("SELECT * FROM R [Now] WHERE R.a > 10").unwrap();
        let b = parse_query("SELECT * FROM R [Now] WHERE R.a > 20").unwrap();
        let m = merge_pair(&a, &b).unwrap();
        let sels: Vec<&Predicate> = m.selection_predicates().collect();
        assert_eq!(sels.len(), 1);
        assert!(implies(
            &parse_query("SELECT * FROM R [Now] WHERE R.a > 10").unwrap().predicates[0],
            sels[0]
        ));
        assert!(covers(&m, &a));
        assert!(covers(&m, &b));
    }

    #[test]
    fn merged_query_covers_all_inputs_in_a_chain() {
        let qs: Vec<Query> = (1..=4)
            .map(|i| {
                parse_query(&format!(
                    "SELECT R.x FROM R [Range {i} Minutes], S [Now] WHERE R.k = S.k AND R.a > {}",
                    i * 10
                ))
                .unwrap()
            })
            .collect();
        let inputs: Vec<(QueryId, &Query)> =
            qs.iter().enumerate().map(|(i, q)| (QueryId(i as u64), q)).collect();
        let merged = merge_queries(&inputs).unwrap();
        for q in &qs {
            assert!(covers(&merged.query, q), "merged {} should cover {}", merged.query, q);
        }
        assert_eq!(merged.residuals.len(), 4);
    }

    #[test]
    fn alias_renaming_is_handled() {
        let a = parse_query("SELECT X.v FROM Stream1 [Now] X, Stream2 [Now] Y WHERE X.k = Y.k")
            .unwrap();
        let b = parse_query("SELECT P.v FROM Stream1 [Now] P, Stream2 [Now] Q WHERE P.k = Q.k")
            .unwrap();
        assert!(covers(&a, &b));
        assert!(equivalent(&a, &b));
        let m = merge_pair(&a, &b).unwrap();
        assert!(covers(&m, &b));
    }

    #[test]
    fn empty_merge_is_none() {
        assert!(merge_queries(&[]).is_none());
    }

    #[test]
    fn unbounded_windows_impose_no_bound() {
        let q = parse_query("SELECT * FROM R [Unbounded], S [Unbounded] WHERE R.k = S.k").unwrap();
        assert!(window_bound_predicates(&q).is_empty());
    }

    /// Is a general comparison `attr op t` inside `bounds`' ranges — would
    /// a coverer query built from `bounds` walk over it?
    fn inside(bounds: &CoverBounds, op: CmpOp, t: f64) -> bool {
        match op {
            CmpOp::Gt | CmpOp::Ge => bounds.lower_max.is_some_and(|m| t <= m),
            CmpOp::Lt | CmpOp::Le => bounds.upper_min.is_some_and(|m| t >= m),
            CmpOp::Eq => bounds.eq_values.contains(&t),
            CmpOp::Ne => true,
        }
    }

    /// `coverer_bounds` must over-approximate [`implies`]: whenever a
    /// specific comparison implies a general comparison, the general
    /// threshold falls inside the bounds (brute-forced over an op ×
    /// constant grid).
    #[test]
    fn coverer_bounds_over_approximate_implies() {
        use crate::ast::{AttrRef, Scalar};
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq];
        let consts = [-3i64, 0, 2, 5];
        let cmp = |op: CmpOp, c: i64| Predicate::Cmp {
            attr: AttrRef::new("R", "a"),
            op,
            value: Scalar::Int(c),
        };
        for &op1 in &ops {
            for &c1 in &consts {
                for &op2 in &ops {
                    for &c2 in &consts {
                        let bounds = coverer_bounds([(op1, c1 as f64)]);
                        if !implies(&cmp(op1, c1), &cmp(op2, c2)) {
                            continue;
                        }
                        assert!(
                            inside(&bounds, op2, c2 as f64),
                            "{op1:?} {c1} implies {op2:?} {c2} but bounds {bounds:?} exclude it"
                        );
                    }
                }
            }
        }
    }

    /// The two facts the covering index's hit-count thresholds rest on,
    /// over random conjunctions `G` (general) and `S` (specific) on two
    /// attributes — `!=`, signed zeros, a half step and NaN included.
    /// Whenever `G`'s filters cover `S`'s (every comparison of `G` is
    /// implied by one of `S`), **every** non-NaN indexable comparison `g`
    /// of `G`
    ///
    /// - (a) lies inside `coverer_bounds(S on g's attribute)`: probing a
    ///   member `G` with `S`, the coverer query's range walks reach every
    ///   list reference `G` holds, so its hit count reaches its comparison
    ///   count;
    /// - (b) is hit by a comparison of `S` inside the range the victim
    ///   query walks from `g` (same-family or point comparisons at least
    ///   as strong): probing a member `S` with `G`, no probe comparison
    ///   leaves `S` unmarked.
    #[test]
    fn covering_conjunctions_meet_both_counting_preconditions() {
        use crate::ast::{AttrRef, Scalar};
        use proptest::test_runner::TestRng;
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        let consts = [
            Scalar::Int(-3),
            Scalar::Float(-0.0),
            Scalar::Int(0),
            Scalar::Int(2),
            Scalar::Float(2.5),
            Scalar::Int(5),
            Scalar::Float(f64::NAN),
        ];
        type Cmp = (usize, CmpOp, Scalar);
        let pred = |(attr, op, value): &Cmp| Predicate::Cmp {
            attr: AttrRef::new("R", ["a", "b"][*attr]),
            op: *op,
            value: value.clone(),
        };
        // The indexable view: `(attribute, op, threshold)`, `!=` excluded.
        let indexable = |(attr, op, value): &Cmp| {
            (*op != CmpOp::Ne).then(|| (*attr, *op, value.as_f64().expect("numeric grid")))
        };
        let walked_from = |op_g: CmpOp, t_g: f64, op_s: CmpOp, t_s: f64| match op_g {
            CmpOp::Gt | CmpOp::Ge => {
                matches!(op_s, CmpOp::Gt | CmpOp::Ge | CmpOp::Eq) && t_s >= t_g
            }
            CmpOp::Lt | CmpOp::Le => {
                matches!(op_s, CmpOp::Lt | CmpOp::Le | CmpOp::Eq) && t_s <= t_g
            }
            _ => op_s == CmpOp::Eq && t_s == t_g,
        };
        let mut covering = 0;
        for case in 0..30_000 {
            let mut rng = TestRng::deterministic("covering-conjunctions", case);
            let mut conjunction = |max: usize| -> Vec<Cmp> {
                (0..rng.index(max))
                    .map(|_| {
                        let op = ops[rng.index(ops.len())];
                        (rng.index(2), op, consts[rng.index(consts.len())].clone())
                    })
                    .collect()
            };
            let (g, s) = (conjunction(4), conjunction(6));
            if !g.iter().all(|fg| s.iter().any(|fs| implies(&pred(fs), &pred(fg)))) {
                continue;
            }
            for (attr, op_g, t_g) in g.iter().filter_map(indexable).filter(|c| !c.2.is_nan()) {
                covering += 1;
                let on_attr = || s.iter().filter_map(indexable).filter(move |c| c.0 == attr);
                let bounds = coverer_bounds(on_attr().map(|(_, op, t)| (op, t)));
                assert!(
                    inside(&bounds, op_g, t_g),
                    "(a) {s:?} covers {g:?} but {bounds:?} exclude {op_g:?} {t_g}"
                );
                assert!(
                    on_attr().any(|(_, op_s, t_s)| walked_from(op_g, t_g, op_s, t_s)),
                    "(b) {s:?} covers {g:?} but nothing of it is walked from {op_g:?} {t_g}"
                );
            }
        }
        assert!(covering > 2_000, "only {covering} covered comparisons: the grid is too sparse");
    }

    /// One reader of stream `Feed` under alias `A{reader}`: its query and
    /// that relation's selection, qualified by the stream.
    fn feed_reader(reader: usize, sels: &[(usize, usize, i64)]) -> Vec<Predicate> {
        let preds: Vec<String> = sels
            .iter()
            .map(|&(attr, op, c)| {
                let op = ["<", "<=", ">", ">=", "="][op];
                format!("A{reader}.{} {op} {c}", ["a", "b", "c"][attr])
            })
            .collect();
        let mut text = format!("SELECT * FROM Feed [Now] A{reader}");
        if !preds.is_empty() {
            text = format!("{text} WHERE {}", preds.join(" AND "));
        }
        let q = parse_query(&text).unwrap();
        stream_selection(&q, &q.relations[0])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3_000))]

        /// Soundness: whenever any reader's selection accepts a record,
        /// the cover of all of them does. Exactness: the cover of one
        /// reader accepts exactly what that reader accepts.
        #[test]
        fn covering_selection_admits_what_any_reader_accepts(
            readers in proptest::collection::vec(
                // An empty list is a reader with no selection.
                proptest::collection::vec((0usize..3, 0usize..5, -4i64..5), 0..4),
                1..4,
            ),
            records in proptest::collection::vec((-5i64..6, -5i64..6, -5i64..6), 8..9),
        ) {
            use crate::ast::Scalar;
            use crate::compiled::{eval_compiled, CompiledPredicate};
            use crate::record::Record;
            let sels: Vec<Vec<Predicate>> =
                readers.iter().enumerate().map(|(i, r)| feed_reader(i, r)).collect();
            let cover = covering_selection(sels.clone());
            let accepts = |preds: &[Predicate], rec: &Record| {
                eval_compiled(&CompiledPredicate::compile_all(preds), rec)
            };
            for &(a, b, c) in &records {
                let rec = Record::new("Feed", 0)
                    .with("a", Scalar::Int(a))
                    .with("b", Scalar::Int(b))
                    .with("c", Scalar::Int(c));
                let by_reader: Vec<bool> = sels.iter().map(|s| accepts(s, &rec)).collect();
                let by_cover = accepts(&cover, &rec);
                prop_assert!(
                    by_cover || !by_reader.contains(&true),
                    "{rec:?} passes a reader of {sels:?} but not their cover {cover:?}"
                );
                if sels.len() == 1 {
                    prop_assert_eq!(by_cover, by_reader[0], "one reader's cover {:?}", cover);
                }
            }
        }
    }

    #[test]
    fn covering_selection_keeps_the_weaker_chain_and_drops_the_unfiltered() {
        let r0 = feed_reader(0, &[(0, 2, 3), (1, 0, 2)]); // a > 3 AND b < 2
        let r1 = feed_reader(1, &[(0, 3, 1)]); // a >= 1
        let r2 = feed_reader(2, &[]);
        assert_eq!(covering_selection([r0.clone(), r1.clone()]), r1);
        assert_eq!(covering_selection([r0.clone()]), r0);
        assert!(covering_selection([r0.clone(), r2.clone(), r1.clone()]).is_empty());
        assert!(covering_selection([r2, r0]).is_empty());
        assert!(covering_selection(std::iter::empty()).is_empty());
    }

    #[test]
    fn coverer_bounds_accumulate_and_ignore_nan() {
        let b = coverer_bounds([
            (CmpOp::Gt, 10.0),
            (CmpOp::Ge, 20.0),
            (CmpOp::Lt, 5.0),
            (CmpOp::Eq, 7.0),
            (CmpOp::Gt, f64::NAN),
            (CmpOp::Ne, 99.0),
        ]);
        assert_eq!(b.lower_max, Some(20.0), "strongest lower bound wins");
        assert_eq!(b.upper_min, Some(5.0), "strongest upper bound wins");
        assert_eq!(b.eq_values, vec![7.0]);
        assert_eq!(coverer_bounds([]), CoverBounds::default());
    }
}
