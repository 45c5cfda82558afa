//! Recursive-descent parser for the CQL subset.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query      := SELECT projlist FROM fromlist [ WHERE conjunction ]
//! projlist   := projitem (',' projitem)*
//! projitem   := '*' | ident '.' '*' | ident '.' ident
//! fromlist   := relation (',' relation)*
//! relation   := ident window [ ident ]
//! window     := '[' NOW ']' | '[' UNBOUNDED ']'
//!             | '[' RANGE number unit ']'
//! unit       := MILLISECOND(S) | SECOND(S) | MINUTE(S) | HOUR(S) | DAY(S)
//! conjunction:= comparison (AND comparison)*
//! comparison := operand op operand
//! operand    := ident '.' ident | number | string
//! op         := '<' | '<=' | '>' | '>=' | '=' | '!=' | '<>'
//! ```

use crate::ast::{AttrRef, CmpOp, Predicate, ProjItem, Query, RelationRef, Scalar, Window};
use cosmos_util::intern::Symbol;
use std::fmt;

/// Error produced when parsing fails, with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A token borrows its text from the source; names are interned only when
/// the parser puts them into the AST.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Number(&'a str),
    Str(&'a str),
    Symbol(&'static str),
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn tokenize(mut self) -> Result<Vec<(usize, Tok<'a>)>, ParseError> {
        let bytes = self.src.as_bytes();
        let mut out = Vec::new();
        while self.pos < bytes.len() {
            let c = bytes[self.pos] as char;
            if c.is_whitespace() {
                self.pos += 1;
                continue;
            }
            let start = self.pos;
            match c {
                'a'..='z' | 'A'..='Z' | '_' => {
                    while self.pos < bytes.len()
                        && (bytes[self.pos] as char).is_ascii_alphanumeric()
                        || self.pos < bytes.len() && bytes[self.pos] == b'_'
                    {
                        self.pos += 1;
                    }
                    out.push((start, Tok::Ident(&self.src[start..self.pos])));
                }
                '0'..='9' | '-' | '+' => {
                    self.pos += 1;
                    while self.pos < bytes.len()
                        && ((bytes[self.pos] as char).is_ascii_digit() || bytes[self.pos] == b'.')
                    {
                        // Don't eat a '.' that starts `.*` or `.attr` — numbers
                        // here never appear qualified, so a digit must follow.
                        if bytes[self.pos] == b'.'
                            && !(self.pos + 1 < bytes.len()
                                && (bytes[self.pos + 1] as char).is_ascii_digit())
                        {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push((start, Tok::Number(&self.src[start..self.pos])));
                }
                '\'' => {
                    self.pos += 1;
                    let s0 = self.pos;
                    while self.pos < bytes.len() && bytes[self.pos] != b'\'' {
                        self.pos += 1;
                    }
                    if self.pos >= bytes.len() {
                        return Err(self.error("unterminated string literal"));
                    }
                    out.push((start, Tok::Str(&self.src[s0..self.pos])));
                    self.pos += 1;
                }
                '<' => {
                    self.pos += 1;
                    if self.pos < bytes.len() && bytes[self.pos] == b'=' {
                        self.pos += 1;
                        out.push((start, Tok::Symbol("<=")));
                    } else if self.pos < bytes.len() && bytes[self.pos] == b'>' {
                        self.pos += 1;
                        out.push((start, Tok::Symbol("!=")));
                    } else {
                        out.push((start, Tok::Symbol("<")));
                    }
                }
                '>' => {
                    self.pos += 1;
                    if self.pos < bytes.len() && bytes[self.pos] == b'=' {
                        self.pos += 1;
                        out.push((start, Tok::Symbol(">=")));
                    } else {
                        out.push((start, Tok::Symbol(">")));
                    }
                }
                '!' => {
                    self.pos += 1;
                    if self.pos < bytes.len() && bytes[self.pos] == b'=' {
                        self.pos += 1;
                        out.push((start, Tok::Symbol("!=")));
                    } else {
                        return Err(self.error("expected '=' after '!'"));
                    }
                }
                '=' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol("=")));
                }
                ',' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol(",")));
                }
                '.' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol(".")));
                }
                '*' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol("*")));
                }
                '(' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol("(")));
                }
                ')' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol(")")));
                }
                '[' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol("[")));
                }
                ']' => {
                    self.pos += 1;
                    out.push((start, Tok::Symbol("]")));
                }
                other => return Err(self.error(format!("unexpected character {other:?}"))),
            }
        }
        Ok(out)
    }
}

struct Parser<'a> {
    toks: Vec<(usize, Tok<'a>)>,
    idx: usize,
    end: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.idx).map(|&(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.idx).map_or(self.end, |(o, _)| *o)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.offset(), message: message.into() }
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        self.idx += usize::from(t.is_some());
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw));
        self.idx += usize::from(hit);
        hit
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}")))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        let hit = matches!(self.peek(), Some(Tok::Symbol(s)) if s == sym);
        self.idx += usize::from(hit);
        hit
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{sym}'")))
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.idx += 1;
                Ok(s)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    /// An identifier that names a stream, alias or attribute: interned as
    /// it enters the AST.
    fn expect_name(&mut self) -> Result<Symbol, ParseError> {
        self.expect_ident().map(Symbol::intern)
    }

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let mut projection = self.parse_projlist()?;
        self.expect_keyword("FROM")?;
        let mut relations = self.parse_fromlist()?;
        let mut predicates = if self.eat_keyword("WHERE") {
            self.parse_conjunction(&relations)?
        } else {
            Vec::new()
        };
        if self.peek().is_some() {
            return Err(self.error("trailing input after query"));
        }
        // A standing population keeps every parsed query: no spare slots.
        projection.shrink_to_fit();
        relations.shrink_to_fit();
        predicates.shrink_to_fit();
        Ok(Query { projection, relations, predicates })
    }

    fn parse_projlist(&mut self) -> Result<Vec<ProjItem>, ParseError> {
        let mut items = vec![self.parse_projitem()?];
        while self.eat_symbol(",") {
            items.push(self.parse_projitem()?);
        }
        Ok(items)
    }

    fn parse_projitem(&mut self) -> Result<ProjItem, ParseError> {
        if self.eat_symbol("*") {
            return Ok(ProjItem::All);
        }
        let first = self.expect_ident()?;
        // Aggregate function: FUNC '(' alias '.' attr ')'.
        if let Some(func) = aggregate_func(first) {
            if self.eat_symbol("(") {
                let relation = self.expect_name()?;
                self.expect_symbol(".")?;
                let attr = self.expect_name()?;
                self.expect_symbol(")")?;
                return Ok(ProjItem::Agg { func, attr: AttrRef { relation, attr } });
            }
        }
        self.expect_symbol(".")?;
        let relation = Symbol::intern(first);
        if self.eat_symbol("*") {
            Ok(ProjItem::AllOf(relation))
        } else {
            Ok(ProjItem::Attr(AttrRef { relation, attr: self.expect_name()? }))
        }
    }

    fn parse_fromlist(&mut self) -> Result<Vec<RelationRef>, ParseError> {
        let mut rels = vec![self.parse_relation()?];
        while self.eat_symbol(",") {
            rels.push(self.parse_relation()?);
        }
        Ok(rels)
    }

    fn parse_relation(&mut self) -> Result<RelationRef, ParseError> {
        let stream = self.expect_name()?;
        let window = if self.eat_symbol("[") {
            let w = self.parse_window()?;
            self.expect_symbol("]")?;
            w
        } else {
            Window::Unbounded
        };
        // Optional alias: an identifier that is not WHERE.
        let alias = match self.peek() {
            Some(Tok::Ident(s)) if !s.eq_ignore_ascii_case("WHERE") => self.expect_name()?,
            _ => stream,
        };
        Ok(RelationRef { stream, window, alias })
    }

    fn parse_window(&mut self) -> Result<Window, ParseError> {
        if self.eat_keyword("NOW") {
            return Ok(Window::Now);
        }
        if self.eat_keyword("UNBOUNDED") {
            return Ok(Window::Unbounded);
        }
        self.expect_keyword("RANGE")?;
        let n = match self.next() {
            Some(Tok::Number(n)) => {
                n.parse::<u64>().map_err(|_| self.error(format!("invalid window length {n:?}")))?
            }
            _ => return Err(self.error("expected window length")),
        };
        let unit = self.expect_ident()?;
        let ms = match unit.to_ascii_lowercase().as_str() {
            "millisecond" | "milliseconds" | "ms" => 1,
            "second" | "seconds" => 1000,
            "minute" | "minutes" => 60_000,
            "hour" | "hours" => 3_600_000,
            "day" | "days" => 86_400_000,
            other => return Err(self.error(format!("unknown time unit {other:?}"))),
        };
        // The engine compares widths with `i64` event times.
        let width = n
            .checked_mul(ms)
            .filter(|&w| i64::try_from(w).is_ok())
            .ok_or_else(|| self.error(format!("window length {n} {unit} exceeds i64 ms")))?;
        Ok(Window::Range(width))
    }

    fn parse_conjunction(&mut self, rels: &[RelationRef]) -> Result<Vec<Predicate>, ParseError> {
        let mut preds = vec![self.parse_comparison(rels)?];
        while self.eat_keyword("AND") {
            preds.push(self.parse_comparison(rels)?);
        }
        Ok(preds)
    }

    fn parse_operand(&mut self, rels: &[RelationRef]) -> Result<Operand, ParseError> {
        match self.peek() {
            Some(Tok::Number(n)) => {
                self.idx += 1;
                let value = if n.contains('.') {
                    n.parse().ok().map(Scalar::Float)
                } else {
                    n.parse().ok().map(Scalar::Int)
                };
                value.map(Operand::Const).ok_or_else(|| self.error(format!("invalid number {n:?}")))
            }
            Some(Tok::Str(s)) => {
                self.idx += 1;
                Ok(Operand::Const(Scalar::Str(s.to_owned())))
            }
            Some(Tok::Ident(first)) => {
                self.idx += 1;
                if self.eat_symbol(".") {
                    let attr = self.expect_name()?;
                    Ok(Operand::Attr(AttrRef { relation: Symbol::intern(first), attr }))
                } else if rels.len() == 1 {
                    // Unqualified attribute in a single-relation query.
                    let attr = Symbol::intern(first);
                    Ok(Operand::Attr(AttrRef { relation: rels[0].alias, attr }))
                } else {
                    Err(self.error(format!(
                        "unqualified attribute {first:?} is ambiguous over multiple relations"
                    )))
                }
            }
            _ => Err(self.error("expected attribute or constant")),
        }
    }

    fn parse_comparison(&mut self, rels: &[RelationRef]) -> Result<Predicate, ParseError> {
        let left = self.parse_operand(rels)?;
        let op = match self.next() {
            Some(Tok::Symbol(s)) => match s {
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                "=" => CmpOp::Eq,
                "!=" => CmpOp::Ne,
                other => return Err(self.error(format!("expected comparison, found {other:?}"))),
            },
            _ => return Err(self.error("expected comparison operator")),
        };
        let right = self.parse_operand(rels)?;
        match (left, right) {
            (Operand::Attr(l), Operand::Attr(r)) => {
                if l.relation == r.relation {
                    Err(self.error(
                        "comparisons between two attributes of the same relation are not supported",
                    ))
                } else {
                    Ok(Predicate::JoinCmp { left: l, op, right: r })
                }
            }
            (Operand::Attr(a), Operand::Const(v)) => Ok(Predicate::Cmp { attr: a, op, value: v }),
            (Operand::Const(v), Operand::Attr(a)) => {
                Ok(Predicate::Cmp { attr: a, op: op.flipped(), value: v })
            }
            (Operand::Const(_), Operand::Const(_)) => {
                Err(self.error("comparison between two constants"))
            }
        }
    }
}

enum Operand {
    Attr(AttrRef),
    Const(Scalar),
}

/// Maps a (case-insensitive) identifier to an aggregate function.
fn aggregate_func(name: &str) -> Option<crate::ast::AggFunc> {
    use crate::ast::AggFunc::*;
    match name.to_ascii_uppercase().as_str() {
        "COUNT" => Some(Count),
        "SUM" => Some(Sum),
        "AVG" => Some(Avg),
        "MIN" => Some(Min),
        "MAX" => Some(Max),
        _ => None,
    }
}

/// Parses a CQL-subset query string.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic problems, and when the
/// parsed query is not well-formed (unknown alias, duplicate alias, …).
///
/// # Examples
///
/// ```
/// use cosmos_query::parse_query;
///
/// let q = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.b = S.b AND R.a > 10")?;
/// assert_eq!(q.join_predicates().count(), 1);
/// # Ok::<(), cosmos_query::ParseError>(())
/// ```
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, idx: 0, end: src.len() };
    let q = p.parse_query()?;
    if !q.is_well_formed() {
        return Err(ParseError {
            offset: 0,
            message: "query is not well-formed (unknown or duplicate alias)".into(),
        });
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Predicate, ProjItem, Window};

    #[test]
    fn parses_paper_q1() {
        let q = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.b = S.b AND R.a>10 AND S.c>10")
            .unwrap();
        assert_eq!(q.projection, vec![ProjItem::All]);
        assert_eq!(q.relations.len(), 2);
        assert_eq!(q.relations[0].window, Window::Now);
        assert_eq!(q.join_predicates().count(), 1);
        assert_eq!(q.selection_predicates().count(), 2);
    }

    #[test]
    fn parses_paper_q3_with_alias_and_range() {
        let q = parse_query(
            "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
             WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
        )
        .unwrap();
        assert_eq!(q.relations[0].alias, "S1");
        assert_eq!(q.relations[0].window, Window::Range(30 * 60_000));
        assert_eq!(q.projection, vec![ProjItem::AllOf("S2".into())]);
    }

    #[test]
    fn parses_paper_q4_projection_list() {
        let q = parse_query(
            "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp \
             FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 \
             WHERE S1.snowHeight > S2.snowHeight",
        )
        .unwrap();
        assert_eq!(q.projection.len(), 4);
        assert_eq!(q.relations[0].window, Window::Range(3_600_000));
    }

    #[test]
    fn constant_on_left_flips() {
        let q = parse_query("SELECT * FROM R [Now] WHERE 10 < R.a").unwrap();
        match &q.predicates[0] {
            Predicate::Cmp { attr, op, value } => {
                assert_eq!(attr.attr, "a");
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(value.as_f64(), Some(10.0));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn unqualified_attr_resolves_in_single_relation() {
        let q = parse_query("SELECT * FROM R [Now] WHERE a >= 5").unwrap();
        match &q.predicates[0] {
            Predicate::Cmp { attr, .. } => assert_eq!(attr.relation, "R"),
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn unqualified_attr_ambiguous_in_join() {
        let err = parse_query("SELECT * FROM R [Now], S [Now] WHERE a >= 5").unwrap_err();
        assert!(err.message.contains("ambiguous"));
    }

    #[test]
    fn window_units() {
        for (text, ms) in [
            ("Range 5 Seconds", 5_000),
            ("Range 2 Minutes", 120_000),
            ("Range 1 Hour", 3_600_000),
            ("Range 500 Milliseconds", 500),
            ("Range 1 Day", 86_400_000),
        ] {
            let q = parse_query(&format!("SELECT * FROM R [{text}]")).unwrap();
            assert_eq!(q.relations[0].window, Window::Range(ms), "{text}");
        }
        let q = parse_query("SELECT * FROM R [Unbounded]").unwrap();
        assert_eq!(q.relations[0].window, Window::Unbounded);
        let q = parse_query("SELECT * FROM R").unwrap();
        assert_eq!(q.relations[0].window, Window::Unbounded);
    }

    #[test]
    fn float_and_string_literals() {
        let q = parse_query("SELECT * FROM R [Now] WHERE R.x >= 1.5 AND R.name = 'alpha'").unwrap();
        assert_eq!(q.predicates.len(), 2);
        match &q.predicates[1] {
            Predicate::Cmp { value: Scalar::Str(s), .. } => assert_eq!(s, "alpha"),
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn not_equal_variants() {
        for src in ["SELECT * FROM R [Now] WHERE R.a != 3", "SELECT * FROM R [Now] WHERE R.a <> 3"]
        {
            let q = parse_query(src).unwrap();
            match &q.predicates[0] {
                Predicate::Cmp { op, .. } => assert_eq!(*op, CmpOp::Ne),
                other => panic!("unexpected predicate {other:?}"),
            }
        }
    }

    #[test]
    fn window_length_overflowing_u64_ms_is_an_error() {
        for src in [
            "SELECT * FROM R [Range 18446744073709551615 Days]",
            "SELECT * FROM R [Range 18446744073709552 Seconds]",
        ] {
            let err = parse_query(src).unwrap_err();
            assert!(err.message.contains("exceeds i64 ms"), "{src}: {}", err.message);
        }
    }

    #[test]
    fn window_length_over_i64_max_ms_is_an_error() {
        // Fits `u64`, but the engine would read it as a negative width.
        for src in [
            "SELECT * FROM R [Range 9223372036854775808 Milliseconds]",
            "SELECT * FROM R [Range 106751991168 Days]",
            "SELECT * FROM R [Range 18446744073709551615 ms]",
        ] {
            let err = parse_query(src).unwrap_err();
            assert!(err.message.contains("exceeds i64 ms"), "{src}: {}", err.message);
        }
    }

    #[test]
    fn error_cases_report_offsets() {
        for src in [
            "FROM R",
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM R [Range ten Minutes]",
            "SELECT * FROM R [Now] WHERE",
            "SELECT * FROM R [Now] WHERE R.a >",
            "SELECT * FROM R [Now] WHERE 3 < 4",
            "SELECT * FROM R [Now] extra garbage ,",
            "SELECT * FROM R [Now] WHERE R.a > 10 trailing",
            "SELECT Z.* FROM R [Now]",
        ] {
            let err = parse_query(src).unwrap_err();
            assert!(!err.message.is_empty(), "{src} should fail with a message");
        }
    }

    #[test]
    fn same_relation_attr_comparison_rejected() {
        let err = parse_query("SELECT * FROM R [Now], S [Now] WHERE R.a > R.b").unwrap_err();
        assert!(err.message.contains("same relation"));
    }

    #[test]
    fn display_parse_round_trip() {
        let srcs = [
            "SELECT * FROM R [Now], S [Now] WHERE R.b = S.b AND R.a > 10 AND S.c > 10",
            "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 \
             WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
            "SELECT R.a, S.b FROM R [Range 2 Hours], S [Unbounded] WHERE R.k = S.k",
        ];
        for src in srcs {
            let q1 = parse_query(src).unwrap();
            let q2 = parse_query(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "round-trip failed for {src}");
        }
    }

    proptest::proptest! {
        /// A window length near either bound — `i64::MAX` ms, where the
        /// engine's event-time arithmetic ends, and `u64::MAX` ms, where
        /// the multiplication overflows — round-trips through `Display`
        /// when it fits and is a `ParseError` when not: never a panic,
        /// never a wrapped width.
        #[test]
        fn prop_window_lengths_near_the_bounds_round_trip_or_are_rejected(
            unit in proptest::sample::select(vec![
                ("Milliseconds", 1u64),
                ("Seconds", 1000),
                ("Minutes", 60_000),
                ("Hours", 3_600_000),
                ("Days", 86_400_000),
            ]),
            bound in proptest::sample::select(vec![i64::MAX as u64, u64::MAX]),
            offset in 0u64..8,
        ) {
            let (name, ms) = unit;
            let n = (bound / ms - 3).saturating_add(offset);
            let parsed = parse_query(&format!("SELECT * FROM R [Range {n} {name}]"));
            match n.checked_mul(ms).filter(|&w| w <= i64::MAX as u64) {
                Some(width) => {
                    let q = parsed.expect("a width up to i64::MAX ms parses");
                    proptest::prop_assert_eq!(&q.relations[0].window, &Window::Range(width));
                    proptest::prop_assert_eq!(parse_query(&q.to_string()), Ok(q));
                }
                None => proptest::prop_assert!(parsed.is_err(), "{n} {name} parsed: {parsed:?}"),
            }
        }
    }

    #[test]
    fn aggregate_projection_items() {
        let q = parse_query(
            "SELECT AVG(S1.snowHeight), COUNT(S1.snowHeight), S1.timestamp              FROM Station1 [Range 30 Minutes] S1 WHERE S1.snowHeight >= 0",
        )
        .unwrap();
        assert!(q.has_aggregates());
        assert_eq!(q.projection.len(), 3);
        match &q.projection[0] {
            ProjItem::Agg { func, attr } => {
                assert_eq!(*func, cosmos_query_aggfunc::Avg);
                assert_eq!(attr.attr, "snowHeight");
            }
            other => panic!("unexpected item {other:?}"),
        }
        // Case-insensitive function names.
        let q2 = parse_query("SELECT avg(R.v) FROM R [Now]").unwrap();
        assert!(q2.has_aggregates());
        // Round trip through Display.
        let q3 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q3);
    }

    use crate::ast::AggFunc as cosmos_query_aggfunc;

    #[test]
    fn aggregate_name_without_parens_is_an_attribute() {
        // `Count` used as a plain alias/attr must still parse as attribute.
        let q = parse_query("SELECT Count.v FROM Count [Now]").unwrap();
        assert!(!q.has_aggregates());
        match &q.projection[0] {
            ProjItem::Attr(ar) => assert_eq!(ar.relation, "Count"),
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn unknown_alias_in_aggregate_rejected() {
        let err = parse_query("SELECT AVG(Z.v) FROM R [Now]").unwrap_err();
        assert!(!err.message.is_empty());
    }

    #[test]
    fn negative_numbers() {
        let q = parse_query("SELECT * FROM R [Now] WHERE R.t > -5").unwrap();
        match &q.predicates[0] {
            Predicate::Cmp { value, .. } => assert_eq!(value.as_f64(), Some(-5.0)),
            other => panic!("unexpected predicate {other:?}"),
        }
    }
}
