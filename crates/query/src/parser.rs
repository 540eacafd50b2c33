//! Recursive-descent parser for VAQ-SQL.

use crate::ast::{Atom, Expr, ProcessClause, ProduceItem, SelectItem, Statement, TemporalExpr};
use crate::lexer::{tokenize, Tok, Token};
use vaq_types::{DurationUnit, Result, VaqError};

/// The parser; create with [`Parser::new`], consume with
/// [`Parser::parse_statement`].
pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Tokenizes the input.
    pub(crate) fn new(src: &str) -> Result<Self> {
        Ok(Self {
            tokens: tokenize(src)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(VaqError::Parse {
            message: message.into(),
            offset: self.peek().offset,
        })
    }

    /// Consumes a keyword (case-insensitive) or fails.
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match &self.peek().tok {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected {kw}, found {other:?}")),
        }
    }

    /// Checks (and consumes) an optional keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(&self.peek().tok, Tok::Ident(s) if s.eq_ignore_ascii_case(kw)) {
            self.bump();
            return true;
        }
        false
    }

    fn expect_tok(&mut self, tok: &Tok, what: &str) -> Result<()> {
        if &self.peek().tok == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek().tok))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.peek().tok.clone() {
            Tok::Str(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected string literal, found {other:?}")),
        }
    }

    /// Parses a full statement and requires EOF afterwards.
    pub(crate) fn parse_statement(&mut self) -> Result<Statement> {
        self.expect_kw("SELECT")?;
        let select = self.parse_select_list()?;
        self.expect_kw("FROM")?;
        let from = self.parse_process()?;
        self.expect_kw("WHERE")?;
        let predicate = self.parse_temporal()?;

        let mut order_by_rank = false;
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            self.expect_kw("RANK")?;
            self.skip_arglist()?;
            order_by_rank = true;
        }
        let mut limit = None;
        if self.eat_kw("LIMIT") {
            match self.peek().tok.clone() {
                Tok::Num(n) => {
                    self.bump();
                    limit = Some(n);
                }
                _ => return self.err("expected a number after LIMIT"),
            }
        }
        match &self.peek().tok {
            Tok::Eof => Ok(Statement {
                select,
                from,
                predicate,
                order_by_rank,
                limit,
            }),
            other => self.err(format!("trailing input: {other:?}")),
        }
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.eat_kw("MERGE") {
                self.expect_tok(&Tok::LParen, "(")?;
                let field = self.ident()?;
                if !field.eq_ignore_ascii_case("clipID") {
                    return self.err(format!("MERGE expects clipID, found {field}"));
                }
                self.expect_tok(&Tok::RParen, ")")?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Merge { alias });
            } else if self.eat_kw("RANK") {
                self.skip_arglist()?;
                items.push(SelectItem::Rank);
            } else {
                return self.err("expected MERGE(clipID) or RANK(…) in SELECT list");
            }
            if !matches!(self.peek().tok, Tok::Comma) {
                break;
            }
            self.bump();
        }
        Ok(items)
    }

    /// Skips a parenthesized identifier list, e.g. `RANK(act, obj)`.
    fn skip_arglist(&mut self) -> Result<()> {
        self.expect_tok(&Tok::LParen, "(")?;
        loop {
            match self.bump().tok {
                Tok::RParen => return Ok(()),
                Tok::Eof => return self.err("unterminated argument list"),
                _ => {}
            }
        }
    }

    fn parse_process(&mut self) -> Result<ProcessClause> {
        self.expect_tok(&Tok::LParen, "(")?;
        self.expect_kw("PROCESS")?;
        let video = self.ident()?;
        self.expect_kw("PRODUCE")?;
        let mut produce = Vec::new();
        loop {
            let field = self.ident()?;
            let using = if self.eat_kw("USING") {
                Some(self.ident()?)
            } else {
                None
            };
            produce.push(ProduceItem { field, using });
            if matches!(self.peek().tok, Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect_tok(&Tok::RParen, ")")?;
        Ok(ProcessClause { video, produce })
    }

    /// A positive integer literal; `0` is rejected with a typed error at
    /// the literal's offset (negative literals never tokenize — `-` is
    /// not part of the lexical grammar and errors there).
    fn positive_num(&mut self, what: &str) -> Result<u64> {
        let offset = self.peek().offset;
        match self.peek().tok.clone() {
            Tok::Num(0) => Err(VaqError::Parse {
                message: format!("{what} must be at least 1"),
                offset,
            }),
            Tok::Num(n) => {
                self.bump();
                Ok(n)
            }
            other => self.err(format!("expected a number for {what}, found {other:?}")),
        }
    }

    /// Grammar (loosest to tightest):
    /// `temporal := or (THEN or WITHIN num CLIPS)*` — left-associative.
    fn parse_temporal(&mut self) -> Result<TemporalExpr> {
        let mut acc = self.parse_or()?;
        while self.eat_kw("THEN") {
            let second = self.parse_or()?;
            self.expect_kw("WITHIN")?;
            let within_clips = self.positive_num("THEN … WITHIN window")?;
            self.expect_kw("CLIPS")?;
            acc = TemporalExpr::Then {
                first: Box::new(acc),
                second: Box::new(second),
                within_clips,
            };
        }
        Ok(acc)
    }

    /// `or := and (OR and)*`; all-boolean operand lists collapse to a
    /// boolean leaf (see [`TemporalExpr::or`]).
    fn parse_or(&mut self) -> Result<TemporalExpr> {
        let mut parts = vec![self.parse_and()?];
        while self.eat_kw("OR") {
            parts.push(self.parse_and()?);
        }
        Ok(TemporalExpr::or(parts))
    }

    /// `and := unary (AND unary)*`.
    fn parse_and(&mut self) -> Result<TemporalExpr> {
        let mut parts = vec![self.parse_unary()?];
        while self.eat_kw("AND") {
            parts.push(self.parse_unary()?);
        }
        Ok(TemporalExpr::and(parts))
    }

    /// `unary := NOT unary | postfix`.
    fn parse_unary(&mut self) -> Result<TemporalExpr> {
        if self.eat_kw("NOT") {
            let inner = self.parse_unary()?;
            return Ok(TemporalExpr::Not(Box::new(inner)));
        }
        self.parse_postfix()
    }

    /// `postfix := primary (FOR AT LEAST num (CLIPS|SHOTS))?`.
    fn parse_postfix(&mut self) -> Result<TemporalExpr> {
        let inner = self.parse_temporal_primary()?;
        if self.eat_kw("FOR") {
            self.expect_kw("AT")?;
            self.expect_kw("LEAST")?;
            let min = self.positive_num("FOR AT LEAST duration")?;
            let unit = if self.eat_kw("CLIPS") {
                DurationUnit::Clips
            } else if self.eat_kw("SHOTS") {
                DurationUnit::Shots
            } else {
                return self.err("expected CLIPS or SHOTS after FOR AT LEAST duration");
            };
            return Ok(TemporalExpr::AtLeast {
                inner: Box::new(inner),
                min,
                unit,
            });
        }
        Ok(inner)
    }

    /// `primary := '(' temporal ')' | atom`.
    fn parse_temporal_primary(&mut self) -> Result<TemporalExpr> {
        if matches!(self.peek().tok, Tok::LParen) {
            self.bump();
            let e = self.parse_temporal()?;
            self.expect_tok(&Tok::RParen, ")")?;
            return Ok(e);
        }
        Ok(TemporalExpr::Leaf(self.parse_atom()?))
    }

    fn parse_atom(&mut self) -> Result<Expr> {
        let head = self.ident()?;
        if head.eq_ignore_ascii_case("act") {
            self.expect_tok(&Tok::Eq, "=")?;
            let label = self.string()?;
            return Ok(Expr::Atom(Atom::ActionEquals(label)));
        }
        if head.eq_ignore_ascii_case("obj") {
            self.expect_tok(&Tok::Dot, ".")?;
            let method = self.ident()?;
            if method.eq_ignore_ascii_case("include") || method.eq_ignore_ascii_case("inc") {
                self.expect_tok(&Tok::LParen, "(")?;
                let mut labels = vec![self.string()?];
                while matches!(self.peek().tok, Tok::Comma) {
                    self.bump();
                    labels.push(self.string()?);
                }
                self.expect_tok(&Tok::RParen, ")")?;
                return Ok(Expr::Atom(Atom::ObjectsInclude(labels)));
            }
            if method.eq_ignore_ascii_case("relate") {
                self.expect_tok(&Tok::LParen, "(")?;
                let subject = self.string()?;
                self.expect_tok(&Tok::Comma, ",")?;
                let relation = self.string()?;
                self.expect_tok(&Tok::Comma, ",")?;
                let object = self.string()?;
                self.expect_tok(&Tok::RParen, ")")?;
                return Ok(Expr::Atom(Atom::Relate {
                    subject,
                    relation,
                    object,
                }));
            }
            return self.err(format!("unknown obj method {method}"));
        }
        self.err(format!("unknown predicate head {head}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONLINE: &str = "SELECT MERGE(clipID) AS Sequence \
        FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
        act USING ActionRecognizer) \
        WHERE act='jumping' AND obj.include('car', 'person')";

    const OFFLINE: &str = "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
        FROM (PROCESS movie PRODUCE clipID, obj USING ObjectTracker, \
        act USING ActionRecognizer) \
        WHERE act='smoking' AND obj.include('wine glass', 'cup') \
        ORDER BY RANK(act, obj) LIMIT 5";

    #[test]
    fn parses_paper_online_example() {
        let stmt = Parser::new(ONLINE).unwrap().parse_statement().unwrap();
        assert_eq!(stmt.select.len(), 1);
        assert_eq!(stmt.from.video, "inputVideo");
        assert_eq!(stmt.from.produce.len(), 3);
        assert_eq!(
            stmt.from.produce[1].using.as_deref(),
            Some("ObjectDetector")
        );
        assert!(!stmt.order_by_rank);
        assert_eq!(stmt.limit, None);
        let dnf = stmt.predicate.as_boolean().unwrap().to_dnf();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf[0].len(), 2);
    }

    #[test]
    fn parses_paper_offline_example() {
        let stmt = Parser::new(OFFLINE).unwrap().parse_statement().unwrap();
        assert!(stmt.order_by_rank);
        assert_eq!(stmt.limit, Some(5));
        assert!(matches!(stmt.select[1], SelectItem::Rank));
        match stmt.predicate.as_boolean() {
            Some(Expr::And(parts)) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        let s = "select merge(CLIPID) from (process v produce clipID) where act='x'";
        assert!(Parser::new(s).unwrap().parse_statement().is_ok());
    }

    #[test]
    fn obj_inc_alias() {
        let s = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='x' AND obj.inc('car')";
        let stmt = Parser::new(s).unwrap().parse_statement().unwrap();
        let dnf = stmt.predicate.as_boolean().unwrap().to_dnf();
        assert!(matches!(&dnf[0][1], Atom::ObjectsInclude(v) if v == &vec!["car".to_string()]));
    }

    #[test]
    fn disjunction_with_parentheses() {
        let s = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE (act='a' AND obj.include('x')) OR act='b'";
        let stmt = Parser::new(s).unwrap().parse_statement().unwrap();
        assert_eq!(stmt.predicate.as_boolean().unwrap().to_dnf().len(), 2);
    }

    #[test]
    fn relate_predicate() {
        let s = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='a' AND obj.include('person','car') \
                 AND obj.relate('person', 'left_of', 'car')";
        let stmt = Parser::new(s).unwrap().parse_statement().unwrap();
        let dnf = stmt.predicate.as_boolean().unwrap().to_dnf();
        assert!(matches!(&dnf[0][2], Atom::Relate { relation, .. } if relation == "left_of"));
    }

    #[test]
    fn error_messages_carry_offsets() {
        let err = Parser::new("SELECT NOPE")
            .unwrap()
            .parse_statement()
            .unwrap_err();
        match err {
            VaqError::Parse { offset, message } => {
                assert_eq!(offset, 7);
                assert!(message.contains("MERGE"));
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let s = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='x' extra";
        assert!(Parser::new(s).unwrap().parse_statement().is_err());
    }

    #[test]
    fn merge_requires_clip_id() {
        let s = "SELECT MERGE(frame) FROM (PROCESS v PRODUCE clipID) WHERE act='x'";
        let err = Parser::new(s).unwrap().parse_statement().unwrap_err();
        assert!(err.to_string().contains("clipID"));
    }

    #[test]
    fn limit_requires_number() {
        let s = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='x' ORDER BY RANK(act) LIMIT many";
        assert!(Parser::new(s).unwrap().parse_statement().is_err());
    }

    mod fuzz {
        use super::*;
        use std::ops::RangeInclusive;
        use vaq_types::rng::{for_cases, SeededRng};

        /// A string of `len` characters, each from `pick`.
        fn draw_string(
            r: &mut SeededRng,
            len: RangeInclusive<usize>,
            mut pick: impl FnMut(&mut SeededRng) -> char,
        ) -> String {
            let n = r.gen_range(len);
            (0..n).map(|_| pick(r)).collect()
        }

        /// Any character but `'\n'` (a regex `.`): half the time printable
        /// ASCII, where the grammar's tokens live, else any scalar value.
        fn any_char(r: &mut SeededRng) -> char {
            loop {
                let c = if r.gen_bool(0.5) {
                    char::from(r.gen_range(0x20u8..0x7F))
                } else {
                    match char::from_u32(r.gen_range(0..=0x10_FFFFu32)) {
                        Some(c) => c,
                        None => continue,
                    }
                };
                if c != '\n' {
                    return c;
                }
            }
        }

        /// A character of `[a-zA-Z ]`.
        fn label_char(r: &mut SeededRng) -> char {
            const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ ";
            char::from(CHARS[r.gen_range(0..CHARS.len())])
        }

        /// Arbitrary input must parse or produce a typed error — never
        /// panic, never loop.
        #[test]
        fn prop_never_panics_on_arbitrary_input() -> Result<(), String> {
            for_cases(
                "prop_never_panics_on_arbitrary_input",
                256,
                |r| draw_string(r, 0..=200, any_char),
                |input| {
                    if let Ok(mut p) = Parser::new(input) {
                        let _ = p.parse_statement();
                    }
                },
            )
        }

        /// Arbitrary SQL-ish token soup likewise.
        #[test]
        fn prop_never_panics_on_token_soup() -> Result<(), String> {
            const WORDS: [&str; 25] = [
                "SELECT", "MERGE", "(", ")", "clipID", "FROM", "PROCESS", "PRODUCE", "WHERE",
                "act", "=", "'x'", "obj", ".", "include", "AND", "OR", "ORDER", "BY", "RANK",
                "LIMIT", "5", ",", "AS", "USING",
            ];
            for_cases(
                "prop_never_panics_on_token_soup",
                256,
                |r| {
                    let n = r.gen_range(0..30usize);
                    (0..n)
                        .map(|_| WORDS[r.gen_range(0..WORDS.len())])
                        .collect::<Vec<_>>()
                },
                |words| {
                    let input = words.join(" ");
                    if let Ok(mut p) = Parser::new(&input) {
                        let _ = p.parse_statement();
                    }
                },
            )
        }

        /// Well-formed single-clause queries always parse, for any
        /// label contents (quotes escaped by doubling).
        #[test]
        fn prop_wellformed_queries_parse() -> Result<(), String> {
            for_cases(
                "prop_wellformed_queries_parse",
                256,
                |r| {
                    let action = draw_string(r, 1..=20, label_char);
                    let n = r.gen_range(1..4usize);
                    let objects: Vec<String> =
                        (0..n).map(|_| draw_string(r, 1..=15, label_char)).collect();
                    let k = r.gen_bool(0.5).then(|| r.gen_range(1u64..100));
                    (action, objects, k)
                },
                |&(ref action, ref objects, k)| {
                    let objs = objects
                        .iter()
                        .map(|o| format!("'{o}'"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    let tail = match k {
                        Some(k) => format!(" ORDER BY RANK(act, obj) LIMIT {k}"),
                        None => String::new(),
                    };
                    let sql = format!(
                        "SELECT MERGE(clipID){} FROM (PROCESS v PRODUCE clipID) \
                         WHERE act='{action}' AND obj.include({objs}){tail}",
                        if k.is_some() { ", RANK(act, obj)" } else { "" },
                    );
                    let stmt = Parser::new(&sql).unwrap().parse_statement().unwrap();
                    assert_eq!(stmt.limit, k);
                    let dnf = stmt.predicate.as_boolean().unwrap().to_dnf();
                    assert_eq!(dnf.len(), 1);
                    assert_eq!(dnf[0].len(), 2);
                },
            )
        }
    }

    /// Pretty-print → reparse must reproduce the exact AST, for random
    /// composite temporal trees (the printer's parenthesization against
    /// the grammar's precedence is what's under test).
    mod roundtrip {
        use super::*;
        use crate::ast::ProcessClause;
        use vaq_types::rng::{for_cases, splitmix64};

        fn random_label(state: &mut u64) -> String {
            let n = 1 + splitmix64(state) % 8;
            (0..n)
                .map(|_| (b'a' + (splitmix64(state) % 26) as u8) as char)
                .collect()
        }

        fn random_atom(state: &mut u64) -> Expr {
            match splitmix64(state) % 3 {
                0 => Expr::Atom(Atom::ActionEquals(random_label(state))),
                1 => {
                    let n = 1 + splitmix64(state) as usize % 3;
                    Expr::Atom(Atom::ObjectsInclude(
                        (0..n).map(|_| random_label(state)).collect(),
                    ))
                }
                _ => Expr::Atom(Atom::Relate {
                    subject: random_label(state),
                    relation: random_label(state),
                    object: random_label(state),
                }),
            }
        }

        /// Random boolean expression; `Or`/`And` always carry ≥ 2
        /// children, matching the shapes the parser can produce.
        fn random_bool(state: &mut u64, depth: usize) -> Expr {
            if depth == 0 {
                return random_atom(state);
            }
            match splitmix64(state) % 3 {
                0 => random_atom(state),
                c => {
                    let n = 2 + splitmix64(state) as usize % 2;
                    let children = (0..n).map(|_| random_bool(state, depth - 1)).collect();
                    if c == 1 {
                        Expr::Or(children)
                    } else {
                        Expr::And(children)
                    }
                }
            }
        }

        /// Random temporal tree built through the smart constructors, so
        /// all-boolean operand lists collapse exactly as the parser
        /// collapses them.
        fn random_temporal(state: &mut u64, depth: usize) -> TemporalExpr {
            if depth == 0 {
                return TemporalExpr::Leaf(random_atom(state));
            }
            match splitmix64(state) % 6 {
                0 => TemporalExpr::Leaf(random_bool(state, depth - 1)),
                1 => TemporalExpr::Not(Box::new(random_temporal(state, depth - 1))),
                2 | 3 => {
                    let n = 2 + splitmix64(state) as usize % 2;
                    let parts: Vec<TemporalExpr> =
                        (0..n).map(|_| random_temporal(state, depth - 1)).collect();
                    if splitmix64(state) % 2 == 0 {
                        TemporalExpr::or(parts)
                    } else {
                        TemporalExpr::and(parts)
                    }
                }
                4 => TemporalExpr::Then {
                    first: Box::new(random_temporal(state, depth - 1)),
                    second: Box::new(random_temporal(state, depth - 1)),
                    within_clips: 1 + splitmix64(state) % 9,
                },
                _ => TemporalExpr::AtLeast {
                    inner: Box::new(random_temporal(state, depth - 1)),
                    min: 1 + splitmix64(state) % 9,
                    unit: if splitmix64(state) % 2 == 0 {
                        DurationUnit::Clips
                    } else {
                        DurationUnit::Shots
                    },
                },
            }
        }

        fn statement_with(predicate: TemporalExpr, offline: bool) -> Statement {
            let mut select = vec![SelectItem::Merge { alias: None }];
            if offline {
                select.push(SelectItem::Rank);
            }
            Statement {
                select,
                from: ProcessClause {
                    video: "v".into(),
                    produce: vec![ProduceItem {
                        field: "clipID".into(),
                        using: None,
                    }],
                },
                predicate,
                order_by_rank: offline,
                limit: offline.then_some(5),
            }
        }

        fn check_roundtrip(seed: u64) {
            let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0x0_DDB1_A5E5;
            let depth = (splitmix64(&mut s) as usize) % 5;
            let offline = splitmix64(&mut s) % 2 == 0;
            let stmt = statement_with(random_temporal(&mut s, depth), offline);
            let printed = stmt.to_string();
            let back = Parser::new(&printed)
                .unwrap_or_else(|e| panic!("seed {seed}: lex {printed:?}: {e}"))
                .parse_statement()
                .unwrap_or_else(|e| panic!("seed {seed}: parse {printed:?}: {e}"));
            assert_eq!(back, stmt, "seed {seed}: printed {printed:?}");
        }

        #[test]
        fn printed_statements_reparse_identically_pinned_sweep() {
            for seed in 0..500u64 {
                check_roundtrip(seed);
            }
        }

        #[test]
        fn precedence_fixtures_reparse_and_print_stably() {
            // (printed form, structural probe) pairs covering every
            // precedence seam of the temporal grammar.
            let fixtures: &[&str] = &[
                // THEN binds loosest; right operand at OR level.
                "act = 'a' THEN act = 'b' WITHIN 2 CLIPS",
                "(act = 'a' THEN act = 'b' WITHIN 2 CLIPS) THEN act = 'c' WITHIN 3 CLIPS",
                "act = 'a' THEN (act = 'b' THEN act = 'c' WITHIN 1 CLIPS) WITHIN 4 CLIPS",
                // NOT binds tighter than AND/OR, looser than FOR AT LEAST.
                "NOT act = 'a' AND act = 'b'",
                "NOT (act = 'a' AND act = 'b')",
                "NOT act = 'a' FOR AT LEAST 3 CLIPS",
                "NOT (act = 'a' FOR AT LEAST 3 CLIPS)",
                // FOR AT LEAST attaches to the primary.
                "(act = 'a' OR act = 'b') FOR AT LEAST 4 SHOTS",
                "(act = 'a' FOR AT LEAST 2 CLIPS) FOR AT LEAST 3 CLIPS",
                // Boolean nesting survives inside leaves.
                "(act = 'a' OR act = 'b') AND obj.include('car')",
                "act = 'a' AND (act = 'b' OR obj.include('x', 'y'))",
            ];
            for where_clause in fixtures {
                let sql = format!(
                    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE {where_clause}"
                );
                let stmt = Parser::new(&sql).unwrap().parse_statement().unwrap();
                let printed = stmt.to_string();
                let back = Parser::new(&printed).unwrap().parse_statement().unwrap();
                assert_eq!(back, stmt, "fixture {where_clause:?} printed {printed:?}");
            }
        }

        #[test]
        fn labels_with_quotes_roundtrip() {
            let stmt = statement_with(
                TemporalExpr::Then {
                    first: Box::new(TemporalExpr::Leaf(Expr::Atom(Atom::ActionEquals(
                        "o'clock drill".into(),
                    )))),
                    second: Box::new(TemporalExpr::Leaf(Expr::Atom(Atom::ObjectsInclude(vec![
                        "it's".into(),
                    ])))),
                    within_clips: 2,
                },
                false,
            );
            let printed = stmt.to_string();
            let back = Parser::new(&printed).unwrap().parse_statement().unwrap();
            assert_eq!(back, stmt, "printed {printed:?}");
        }

        #[test]
        fn prop_printed_statements_reparse_identically() -> Result<(), String> {
            for_cases(
                "prop_printed_statements_reparse_identically",
                128,
                |r| r.gen_range(0u64..(1 << 48)),
                |&seed| check_roundtrip(seed),
            )
        }
    }

    /// Malformed temporal syntax must fail with a typed [`VaqError::Parse`]
    /// whose offset points into the offending literal or keyword.
    mod temporal_errors {
        use super::*;

        fn parse_err(where_clause: &str) -> VaqError {
            let sql = format!(
                "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE {where_clause}"
            );
            match Parser::new(&sql) {
                Ok(mut p) => p
                    .parse_statement()
                    .expect_err("malformed input must not parse"),
                Err(e) => e,
            }
        }

        /// The byte offset of `needle` within the full assembled SQL.
        fn offset_of(where_clause: &str, needle: &str) -> usize {
            let sql = format!(
                "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE {where_clause}"
            );
            sql.find(needle).expect("needle present")
        }

        #[test]
        fn zero_within_window_rejected_at_literal() {
            let clause = "act = 'a' THEN act = 'b' WITHIN 0 CLIPS";
            match parse_err(clause) {
                VaqError::Parse { message, offset } => {
                    assert!(message.contains("must be at least 1"), "{message}");
                    assert!(message.contains("WITHIN"), "{message}");
                    assert_eq!(offset, offset_of(clause, "0"));
                }
                other => panic!("wrong error {other}"),
            }
        }

        #[test]
        fn zero_duration_rejected_at_literal() {
            let clause = "act = 'a' FOR AT LEAST 0 SHOTS";
            match parse_err(clause) {
                VaqError::Parse { message, offset } => {
                    assert!(message.contains("must be at least 1"), "{message}");
                    assert!(message.contains("AT LEAST"), "{message}");
                    assert_eq!(offset, offset_of(clause, "0"));
                }
                other => panic!("wrong error {other}"),
            }
        }

        #[test]
        fn negative_window_is_a_lexer_error() {
            let sql = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                       WHERE act = 'a' THEN act = 'b' WITHIN -3 CLIPS";
            let err = match Parser::new(sql) {
                Ok(mut p) => p.parse_statement().expect_err("must not parse"),
                Err(e) => e,
            };
            assert!(matches!(err, VaqError::Parse { .. }), "got {err}");
        }

        #[test]
        fn missing_clips_unit_after_within() {
            match parse_err("act = 'a' THEN act = 'b' WITHIN 3") {
                VaqError::Parse { message, .. } => {
                    assert!(message.contains("CLIPS"), "{message}");
                }
                other => panic!("wrong error {other}"),
            }
        }

        #[test]
        fn missing_within_after_then() {
            match parse_err("act = 'a' THEN act = 'b'") {
                VaqError::Parse { message, .. } => {
                    assert!(message.contains("WITHIN"), "{message}");
                }
                other => panic!("wrong error {other}"),
            }
        }

        #[test]
        fn bad_duration_unit_rejected() {
            match parse_err("act = 'a' FOR AT LEAST 3 FRAMES") {
                VaqError::Parse { message, .. } => {
                    assert!(message.contains("CLIPS or SHOTS"), "{message}");
                }
                other => panic!("wrong error {other}"),
            }
        }

        #[test]
        fn dangling_not_rejected() {
            assert!(matches!(parse_err("NOT"), VaqError::Parse { .. }));
        }

        #[test]
        fn unbalanced_temporal_parens_rejected() {
            assert!(matches!(
                parse_err("(act = 'a' THEN act = 'b' WITHIN 2 CLIPS"),
                VaqError::Parse { .. }
            ));
        }
    }
}
