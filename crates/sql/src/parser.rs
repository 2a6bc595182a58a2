//! Recursive-descent parser for the query template of §3.

use std::fmt;

use ph_types::{PhError, Value};

use crate::ast::{AggFunc, CmpOp, Condition, Predicate, Query};
use crate::lexer::{lex_spanned, LexError, Token};

/// Parser errors. Every variant carries the byte offset in the input where the
/// problem starts (`at == input.len()` means "at end of input").
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenizer failure (its own variants carry offsets).
    Lex(LexError),
    /// Unexpected token (or end of input) with context.
    Unexpected {
        /// What the parser was looking for.
        expected: String,
        /// What it found, if anything.
        got: Option<Token>,
        /// Byte offset of the offending token (input length at end of input).
        at: usize,
    },
    /// `COUNT(*)` and other star aggregates are outside the paper's template.
    StarNotSupported {
        /// Byte offset of the `*`.
        at: usize,
    },
    /// Unknown aggregation function name.
    UnknownAggregate {
        /// The name as written.
        name: String,
        /// Byte offset of the name.
        at: usize,
    },
}

impl ParseError {
    /// Byte offset in the input where the error occurred.
    pub fn at(&self) -> usize {
        match self {
            ParseError::Lex(e) => e.at(),
            ParseError::Unexpected { at, .. }
            | ParseError::StarNotSupported { at }
            | ParseError::UnknownAggregate { at, .. } => *at,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: {e}"),
            ParseError::Unexpected { expected, got: Some(t), at } => {
                write!(f, "expected {expected}, found '{t}' at byte {at}")
            }
            ParseError::Unexpected { expected, got: None, at } => {
                write!(f, "expected {expected}, found end of input at byte {at}")
            }
            ParseError::StarNotSupported { at } => {
                write!(
                    f,
                    "star aggregates are not supported (byte {at}); aggregate a column, e.g. COUNT(x)"
                )
            }
            ParseError::UnknownAggregate { name, at } => {
                write!(f, "unknown aggregation function '{name}' at byte {at} (supported: COUNT, SUM, AVG, MIN, MAX, MEDIAN, VAR)")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

impl From<ParseError> for PhError {
    fn from(e: ParseError) -> Self {
        PhError::Parse(e.to_string())
    }
}

impl From<LexError> for PhError {
    fn from(e: LexError) -> Self {
        PhError::Parse(e.to_string())
    }
}

/// Parses one query of the form
/// `SELECT F(X) FROM t [WHERE predicate] [GROUP BY g] [;]`.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let tokens = lex_spanned(input)?;
    let mut p = Parser { tokens, pos: 0, eof: input.len() };
    let q = p.query()?;
    p.finish()?;
    Ok(q)
}

/// Byte offset of the first syntax error in `input`, or `None` if it parses.
///
/// The structured offset ([`ParseError::at`]) is erased when a parse error
/// crosses a `PhError::Parse(String)` boundary (the workspace-level error
/// carries only the message); error *reporters* — `ph_server`'s 400-response
/// JSON, editor integrations — recover it here by re-running the parser on the
/// offending text. Error path only: the text already failed once, so the
/// re-parse costs nothing on any hot path.
pub fn error_offset(input: &str) -> Option<usize> {
    parse_query(input).err().map(|e| e.at())
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    /// Byte offset reported for end-of-input errors.
    eof: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    /// Byte offset of the token about to be consumed (end of input if exhausted).
    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.eof, |&(_, at)| at)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let at = self.offset();
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            got => Err(ParseError::Unexpected { expected: format!("keyword {kw}"), got, at }),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect(&mut self, tok: Token) -> Result<(), ParseError> {
        let at = self.offset();
        match self.next() {
            Some(t) if t == tok => Ok(()),
            got => Err(ParseError::Unexpected { expected: format!("'{tok}'"), got, at }),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        let at = self.offset();
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            got => Err(ParseError::Unexpected { expected: what.to_string(), got, at }),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let agg_at = self.offset();
        let agg_name = self.ident("aggregation function")?;
        let agg = match agg_name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "MEDIAN" => AggFunc::Median,
            "VAR" | "VARIANCE" | "VAR_POP" => AggFunc::Var,
            _ => return Err(ParseError::UnknownAggregate { name: agg_name, at: agg_at }),
        };
        self.expect(Token::LParen)?;
        if self.peek() == Some(&Token::Star) {
            return Err(ParseError::StarNotSupported { at: self.offset() });
        }
        let column = self.ident("aggregation column")?;
        self.expect(Token::RParen)?;
        self.expect_keyword("FROM")?;
        let table = self.ident("table name")?;

        let mut predicate = None;
        if self.peek_keyword("WHERE") {
            self.next();
            predicate = Some(self.or_expr()?);
        }

        let mut group_by = None;
        if self.peek_keyword("GROUP") {
            self.next();
            self.expect_keyword("BY")?;
            group_by = Some(self.ident("group-by column")?);
        }

        if self.peek() == Some(&Token::Semicolon) {
            self.next();
        }
        Ok(Query { agg, column, table, predicate, group_by })
    }

    /// `or_expr := and_expr (OR and_expr)*` — OR binds loosest.
    fn or_expr(&mut self) -> Result<Predicate, ParseError> {
        let mut children = vec![self.and_expr()?];
        while self.peek_keyword("OR") {
            self.next();
            children.push(self.and_expr()?);
        }
        Ok(if children.len() == 1 { children.pop().unwrap() } else { Predicate::Or(children) })
    }

    /// `and_expr := primary (AND primary)*`.
    fn and_expr(&mut self) -> Result<Predicate, ParseError> {
        let mut children = vec![self.primary()?];
        while self.peek_keyword("AND") {
            self.next();
            children.push(self.primary()?);
        }
        Ok(if children.len() == 1 { children.pop().unwrap() } else { Predicate::And(children) })
    }

    /// `primary := '(' or_expr ')' | column OP literal`.
    fn primary(&mut self) -> Result<Predicate, ParseError> {
        if self.peek() == Some(&Token::LParen) {
            self.next();
            let inner = self.or_expr()?;
            self.expect(Token::RParen)?;
            return Ok(inner);
        }
        let column = self.ident("column name")?;
        let op_at = self.offset();
        let op = match self.next() {
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            got => {
                return Err(ParseError::Unexpected {
                    expected: "comparison operator".to_string(),
                    got,
                    at: op_at,
                })
            }
        };
        let lit_at = self.offset();
        let value = match self.next() {
            Some(Token::Number(n)) => {
                // Integer-valued literals stay integers so categorical/int columns
                // compare exactly.
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    Value::Int(n as i64)
                } else {
                    Value::Float(n)
                }
            }
            Some(Token::Str(s)) => Value::Str(s),
            got => {
                return Err(ParseError::Unexpected {
                    expected: "literal".to_string(),
                    got,
                    at: lit_at,
                })
            }
        };
        Ok(Predicate::Cond(Condition { column, op, value }))
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(ParseError::Unexpected {
                expected: "end of query".to_string(),
                got: Some(t.clone()),
                at: self.offset(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal() {
        let q = parse_query("SELECT COUNT(x) FROM t").unwrap();
        assert_eq!(q.agg, AggFunc::Count);
        assert_eq!(q.column, "x");
        assert_eq!(q.table, "t");
        assert!(q.predicate.is_none());
        assert!(q.group_by.is_none());
    }

    #[test]
    fn and_binds_tighter_than_or() {
        // Fig 7's structure: P1 AND P2 OR P3 AND P4 == (P1 AND P2) OR (P3 AND P4).
        let q = parse_query(
            "SELECT AVG(delay) FROM f WHERE dist > 150 AND dist < 300 OR dist < 450 AND air_time > 90.5;",
        )
        .unwrap();
        match q.predicate.unwrap() {
            Predicate::Or(children) => {
                assert_eq!(children.len(), 2);
                for c in &children {
                    assert!(matches!(c, Predicate::And(v) if v.len() == 2));
                }
            }
            other => panic!("expected OR at root, got {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let q = parse_query("SELECT SUM(x) FROM t WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        match q.predicate.unwrap() {
            Predicate::And(children) => {
                assert!(matches!(children[0], Predicate::Or(_)));
            }
            other => panic!("expected AND at root, got {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("select median(x) from t where a <> 'Y' group by g;").unwrap();
        assert_eq!(q.agg, AggFunc::Median);
        assert_eq!(q.group_by.as_deref(), Some("g"));
    }

    #[test]
    fn integer_literals_stay_integers() {
        let q = parse_query("SELECT SUM(x) FROM t WHERE a = 3").unwrap();
        match q.predicate.unwrap() {
            Predicate::Cond(c) => assert_eq!(c.value, Value::Int(3)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_rejected_with_clear_error() {
        assert_eq!(
            parse_query("SELECT COUNT(*) FROM t"),
            Err(ParseError::StarNotSupported { at: 13 })
        );
    }

    #[test]
    fn unknown_aggregate_rejected() {
        assert!(matches!(
            parse_query("SELECT FOO(x) FROM t"),
            Err(ParseError::UnknownAggregate { at: 7, .. })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT COUNT(x) FROM t; extra").is_err());
    }

    #[test]
    fn errors_carry_byte_offsets() {
        // Offending token position, in the middle of the input.
        let e = parse_query("SELECT COUNT(x) FROM t WHERE x ? 3").unwrap_err();
        assert!(matches!(e, ParseError::Lex(LexError::UnexpectedChar { at: 31, .. })));
        assert_eq!(e.at(), 31);
        // Missing literal: reported at end of input.
        let sql = "SELECT COUNT(x) FROM t WHERE x >";
        let e = parse_query(sql).unwrap_err();
        assert_eq!(e.at(), sql.len());
        assert!(e.to_string().contains("end of input"), "{e}");
        // Display always names the offset.
        let e = parse_query("SELECT COUNT(x) FROM t WHERE x > >").unwrap_err();
        assert!(e.to_string().contains("byte 33"), "{e}");
    }

    #[test]
    fn error_offset_matches_parse_error() {
        assert_eq!(error_offset("SELECT COUNT(x) FROM t WHERE x > 3"), None);
        assert_eq!(error_offset("SELECT COUNT(x) FROM t WHERE x ? 3"), Some(31));
        let sql = "SELECT COUNT(x) FROM t WHERE x >";
        assert_eq!(error_offset(sql), Some(sql.len()));
    }

    #[test]
    fn display_reparses_identically() {
        let original =
            parse_query("SELECT VAR(y) FROM t WHERE (a > 1 OR b <= 2.5) AND c = 'x y' GROUP BY g")
                .unwrap();
        let reparsed = parse_query(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
    }
}
