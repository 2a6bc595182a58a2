//! Tokenizer for the SQL subset.

use std::fmt;

/// Lexical tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (keywords are recognised case-insensitively by the
    /// parser; the original spelling is preserved here).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `*`
    Star,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Semicolon => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Star => write!(f, "*"),
        }
    }
}

/// Lexer errors with byte offsets.
#[derive(Debug, Clone, PartialEq)]
pub enum LexError {
    /// An unrecognised character.
    UnexpectedChar {
        /// The character.
        ch: char,
        /// Byte offset in the input.
        at: usize,
    },
    /// A string literal with no closing quote.
    UnterminatedString {
        /// Byte offset where the literal starts.
        at: usize,
    },
    /// A numeric literal that does not parse.
    BadNumber {
        /// The offending text.
        text: String,
        /// Byte offset where it starts.
        at: usize,
    },
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnexpectedChar { ch, at } => {
                write!(f, "unexpected character '{ch}' at byte {at}")
            }
            LexError::UnterminatedString { at } => {
                write!(f, "unterminated string literal starting at byte {at}")
            }
            LexError::BadNumber { text, at } => {
                write!(f, "malformed number '{text}' at byte {at}")
            }
        }
    }
}

impl LexError {
    /// Byte offset in the input where the error occurred.
    pub fn at(&self) -> usize {
        match self {
            LexError::UnexpectedChar { at, .. }
            | LexError::UnterminatedString { at }
            | LexError::BadNumber { at, .. } => *at,
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `input`, discarding positions.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    Ok(lex_spanned(input)?.into_iter().map(|(t, _)| t).collect())
}

/// Tokenizes `input`, pairing every token with the byte offset where it starts —
/// the parser threads these offsets into its errors.
pub fn lex_spanned(input: &str) -> Result<Vec<(Token, usize)>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let at = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push((Token::LParen, at));
                i += 1;
            }
            ')' => {
                tokens.push((Token::RParen, at));
                i += 1;
            }
            ';' => {
                tokens.push((Token::Semicolon, at));
                i += 1;
            }
            ',' => {
                tokens.push((Token::Comma, at));
                i += 1;
            }
            '*' => {
                tokens.push((Token::Star, at));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push((Token::Le, at));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push((Token::Ne, at));
                    i += 2;
                } else {
                    tokens.push((Token::Lt, at));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push((Token::Ge, at));
                    i += 2;
                } else {
                    tokens.push((Token::Gt, at));
                    i += 1;
                }
            }
            '=' => {
                tokens.push((Token::Eq, at));
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push((Token::Ne, at));
                    i += 2;
                } else {
                    return Err(LexError::UnexpectedChar { ch: '!', at: i });
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                // Copy whole segments between quote characters, so multi-byte
                // UTF-8 content survives intact (byte-at-a-time `as char` would
                // turn it into mojibake; segment boundaries are always the ASCII
                // quote byte, hence valid char boundaries).
                let mut seg = i;
                loop {
                    match bytes.get(i) {
                        None => return Err(LexError::UnterminatedString { at: start }),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push_str(&input[seg..i]);
                            s.push('\'');
                            i += 2;
                            seg = i;
                        }
                        Some(b'\'') => {
                            s.push_str(&input[seg..i]);
                            i += 1;
                            break;
                        }
                        Some(_) => i += 1,
                    }
                }
                tokens.push((Token::Str(s), start));
            }
            '0'..='9' | '.' | '-' | '+' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && matches!(bytes[i] as char, '0'..='9' | '.' | 'e' | 'E' | '_')
                {
                    // Allow exponent signs directly after e/E.
                    if matches!(bytes[i] as char, 'e' | 'E')
                        && matches!(bytes.get(i + 1).map(|&b| b as char), Some('-') | Some('+'))
                    {
                        i += 1;
                    }
                    i += 1;
                }
                let text: String = input[start..i].chars().filter(|&c| c != '_').collect();
                match text.parse::<f64>() {
                    Ok(n) => tokens.push((Token::Number(n), start)),
                    Err(_) => return Err(LexError::BadNumber { text, at: start }),
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push((Token::Ident(input[start..i].to_string()), start));
            }
            _ => {
                // Report the actual (possibly multi-byte) character, not the
                // Latin-1 reading of its first byte. `i` is always a char
                // boundary here: every other branch consumes only ASCII bytes.
                let ch = input[i..].chars().next().expect("byte at i starts a char");
                return Err(LexError::UnexpectedChar { ch, at: i });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_full_query() {
        let toks = lex("SELECT AVG(delay) FROM f WHERE dist >= 150.5 AND c = 'AA';").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Number(150.5)));
        assert!(toks.contains(&Token::Str("AA".into())));
        assert_eq!(*toks.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn operators_two_char() {
        let toks = lex("a <= 1 b <> 2 c != 3 d >= 4").unwrap();
        assert!(toks.contains(&Token::Le));
        assert_eq!(toks.iter().filter(|t| **t == Token::Ne).count(), 2);
        assert!(toks.contains(&Token::Ge));
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let toks = lex("-3.5 1e-3 +2").unwrap();
        assert_eq!(toks, vec![Token::Number(-3.5), Token::Number(1e-3), Token::Number(2.0)]);
    }

    #[test]
    fn escaped_quote_in_string() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(lex("'abc"), Err(LexError::UnterminatedString { .. })));
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(matches!(lex("a @ b"), Err(LexError::UnexpectedChar { ch: '@', .. })));
    }
}
