//! SQL tokenizer.

use crate::error::SqlError;

/// One lexical token with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// Byte offset in the input.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword or identifier (stored uppercased for keywords matching;
    /// original case preserved separately for identifiers).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// String literal (quotes stripped, '' unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// Most tokens [`tokenize`] reserves up front (2.5 MiB of `Token`s).
const MAX_RESERVED_TOKENS: usize = 1 << 16;

/// Tokenize an SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let b = input.as_bytes();
    // Sized from the input: a VALUES list, the densest common text, spends
    // about three bytes per token, so one allocation holds a 1,000-row
    // INSERT's tokens instead of a doubling chain. The cap keeps a large
    // statement that is mostly a comment or a string literal from
    // reserving 20 bytes of tokens per input byte; past it, the vector
    // grows as needed.
    let mut out = Vec::with_capacity((input.len() / 2 + 1).min(MAX_RESERVED_TOKENS));
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if i + 1 < b.len() && b[i + 1] == b'-' => {
                // Line comment.
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b',' => push1(&mut out, TokenKind::Comma, &mut i, start),
            b'(' => push1(&mut out, TokenKind::LParen, &mut i, start),
            b')' => push1(&mut out, TokenKind::RParen, &mut i, start),
            b'.' if i + 1 >= b.len() || !b[i + 1].is_ascii_digit() => {
                push1(&mut out, TokenKind::Dot, &mut i, start)
            }
            b'*' => push1(&mut out, TokenKind::Star, &mut i, start),
            b'+' => push1(&mut out, TokenKind::Plus, &mut i, start),
            b'-' => push1(&mut out, TokenKind::Minus, &mut i, start),
            b'/' => push1(&mut out, TokenKind::Slash, &mut i, start),
            b'=' => push1(&mut out, TokenKind::Eq, &mut i, start),
            b'!' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Token {
                    kind: TokenKind::Ne,
                    offset: start,
                });
                i += 2;
            }
            b'<' => {
                let (kind, w) = match b.get(i + 1) {
                    Some(b'=') => (TokenKind::Le, 2),
                    Some(b'>') => (TokenKind::Ne, 2),
                    _ => (TokenKind::Lt, 1),
                };
                out.push(Token {
                    kind,
                    offset: start,
                });
                i += w;
            }
            b'>' => {
                let (kind, w) = match b.get(i + 1) {
                    Some(b'=') => (TokenKind::Ge, 2),
                    _ => (TokenKind::Gt, 1),
                };
                out.push(Token {
                    kind,
                    offset: start,
                });
                i += w;
            }
            b'\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match b.get(i) {
                        None => {
                            return Err(SqlError::Lex {
                                reason: "unterminated string literal".into(),
                                offset: start,
                            })
                        }
                        Some(b'\'') if b.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch as char);
                            i += 1;
                        }
                    }
                }
                out.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
            }
            b'0'..=b'9' | b'.' => {
                while i < b.len()
                    && (b[i].is_ascii_digit()
                        || b[i] == b'.'
                        || b[i] == b'e'
                        || b[i] == b'E'
                        || ((b[i] == b'+' || b[i] == b'-')
                            && i > start
                            && (b[i - 1] == b'e' || b[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &input[start..i];
                let v: f64 = text.parse().map_err(|_| SqlError::Lex {
                    reason: format!("bad number {text:?}"),
                    offset: start,
                })?;
                out.push(Token {
                    kind: TokenKind::Number(v),
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'"' => {
                if c == b'"' {
                    // Quoted identifier.
                    i += 1;
                    let istart = i;
                    while i < b.len() && b[i] != b'"' {
                        i += 1;
                    }
                    if i >= b.len() {
                        return Err(SqlError::Lex {
                            reason: "unterminated quoted identifier".into(),
                            offset: start,
                        });
                    }
                    let name = input[istart..i].to_string();
                    i += 1;
                    out.push(Token {
                        kind: TokenKind::Ident(name),
                        offset: start,
                    });
                } else {
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Ident(input[start..i].to_string()),
                        offset: start,
                    });
                }
            }
            other => {
                return Err(SqlError::Lex {
                    reason: format!("unexpected character {:?}", other as char),
                    offset: start,
                })
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(out)
}

fn push1(out: &mut Vec<Token>, kind: TokenKind, i: &mut usize, offset: usize) {
    out.push(Token { kind, offset });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_select() {
        let k = kinds("SELECT x, y FROM points WHERE z >= 1.5");
        assert_eq!(k[0], TokenKind::Ident("SELECT".into()));
        assert_eq!(k[1], TokenKind::Ident("x".into()));
        assert_eq!(k[2], TokenKind::Comma);
        assert!(k.contains(&TokenKind::Ge));
        assert!(k.contains(&TokenKind::Number(1.5)));
        assert_eq!(*k.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn large_comments_and_strings_reserve_capped_tokens() {
        let bulk = "x".repeat(4 << 20);
        for sql in [format!("SELECT 1 -- {bulk}"), format!("SELECT '{bulk}'")] {
            let toks = tokenize(&sql).unwrap();
            assert!(toks.len() <= 3, "{} tokens", toks.len());
            assert!(
                toks.capacity() <= MAX_RESERVED_TOKENS,
                "{}",
                toks.capacity()
            );
        }
    }

    #[test]
    fn operators() {
        let k = kinds("a <> b != c <= d >= e < f > g = h");
        let ops: Vec<_> = k
            .iter()
            .filter(|t| {
                matches!(
                    t,
                    TokenKind::Ne
                        | TokenKind::Le
                        | TokenKind::Ge
                        | TokenKind::Lt
                        | TokenKind::Gt
                        | TokenKind::Eq
                )
            })
            .collect();
        assert_eq!(ops.len(), 7);
    }

    #[test]
    fn strings_with_escapes() {
        let k = kinds("name = 'O''Brien road'");
        assert!(k.contains(&TokenKind::Str("O'Brien road".into())));
        assert!(matches!(
            tokenize("'unterminated").unwrap_err(),
            SqlError::Lex { .. }
        ));
    }

    #[test]
    fn numbers() {
        let k = kinds("1 2.5 .75 1e3 2.5e-2");
        let nums: Vec<f64> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Number(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec![1.0, 2.5, 0.75, 1000.0, 0.025]);
    }

    #[test]
    fn qualified_names_and_star() {
        let k = kinds("SELECT p.x, COUNT(*) FROM t p");
        assert!(k.contains(&TokenKind::Dot));
        assert!(k.contains(&TokenKind::Star));
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("SELECT 1 -- trailing comment\n, 2");
        let nums = k
            .iter()
            .filter(|t| matches!(t, TokenKind::Number(_)))
            .count();
        assert_eq!(nums, 2);
    }

    #[test]
    fn quoted_identifiers() {
        let k = kinds("\"weird name\"");
        assert_eq!(k[0], TokenKind::Ident("weird name".into()));
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("SELECT  x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 8);
    }

    #[test]
    fn bad_character() {
        assert!(matches!(
            tokenize("a ; b").unwrap_err(),
            SqlError::Lex { .. }
        ));
    }
}
