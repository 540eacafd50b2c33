//! Tokenizer for VAQ-SQL.
//!
//! Keywords are case-insensitive; identifiers keep their spelling; string
//! literals use single quotes with `''` as the escape for a quote. Every
//! token carries its byte offset for caret diagnostics.

use vaq_types::{Result, VaqError};

/// A token kind plus its payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Keyword or identifier (uppercased keywords are matched by the
    /// parser; the original spelling is preserved here).
    Ident(String),
    /// `'string literal'`.
    Str(String),
    /// Unsigned integer literal.
    Num(u64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// End of input.
    Eof,
}

/// A token with its source offset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token.
    pub(crate) tok: Tok,
    /// Byte offset in the source string.
    pub(crate) offset: usize,
}

/// Tokenizes the whole input (errors carry the byte offset).
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // SQL line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token {
                    tok: Tok::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    tok: Tok::RParen,
                    offset: i,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    tok: Tok::Comma,
                    offset: i,
                });
                i += 1;
            }
            '.' => {
                out.push(Token {
                    tok: Tok::Dot,
                    offset: i,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    tok: Tok::Eq,
                    offset: i,
                });
                i += 1;
            }
            '\'' => {
                let start = i;
                let mut s = String::new();
                // Copy each run between quotes whole: a quote is one ASCII
                // byte, so every run boundary is a char boundary.
                loop {
                    let run = i + 1;
                    let Some(len) = src[run..].find('\'') else {
                        return Err(VaqError::Parse {
                            message: "unterminated string literal".into(),
                            offset: start,
                        });
                    };
                    s.push_str(&src[run..run + len]);
                    i = run + len + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    // `''` stands for one quote.
                    s.push('\'');
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    offset: start,
                });
            }
            '0'..='9' => {
                let start = i;
                let mut v: u64 = 0;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    v = v
                        .checked_mul(10)
                        .and_then(|x| x.checked_add(u64::from(bytes[i] - b'0')))
                        .ok_or(VaqError::Parse {
                            message: "integer literal overflows u64".into(),
                            offset: start,
                        })?;
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Num(v),
                    offset: start,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(src[start..i].to_string()),
                    offset: start,
                });
            }
            _ => {
                let other = src[i..].chars().next().unwrap_or(c);
                return Err(VaqError::Parse {
                    message: format!("unexpected character {other:?}"),
                    offset: i,
                });
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        offset: src.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT act = 'jump', 5 (x.y)"),
            vec![
                Tok::Ident("SELECT".into()),
                Tok::Ident("act".into()),
                Tok::Eq,
                Tok::Str("jump".into()),
                Tok::Comma,
                Tok::Num(5),
                Tok::LParen,
                Tok::Ident("x".into()),
                Tok::Dot,
                Tok::Ident("y".into()),
                Tok::RParen,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn string_escape() {
        assert_eq!(kinds("'it''s'"), vec![Tok::Str("it's".into()), Tok::Eof]);
    }

    #[test]
    fn multi_byte_literals_and_characters_stay_whole() {
        assert_eq!(
            kinds("'café' 'naïve ''ü''' ''"),
            vec![
                Tok::Str("café".into()),
                Tok::Str("naïve 'ü'".into()),
                Tok::Str(String::new()),
                Tok::Eof
            ]
        );
        let err = tokenize("x é").unwrap_err();
        assert!(err.to_string().contains("'é'"), "{err}");
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("SELECT -- the select keyword\n x"),
            vec![
                Tok::Ident("SELECT".into()),
                Tok::Ident("x".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors_with_offset() {
        let err = tokenize("WHERE act = 'oops").unwrap_err();
        match err {
            VaqError::Parse { offset, .. } => assert_eq!(offset, 12),
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn bad_character_reported() {
        let err = tokenize("SELECT #").unwrap_err();
        assert!(err.to_string().contains('#'));
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("AB CD").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
    }
}
