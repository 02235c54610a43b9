//! The hand-written lexer.

use crate::parser::ParseError;
use crate::token::{Keyword, Span, Tok, Token};

/// Tokenize a query string. Comments run from `--` to end of line.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push(&mut out, Tok::LParen, i, &mut i),
            ')' => push(&mut out, Tok::RParen, i, &mut i),
            '{' => push(&mut out, Tok::LBrace, i, &mut i),
            '}' => push(&mut out, Tok::RBrace, i, &mut i),
            ',' => push(&mut out, Tok::Comma, i, &mut i),
            '.' => push(&mut out, Tok::Dot, i, &mut i),
            '+' => push(&mut out, Tok::Plus, i, &mut i),
            '-' => push(&mut out, Tok::Minus, i, &mut i),
            '*' => push(&mut out, Tok::Star, i, &mut i),
            '/' => push(&mut out, Tok::Slash, i, &mut i),
            '=' => push(&mut out, Tok::Eq, i, &mut i),
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        tok: Tok::Le,
                        span: Span::new(i, i + 2),
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token {
                        tok: Tok::Ne,
                        span: Span::new(i, i + 2),
                    });
                    i += 2;
                } else {
                    push(&mut out, Tok::Lt, i, &mut i);
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        tok: Tok::Ge,
                        span: Span::new(i, i + 2),
                    });
                    i += 2;
                } else {
                    push(&mut out, Tok::Gt, i, &mut i);
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    tok: Tok::Ne,
                    span: Span::new(i, i + 2),
                });
                i += 2;
            }
            '\'' | '"' => {
                let start = i;
                // The quotes are ASCII, so the bytes between them are whole
                // characters: the literal is that slice of the source.
                let Some(len) = bytes[start + 1..].iter().position(|&b| b == bytes[start]) else {
                    return Err(ParseError::new(
                        format!("unterminated string starting with {c}"),
                        Span::new(start, start + 1),
                    ));
                };
                i = start + 1 + len + 1;
                out.push(Token {
                    tok: Tok::Str(src[start + 1..i - 1].to_string()),
                    span: Span::new(start, i),
                });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let is_float = i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &src[start..i];
                    let val: f64 = text.parse().map_err(|_| {
                        ParseError::new(format!("bad float literal `{text}`"), Span::new(start, i))
                    })?;
                    out.push(Token {
                        tok: Tok::Float(val),
                        span: Span::new(start, i),
                    });
                } else {
                    let text = &src[start..i];
                    let val: i64 = text.parse().map_err(|_| {
                        ParseError::new(
                            format!("integer literal `{text}` out of range"),
                            Span::new(start, i),
                        )
                    })?;
                    out.push(Token {
                        tok: Tok::Int(val),
                        span: Span::new(start, i),
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                if word.starts_with("__") {
                    return Err(ParseError::new(
                        format!("identifiers starting with `__` are reserved: `{word}`"),
                        Span::new(start, i),
                    ));
                }
                let tok = match Keyword::from_word(word) {
                    Some(k) => Tok::Kw(k),
                    None => Tok::Ident(word.to_string()),
                };
                out.push(Token {
                    tok,
                    span: Span::new(start, i),
                });
            }
            _ => {
                // `c` is only the first byte of a character outside ASCII.
                let other = src[i..].chars().next().unwrap_or(c);
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    Span::new(i, i + other.len_utf8()),
                ));
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span::new(src.len(), src.len()),
    });
    Ok(out)
}

fn push(out: &mut Vec<Token>, tok: Tok, at: usize, i: &mut usize) {
    out.push(Token {
        tok,
        span: Span::new(at, at + 1),
    });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_q1_fragment() {
        let t = toks("SELECT d FROM DEPT d WHERE d.name = 'CS'");
        assert_eq!(
            t,
            vec![
                Tok::Kw(Keyword::Select),
                Tok::Ident("d".into()),
                Tok::Kw(Keyword::From),
                Tok::Ident("DEPT".into()),
                Tok::Ident("d".into()),
                Tok::Kw(Keyword::Where),
                Tok::Ident("d".into()),
                Tok::Dot,
                Tok::Ident("name".into()),
                Tok::Eq,
                Tok::Str("CS".into()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn numbers_and_operators() {
        let t = toks("1 2.5 <= >= <> != { } + - * /");
        assert_eq!(
            t,
            vec![
                Tok::Int(1),
                Tok::Float(2.5),
                Tok::Le,
                Tok::Ge,
                Tok::Ne,
                Tok::Ne,
                Tok::LBrace,
                Tok::RBrace,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = toks("SELECT -- the result\n 1");
        assert_eq!(t, vec![Tok::Kw(Keyword::Select), Tok::Int(1), Tok::Eof]);
    }

    #[test]
    fn path_after_int_not_float() {
        // `1.x` should lex as Int Dot Ident, not a float.
        let t = toks("1.x");
        assert_eq!(
            t,
            vec![Tok::Int(1), Tok::Dot, Tok::Ident("x".into()), Tok::Eof]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("'open").is_err());
        assert!(lex("a § b").is_err());
        assert!(lex("__reserved").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn string_literals_are_the_source_between_their_quotes() {
        // One `char` per *byte* made 'café' the five characters "cafÃ©".
        let t = toks("'café' '日本語' \"ß\" '' 'it\"s' \"it's\"");
        let strs = ["café", "日本語", "ß", "", "it\"s", "it's"];
        let want: Vec<Tok> = strs.iter().map(|s| Tok::Str(s.to_string())).collect();
        assert_eq!(t[..6], want[..]);
        // Spans are byte offsets, quotes included.
        let tokens = lex("x = '日本' AND").unwrap();
        assert_eq!(tokens[2].span, Span::new(4, 12));
        assert_eq!(tokens[3].tok, Tok::Kw(Keyword::And));
        let err = lex("'日本").unwrap_err();
        assert_eq!(err.span, Span::new(0, 1));
    }

    #[test]
    fn a_character_outside_ascii_is_reported_whole() {
        for (src, ch, at) in [("a § b", '§', 2), ("x = 日", '日', 4), ("𝔸", '𝔸', 0)] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.message, format!("unexpected character `{ch}`"));
            assert_eq!(err.span, Span::new(at, at + ch.len_utf8()), "{src}");
        }
        // Inside a comment it is skipped with the rest of the line.
        assert_eq!(toks("1 -- § 日本\n 2"), toks("1 2"));
    }

    proptest::proptest! {
        /// A literal over an alphabet of 1- to 4-byte characters and the
        /// other quote lexes to itself, under either quote.
        #[test]
        fn generated_literals_lex_to_themselves(
            body in "[a-zé ß日本𝔸∅]{0,12}",
            inner_quote in proptest::prelude::any::<bool>(),
        ) {
            for (quote, other) in [('\'', '"'), ('"', '\'')] {
                let body = match inner_quote {
                    true => format!("{body}{other}{body}"),
                    false => body.clone(),
                };
                let src = format!("x = {quote}{body}{quote} AND y");
                let tokens = lex(&src).unwrap();
                proptest::prop_assert_eq!(&tokens[2].tok, &Tok::Str(body.clone()), "{}", src);
                proptest::prop_assert_eq!(tokens[2].span, Span::new(4, 4 + body.len() + 2));
                proptest::prop_assert_eq!(tokens.len(), 6, "{}", src);
            }
        }
    }

    #[test]
    fn spans_track_source() {
        let tokens = lex("SELECT\n  d").unwrap();
        let d = &tokens[1];
        assert_eq!(d.span.line_col("SELECT\n  d"), (2, 3));
    }
}
