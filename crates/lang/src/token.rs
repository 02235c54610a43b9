//! Tokens and source positions.

use std::fmt;

/// Byte offset span within the query source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Span {
    /// Construct a span.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// 1-based (line, column) of the span start within `source`.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, c) in source.char_indices() {
            if i >= self.start {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// Keywords of the language (case-insensitive in source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is the keyword it names
pub(crate) enum Keyword {
    Select,
    From,
    Where,
    And,
    Or,
    Not,
    In,
    Exists,
    Forall,
    Union,
    Intersect,
    Except,
    Subseteq,
    Subset,
    Superseteq,
    Superset,
    Disjoint,
    Intersects,
    Count,
    Sum,
    Min,
    Max,
    Avg,
    Unnest,
    With,
    True,
    False,
}

/// Every keyword beside its spelling.
pub(crate) const KEYWORDS: &[(&str, Keyword)] = &[
    ("SELECT", Keyword::Select),
    ("FROM", Keyword::From),
    ("WHERE", Keyword::Where),
    ("AND", Keyword::And),
    ("OR", Keyword::Or),
    ("NOT", Keyword::Not),
    ("IN", Keyword::In),
    ("EXISTS", Keyword::Exists),
    ("FORALL", Keyword::Forall),
    ("UNION", Keyword::Union),
    ("INTERSECT", Keyword::Intersect),
    ("EXCEPT", Keyword::Except),
    ("SUBSETEQ", Keyword::Subseteq),
    ("SUBSET", Keyword::Subset),
    ("SUPERSETEQ", Keyword::Superseteq),
    ("SUPERSET", Keyword::Superset),
    ("DISJOINT", Keyword::Disjoint),
    ("INTERSECTS", Keyword::Intersects),
    ("COUNT", Keyword::Count),
    ("SUM", Keyword::Sum),
    ("MIN", Keyword::Min),
    ("MAX", Keyword::Max),
    ("AVG", Keyword::Avg),
    ("UNNEST", Keyword::Unnest),
    ("WITH", Keyword::With),
    ("TRUE", Keyword::True),
    ("FALSE", Keyword::False),
];

impl Keyword {
    /// Parse a keyword from an identifier-like word (case-insensitive).
    pub(crate) fn from_word(w: &str) -> Option<Keyword> {
        let hit = KEYWORDS
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(w));
        hit.map(|&(_, k)| k)
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Keyword.
    Kw(Keyword),
    /// Identifier (variable, attribute, or extension name).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (single- or double-quoted in source).
    Str(String),
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
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// End of input (sentinel).
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Kw(k) => write!(f, "{k:?}"),
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Eq => write!(f, "="),
            Tok::Ne => write!(f, "<>"),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Dot => write!(f, "."),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it came from.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_case_insensitive() {
        assert_eq!(Keyword::from_word("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_word("SubsetEq"), Some(Keyword::Subseteq));
        assert_eq!(Keyword::from_word("dept"), None);
    }

    #[test]
    fn line_col() {
        let src = "SELECT d\nFROM DEPT d";
        let sp = Span::new(9, 13);
        assert_eq!(sp.line_col(src), (2, 1));
        assert_eq!(Span::new(0, 6).line_col(src), (1, 1));
        assert_eq!(Span::new(7, 8).line_col(src), (1, 8));
    }
}
