#![warn(missing_docs)]

//! # tmql-lang — the TM SELECT-FROM-WHERE query language
//!
//! An ASCII front end for the TM expression fragment the paper works with
//! (Section 3): orthogonal SFW blocks (subqueries may appear in the SELECT
//! clause, the WHERE clause, and as operands), set-valued attributes and
//! path expressions, quantifiers, aggregates, and set comparisons.
//!
//! The paper's mathematical operators are spelled as keywords:
//!
//! | paper | tmql | | paper | tmql |
//! |-------|------|-|-------|------|
//! | `∈`   | `IN` | | `⊆` | `SUBSETEQ` |
//! | `∉`   | `NOT IN` | | `⊂` | `SUBSET` |
//! | `∩ = ∅` | `DISJOINT` | | `⊇` | `SUPERSETEQ` |
//! | `∩ ≠ ∅` | `INTERSECTS` | | `⊃` | `SUPERSET` |
//! | `∃v ∈ s (p)` | `EXISTS v IN s (p)` | | `∀` | `FORALL v IN s (p)` |
//!
//! Query Q1 of the paper, in tmql syntax:
//!
//! ```text
//! SELECT d
//! FROM DEPT d
//! WHERE (s = d.address.street, c = d.address.city)
//!       IN (SELECT (s = e.address.street, c = e.address.city)
//!           FROM d.emps e)
//! ```
//!
//! The pipeline is `lex` → [`parse`](parser::parse_query) →
//! [`bind + typecheck`](typecheck::check_query); lowering to the algebra
//! lives in `tmql-translate`.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod token;
pub mod typecheck;

pub use ast::{Expr, FromItem};
pub use parser::{parse_query, ParseError, MAX_CHAIN_LINKS, MAX_QUERY_NESTING};
pub use typecheck::{check_query, TypeError};
