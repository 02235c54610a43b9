#![warn(missing_docs)]

//! # tmql-translate — lowering TM SFW expressions into the algebra
//!
//! Produces the *canonical translated shape* that the unnesting optimizer
//! in `tmql-core` pattern-matches (its Section 9 "formal algorithm to
//! translate general SFW-query blocks of TM into the algebra"):
//!
//! * every SFW block becomes `Map F (Select P (FROM-plan))`;
//! * every (correlated or constant) subquery in the WHERE or SELECT clause
//!   is pulled out into an `Plan::Apply` binding a fresh label — i.e.
//!   translation gives every nested query its **nested-loop semantics**
//!   first, and optimization is then a semantics-preserving rewrite of the
//!   `Apply`s;
//! * `FROM` items over set-valued attributes (`FROM d.emps e`) become μ
//!   (`Plan::Unnest`) over the outer rows — these are the operands the
//!   paper says not to flatten (Section 3.2);
//! * top-level `UNNEST(SELECT (SELECT …))` becomes the plan-level μ shape
//!   that `tmql-core`'s Section 5 collapse rule recognizes.

pub mod lower;

pub use lower::{translate_query, TranslateError};
