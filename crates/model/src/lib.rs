#![warn(missing_docs)]

//! # tmql-model — the TM complex object data model
//!
//! This crate implements the data model of the TM database specification
//! language as described in Section 3 of Steenhagen, Apers & Blanken,
//! *Optimization of Nested Queries in a Complex Object Model* (EDBT 1994):
//!
//! * arbitrarily nested values built from the **tuple**, **set**, **list**,
//!   and **variant** type constructors over basic types
//!   ([`Value`], [`Record`]);
//! * the corresponding type language ([`Ty`]) with structural typing;
//! * **set semantics**: sets never contain duplicates ("Sets do not contain
//!   duplicates", Section 3.1) — enforced by representing a set as one
//!   sorted, duplicate-free slice ([`SetValue`]) over the total order on
//!   [`Value`].
//!
//! A deliberately included oddity is [`Value::Null`]: TM itself has **no**
//! NULL — "in a complex object model we do not have to represent the empty
//! set: the empty set is part of the model" (Section 6). NULL exists here
//! solely so that the *relational* baselines the paper compares against
//! (Ganski–Wong outerjoin unnesting) can be expressed and measured.

pub mod error;
pub mod hash;
pub mod name;
pub mod record;
pub mod set;
pub mod setops;
pub mod types;
pub mod value;

pub use error::ModelError;
pub use hash::RecordSet;
pub use record::Record;
pub use set::SetValue;
pub use types::Ty;
pub use value::{CmpOp, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
