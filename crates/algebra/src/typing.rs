//! Where row types of stored tables come from.
//!
//! The language front end's type checker (`tmql_lang::check_query`) asks a
//! [`TableTypes`] for the tuple type of each table a statement names; the
//! facade implements it over the storage catalog. The trait lives here so
//! that neither `tmql-lang` nor this crate depends on storage.

use std::collections::BTreeMap;

use tmql_model::{ModelError, Result, Ty};

/// Source of row types for stored tables; implemented by the storage
/// catalog (kept abstract so `tmql-algebra` does not depend on storage).
pub trait TableTypes {
    /// The tuple type of one row of `table`.
    fn row_ty(&self, table: &str) -> Result<Ty>;
}

/// A [`TableTypes`] backed by a fixed map — convenient for tests.
#[derive(Debug, Default)]
pub struct StaticTables(pub BTreeMap<String, Ty>);

impl TableTypes for StaticTables {
    fn row_ty(&self, table: &str) -> Result<Ty> {
        self.0
            .get(table)
            .cloned()
            .ok_or_else(|| ModelError::SchemaError(format!("unknown table `{table}`")))
    }
}
