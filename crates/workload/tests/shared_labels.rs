//! Every table the workload builds stores one label per column: each
//! row has the table's own shape, so its top-level labels are the table's
//! `Arc`s and a stored row pays for its values and not for its names.

use std::sync::Arc;

use tmql_storage::table::int_table;
use tmql_storage::{Catalog, Table};
use tmql_workload::gen::{gen_company, gen_rs, gen_xy, gen_xyz, GenConfig, SkewKind};
use tmql_workload::schemas;

fn assert_shared(table: &Table) {
    let rows = table.mem_rows().expect("generated tables are in memory");
    assert!(!rows.is_empty(), "table `{}` is empty", table.name());
    for row in rows {
        assert!(
            Arc::ptr_eq(row.shape(), table.shape()),
            "a row of `{}` is not of the table's shape",
            table.name()
        );
        for (label, _) in row.fields() {
            let column = table.shape().labels().iter().find(|c| **c == *label);
            let shared = column.is_some_and(|c| Arc::ptr_eq(c, label));
            assert!(
                shared,
                "`{}`.{label} is not the table's label",
                table.name()
            );
        }
    }
}

fn assert_catalog_shared(cat: &Catalog) {
    for name in cat.table_names() {
        assert_shared(cat.table(name).expect("a listed table"));
    }
}

#[test]
fn every_stored_row_spells_its_labels_with_its_tables() {
    assert_shared(&int_table("T", &["a", "b"], &[&[1, 2], &[3, 4]]));
    let skewed = GenConfig {
        skew: SkewKind::Zipf(1.1),
        ..GenConfig::sized(40)
    };
    for cfg in [GenConfig::sized(40), skewed] {
        for cat in [gen_rs(&cfg), gen_xy(&cfg), gen_xyz(&cfg), gen_company(&cfg)] {
            assert_catalog_shared(&cat);
        }
    }
    for cat in [
        schemas::table1_catalog(),
        schemas::count_bug_catalog(),
        schemas::company_catalog(),
        schemas::section8_catalog(),
    ] {
        assert_catalog_shared(&cat);
    }
}
