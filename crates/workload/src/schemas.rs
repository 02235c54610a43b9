//! The paper's fixed fixtures.

use tmql_model::{Ty, Value};
use tmql_storage::{table::int_table, Catalog, Table};

use crate::gen::{put, register};

/// Table 1's operands: `X(e, d) = {(1,1),(2,2),(3,3)}` and
/// `Y(a, b) = {(1,1),(2,1),(3,3)}` — `x = (2,2)` is the dangling tuple
/// whose nest join result is `(2, 2, ∅)`.
pub fn table1_catalog() -> Catalog {
    let x = int_table("X", &["e", "d"], &[&[1, 1], &[2, 2], &[3, 3]]);
    let y = int_table("Y", &["a", "b"], &[&[1, 1], &[2, 1], &[3, 3]]);
    register([x, y])
}

/// Section 2's relational schema `R(A, B, C)`, `S(C, D)`, with a COUNT-bug
/// trigger built in: `R` rows with `b = 0` have no matching `S.c`.
pub fn count_bug_catalog() -> Catalog {
    let r = int_table(
        "R",
        &["a", "b", "c"],
        // (a, b, c): b counts expected matches; c is the join column.
        &[
            &[1, 2, 10], // two S rows with c = 10
            &[2, 1, 20], // one S row with c = 20
            &[3, 0, 99], // dangling: COUNT = 0 — the bug row
            &[4, 5, 10], // wrong count: excluded everywhere
        ],
    );
    let s = int_table("S", &["c", "d"], &[&[10, 100], &[10, 101], &[20, 200]]);
    register([r, s])
}

/// The Employee/Department database of Section 3.2 (classes `Employee`
/// with extension `EMP`, `Department` with extension `DEPT`, sort
/// `Address`), with a small deterministic population in which some
/// employees share street/city with their department (satisfying Q1) and
/// some departments have no employees in their city (exercising empty
/// nested results in Q2).
pub fn company_catalog() -> Catalog {
    let address = |street: &str, nr: i64, city: &str| {
        Value::tuple([
            ("street", Value::str(street)),
            ("nr", Value::str(nr.to_string())),
            ("city", Value::str(city)),
        ])
    };
    let child =
        |name: &str, age: i64| Value::tuple([("name", Value::str(name)), ("age", Value::Int(age))]);

    let emp_ty = vec![
        ("name".to_string(), Ty::Str),
        (
            "address".to_string(),
            Ty::Tuple(vec![
                ("street".into(), Ty::Str),
                ("nr".into(), Ty::Str),
                ("city".into(), Ty::Str),
            ]),
        ),
        ("sal".to_string(), Ty::Int),
        (
            "children".to_string(),
            Ty::Set(Box::new(Ty::Tuple(vec![
                ("name".into(), Ty::Str),
                ("age".into(), Ty::Int),
            ]))),
        ),
    ];
    let mut emp = Table::new("EMP", emp_ty);
    let employees: Vec<(&str, Value, i64, Vec<Value>)> = vec![
        (
            "ann",
            address("Drienerlolaan", 5, "Enschede"),
            5200,
            vec![child("bo", 7)],
        ),
        (
            "bob",
            address("Hengelosestraat", 12, "Enschede"),
            4100,
            vec![],
        ),
        (
            "carla",
            address("Laan van NOI", 3, "Den Haag"),
            6100,
            vec![child("di", 12), child("ed", 9)],
        ),
        (
            "dirk",
            address("Drienerlolaan", 7, "Enschede"),
            3900,
            vec![],
        ),
        (
            "eva",
            address("Marktstraat", 1, "Hengelo"),
            4700,
            vec![child("fe", 2)],
        ),
    ];
    for (name, addr, sal, children) in employees {
        let row = [
            Value::str(name),
            addr,
            Value::Int(sal),
            Value::set(children),
        ];
        put(&mut emp, row);
    }

    // Departments embed their employees' tuples in the set-valued `emps`
    // attribute ("set-valued attributes are stored with the objects
    // themselves", Section 3.2).
    let emp_rows = emp.mem_rows().unwrap_or_default();
    let emp_by_name = |n: &str| {
        Value::Tuple(
            emp_rows
                .iter()
                .find(|r| r.find("name") == Some(&Value::str(n)))
                .expect("employee exists")
                .clone(),
        )
    };

    let dept_ty = vec![
        ("name".to_string(), Ty::Str),
        (
            "address".to_string(),
            Ty::Tuple(vec![
                ("street".into(), Ty::Str),
                ("nr".into(), Ty::Str),
                ("city".into(), Ty::Str),
            ]),
        ),
        ("emps".to_string(), Ty::Set(Box::new(Ty::Any))),
    ];
    let mut dept = Table::new("DEPT", dept_ty);
    let depts: Vec<(&str, Value, Vec<&str>)> = vec![
        // Q1 hit: ann lives on Drienerlolaan in Enschede, same as CS.
        (
            "cs",
            address("Drienerlolaan", 99, "Enschede"),
            vec!["ann", "bob"],
        ),
        // No employee shares this street.
        ("math", address("Hallenweg", 2, "Enschede"), vec!["dirk"]),
        // Q2 empty: no employee lives in Amsterdam.
        (
            "sales",
            address("Damrak", 1, "Amsterdam"),
            vec!["carla", "eva"],
        ),
    ];
    for (name, addr, members) in depts {
        let emps = Value::set(members.into_iter().map(emp_by_name));
        put(&mut dept, [Value::str(name), addr, emps]);
    }

    register([emp, dept])
}

/// Section 8's three-table chain: `X(a: P INT, b)`, `Y(a, b, c: P INT, d)`,
/// `Z(c, d)`, deterministic small population with danglers at both levels.
pub fn section8_catalog() -> Catalog {
    let set_of = |items: &[i64]| Value::set(items.iter().copied().map(Value::Int));

    let mut x = Table::new(
        "X",
        vec![
            ("a".into(), Ty::Set(Box::new(Ty::Int))),
            ("b".into(), Ty::Int),
        ],
    );
    for (a, b) in [(vec![1, 2], 1), (vec![], 2), (vec![1], 7), (vec![3], 1)] {
        put(&mut x, [set_of(&a), Value::Int(b)]);
    }

    let mut y = Table::new(
        "Y",
        vec![
            ("a".into(), Ty::Int),
            ("b".into(), Ty::Int),
            ("c".into(), Ty::Set(Box::new(Ty::Int))),
            ("d".into(), Ty::Int),
        ],
    );
    for (a, b, c, d) in [
        (1, 1, vec![10], 5),     // c ⊆ {z.c | z.d = 5} = {10, 11} ✓
        (2, 1, vec![10, 12], 5), // 12 ∉ {10, 11} ✗
        (3, 1, vec![], 6),       // ∅ ⊆ anything ✓ (even with no Z match)
        (4, 2, vec![11], 5),     // different x.b group
    ] {
        put(
            &mut y,
            [Value::Int(a), Value::Int(b), set_of(&c), Value::Int(d)],
        );
    }

    let z = int_table("Z", &["c", "d"], &[&[10, 5], &[11, 5], &[20, 9]]);
    register([x, y, z])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let cat = table1_catalog();
        assert_eq!(cat.table("X").unwrap().len(), 3);
        assert_eq!(cat.table("Y").unwrap().len(), 3);
    }

    #[test]
    fn count_bug_catalog_has_dangling_row() {
        let cat = count_bug_catalog();
        let r = cat.table("R").unwrap();
        let dangling: Vec<_> = r
            .rows_vec()
            .unwrap()
            .into_iter()
            .filter(|row| row.get("c").unwrap() == &Value::Int(99))
            .collect();
        assert_eq!(dangling.len(), 1);
        assert_eq!(dangling[0].get("b").unwrap(), &Value::Int(0));
    }

    #[test]
    fn company_catalog_valid() {
        let cat = company_catalog();
        assert_eq!(cat.table("EMP").unwrap().len(), 5);
        assert_eq!(cat.table("DEPT").unwrap().len(), 3);
        // Departments embed employee tuples.
        let dept = cat.table("DEPT").unwrap();
        let cs = &dept.rows_vec().unwrap()[0];
        let emps = cs.get("emps").unwrap().as_set().unwrap();
        assert_eq!(emps.len(), 2);
    }

    #[test]
    fn section8_catalog_valid() {
        let cat = section8_catalog();
        assert_eq!(cat.table("X").unwrap().len(), 4);
        assert_eq!(cat.table("Y").unwrap().len(), 4);
        assert_eq!(cat.table("Z").unwrap().len(), 3);
    }
}
