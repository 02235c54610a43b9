//! Parameterized random database generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tmql_model::{Record, Shape, Ty, Value};
use tmql_storage::{Catalog, Table};

use crate::zipf::Zipf;

/// Join-key distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkewKind {
    /// Uniform over the key domain.
    Uniform,
    /// Zipf with the given exponent.
    Zipf(f64),
}

/// Generator configuration shared by the experiment workloads.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Outer table cardinality.
    pub outer: usize,
    /// Inner table cardinality.
    pub inner: usize,
    /// Fraction of outer tuples with **no** inner match — the dangling
    /// tuples whose treatment distinguishes Kim / Ganski–Wong / nest join.
    pub dangling_fraction: f64,
    /// Maximum size of set-valued attributes.
    pub max_set: usize,
    /// Key distribution on the inner side.
    pub skew: SkewKind,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            outer: 1000,
            inner: 1000,
            dangling_fraction: 0.25,
            max_set: 4,
            skew: SkewKind::Uniform,
            seed: 42,
        }
    }
}

impl GenConfig {
    /// Scale both tables to `n`.
    pub fn sized(n: usize) -> GenConfig {
        GenConfig {
            outer: n,
            inner: n,
            ..GenConfig::default()
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// The number of distinct join keys that have inner matches.
    fn matched_keys(&self) -> usize {
        // Key domain = outer size; the first `matched` keys get inner rows,
        // outer rows beyond that are dangling.
        let matched = ((1.0 - self.dangling_fraction) * self.outer as f64).round() as usize;
        matched.max(1)
    }
}

/// Generate the Section 2 relational pair `R(a, b, c)`, `S(c, d)`:
/// `R.c`/`S.c` is the correlation key; `R.b` holds the **true** count of
/// matching `S` rows for half of `R` (so the COUNT-bug query selects them)
/// and an off-by-one count for the rest.
pub fn gen_rs(cfg: &GenConfig) -> Catalog {
    let mut rng = cfg.rng();
    let matched = cfg.matched_keys();

    // Build S first so R.b can be the exact count.
    let zipf = match cfg.skew {
        SkewKind::Uniform => None,
        SkewKind::Zipf(theta) => Some(Zipf::new(matched, theta)),
    };
    let mut s_counts = vec![0i64; cfg.outer.max(1)];
    let mut s = Table::new("S", vec![("c".into(), Ty::Int), ("d".into(), Ty::Int)]);
    let mut inserted = 0usize;
    let mut d_val = 0i64;
    while inserted < cfg.inner {
        let key = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..matched),
        };
        d_val += 1;
        if put(&mut s, [Value::Int(key as i64), Value::Int(d_val)]) {
            s_counts[key] += 1;
            inserted += 1;
        }
    }

    let mut r = Table::new(
        "R",
        vec![
            ("a".into(), Ty::Int),
            ("b".into(), Ty::Int),
            ("c".into(), Ty::Int),
        ],
    );
    for (i, &true_count) in s_counts.iter().enumerate().take(cfg.outer) {
        let key = i as i64; // keys ≥ matched are dangling (no S rows)
                            // Half of the rows get the true count (including 0 for dangling
                            // rows — the bug triggers); half get a wrong count.
        let b = if i % 2 == 0 {
            true_count
        } else {
            true_count + 1
        };
        put(
            &mut r,
            [Value::Int(i as i64), Value::Int(b), Value::Int(key)],
        );
    }

    register([r, s])
}

/// Generate the complex-object pair `X(a: P INT, b, n)`, `Y(b, a)` used by
/// the Table 2 / SUBSETEQ experiments: `X.b`/`Y.b` is the correlation key,
/// `X.a` is a set-valued attribute drawn from the same domain as `Y.a`
/// (so ⊆/∩ predicates have non-trivial selectivity), and `X.n` is an
/// integer for the atomic rows.
pub fn gen_xy(cfg: &GenConfig) -> Catalog {
    let mut rng = cfg.rng();
    let matched = cfg.matched_keys();
    let domain = (cfg.max_set * 4).max(8) as i64;

    let mut x = Table::new(
        "X",
        vec![
            ("a".into(), Ty::Set(Box::new(Ty::Int))),
            ("b".into(), Ty::Int),
            ("n".into(), Ty::Int),
        ],
    );
    let mut i = 0usize;
    while x.len() < cfg.outer {
        let set_size = rng.gen_range(0..=cfg.max_set);
        let set = Value::set((0..set_size).map(|_| Value::Int(rng.gen_range(0..domain))));
        let key = i as i64;
        put(
            &mut x,
            [set, Value::Int(key), Value::Int(rng.gen_range(0..domain))],
        );
        i += 1;
    }

    let zipf = match cfg.skew {
        SkewKind::Uniform => None,
        SkewKind::Zipf(theta) => Some(Zipf::new(matched, theta)),
    };
    let mut y = Table::new("Y", vec![("b".into(), Ty::Int), ("a".into(), Ty::Int)]);
    let mut inserted = 0usize;
    let mut guard = 0usize;
    while inserted < cfg.inner && guard < cfg.inner * 20 {
        guard += 1;
        let key = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..matched),
        };
        let row = [Value::Int(key as i64), Value::Int(rng.gen_range(0..domain))];
        if put(&mut y, row) {
            inserted += 1;
        }
    }

    register([x, y])
}

/// Generate the Section 8 chain `X(a: P INT, b)`, `Y(a, b, c: P INT, d)`,
/// `Z(c, d)` at the given scale: `X.b ↔ Y.b` and `Y.d ↔ Z.d` are the
/// correlation keys with the configured dangling fraction at both levels.
pub fn gen_xyz(cfg: &GenConfig) -> Catalog {
    let mut rng = cfg.rng();
    let matched = cfg.matched_keys();
    let domain = (cfg.max_set * 4).max(8) as i64;

    let mut x = Table::new(
        "X",
        vec![
            ("a".into(), Ty::Set(Box::new(Ty::Int))),
            ("b".into(), Ty::Int),
        ],
    );
    for i in 0..cfg.outer {
        let size = rng.gen_range(0..=cfg.max_set);
        let a = Value::set((0..size).map(|_| Value::Int(rng.gen_range(0..domain))));
        put(&mut x, [a, Value::Int(i as i64)]);
    }

    let y_matched = ((1.0 - cfg.dangling_fraction) * cfg.inner as f64)
        .round()
        .max(1.0) as usize;
    let mut y = Table::new(
        "Y",
        vec![
            ("a".into(), Ty::Int),
            ("b".into(), Ty::Int),
            ("c".into(), Ty::Set(Box::new(Ty::Int))),
            ("d".into(), Ty::Int),
        ],
    );
    for i in 0..cfg.inner {
        let size = rng.gen_range(0..=cfg.max_set);
        let a = Value::Int(rng.gen_range(0..domain));
        let b = Value::Int(rng.gen_range(0..matched) as i64);
        let c = Value::set((0..size).map(|_| Value::Int(rng.gen_range(0..domain))));
        put(&mut y, [a, b, c, Value::Int(i as i64)]);
    }

    let mut z = Table::new("Z", vec![("c".into(), Ty::Int), ("d".into(), Ty::Int)]);
    let mut inserted = 0usize;
    let mut guard = 0usize;
    while inserted < cfg.inner && guard < cfg.inner * 20 {
        guard += 1;
        let c = Value::Int(rng.gen_range(0..domain));
        let d = Value::Int(rng.gen_range(0..y_matched) as i64);
        if put(&mut z, [c, d]) {
            inserted += 1;
        }
    }

    register([x, y, z])
}

/// Generate a scaled Employee/Department database (for the Q2-style
/// SELECT-nesting experiments): `emps` departments × `fanout` employees,
/// with `dangling_fraction` of departments in cities without employees.
pub fn gen_company(cfg: &GenConfig) -> Catalog {
    let mut rng = cfg.rng();
    let n_dept = cfg.outer.max(1);
    let n_emp = cfg.inner.max(1);
    let matched_cities = ((1.0 - cfg.dangling_fraction) * n_dept as f64)
        .round()
        .max(1.0) as usize;

    let addr_ty = Ty::Tuple(vec![
        ("street".into(), Ty::Str),
        ("nr".into(), Ty::Str),
        ("city".into(), Ty::Str),
    ]);
    // Every address is a row of one shape.
    let addr = Shape::new(["street", "nr", "city"]).expect("distinct labels");
    let mk_addr = |street: String, nr: i64, city: String| {
        let values = [street, nr.to_string(), city].map(Value::str);
        Value::Tuple(Record::shaped(addr.clone(), values))
    };

    let mut emp = Table::new(
        "EMP",
        vec![
            ("name".into(), Ty::Str),
            ("address".into(), addr_ty.clone()),
            ("sal".into(), Ty::Int),
        ],
    );
    for i in 0..n_emp {
        let city = format!("city{}", rng.gen_range(0..matched_cities));
        let address = mk_addr(format!("street{}", rng.gen_range(0..50)), i as i64, city);
        let sal = Value::Int(rng.gen_range(2000..8000));
        put(&mut emp, [Value::str(format!("emp{i}")), address, sal]);
    }

    let mut dept = Table::new(
        "DEPT",
        vec![("name".into(), Ty::Str), ("address".into(), addr_ty)],
    );
    for i in 0..n_dept {
        // Departments beyond `matched_cities` sit in employee-less cities.
        let city = format!("city{i}");
        let address = mk_addr(format!("street{}", rng.gen_range(0..50)), i as i64, city);
        put(&mut dept, [Value::str(format!("dept{i}")), address]);
    }

    register([emp, dept])
}

/// Insert one row given as its values in column order
/// ([`Table::insert_values`]); true iff it was new. A generator's rows
/// match their table by construction.
pub(crate) fn put<const N: usize>(table: &mut Table, values: [Value; N]) -> bool {
    table
        .insert_values(values)
        .expect("a generated row matches its table")
}

/// A transient catalog of `tables`: tables a generator built, with
/// distinct names.
pub(crate) fn register(tables: impl IntoIterator<Item = Table>) -> Catalog {
    let mut cat = Catalog::new();
    for table in tables {
        cat.register(table).expect("a fresh table name");
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rs_counts_are_exact_for_even_rows() {
        let cfg = GenConfig {
            outer: 40,
            inner: 60,
            dangling_fraction: 0.5,
            ..Default::default()
        };
        let cat = gen_rs(&cfg);
        let r = cat.table("R").unwrap();
        let s = cat.table("S").unwrap();
        assert_eq!(r.len(), 40);
        assert_eq!(s.len(), 60);
        // Even rows carry the true count of S matches.
        let s = s.rows_vec().unwrap();
        for row in r.rows_vec().unwrap().iter().take(10) {
            let a = row.get("a").unwrap().as_int().unwrap();
            if a % 2 == 0 {
                let c = row.get("c").unwrap();
                let b = row.get("b").unwrap().as_int().unwrap();
                let actual = s.iter().filter(|srow| srow.get("c").unwrap() == c).count() as i64;
                assert_eq!(b, actual, "row a={a}");
            }
        }
    }

    #[test]
    fn dangling_fraction_respected_in_rs() {
        let cfg = GenConfig {
            outer: 100,
            inner: 200,
            dangling_fraction: 0.3,
            ..Default::default()
        };
        let cat = gen_rs(&cfg);
        let s = cat.table("S").unwrap();
        let max_key = s
            .rows_vec()
            .unwrap()
            .iter()
            .map(|r| r.get("c").unwrap().as_int().unwrap())
            .max()
            .unwrap();
        assert!(
            max_key < 70,
            "inner keys must avoid the dangling range, got {max_key}"
        );
    }

    #[test]
    fn xy_has_set_valued_attribute() {
        let cat = gen_xy(&GenConfig::sized(30));
        let x = cat.table("X").unwrap();
        assert!(x
            .rows_vec()
            .unwrap()
            .iter()
            .all(|r| matches!(r.get("a").unwrap(), Value::Set(_))));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen_xy(&GenConfig::sized(25));
        let b = gen_xy(&GenConfig::sized(25));
        assert!(a
            .table("X")
            .unwrap()
            .same_contents(b.table("X").unwrap())
            .unwrap());
        assert!(a
            .table("Y")
            .unwrap()
            .same_contents(b.table("Y").unwrap())
            .unwrap());
    }

    #[test]
    fn xyz_scales() {
        let cat = gen_xyz(&GenConfig {
            outer: 20,
            inner: 30,
            ..Default::default()
        });
        assert_eq!(cat.table("X").unwrap().len(), 20);
        assert_eq!(cat.table("Y").unwrap().len(), 30);
        assert!(!cat.table("Z").unwrap().is_empty());
    }

    #[test]
    fn company_scales_and_danglers_exist() {
        let cfg = GenConfig {
            outer: 10,
            inner: 40,
            dangling_fraction: 0.4,
            ..Default::default()
        };
        let cat = gen_company(&cfg);
        assert_eq!(cat.table("DEPT").unwrap().len(), 10);
        assert_eq!(cat.table("EMP").unwrap().len(), 40);
    }

    #[test]
    fn zipf_skew_supported() {
        let cfg = GenConfig {
            skew: SkewKind::Zipf(1.1),
            ..GenConfig::sized(50)
        };
        let cat = gen_rs(&cfg);
        assert_eq!(cat.table("R").unwrap().len(), 50);
    }
}
