//! Class, sort, and schema definitions.
//!
//! Mirrors the paper's declarations (Section 3.2):
//!
//! ```text
//! CLASS Employee WITH EXTENSION EMP
//! ATTRIBUTES
//!   name     : STRING,
//!   address  : Address,
//!   sal      : INT,
//!   children : P (name : STRING, age : INT)
//! END Employee
//! ```
//!
//! A [`Schema`] collects class and sort definitions, resolves sort / class
//! references inside attribute types, and exposes each class's **extension**
//! (the named set of its instances, e.g. `EMP`) as a table type.

use crate::error::ModelError;
use crate::types::Ty;
use crate::Result;

/// One attribute of a class or sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name.
    pub name: String,
    /// Attribute type (may reference sorts/classes before resolution).
    pub ty: Ty,
}

impl AttrDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: Ty) -> AttrDef {
        AttrDef {
            name: name.into(),
            ty,
        }
    }
}

/// A TM class with a named extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// Class name, e.g. `Employee`.
    pub name: String,
    /// Extension name, e.g. `EMP` — the identifier queries range over.
    pub extension: String,
    /// Attribute list.
    pub attributes: Vec<AttrDef>,
}

impl ClassDef {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        extension: impl Into<String>,
        attributes: Vec<AttrDef>,
    ) -> ClassDef {
        ClassDef {
            name: name.into(),
            extension: extension.into(),
            attributes,
        }
    }

    /// The tuple type of one instance of this class.
    pub(crate) fn instance_ty(&self) -> Ty {
        Ty::Tuple(
            self.attributes
                .iter()
                .map(|a| (a.name.clone(), a.ty.clone()))
                .collect(),
        )
    }

    /// The type of the class extension: a set of instance tuples.
    pub fn extension_ty(&self) -> Ty {
        Ty::Set(Box::new(self.instance_ty()))
    }
}

/// A TM sort: a named reusable type, e.g. `SORT Address`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortDef {
    /// Sort name.
    pub name: String,
    /// Underlying type.
    pub ty: Ty,
}

/// A database schema: classes + sorts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    classes: Vec<ClassDef>,
    sorts: Vec<SortDef>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Register a sort; rejects duplicate names.
    pub fn add_sort(&mut self, sort: SortDef) -> Result<()> {
        if self.sorts.iter().any(|s| s.name == sort.name) {
            return Err(ModelError::SchemaError(format!(
                "sort `{}` already defined",
                sort.name
            )));
        }
        self.sorts.push(sort);
        Ok(())
    }

    /// Register a class; rejects duplicate class or extension names.
    pub fn add_class(&mut self, class: ClassDef) -> Result<()> {
        if self.classes.iter().any(|c| c.name == class.name) {
            return Err(ModelError::SchemaError(format!(
                "class `{}` already defined",
                class.name
            )));
        }
        if self.classes.iter().any(|c| c.extension == class.extension) {
            return Err(ModelError::SchemaError(format!(
                "extension `{}` already defined",
                class.extension
            )));
        }
        self.classes.push(class);
        Ok(())
    }

    /// Look up a class by class name.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Look up a class by its extension name (how queries reference it).
    pub fn class_by_extension(&self, extension: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.extension == extension)
    }

    /// Look up a sort.
    pub fn sort(&self, name: &str) -> Option<&SortDef> {
        self.sorts.iter().find(|s| s.name == name)
    }

    /// All classes in declaration order.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// All sorts in declaration order (the persistent catalog serializes
    /// them alongside the classes).
    pub fn sorts(&self) -> &[SortDef] {
        &self.sorts
    }

    /// Resolve sort and class references inside a type:
    /// * `Ty::Class(n)` where `n` names a **sort** → the sort's type;
    /// * `Ty::Class(n)` where `n` names a **class** → the class's instance
    ///   tuple type (classes as attribute types denote their instances,
    ///   "class names may be used in type specifications", Section 3.1);
    /// * containers resolve recursively.
    pub fn resolve(&self, ty: &Ty) -> Result<Ty> {
        Ok(match ty {
            Ty::Class(n) => {
                if let Some(s) = self.sort(n) {
                    self.resolve(&s.ty)?
                } else if let Some(c) = self.class(n) {
                    // Resolve the class's own attribute types too, but guard
                    // against direct self-reference blowing the stack by
                    // leaving a recursive class reference opaque.
                    let mut fields = Vec::with_capacity(c.attributes.len());
                    for a in &c.attributes {
                        let t = if mentions_class(&a.ty, n) {
                            a.ty.clone()
                        } else {
                            self.resolve(&a.ty)?
                        };
                        fields.push((a.name.clone(), t));
                    }
                    Ty::Tuple(fields)
                } else {
                    return Err(ModelError::SchemaError(format!(
                        "unknown sort or class `{n}`"
                    )));
                }
            }
            Ty::Set(t) => Ty::Set(Box::new(self.resolve(t)?)),
            Ty::List(t) => Ty::List(Box::new(self.resolve(t)?)),
            Ty::Tuple(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for (l, t) in fs {
                    out.push((l.clone(), self.resolve(t)?));
                }
                Ty::Tuple(out)
            }
            Ty::Variant(alts) => {
                let mut out = Vec::with_capacity(alts.len());
                for (l, t) in alts {
                    out.push((l.clone(), self.resolve(t)?));
                }
                Ty::Variant(out)
            }
            basic => basic.clone(),
        })
    }

    /// The fully resolved extension (table) type of a class.
    pub fn extension_ty(&self, extension: &str) -> Result<Ty> {
        let class = self
            .class_by_extension(extension)
            .ok_or_else(|| ModelError::SchemaError(format!("unknown extension `{extension}`")))?;
        self.resolve(&class.extension_ty())
    }
}

fn mentions_class(ty: &Ty, name: &str) -> bool {
    match ty {
        Ty::Class(n) => n == name,
        Ty::Set(t) | Ty::List(t) => mentions_class(t, name),
        Ty::Tuple(fs) | Ty::Variant(fs) => fs.iter().any(|(_, t)| mentions_class(t, name)),
        _ => false,
    }
}

/// The paper's running example schema (Section 3.2): classes `Employee`
/// (extension `EMP`) and `Department` (extension `DEPT`), and sort
/// `Address`.
pub fn paper_schema() -> Result<Schema> {
    let mut schema = Schema::new();
    schema.add_sort(SortDef {
        name: "Address".into(),
        ty: Ty::Tuple(vec![
            ("street".into(), Ty::Str),
            ("nr".into(), Ty::Str),
            ("city".into(), Ty::Str),
        ]),
    })?;
    schema.add_class(ClassDef::new(
        "Employee",
        "EMP",
        vec![
            AttrDef::new("name", Ty::Str),
            AttrDef::new("address", Ty::Class("Address".into())),
            AttrDef::new("sal", Ty::Int),
            AttrDef::new(
                "children",
                Ty::Set(Box::new(Ty::Tuple(vec![
                    ("name".into(), Ty::Str),
                    ("age".into(), Ty::Int),
                ]))),
            ),
        ],
    ))?;
    schema.add_class(ClassDef::new(
        "Department",
        "DEPT",
        vec![
            AttrDef::new("name", Ty::Str),
            AttrDef::new("address", Ty::Class("Address".into())),
            AttrDef::new("emps", Ty::Set(Box::new(Ty::Class("Employee".into())))),
        ],
    ))?;
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schema_resolves() {
        let s = paper_schema().unwrap();
        let dept = s.extension_ty("DEPT").unwrap();
        // DEPT : P (name, address-tuple, emps : P employee-tuple)
        let Ty::Set(inner) = dept else {
            panic!("extension must be a set")
        };
        let Ty::Tuple(fields) = *inner else {
            panic!("instances are tuples")
        };
        let addr = &fields.iter().find(|(l, _)| l == "address").unwrap().1;
        assert_eq!(
            addr,
            &Ty::Tuple(vec![
                ("street".into(), Ty::Str),
                ("nr".into(), Ty::Str),
                ("city".into(), Ty::Str),
            ])
        );
        let emps = &fields.iter().find(|(l, _)| l == "emps").unwrap().1;
        assert!(matches!(emps, Ty::Set(t) if matches!(&**t, Ty::Tuple(_))));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let mut s = paper_schema().unwrap();
        assert!(s
            .add_class(ClassDef::new("Employee", "EMP2", vec![]))
            .is_err());
        assert!(s
            .add_class(ClassDef::new("Employee2", "EMP", vec![]))
            .is_err());
        assert!(s
            .add_sort(SortDef {
                name: "Address".into(),
                ty: Ty::Str
            })
            .is_err());
    }

    #[test]
    fn unknown_extension_errors() {
        let s = paper_schema().unwrap();
        assert!(s.extension_ty("NOPE").is_err());
        assert!(s.resolve(&Ty::Class("Mystery".into())).is_err());
    }

    #[test]
    fn recursive_class_reference_does_not_loop() {
        let mut s = Schema::new();
        s.add_class(ClassDef::new(
            "Node",
            "NODES",
            vec![
                AttrDef::new("id", Ty::Int),
                AttrDef::new("next", Ty::Set(Box::new(Ty::Class("Node".into())))),
            ],
        ))
        .unwrap();
        let t = s.extension_ty("NODES").unwrap();
        // The recursive reference stays opaque rather than diverging.
        let shown = t.to_string();
        assert!(shown.contains("Node"), "{shown}");
    }

    #[test]
    fn class_by_extension() {
        let s = paper_schema().unwrap();
        assert_eq!(s.class_by_extension("EMP").unwrap().name, "Employee");
        assert!(s.class_by_extension("EMPX").is_none());
    }
}
