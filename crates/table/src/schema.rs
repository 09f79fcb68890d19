//! Column metadata: fields and schemas.

use crate::error::{Result, TableError};
use crate::value::DataType;
use std::collections::HashMap;
use std::fmt;

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// A field named `name` of type `data_type`.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type }
    }

    /// Shorthand for the ubiquitous dirty-CSV case.
    pub fn text(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Text)
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)
    }
}

/// An ordered collection of uniquely-named fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, field) in fields.iter().enumerate() {
            if index.insert(field.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn(field.name.clone()));
            }
        }
        Ok(Schema { fields, index })
    }

    /// Builds an all-text schema from column names (the CSV ingest case).
    pub fn all_text<S: AsRef<str>>(names: &[S]) -> Result<Self> {
        Schema::new(names.iter().map(|n| Field::text(n.as_ref())).collect())
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True for the zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.index.get(name).copied().ok_or_else(|| TableError::UnknownColumn(name.to_string()))
    }

    /// True when a column named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// The field at `index`.
    pub fn field(&self, index: usize) -> Result<&Field> {
        self.fields
            .get(index)
            .ok_or(TableError::ColumnIndexOutOfBounds { index, width: self.fields.len() })
    }

    /// The field named `name`.
    pub fn field_by_name(&self, name: &str) -> Result<&Field> {
        self.field(self.index_of(name)?)
    }

    /// Column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self.fields.iter().map(|x| x.to_string()).collect();
        write!(f, "({})", cols.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicates() {
        let err = Schema::new(vec![Field::text("a"), Field::text("a")]).unwrap_err();
        assert_eq!(err, TableError::DuplicateColumn("a".into()));
    }

    #[test]
    fn index_lookup() {
        let schema = Schema::all_text(&["a", "b", "c"]).unwrap();
        assert_eq!(schema.index_of("b").unwrap(), 1);
        assert!(schema.index_of("z").is_err());
        assert!(schema.contains("c"));
        assert_eq!(schema.len(), 3);
    }

    #[test]
    fn field_display() {
        assert_eq!(Field::new("age", DataType::Int).to_string(), "age BIGINT");
        let schema = Schema::all_text(&["x"]).unwrap();
        assert_eq!(schema.to_string(), "(x VARCHAR)");
    }

    #[test]
    fn out_of_bounds_field() {
        let schema = Schema::all_text(&["a"]).unwrap();
        assert!(schema.field(3).is_err());
    }
}
