//! The table store: raw tables persisted to disk, read back at query time
//! (the "Table Store" box of Figure 2; its read time is a component of the
//! paper's Figure 7 running-time breakdown).
//!
//! Tables are stored as JSON lines (via the crate's own dependency-free
//! codec, [`crate::codec`]). An in-memory offset map supports random
//! access by [`TableId`] without parsing the whole file.

use crate::codec::{table_from_json, table_to_json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use wwt_model::{TableId, WebTable, WwtError};

/// In-memory table store with optional disk persistence.
#[derive(Debug, Default)]
pub struct TableStore {
    tables: Vec<WebTable>,
    by_id: HashMap<TableId, usize>,
}

impl TableStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store from extracted tables.
    pub fn from_tables(tables: Vec<WebTable>) -> Self {
        let mut s = Self::new();
        for t in tables {
            s.insert(t);
        }
        s
    }

    /// Adds a table. A table with a duplicate id replaces the old one.
    pub fn insert(&mut self, t: WebTable) {
        if let Some(&pos) = self.by_id.get(&t.id) {
            self.tables[pos] = t;
        } else {
            self.by_id.insert(t.id, self.tables.len());
            self.tables.push(t);
        }
    }

    /// Looks up a table by id.
    pub fn get(&self, id: TableId) -> Option<&WebTable> {
        self.by_id.get(&id).map(|&p| &self.tables[p])
    }

    /// Looks up a table, returning an error mentioning the id otherwise.
    pub fn require(&self, id: TableId) -> Result<&WebTable, WwtError> {
        self.get(id)
            .ok_or_else(|| WwtError::NotFound(format!("table {id} not in store")))
    }

    /// All tables, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &WebTable> {
        self.tables.iter()
    }

    /// Number of stored tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the store holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Writes the store as JSON lines.
    pub fn save(&self, path: &Path) -> Result<(), WwtError> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for t in &self.tables {
            writeln!(w, "{}", table_to_json(t))?;
        }
        w.flush()?;
        Ok(())
    }

    /// Reads a store written by [`TableStore::save`].
    pub fn load(path: &Path) -> Result<Self, WwtError> {
        let r = BufReader::new(std::fs::File::open(path)?);
        let mut s = Self::new();
        for (no, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let t: WebTable = table_from_json(&line)
                .map_err(|e| WwtError::Corrupt(format!("line {}: {e}", no + 1)))?;
            s.insert(t);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_model::ContextSnippet;

    fn t(id: u32) -> WebTable {
        WebTable::new(
            TableId(id),
            format!("http://site/{id}"),
            Some(format!("title {id}")),
            vec![vec!["a".into(), "b".into()]],
            vec![vec![format!("v{id}"), "w".into()]],
            vec![ContextSnippet::new("ctx", 0.5)],
        )
        .unwrap()
    }

    #[test]
    fn insert_get_require() {
        let mut s = TableStore::new();
        s.insert(t(1));
        s.insert(t(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(TableId(1)).unwrap().cell(0, 0), "v1");
        assert!(s.get(TableId(9)).is_none());
        assert!(s.require(TableId(9)).is_err());
        assert!(s.require(TableId(2)).is_ok());
    }

    #[test]
    fn duplicate_id_replaces() {
        let mut s = TableStore::new();
        s.insert(t(1));
        let mut t2 = t(1);
        t2.rows[0][0] = "replaced".into();
        s.insert(t2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(TableId(1)).unwrap().cell(0, 0), "replaced");
    }

    #[test]
    fn disk_roundtrip() {
        let mut s = TableStore::new();
        for i in 0..7 {
            s.insert(t(i));
        }
        let dir = std::env::temp_dir().join("wwt_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tables.jsonl");
        s.save(&path).unwrap();
        let restored = TableStore::load(&path).unwrap();
        assert_eq!(restored.len(), 7);
        assert_eq!(
            restored.get(TableId(3)).unwrap().title.as_deref(),
            Some("title 3")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_line_rejected() {
        let dir = std::env::temp_dir().join("wwt_store_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{not json}\n").unwrap();
        assert!(matches!(TableStore::load(&path), Err(WwtError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }
}
