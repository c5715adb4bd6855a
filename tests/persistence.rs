//! Integration tests for on-disk persistence: index and table store
//! round-trip through files and keep answering queries identically.

use wwt::html::extract_tables;
use wwt::index::{persist, IndexBuilder, TableStore};
use wwt::text::tokenize;

fn sample_tables() -> Vec<wwt::model::WebTable> {
    let html = "<html><head><title>currencies</title></head><body>\
        <p>countries and currency</p><table>\
        <tr><th>Country</th><th>Currency</th></tr>\
        <tr><td>India</td><td>Rupee</td></tr>\
        <tr><td>Japan</td><td>Yen</td></tr></table>\
        <table><tr><th>City</th><th>Population</th></tr>\
        <tr><td>Mumbai</td><td>20411000</td></tr>\
        <tr><td>Delhi</td><td>16787941</td></tr></table></body></html>";
    extract_tables(html, "test://doc", 0)
}

#[test]
fn index_file_roundtrip_preserves_ranking() {
    let tables = sample_tables();
    let mut b = IndexBuilder::new();
    for t in &tables {
        b.add_table(t);
    }
    let index = b.build();
    let dir = std::env::temp_dir().join("wwt_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.idx");
    persist::save(&index, &path).unwrap();
    let restored = persist::load(&path).unwrap();
    for probe in ["country currency", "city population", "india"] {
        let q = tokenize(probe);
        let a = index.search(&q, 10);
        let b = restored.search(&q, 10);
        assert_eq!(a.len(), b.len(), "probe {probe}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.table, y.table);
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn store_file_roundtrip_preserves_tables() {
    let tables = sample_tables();
    let store = TableStore::from_tables(tables.clone());
    let dir = std::env::temp_dir().join("wwt_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.jsonl");
    store.save(&path).unwrap();
    let restored = TableStore::load(&path).unwrap();
    assert_eq!(restored.len(), tables.len());
    for t in &tables {
        let r = restored.get(t.id).unwrap();
        assert_eq!(r, t);
    }
    std::fs::remove_file(&path).ok();
}

/// The stricter parser (four-hex-digit `\u`, RFC 8259 numbers) must still
/// read everything the encoder writes: every `tables.jsonl` line of a
/// generated corpus and every journaled table payload.
#[test]
fn generated_store_and_journal_lines_parse_strictly() {
    use wwt::corpus::{workload, CorpusConfig, CorpusGenerator};
    use wwt::engine::{bind_corpus, WwtConfig};
    use wwt::index::{table_to_json, FsyncPolicy, Journal, JournalRecord};
    use wwt::json::Json;

    let specs: Vec<_> = workload().into_iter().take(4).collect();
    let generated = CorpusGenerator::new(CorpusConfig {
        scale: 0.05,
        ..CorpusConfig::default()
    })
    .generate_for(&specs);
    let engine = bind_corpus(&generated, WwtConfig::default()).engine;
    let dir = std::env::temp_dir().join(format!("wwt_strict_parse_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    engine.save_to_dir(&dir).unwrap();

    let store = std::fs::read_to_string(dir.join("tables.jsonl")).unwrap();
    let mut lines = 0;
    for (no, line) in store.lines().enumerate() {
        Json::parse(line).unwrap_or_else(|e| panic!("tables.jsonl line {}: {e}", no + 1));
        lines += 1;
    }
    assert_eq!(lines, engine.n_tables());

    let wal = dir.join("journal.wal");
    let (mut journal, _) = Journal::open(&wal, FsyncPolicy::Never).unwrap();
    let records: Vec<JournalRecord> = engine
        .store()
        .iter()
        .map(|t| JournalRecord::AddTable(table_to_json(t)))
        .collect();
    journal.append_all(&records).unwrap();
    drop(journal);
    let (_, replay) = Journal::open(&wal, FsyncPolicy::Never).unwrap();
    assert_eq!(replay.records, records);
    for record in &replay.records {
        if let JournalRecord::AddTable(line) = record {
            Json::parse(line).unwrap_or_else(|e| panic!("journal payload {line:?}: {e}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
