//! Binary persistence of the index ("stored on disk" — paper §2.1).
//!
//! Shard-file format (little-endian, via the `bytes` crate) — unchanged
//! since v1, so files written before term interning still load:
//!
//! ```text
//! magic  u64  = 0x5757_5449_4458_0001            ("WWTIDX" v1)
//! n_docs u32
//! per doc: table_id u32, field_lens 3×u32
//! n_terms u32
//! per term: len u16, utf-8 bytes,
//!           per field: n_postings u32, then (doc u32, tf u32)*
//! ```
//!
//! Terms are written in sorted order (the dictionary's id order), and the
//! sharded layout's `manifest.json` (version 3) carries the **global term
//! dictionary's count and FNV-1a checksum** — the id space every shard's
//! postings are keyed by is rebuilt as the sorted union of the shard
//! vocabularies (exactly what the freeze would have produced) and
//! verified against the digest. Version-2 manifests (which persisted the
//! full vocabulary as JSON) verify against their stored terms, and
//! version-1 manifests (pre-interning) rebuild unverified; both still
//! load byte-identically.
//!
//! Corpus statistics are rebuilt from the postings at load time (df of a
//! term = number of distinct docs across fields), so they are not stored.

use crate::builder::FrozenShard;
use crate::field::Field;
use crate::search::{Posting, Postings, TableIndex};
use bytes::{Buf, BufMut, BytesMut};
use std::io::{Read, Write};
use std::path::Path;
use wwt_model::{TableId, WwtError};

const MAGIC: u64 = 0x5757_5449_4458_0001;

/// Serializes the index into a byte buffer. Fails loudly on a term
/// whose UTF-8 form exceeds the format's `u16` length field — silently
/// truncating one would desynchronize the reader mid-stream and corrupt
/// the whole file.
pub fn to_bytes(index: &TableIndex) -> Result<Vec<u8>, WwtError> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(MAGIC);
    buf.put_u32_le(index.doc_tables.len() as u32);
    for (i, t) in index.doc_tables.iter().enumerate() {
        buf.put_u32_le(t.0);
        for f in Field::ALL {
            buf.put_u32_le(index.field_lens[i][f.dense()]);
        }
    }
    // Ascending id = sorted term order (the dictionary is frozen sorted),
    // reproducing the deterministic layout of the pre-interning format.
    buf.put_u32_le(index.vocab_size() as u32);
    for (id, post) in index.postings.iter().enumerate() {
        let Some(post) = post else { continue };
        let bytes = index.dict.term(wwt_text::TermId(id as u32)).as_bytes();
        let len = u16::try_from(bytes.len()).map_err(|_| {
            WwtError::Invalid(format!(
                "term of {} bytes exceeds the index format's 64 KiB term limit",
                bytes.len()
            ))
        })?;
        buf.put_u16_le(len);
        buf.put_slice(bytes);
        for f in Field::ALL {
            let list = &post.per_field[f.dense()];
            buf.put_u32_le(list.len() as u32);
            for p in list {
                buf.put_u32_le(p.doc);
                buf.put_u32_le(p.tf);
            }
        }
    }
    Ok(buf.to_vec())
}

fn parse_bytes(data: &[u8]) -> Result<FrozenShard, WwtError> {
    let mut buf = data;
    let check = |ok: bool, what: &str| -> Result<(), WwtError> {
        if ok {
            Ok(())
        } else {
            Err(WwtError::Corrupt(format!("index file truncated at {what}")))
        }
    };
    check(buf.remaining() >= 12, "magic")?;
    if buf.get_u64_le() != MAGIC {
        return Err(WwtError::Corrupt("bad index magic".into()));
    }
    let n_docs = buf.get_u32_le() as usize;
    // Each doc row is 16 bytes: a count the rest of the file cannot hold
    // is corruption, not a reason to allocate it.
    check(n_docs <= buf.remaining() / 16, "doc table")?;
    let mut doc_tables = Vec::with_capacity(n_docs);
    let mut field_lens = Vec::with_capacity(n_docs);
    for _ in 0..n_docs {
        check(buf.remaining() >= 16, "doc row")?;
        doc_tables.push(TableId(buf.get_u32_le()));
        let mut lens = [0u32; 3];
        for l in &mut lens {
            *l = buf.get_u32_le();
        }
        field_lens.push(lens);
    }
    check(buf.remaining() >= 4, "term count")?;
    let n_terms = buf.get_u32_le() as usize;
    let mut entries: Vec<(String, Postings)> = Vec::with_capacity(n_terms.min(1 << 20));
    for _ in 0..n_terms {
        check(buf.remaining() >= 2, "term len")?;
        let len = buf.get_u16_le() as usize;
        check(buf.remaining() >= len, "term bytes")?;
        let mut tb = vec![0u8; len];
        buf.copy_to_slice(&mut tb);
        let term = String::from_utf8(tb).map_err(|_| WwtError::Corrupt("non-utf8 term".into()))?;
        let mut post = Postings::default();
        for f in Field::ALL {
            check(buf.remaining() >= 4, "posting len")?;
            let n = buf.get_u32_le() as usize;
            check(buf.remaining() >= n * 8, "posting list")?;
            let list = &mut post.per_field[f.dense()];
            list.reserve(n);
            for _ in 0..n {
                let d = buf.get_u32_le();
                let tf = buf.get_u32_le();
                if d as usize >= n_docs {
                    return Err(WwtError::Corrupt("doc id out of range".into()));
                }
                list.push(Posting {
                    doc: d,
                    tf,
                    sqrt_tf: (tf as f64).sqrt(),
                });
            }
        }
        entries.push((term, post));
    }
    // Files are written in sorted term order; tolerate (and canonicalize)
    // anything else rather than corrupting the positional dictionary.
    if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
    }
    let mut terms = Vec::with_capacity(entries.len());
    let mut dfs = Vec::with_capacity(entries.len());
    let mut postings = Vec::with_capacity(entries.len());
    for (term, mut post) in entries {
        for list in &mut post.per_field {
            list.sort_unstable_by_key(|p| p.doc);
        }
        terms.push(term);
        dfs.push(crate::builder::distinct_docs(&post));
        postings.push(post);
    }
    Ok(FrozenShard {
        terms,
        dfs,
        postings,
        doc_tables,
        field_lens,
    })
}

/// Deserializes an index produced by [`to_bytes`], rebuilding its
/// vocabulary (sorted term order) and statistics from the postings.
pub fn from_bytes(data: &[u8]) -> Result<TableIndex, WwtError> {
    Ok(parse_bytes(data)?.into_index())
}

/// File name of the sharded-layout manifest inside an index directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Version tag written into the manifest; bumped on incompatible layout
/// changes so an old binary fails loudly instead of misreading. Version 2
/// added the persisted term dictionary; version 3 replaced that
/// full-vocabulary JSON array (O(vocabulary) manifest bytes — the PR 5
/// known defect) with a term **count + checksum**: the dictionary is
/// always rebuilt as the sorted union of the shard vocabularies and
/// verified against the digest. Version-1 and version-2 directories
/// still load byte-identically.
pub const MANIFEST_VERSION: u64 = 3;

/// Oldest manifest version this build can still read.
pub const MANIFEST_MIN_VERSION: u64 = 1;

/// Order-sensitive FNV-1a digest of a term dictionary: each term is fed
/// length-prefixed so `["ab","c"]` and `["a","bc"]` cannot collide. The
/// v3 manifest stores this (hex) instead of the terms themselves.
pub fn term_dictionary_checksum<S: AsRef<str>>(terms: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in terms {
        let bytes = t.as_ref().as_bytes();
        feed(&(bytes.len() as u32).to_le_bytes());
        feed(bytes);
    }
    h
}

/// File name of shard `s`'s index inside an index directory.
pub fn shard_file(s: usize) -> String {
    format!("shard-{s:04}.idx")
}

/// Attaches the offending file's path to a load error, preserving the
/// error's type (corrupt stays corrupt, io stays io with its kind).
fn in_file(e: WwtError, path: &Path) -> WwtError {
    match e {
        WwtError::Corrupt(m) => WwtError::Corrupt(format!("{m} in {}", path.display())),
        WwtError::Io(io) => {
            let kind = io.kind();
            WwtError::Io(std::io::Error::new(
                kind,
                format!("{io} ({})", path.display()),
            ))
        }
        other => other,
    }
}

/// Persists a sharded index into `dir` (created if needed): a versioned
/// `manifest.json` naming the layout and carrying the term dictionary's
/// count + checksum, plus one [`save`]-format `.idx` file per shard.
/// [`load_sharded`] reads it back.
pub fn save_sharded(index: &crate::ShardedIndex, dir: &Path) -> Result<(), WwtError> {
    wwt_chaos::io_failpoint(wwt_chaos::PERSIST_SAVE)?;
    std::fs::create_dir_all(dir)?;
    for s in 0..index.n_shards() {
        save(index.shard(s), &dir.join(shard_file(s)))?;
    }
    let terms = index.dict().terms();
    let manifest = wwt_json::Json::obj([
        ("version", wwt_json::Json::from(MANIFEST_VERSION)),
        ("shards", wwt_json::Json::from(index.n_shards())),
        ("term_count", wwt_json::Json::from(terms.len())),
        (
            "term_checksum",
            wwt_json::Json::from(format!("{:016x}", term_dictionary_checksum(terms)).as_str()),
        ),
    ]);
    std::fs::write(dir.join(MANIFEST_FILE), manifest.encode())?;
    Ok(())
}

/// Loads a sharded index persisted by [`save_sharded`]. Per-shard
/// statistics (rebuilt from the postings, as in [`load`]) are merged
/// into one global table shared by every shard, so the reloaded index
/// scores bit-identically to the one that was saved. The term dictionary
/// is always rebuilt as the sorted union of shard vocabularies and then
/// verified against the manifest: count + checksum for version 3, the
/// stored vocabulary for version 2, nothing for version 1 — the same
/// ids every way.
pub fn load_sharded(dir: &Path) -> Result<crate::ShardedIndex, WwtError> {
    wwt_chaos::io_failpoint(wwt_chaos::PERSIST_LOAD)?;
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest_raw =
        std::fs::read_to_string(&manifest_path).map_err(|e| in_file(e.into(), &manifest_path))?;
    let manifest = wwt_json::Json::parse(&manifest_raw).map_err(|e| {
        WwtError::Corrupt(format!(
            "bad index manifest: {e} in {}",
            manifest_path.display()
        ))
    })?;
    let version = manifest
        .get("version")
        .and_then(wwt_json::Json::as_u64)
        .ok_or_else(|| WwtError::Corrupt("index manifest missing \"version\"".into()))?;
    if !(MANIFEST_MIN_VERSION..=MANIFEST_VERSION).contains(&version) {
        return Err(WwtError::Corrupt(format!(
            "index manifest version {version} unsupported \
             (expected {MANIFEST_MIN_VERSION}..={MANIFEST_VERSION})"
        )));
    }
    let n_shards = manifest
        .get("shards")
        .and_then(wwt_json::Json::as_u64)
        .filter(|&n| n >= 1)
        .ok_or_else(|| WwtError::Corrupt("index manifest missing \"shards\" >= 1".into()))?
        as usize;
    let frozen: Vec<FrozenShard> = (0..n_shards)
        .map(|s| {
            let path = dir.join(shard_file(s));
            let mut data = Vec::new();
            // Name the offending shard file in every failure — an
            // operator staring at a corrupt multi-shard directory needs
            // to know *which* artifact to restore.
            (|| -> Result<FrozenShard, WwtError> {
                std::fs::File::open(&path)?.read_to_end(&mut data)?;
                parse_bytes(&data)
            })()
            .map_err(|e| in_file(e, &path))
        })
        .collect::<Result<_, _>>()?;
    let index = crate::builder::assemble_sharded(frozen);
    if version == 2 {
        // The v2 manifest persisted the full dictionary as JSON; it is
        // the layout's id-space contract, so the rebuilt (sorted-union)
        // dictionary must reproduce it exactly.
        let terms = manifest
            .get("terms")
            .and_then(wwt_json::Json::as_arr)
            .ok_or_else(|| WwtError::Corrupt("v2 index manifest missing \"terms\"".into()))?;
        let terms: Vec<&str> = terms
            .iter()
            .map(|t| {
                t.as_str()
                    .ok_or_else(|| WwtError::Corrupt("non-string term in manifest".into()))
            })
            .collect::<Result<_, _>>()?;
        let rebuilt = index.dict().terms();
        if terms.len() != rebuilt.len() || terms.iter().zip(rebuilt).any(|(a, b)| *a != b) {
            return Err(WwtError::Corrupt(format!(
                "manifest term dictionary disagrees with the shard vocabularies in {}",
                dir.display()
            )));
        }
    } else if version >= 3 {
        // The v3 manifest carries the dictionary's count + checksum
        // instead of the vocabulary itself: same consistency guarantee,
        // O(1) manifest bytes.
        let count = manifest
            .get("term_count")
            .and_then(wwt_json::Json::as_u64)
            .ok_or_else(|| WwtError::Corrupt("v3 index manifest missing \"term_count\"".into()))?;
        let checksum = manifest
            .get("term_checksum")
            .and_then(wwt_json::Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| {
                WwtError::Corrupt("v3 index manifest missing hex \"term_checksum\"".into())
            })?;
        let rebuilt = index.dict().terms();
        if count != rebuilt.len() as u64 || checksum != term_dictionary_checksum(rebuilt) {
            return Err(WwtError::Corrupt(format!(
                "manifest term dictionary disagrees with the shard vocabularies in {}",
                dir.display()
            )));
        }
    }
    Ok(index)
}

/// Writes the index to a file.
pub fn save(index: &TableIndex, path: &Path) -> Result<(), WwtError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&to_bytes(index)?)?;
    f.flush()?;
    Ok(())
}

/// Reads an index written by [`save`].
pub fn load(path: &Path) -> Result<TableIndex, WwtError> {
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use wwt_model::{ContextSnippet, WebTable};

    fn sample_index() -> TableIndex {
        let mut b = IndexBuilder::new();
        for i in 0..5u32 {
            let t = WebTable::new(
                TableId(i * 2), // non-dense ids on purpose
                "u",
                None,
                vec![vec![format!("header{i}"), "common".into()]],
                vec![vec![format!("val{i}"), "shared".into()]],
                vec![ContextSnippet::new(format!("context {i} words"), 0.5)],
            )
            .unwrap();
            b.add_table(&t);
        }
        b.build()
    }

    #[test]
    fn roundtrip_preserves_search() {
        let idx = sample_index();
        let restored = from_bytes(&to_bytes(&idx).unwrap()).unwrap();
        assert_eq!(restored.n_docs(), idx.n_docs());
        assert_eq!(restored.vocab_size(), idx.vocab_size());
        for probe in ["common", "header3", "val1 shared", "context"] {
            let q = wwt_text::tokenize(probe);
            let a = idx.search(&q, 10);
            let b = restored.search(&q, 10);
            assert_eq!(a.len(), b.len(), "probe {probe}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.table, y.table);
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "score drift, probe {probe}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_bytes_are_stable() {
        // Freezing, serializing and re-serializing must be a fixpoint —
        // the guarantee that re-saving a loaded index never rewrites
        // files.
        let idx = sample_index();
        let bytes = to_bytes(&idx).unwrap();
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(bytes, to_bytes(&restored).unwrap());
    }

    #[test]
    fn roundtrip_preserves_docsets() {
        let idx = sample_index();
        let restored = from_bytes(&to_bytes(&idx).unwrap()).unwrap();
        let toks = vec!["shared".to_string()];
        assert_eq!(
            *idx.docs_with_all(&toks, &[Field::Content]),
            *restored.docs_with_all(&toks, &[Field::Content])
        );
    }

    #[test]
    fn giant_token_no_longer_blocks_save() {
        // A 100 KiB "word" used to reach the dictionary intact and trip
        // to_bytes' u16 term-length guard; the tokenizer now caps tokens,
        // so indexing and serializing such a table must succeed.
        let giant = "x".repeat(100 * 1024);
        let t = WebTable::new(
            TableId(1),
            "u",
            None,
            vec![vec![giant.clone(), "header".into()]],
            vec![vec!["val".into(), giant]],
            vec![],
        )
        .unwrap();
        let mut b = IndexBuilder::new();
        b.add_table(&t);
        let idx = b.build();
        let bytes = to_bytes(&idx).expect("capped tokens fit the u16 term-length field");
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.n_docs(), idx.n_docs());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = to_bytes(&sample_index()).unwrap();
        data[0] ^= 0xff;
        assert!(matches!(from_bytes(&data), Err(WwtError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected_not_panic() {
        let data = to_bytes(&sample_index()).unwrap();
        for cut in [0, 4, 11, data.len() / 2, data.len() - 1] {
            let r = from_bytes(&data[..cut]);
            assert!(r.is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn file_roundtrip() {
        let idx = sample_index();
        let dir = std::env::temp_dir().join("wwt_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.idx");
        save(&idx, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored.n_docs(), idx.n_docs());
        std::fs::remove_file(&path).ok();
    }

    fn sample_sharded() -> crate::ShardedIndex {
        let mut b = crate::ShardedIndexBuilder::new(3);
        for i in 0..12u32 {
            let t = WebTable::new(
                TableId(i * 3 + 1),
                "u",
                None,
                vec![vec![format!("header{}", i % 4), "common".into()]],
                vec![vec![format!("val{i}"), "shared".into()]],
                vec![ContextSnippet::new(format!("context {} words", i % 3), 0.5)],
            )
            .unwrap();
            b.add_table(&t);
        }
        b.build()
    }

    #[test]
    fn sharded_roundtrip_preserves_search_and_stats() {
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_idx_{}", std::process::id()));
        save_sharded(&idx, &dir).unwrap();
        let restored = load_sharded(&dir).unwrap();
        assert_eq!(restored.n_shards(), idx.n_shards());
        assert_eq!(restored.n_docs(), idx.n_docs());
        assert_eq!(restored.stats().n_docs(), idx.stats().n_docs());
        assert_eq!(restored.dict().terms(), idx.dict().terms());
        for probe in ["common", "header3", "val1 shared", "context"] {
            let toks = wwt_text::tokenize(probe);
            let a = idx.search(&toks, 10);
            let b = restored.search(&toks, 10);
            assert_eq!(a.len(), b.len(), "probe {probe}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.table, y.table);
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "score drift after reload, probe {probe}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_manifest_without_terms_still_loads_identically() {
        // A PR-4 era directory: same shard files, but a version-1
        // manifest with no "terms". The dictionary must be rebuilt to the
        // same ids and answer the same bytes.
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_v1_{}", std::process::id()));
        save_sharded(&idx, &dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!(r#"{{"version":1,"shards":{}}}"#, idx.n_shards()),
        )
        .unwrap();
        let restored = load_sharded(&dir).unwrap();
        assert_eq!(restored.dict().terms(), idx.dict().terms());
        for probe in ["common", "header2", "context words"] {
            let toks = wwt_text::tokenize(probe);
            let a = idx.search(&toks, 10);
            let b = restored.search(&toks, 10);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.table, y.table);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_manifest_with_full_terms_still_loads_identically() {
        // A PR-5 era directory: same shard files, but a version-2
        // manifest persisting the whole vocabulary as JSON. It must keep
        // loading (and keep being verified against its stored terms).
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_v2_{}", std::process::id()));
        save_sharded(&idx, &dir).unwrap();
        let manifest = wwt_json::Json::obj([
            ("version", wwt_json::Json::from(2u64)),
            ("shards", wwt_json::Json::from(idx.n_shards())),
            (
                "terms",
                wwt_json::Json::arr(idx.dict().terms().iter().map(String::as_str)),
            ),
        ]);
        std::fs::write(dir.join(MANIFEST_FILE), manifest.encode()).unwrap();
        let restored = load_sharded(&dir).unwrap();
        assert_eq!(restored.dict().terms(), idx.dict().terms());
        for probe in ["common", "header2", "context words"] {
            let toks = wwt_text::tokenize(probe);
            let a = idx.search(&toks, 10);
            let b = restored.search(&toks, 10);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.table, y.table);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_manifest_is_count_and_checksum_not_vocabulary() {
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_v3_{}", std::process::id()));
        save_sharded(&idx, &dir).unwrap();
        let raw = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let manifest = wwt_json::Json::parse(&raw).unwrap();
        assert_eq!(
            manifest.get("version").and_then(wwt_json::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            manifest.get("term_count").and_then(wwt_json::Json::as_u64),
            Some(idx.dict().terms().len() as u64)
        );
        assert!(manifest.get("terms").is_none(), "vocabulary not persisted");
        // The manifest no longer grows with the vocabulary.
        assert!(
            raw.len() < 200,
            "v3 manifest should be O(1) bytes, got {}",
            raw.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn term_checksum_is_boundary_sensitive() {
        assert_ne!(
            term_dictionary_checksum(&["ab", "c"]),
            term_dictionary_checksum(&["a", "bc"])
        );
        assert_ne!(
            term_dictionary_checksum(&["a"]),
            term_dictionary_checksum(&["a", "a"])
        );
        assert_eq!(
            term_dictionary_checksum(&["a", "b"]),
            term_dictionary_checksum(&["a", "b"])
        );
    }

    #[test]
    fn sharded_load_rejects_bad_manifests() {
        let dir = std::env::temp_dir().join(format!("wwt_sharded_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Missing manifest: an io error, not a panic.
        assert!(load_sharded(&dir).is_err());
        // Unsupported version.
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version":999,"shards":1}"#).unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // Zero shards.
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version":2,"shards":0}"#).unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // A v2 manifest must carry its dictionary.
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version":2,"shards":1}"#).unwrap();
        save(&sample_index(), &dir.join(shard_file(0))).unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // An unsorted dictionary is corrupt.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"version":2,"shards":1,"terms":["b","a"]}"#,
        )
        .unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // A dictionary missing a shard's term is corrupt.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"version":2,"shards":1,"terms":["common"]}"#,
        )
        .unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // A v3 manifest must carry count + checksum.
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version":3,"shards":1}"#).unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // A v3 count that disagrees with the shard vocabularies is corrupt.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"version":3,"shards":1,"term_count":1,"term_checksum":"00000000deadbeef"}"#,
        )
        .unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // A v3 checksum that disagrees (right count, wrong digest).
        let idx = sample_index();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!(
                r#"{{"version":3,"shards":1,"term_count":{},"term_checksum":"00000000deadbeef"}}"#,
                idx.vocab_size()
            ),
        )
        .unwrap();
        assert!(matches!(load_sharded(&dir), Err(WwtError::Corrupt(_))));
        // Manifest promising more shards than exist on disk.
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version":1,"shards":2}"#).unwrap();
        assert!(load_sharded(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_artifacts_name_the_offending_file() {
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_corrupt_{}", std::process::id()));
        let shard1 = dir.join(shard_file(1));
        let shard1_name = shard1.display().to_string();

        // Truncated shard file on disk: typed Corrupt naming the path.
        save_sharded(&idx, &dir).unwrap();
        let bytes = std::fs::read(&shard1).unwrap();
        std::fs::write(&shard1, &bytes[..bytes.len() / 2]).unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Corrupt(m)) => {
                assert!(m.contains("truncated"), "message: {m}");
                assert!(m.contains(&shard1_name), "message: {m}");
            }
            other => panic!("expected Corrupt for truncation, got {other:?}"),
        }

        // Bit-flipped payload (the doc-count word): the reader
        // desynchronizes → typed Corrupt, same path context.
        save_sharded(&idx, &dir).unwrap();
        let mut bytes = std::fs::read(&shard1).unwrap();
        bytes[11] ^= 0xFF; // high byte of n_docs, past the magic
        std::fs::write(&shard1, &bytes).unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Corrupt(m)) => {
                assert!(m.contains(&shard1_name), "message: {m}");
            }
            other => panic!("expected Corrupt for bit flip, got {other:?}"),
        }

        // Missing shard file: typed Io error still naming the path.
        save_sharded(&idx, &dir).unwrap();
        std::fs::remove_file(&shard1).unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
                assert!(e.to_string().contains(&shard1_name), "message: {e}");
            }
            other => panic!("expected Io for missing shard, got {other:?}"),
        }

        // A v3 term_checksum mismatch names the index directory.
        save_sharded(&idx, &dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!(
                r#"{{"version":3,"shards":{},"term_count":{},"term_checksum":"00000000deadbeef"}}"#,
                idx.n_shards(),
                idx.dict().terms().len()
            ),
        )
        .unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Corrupt(m)) => {
                assert!(m.contains("disagrees"), "message: {m}");
                assert!(m.contains(&dir.display().to_string()), "message: {m}");
            }
            other => panic!("expected Corrupt for checksum mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_index_roundtrip() {
        let idx = IndexBuilder::new().build();
        let restored = from_bytes(&to_bytes(&idx).unwrap()).unwrap();
        assert_eq!(restored.n_docs(), 0);
    }
}
