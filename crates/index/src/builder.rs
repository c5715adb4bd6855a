//! Building the index from extracted tables (offline pipeline, §2.1).
//!
//! Accumulation is string-keyed (tokens arrive as text); the freeze is
//! **hash-free**: posting entries are sorted by term once, ids are their
//! positions, and document frequencies are derived from the posting
//! lists themselves (df of a term = distinct docs across its field
//! lists), so the statistics table shares the index's sorted id space —
//! no per-document accumulation, no per-term dictionary lookups.

use crate::field::Field;
use crate::search::{Posting, Postings, TableIndex};
use std::collections::HashMap;
use std::sync::Arc;
use wwt_model::{TableId, WebTable};
use wwt_text::{tokenize_each, CorpusStats, TermDict, TermId};

/// One partition frozen to its sorted-term form: the common currency of
/// the single-index freeze, the sharded freeze and the persistence
/// loader.
pub(crate) struct FrozenShard {
    /// Sorted, deduplicated terms.
    pub(crate) terms: Vec<String>,
    /// `df[i]` = distinct docs of `terms[i]` across all fields.
    pub(crate) dfs: Vec<u32>,
    /// Aligned with `terms`; every per-field list doc-ordered.
    pub(crate) postings: Vec<Postings>,
    pub(crate) doc_tables: Vec<TableId>,
    pub(crate) field_lens: Vec<[u32; 3]>,
}

impl FrozenShard {
    /// Freezes into a standalone [`TableIndex`] whose dictionary is this
    /// shard's own sorted vocabulary.
    pub(crate) fn into_index(self) -> TableIndex {
        let n_docs = self.doc_tables.len() as u64;
        let dict = Arc::new(TermDict::from_sorted_terms(self.terms));
        // The statistics share the index's dictionary (one resident
        // vocabulary) — stats ids therefore *are* dictionary ids, so the
        // IDF table is a direct per-id read.
        let stats = Arc::new(CorpusStats::from_shared_dict(
            n_docs,
            Arc::clone(&dict),
            self.dfs,
        ));
        let idf = Arc::new(
            (0..dict.len() as u32)
                .map(|i| stats.idf_id(TermId(i)))
                .collect::<Vec<f64>>(),
        );
        let postings = self
            .postings
            .into_iter()
            .map(|p| Some(Box::new(p)))
            .collect();
        TableIndex::from_interned_parts(
            dict,
            postings,
            self.doc_tables,
            self.field_lens,
            stats,
            idf,
        )
    }

    /// Re-keys this shard's postings onto a global dictionary via a
    /// precomputed id map (`ids[i]` = global id of `terms[i]`).
    fn into_shard_index(
        self,
        ids: &[u32],
        dict: Arc<TermDict>,
        stats: Arc<CorpusStats>,
        idf: Arc<Vec<f64>>,
    ) -> TableIndex {
        let mut postings: Vec<Option<Box<Postings>>> = (0..dict.len()).map(|_| None).collect();
        for (i, post) in self.postings.into_iter().enumerate() {
            postings[ids[i] as usize] = Some(Box::new(post));
        }
        TableIndex::from_interned_parts(
            dict,
            postings,
            self.doc_tables,
            self.field_lens,
            stats,
            idf,
        )
    }
}

/// Merges frozen shards into the global vocabulary pieces: sorted terms,
/// summed dfs, and one id map per shard (`maps[s][i]` = global id of
/// shard `s`'s `terms[i]`). A k-way merge over already sorted lists — no
/// hashing.
fn merge_vocabularies(frozen: &[FrozenShard]) -> (Vec<String>, Vec<u32>, Vec<Vec<u32>>) {
    let mut cursors = vec![0usize; frozen.len()];
    let mut terms: Vec<String> = Vec::new();
    let mut dfs: Vec<u32> = Vec::new();
    let mut maps: Vec<Vec<u32>> = frozen
        .iter()
        .map(|f| Vec::with_capacity(f.terms.len()))
        .collect();
    loop {
        // The lexicographically smallest un-consumed term across shards.
        let mut min: Option<&str> = None;
        for (s, f) in frozen.iter().enumerate() {
            if let Some(t) = f.terms.get(cursors[s]) {
                if min.map(|m| t.as_str() < m).unwrap_or(true) {
                    min = Some(t);
                }
            }
        }
        let Some(min) = min else { break };
        let id = terms.len() as u32;
        let mut df = 0u32;
        let mut owned: Option<String> = None;
        for (s, f) in frozen.iter().enumerate() {
            if f.terms.get(cursors[s]).map(String::as_str) == Some(min) {
                df += f.dfs[cursors[s]];
                maps[s].push(id);
                if owned.is_none() {
                    owned = Some(f.terms[cursors[s]].clone());
                }
                cursors[s] += 1;
            }
        }
        terms.push(owned.expect("min term came from some shard"));
        dfs.push(df);
    }
    (terms, dfs, maps)
}

/// Assembles a [`crate::ShardedIndex`]'s parts from frozen shards:
/// global dictionary, merged statistics, IDF table, and the re-keyed
/// per-shard indexes.
pub(crate) fn assemble_sharded(mut frozen: Vec<FrozenShard>) -> crate::ShardedIndex {
    if frozen.len() == 1 {
        return crate::ShardedIndex::single(frozen.pop().expect("one shard").into_index());
    }
    let (terms, dfs, maps) = merge_vocabularies(&frozen);
    let n_docs: u64 = frozen.iter().map(|f| f.doc_tables.len() as u64).sum();
    let dict = Arc::new(TermDict::from_sorted_terms(terms));
    let stats = Arc::new(CorpusStats::from_shared_dict(
        n_docs,
        Arc::clone(&dict),
        dfs,
    ));
    let idf = Arc::new(
        (0..dict.len() as u32)
            .map(|i| stats.idf_id(TermId(i)))
            .collect::<Vec<f64>>(),
    );
    let shards: Vec<TableIndex> = frozen
        .into_iter()
        .zip(&maps)
        .map(|(f, ids)| {
            f.into_shard_index(ids, Arc::clone(&dict), Arc::clone(&stats), Arc::clone(&idf))
        })
        .collect();
    crate::ShardedIndex::from_shards(shards, dict, stats)
}

/// Distinct documents across a term's three field lists (each
/// doc-ordered): the term's document frequency, derived with a three-way
/// sorted merge instead of a hash set.
pub(crate) fn distinct_docs(post: &Postings) -> u32 {
    let mut cursors = [0usize; 3];
    let mut count = 0u32;
    loop {
        let mut min: Option<u32> = None;
        for (f, &c) in cursors.iter().enumerate() {
            if let Some(p) = post.per_field[f].get(c) {
                min = Some(min.map_or(p.doc, |m: u32| m.min(p.doc)));
            }
        }
        let Some(min) = min else { break };
        count += 1;
        for (f, c) in cursors.iter_mut().enumerate() {
            if post.per_field[f].get(*c).map(|p| p.doc) == Some(min) {
                *c += 1;
            }
        }
    }
    count
}

/// One table tokenized into its three index fields: per field, each
/// distinct token with its term frequency, plus the field's token count.
/// [`IndexBuilder::add_table`] is "tokenize, then [`IndexBuilder::
/// add_doc`]"; the live delta caches these lists so folding segments
/// never re-tokenizes a table.
#[derive(Debug)]
pub(crate) struct DocTokens {
    table: TableId,
    terms: [Vec<(String, u32)>; 3],
    lens: [u32; 3],
}

impl DocTokens {
    /// Tokenizes `t`'s header, context and content text.
    pub(crate) fn of(t: &WebTable) -> Self {
        let field_text = [
            t.all_header_text(),
            t.all_context_text(),
            t.all_content_text(),
        ];
        let mut terms: [Vec<(String, u32)>; 3] = Default::default();
        let mut lens = [0u32; 3];
        for f in Field::ALL {
            let mut tf: HashMap<String, u32> = HashMap::new();
            let mut n_tokens = 0u32;
            tokenize_each(&field_text[f.dense()], |tok| {
                n_tokens += 1;
                match tf.get_mut(tok) {
                    Some(count) => *count += 1,
                    None => {
                        tf.insert(tok.to_string(), 1);
                    }
                }
            });
            lens[f.dense()] = n_tokens;
            terms[f.dense()] = tf.into_iter().collect();
        }
        DocTokens {
            table: t.id,
            terms,
            lens,
        }
    }
}

/// Accumulates table documents and freezes them into a [`TableIndex`].
#[derive(Default)]
pub struct IndexBuilder {
    /// Accumulated postings, complete with the precomputed `√tf` — the
    /// freeze moves these lists into the dense id-indexed table without
    /// copying them.
    postings: HashMap<String, Postings>,
    doc_tables: Vec<TableId>,
    field_lens: Vec<[u32; 3]>,
}

impl IndexBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one table as a three-field document. Tables should be added
    /// in ascending id order for best locality, but any order works.
    pub fn add_table(&mut self, t: &WebTable) {
        self.add_doc(&DocTokens::of(t));
    }

    /// Indexes one already tokenized table as the next document.
    pub(crate) fn add_doc(&mut self, tokens: &DocTokens) {
        let doc = self.doc_tables.len() as u32;
        self.doc_tables.push(tokens.table);
        for f in Field::ALL {
            for (tok, count) in &tokens.terms[f.dense()] {
                let posting = Posting {
                    doc,
                    tf: *count,
                    sqrt_tf: (*count as f64).sqrt(),
                };
                match self.postings.get_mut(tok.as_str()) {
                    Some(post) => post.per_field[f.dense()].push(posting),
                    None => {
                        let mut post = Postings::default();
                        post.per_field[f.dense()].push(posting);
                        self.postings.insert(tok.clone(), post);
                    }
                }
            }
        }
        self.field_lens.push(tokens.lens);
    }

    /// Number of documents added so far.
    pub fn n_docs(&self) -> usize {
        self.doc_tables.len()
    }

    /// Sorts the accumulated postings into their frozen, id-positional
    /// form and derives each term's document frequency from its lists.
    pub(crate) fn freeze(self) -> FrozenShard {
        let mut entries: Vec<(String, Postings)> = self.postings.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut terms = Vec::with_capacity(entries.len());
        let mut dfs = Vec::with_capacity(entries.len());
        let mut postings = Vec::with_capacity(entries.len());
        for (term, mut post) in entries {
            for list in &mut post.per_field {
                // Postings must be doc-ordered for the sorted-set
                // operations (accumulation already visits docs in order,
                // so this is a cheap already-sorted pass).
                list.sort_unstable_by_key(|p| p.doc);
            }
            terms.push(term);
            dfs.push(distinct_docs(&post));
            postings.push(post);
        }
        FrozenShard {
            terms,
            dfs,
            postings,
            doc_tables: self.doc_tables,
            field_lens: self.field_lens,
        }
    }

    /// Freezes the builder into an immutable, searchable index.
    pub fn build(self) -> TableIndex {
        self.freeze().into_index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_model::ContextSnippet;

    fn table(id: u32) -> WebTable {
        WebTable::new(
            TableId(id),
            "u",
            Some("Explorers".into()),
            vec![vec!["Name".into(), "Nationality".into()]],
            vec![vec!["Tasman".into(), "Dutch".into()]],
            vec![ContextSnippet::new("list of explorers", 0.9)],
        )
        .unwrap()
    }

    #[test]
    fn builds_with_field_separation() {
        let mut b = IndexBuilder::new();
        b.add_table(&table(0));
        assert_eq!(b.n_docs(), 1);
        let idx = b.build();
        assert_eq!(idx.n_docs(), 1);
        // "name" only in header field.
        assert_eq!(
            idx.docs_with_all(&["name".into()], &[Field::Header]).len(),
            1
        );
        assert_eq!(
            idx.docs_with_all(&["name".into()], &[Field::Content]).len(),
            0
        );
        // "explorers" stems to "explorer" (title + snippet) in context field.
        assert_eq!(
            idx.docs_with_all(&["explorer".into()], &[Field::Context])
                .len(),
            1
        );
        // "dutch" in content.
        assert_eq!(
            idx.docs_with_all(&["dutch".into()], &[Field::Content])
                .len(),
            1
        );
    }

    #[test]
    fn stats_track_documents() {
        let mut b = IndexBuilder::new();
        b.add_table(&table(0));
        b.add_table(&table(1));
        let idx = b.build();
        assert_eq!(idx.stats().n_docs(), 2);
        assert_eq!(idx.stats().df("dutch"), 2);
        assert!(idx.vocab_size() >= 5);
    }

    #[test]
    fn derived_df_matches_per_document_accumulation() {
        // The freeze derives df from posting lists; it must equal what
        // feeding every document to CorpusStats::add_doc would count —
        // including a term recurring across fields of one doc (counted
        // once) and across docs (counted per doc).
        let mut b = IndexBuilder::new();
        let t0 = WebTable::new(
            TableId(0),
            "u",
            Some("dutch explorers".into()), // "dutch" in context AND content
            vec![vec!["Name".into(), "Nationality".into()]],
            vec![vec!["Tasman".into(), "Dutch".into()]],
            vec![],
        )
        .unwrap();
        b.add_table(&t0);
        b.add_table(&table(1));
        let idx = b.build();
        let mut oracle = CorpusStats::new();
        for t in [&t0, &table(1)] {
            let mut tokens: Vec<String> = Vec::new();
            for text in [
                t.all_header_text(),
                t.all_context_text(),
                t.all_content_text(),
            ] {
                tokens.extend(wwt_text::tokenize(&text));
            }
            oracle.add_doc(tokens.iter().map(String::as_str));
        }
        assert_eq!(idx.stats().n_docs(), oracle.n_docs());
        assert_eq!(idx.stats().vocab_size(), oracle.vocab_size());
        for (term, df) in oracle.iter() {
            assert_eq!(idx.stats().df(term), df, "df({term})");
            assert_eq!(
                idx.stats().idf(term).to_bits(),
                oracle.idf(term).to_bits(),
                "idf({term})"
            );
        }
    }

    #[test]
    fn dict_ids_are_sorted_and_cover_the_vocabulary() {
        let mut b = IndexBuilder::new();
        b.add_table(&table(0));
        let idx = b.build();
        let terms = idx.dict.terms();
        assert!(terms.windows(2).all(|w| w[0] < w[1]), "unsorted: {terms:?}");
        assert_eq!(idx.vocab_size(), terms.len());
        // The IDF table matches the stats bit for bit.
        for (i, term) in terms.iter().enumerate() {
            assert_eq!(idx.idf[i].to_bits(), idx.stats().idf(term).to_bits());
        }
    }

    #[test]
    fn empty_index_is_valid() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.n_docs(), 0);
        assert!(idx.search(&["x".into()], 5).is_empty());
    }
}
