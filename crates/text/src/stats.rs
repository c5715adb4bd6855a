//! Corpus document-frequency statistics and IDF.
//!
//! `TI(w)` in the paper (§3.2.1) is "the TF-IDF score of the term": on the
//! query side term frequency is 1, so `TI(w)` reduces to the corpus IDF of
//! `w`. [`CorpusStats`] is built once over the whole table corpus (each
//! table = one document, all three fields concatenated) and shared by the
//! index, the features and the consolidator.
//!
//! Terms are interned through a private [`TermDict`], so the statistics
//! are keyed by dense [`TermId`]s internally; the string API stays for
//! callers holding raw tokens, and the id API ([`CorpusStats::idf_id`])
//! lets the index skip the string hash entirely once a token is resolved.

use crate::dict::{TermDict, TermId};
use std::sync::Arc;

/// The dictionary behind a [`CorpusStats`]: owned while accumulating,
/// or shared with the index that froze it (one resident copy of the
/// vocabulary instead of two).
#[derive(Debug, Clone)]
enum Dict {
    Owned(TermDict),
    Shared(Arc<TermDict>),
}

impl Default for Dict {
    fn default() -> Self {
        Dict::Owned(TermDict::new())
    }
}

/// Document-frequency table over a corpus of `n_docs` documents.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    n_docs: u64,
    dict: Dict,
    /// `df[id]` = documents containing the term, aligned with `dict`.
    df: Vec<u32>,
}

impl CorpusStats {
    /// Empty statistics (IDF falls back to a constant 1.0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds statistics directly from already-counted document
    /// frequencies: `terms` sorted and deduplicated, `df[i]` the document
    /// frequency of `terms[i]` — the freeze-time fast path (an index
    /// builder derives df from its posting lists, so no per-document
    /// accumulation or hashing happens here). Equivalent to feeding
    /// [`CorpusStats::add_doc`] the same corpus: `df`/`n_docs` are the
    /// same integers, so IDF is bit-identical.
    pub fn from_sorted_df(n_docs: u64, terms: Vec<String>, df: Vec<u32>) -> Self {
        Self::from_shared_dict(n_docs, Arc::new(TermDict::from_sorted_terms(terms)), df)
    }

    /// [`CorpusStats::from_sorted_df`] over an existing shared
    /// dictionary — the index freeze hands its own `Arc<TermDict>` in,
    /// so the vocabulary stays resident **once**, not once per holder.
    /// `df[i]` must be the document frequency of the dictionary's term
    /// `i`.
    pub fn from_shared_dict(n_docs: u64, dict: Arc<TermDict>, df: Vec<u32>) -> Self {
        debug_assert_eq!(dict.len(), df.len());
        CorpusStats {
            n_docs,
            dict: Dict::Shared(dict),
            df,
        }
    }

    /// The dictionary, read-only.
    fn dict(&self) -> &TermDict {
        match &self.dict {
            Dict::Owned(d) => d,
            Dict::Shared(d) => d,
        }
    }

    /// The dictionary for mutation: a shared dictionary is detached
    /// (cloned) first — accumulation (`add_doc`/`merge`) onto frozen,
    /// index-shared statistics is a test-only path, and silently
    /// mutating a dictionary an index also reads would corrupt the
    /// index's id space.
    fn dict_mut(&mut self) -> &mut TermDict {
        if let Dict::Shared(d) = &self.dict {
            self.dict = Dict::Owned((**d).clone());
        }
        match &mut self.dict {
            Dict::Owned(d) => d,
            Dict::Shared(_) => unreachable!("just detached"),
        }
    }

    /// Builds statistics from an iterator of documents, each given as its
    /// token list. A term is counted once per document.
    pub fn from_token_docs<I, D, S>(docs: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut stats = Self::new();
        for doc in docs {
            stats.add_doc(doc);
        }
        stats
    }

    /// Adds one document's tokens (duplicates within the document are
    /// counted once).
    pub fn add_doc<D, S>(&mut self, tokens: D)
    where
        D: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.n_docs += 1;
        let mut ids: Vec<u32> = tokens
            .into_iter()
            .map(|t| self.intern(t.as_ref()).0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            self.df[id as usize] += 1;
        }
    }

    fn intern(&mut self, term: &str) -> TermId {
        let id = self.dict_mut().intern(term);
        if id.index() == self.df.len() {
            self.df.push(0);
        }
        id
    }

    /// Number of documents seen.
    pub fn n_docs(&self) -> u64 {
        self.n_docs
    }

    /// The id of `term` in this statistics table's dictionary, if seen.
    #[inline]
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.dict().lookup(term)
    }

    /// Document frequency of `term` (0 if unseen).
    pub fn df(&self, term: &str) -> u32 {
        self.lookup(term).map_or(0, |id| self.df_id(id))
    }

    /// Document frequency by interned id.
    #[inline]
    pub fn df_id(&self, id: TermId) -> u32 {
        self.df[id.index()]
    }

    /// Smoothed inverse document frequency:
    /// `idf(w) = 1 + ln((1 + N) / (1 + df(w)))`.
    ///
    /// Always ≥ 1 so that even corpus-saturating terms retain a little
    /// weight (mirrors Lucene's classic similarity). On an empty corpus the
    /// IDF is a constant 1.0, which degrades TF-IDF cosine to plain cosine.
    pub fn idf(&self, term: &str) -> f64 {
        self.idf_of_df(self.df(term))
    }

    /// [`CorpusStats::idf`] by interned id — no string hash on the hot
    /// path. Bit-identical to the string form for the same term.
    #[inline]
    pub fn idf_id(&self, id: TermId) -> f64 {
        self.idf_of_df(self.df_id(id))
    }

    #[inline]
    fn idf_of_df(&self, df: u32) -> f64 {
        Self::idf_of(self.n_docs, df)
    }

    /// The smoothed IDF formula of [`CorpusStats::idf`] over explicit
    /// counts: a term in `df` of `n_docs` documents. A probe that merges
    /// document frequencies across separately built indexes (frozen df
    /// plus each delta segment's) gets bit-identical IDF from here.
    #[inline]
    pub fn idf_of(n_docs: u64, df: u32) -> f64 {
        if n_docs == 0 {
            return 1.0;
        }
        let df = df as f64;
        1.0 + ((1.0 + n_docs as f64) / (1.0 + df)).ln()
    }

    /// Folds another corpus's statistics into this one. Document
    /// frequencies are additive across disjoint document sets, so merging
    /// the per-shard statistics of a partitioned corpus reproduces the
    /// unpartitioned statistics exactly (same `df`, same `n_docs`, and
    /// therefore bit-identical `idf`).
    pub fn merge(&mut self, other: &CorpusStats) {
        self.n_docs += other.n_docs;
        for (term, df) in other.iter() {
            let id = self.intern(term);
            self.df[id.index()] += df;
        }
    }

    /// Number of distinct terms seen.
    pub fn vocab_size(&self) -> usize {
        self.dict().len()
    }

    /// Iterates over `(term, df)` pairs in interning (id) order —
    /// deterministic for a fixed build sequence.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> + '_ {
        self.dict()
            .terms()
            .iter()
            .zip(&self.df)
            .map(|(t, &d)| (t.as_str(), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CorpusStats {
        CorpusStats::from_token_docs(vec![
            vec!["country", "currency"],
            vec!["country", "population"],
            vec!["dog", "breed", "dog"], // duplicate within doc counted once
        ])
    }

    #[test]
    fn df_counts_docs_not_occurrences() {
        let s = stats();
        assert_eq!(s.n_docs(), 3);
        assert_eq!(s.df("country"), 2);
        assert_eq!(s.df("dog"), 1);
        assert_eq!(s.df("unseen"), 0);
    }

    #[test]
    fn idf_ordering() {
        let s = stats();
        // Rarer terms get higher IDF; unseen terms the highest.
        assert!(s.idf("unseen") > s.idf("dog"));
        assert!(s.idf("dog") > s.idf("country"));
        assert!(s.idf("country") >= 1.0);
    }

    #[test]
    fn id_api_matches_string_api() {
        let s = stats();
        for term in ["country", "currency", "dog", "breed", "population"] {
            let id = s.lookup(term).expect(term);
            assert_eq!(s.df_id(id), s.df(term));
            assert_eq!(s.idf_id(id).to_bits(), s.idf(term).to_bits());
        }
        assert_eq!(s.lookup("unseen"), None);
    }

    #[test]
    fn empty_corpus_constant_idf() {
        let s = CorpusStats::new();
        assert_eq!(s.idf("anything"), 1.0);
        assert_eq!(s.n_docs(), 0);
    }

    #[test]
    fn vocab_size_and_iter() {
        let s = stats();
        assert_eq!(s.vocab_size(), 5);
        let total: u32 = s.iter().map(|(_, d)| d).sum();
        assert_eq!(total, 2 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn merge_reproduces_unpartitioned_stats() {
        let docs = [
            vec!["country", "currency"],
            vec!["country", "population"],
            vec!["dog", "breed"],
            vec!["dog", "currency"],
            vec!["area"],
        ];
        let whole = CorpusStats::from_token_docs(docs.iter().cloned());
        // Partition the docs 2/1/2 and merge the parts back together.
        let mut merged = CorpusStats::new();
        for part in [&docs[..2], &docs[2..3], &docs[3..]] {
            merged.merge(&CorpusStats::from_token_docs(part.iter().cloned()));
        }
        assert_eq!(merged.n_docs(), whole.n_docs());
        assert_eq!(merged.vocab_size(), whole.vocab_size());
        for (term, df) in whole.iter() {
            assert_eq!(merged.df(term), df, "df({term})");
            // Bit-identical IDF, not just approximately equal.
            assert_eq!(merged.idf(term).to_bits(), whole.idf(term).to_bits());
        }
        // Merging an empty side is a no-op.
        let before = merged.n_docs();
        merged.merge(&CorpusStats::new());
        assert_eq!(merged.n_docs(), before);
    }

    #[test]
    fn from_sorted_df_matches_accumulated_stats() {
        let docs = [
            vec!["country", "currency"],
            vec!["country", "population"],
            vec!["dog", "breed", "dog"],
        ];
        let accumulated = CorpusStats::from_token_docs(docs.iter().cloned());
        let terms = vec![
            "breed".to_string(),
            "country".to_string(),
            "currency".to_string(),
            "dog".to_string(),
            "population".to_string(),
        ];
        let direct = CorpusStats::from_sorted_df(3, terms, vec![1, 2, 1, 1, 1]);
        assert_eq!(direct.n_docs(), accumulated.n_docs());
        assert_eq!(direct.vocab_size(), accumulated.vocab_size());
        for (term, df) in accumulated.iter() {
            assert_eq!(direct.df(term), df, "df({term})");
            assert_eq!(direct.idf(term).to_bits(), accumulated.idf(term).to_bits());
        }
    }

    #[test]
    fn idf_monotone_in_df() {
        let mut s = CorpusStats::new();
        for _ in 0..100 {
            s.add_doc(vec!["common"]);
        }
        s.add_doc(vec!["rare", "common"]);
        assert!(s.idf("rare") > s.idf("common"));
        // Smoothed IDF stays >= 1 even for a term in every document.
        assert!(s.idf("common") >= 1.0);
    }
}
