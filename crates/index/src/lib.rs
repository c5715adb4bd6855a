//! # wwt-index
//!
//! The search-index substrate of WWT — a from-scratch replacement for the
//! Lucene deployment of paper §2.1/§2.2.1.
//!
//! Each extracted web table is indexed as one document with three text
//! fields — **header**, **context** and **content** — carrying boosts
//! 2.0 / 1.5 / 1.0 respectively (the paper's values). Queries are OR
//! keyword probes scored with TF-IDF; the engine issues two probes per
//! query (keywords only, then keywords ∪ sampled rows of confident
//! tables).
//!
//! Beyond ranked retrieval, the index exposes the *document-set* operations
//! the PMI² feature (§3.2.3) needs: `H(Qℓ)` (tables containing all of
//! `Qℓ`'s tokens in header∪context) and `B(cell)` (tables containing a
//! cell's tokens in content).
//!
//! The index is immutable after [`IndexBuilder::build`]; a small internal
//! cache (guarded by a mutex) memoizes repeated doc-set probes within a
//! query. [`persist`] provides a compact binary serialization, and
//! [`store`] a JSON-lines table store standing in for the paper's on-disk
//! "Table Store".
//!
//! For multicore retrieval, [`shard`] hash-partitions the corpus into N
//! independent [`TableIndex`] shards behind a [`ShardedIndex`] facade
//! whose probes are **byte-identical** to the unsharded index (global
//! merged statistics, total-order hit merging, consistent doc-id
//! relabeling); [`persist::save_sharded`]/[`persist::load_sharded`]
//! round-trip the partitioned layout through a versioned manifest.
//!
//! Live mutations ride [`live`] (the log-structured delta) and are made
//! durable by [`journal`] — a length-prefixed, checksummed write-ahead
//! log whose reader tolerates torn tails, so acknowledged ingests
//! survive a crash and replay at boot.

pub mod builder;
pub mod codec;
pub(crate) mod docset_cache;
pub mod field;
pub mod journal;
pub mod live;
pub mod persist;
pub mod search;
pub mod shard;
pub mod store;

pub use builder::IndexBuilder;
pub use codec::{table_from_json, table_to_json};
pub use field::Field;
pub use journal::{FsyncPolicy, Journal, JournalRecord, JournalReplay, TornTail};
pub use live::{LiveIndex, LiveOp};
pub use search::{DocSets, SearchHit, TableIndex};
pub use shard::{shard_of, ShardedIndex, ShardedIndexBuilder};
pub use store::TableStore;
