//! Everything a run is made of: the corpus and its persisted index, the
//! query universe, and — derived from `--seed` — the request streams and
//! the ingest batches. The same seed gives the same bytes.
//!
//! What is sent is fixed; the seed decides in what order, when, and which
//! tables are ingested. Two seeds therefore offer the same mix of cheap
//! and heavy queries, which is what lets runs on different seeds agree.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use wwt_corpus::{workload, CorpusConfig, CorpusGenerator, QuerySpec};
use wwt_engine::{bind_corpus_sharded, evaluate_workload, BoundCorpus, Method, WwtConfig};
use wwt_index::table_to_json;
use wwt_json::Json;
use wwt_model::{Query, TableId, WebTable};

/// Seed of the corpus: the repository's own default, the one its golden
/// files are pinned on. The corpus is the benchmark's fixed data set;
/// `--seed` drives how the server is driven (the order of the bodies, the
/// arrival times, which tables are ingested). Answer quality moves from
/// 4.0 to 4.9 % F1 error between corpus seeds 1 and 2, so a corpus that
/// followed `--seed` would make `f1_error_pct` — and every latency that
/// depends on which tables exist — differ by a fifth between runs of
/// identical code.
pub const CORPUS_SEED: u64 = 0xC0FFEE;
/// Index shards and server workers: one per core of the 2-core sandbox.
pub const SHARDS: usize = 2;
/// The hot set `H`: 1/16 of the server's 1 024-entry response cache, so
/// cycling it always hits.
pub const HOT_SET: usize = 64;
/// `max_rows` values crossed with the text variants. They change the cache
/// key but not the candidate tables, so they hit `PairMemo`. The universe
/// `U` is every (variant, `max_rows`) pair: about 4 700 bodies, 4.6x the
/// response cache, so cycling it never hits.
pub const MAX_ROWS: [usize; 8] = [5, 10, 15, 20, 25, 50, 75, 100];
/// The `max_rows` of the hot set's bodies (an index into `MAX_ROWS`).
const HOT_ROWS: usize = 4;
/// Ranks of the open loop's Zipf order sent once before its window, so
/// it starts with the cache a long-running server would have: half the
/// cache's capacity, 75 % of the probability mass. (Filling the whole
/// cache costs another 2 s per run and raises the hit rate by 1 point.)
pub const ZIPF_WARM_RANKS: usize = 512;
/// Tables per ingest batch.
pub const BATCH_TABLES: usize = 16;
/// First id handed to ingested tables, far above any corpus id.
pub const INGEST_ID_BASE: u32 = 1_000_000;

/// SplitMix64: the one generator every seeded choice draws from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Text variants of one workload query: every ordering of every non-empty
/// column subset, plus the original with one keyword dropped. Each has its
/// own candidate set, so across variants `PairMemo` misses.
pub fn text_variants(query: &Query) -> Vec<String> {
    let cols: Vec<&str> = (0..query.q()).map(|l| query.column(l)).collect();
    let mut out: Vec<String> = vec![query.to_string()];
    let mut arrangement: Vec<usize> = Vec::new();
    arrangements(cols.len(), &mut arrangement, &mut |picked| {
        let text: Vec<&str> = picked.iter().map(|&i| cols[i]).collect();
        out.push(text.join(" | "));
    });
    for (l, col) in cols.iter().enumerate() {
        let words: Vec<&str> = col.split_whitespace().collect();
        if words.len() < 2 {
            continue;
        }
        for drop in 0..words.len() {
            let kept: Vec<&str> = words
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, w)| *w)
                .collect();
            let mut variant: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            variant[l] = kept.join(" ");
            out.push(variant.join(" | "));
        }
    }
    let mut seen = HashSet::new();
    out.retain(|v| seen.insert(v.clone()));
    out
}

/// Calls `emit` with every non-empty ordered arrangement of `0..n`.
fn arrangements(n: usize, picked: &mut Vec<usize>, emit: &mut impl FnMut(&[usize])) {
    for i in 0..n {
        if picked.contains(&i) {
            continue;
        }
        picked.push(i);
        emit(picked);
        arrangements(n, picked, emit);
        picked.pop();
    }
}

/// One `POST /query` body.
pub fn query_body(text: &str, max_rows: usize) -> String {
    Json::obj([
        ("query", Json::from(text)),
        ("options", Json::obj([("max_rows", Json::from(max_rows))])),
    ])
    .encode()
}

/// The query universe `U`: every text variant of every workload query at
/// every `MAX_ROWS` value. Body `v * MAX_ROWS.len() + r` is variant `v` at
/// `MAX_ROWS[r]`; the composition does not depend on the seed.
pub fn universe(specs: &[QuerySpec]) -> Vec<String> {
    let mut bodies: Vec<String> = Vec::new();
    // Two workload queries can share a column ("authors", "price"), and
    // with it a one-column variant; a body is in `U` once.
    let mut seen: HashSet<String> = HashSet::new();
    for spec in specs {
        for text in text_variants(&spec.query) {
            if seen.insert(text.clone()) {
                for rows in MAX_ROWS {
                    bodies.push(query_body(&text, rows));
                }
            }
        }
    }
    bodies
}

/// The closed-loop order over `U`, one full cycle: `MAX_ROWS.len()`
/// blocks, each a seeded shuffle of all text variants, each variant at a
/// different `max_rows` in every block. Any prefix that spans a block
/// holds every variant once, so the mix of cheap and heavy queries in a
/// window is the same for every seed; a body recurs only after the whole
/// cycle, 4.6 caches later, so a 1 024-entry LRU never hits.
pub fn cold_order(n_bodies: usize, seed: u64) -> Vec<usize> {
    let rows = MAX_ROWS.len();
    let variants = n_bodies / rows;
    let mut rng = Rng::new(seed ^ 0x434f_4c44);
    let offsets: Vec<usize> = (0..variants).map(|_| rng.below(rows)).collect();
    let mut order = Vec::with_capacity(variants * rows);
    for block in 0..rows {
        let mut perm: Vec<usize> = (0..variants).collect();
        rng.shuffle(&mut perm);
        order.extend(
            perm.into_iter()
                .map(|v| v * rows + (block + offsets[v]) % rows),
        );
    }
    order
}

/// The hot set `H` in a seeded order: `HOT_SET` variants spread evenly
/// over the universe (the same ones for every seed), at one `max_rows`.
pub fn hot_order(n_bodies: usize, seed: u64) -> Vec<usize> {
    let rows = MAX_ROWS.len();
    let variants = n_bodies / rows;
    let mut order: Vec<usize> = (0..HOT_SET.min(variants))
        .map(|i| (i * variants / HOT_SET.min(variants)) * rows + HOT_ROWS)
        .collect();
    Rng::new(seed ^ 0x0048_4f54).shuffle(&mut order);
    order
}

/// Which body holds each Zipf rank: one fixed shuffle of the universe,
/// so consecutive ranks are unrelated queries and every seed has the same
/// hot head.
pub fn zipf_ranks(n_bodies: usize) -> Vec<usize> {
    let mut ranks: Vec<usize> = (0..n_bodies).collect();
    Rng::new(0x5a49_5046_5241_4e4b).shuffle(&mut ranks);
    ranks
}

/// Zipf(s = 1) over ranks `0..n`: rank `k` has weight `1 / (k + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|k| {
                total += 1.0 / (k + 1) as f64;
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Due times of `n` Poisson arrivals over the window, in nanoseconds from
/// its start, ascending. Given their number, the arrivals of a Poisson
/// process are independent uniform draws over the interval, so a fixed
/// count keeps the process and takes the run-to-run difference in how
/// many requests a window holds out of the comparison.
pub fn poisson_schedule(rng: &mut Rng, n: usize, window_ns: u64) -> Vec<u64> {
    let mut due: Vec<u64> = (0..n)
        .map(|_| (rng.next_f64() * window_ns as f64) as u64)
        .collect();
    due.sort_unstable();
    due
}

/// The open-loop stream: `rate_per_s` x window Poisson arrivals, each
/// with a Zipf-drawn body. Which bodies are drawn, and how often, is one
/// fixed draw (like the corpus, `U` and `H`); the seed decides the
/// arrival times and the order of the bodies. Every seed therefore sends
/// the same requests — the same hits, the same misses, the same engine
/// work — and differs in when they collide.
pub fn zipf_stream(
    seed: u64,
    ranks: &[usize],
    rate_per_s: f64,
    window_ns: u64,
) -> Vec<(u64, usize)> {
    let n = (rate_per_s * window_ns as f64 / 1e9).round() as usize;
    let zipf = Zipf::new(ranks.len());
    let mut fixed = Rng::new(0x5a49_5046_4452_4157);
    let mut bodies: Vec<usize> = (0..n).map(|_| ranks[zipf.sample(&mut fixed)]).collect();
    let mut rng = Rng::new(seed ^ 0x5a49_5046);
    rng.shuffle(&mut bodies);
    poisson_schedule(&mut rng, n, window_ns)
        .into_iter()
        .zip(bodies)
        .collect()
}

/// The header token that marks ingested table `seq` and nothing else in
/// the corpus. Letters only, none of them `s`, so the tokenizer keeps it
/// whole and the plural stemmer leaves it alone.
pub fn marker(seq: usize) -> String {
    const LETTERS: &[u8] = b"abcdefghijklmnopqrtuvwxyz";
    let mut n = seq;
    let mut tail = [b'a'; 5];
    for slot in tail.iter_mut().rev() {
        *slot = LETTERS[n % LETTERS.len()];
        n /= LETTERS.len();
    }
    format!("lbmq{}", String::from_utf8_lossy(&tail))
}

/// The id of ingested table `seq`.
pub fn ingest_id(seq: usize) -> TableId {
    TableId(INGEST_ID_BASE + seq as u32)
}

/// Ingest batch `k`: `BATCH_TABLES` corpus tables picked by seed, each
/// re-issued under a fresh id with its marker in the first header cell.
/// Returned as the JSONL body of `POST /admin/tables/batch`.
pub fn ingest_batch(sources: &[&WebTable], seed: u64, k: usize) -> String {
    let mut rng = Rng::new(seed ^ 0x494e_4745_5354 ^ ((k as u64) << 32));
    let mut body = String::new();
    for slot in 0..BATCH_TABLES {
        let seq = k * BATCH_TABLES + slot;
        let mut table = sources[rng.below(sources.len())].clone();
        table.id = ingest_id(seq);
        table.url = format!("http://loadbench.invalid/ingest/{seq}");
        table.headers[0][0] = format!("{} {}", table.headers[0][0], marker(seq));
        body.push_str(&table_to_json(&table));
        body.push('\n');
    }
    body
}

/// The corpus, its persisted index and what is measured on them once.
pub struct Plan {
    pub specs: Vec<QuerySpec>,
    /// In-memory engine over the same tables the index directory holds:
    /// the reference every checked response is compared against.
    pub bound: BoundCorpus,
    pub index_dir: PathBuf,
    pub n_tables: usize,
    pub disk_bytes: u64,
    pub f1_error_pct: f64,
    pub universe: Vec<String>,
}

impl Plan {
    /// Generates the corpus at `scale`, builds and persists the index
    /// under `scratch/index`, and scores the default method.
    pub fn build(scale: f64, scratch: &Path) -> Result<Plan, String> {
        let specs = workload();
        let corpus = CorpusGenerator::new(CorpusConfig {
            seed: CORPUS_SEED,
            scale,
            ..CorpusConfig::default()
        })
        .generate_for(&specs);
        let bound = bind_corpus_sharded(&corpus, WwtConfig::default(), Some(SHARDS));
        let index_dir = scratch.join("index");
        bound
            .engine
            .save_to_dir(&index_dir)
            .map_err(|e| format!("saving the index failed: {e}"))?;
        let disk_bytes = dir_bytes(&index_dir)?;
        let method = Method::Wwt(bound.engine.config().algorithm);
        let evals = evaluate_workload(&bound, &specs, method, SHARDS);
        let f1_error_pct = evals.iter().map(|e| e.f1_error).sum::<f64>() / evals.len() as f64;
        let universe = universe(&specs);
        Ok(Plan {
            n_tables: bound.engine.store().len(),
            specs,
            bound,
            index_dir,
            disk_bytes,
            f1_error_pct,
            universe,
        })
    }

    /// Corpus tables an ingest batch may re-issue: those with a header
    /// row to carry the marker.
    pub fn ingest_sources(&self) -> Vec<&WebTable> {
        self.bound
            .engine
            .store()
            .iter()
            .filter(|t| t.n_header_rows() > 0)
            .collect()
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_cover_subsets_orders_and_drops() {
        let q = Query::parse("dog breed | country of origin").unwrap();
        let v = text_variants(&q);
        for expected in [
            "dog breed | country of origin",
            "country of origin | dog breed",
            "dog breed",
            "country of origin",
            "breed | country of origin",
            "dog breed | country origin",
        ] {
            assert!(
                v.iter().any(|x| x == expected),
                "missing {expected:?} in {v:?}"
            );
        }
        let distinct: HashSet<&String> = v.iter().collect();
        assert_eq!(distinct.len(), v.len());
        for text in &v {
            assert!(Query::parse(text).is_ok(), "{text:?} must parse");
        }
    }

    #[test]
    fn universe_is_distinct_and_outsizes_the_cache() {
        let u = universe(&workload());
        assert_eq!(u.iter().collect::<HashSet<_>>().len(), u.len());
        assert_eq!(u.len() % MAX_ROWS.len(), 0);
        assert!(u.len() >= 4 * 1024, "{} bodies", u.len());
    }

    #[test]
    fn cold_order_is_a_seeded_permutation_in_balanced_blocks() {
        let n = universe(&workload()).len();
        let order = cold_order(n, 3);
        assert_eq!(order, cold_order(n, 3));
        assert_ne!(order, cold_order(n, 4));
        assert_eq!(order.iter().collect::<HashSet<_>>().len(), n);
        let variants = n / MAX_ROWS.len();
        for block in order.chunks(variants) {
            let seen: HashSet<usize> = block.iter().map(|b| b / MAX_ROWS.len()).collect();
            assert_eq!(seen.len(), variants, "every block holds every variant once");
        }
    }

    #[test]
    fn hot_set_and_zipf_ranks_do_not_depend_on_the_seed() {
        let n = universe(&workload()).len();
        let (mut a, mut b) = (hot_order(n, 1), hot_order(n, 2));
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), HOT_SET);
        let ranks = zipf_ranks(n);
        assert_eq!(ranks.iter().collect::<HashSet<_>>().len(), n);
    }

    #[test]
    fn zipf_and_poisson_repeat_byte_for_byte() {
        let ranks = zipf_ranks(4096);
        let a = zipf_stream(7, &ranks, 150.0, 10_000_000_000);
        assert_eq!(a, zipf_stream(7, &ranks, 150.0, 10_000_000_000));
        let b = zipf_stream(8, &ranks, 150.0, 10_000_000_000);
        assert_ne!(a, b);
        // Exactly rate x window arrivals, ascending, inside the window.
        assert_eq!(a.len(), 1500);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a
            .iter()
            .all(|&(due, body)| due < 10_000_000_000 && body < 4096));
        // Another seed sends the same bodies at other times in another order.
        let sorted = |s: &[(u64, usize)]| {
            let mut bodies: Vec<usize> = s.iter().map(|&(_, body)| body).collect();
            bodies.sort_unstable();
            bodies
        };
        assert_eq!(sorted(&a), sorted(&b));
        // Zipf(1): rank 0 is drawn about 1/H(4096) = 11% of the time.
        let top = a.iter().filter(|&&(_, body)| body == ranks[0]).count() as f64 / a.len() as f64;
        assert!((0.07..0.16).contains(&top), "rank-0 share {top}");
    }

    #[test]
    fn markers_are_unique_single_tokens() {
        let marks: HashSet<String> = (0..5000).map(marker).collect();
        assert_eq!(marks.len(), 5000);
        for m in marks.iter().take(50) {
            assert_eq!(wwt_text::tokenize(m), vec![m.clone()]);
        }
    }
}
