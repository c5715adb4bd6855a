//! Write-ahead journal for live mutations: the durability side of the
//! live delta.
//!
//! [`crate::LiveIndex`] makes single-table ingest cheap, but an
//! uncompacted delta lives only in memory — a crash after the 202
//! acknowledgment would silently lose acknowledged writes. The journal
//! closes that hole: every live mutation appends one self-checking
//! record here *and is fsync'd before the acknowledgment leaves the
//! server*, and boot replays the journal over the frozen index to
//! reconstruct the exact pre-crash logical corpus.
//!
//! ## Record format
//!
//! Each record is length-prefixed and checksummed (integers
//! little-endian):
//!
//! ```text
//! [u8 op] [u32 payload_len] [u64 fnv1a64(op || payload)] [payload]
//! ```
//!
//! * op `1` — **add**: the payload is the table's one-line JSON, exactly
//!   the [`crate::table_to_json`] line the table store persists.
//! * op `2` — **remove**: the payload is the decimal table id.
//!
//! ## Torn tails are expected, not fatal
//!
//! A crash mid-append leaves a partially-written final record. The
//! reader treats the first short or checksum-failing record as the end
//! of the journal: everything before it replays, the file is truncated
//! back to the last good byte (so appends resume cleanly), and the cut
//! is reported as a [`TornTail`] for the caller to log — a torn tail is
//! never a boot failure. A record that never reached the disk was never
//! acknowledged (the fsync-before-ack ordering guarantees it), so
//! dropping it loses nothing the client was promised.
//!
//! ## Lifecycle
//!
//! Compaction folds the delta into a freshly persisted frozen index;
//! once that index is durable the journal's records are redundant and
//! [`Journal::truncate`] retires them atomically (write a new empty
//! file, fsync it, rename it over the old one) so a crash between the
//! two steps can only leave the *longer* journal — replaying a mutation
//! that compaction already folded is wasteful, never wrong, because
//! boot replays over the pre-compaction frozen index only when the
//! folded one failed to land.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use wwt_model::TableId;

/// Bytes before the payload: op (1) + payload length (4) + checksum (8).
const RECORD_HEADER_LEN: usize = 13;
/// Payloads above this are corrupt, not real (a table line is ~KBs).
const MAX_PAYLOAD_LEN: u32 = 256 * 1024 * 1024;

const OP_ADD: u8 = 1;
const OP_REMOVE: u8 = 2;

/// FNV-1a over a byte slice — the repo's dependency-free checksum (also
/// used for the manifest's term-dictionary digest).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One journaled live mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A table was ingested; the payload is its one-line JSON
    /// ([`crate::table_to_json`]).
    AddTable(String),
    /// A table was removed (delta eviction or frozen tombstone).
    RemoveTable(TableId),
}

impl JournalRecord {
    fn op(&self) -> u8 {
        match self {
            JournalRecord::AddTable(_) => OP_ADD,
            JournalRecord::RemoveTable(_) => OP_REMOVE,
        }
    }

    fn payload(&self) -> Vec<u8> {
        match self {
            JournalRecord::AddTable(line) => line.as_bytes().to_vec(),
            JournalRecord::RemoveTable(id) => id.0.to_string().into_bytes(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let op = self.op();
        let mut checked = Vec::with_capacity(1 + payload.len());
        checked.push(op);
        checked.extend_from_slice(&payload);
        let checksum = fnv1a64(&checked);
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        out.push(op);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// When to fsync appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append (and after every batch) — the default.
    /// Acknowledged mutations survive power loss.
    Always,
    /// Never fsync (the OS flushes when it pleases). Acknowledged
    /// mutations survive a process crash but not necessarily power
    /// loss — a benchmarking / bulk-load knob, not a serving default.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--journal-fsync` flag value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (expected \"always\" or \"never\")"
            )),
        }
    }

    /// The flag-value spelling of this policy.
    pub fn label(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        }
    }
}

/// A torn or corrupt tail found while opening a journal: everything from
/// `offset` on was dropped and the file truncated back to `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first unreadable record (the new file length).
    pub offset: u64,
    /// Bytes discarded by the truncation.
    pub dropped_bytes: u64,
    /// Why the tail was unreadable (short header, short payload,
    /// checksum mismatch, unknown op).
    pub reason: String,
}

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug)]
pub struct JournalReplay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// The torn tail, if the file ended mid-record (already truncated
    /// away — the caller's only job is to log it).
    pub torn_tail: Option<TornTail>,
}

/// An append-only, checksummed mutation journal.
///
/// Not internally synchronized: callers serialize appends the same way
/// they serialize the mutations themselves (the service's mutation
/// lock).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    fsync: FsyncPolicy,
    records: u64,
    bytes: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replaying every
    /// intact record already there. A torn tail — a partially-written
    /// final record from a crash mid-append — is truncated away and
    /// reported, never an error; real I/O failures are.
    pub fn open(path: &Path, fsync: FsyncPolicy) -> std::io::Result<(Journal, JournalReplay)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let (records, good_len, torn_reason) = scan(&raw);
        let torn_tail = if good_len < raw.len() as u64 {
            file.set_len(good_len)?;
            file.sync_all()?;
            Some(TornTail {
                offset: good_len,
                dropped_bytes: raw.len() as u64 - good_len,
                reason: torn_reason.unwrap_or_else(|| "unreadable tail".into()),
            })
        } else {
            None
        };
        file.seek(SeekFrom::Start(good_len))?;
        let journal = Journal {
            path: path.to_path_buf(),
            file,
            fsync,
            records: records.len() as u64,
            bytes: good_len,
        };
        Ok((journal, JournalReplay { records, torn_tail }))
    }

    /// Appends one record and makes it durable per the fsync policy.
    /// Returns only after the bytes are on disk (policy permitting) —
    /// this is the call that must complete before a 202 leaves the
    /// server.
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Appends a batch of records with one write and one fsync — the
    /// durability cost of a batch ingest is one disk flush, not N.
    pub fn append_all(&mut self, records: &[JournalRecord]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&r.encode());
        }
        let result = (|| -> std::io::Result<()> {
            // Fault-injection site: a fault here exercises the same
            // rollback path a real short write does, so chaos-armed runs
            // prove acknowledged records survive injected append faults.
            wwt_chaos::io_failpoint(wwt_chaos::JOURNAL_APPEND)?;
            self.file.write_all(&buf)?;
            self.file.flush()?;
            if self.fsync == FsyncPolicy::Always {
                self.file.sync_all()?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            // A failed append may have landed partially; roll the file
            // back to the last durable record so the journal stays
            // well-formed for the appends that follow.
            let _ = self.file.set_len(self.bytes);
            let _ = self.file.seek(SeekFrom::Start(self.bytes));
            return Err(e);
        }
        self.records += records.len() as u64;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Retires every record atomically: writes a new empty journal
    /// beside the old one, fsyncs it, and renames it into place — a
    /// crash at any point leaves either the full old journal or the
    /// empty new one, never a half-truncated file. Called after a
    /// compacted index has been durably persisted.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        let empty = File::create(&tmp)?;
        empty.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        // Best-effort directory fsync so the rename itself is durable.
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.records = 0;
        self.bytes = 0;
        Ok(())
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Intact records currently in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes of intact records currently in the file.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The configured fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }
}

/// Scans raw journal bytes into records; returns the records, the byte
/// length of the intact prefix, and — when the prefix is shorter than
/// the input — why the next record was unreadable.
fn scan(raw: &[u8]) -> (Vec<JournalRecord>, u64, Option<String>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == raw.len() {
            return (records, pos as u64, None);
        }
        let rest = &raw[pos..];
        if rest.len() < RECORD_HEADER_LEN {
            return (
                records,
                pos as u64,
                Some(format!(
                    "torn record header at offset {pos}: {} of {RECORD_HEADER_LEN} bytes",
                    rest.len()
                )),
            );
        }
        let op = rest[0];
        let payload_len = u32::from_le_bytes(rest[1..5].try_into().unwrap());
        let checksum = u64::from_le_bytes(rest[5..13].try_into().unwrap());
        if payload_len > MAX_PAYLOAD_LEN {
            return (
                records,
                pos as u64,
                Some(format!(
                    "corrupt record at offset {pos}: implausible payload length {payload_len}"
                )),
            );
        }
        let payload_len = payload_len as usize;
        if rest.len() < RECORD_HEADER_LEN + payload_len {
            return (
                records,
                pos as u64,
                Some(format!(
                    "torn record payload at offset {pos}: {} of {payload_len} bytes",
                    rest.len() - RECORD_HEADER_LEN
                )),
            );
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + payload_len];
        let mut checked = Vec::with_capacity(1 + payload_len);
        checked.push(op);
        checked.extend_from_slice(payload);
        if fnv1a64(&checked) != checksum {
            return (
                records,
                pos as u64,
                Some(format!("checksum mismatch at offset {pos}")),
            );
        }
        let record = match op {
            OP_ADD => match String::from_utf8(payload.to_vec()) {
                Ok(line) => JournalRecord::AddTable(line),
                Err(_) => {
                    return (
                        records,
                        pos as u64,
                        Some(format!("non-utf8 add payload at offset {pos}")),
                    )
                }
            },
            OP_REMOVE => {
                let id = std::str::from_utf8(payload)
                    .ok()
                    .and_then(|s| s.parse::<u32>().ok());
                match id {
                    Some(id) => JournalRecord::RemoveTable(TableId(id)),
                    None => {
                        return (
                            records,
                            pos as u64,
                            Some(format!("malformed remove payload at offset {pos}")),
                        )
                    }
                }
            }
            other => {
                return (
                    records,
                    pos as u64,
                    Some(format!("unknown op {other} at offset {pos}")),
                )
            }
        };
        records.push(record);
        pos += RECORD_HEADER_LEN + payload_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "wwt-journal-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::AddTable(r#"{"id":1,"url":"u"}"#.into()),
            JournalRecord::AddTable(r#"{"id":2,"url":"v"}"#.into()),
            JournalRecord::RemoveTable(TableId(1)),
        ]
    }

    #[test]
    fn roundtrips_records_in_append_order() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, replay) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            assert!(replay.records.is_empty());
            assert!(replay.torn_tail.is_none());
            for r in sample_records() {
                j.append(&r).unwrap();
            }
            assert_eq!(j.records(), 3);
            assert!(j.bytes() > 0);
        }
        let (j, replay) = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(replay.records, sample_records());
        assert!(replay.torn_tail.is_none());
        assert_eq!(j.records(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_append_equals_single_appends() {
        let a = tmp_path("batch-a");
        let b = tmp_path("batch-b");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
        let (mut ja, _) = Journal::open(&a, FsyncPolicy::Never).unwrap();
        let (mut jb, _) = Journal::open(&b, FsyncPolicy::Never).unwrap();
        let records = sample_records();
        for r in &records {
            ja.append(r).unwrap();
        }
        jb.append_all(&records).unwrap();
        drop((ja, jb));
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        // Simulate a crash mid-append: chop bytes off the final record.
        let full = std::fs::read(&path).unwrap();
        let torn_len = full.len() as u64 - 5;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn_len).unwrap();
        drop(f);
        let (mut j, replay) = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(replay.records, sample_records()[..2].to_vec());
        let torn = replay.torn_tail.expect("torn tail must be reported");
        assert!(torn.dropped_bytes > 0);
        assert!(torn.reason.contains("torn"), "reason: {}", torn.reason);
        // The file was truncated back to the last good record, so a new
        // append lands cleanly after it.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            torn.offset,
            "file truncated to the intact prefix"
        );
        j.append(&JournalRecord::RemoveTable(TableId(2))).unwrap();
        drop(j);
        let (_, replay) = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(
            replay.records.last(),
            Some(&JournalRecord::RemoveTable(TableId(2)))
        );
        assert!(replay.torn_tail.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_cuts_the_journal_there() {
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        // Flip one payload byte of the second record.
        let mut raw = std::fs::read(&path).unwrap();
        let first_len = sample_records()[0].encode().len();
        raw[first_len + RECORD_HEADER_LEN] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        let (_, replay) = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(replay.records, sample_records()[..1].to_vec());
        let torn = replay.torn_tail.expect("corruption must be reported");
        assert!(torn.reason.contains("checksum"), "reason: {}", torn.reason);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_retires_all_records() {
        let path = tmp_path("truncate");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path, FsyncPolicy::Always).unwrap();
        j.append_all(&sample_records()).unwrap();
        assert_eq!(j.records(), 3);
        j.truncate().unwrap();
        assert_eq!(j.records(), 0);
        assert_eq!(j.bytes(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // Appends keep working on the fresh file.
        j.append(&JournalRecord::RemoveTable(TableId(9))).unwrap();
        drop(j);
        let (_, replay) = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(replay.records, vec![JournalRecord::RemoveTable(TableId(9))]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_policy_parses_and_labels() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Always.label(), "always");
        assert_eq!(FsyncPolicy::Never.label(), "never");
    }
}
