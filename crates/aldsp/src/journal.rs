//! Crash-consistent coordinator journal for distributed (2PC) updates.
//!
//! The paper's atomic blocks (§III.C) and the ALDSP update path promise
//! that a multi-source `submit` commits everywhere or nowhere. Without
//! a durable record of the coordinator's protocol progress, that
//! promise only holds while the process stays alive: a crash between
//! `prepare` and `commit` leaves sources silently divergent. This
//! module is the missing write-ahead half — an append-only,
//! checksummed log the coordinator writes at each protocol point, and
//! that [`crate::service::DataSpace::recover`] replays after a crash
//! to resolve every in-doubt transaction (presumed abort) and finish
//! every decided one.
//!
//! Record sequence for a happy-path transaction over sources A, B:
//!
//! ```text
//! B <xid> A,B          Begin        — branches enrolled
//! P <xid> A            Prepared     — branch A voted yes
//! P <xid> B            Prepared     — branch B voted yes
//! D <xid>              CommitDecision — the point of no return
//! C <xid> A            Committed    — branch A applied
//! C <xid> B            Committed    — branch B applied
//! ```
//!
//! An aborting transaction ends with `A <xid>` instead of `D`. Each
//! line carries an FNV-1a-64 checksum suffix so a torn tail (the crash
//! happened *during* an append) is detected and skipped rather than
//! misread.
//!
//! The journal is an in-memory ring by default (bounded, like the
//! fault injector's event log) with optional file backing: with a
//! path attached, every append is written through and flushed before
//! the protocol proceeds — write-ahead in the textbook sense — and
//! [`CoordinatorJournal::open`] reloads it, tolerating a damaged
//! suffix.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use xdm::error::XdmResult;

use crate::errors::AldspCode;

/// Default ring capacity: enough for thousands of in-flight
/// transactions, bounded so soak runs don't grow without limit.
/// Completed transactions are pruned on [`CoordinatorJournal::scan`]
/// checkpoints, so the ring rarely nears this in practice.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// One coordinator log record. `xid` is the distributed transaction
/// id (the same id used for every branch's `TxId`). Branch names are
/// shared strings: the coordinator makes each once per transaction,
/// and its records share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XaRecord {
    /// Transaction began; `branches` are the enrolled source names in
    /// protocol order.
    Begin { xid: u64, branches: Vec<Arc<str>> },
    /// The named branch prepared (voted yes) and holds locks.
    Prepared { xid: u64, source: Arc<str> },
    /// The commit decision — the protocol's point of no return. After
    /// this record exists, recovery rolls *forward*; before it,
    /// recovery presumes abort.
    CommitDecision { xid: u64 },
    /// The named branch's prepared writes were applied.
    Committed { xid: u64, source: Arc<str> },
    /// The transaction aborted (voluntarily, or resolved by recovery).
    Aborted { xid: u64 },
}

impl XaRecord {
    /// The transaction this record belongs to.
    pub fn xid(&self) -> u64 {
        match self {
            XaRecord::Begin { xid, .. }
            | XaRecord::Prepared { xid, .. }
            | XaRecord::CommitDecision { xid }
            | XaRecord::Committed { xid, .. }
            | XaRecord::Aborted { xid } => *xid,
        }
    }

    /// Serialize to the record's line form, *without* the checksum
    /// suffix. Branch/source names are sanitized: the format is
    /// whitespace-delimited, so embedded spaces or commas would
    /// corrupt the frame.
    fn body(&self) -> String {
        match self {
            XaRecord::Begin { xid, branches } => {
                let names: Vec<String> =
                    branches.iter().map(|b| sanitize(b)).collect();
                format!("B {xid} {}", names.join(","))
            }
            XaRecord::Prepared { xid, source } => format!("P {xid} {}", sanitize(source)),
            XaRecord::CommitDecision { xid } => format!("D {xid}"),
            XaRecord::Committed { xid, source } => format!("C {xid} {}", sanitize(source)),
            XaRecord::Aborted { xid } => format!("A {xid}"),
        }
    }

    /// Serialize to the full journal line: `<body> #<fnv64 hex>`.
    pub fn to_line(&self) -> String {
        let body = self.body();
        format!("{body} #{:016x}", fnv1a64(body.as_bytes()))
    }

    /// Parse a journal line, verifying its checksum. Returns
    /// `aldsp:XA_JOURNAL_CORRUPT` on any mismatch or malformed frame.
    pub fn from_line(line: &str) -> XdmResult<XaRecord> {
        let corrupt = |why: &str| {
            AldspCode::XaJournalCorrupt.error(format!("journal record {why}: {line:?}"))
        };
        let (body, sum_hex) =
            line.rsplit_once(" #").ok_or_else(|| corrupt("missing checksum"))?;
        let sum = u64::from_str_radix(sum_hex, 16).map_err(|_| corrupt("bad checksum field"))?;
        if sum != fnv1a64(body.as_bytes()) {
            return Err(corrupt("checksum mismatch"));
        }
        let mut parts = body.split(' ');
        let tag = parts.next().ok_or_else(|| corrupt("empty"))?;
        let xid: u64 = parts
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| corrupt("bad xid"))?;
        let rest = parts.next();
        if parts.next().is_some() {
            return Err(corrupt("trailing fields"));
        }
        match (tag, rest) {
            ("B", Some(names)) => {
                Ok(XaRecord::Begin { xid, branches: names.split(',').map(Arc::from).collect() })
            }
            ("P", Some(source)) => Ok(XaRecord::Prepared { xid, source: source.into() }),
            ("D", None) => Ok(XaRecord::CommitDecision { xid }),
            ("C", Some(source)) => Ok(XaRecord::Committed { xid, source: source.into() }),
            ("A", None) => Ok(XaRecord::Aborted { xid }),
            _ => Err(corrupt("unknown tag/arity")),
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_whitespace() || c == ',' { '_' } else { c }).collect()
}

/// FNV-1a 64-bit — tiny, dependency-free, and plenty for detecting
/// torn writes (this is corruption *detection*, not cryptography).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Counters describing the journal's health, surfaced through
/// `DataSpace::recover` and `xqsh --explain`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since construction (retained + evicted).
    pub appended: u64,
    /// Records evicted from the in-memory ring at capacity.
    pub evicted: u64,
    /// Corrupt lines skipped while loading the file backing.
    pub corrupt_skipped: u64,
}

/// The protocol state of one transaction, derived by
/// [`CoordinatorJournal::scan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxJournalState {
    /// Branch names from the `Begin` record, in protocol order.
    pub branches: Vec<Arc<str>>,
    /// Branches with a `Prepared` record.
    pub prepared: Vec<Arc<str>>,
    /// True once a `CommitDecision` record exists.
    pub decided: bool,
    /// Branches with a `Committed` record.
    pub committed: Vec<Arc<str>>,
    /// True once an `Aborted` record exists.
    pub aborted: bool,
}

impl TxJournalState {
    /// A decided transaction whose every branch has a `Committed`
    /// record — nothing left to do.
    pub fn fully_committed(&self) -> bool {
        self.decided && self.branches.iter().all(|b| self.committed.contains(b))
    }

    /// Resolved one way or the other: fully committed, or aborted.
    pub fn resolved(&self) -> bool {
        self.aborted || self.fully_committed()
    }

    /// In doubt: begun, no decision, not yet aborted. Presumed abort
    /// applies.
    pub fn in_doubt(&self) -> bool {
        !self.decided && !self.aborted
    }
}

#[derive(Debug, Default)]
struct JournalInner {
    ring: VecDeque<XaRecord>,
    capacity: usize,
    stats: JournalStats,
    /// Write-through file backing; `None` for in-memory-only.
    file: Option<std::fs::File>,
}

/// Append-only, checksummed coordinator log. Clones share state (the
/// [`crate::rel::Database`] idiom), so the `DataSpace`, the 2PC
/// driver, and tests all observe one journal.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorJournal {
    inner: Arc<Mutex<JournalInner>>,
}

impl CoordinatorJournal {
    /// An empty in-memory journal with the default ring capacity.
    pub fn new() -> CoordinatorJournal {
        CoordinatorJournal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An empty in-memory journal holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> CoordinatorJournal {
        CoordinatorJournal {
            inner: Arc::new(Mutex::new(JournalInner {
                ring: VecDeque::new(),
                capacity,
                stats: JournalStats::default(),
                file: None,
            })),
        }
    }

    /// Open (or create) a file-backed journal at `path`, replaying any
    /// existing records into the ring. Lines that fail their checksum
    /// — a torn tail from a crash mid-append — are skipped and counted
    /// in [`JournalStats::corrupt_skipped`].
    pub fn open(path: impl AsRef<std::path::Path>) -> XdmResult<CoordinatorJournal> {
        let path = path.as_ref();
        let io_err = |what: &str, e: std::io::Error| {
            AldspCode::XaJournalCorrupt
                .error(format!("cannot {what} journal {}: {e}", path.display()))
        };
        let mut ring = VecDeque::new();
        let mut corrupt_skipped = 0u64;
        if path.exists() {
            let text =
                std::fs::read_to_string(path).map_err(|e| io_err("read", e))?;
            for line in text.lines() {
                if line.is_empty() {
                    continue;
                }
                match XaRecord::from_line(line) {
                    Ok(rec) => ring.push_back(rec),
                    Err(_) => corrupt_skipped += 1,
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let appended = ring.len() as u64;
        Ok(CoordinatorJournal {
            inner: Arc::new(Mutex::new(JournalInner {
                ring,
                capacity: usize::MAX, // file-backed: the file is the bound
                stats: JournalStats { appended, evicted: 0, corrupt_skipped },
                file: Some(file),
            })),
        })
    }

    /// Append one record. With file backing, the line is written and
    /// flushed *before* this returns — the protocol must not advance
    /// past an unjournaled point.
    pub fn append(&self, record: XaRecord) -> XdmResult<()> {
        let mut inner = self.inner.lock();
        if let Some(file) = inner.file.as_mut() {
            let line = record.to_line();
            writeln!(file, "{line}")
                .and_then(|()| file.flush())
                .map_err(|e| {
                    AldspCode::XaJournalCorrupt.error(format!("journal append failed: {e}"))
                })?;
        }
        if inner.ring.len() >= inner.capacity {
            inner.ring.pop_front();
            inner.stats.evicted += 1;
        }
        inner.ring.push_back(record);
        inner.stats.appended += 1;
        Ok(())
    }

    /// Derive per-transaction protocol state from the retained
    /// records, in first-seen order.
    pub fn scan(&self) -> BTreeMap<u64, TxJournalState> {
        let inner = self.inner.lock();
        let mut map: BTreeMap<u64, TxJournalState> = BTreeMap::new();
        for rec in &inner.ring {
            let st = map.entry(rec.xid()).or_default();
            match rec {
                XaRecord::Begin { branches, .. } => st.branches = branches.clone(),
                XaRecord::Prepared { source, .. } => {
                    if !st.prepared.contains(source) {
                        st.prepared.push(source.clone());
                    }
                }
                XaRecord::CommitDecision { .. } => st.decided = true,
                XaRecord::Committed { source, .. } => {
                    if !st.committed.contains(source) {
                        st.committed.push(source.clone());
                    }
                }
                XaRecord::Aborted { .. } => st.aborted = true,
            }
        }
        map
    }

    /// True when every journaled transaction is resolved — the
    /// "clean journal" a no-op `recover()` asserts against.
    pub fn is_clean(&self) -> bool {
        self.scan().values().all(TxJournalState::resolved)
    }

    /// Drop records of resolved transactions from the in-memory ring
    /// (a checkpoint). File backing is left as-is: the file is an
    /// append-only history; compaction would be a rewrite, which a
    /// crash could tear. Returns how many records were pruned.
    pub fn checkpoint(&self) -> usize {
        let resolved: Vec<u64> = self
            .scan()
            .iter()
            .filter(|(_, st)| st.resolved())
            .map(|(xid, _)| *xid)
            .collect();
        let mut inner = self.inner.lock();
        let before = inner.ring.len();
        inner.ring.retain(|rec| !resolved.contains(&rec.xid()));
        before - inner.ring.len()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }

    /// A snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<XaRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Journal health counters.
    pub fn stats(&self) -> JournalStats {
        self.inner.lock().stats
    }
}

/// What a recovery pass did, counter-asserted by the chaos suite and
/// surfaced through `xqsh --explain`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transactions found with no commit decision (presumed abort).
    pub in_doubt_found: u64,
    /// Branch commits replayed for decided-but-incomplete transactions.
    pub rolled_forward: u64,
    /// Branch rollbacks performed for in-doubt transactions.
    pub rolled_back: u64,
    /// Branch replays skipped because the branch had already reached
    /// the target state (idempotent replay at work).
    pub replays_skipped: u64,
}

impl RecoveryStats {
    /// True when the pass found nothing to do — the clean-journal
    /// no-op and the second half of the idempotency invariant.
    pub fn is_noop(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// Scans a [`CoordinatorJournal`] and drives every unresolved
/// transaction to an outcome through idempotent branch operations.
///
/// Branch access is abstracted behind a resolver closure so the
/// manager doesn't care where databases live ([`crate::service::DataSpace`]
/// supplies its own registry). Recovery follows presumed abort:
///
/// 1. **No decision record** → the transaction is in doubt. Every
///    branch is rolled back (releasing prepared locks); an `Aborted`
///    record is journaled.
/// 2. **Decision, but missing `Committed` records** → roll forward:
///    replay `commit_branch` on each unfinished branch; journal each
///    `Committed`.
///
/// Both paths use idempotent branch calls, so recovering twice — or
/// crashing *during* recovery and recovering again — is safe: replays
/// that find the branch already resolved count as `replays_skipped`.
pub struct RecoveryManager<'a> {
    journal: &'a CoordinatorJournal,
}

impl<'a> RecoveryManager<'a> {
    /// A manager over `journal`.
    pub fn new(journal: &'a CoordinatorJournal) -> RecoveryManager<'a> {
        RecoveryManager { journal }
    }

    /// Run one recovery pass. `resolve` maps a journaled branch name
    /// to its database; unknown branches (a source dropped from the
    /// space since the crash) are counted as skipped replays rather
    /// than failing the whole pass.
    pub fn recover(
        &self,
        mut resolve: impl FnMut(&str) -> Option<crate::rel::Database>,
    ) -> XdmResult<RecoveryStats> {
        let mut stats = RecoveryStats::default();
        for (xid, st) in self.journal.scan() {
            if st.resolved() {
                continue;
            }
            let tx = crate::rel::TxId(xid);
            if st.in_doubt() {
                // Presumed abort: no decision record means no branch
                // may keep its locks or its writes.
                stats.in_doubt_found += 1;
                for branch in &st.branches {
                    match resolve(branch) {
                        Some(db) if db.rollback_branch(tx) => stats.rolled_back += 1,
                        _ => stats.replays_skipped += 1,
                    }
                }
                self.journal.append(XaRecord::Aborted { xid })?;
            } else {
                // Decided but incomplete: finish the commit.
                for branch in &st.branches {
                    if st.committed.contains(branch) {
                        continue;
                    }
                    match resolve(branch) {
                        Some(db) => {
                            if db.commit_branch(tx)? {
                                stats.rolled_forward += 1;
                            } else {
                                stats.replays_skipped += 1;
                            }
                        }
                        None => stats.replays_skipped += 1,
                    }
                    self.journal.append(XaRecord::Committed {
                        xid,
                        source: branch.clone(),
                    })?;
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
#[allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]
mod journal_tests {
    use super::*;

    #[test]
    fn records_round_trip_through_line_form() {
        let records = [
            XaRecord::Begin { xid: 7, branches: vec!["A".into(), "B".into()] },
            XaRecord::Prepared { xid: 7, source: "A".into() },
            XaRecord::CommitDecision { xid: 7 },
            XaRecord::Committed { xid: 7, source: "B".into() },
            XaRecord::Aborted { xid: 9 },
        ];
        for rec in records {
            let line = rec.to_line();
            assert_eq!(XaRecord::from_line(&line).unwrap(), rec, "line: {line}");
        }
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        let good = XaRecord::CommitDecision { xid: 3 }.to_line();
        // Flip one byte of the body: the checksum no longer matches.
        let torn = good.replacen('3', "4", 1);
        let err = XaRecord::from_line(&torn).unwrap_err();
        assert_eq!(AldspCode::of(&err), Some(AldspCode::XaJournalCorrupt));
        assert!(XaRecord::from_line("D 3").is_err(), "missing checksum");
        assert!(XaRecord::from_line("Z 3 #0").is_err(), "bad frame");
    }

    #[test]
    fn scan_derives_protocol_state() {
        let j = CoordinatorJournal::new();
        j.append(XaRecord::Begin { xid: 1, branches: vec!["A".into(), "B".into()] }).unwrap();
        j.append(XaRecord::Prepared { xid: 1, source: "A".into() }).unwrap();
        assert!(j.scan()[&1].in_doubt());
        assert!(!j.is_clean());
        j.append(XaRecord::Prepared { xid: 1, source: "B".into() }).unwrap();
        j.append(XaRecord::CommitDecision { xid: 1 }).unwrap();
        let st = &j.scan()[&1];
        assert!(st.decided && !st.fully_committed() && !st.resolved());
        j.append(XaRecord::Committed { xid: 1, source: "A".into() }).unwrap();
        j.append(XaRecord::Committed { xid: 1, source: "B".into() }).unwrap();
        assert!(j.scan()[&1].fully_committed());
        assert!(j.is_clean());
        assert_eq!(j.checkpoint(), 6, "resolved tx pruned");
        assert!(j.is_empty());
    }

    #[test]
    fn ring_evicts_at_capacity() {
        let j = CoordinatorJournal::with_capacity(2);
        for xid in 0..5 {
            j.append(XaRecord::Aborted { xid }).unwrap();
        }
        assert_eq!(j.len(), 2);
        let s = j.stats();
        assert_eq!((s.appended, s.evicted), (5, 3));
    }

    #[test]
    fn file_backing_survives_reopen_and_skips_torn_tail() {
        let dir = std::env::temp_dir().join(format!("xa-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coord.log");
        let _ = std::fs::remove_file(&path);
        {
            let j = CoordinatorJournal::open(&path).unwrap();
            j.append(XaRecord::Begin { xid: 4, branches: vec!["A".into()] }).unwrap();
            j.append(XaRecord::Prepared { xid: 4, source: "A".into() }).unwrap();
        }
        // Simulate a crash mid-append: a torn, checksum-less tail.
        {
            use std::io::Write;
            let mut f =
                std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "D 4 #dead").unwrap();
        }
        let j = CoordinatorJournal::open(&path).unwrap();
        assert_eq!(j.len(), 2, "intact records reloaded");
        assert_eq!(j.stats().corrupt_skipped, 1, "torn tail skipped, counted");
        assert!(j.scan()[&4].in_doubt(), "the torn decision never happened");
        let _ = std::fs::remove_file(&path);
    }
}
