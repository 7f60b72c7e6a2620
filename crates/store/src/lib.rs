//! `offramps-store` — a content-addressed, sharded on-disk record
//! store with no dependencies outside the workspace.
//!
//! Campaign-scale evaluation reruns the same scenario matrix over and
//! over with small deltas: one more corpus part, one new attack spec,
//! one detector tweak. The store turns those reruns incremental. Every
//! record is addressed by a [`Fingerprint`] of its *canonical key* — a
//! string spelling out every input that influenced the value — and
//! appended to a shard log chosen by the fingerprint's top byte. An
//! in-memory index, rebuilt at [`Store::open`] from checkpoints and the
//! shard logs, holds one array per shard of the offset and length of
//! each record's line, sorted by fingerprint, so a lookup is a binary
//! search within its own shard. It holds offsets, not keys or values,
//! so a hit reads that one line back. A rerun only recomputes the
//! scenarios whose keys are not yet present.
//!
//! Design points:
//!
//! * **Content addressing, verified.** The full key is stored with each
//!   record and compared on [`Store::get`]; a hash collision degrades
//!   to a cache miss, never to a wrong value. So does a shard log
//!   rewritten behind an open store: a slot that no longer spans one
//!   whole line carrying its fingerprint reads as a miss.
//! * **Append-only shard logs.** Records are single escaped lines in
//!   `shards/<xx>.log` (256 shards by fingerprint prefix). Rewritten
//!   keys append a new line; the last line wins on reload. A torn or
//!   malformed line is skipped (and counted), never fatal — so is a
//!   record found in another shard's log — and the first append after a
//!   torn tail starts on a fresh line. Each `put` escapes its record in
//!   one pass into a reused line buffer and writes it with one
//!   unbuffered write.
//! * **Deterministic results on every core.** The 256 shard logs are
//!   independent, so [`Store::open`] scans them and [`Store::records`]
//!   reads them back on the workspace's one worker pool
//!   ([`offramps_des::pool_map`]), sized to the host, one whole shard
//!   log per task. Each shard's slots are indexed into a sorted array
//!   of its own and results are taken in shard order, so the index, the
//!   scan counts and the bulk read's order (fingerprint order) are the
//!   same at any worker count and regardless of insertion history —
//!   analytics built on them are byte-reproducible.
//! * **Checkpointed index.** When a store drops after the indexed
//!   prefix of any shard log grew — through its own appends, or a log
//!   tail `open` had to scan — it saves checkpoints of its shard logs,
//!   in the manner of a Bitcask hint file, into one file,
//!   `index/shards.idx` beside `shards/`. A later checkpoint of a shard
//!   supersedes the earlier ones, so a save appends, in one write, a
//!   checkpoint for each log that grew and a void one for each log the
//!   store can no longer vouch for. It compacts instead — a checkpoint
//!   of every shard log whose on-disk length still equals its view,
//!   written to a temporary file and renamed — when the file is not the
//!   one `open` parsed whole, or when the superseded checkpoints would
//!   make it more than twice that size. Each shard's checkpoint holds
//!   the covered log length, that prefix's [`ScanStats`] and torn-tail
//!   flag, a check (offset and checksum) of the prefix's last line, the
//!   shard's slots after last-wins, and a checksum over its own bytes.
//!   `open` loads a
//!   checkpoint as that shard's slot array and scans only the log
//!   beyond it: ~32 bytes per record instead of validating and hashing
//!   every line. A checkpoint is invalidated — and its shard scanned
//!   whole, as before — by a log shorter than the covered length, a log
//!   grown past a covered torn tail, a different last line, or damage
//!   to the checkpoint itself.
//!   A checkpoint can only ever cost a miss, never a wrong value:
//!   [`Store::get`] compares the full stored key, and
//!   [`Store::records`] re-hashes every key a checkpoint supplied.
//!   Deleting `index/` is always safe, builds that predate it ignore
//!   it, and a torn append costs only a rescan of the log tails its
//!   checkpoints would have covered.
//! * **No invalidation logic.** Values never expire; changing any
//!   fingerprinted input changes the key, so stale records simply stop
//!   being addressed. Bump a key-side format salt to retire a whole
//!   generation at once.
//!
//! # Example
//!
//! ```
//! use offramps_store::Store;
//!
//! let dir = std::env::temp_dir().join("offramps-store-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = Store::open(&dir).unwrap();
//! assert!(store.get("scenario A").is_none());
//! store.put("scenario A", "result payload").unwrap();
//! assert_eq!(store.get("scenario A"), Some("result payload"));
//!
//! // Dropping the store saves a checkpoint of its index; reopening
//! // loads it instead of rescanning the shard log.
//! drop(store);
//! let store = Store::open(&dir).unwrap();
//! assert_eq!(store.len(), 1);
//! assert_eq!(store.get("scenario A"), Some("result payload"));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod fingerprint;

use checkpoint::{checksum, LogIndex};
pub use fingerprint::Fingerprint;

use offramps_des::{host_parallelism, pool_map};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufRead as _, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Number of shard logs a store fans its records over (fingerprint top
/// byte).
pub const SHARD_COUNT: usize = 256;

/// On-disk record format tag; bump when the line layout changes.
/// Records with an unknown tag are ignored on load (forward
/// compatibility), so a downgrade sees misses, not corruption.
const RECORD_TAG: &str = "v1";

/// What [`Store::get`] read back for one slot: the `(key, value)` its
/// line held, or `None` when the line no longer reads back as the
/// slot's record. Boxed, so the cells of a shard whose records are not
/// all read stay small.
type SlotRead = OnceLock<Option<Box<(String, String)>>>;

/// One shard log: its index, and its append and checkpoint state.
#[derive(Debug, Default)]
struct Shard {
    /// The append handle, opened by the shard's first [`Store::put`].
    file: Option<fs::File>,
    /// The index of the log's first `index.len` bytes: what
    /// [`Store::open`] indexed, advanced by every append, with the
    /// record slots in fingerprint order. `index.len` is re-measured
    /// when the append handle opens. `index.torn_tail` makes the next
    /// append start with a newline, so the fresh record never fuses
    /// with a torn last write (found at open, or an append that failed
    /// part-way). `index.stats` counts what a rescan of those bytes
    /// would, `superseded` included.
    index: LogIndex,
    /// `index.check` still holds for the log: set by `open` and by a
    /// save that read it back, cleared by an append.
    checked: bool,
    /// How many bytes of the log the checkpoint loaded at open covered
    /// (0 without one). Their slots were indexed without hashing any
    /// key, so [`Store::records`] hashes them.
    loaded: u64,
    /// The index no longer describes the log's first `index.len` bytes:
    /// an append found the log longer or shorter than `open` left it,
    /// or failed part-way. No checkpoint is saved for it.
    stale: bool,
}

/// Rollup of the shard logs [`Store::open`] indexed: how many lines
/// they hold and what became of each. `records` counts lines that
/// parsed; `superseded` counts parsed lines that an earlier line's
/// fingerprint already occupied (rewrite history, last wins); `torn`
/// and `foreign` partition the skipped lines into damage (bad UTF-8,
/// framing, fingerprint/key disagreement, a record in another shard's
/// log) versus other format generations (unknown record tag). Purely a
/// function of the bytes on disk, so it is deterministic for a given
/// store state.
///
/// A shard loaded from its checkpoint (its section of
/// `index/shards.idx`, see the [crate docs](crate)) reports the counts
/// the checkpoint saved for the log prefix it covers, plus a scan of
/// the log beyond that prefix: the counts a full rescan gives. A
/// checkpoint holds the covered length, these counts, the torn-tail
/// flag, a check of the covered prefix's last line and the shard's
/// slots after last-wins. It is used only while the log is at least
/// that long (and no longer, if the prefix ends torn) and ends the
/// prefix with the same last line; otherwise the shard is rescanned. A
/// checkpoint can only ever cost a miss, never a wrong value: every
/// read re-checks the line it lands on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Non-empty lines walked across all shard logs.
    pub lines: usize,
    /// Lines that parsed into a record (including superseded ones).
    pub records: usize,
    /// Parsed lines overwritten by a later line for the same key.
    pub superseded: usize,
    /// Damaged lines skipped: torn writes, bad escapes or UTF-8,
    /// fingerprint/key mismatches, records in another shard's log.
    pub torn: usize,
    /// Well-framed lines in a foreign format generation (unknown tag).
    pub foreign: usize,
}

/// The checkpoint file as [`Store::open`] parsed it whole (its header
/// and sections spanned exactly its bytes): enough to tell at save time
/// whether the file is still those bytes.
#[derive(Debug, Clone, Copy)]
struct ParsedCheckpoints {
    /// The file's length.
    len: u64,
    /// Its last word: the last section's checksum, or the header.
    tail: [u8; 8],
}

/// A content-addressed record store rooted at a directory.
///
/// See the [crate docs](crate) for layout and guarantees. All methods
/// take the whole store; writers serialize through `&mut self` —
/// callers running producers in parallel collect results first and
/// append them in a deterministic order. Readers may share it: a
/// `&Store` is `Sync`, and [`Store::get`] from any number of threads
/// returns what the same calls return one after another.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    scan: ScanStats,
    /// One entry per shard log, indexed by shard.
    shards: Vec<Shard>,
    /// The checkpoint file, when `open` parsed it whole; `None` makes
    /// the next save rewrite it.
    checkpoints: Option<ParsedCheckpoints>,
    /// What [`Store::get`] read back, indexed by shard: once the shard's
    /// first `get` ran, one cell per slot of its index. An append to
    /// the shard drops them.
    reads: Vec<OnceLock<Vec<SlotRead>>>,
    /// The line [`Store::put`] escapes each record into, reused across
    /// records.
    line: String,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`, indexing
    /// every shard log. A shard whose checkpoint still matches its log
    /// loads the checkpoint and scans only the log beyond it; any other
    /// shard is scanned whole. A scanned line is fully validated, but
    /// only its key is decoded: values stay on disk until a
    /// [`Store::get`] reads them. The shards are indexed on the host's
    /// cores, each into an index of its own, so the index and
    /// [`Store::scan_stats`] do not depend on the worker count.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory tree or
    /// reading shard logs. Malformed *lines* are skipped and counted
    /// ([`Store::scan_stats`]), and unusable checkpoints are ignored:
    /// neither is an error.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        Store::open_with(root.into(), host_parallelism())
    }

    /// [`Store::open`] on `workers` threads.
    fn open_with(root: PathBuf, workers: usize) -> io::Result<Store> {
        fs::create_dir_all(root.join("shards"))?;
        let (opened, checkpoints) = {
            let saved = fs::read(checkpoint_path(&root)).unwrap_or_default();
            let (sections, parsed) = checkpoint::sections(&saved);
            let opened = pool_map(SHARD_COUNT, workers, String::new, |key, shard| {
                open_shard(&root, shard as u8, sections[shard], key)
            });
            let checkpoints = match saved.last_chunk::<8>() {
                Some(&tail) if parsed == saved.len() => Some(ParsedCheckpoints {
                    len: saved.len() as u64,
                    tail,
                }),
                _ => None,
            };
            (opened, checkpoints)
        };
        let mut store = Store {
            root,
            scan: ScanStats::default(),
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            checkpoints,
            reads: (0..SHARD_COUNT).map(|_| OnceLock::new()).collect(),
            line: String::new(),
        };
        for (shard, opened) in store.shards.iter_mut().zip(opened) {
            let Some((index, loaded)) = opened? else {
                continue;
            };
            store.scan.add(&index.stats);
            *shard = Shard {
                index,
                checked: true,
                loaded,
                ..Shard::default()
            };
        }
        Ok(store)
    }

    /// Number of distinct records indexed.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index.slots.len()).sum()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.index.slots.is_empty())
    }

    /// The rollup of the shard logs as [`Store::open`] indexed them,
    /// from checkpoints or scans alike. Frozen at [`Store::open`]:
    /// later [`Store::put`]s do not move it.
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// Looks up the value stored under `key`, verifying the full key —
    /// a fingerprint collision reads as a miss. The first lookup of a
    /// record reads its line from the shard log and keeps it; a line
    /// that no longer reads back whole, or under another fingerprint,
    /// is a miss too.
    pub fn get(&self, key: &str) -> Option<&str> {
        let (shard, at) = self.find(Fingerprint::of(key));
        self.value(shard, at.ok()?, key)
    }

    /// `fp`'s shard, and where in that shard's slots `fp`'s slot is
    /// (`Ok`) or would be inserted (`Err`).
    fn find(&self, fp: Fingerprint) -> (usize, Result<usize, usize>) {
        let shard = usize::from(fp.shard());
        let slots = &self.shards[shard].index.slots;
        (shard, slots.binary_search_by_key(&fp, |slot| slot.0))
    }

    /// The value the `at`th slot of `shard` holds for `key`. The first
    /// call reads the line from the shard log and keeps it. A line that
    /// no longer reads back whole, or under another fingerprint, reads
    /// as `None`, and so does another key.
    fn value(&self, shard: usize, at: usize, key: &str) -> Option<&str> {
        let slots = &self.shards[shard].index.slots;
        let reads =
            self.reads[shard].get_or_init(|| slots.iter().map(|_| OnceLock::new()).collect());
        let (stored_key, value) = reads[at]
            .get_or_init(|| read_slot(&self.root, slots[at]))
            .as_deref()?;
        (stored_key == key).then_some(value.as_str())
    }

    /// Stores `value` under `key`, appending to the key's shard log.
    /// Re-putting an identical record is a no-op; a different value for
    /// an existing key appends a superseding line (last wins on
    /// reload). The first append to a shard whose log had a torn tail
    /// terminates that tail first. Each record is escaped in one pass
    /// into a line buffer the store reuses, then written with one
    /// unbuffered write through the shard's append handle, which stays
    /// open for the store's lifetime (at most [`SHARD_COUNT`] files):
    /// once `put` returns, the record is in the OS.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening or appending the shard log.
    pub fn put(&mut self, key: &str, value: &str) -> io::Result<()> {
        let fp = Fingerprint::of(key);
        // One search of the shard's slots serves the no-op check and
        // the insert.
        let (s, at) = self.find(fp);
        if at.is_ok_and(|at| self.value(s, at, key) == Some(value)) {
            return Ok(());
        }
        let shard = &mut self.shards[s];
        let mut file = match shard.file.take() {
            Some(file) => file,
            None => {
                let file = fs::File::options()
                    .append(true)
                    .create(true)
                    .open(shard_path(&self.root, fp.shard()))?;
                let len = file.metadata()?.len();
                shard.stale |= len != shard.index.len;
                shard.index.len = len;
                file
            }
        };
        let index = &mut shard.index;
        let lead = usize::from(index.torn_tail);
        let line = &mut self.line;
        line.clear();
        if index.torn_tail {
            line.push('\n');
        }
        line.push_str(RECORD_TAG);
        line.push('\t');
        let _ = write!(line, "{fp}");
        line.push('\t');
        escape_into(key, line);
        line.push('\t');
        escape_into(value, line);
        line.push('\n');
        // On failure the handle drops, so the next append reopens and
        // re-measures the log; whatever part of the line landed is
        // treated as a torn tail.
        file.write_all(line.as_bytes()).inspect_err(|_| {
            index.torn_tail = true;
            shard.stale = true;
        })?;
        shard.file = Some(file);
        let offset = index.len + lead as u64;
        index.len += line.len() as u64;
        index.torn_tail = false;
        index.last_line = offset;
        shard.checked = false;
        index.stats.lines += 1;
        index.stats.records += 1;
        index.stats.superseded += usize::from(at.is_ok());
        let slot = (fp, offset, line.len() - lead - 1);
        match at {
            Ok(at) => index.slots[at] = slot,
            Err(at) => index.slots.insert(at, slot),
        }
        // The cells no longer line up with the slots, or hold the
        // superseded record.
        self.reads[s].take();
        Ok(())
    }

    /// Reads every indexed record back and maps `f` over it as
    /// `(key, value)`, returning the results in fingerprint order —
    /// stable across insertion order, reloads and worker counts — and
    /// the number of records that no longer read back (a shard log
    /// that fails to read, or a line rewritten behind the store or its
    /// checkpoint), which `f` never sees. A record indexed from a
    /// checkpoint has its key re-hashed here, since `open` did not
    /// hash it: a key that no longer fingerprints to its slot does not
    /// read back. Each shard log is read once, on the host's cores,
    /// where the worker walks that shard's slot array in place (shard
    /// order, then fingerprint order within the shard, is fingerprint
    /// order), and `f` runs there too: each worker unescapes into
    /// buffers of its own, so `f` borrows both strings.
    pub fn records<T: Send>(&self, f: impl Fn(&str, &str) -> T + Sync) -> (Vec<T>, usize) {
        self.records_with(host_parallelism(), f)
    }

    /// [`Store::records`] on `workers` threads.
    fn records_with<T: Send>(
        &self,
        workers: usize,
        f: impl Fn(&str, &str) -> T + Sync,
    ) -> (Vec<T>, usize) {
        let (root, shards) = (&self.root, &self.shards);
        let init = || (String::new(), String::new());
        let read = pool_map(SHARD_COUNT, workers, init, |(key, value), shard| {
            let Shard { index, loaded, .. } = &shards[shard];
            if index.slots.is_empty() {
                return Vec::new();
            }
            let bytes = fs::read(shard_path(root, shard as u8)).unwrap_or_default();
            index
                .slots
                .iter()
                .filter_map(|&(fp, offset, len)| {
                    let start = usize::try_from(offset).ok()?;
                    read_record(&bytes, start, len, fp, offset < *loaded, key, value)?;
                    Some(f(key, value))
                })
                .collect::<Vec<T>>()
        });
        let read: Vec<T> = read.into_iter().flatten().collect();
        let unreadable = self.len() - read.len();
        (read, unreadable)
    }

    /// Saves the index checkpoints to `index/shards.idx`.
    ///
    /// When the file is still the one `open` parsed whole, the save
    /// appends to it, in one write: a section for each shard log whose
    /// index grew since open, and a void section for each one the store
    /// can no longer vouch for (an append found it changed behind the
    /// store, or it is no longer as long as the index says). Every other
    /// shard's last section is the one `open` loaded, so the file's last
    /// sections are what a whole rewrite would hold, and only the logs
    /// that grew are read back.
    ///
    /// Otherwise — and when appending would make the file more than
    /// [`COMPACTION_FACTOR`] times the size of a whole rewrite — it
    /// compacts: the checkpoint of every shard log that is still as long
    /// as the store's view of it goes into a temporary file, which is
    /// then renamed over the old one. A log that cannot be read back
    /// loses its checkpoint, and the next open scans it.
    fn save_checkpoints(&mut self) -> io::Result<()> {
        let path = checkpoint_path(&self.root);
        let parsed = self
            .checkpoints
            .and_then(|parsed| Some((parsed, parsed.reopen(&path)?)));
        if let Some((parsed, mut file)) = parsed {
            let mut out = Vec::new();
            let mut compacted = checkpoint::file_header().len();
            for (shard, state) in (0..=u8::MAX).zip(&mut self.shards) {
                if !state.stale && state.index.len == state.loaded {
                    // The section `open` loaded, if any, is still the
                    // shard's last.
                    if state.loaded > 0 {
                        compacted += state.index.encoded_len();
                    }
                    continue;
                }
                let check = match state.stale {
                    true => None,
                    false => current_check(&self.root, shard, state).ok().flatten(),
                };
                match check {
                    Some(check) => {
                        (state.index.check, state.checked) = (check, true);
                        state.index.encode_into(shard, &mut out);
                        compacted += state.index.encoded_len();
                    }
                    None => LogIndex::default().encode_into(shard, &mut out),
                }
            }
            if parsed.len + out.len() as u64 <= (COMPACTION_FACTOR * compacted) as u64 {
                return file.write_all(&out);
            }
        }
        let mut out = checkpoint::file_header();
        for (shard, state) in (0..=u8::MAX).zip(&mut self.shards) {
            if state.stale || state.index.len == 0 {
                continue;
            }
            let Ok(Some(check)) = current_check(&self.root, shard, state) else {
                continue;
            };
            state.index.check = check;
            state.index.encode_into(shard, &mut out);
        }
        if let Err(e) = fs::create_dir(path.parent().expect("the index directory")) {
            if e.kind() != io::ErrorKind::AlreadyExists {
                return Err(e);
            }
        }
        let tmp = path.with_extension(format!("{}.tmp", std::process::id()));
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }
}

/// A save appends to the checkpoint file only while the result stays
/// within this many times the size of a whole rewrite; past that it
/// rewrites the file whole.
const COMPACTION_FACTOR: usize = 2;

impl ParsedCheckpoints {
    /// The checkpoint file at `path`, opened to append, if it is still
    /// the file `open` parsed: as long, and ending in the same word.
    fn reopen(&self, path: &Path) -> Option<fs::File> {
        let mut file = fs::File::options()
            .read(true)
            .append(true)
            .open(path)
            .ok()?;
        file.seek(SeekFrom::Start(self.len.checked_sub(8)?)).ok()?;
        let mut tail = [0; 8];
        file.read_exact(&mut tail).ok()?;
        let same = file.metadata().ok()?.len() == self.len && tail == self.tail;
        same.then_some(file)
    }
}

impl Drop for Store {
    /// Saves the checkpoints if the indexed prefix of any shard log grew
    /// while the store was open, through its own appends or a tail
    /// `open` scanned: by appending the sections that changed to the
    /// file `open` parsed, or by rewriting it whole. Failures are
    /// ignored — the next open rescans instead — and a removed store
    /// directory is left removed.
    fn drop(&mut self) {
        if self
            .shards
            .iter()
            .any(|s| !s.stale && s.index.len > s.loaded)
        {
            let _ = self.save_checkpoints();
        }
    }
}

impl ScanStats {
    fn add(&mut self, other: &ScanStats) {
        self.lines += other.lines;
        self.records += other.records;
        self.superseded += other.superseded;
        self.torn += other.torn;
        self.foreign += other.foreign;
    }
}

/// Reads the record `slot` points at back from its shard log under
/// `root`: the line plus one byte either side, so [`read_record`] can
/// check that the slot spans one whole line.
fn read_slot(root: &Path, (fp, offset, len): LineSpan) -> Option<Box<(String, String)>> {
    let mut file = fs::File::open(shard_path(root, fp.shard())).ok()?;
    let lead = u64::from(offset > 0);
    file.seek(SeekFrom::Start(offset - lead)).ok()?;
    let mut window = Vec::with_capacity(len + 2);
    file.take(lead + len as u64 + 1)
        .read_to_end(&mut window)
        .ok()?;
    let (mut key, mut value) = (String::new(), String::new());
    read_record(&window, lead as usize, len, fp, false, &mut key, &mut value)?;
    Some(Box::new((key, value)))
}

fn shard_path(root: &Path, shard: u8) -> PathBuf {
    root.join("shards").join(format!("{shard:02x}.log"))
}

fn checkpoint_path(root: &Path) -> PathBuf {
    root.join("index").join("shards.idx")
}

/// The check of `shard`'s log under `root` as `state` describes it
/// (`None` when the log is no longer `state.index.len` bytes long):
/// kept from `open`, or read back after an append.
fn current_check(root: &Path, shard: u8, state: &Shard) -> io::Result<Option<u64>> {
    let index = &state.index;
    let mut log = fs::File::open(shard_path(root, shard))?;
    if log.metadata()?.len() != index.len {
        return Ok(None);
    }
    if state.checked {
        return Ok(Some(index.check));
    }
    log.seek(SeekFrom::Start(index.last_line))?;
    let mut last_line = Vec::new();
    log.take(index.len - index.last_line)
        .read_to_end(&mut last_line)?;
    Ok(Some(checksum(&last_line)))
}

/// Indexes `shard`'s log under `root`: from its checkpoint `section`
/// and a scan of the log beyond it when the checkpoint still matches
/// the log, by a scan of the whole log otherwise. Returns the index and
/// how many bytes of the log the checkpoint covered (0 without one), or
/// `None` when there is no log. The checkpoint matches when the log is
/// at least as long as the prefix it covers, no longer if that prefix
/// ends in a torn tail (appended bytes would fuse with it), and carries
/// the same last line. `key` is a buffer reused across lines.
fn open_shard(
    root: &Path,
    shard: u8,
    section: &[u8],
    key: &mut String,
) -> io::Result<Option<(LogIndex, u64)>> {
    let mut log = match fs::File::open(shard_path(root, shard)) {
        Ok(log) => log,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    // The log from `index.last_line` on: the checked line, then the
    // tail to scan.
    let mut bytes = Vec::new();
    let mut index = LogIndex::default();
    if let Some(saved) = LogIndex::decode(section, shard) {
        log.seek(SeekFrom::Start(saved.last_line))?;
        log.read_to_end(&mut bytes)?;
        let checked = usize::try_from(saved.len - saved.last_line).unwrap_or(usize::MAX);
        let matches = bytes
            .get(..checked)
            .is_some_and(|line| checksum(line) == saved.check)
            && !(saved.torn_tail && bytes.len() > checked);
        if matches {
            index = saved;
        } else {
            log.rewind()?;
            bytes.clear();
        }
    }
    let (loaded, base) = (index.len, index.last_line);
    if loaded == 0 {
        log.read_to_end(&mut bytes)?;
    }
    scan_log(&mut index, &bytes[(loaded - base) as usize..], shard, key)?;
    index.check = checksum(&bytes[(index.last_line - base) as usize..]);
    Ok(Some((index, loaded)))
}

/// Where one record line sits in its shard log: `(fingerprint, byte
/// offset, length without the newline)`.
type LineSpan = (Fingerprint, u64, usize);

/// Extends `index`, the index of the first `index.len` bytes of
/// `shard`'s log, over `tail`, the bytes that follow them. Lines are
/// counted and indexed as a scan of the whole log would: a tail record
/// whose fingerprint the index already holds supersedes it, and the
/// slots stay in fingerprint order. A well-formed record whose
/// fingerprint belongs to another shard is damage: every read of that
/// key goes to its own shard's log. `key` is a buffer reused across
/// lines.
fn scan_log(index: &mut LogIndex, tail: &[u8], shard: u8, key: &mut String) -> io::Result<()> {
    if let Some(&last) = tail.last() {
        index.torn_tail = last != b'\n';
    }
    let stats = &mut index.stats;
    let slots = &mut index.slots;
    let indexed = slots.len();
    // Split on raw newlines and validate UTF-8 per *line*: one
    // corrupted record must degrade to one skipped line, never poison
    // the whole store. `skip_until` finds each newline with the
    // platform's `memchr`: a byte-at-a-time loop here ran at a speed
    // that moved with where the linker happened to place it.
    let mut offset = index.len;
    let mut rest = tail;
    while !rest.is_empty() {
        let line = rest;
        let taken = rest.skip_until(b'\n')?;
        let raw = &line[..taken];
        let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
        let start = offset;
        offset += taken as u64;
        if raw.is_empty() {
            continue;
        }
        index.last_line = start;
        stats.lines += 1;
        match std::str::from_utf8(raw)
            .ok()
            .map(|line| parse_line(line, key))
        {
            Some(ParsedLine::Record(fp)) if fp.shard() == shard => {
                stats.records += 1;
                slots.push((fp, start, raw.len()));
            }
            Some(ParsedLine::Foreign) => stats.foreign += 1,
            Some(ParsedLine::Record(_) | ParsedLine::Torn) | None => stats.torn += 1,
        }
    }
    index.len = offset;
    if slots.len() > indexed {
        // Newest first, then a stable sort: each fingerprint's first
        // slot is its last line.
        let pushed = slots.len();
        slots.reverse();
        slots.sort_by_key(|s| s.0);
        slots.dedup_by_key(|s| s.0);
        stats.superseded += pushed - slots.len();
    }
    Ok(())
}

/// Appends `s` to `out`, escaped for the one-line record format:
/// backslash, tab, LF and CR — everything the line/field framing uses.
/// The runs between escapes are copied whole.
fn escape_into(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(at) = next_escape(rest.as_bytes()) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        // The escaped byte is ASCII, so `at + 1` is a char boundary.
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// The index of the first byte of `bytes` that [`escape_into`] escapes,
/// found eight bytes at a time. For each byte class, `zero_bytes`
/// flags the bytes of a word that equal it; only the lowest flag is
/// exact (a borrow can flag the bytes above a match), and the lowest is
/// all this reads.
fn next_escape(bytes: &[u8]) -> Option<usize> {
    const fn splat(b: u8) -> u64 {
        u64::from_ne_bytes([b; 8])
    }
    let zero_bytes = |w: u64| w.wrapping_sub(splat(0x01)) & !w & splat(0x80);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let mut le = [0; 8];
        le.copy_from_slice(word);
        let w = u64::from_le_bytes(le);
        let hits = zero_bytes(w ^ splat(b'\\'))
            | zero_bytes(w ^ splat(b'\t'))
            | zero_bytes(w ^ splat(b'\n'))
            | zero_bytes(w ^ splat(b'\r'));
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder();
    let hit = tail
        .iter()
        .position(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'));
    hit.map(|i| at + i)
}

/// Reverses [`escape_into`], handing `emit` the unescaped text in
/// runs: the stretches between backslashes, and each escape's
/// character. `None` on a dangling or unknown escape.
fn unescape_runs<'a>(s: &'a str, mut emit: impl FnMut(&'a str)) -> Option<()> {
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        emit(&rest[..at]);
        emit(match rest.as_bytes().get(at + 1)? {
            b'\\' => "\\",
            b't' => "\t",
            b'n' => "\n",
            b'r' => "\r",
            _ => return None,
        });
        // Both escape bytes are ASCII, so `at + 2` is a char boundary.
        rest = &rest[at + 2..];
    }
    emit(rest);
    Some(())
}

/// Reverses [`escape_into`] into `out`, replacing what it held.
fn unescape_into(s: &str, out: &mut String) -> Option<()> {
    out.clear();
    unescape_runs(s, |run| out.push_str(run))
}

/// What one shard-log line turned out to be.
enum ParsedLine {
    /// A well-formed record in the current format.
    Record(Fingerprint),
    /// A line carrying an unknown format tag — another generation's
    /// record, skipped for forward compatibility.
    Foreign,
    /// Damage: wrong field count, bad escapes, fingerprint/key
    /// disagreement.
    Torn,
}

/// Classifies one shard-log line (see [`ParsedLine`]). The key is
/// unescaped into `key`, a buffer reused across lines, to check it
/// against the fingerprint; the value's escapes are checked without
/// decoding it.
fn parse_line(line: &str, key: &mut String) -> ParsedLine {
    let mut fields = line.split('\t');
    match fields.next() {
        Some(tag) if tag == RECORD_TAG => {}
        // An unknown tag only reads as "foreign format" when the line
        // is at least framed like a record (tag field + payload);
        // tab-less garbage is damage.
        Some(_) if line.contains('\t') => return ParsedLine::Foreign,
        _ => return ParsedLine::Torn,
    }
    let parsed = (|| {
        let fp = Fingerprint::from_hex(fields.next()?)?;
        unescape_into(fields.next()?, key)?;
        unescape_runs(fields.next()?, |_| {})?;
        (fields.next().is_none() && Fingerprint::of(key) == fp).then_some(fp)
    })();
    parsed.map_or(ParsedLine::Torn, ParsedLine::Record)
}

/// Decodes the record an index slot for `fp` points at — the `len`
/// bytes at `start` in `bytes` — into `key` and `value`. The span must
/// be one whole line — preceded by a newline or the start of the log,
/// followed by a newline or its end — so a slot over a rewritten log
/// never reads a prefix or a tail of some other line. The line must
/// carry the current tag and `fp`. With `rehash`, the key must also
/// fingerprint to `fp`: set it for a slot a checkpoint supplied, whose
/// key `open` never hashed.
fn read_record(
    bytes: &[u8],
    start: usize,
    len: usize,
    fp: Fingerprint,
    rehash: bool,
    key: &mut String,
    value: &mut String,
) -> Option<()> {
    let end = start.checked_add(len)?;
    let line = bytes.get(start..end)?;
    let whole =
        (start == 0 || bytes[start - 1] == b'\n') && bytes.get(end).is_none_or(|&b| b == b'\n');
    if !whole {
        return None;
    }
    let mut fields = std::str::from_utf8(line).ok()?.split('\t');
    if fields.next()? != RECORD_TAG || Fingerprint::from_hex(fields.next()?)? != fp {
        return None;
    }
    unescape_into(fields.next()?, key)?;
    unescape_into(fields.next()?, value)?;
    (fields.next().is_none() && (!rehash || Fingerprint::of(key) == fp)).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Lines skipped while loading (torn writes, foreign format tags).
    fn malformed(store: &Store) -> usize {
        let scan = store.scan_stats();
        scan.torn + scan.foreign
    }

    /// Every record the bulk read returns, owned, and the count it
    /// could not read back.
    fn pairs(store: &Store) -> (Vec<(String, String)>, usize) {
        store.records(|k, v| (k.to_string(), v.to_string()))
    }

    /// Every slot the store indexes, in fingerprint order.
    pub(crate) fn spans(store: &Store) -> Vec<LineSpan> {
        let slots = store.shards.iter().flat_map(|s| &s.index.slots);
        slots.copied().collect()
    }

    fn temp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("offramps-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Replaces `scratch` with a copy of the shard logs under `root`,
    /// without `index/`.
    pub(crate) fn copy_logs(root: &Path, scratch: &Path) {
        let _ = fs::remove_dir_all(scratch);
        fs::create_dir_all(scratch.join("shards")).unwrap();
        for entry in fs::read_dir(root.join("shards")).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), scratch.join("shards").join(entry.file_name())).unwrap();
        }
    }

    /// What a checkpoint-less open of the shard logs under `root`
    /// reports, and the checkpoint file its drop writes whole (empty
    /// when it saves none): both from a copy of the logs in `scratch`.
    fn whole_save(root: &Path, scratch: &Path) -> (ScanStats, Vec<u8>) {
        copy_logs(root, scratch);
        let store = Store::open_with(scratch.to_path_buf(), 1).unwrap();
        assert!(store.shards.iter().all(|s| s.loaded == 0));
        let scan = store.scan_stats();
        drop(store);
        (scan, fs::read(checkpoint_path(scratch)).unwrap_or_default())
    }

    /// How a dropped store saved its checkpoints.
    #[derive(Debug, PartialEq)]
    enum Saved {
        Nothing,
        Appended,
        Rewrote,
    }

    /// Drops `store` and checks its save against a whole save of the
    /// same logs (made in `scratch`): it appended to the file `open`
    /// parsed whole, which stays a prefix and whose last sections then
    /// decode as the whole save's do, or it rewrote the file to exactly
    /// the whole save's bytes. Either way the file ends at most twice
    /// the whole save's size.
    fn drop_and_check(store: Store, scratch: &Path) -> Saved {
        let root = store.root.clone();
        let path = checkpoint_path(&root);
        let before = fs::read(&path).ok();
        let parsed_whole = store.checkpoints.is_some();
        let saves = store
            .shards
            .iter()
            .any(|s| !s.stale && s.index.len > s.loaded);
        drop(store);
        let after = fs::read(&path).ok();
        if !saves {
            assert_eq!(after, before, "a store that grew nothing saves nothing");
            return Saved::Nothing;
        }
        let (_, whole) = whole_save(&root, scratch);
        let after = after.expect("the save wrote the file");
        assert!(after.len() <= 2 * whole.len(), "{} bytes", after.len());
        if after == whole {
            return Saved::Rewrote;
        }
        assert!(parsed_whole, "only a file parsed whole is appended to");
        let before = before.expect("the parsed file");
        assert!(after.len() > before.len() && after.starts_with(&before));
        let last_sections = |bytes: &[u8]| {
            let (sections, parsed) = checkpoint::sections(bytes);
            assert_eq!(parsed, bytes.len());
            let decode = |s: u8| LogIndex::decode(sections[usize::from(s)], s);
            (0..=u8::MAX).map(decode).collect::<Vec<_>>()
        };
        assert!(last_sections(&after) == last_sections(&whole));
        Saved::Appended
    }

    #[test]
    fn put_get_round_trips_awkward_content() {
        let root = temp_root("roundtrip");
        let mut store = Store::open(&root).unwrap();
        let cases = [
            ("plain", "value"),
            (
                "tabs\tand\nnewlines\r",
                "payload with\ttab and \\backslash\\ and\nnewline",
            ),
            ("unicode 😀 κλειδί", "{\n  \"json\": \"läuft\"\n}"),
            ("", "empty key is a key too"),
        ];
        for (k, v) in cases {
            store.put(k, v).unwrap();
        }
        for (k, v) in cases {
            assert_eq!(store.get(k), Some(v), "key {k:?}");
        }
        // Survives a reload.
        let reloaded = Store::open(&root).unwrap();
        assert_eq!(reloaded.len(), cases.len());
        assert_eq!(malformed(&reloaded), 0);
        for (k, v) in cases {
            assert_eq!(reloaded.get(k), Some(v), "reloaded key {k:?}");
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rewrite_last_wins_and_identical_put_is_noop() {
        let root = temp_root("rewrite");
        let mut store = Store::open(&root).unwrap();
        store.put("k", "first").unwrap();
        store.put("k", "first").unwrap(); // no-op
        store.put("k", "second").unwrap();
        assert_eq!(store.get("k"), Some("second"));
        assert_eq!(store.len(), 1);

        let reloaded = Store::open(&root).unwrap();
        assert_eq!(reloaded.get("k"), Some("second"), "last line wins");
        // The no-op put must not have appended: shard log has 2 lines.
        let shard = shard_path(&reloaded.root, Fingerprint::of("k").shard());
        assert_eq!(fs::read_to_string(shard).unwrap().lines().count(), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn records_shard_by_fingerprint_prefix() {
        let root = temp_root("shards");
        let mut store = Store::open(&root).unwrap();
        for i in 0..64 {
            store.put(&format!("key-{i}"), "v").unwrap();
        }
        let shard_files = (0..SHARD_COUNT)
            .filter(|&s| shard_path(&store.root, s as u8).exists())
            .count();
        assert!(shard_files > 16, "{shard_files} shard files");
        for i in 0..64 {
            let key = format!("key-{i}");
            let shard = shard_path(&store.root, Fingerprint::of(&key).shard());
            let log = fs::read_to_string(shard).unwrap();
            assert!(log.contains(&Fingerprint::of(&key).hex()));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_foreign_and_non_utf8_lines_are_skipped() {
        let root = temp_root("torn");
        let mut store = Store::open(&root).unwrap();
        store.put("good", "value").unwrap();
        let shard = shard_path(&store.root, Fingerprint::of("good").shard());
        let mut log = fs::read(&shard).unwrap();
        log.extend_from_slice(b"v1\tdeadbeef"); // torn mid-record, no newline
        fs::write(&shard, &log).unwrap();
        let other = shard_path(&store.root, Fingerprint::of("good").shard().wrapping_add(1));
        // A foreign future tag, a blank line (ignored, not malformed),
        // a garbage line, a non-UTF-8 line, and a 32-byte fingerprint
        // field with a multibyte character across byte 16: each
        // skipped on its own, never poisoning the rest of the store.
        let mut junk = b"v9\tsome future format\n\nnot a record\n".to_vec();
        junk.extend_from_slice(b"v1\t\xff\xfe broken utf8\n");
        junk.extend_from_slice(b"v1\taaaaaaaaaaaaaaa\xc3\xa9aaaaaaaaaaaaaaa\tk\tv\n");
        fs::write(&other, &junk).unwrap();

        let reloaded = Store::open(&root).unwrap();
        assert_eq!(reloaded.get("good"), Some("value"));
        assert_eq!(reloaded.len(), 1);
        assert_eq!(malformed(&reloaded), 5);
        // The scan rollup classifies the skips: the future-tag line is
        // foreign; the torn append, garbage line, non-UTF-8 line and
        // bad fingerprint are damage.
        assert_eq!(
            reloaded.scan_stats(),
            ScanStats {
                lines: 6,
                records: 1,
                superseded: 0,
                torn: 4,
                foreign: 1,
            }
        );
        fs::remove_dir_all(&root).unwrap();
    }

    /// A shard log truncated mid-record loses that record once: the
    /// rewrite after the tear lands on its own line, so the next open
    /// serves it instead of re-tearing it.
    #[test]
    fn append_after_a_torn_tail_starts_a_fresh_line() {
        let root = temp_root("torn-tail");
        let mut store = Store::open(&root).unwrap();
        store.put("scenario", "payload").unwrap();
        let shard = shard_path(&store.root, Fingerprint::of("scenario").shard());
        let log = fs::read(&shard).unwrap();
        fs::write(&shard, &log[..log.len() - 20]).unwrap();

        // Run 1: the torn record misses and is rewritten.
        let mut store = Store::open(&root).unwrap();
        assert_eq!(store.get("scenario"), None);
        store.put("scenario", "payload").unwrap();

        // Run 2: it hits; the fragment stays one skipped line.
        let store = Store::open(&root).unwrap();
        assert_eq!(store.get("scenario"), Some("payload"));
        assert_eq!(store.scan_stats().torn, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    /// A log missing only its final newline keeps its last record, and
    /// the next append does not fuse onto it.
    #[test]
    fn append_after_a_missing_final_newline_keeps_both_records() {
        let root = temp_root("no-final-newline");
        let mut store = Store::open(&root).unwrap();
        store.put("k", "first").unwrap();
        let shard = shard_path(&store.root, Fingerprint::of("k").shard());
        let mut log = fs::read(&shard).unwrap();
        log.pop();
        fs::write(&shard, &log).unwrap();

        let mut store = Store::open(&root).unwrap();
        assert_eq!(store.get("k"), Some("first"));
        store.put("k", "second").unwrap();
        let store = Store::open(&root).unwrap();
        assert_eq!(store.get("k"), Some("second"));
        assert_eq!(malformed(&store), 0);
        fs::remove_dir_all(&root).unwrap();
    }

    /// Blank lines before and between records, and a missing final
    /// newline, shift every offset the scan indexes; each record still
    /// reads back whole.
    #[test]
    fn blank_lines_keep_record_offsets_exact() {
        let root = temp_root("blank-lines");
        let mut store = Store::open(&root).unwrap();
        store.put("k", "first").unwrap();
        store.put("k", "second").unwrap();
        let shard = shard_path(&store.root, Fingerprint::of("k").shard());
        let log = fs::read(&shard).unwrap();
        let text = std::str::from_utf8(&log).unwrap();
        let (first, second) = text.trim_end().split_once('\n').unwrap();
        fs::write(&shard, format!("\n\n{first}\n\n\n{second}")).unwrap();

        let store = Store::open(&root).unwrap();
        assert_eq!(store.get("k"), Some("second"));
        assert_eq!(pairs(&store), (vec![("k".into(), "second".into())], 0));
        assert_eq!(
            store.scan_stats(),
            ScanStats {
                lines: 2,
                records: 2,
                superseded: 1,
                torn: 0,
                foreign: 0,
            }
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_stats_count_superseded_rewrites() {
        let root = temp_root("scan-superseded");
        let mut store = Store::open(&root).unwrap();
        store.put("k", "first").unwrap();
        store.put("k", "second").unwrap();
        store.put("k", "third").unwrap();
        store.put("other", "v").unwrap();
        assert_eq!(store.scan_stats(), ScanStats::default(), "frozen at open");

        let reloaded = Store::open(&root).unwrap();
        assert_eq!(reloaded.get("k"), Some("third"));
        assert_eq!(
            reloaded.scan_stats(),
            ScanStats {
                lines: 4,
                records: 4,
                superseded: 2,
                torn: 0,
                foreign: 0,
            }
        );
        assert_eq!(malformed(&reloaded), 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn iteration_order_is_fingerprint_sorted() {
        let root = temp_root("order");
        let mut a = Store::open(&root).unwrap();
        for i in 0..32 {
            a.put(&format!("k{i}"), &format!("v{i}")).unwrap();
        }
        let (order_a, _) = a.records(|k, _| k.to_string());
        // Insert in reverse into a fresh store: same iteration order.
        let root_b = temp_root("order-b");
        let mut b = Store::open(&root_b).unwrap();
        for i in (0..32).rev() {
            b.put(&format!("k{i}"), &format!("v{i}")).unwrap();
        }
        let (order_b, _) = b.records(|k, _| k.to_string());
        assert_eq!(order_a, order_b);
        let mut sorted = order_a.clone();
        sorted.sort_by_key(|k| Fingerprint::of(k));
        assert_eq!(order_a, sorted);
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&root_b).unwrap();
    }

    #[test]
    fn collision_degrades_to_miss() {
        // Force a fake collision by planting a slot for the probe key's
        // fingerprint over a line that carries that fingerprint but
        // another key: get() must verify the key bytes.
        let root = temp_root("collision");
        let mut store = Store::open(&root).unwrap();
        store.put("real-key", "real-value").unwrap();
        let fp = Fingerprint::of("real-key");
        let shard = shard_path(&store.root, fp.shard());
        let mut log = fs::read(&shard).unwrap();
        let offset = log.len() as u64;
        let planted = format!("{RECORD_TAG}\t{fp}\tother-key\tpoison");
        log.extend_from_slice(planted.as_bytes());
        log.push(b'\n');
        fs::write(&shard, &log).unwrap();
        store.shards[usize::from(fp.shard())].index.slots = vec![(fp, offset, planted.len())];
        assert_eq!(
            store.get("real-key"),
            None,
            "key mismatch must read as a miss"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    /// The record line is pinned byte for byte, on a clean shard and
    /// after a torn tail: stores move between builds in both
    /// directions.
    #[test]
    fn put_writes_the_pinned_line_format() {
        const KEY: &str = "tabs\tand\nnewlines\r";
        const VALUE: &str = "payload with\ttab and \\backslash\\ and\nnewline";
        const LINE: &[u8] = b"v1\t147c24ed7cc49838ccd52f32322c1c6b\ttabs\\tand\\nnewlines\\r\t\
            payload with\\ttab and \\\\backslash\\\\ and\\nnewline\n";
        let root = temp_root("format");
        let mut store = Store::open(&root).unwrap();
        store.put(KEY, VALUE).unwrap();
        let shard = shard_path(&store.root, Fingerprint::of(KEY).shard());
        assert_eq!(fs::read(&shard).unwrap(), LINE);

        fs::write(&shard, b"v1\tdeadbeef").unwrap();
        let mut store = Store::open(&root).unwrap();
        store.put(KEY, VALUE).unwrap();
        assert_eq!(
            fs::read(&shard).unwrap(),
            [b"v1\tdeadbeef\n".as_slice(), LINE].concat()
        );
        fs::remove_dir_all(&root).unwrap();
    }

    /// A slot over a shard log rewritten behind the open store reads as
    /// a miss: never a prefix of a longer line, never a line's tail.
    #[test]
    fn stale_slot_is_a_miss_never_a_prefix() {
        let root = temp_root("stale");
        let mut store = Store::open(&root).unwrap();
        store.put("k", "abc").unwrap();
        let shard = shard_path(&store.root, Fingerprint::of("k").shard());
        let line = |value: &str| format!("{RECORD_TAG}\t{}\tk\t{value}\n", Fingerprint::of("k"));

        // A longer value for `k` at the slot's offset: the slot spans
        // only a prefix of that line.
        let store = Store::open(&root).unwrap();
        fs::write(&shard, line("abcdef")).unwrap();
        assert_eq!(store.get("k"), None);
        assert_eq!(pairs(&store), (vec![], 1));

        // The slot's bytes are intact, but the newline before them is
        // gone: the offset now lands mid-line.
        fs::write(&shard, line("x") + &line("abc")).unwrap();
        let store = Store::open(&root).unwrap();
        let fused = line("x").replace('\n', "Q") + &line("abc");
        fs::write(&shard, fused).unwrap();
        assert_eq!(store.get("k"), None);
        assert_eq!(pairs(&store), (vec![], 1));
        fs::remove_dir_all(&root).unwrap();
    }

    /// Appends advance the shard's end offset, past a torn tail's
    /// terminating newline too, so the same store serves what it just
    /// put without a reopen.
    #[test]
    fn the_same_store_serves_its_appends() {
        let root = temp_root("same-store");
        let mut store = Store::open(&root).unwrap();
        store.put("scenario", "payload").unwrap();
        let shard = shard_path(&store.root, Fingerprint::of("scenario").shard());
        let log = fs::read(&shard).unwrap();
        fs::write(&shard, &log[..log.len() - 20]).unwrap();

        let mut store = Store::open(&root).unwrap();
        assert_eq!(store.get("scenario"), None);
        store.put("scenario", "payload").unwrap();
        assert_eq!(store.get("scenario"), Some("payload"));
        store.put("scenario", "second").unwrap();
        assert_eq!(store.get("scenario"), Some("second"));

        // A handle opened over a log that already holds records.
        let mut store = Store::open(&root).unwrap();
        store.put("scenario", "third").unwrap();
        assert_eq!(store.get("scenario"), Some("third"));
        assert_eq!(
            pairs(&store),
            (vec![("scenario".to_string(), "third".to_string())], 0)
        );
        fs::remove_dir_all(&root).unwrap();
    }

    /// A shard log replaced behind the open store loses exactly its own
    /// records from the bulk read, and the read says how many.
    #[test]
    fn records_count_what_a_replaced_shard_log_lost() {
        let root = temp_root("replaced");
        let mut store = Store::open(&root).unwrap();
        for i in 0..40 {
            store.put(&format!("key-{i}"), &format!("v{i}")).unwrap();
        }
        let store = Store::open(&root).unwrap();
        let shard = Fingerprint::of("key-0").shard();
        let lost = (0..40)
            .filter(|i| Fingerprint::of(&format!("key-{i}")).shard() == shard)
            .count();
        fs::write(shard_path(&store.root, shard), "v9\tanother generation\n").unwrap();
        let (read, unreadable) = pairs(&store);
        assert_eq!(unreadable, lost);
        assert_eq!(read.len(), 40 - lost);
        assert!(read
            .iter()
            .all(|(k, _)| Fingerprint::of(k).shard() != shard));
        fs::remove_dir_all(&root).unwrap();
    }

    /// The scan and the bulk read give the same index, counts, torn-tail
    /// flags and records at any worker count, over a store holding
    /// every kind of line the scan tells apart.
    #[test]
    fn scan_and_bulk_read_are_thread_invariant() {
        let root = temp_root("threads");
        let mut store = Store::open(&root).unwrap();
        for i in 0..120 {
            store
                .put(&format!("key-{i}"), &format!("v{i}\twith\nescapes"))
                .unwrap();
        }
        for i in 0..30 {
            store.put(&format!("key-{i}"), "rewritten").unwrap();
        }
        let shard_of = |key: &str| Fingerprint::of(key).shard();
        let append = |shard: u8, bytes: &[u8]| {
            let path = shard_path(&store.root, shard);
            let mut log = fs::read(&path).unwrap_or_default();
            log.extend_from_slice(bytes);
            fs::write(path, log).unwrap();
        };
        // A torn tail, a foreign tag and a non-UTF-8 line.
        append(shard_of("key-1"), b"v1\tdeadbeef");
        append(shard_of("key-2"), b"v9\tsome future format\n");
        append(shard_of("key-3"), b"v1\t\xff\xfe broken utf8\n");
        // A whole record line planted in the next shard's log: damage,
        // which leaves the real slot to serve the key.
        let planted = format!(
            "{RECORD_TAG}\t{}\tkey-4\tplanted\n",
            Fingerprint::of("key-4")
        );
        append(shard_of("key-4").wrapping_add(1), planted.as_bytes());
        // An empty log beside the missing ones.
        let empty = (0..=u8::MAX)
            .find(|&s| !shard_path(&store.root, s).exists())
            .unwrap();
        fs::write(shard_path(&store.root, empty), b"").unwrap();
        drop(store);

        let snapshot = |workers: usize| {
            let store = Store::open_with(root.clone(), workers).unwrap();
            let index = spans(&store);
            let torn_tails: Vec<bool> = store.shards.iter().map(|s| s.index.torn_tail).collect();
            let read = store.records_with(workers, |k, v| (k.to_string(), v.to_string()));
            (index, store.scan_stats(), torn_tails, read)
        };
        let serial = snapshot(1);
        assert_eq!(
            serial.1,
            ScanStats {
                lines: 154,
                records: 150,
                superseded: 30,
                torn: 3,
                foreign: 1,
            }
        );
        assert_eq!(serial.2.iter().filter(|&&t| t).count(), 1);
        assert_eq!(serial.3 .0.len(), 120);
        assert_eq!(serial.3 .1, 0, "every indexed record reads back");
        for workers in [2, 8] {
            assert!(snapshot(workers) == serial, "{workers} workers");
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// A key the model holds (`present`) or does not, chosen by `rng`.
    fn pick(
        rng: &mut offramps_des::DetRng,
        keys: &[String],
        model: &BTreeMap<Fingerprint, (String, String)>,
        present: bool,
    ) -> Option<String> {
        let held = |k: &&String| model.contains_key(&Fingerprint::of(k)) == present;
        let candidates: Vec<&String> = keys.iter().filter(held).collect();
        let at = rng.uniform_u64(0, candidates.len().max(1) as u64) as usize;
        candidates.get(at).map(|k| k.to_string())
    }

    /// Over random sequences of new puts, superseding puts, identical
    /// re-puts, drop-and-reopens, reopens with `index/` deleted and
    /// reopens with `index/shards.idx` cut at a random byte, on keys
    /// packed into three shards, the store agrees with a map model after
    /// every step: every `get`, `len`, the bulk read's records and their
    /// fingerprint order at one and two workers, and the superseded
    /// count its last open saw. Every drop's save is an append to the
    /// file its open parsed whole or a rewrite with a whole save's bytes
    /// (see `drop_and_check`); a cut file opens with the scan counts of
    /// a checkpoint-less open, and unless the cut fell between sections
    /// the next save rewrites it.
    #[test]
    fn the_store_matches_a_map_model() {
        let mut shards = Vec::new();
        let keys: Vec<String> = (0..)
            .map(|i| format!("key-{i}\t{i}"))
            .filter(|k| {
                let shard = Fingerprint::of(k).shard();
                if shards.len() < 3 && !shards.contains(&shard) {
                    shards.push(shard);
                }
                shards.contains(&shard)
            })
            .take(24)
            .collect();
        let values = ["", "plain", "tab\tand\nnewline", "back\\slash"];
        let (mut appended, mut cut_inside) = (0, 0);
        for seed in 0..4 {
            let root = temp_root(&format!("model-{seed}"));
            let scratch = temp_root(&format!("model-{seed}-whole"));
            let mut rng = offramps_des::DetRng::from_seed(seed);
            let mut store = Store::open_with(root.clone(), 2).unwrap();
            let mut model = BTreeMap::new();
            let (mut puts, mut superseded) = (0, 0);
            for step in 0..60 {
                match rng.uniform_u64(0, 6) {
                    0 => {
                        if let Some(key) = pick(&mut rng, &keys, &model, false) {
                            let value = values[rng.uniform_u64(0, 4) as usize];
                            store.put(&key, value).unwrap();
                            model.insert(Fingerprint::of(&key), (key, value.to_string()));
                            puts += 1;
                        }
                    }
                    1 => {
                        if let Some(key) = pick(&mut rng, &keys, &model, true) {
                            let value = format!("{}#{step}", values[step % 4]);
                            store.put(&key, &value).unwrap();
                            model.insert(Fingerprint::of(&key), (key, value));
                            puts += 1;
                        }
                    }
                    2 => {
                        if let Some(key) = pick(&mut rng, &keys, &model, true) {
                            let (_, value) = &model[&Fingerprint::of(&key)];
                            store.put(&key, value).unwrap();
                        }
                    }
                    op => {
                        let saved = drop_and_check(store, &scratch);
                        appended += usize::from(saved == Saved::Appended);
                        let path = checkpoint_path(&root);
                        if op == 4 {
                            let _ = fs::remove_dir_all(root.join("index"));
                        }
                        if let (5, Ok(bytes)) = (op, fs::read(&path)) {
                            let cut = rng.uniform_u64(0, bytes.len() as u64 + 1) as usize;
                            fs::write(&path, &bytes[..cut]).unwrap();
                        }
                        store = Store::open_with(root.clone(), 1 + step % 2).unwrap();
                        if op == 5 {
                            let (scan, _) = whole_save(&root, &scratch);
                            assert_eq!(store.scan_stats(), scan, "seed {seed}, step {step}");
                            let cut = fs::read(&path).unwrap_or_default();
                            let whole =
                                checkpoint::sections(&cut).1 == cut.len() && !cut.is_empty();
                            assert_eq!(store.checkpoints.is_some(), whole);
                            cut_inside += usize::from(!whole);
                        }
                        superseded = puts - model.len();
                    }
                }
                for key in &keys {
                    let want = model.get(&Fingerprint::of(key)).map(|(_, v)| v.as_str());
                    assert_eq!(store.get(key), want, "seed {seed}, step {step}: {key:?}");
                }
                assert_eq!(store.len(), model.len(), "seed {seed}, step {step}");
                let want: Vec<(String, String)> = model.values().cloned().collect();
                for workers in [1, 2] {
                    let read = store.records_with(workers, |k, v| (k.to_string(), v.to_string()));
                    assert_eq!(read, (want.clone(), 0), "seed {seed}, step {step}");
                }
                assert_eq!(store.scan_stats().superseded, superseded, "seed {seed}");
            }
            drop_and_check(store, &scratch);
            fs::remove_dir_all(&root).unwrap();
            fs::remove_dir_all(&scratch).unwrap();
        }
        assert!(appended > 10, "only {appended} saves appended");
        assert!(
            cut_inside > 2,
            "only {cut_inside} cuts fell inside a section"
        );
    }

    /// A store reopened for one superseding put at a time keeps its
    /// checkpoint file within twice the size of a whole save (checked by
    /// `drop_and_check`), and each save appends to it until compaction,
    /// which rewrites it with exactly a whole save's bytes.
    #[test]
    fn appended_saves_compact_at_twice_the_whole_size() {
        let root = temp_root("compaction");
        let scratch = temp_root("compaction-whole");
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
        let mut store = Store::open(&root).unwrap();
        for key in &keys {
            store.put(key, "first").unwrap();
        }
        assert_eq!(
            drop_and_check(store, &scratch),
            Saved::Rewrote,
            "a first save"
        );
        let (mut appended, mut compacted) = (0, 0);
        for round in 0..150 {
            let mut store = Store::open(&root).unwrap();
            store
                .put(&keys[round % 64], &format!("round {round}"))
                .unwrap();
            match drop_and_check(store, &scratch) {
                Saved::Appended => appended += 1,
                Saved::Rewrote => compacted += 1,
                Saved::Nothing => panic!("round {round} saved nothing"),
            }
        }
        assert!(
            appended > 100 && compacted >= 2,
            "{appended} appends, {compacted} compactions"
        );
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }

    /// `Store` is `Sync`: readers on several threads may share one.
    const _: () = {
        const fn sync<T: Sync>() {}
        sync::<Store>()
    };

    /// Four threads reading one store, each in its own order, get
    /// exactly what one thread's reads return: hits, superseded values
    /// and misses alike.
    #[test]
    fn concurrent_gets_match_sequential_gets() {
        let root = temp_root("concurrent");
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i}")).collect();
        let mut store = Store::open(&root).unwrap();
        for (i, key) in keys.iter().enumerate().filter(|(i, _)| i % 4 != 0) {
            store
                .put(key, &format!("value {i}\twith\nescapes"))
                .unwrap();
        }
        for key in keys.iter().step_by(3) {
            store.put(key, "rewritten").unwrap();
        }
        drop(store);
        let sequential: Vec<Option<String>> = {
            let store = Store::open(&root).unwrap();
            keys.iter()
                .map(|k| store.get(k).map(String::from))
                .collect()
        };
        assert_eq!(sequential.iter().flatten().count(), 400 - 100 + 34);
        let store = Store::open(&root).unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (store, keys) = (&store, &keys);
                    scope.spawn(move || {
                        let mut order: Vec<usize> = (0..keys.len()).collect();
                        order.rotate_left(97 * t);
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        let mut got = vec![None; keys.len()];
                        for i in order {
                            got[i] = store.get(&keys[i]).map(String::from);
                        }
                        got
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap(), sequential);
            }
        });
        fs::remove_dir_all(&root).unwrap();
    }

    /// A well-formed record line planted in another shard's log is
    /// damage: the key keeps its real slot and reads back after reopen.
    #[test]
    fn a_record_in_a_foreign_shard_log_is_torn() {
        let root = temp_root("foreign-shard");
        let mut store = Store::open(&root).unwrap();
        store.put("k", "real").unwrap();
        let fp = Fingerprint::of("k");
        let planted = format!("{RECORD_TAG}\t{fp}\tk\tplanted\n");
        // Both neighbours, so the plant is scanned both before and after
        // the real line's shard.
        for shard in [fp.shard().wrapping_sub(1), fp.shard().wrapping_add(1)] {
            fs::write(shard_path(&store.root, shard), &planted).unwrap();
        }

        let store = Store::open(&root).unwrap();
        assert_eq!(store.get("k"), Some("real"));
        assert_eq!(pairs(&store), (vec![("k".into(), "real".into())], 0));
        assert_eq!(
            store.scan_stats(),
            ScanStats {
                lines: 3,
                records: 1,
                superseded: 0,
                torn: 2,
                foreign: 0,
            }
        );
        fs::remove_dir_all(&root).unwrap();
    }

    /// The char-by-char escaper the run scan replaced, kept as the
    /// reference the scan must match byte for byte.
    fn escape_field(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    /// Strings that put every byte class at every offset of the 8-byte
    /// words the scan reads: every ASCII byte at every offset of
    /// fillers 0–24 bytes long, multibyte UTF-8 at every offset, and
    /// runs of adjacent specials.
    fn escape_probes(specials: &str) -> Vec<String> {
        let mut probes = vec![String::new()];
        for len in 1..=24 {
            for at in 0..len {
                for b in 0u8..0x80 {
                    let mut s = "a".repeat(len);
                    s.replace_range(at..=at, char::from(b).encode_utf8(&mut [0; 4]));
                    probes.push(s);
                }
                for c in ['é', '𝄞', '\u{2028}'] {
                    let mut s = "a".repeat(len);
                    s.insert(at, c);
                    probes.push(s.clone());
                    s.push(c);
                    probes.push(s);
                }
                let mut s = "a".repeat(len);
                s.insert_str(at, &specials.repeat(3));
                probes.push(s);
            }
        }
        probes.push(specials.repeat(40));
        probes.push(format!("é{specials}𝄞\u{2028}{specials}é").repeat(9));
        probes
    }

    #[test]
    fn run_scan_escaping_matches_the_char_by_char_reference() {
        let mut out = String::from("prefix");
        let mut back = String::new();
        for probe in escape_probes("\\\t\n\r") {
            out.truncate("prefix".len());
            escape_into(&probe, &mut out);
            let escaped = &out["prefix".len()..];
            assert_eq!(escaped, escape_field(&probe), "{probe:?}");
            unescape_into(escaped, &mut back).unwrap();
            assert_eq!(back, probe);
        }
    }
}
