//! `offramps-store` — a dependency-free, content-addressed, sharded
//! on-disk record store.
//!
//! Campaign-scale evaluation reruns the same scenario matrix over and
//! over with small deltas: one more corpus part, one new attack spec,
//! one detector tweak. The store turns those reruns incremental. Every
//! record is addressed by a [`Fingerprint`] of its *canonical key* — a
//! string spelling out every input that influenced the value — and
//! appended to a shard log chosen by the fingerprint's top byte. An
//! in-memory index (rebuilt by scanning the shard logs at
//! [`Store::open`]) makes lookups O(1); a rerun only recomputes the
//! scenarios whose keys are not yet present.
//!
//! Design points:
//!
//! * **Content addressing, verified.** The full key is stored with each
//!   record and compared on [`Store::get`]; a hash collision degrades
//!   to a cache miss, never to a wrong value.
//! * **Append-only shard logs.** Records are single escaped lines in
//!   `shards/<xx>.log` (256 shards by fingerprint prefix). Rewritten
//!   keys append a new line; the last line wins on reload. A torn or
//!   malformed line is skipped (and counted), never fatal, and the
//!   first append after a torn tail starts on a fresh line.
//! * **Deterministic iteration.** The index is a `BTreeMap` keyed by
//!   fingerprint, so [`Store::iter`] walks records in a stable order
//!   regardless of insertion history — analytics built on it are
//!   byte-reproducible.
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
//! // Reopening rebuilds the index from the shard logs.
//! let store = Store::open(&dir).unwrap();
//! assert_eq!(store.len(), 1);
//! assert_eq!(store.get("scenario A"), Some("result payload"));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;

pub use fingerprint::Fingerprint;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;

/// Number of shard logs a store fans its records over (fingerprint top
/// byte).
pub const SHARD_COUNT: usize = 256;

/// On-disk record format tag; bump when the line layout changes.
/// Records with an unknown tag are ignored on load (forward
/// compatibility), so a downgrade sees misses, not corruption.
const RECORD_TAG: &str = "v1";

#[derive(Debug, Clone)]
struct Record {
    key: String,
    value: String,
}

/// Rollup of the shard-log scan [`Store::open`] performed: how many
/// lines it walked and what became of each. `records` counts lines that
/// parsed; `superseded` counts parsed lines that an earlier line's
/// fingerprint already occupied (rewrite history, last wins); `torn`
/// and `foreign` partition the skipped lines into damage (bad UTF-8,
/// framing, fingerprint/key disagreement) versus other format
/// generations (unknown record tag). Purely a function of the bytes on
/// disk, so it is deterministic for a given store state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Non-empty lines walked across all shard logs.
    pub lines: usize,
    /// Lines that parsed into a record (including superseded ones).
    pub records: usize,
    /// Parsed lines overwritten by a later line for the same key.
    pub superseded: usize,
    /// Damaged lines skipped: torn writes, bad escapes or UTF-8,
    /// fingerprint/key mismatches.
    pub torn: usize,
    /// Well-framed lines in a foreign format generation (unknown tag).
    pub foreign: usize,
}

/// A content-addressed record store rooted at a directory.
///
/// See the [crate docs](crate) for layout and guarantees. All methods
/// take the whole store; writers serialize through `&mut self` —
/// callers running producers in parallel collect results first and
/// append them in a deterministic order.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    index: BTreeMap<Fingerprint, Record>,
    scan: ScanStats,
    /// Shards whose log ended without a newline at open — a torn last
    /// write. The next append to one of them starts with a newline, so
    /// the fresh record never fuses with the fragment.
    torn_tails: BTreeSet<u8>,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`, scanning
    /// every shard log into the in-memory index.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory tree or
    /// reading shard logs. Malformed *lines* are skipped and counted
    /// ([`Store::scan_stats`]), not errors.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("shards"))?;
        let mut store = Store {
            root,
            index: BTreeMap::new(),
            scan: ScanStats::default(),
            torn_tails: BTreeSet::new(),
        };
        for shard in 0..=u8::MAX {
            let path = store.shard_path(shard);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if bytes.last().is_some_and(|&b| b != b'\n') {
                store.torn_tails.insert(shard);
            }
            // Split on raw newlines and validate UTF-8 per *line*: one
            // corrupted record must degrade to one skipped line, never
            // poison the whole store.
            for raw in bytes.split(|&b| b == b'\n') {
                if raw.is_empty() {
                    continue;
                }
                store.scan.lines += 1;
                match std::str::from_utf8(raw).ok().map(parse_line) {
                    Some(ParsedLine::Record(fp, record)) => {
                        store.scan.records += 1;
                        if store.index.insert(fp, record).is_some() {
                            store.scan.superseded += 1;
                        }
                    }
                    Some(ParsedLine::Foreign) => store.scan.foreign += 1,
                    Some(ParsedLine::Torn) | None => store.scan.torn += 1,
                }
            }
        }
        Ok(store)
    }

    /// Number of distinct records indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The rollup of the open-time shard-log scan. Frozen at
    /// [`Store::open`]: later [`Store::put`]s do not move it.
    pub fn scan_stats(&self) -> ScanStats {
        self.scan
    }

    /// Looks up the value stored under `key`, verifying the full key —
    /// a fingerprint collision reads as a miss.
    pub fn get(&self, key: &str) -> Option<&str> {
        let record = self.index.get(&Fingerprint::of(key))?;
        (record.key == key).then_some(record.value.as_str())
    }

    /// Whether a record for `key` exists.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` under `key`, appending to the key's shard log.
    /// Re-putting an identical record is a no-op; a different value for
    /// an existing key appends a superseding line (last wins on
    /// reload). The first append to a shard whose log had a torn tail
    /// at open terminates that tail first.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening or appending the shard log.
    pub fn put(&mut self, key: &str, value: &str) -> io::Result<()> {
        let fp = Fingerprint::of(key);
        if let Some(existing) = self.index.get(&fp) {
            if existing.key == key && existing.value == value {
                return Ok(());
            }
        }
        let shard = fp.shard();
        let line = format!(
            "{}{RECORD_TAG}\t{}\t{}\t{}\n",
            if self.torn_tails.contains(&shard) {
                "\n"
            } else {
                ""
            },
            fp.hex(),
            escape_field(key),
            escape_field(value)
        );
        let mut file = fs::File::options()
            .append(true)
            .create(true)
            .open(self.shard_path(shard))?;
        file.write_all(line.as_bytes())?;
        self.torn_tails.remove(&shard);
        self.index.insert(
            fp,
            Record {
                key: key.to_string(),
                value: value.to_string(),
            },
        );
        Ok(())
    }

    /// All records as `(key, value)` pairs, in fingerprint order —
    /// stable across insertion order and reloads.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.index
            .values()
            .map(|r| (r.key.as_str(), r.value.as_str()))
    }

    fn shard_path(&self, shard: u8) -> PathBuf {
        self.root.join("shards").join(format!("{shard:02x}.log"))
    }
}

/// Escapes a field for the one-line record format: backslash, tab, LF
/// and CR — everything the line/field framing uses.
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

/// Reverses [`escape_field`]; `None` on a dangling or unknown escape.
fn unescape_field(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// What one shard-log line turned out to be.
enum ParsedLine {
    /// A well-formed record in the current format.
    Record(Fingerprint, Record),
    /// A line carrying an unknown format tag — another generation's
    /// record, skipped for forward compatibility.
    Foreign,
    /// Damage: wrong field count, bad escapes, fingerprint/key
    /// disagreement.
    Torn,
}

/// Classifies one shard-log line (see [`ParsedLine`]).
fn parse_line(line: &str) -> ParsedLine {
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
        let key = unescape_field(fields.next()?)?;
        let value = unescape_field(fields.next()?)?;
        if fields.next().is_some() || Fingerprint::of(&key) != fp {
            return None;
        }
        Some((fp, Record { key, value }))
    })();
    match parsed {
        Some((fp, record)) => ParsedLine::Record(fp, record),
        None => ParsedLine::Torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lines skipped while loading (torn writes, foreign format tags).
    fn malformed(store: &Store) -> usize {
        let scan = store.scan_stats();
        scan.torn + scan.foreign
    }

    fn temp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("offramps-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
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
        let shard = reloaded.shard_path(Fingerprint::of("k").shard());
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
            .filter(|&s| store.shard_path(s as u8).exists())
            .count();
        assert!(shard_files > 16, "{shard_files} shard files");
        for i in 0..64 {
            let key = format!("key-{i}");
            let shard = store.shard_path(Fingerprint::of(&key).shard());
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
        let shard = store.shard_path(Fingerprint::of("good").shard());
        let mut log = fs::read(&shard).unwrap();
        log.extend_from_slice(b"v1\tdeadbeef"); // torn mid-record, no newline
        fs::write(&shard, &log).unwrap();
        let other = store.shard_path(Fingerprint::of("good").shard().wrapping_add(1));
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
        let shard = store.shard_path(Fingerprint::of("scenario").shard());
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
        let shard = store.shard_path(Fingerprint::of("k").shard());
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
        let order_a: Vec<String> = a.iter().map(|(k, _)| k.to_string()).collect();
        // Insert in reverse into a fresh store: same iteration order.
        let root_b = temp_root("order-b");
        let mut b = Store::open(&root_b).unwrap();
        for i in (0..32).rev() {
            b.put(&format!("k{i}"), &format!("v{i}")).unwrap();
        }
        let order_b: Vec<String> = b.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(order_a, order_b);
        let mut sorted = order_a.clone();
        sorted.sort_by_key(|k| Fingerprint::of(k));
        assert_eq!(order_a, sorted);
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&root_b).unwrap();
    }

    #[test]
    fn collision_degrades_to_miss() {
        // Force a fake collision by planting a record whose stored key
        // differs from the probe key but shares its (planted)
        // fingerprint slot: get() must verify the key bytes.
        let root = temp_root("collision");
        let mut store = Store::open(&root).unwrap();
        store.put("real-key", "real-value").unwrap();
        let fp = Fingerprint::of("real-key");
        store.index.insert(
            fp,
            Record {
                key: "other-key".into(),
                value: "poison".into(),
            },
        );
        assert_eq!(
            store.get("real-key"),
            None,
            "key mismatch must read as a miss"
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
