//! Shard-log checkpoints: the index of each log's prefix, saved beside
//! the logs so that [`crate::Store::open`] reads ~32 bytes per record
//! instead of re-validating and re-hashing every record line.
//!
//! The checkpoints live in one file, `index/shards.idx`: the word
//! [`MAGIC`], then a run of sections, each the checkpoint of one shard
//! log as a flat run of little-endian `u64`s:
//!
//! | words | field |
//! |-------|-------|
//! | 1 | the shard |
//! | 1 | covered log length |
//! | 1 | torn-tail flag (0 or 1) |
//! | 5 | the prefix's [`ScanStats`] |
//! | 2 | the check: where the prefix's last line starts, and [`checksum`] of the bytes from there to the covered length |
//! | 1 | slot count `n` |
//! | 4n | slots after last-wins, in fingerprint order: fingerprint (2 words), offset, length |
//! | 1 | [`checksum`] of the section's other words |
//!
//! A later section for a shard supersedes every earlier one, so the
//! file is a log too. A save appends one section for each shard whose
//! index grew, and a void section (covering nothing) for one it can no
//! longer vouch for, in one write. It rewrites the file whole,
//! one section per shard (compaction), when the file is not what the
//! store parsed at open or when the superseded sections would make it
//! more than twice that size; a first save is such a rewrite.
//!
//! One file, not one per shard: creating 256 files cost more than
//! scanning the logs they index saves on a cold open. A section that
//! does not decode, fails its checksum, or holds a slot outside its
//! shard, out of order or past the covered length is ignored, and so is
//! every section after a cut; so is one whose check no longer matches
//! the log. Nothing here is ever an error: the caller rescans the log
//! instead. A torn append therefore only costs a rescan of the log
//! tails that its sections would have covered.

use crate::{Fingerprint, LineSpan, ScanStats, SHARD_COUNT};

/// The first word of the checkpoint file; bump it when the layout
/// changes.
const MAGIC: u64 = u64::from_le_bytes(*b"ofidx\0\0\x01");

/// Words of a section before its slots.
const HEADER_WORDS: usize = 11;

/// The index of one shard log's first `len` bytes: what a checkpoint
/// holds, what opening a shard builds, and what the store then serves
/// that shard from.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct LogIndex {
    /// How many bytes of the log this index covers.
    pub(crate) len: u64,
    /// Those bytes end without a newline.
    pub(crate) torn_tail: bool,
    /// The counts of the lines in those bytes, `superseded` included.
    pub(crate) stats: ScanStats,
    /// Where the last non-empty line of those bytes starts (0 when
    /// there is none).
    pub(crate) last_line: u64,
    /// [`checksum`] of the log from `last_line` to `len`.
    pub(crate) check: u64,
    /// The record slots after last-wins, in fingerprint order.
    pub(crate) slots: Vec<LineSpan>,
}

/// The checkpoint file's bytes before its first section.
pub(crate) fn file_header() -> Vec<u8> {
    MAGIC.to_le_bytes().to_vec()
}

/// The last section of each shard in the checkpoint file `bytes`,
/// indexed by shard (empty where there is none), and how many bytes the
/// header and the whole sections span (0 without the header): all of
/// `bytes` unless they end in a cut. Sections are only delimited here;
/// [`LogIndex::decode`] checks them.
pub(crate) fn sections(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut out = vec![&[][..]; SHARD_COUNT];
    let Some(mut rest) = bytes.strip_prefix(&MAGIC.to_le_bytes()) else {
        return (out, 0);
    };
    while let Some(n) = word(rest, HEADER_WORDS - 1) {
        let size = n
            .checked_mul(4)
            .and_then(|w| w.checked_add(HEADER_WORDS as u64 + 1))
            .and_then(|w| w.checked_mul(8))
            .and_then(|b| usize::try_from(b).ok());
        let Some((section, tail)) = size.and_then(|b| rest.split_at_checked(b)) else {
            break;
        };
        if let Some(slot) = word(section, 0).and_then(|s| out.get_mut(s as usize)) {
            *slot = section;
        }
        rest = tail;
    }
    (out, bytes.len() - rest.len())
}

/// The `i`th little-endian word of `bytes`.
fn word(bytes: &[u8], i: usize) -> Option<u64> {
    let w = bytes.get(i * 8..i * 8 + 8)?;
    Some(u64::from_le_bytes(w.try_into().expect("8 bytes")))
}

impl LogIndex {
    /// The size of this index's section in bytes.
    pub(crate) fn encoded_len(&self) -> usize {
        8 * (HEADER_WORDS + 4 * self.slots.len() + 1)
    }

    /// Appends this index to `out` as the section of `shard`. The
    /// default (empty) index encodes the void section, which supersedes
    /// the shard's earlier sections and decodes to nothing.
    pub(crate) fn encode_into(&self, shard: u8, out: &mut Vec<u8>) {
        let start = out.len();
        let s = &self.stats;
        let header = [
            u64::from(shard),
            self.len,
            u64::from(self.torn_tail),
            s.lines as u64,
            s.records as u64,
            s.superseded as u64,
            s.torn as u64,
            s.foreign as u64,
            self.last_line,
            self.check,
            self.slots.len() as u64,
        ];
        out.reserve(self.encoded_len());
        let mut push = |w: u64| out.extend_from_slice(&w.to_le_bytes());
        header.into_iter().for_each(&mut push);
        for &(fp, offset, len) in &self.slots {
            let [hi, lo] = fp.words();
            [hi, lo, offset, len as u64].into_iter().for_each(&mut push);
        }
        let sum = checksum(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Decodes `shard`'s section, or `None` when the bytes are not one
    /// or cover nothing. The slots are checked as they are decoded.
    pub(crate) fn decode(section: &[u8], shard: u8) -> Option<LogIndex> {
        let (body, sum) = section.split_last_chunk::<8>()?;
        if checksum(body) != u64::from_le_bytes(*sum) {
            return None;
        }
        let (header, slots) = body.split_at_checked(8 * HEADER_WORDS)?;
        let header: [u64; HEADER_WORDS] = std::array::from_fn(|i| word(header, i).expect("a word"));
        let [owner, len, torn_tail, lines, records, superseded, torn, foreign, last_line, check, n] =
            header;
        let count = |w: u64| usize::try_from(w).ok();
        let stats = ScanStats {
            lines: count(lines)?,
            records: count(records)?,
            superseded: count(superseded)?,
            torn: count(torn)?,
            foreign: count(foreign)?,
        };
        let well_formed = owner == u64::from(shard)
            && len > 0
            && torn_tail <= 1
            && last_line < len
            && slots.len() as u64 == n.checked_mul(32)?
            && records.checked_sub(superseded)? == n;
        if !well_formed {
            return None;
        }
        let mut spans: Vec<LineSpan> = Vec::with_capacity(slots.len() / 32);
        for slot in slots.chunks_exact(32) {
            let w = |i| word(slot, i).expect("a word");
            let (fp, offset, bytes) = (Fingerprint::from_words([w(0), w(1)]), w(2), w(3));
            let fits = fp.shard() == shard
                && offset.checked_add(bytes)? <= len
                && spans.last().is_none_or(|last| last.0 < fp);
            if !fits {
                return None;
            }
            spans.push((fp, offset, count(bytes)?));
        }
        Some(LogIndex {
            len,
            torn_tail: torn_tail == 1,
            stats,
            last_line,
            check,
            slots: spans,
        })
    }
}

/// FNV-1a over `bytes`, a little-endian word at a time, then byte by
/// byte over the last partial word: the check over a log's last line
/// and the checksum over a checkpoint's own bytes. It guards against
/// damage and rewrites, not against an adversary.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{copy_logs, spans};
    use crate::{checkpoint_path, shard_path, Store, RECORD_TAG};
    use offramps_des::DetRng;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn sample(shard: u8) -> LogIndex {
        let mut slots: Vec<LineSpan> = (0..)
            .map(|i| Fingerprint::of(&format!("key-{i}")))
            .filter(|fp| fp.shard() == shard)
            .zip(0..5)
            .map(|(fp, i)| (fp, 100 * i, 21))
            .collect();
        slots.sort_by_key(|s| s.0);
        let n = slots.len();
        LogIndex {
            len: 4096,
            torn_tail: true,
            stats: ScanStats {
                lines: n + 4,
                records: n + 1,
                superseded: 1,
                torn: 2,
                foreign: 1,
            },
            last_line: 4000,
            check: 0xfeed,
            slots,
        }
    }

    /// A file of `shards`' sections, in that order.
    fn file(shards: &[u8]) -> Vec<u8> {
        let mut out = file_header();
        for &shard in shards {
            sample(shard).encode_into(shard, &mut out);
        }
        out
    }

    fn decoded(bytes: &[u8]) -> Vec<Option<LogIndex>> {
        let (sections, _) = sections(bytes);
        (0..=u8::MAX)
            .map(|s| LogIndex::decode(sections[usize::from(s)], s))
            .collect()
    }

    #[test]
    fn round_trips() {
        let bytes = file(&[9, 3, 200]);
        let section = 8 * (HEADER_WORDS + 4 * 5 + 1);
        assert_eq!(bytes.len(), 8 + 3 * section);
        assert_eq!(sample(3).encoded_len(), section);
        assert_eq!(sections(&bytes).1, bytes.len(), "parsed whole");
        for (shard, index) in decoded(&bytes).into_iter().enumerate() {
            let want = [3, 9, 200].contains(&shard).then(|| sample(shard as u8));
            assert_eq!(index, want, "shard {shard}");
        }
    }

    /// A cut loses the sections it reaches, a flipped bit the section it
    /// lands in (or, in a length word, the sections after it too), and
    /// a section filed under another shard is no one's: never a panic,
    /// never another section's damage.
    #[test]
    fn damage_costs_only_the_sections_it_reaches() {
        let bytes = file(&[7, 8]);
        let section = (bytes.len() - 8) / 2;
        let intact = |d: &[Option<LogIndex>], shard: u8| d[usize::from(shard)].is_some();
        for cut in 0..bytes.len() {
            let d = decoded(&bytes[..cut]);
            assert_eq!(intact(&d, 7), cut >= 8 + section, "cut at {cut}");
            assert!(!intact(&d, 8), "cut at {cut}");
            let whole = match cut {
                0..8 => 0,
                _ => 8 + (cut - 8) / section * section,
            };
            assert_eq!(sections(&bytes[..cut]).1, whole, "cut at {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let d = decoded(&flipped);
            let at = bit / 8;
            assert_eq!(intact(&d, 7), at >= 8 + section, "bit {bit}");
            if at < 8 || at >= 8 + section {
                assert!(!intact(&d, 8), "bit {bit}");
            }
        }
        let mut moved = file_header();
        sample(7).encode_into(8, &mut moved);
        assert!(decoded(&moved).iter().all(Option::is_none));
    }

    /// A later section for a shard supersedes its earlier ones, a void
    /// one leaves the shard without a checkpoint, and a file ending in a
    /// cut keeps what precedes the cut.
    #[test]
    fn later_sections_supersede_earlier_ones() {
        let mut bytes = file(&[7, 8]);
        let mut grown = sample(7);
        grown.len += 100;
        grown.encode_into(7, &mut bytes);
        LogIndex::default().encode_into(8, &mut bytes);
        let (_, parsed) = sections(&bytes);
        assert_eq!(parsed, bytes.len());
        let d = decoded(&bytes);
        assert_eq!(d[7], Some(grown));
        assert_eq!(d[8], None, "voided");
        let void = LogIndex::default().encoded_len();
        assert_eq!(void, 8 * (HEADER_WORDS + 1));
        let cut = &bytes[..bytes.len() - void / 2];
        assert_eq!(sections(cut).1, bytes.len() - void);
        assert_eq!(decoded(cut)[8], Some(sample(8)), "the void was cut");
    }

    /// A section whose checksum holds but whose slots could not come
    /// from a scan is rejected too.
    #[test]
    fn inconsistent_slots_are_rejected() {
        let resealed = |edit: &dyn Fn(&mut LogIndex)| {
            let mut index = sample(5);
            edit(&mut index);
            let mut bytes = file_header();
            index.encode_into(5, &mut bytes);
            LogIndex::decode(sections(&bytes).0[5], 5)
        };
        assert!(resealed(&|_| {}).is_some());
        assert!(resealed(&|i| i.slots.reverse()).is_none(), "out of order");
        assert!(resealed(&|i| i.slots[0].1 = 4090).is_none(), "past the end");
        assert!(resealed(&|i| i.stats.superseded = 0).is_none(), "count");
        assert!(
            resealed(&|i| i.last_line = 4096).is_none(),
            "check past the end"
        );
        assert!(resealed(&|i| i.len = 0).is_none(), "covers nothing");
    }

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "offramps-store-checkpoint-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Everything `open` and the bulk read report for a store.
    #[derive(Debug, PartialEq)]
    struct Seen {
        index: Vec<LineSpan>,
        scan: ScanStats,
        torn_tails: Vec<bool>,
        len: usize,
        records: (Vec<(String, String)>, usize),
    }

    /// What the store at `root` reports opened on `workers` threads, and
    /// how many of its shards came from a checkpoint. Dropping it may
    /// save checkpoints.
    fn seen(root: &Path, workers: usize) -> (Seen, usize) {
        let store = Store::open_with(root.to_path_buf(), workers).unwrap();
        let seen = Seen {
            index: spans(&store),
            scan: store.scan_stats(),
            torn_tails: store.shards.iter().map(|s| s.index.torn_tail).collect(),
            len: store.len(),
            records: store.records_with(workers, |k, v| (k.to_string(), v.to_string())),
        };
        (seen, store.shards.iter().filter(|s| s.loaded > 0).count())
    }

    /// What a checkpoint-less rescan of the shard logs under `root`
    /// reports: the logs copied to `scratch`, without `index/`.
    fn rescanned(root: &Path, scratch: &Path, workers: usize) -> Seen {
        copy_logs(root, scratch);
        let (seen, loaded) = seen(scratch, workers);
        assert_eq!(loaded, 0, "a rescan loads no checkpoint");
        seen
    }

    /// A whole record line for `key`, as a build that knows nothing of
    /// checkpoints appends it.
    fn record_line(key: &str, value: &str) -> String {
        format!("{RECORD_TAG}\t{}\t{key}\t{value}\n", Fingerprint::of(key))
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut log = fs::read(path).unwrap_or_default();
        log.extend_from_slice(bytes);
        fs::write(path, log).unwrap();
    }

    /// Keys in three shards, four each, so that shards hold several
    /// records and rewrites supersede.
    fn hot_keys() -> Vec<String> {
        let mut shards = Vec::new();
        let mut keys = Vec::new();
        for i in 0.. {
            let key = format!("key-{i}");
            let shard = Fingerprint::of(&key).shard();
            if !shards.contains(&shard) {
                if shards.len() == 3 {
                    continue;
                }
                shards.push(shard);
            }
            if keys
                .iter()
                .filter(|k: &&String| Fingerprint::of(k).shard() == shard)
                .count()
                < 4
            {
                keys.push(key);
            }
            if keys.len() == 12 {
                return keys;
            }
        }
        unreachable!()
    }

    /// Changes `key`'s shard log or the checkpoints behind the store's
    /// back, the way damage, other builds and other tools can, while no
    /// store is open.
    fn meddle(rng: &mut DetRng, root: &Path, key: &str) {
        let log = shard_path(root, Fingerprint::of(key).shard());
        let len = fs::metadata(&log).map_or(0, |m| m.len());
        let ends_torn = fs::read(&log).is_ok_and(|b| b.last().is_some_and(|&c| c != b'\n'));
        let cp = checkpoint_path(root);
        match rng.uniform_u64(0, 10) {
            // A torn last write.
            0 if len > 0 => {
                let cut = rng.uniform_u64(1, len.min(20) + 1);
                fs::File::options()
                    .write(true)
                    .open(&log)
                    .unwrap()
                    .set_len(len - cut)
                    .unwrap();
            }
            // Garbage, with and without a newline.
            1 => append(&log, b"garbage\n"),
            2 => append(&log, b"v1\tdeadbeef"),
            // Another format generation.
            3 => append(&log, b"v9\tsome future format\n"),
            // A whole record line in another shard's log.
            4 => {
                let other = shard_path(root, Fingerprint::of(key).shard().wrapping_add(1));
                append(&other, record_line(key, "planted").as_bytes());
            }
            // A truncation anywhere.
            5 if len > 0 => {
                let to = rng.uniform_u64(0, len + 1);
                fs::File::options()
                    .write(true)
                    .open(&log)
                    .unwrap()
                    .set_len(to)
                    .unwrap();
            }
            // What a build without checkpoints appends.
            6 => {
                let lead = if ends_torn { "\n" } else { "" };
                let value = format!("parent-{}", rng.next_u64() % 1000);
                append(
                    &log,
                    format!("{lead}{}", record_line(key, &value)).as_bytes(),
                );
            }
            // Checkpoint damage: deleted, truncated, a bit flipped.
            7 => {
                let _ = fs::remove_file(&cp);
            }
            8 => {
                if let Ok(bytes) = fs::read(&cp) {
                    let to = rng.uniform_u64(0, bytes.len() as u64 + 1);
                    fs::write(&cp, &bytes[..to as usize]).unwrap();
                }
            }
            _ => {
                if let Ok(mut bytes) = fs::read(&cp) {
                    if !bytes.is_empty() {
                        let bit = rng.uniform_u64(0, bytes.len() as u64 * 8) as usize;
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        fs::write(&cp, bytes).unwrap();
                    }
                }
            }
        }
    }

    /// Over random sequences of appends (superseding rewrites too),
    /// drops and reopens, torn tails, garbage, foreign-tag and
    /// foreign-shard lines, truncations, appends by a build without
    /// checkpoints, and deleted, truncated and bit-flipped checkpoints,
    /// a store opened from its checkpoints reports exactly what a
    /// checkpoint-less rescan does, at every worker count.
    #[test]
    fn checkpointed_open_equals_a_rescan() {
        let keys = hot_keys();
        let values = ["a", "bb", "tab\tand\nnewline", "ünïcödé", ""];
        let mut loaded_opens = 0;
        for seed in 0..10 {
            let root = temp_root(&format!("equiv-{seed}"));
            let scratch = temp_root(&format!("equiv-{seed}-rescan"));
            let mut rng = DetRng::from_seed(seed);
            for _ in 0..20 {
                let mut store =
                    Store::open_with(root.clone(), [1, 2, 8][seed as usize % 3]).unwrap();
                for _ in 0..rng.uniform_u64(0, 6) {
                    let key = &keys[rng.uniform_u64(0, keys.len() as u64) as usize];
                    let value = values[rng.uniform_u64(0, values.len() as u64) as usize];
                    store.put(key, value).unwrap();
                    assert_eq!(store.get(key), Some(value));
                }
                drop(store);
                let meddles = rng.uniform_u64(0, 5);
                let key = &keys[rng.uniform_u64(0, keys.len() as u64) as usize];
                for _ in 0..meddles {
                    meddle(&mut rng, &root, key);
                }
                for workers in [1, 2, 8] {
                    let want = rescanned(&root, &scratch, workers);
                    let (got, loaded) = seen(&root, workers);
                    assert_eq!(got, want, "seed {seed}, {workers} workers");
                    if meddles == 0 {
                        // The drop saved every log it indexed.
                        let logs = want.torn_tails.len();
                        let nonempty = (0..=u8::MAX)
                            .filter(|&s| {
                                fs::metadata(shard_path(&root, s)).is_ok_and(|m| m.len() > 0)
                            })
                            .count();
                        assert_eq!(loaded, nonempty, "seed {seed}: {logs} shards");
                    }
                    loaded_opens += usize::from(loaded > 0);
                }
            }
            fs::remove_dir_all(&root).unwrap();
            fs::remove_dir_all(&scratch).unwrap();
        }
        assert!(
            loaded_opens > 100,
            "only {loaded_opens} opens used a checkpoint"
        );
    }

    /// A covered log rewritten behind its checkpoint, at the same length
    /// and with the same last line, still loads from the checkpoint:
    /// every `get` returns the value the log now holds or a miss, and
    /// the bulk read never returns a key that does not fingerprint to
    /// its slot.
    #[test]
    fn a_log_rewritten_behind_its_checkpoint_costs_only_misses() {
        // Same-length keys and values, so lines can trade places.
        let shard = Fingerprint::of("key-00000").shard();
        let keys: Vec<String> = (0..)
            .map(|i| format!("key-{i:05}"))
            .filter(|k| Fingerprint::of(k).shard() == shard)
            .take(5)
            .collect();
        let root = temp_root("rewritten");
        let scratch = temp_root("rewritten-rescan");
        let mut store = Store::open(&root).unwrap();
        for (i, key) in keys.iter().enumerate() {
            store.put(key, &format!("value-{i}")).unwrap();
        }
        drop(store);
        let log = shard_path(&root, shard);
        let original = fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = original.lines().collect();
        let rewrites = [
            // Two lines trade places.
            [lines[1], lines[0], lines[2], lines[3], lines[4]].map(String::from),
            // A line keeps its fingerprint field but names another key.
            [
                lines[0].replace(&keys[0], &keys[3]),
                lines[1].into(),
                lines[2].into(),
                lines[3].into(),
                lines[4].into(),
            ],
            // A value changes in place.
            [
                lines[0].into(),
                lines[1].replace("value-1", "VALUE-1"),
                lines[2].into(),
                lines[3].into(),
                lines[4].into(),
            ],
        ];
        for rewrite in rewrites {
            let text = rewrite.join("\n") + "\n";
            assert_eq!(text.len(), original.len());
            fs::write(&log, &text).unwrap();
            rescanned(&root, &scratch, 1);
            let truth = Store::open(&scratch).unwrap();
            let store = Store::open(&root).unwrap();
            assert!(
                store.shards[usize::from(shard)].loaded > 0,
                "the checkpoint loads"
            );
            for key in &keys {
                let got = store.get(key);
                assert!(got.is_none() || got == truth.get(key), "{key}: {got:?}");
            }
            let (read, unreadable) = store.records(|k, v| (k.to_string(), v.to_string()));
            assert_eq!(read.len() + unreadable, store.len());
            for (key, value) in &read {
                assert_eq!(truth.get(key), Some(value.as_str()), "{key}");
                let indexed = spans(&store).iter().any(|s| s.0 == Fingerprint::of(key));
                assert!(indexed, "{key} fingerprints to its slot");
            }
            drop(store);
            // Restore the original log and its checkpoint for the next
            // rewrite.
            fs::write(&log, &original).unwrap();
            drop(Store::open(&root).unwrap());
        }
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }

    /// A log that grows behind an open store, before its append or
    /// after it, gets no checkpoint from that store: a store whose put
    /// found the log changed grew nothing and saves nothing, one whose
    /// log changed after its put voids the older checkpoint, and the
    /// next open counts what the other writer added.
    #[test]
    fn a_log_grown_behind_an_open_store_is_not_checkpointed() {
        let root = temp_root("behind");
        let scratch = temp_root("behind-rescan");
        let shard = Fingerprint::of("k").shard();
        let log = shard_path(&root, shard);
        let section = || {
            let saved = fs::read(checkpoint_path(&root)).unwrap_or_default();
            LogIndex::decode(sections(&saved).0[usize::from(shard)], shard)
        };
        let mut store = Store::open(&root).unwrap();
        store.put("k", "first").unwrap();
        drop(store);
        assert!(section().is_some());
        for before_the_append in [true, false] {
            let saved_len = section().unwrap().len;
            let mut store = Store::open(&root).unwrap();
            if before_the_append {
                append(&log, record_line("k", "other writer").as_bytes());
                store.put("k", "second").unwrap();
            } else {
                store.put("k", "third").unwrap();
                append(&log, record_line("k", "other writer").as_bytes());
            }
            drop(store);
            let left = section().map(|s| s.len);
            assert_eq!(left, before_the_append.then_some(saved_len));
            let want = rescanned(&root, &scratch, 1);
            assert_eq!(seen(&root, 1).0, want);
            assert!(section().is_some(), "the rescan saved it");
        }
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }

    /// Two stores open on one directory interleave puts, drops and
    /// reopens, so each saves over a checkpoint file the other changed
    /// since it parsed it, or appends sections the other never parsed.
    /// Whatever either saved, a reopen serves every acknowledged put
    /// (the last one for each key) and reports the scan counts of a
    /// checkpoint-less open.
    #[test]
    fn two_stores_on_one_directory_lose_nothing() {
        let keys = hot_keys();
        let (mut appends, mut rewrites) = (0, 0);
        for seed in 0..6 {
            let root = temp_root(&format!("two-{seed}"));
            let scratch = temp_root(&format!("two-{seed}-rescan"));
            let mut rng = DetRng::from_seed(seed);
            let mut model = std::collections::BTreeMap::new();
            let mut stores = [Store::open(&root).unwrap(), Store::open(&root).unwrap()];
            for step in 0..80 {
                let which = rng.uniform_u64(0, 2) as usize;
                if rng.uniform_u64(0, 4) == 0 {
                    let before = fs::read(checkpoint_path(&root)).unwrap_or_default();
                    drop(std::mem::replace(
                        &mut stores[which],
                        Store::open(&root).unwrap(),
                    ));
                    let after = fs::read(checkpoint_path(&root)).unwrap_or_default();
                    if after.len() > before.len() && after.starts_with(&before) {
                        appends += 1;
                    } else if after != before {
                        rewrites += 1;
                    }
                } else {
                    // Every value is new, so no put is a no-op.
                    let key = &keys[rng.uniform_u64(0, keys.len() as u64) as usize];
                    let value = format!("{which}@{step}");
                    stores[which].put(key, &value).unwrap();
                    model.insert(key.clone(), value);
                }
            }
            drop(stores);
            let want = rescanned(&root, &scratch, 1);
            let (got, _) = seen(&root, 1);
            assert_eq!(got, want, "seed {seed}");
            let store = Store::open(&root).unwrap();
            for (key, value) in &model {
                assert_eq!(store.get(key), Some(value.as_str()), "seed {seed}: {key}");
            }
            assert_eq!(store.len(), model.len());
            drop(store);
            fs::remove_dir_all(&root).unwrap();
            fs::remove_dir_all(&scratch).unwrap();
        }
        assert!(
            appends > 5 && rewrites > 5,
            "{appends} appends, {rewrites} rewrites"
        );
    }

    /// Dropping a store never fails and never brings back a removed
    /// store directory; a file where the checkpoint directory goes only
    /// costs the checkpoints.
    #[test]
    fn drop_never_fails_or_recreates_the_store() {
        let root = temp_root("removed");
        let mut store = Store::open(&root).unwrap();
        store.put("k", "v").unwrap();
        fs::remove_dir_all(&root).unwrap();
        drop(store);
        assert!(!root.exists());

        let mut store = Store::open(&root).unwrap();
        store.put("k", "v").unwrap();
        fs::write(root.join("index"), b"not a directory").unwrap();
        drop(store);
        let store = Store::open(&root).unwrap();
        assert_eq!(store.get("k"), Some("v"));
        assert!(store.shards.iter().all(|s| s.loaded == 0));
        fs::remove_dir_all(&root).unwrap();
    }
}
