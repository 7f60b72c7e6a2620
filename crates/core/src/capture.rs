//! Step-count transactions and capture files.
//!
//! The monitoring design (§V-B) exports "a 16-byte transaction containing
//! step counts for all of the motors each 0.1 seconds". A capture is the
//! ordered list of those transactions; on disk it uses the CSV layout of
//! the paper's Figure 4 (`Index, X, Y, Z, E`).

use std::fmt;
use std::io::{self, BufRead, Write};

use offramps_des::SimDuration;

/// Bytes per exported transaction: four big-endian `i32` counters.
pub const TRANSACTION_BYTES: usize = 16;

/// One exported step-count sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Sample index (0.1 s apart in the default configuration).
    pub index: u64,
    /// Signed position counters for X, Y, Z, E at sample time,
    /// microsteps since homing.
    pub counts: [i32; 4],
}

impl Transaction {
    /// Serializes to the 16-byte wire format (4 × big-endian `i32`, the
    /// natural layout for a UART register dump).
    pub fn to_wire(&self) -> [u8; TRANSACTION_BYTES] {
        let mut buf = [0u8; TRANSACTION_BYTES];
        for (slot, c) in buf.chunks_exact_mut(4).zip(self.counts) {
            slot.copy_from_slice(&c.to_be_bytes());
        }
        buf
    }

    /// Parses the 16-byte wire format.
    pub fn from_wire(index: u64, bytes: &[u8; TRANSACTION_BYTES]) -> Self {
        let counts = std::array::from_fn(|i| {
            i32::from_be_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"))
        });
        Transaction { index, counts }
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {}, {}, {}, {}",
            self.index, self.counts[0], self.counts[1], self.counts[2], self.counts[3]
        )
    }
}

/// An ordered capture of step-count transactions.
///
/// # Example
///
/// ```
/// use offramps::{Capture, Transaction};
///
/// let mut cap = Capture::new();
/// cap.push(Transaction { index: 0, counts: [100, 200, 40, 1_000] });
/// let csv = cap.to_csv();
/// let back = Capture::from_csv(csv.as_bytes())?;
/// assert_eq!(cap, back);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Capture {
    transactions: Vec<Transaction>,
    /// Sampling period of this capture.
    pub period: SimDuration,
}

impl Capture {
    /// Creates an empty capture with the default 0.1 s period.
    pub fn new() -> Self {
        Capture {
            transactions: Vec::new(),
            period: SimDuration::from_millis(100),
        }
    }

    /// Appends a transaction.
    ///
    /// # Panics
    ///
    /// Panics (debug) if indices are not strictly increasing.
    pub fn push(&mut self, t: Transaction) {
        debug_assert!(
            self.transactions.last().is_none_or(|l| l.index < t.index),
            "transaction indices must increase"
        );
        self.transactions.push(t);
    }

    /// All transactions in order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The final counter values, if anything was captured. This is what
    /// the paper's end-of-print 0 %-margin check compares.
    pub fn final_counts(&self) -> Option<[i32; 4]> {
        self.transactions.last().map(|t| t.counts)
    }

    /// Serializes in the paper's Figure 4 CSV layout.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("Index, X, Y, Z, E\n");
        for t in &self.transactions {
            out.push_str(&t.to_string());
            out.push('\n');
        }
        out
    }

    /// Writes the CSV to a writer (pass `&mut` for buffers/files).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_csv().as_bytes())
    }

    /// Parses the Figure 4 CSV layout.
    ///
    /// # Errors
    ///
    /// Returns `io::ErrorKind::InvalidData` on malformed rows and on rows
    /// whose index does not increase.
    pub fn from_csv<R: BufRead>(reader: R) -> io::Result<Self> {
        let mut cap = Capture::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.to_ascii_lowercase().starts_with("index") {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            if fields.len() != 5 {
                return Err(invalid(
                    lineno,
                    format!("expected 5 fields, found {}", fields.len()),
                ));
            }
            // Each field at its own type: an out-of-range value is an
            // error, never a wrapped number.
            let index = csv_field(fields[0], lineno, "index")?;
            let mut counts = [0i32; 4];
            for (count, field) in counts.iter_mut().zip(&fields[1..]) {
                *count = csv_field(field, lineno, "count")?;
            }
            // Out-of-order rows are the file's fault, not a broken
            // invariant: report them instead of tripping `push`.
            if cap.transactions.last().is_some_and(|l| l.index >= index) {
                return Err(invalid(lineno, format!("index {index} does not increase")));
            }
            cap.push(Transaction { index, counts });
        }
        Ok(cap)
    }
}

/// Parses one CSV field at its target type, naming the 0-based
/// `lineno` (reported 1-based) on failure.
fn csv_field<T: std::str::FromStr>(s: &str, lineno: usize, what: &str) -> io::Result<T> {
    s.parse()
        .map_err(|_| invalid(lineno, format!("invalid {what} {s:?}")))
}

/// A malformed-input error naming the 0-based `lineno` (reported 1-based).
fn invalid(lineno: usize, what: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: {what}", lineno + 1),
    )
}

impl FromIterator<Transaction> for Capture {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        let mut cap = Capture::new();
        for t in iter {
            cap.push(t);
        }
        cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(i: u64, x: i32, y: i32, z: i32, e: i32) -> Transaction {
        Transaction {
            index: i,
            counts: [x, y, z, e],
        }
    }

    #[test]
    fn wire_round_trip() {
        let t = tx(7, 6060, -8266, 960, 52843);
        let wire = t.to_wire();
        assert_eq!(wire.len(), TRANSACTION_BYTES);
        assert_eq!(Transaction::from_wire(7, &wire), t);
    }

    #[test]
    fn wire_is_big_endian() {
        let t = tx(0, 1, 0, 0, 0);
        assert_eq!(&t.to_wire()[..4], &[0, 0, 0, 1]);
    }

    #[test]
    fn csv_round_trip() {
        let cap: Capture = vec![
            tx(5113, 6060, 8266, 960, 52843),
            tx(5114, 6304, 8095, 960, 52856),
        ]
        .into_iter()
        .collect();
        let csv = cap.to_csv();
        assert!(csv.starts_with("Index, X, Y, Z, E\n"));
        assert!(csv.contains("5113, 6060, 8266, 960, 52843"));
        let back = Capture::from_csv(csv.as_bytes()).unwrap();
        assert_eq!(cap, back);
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(Capture::from_csv("1, 2, 3\n".as_bytes()).is_err());
        assert!(Capture::from_csv("a, b, c, d, e\n".as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_out_of_range_values_instead_of_wrapping() {
        for (row, message) in [
            (
                "0,99999999999,2,3,4\n",
                "line 1: invalid count \"99999999999\"",
            ),
            (
                "0,1,2,3,-2147483649\n",
                "line 1: invalid count \"-2147483649\"",
            ),
            ("-1,1,2,3,4\n", "line 1: invalid index \"-1\""),
        ] {
            let err = Capture::from_csv(row.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{row}");
            assert!(err.to_string().contains(message), "{row}: {err}");
        }
        // The extremes of each type still read back exactly.
        let cap = Capture::from_csv(
            "index,x,y,z,e\n18446744073709551615,2147483647,-2147483648,0,1\n".as_bytes(),
        )
        .unwrap();
        assert_eq!(cap.transactions()[0].index, u64::MAX);
        assert_eq!(cap.transactions()[0].counts, [i32::MAX, i32::MIN, 0, 1]);
    }

    #[test]
    fn final_counts() {
        let mut cap = Capture::new();
        assert_eq!(cap.final_counts(), None);
        cap.push(tx(0, 1, 2, 3, 4));
        cap.push(tx(1, 5, 6, 7, 8));
        assert_eq!(cap.final_counts(), Some([5, 6, 7, 8]));
        assert_eq!(cap.len(), 2);
        assert!(!cap.is_empty());
    }

    #[test]
    fn non_increasing_csv_indices_are_an_error() {
        for csv in [
            "0, 1, 2, 3, 4\n0, 5, 6, 7, 8\n",
            "5, 1, 2, 3, 4\n2, 1, 2, 3, 4\n",
        ] {
            let err = Capture::from_csv(csv.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 2: index"), "{err}");
        }
    }

    #[test]
    fn negative_counts_survive_csv() {
        let cap: Capture = vec![tx(0, -100, 50, -1, 0)].into_iter().collect();
        let back = Capture::from_csv(cap.to_csv().as_bytes()).unwrap();
        assert_eq!(back.transactions()[0].counts, [-100, 50, -1, 0]);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use offramps_des::DetRng;

    fn any_i32(rng: &mut DetRng) -> i32 {
        rng.next_u64() as u32 as i32
    }

    /// CSV round-trips arbitrary captures exactly.
    #[test]
    fn csv_round_trips_random_captures() {
        for seed in 0u64..64 {
            let mut rng = DetRng::from_seed(seed);
            let n = rng.uniform_u64(0, 100) as usize;
            let cap: Capture = (0..n)
                .map(|i| Transaction {
                    index: i as u64,
                    counts: std::array::from_fn(|_| any_i32(&mut rng)),
                })
                .collect();
            let back = Capture::from_csv(cap.to_csv().as_bytes()).unwrap();
            assert_eq!(cap, back, "seed {seed}");
        }
    }

    /// The wire format round-trips arbitrary counters exactly.
    #[test]
    fn wire_round_trips_random_counters() {
        for seed in 0u64..256 {
            let mut rng = DetRng::from_seed(seed ^ 0x3333);
            let idx = rng.next_u64();
            let t = Transaction {
                index: idx,
                counts: std::array::from_fn(|_| any_i32(&mut rng)),
            };
            assert_eq!(Transaction::from_wire(idx, &t.to_wire()), t, "seed {seed}");
        }
    }
}
