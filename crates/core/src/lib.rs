//! OFFRAMPS: an FPGA-style machine-in-the-middle for 3D-printer control
//! systems — reproduced as a cycle-resolved simulation component.
//!
//! The paper's board sits between an Arduino Mega (Marlin) and a
//! RAMPS 1.4, able to *bypass*, *modify* or *capture* every control
//! signal (paper Figure 3). This crate is that device:
//!
//! * [`Offramps`] — the interceptor component with a configurable
//!   pipeline delay (defaults to the paper's measured 12.923 ns worst
//!   case, rounded to 13 ns),
//! * [`trojans`] — the Trojan framework (pulse generation, edge
//!   detection, homing detection, Trojan control/mux) and the nine
//!   Trojans T1–T9 of Table I,
//! * [`monitor`] — print monitoring: post-homing axis tracking and the
//!   16-byte/0.1 s UART export of step counts (§V),
//! * [`Capture`] / [`detect`] — the golden-model comparison that
//!   detected every Flaw3D Trojan in Table II, including the paper's 5 %
//!   windowed margin and 0 % end-of-print check (Figure 4),
//! * [`TestBench`] — a one-call harness wiring firmware → OFFRAMPS →
//!   plant on a single deterministic event queue.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use offramps::{TestBench, SignalPath};
//! use offramps_gcode::slicer::{slice, SlicerConfig, Solid};
//!
//! let cfg = SlicerConfig::fast();
//! let program = Arc::new(slice(&Solid::rect_prism(5.0, 5.0, 0.3), &cfg));
//! let run = TestBench::new(1).signal_path(SignalPath::capture()).run(&program)?;
//! let capture = run.capture.expect("capture path records transactions");
//! assert!(capture.len() > 0);
//! # Ok::<(), offramps::BenchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod config;
pub mod detect;
pub mod mitm;
pub mod monitor;
mod testbench;
pub mod trojans;
pub mod verdict;

pub use capture::{Capture, Transaction};
pub use config::{MitmConfig, SignalPath};
pub use detect::{DetectionReport, DetectorConfig, Mismatch, StreamingCompare};
pub use mitm::Offramps;
pub use testbench::{BenchError, RunArtifacts, TestBench};
pub use trojans::{Disposition, Trojan, TrojanCtx};
pub use verdict::{
    Channel, ChannelData, ChannelSynth, Detector, DetectorSuite, Evidence, EvidenceBundle,
    FusionPolicy, FusionTally, OnlineMonitor, OnlineOutcome, OnlineStep, SampledDetector,
    StreamState, StreamingSuite, TimeToDetection, TransactionDetector, Verdict, WindowData,
    WindowEvidence,
};
