//! Lossy power side-channel detection — the baseline OFFRAMPS is
//! positioned against.
//!
//! The paper's related work (§II-B) surveys detection through physical
//! side channels; the closest comparator is actuator **power
//! signatures** (Gatlin et al.): record the power drawn by the stepper
//! motors and heaters, compare against a golden power profile, and flag
//! sabotage. That approach is inherently *lossy* — the channel
//! aggregates all motors into one waveform and adds measurement noise —
//! which is exactly why the paper argues OFFRAMPS, "by connecting
//! directly to control signals, is uniquely able to modify or analyze
//! prints with no loss of data."
//!
//! This crate makes that comparison quantitative — and, since PR 5,
//! generic over *modalities*:
//!
//! * [`PowerModel`] — synthesizes the power waveform a shunt sensor
//!   would see from a recorded [`SignalTrace`]: per-motor stepping power
//!   (proportional to step rate), heater gate power, fan power, summed
//!   into **one** channel and corrupted with Gaussian sensor noise,
//! * [`AcousticModel`] — the acoustic/EM channel: per-frame emission
//!   intensity from the total stepping rate plus "clicks" at step-timing
//!   discontinuities (the signature of masked/injected pulses that keep
//!   per-window step counts — and therefore power — intact),
//! * [`ThermalCamera`] — the thermal channel: the hotend+bed radiance
//!   proxy resampled at camera frame rate, observing *true* plant
//!   temperatures rather than the spoofable thermistor read-out,
//! * [`comparator`] — the modality-generic judging core: golden-profile
//!   windowed comparison ([`single_profile_compare`]) and the
//!   repetition-calibrated acceptance band ([`CalibratedProfile`]) that
//!   every sampled channel shares,
//! * [`PowerDetector`] — the power-typed single-profile wrapper, and
//!   [`PowerDetectorConfig`], the tuning the campaign `power` judge
//!   takes,
//! * the `baseline` experiment in `offramps-bench` runs the detectors
//!   over the Table II attacks and reports who catches what.
//!
//! [`SignalTrace`]: offramps_signals::SignalTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acoustic;
pub mod comparator;
mod detector;
mod model;
mod thermal;

pub use acoustic::{AcousticModel, AcousticTrace};
pub use comparator::{
    compare_sampled, single_profile_compare, suspect_anomaly_fraction, CalibratedProfile,
    ComparatorConfig, SideChannelReport, StreamingComparator,
};
pub use detector::{PowerDetector, PowerDetectorConfig};
pub use model::{PowerModel, PowerTrace};
pub use thermal::{ThermalCamera, ThermalTrace};
