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
//! * [`SampledTrace`] — what every model synthesizes: a uniformly
//!   sampled scalar waveform (watts, a.u. or °C) plus its sample
//!   period; one type, because every modality is judged the same way,
//! * [`comparator`] — the modality-generic judging core: golden-profile
//!   windowed comparison ([`single_profile_compare`]) and the
//!   repetition-calibrated acceptance band ([`CalibratedProfile`]) that
//!   every sampled channel shares,
//! * the `baseline` experiment in `offramps-bench` runs the detectors
//!   over the Table II attacks and reports who catches what.
//!
//! [`SignalTrace`]: offramps_signals::SignalTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use offramps_des::SimDuration;

mod acoustic;
pub mod comparator;
mod model;
mod thermal;

pub use acoustic::AcousticModel;
pub use comparator::{
    compare_sampled, single_profile_compare, suspect_anomaly_fraction, CalibratedProfile,
    ComparatorConfig, SideChannelReport, StreamingComparator,
};
pub use model::PowerModel;
pub use thermal::ThermalCamera;

/// A uniformly sampled scalar waveform, as one sensor records it: power
/// in W, emission intensity in a.u., or scene temperature in °C. The
/// unit is the synthesizing model's; the comparator never needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledTrace {
    samples: Vec<f64>,
    period: SimDuration,
}

impl SampledTrace {
    /// The samples, in the model's unit.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Sample period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean sample value (0 for an empty trace).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}
