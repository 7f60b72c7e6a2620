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
//!   would see on the plant's control rail: per-motor stepping power
//!   (proportional to step rate) and holding power, summed into **one**
//!   channel and corrupted with Gaussian sensor noise,
//! * [`AcousticModel`] — the acoustic/EM channel: per-frame emission
//!   intensity from the total stepping rate plus "clicks" at step-timing
//!   discontinuities (the signature of masked/injected pulses that keep
//!   per-window step counts — and therefore power — intact),
//! * [`ThermalCamera`] — the thermal channel: the hotend+bed radiance
//!   proxy resampled at camera frame rate, observing *true* plant
//!   temperatures rather than the spoofable thermistor read-out,
//! * [`PowerFold`] / [`AcousticFold`] — the two edge-driven channels as
//!   per-run folds: the plant pushes each control edge it receives
//!   ([`EdgeSink`]) and `finish` draws the sensor noise, so a run never
//!   has to record its edges. `synthesize` over a recorded
//!   [`SignalTrace`] is the same fold fed the trace's entries,
//! * [`SampledTrace`] — what every model synthesizes: a uniformly
//!   sampled scalar waveform (watts, a.u. or °C) plus its sample
//!   period; one type, because every modality is judged the same way,
//! * [`comparator`] — the modality-generic judging core every sampled
//!   channel shares: [`StreamingComparator`] judges a waveform window by
//!   window against one golden-profile shape, a per-window center and
//!   limit fitted from repeated golden prints (or from a single golden
//!   print with a noise-derived limit),
//! * the `baseline` experiment in `offramps-bench` runs the detectors
//!   over the Table II attacks and reports who catches what.
//!
//! [`SignalTrace`]: offramps_signals::SignalTrace
//! [`EdgeSink`]: offramps_signals::EdgeSink

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use offramps_des::{SimDuration, Tick};

mod acoustic;
pub mod comparator;
mod model;
mod thermal;

pub use acoustic::{AcousticFold, AcousticModel};
pub use comparator::{
    suspect_anomaly_fraction, ComparatorConfig, SideChannelReport, StreamingComparator,
};
pub use model::{PowerFold, PowerModel};
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
}

/// The uniform sampling windows of an edge-driven channel, and how many
/// a run fills: the window of the last edge pushed, on any pin, is the
/// last window.
#[derive(Debug, Clone, Copy)]
struct Windows {
    period: SimDuration,
    last: usize,
}

impl Windows {
    fn new(sample_rate_hz: f64) -> Self {
        Windows {
            period: SimDuration::from_secs_f64(1.0 / sample_rate_hz),
            last: 0,
        }
    }

    /// The window `tick` falls in, which becomes the last window.
    fn of(&mut self, tick: Tick) -> usize {
        self.last = (tick.ticks() / self.period.ticks()) as usize;
        self.last
    }

    /// Windows up to and including the last edge's.
    fn count(&self) -> usize {
        self.last + 1
    }
}
