//! Extension Trojans on the *feedback* path (TX1, TX2).
//!
//! Table I's Trojans all tamper with the control direction. The paper's
//! discussion notes OFFRAMPS "could implement more novel Trojans,
//! requiring fine-grained manipulation and analysis of the
//! firmware-produced control signals" — and the board's MITM position
//! equally covers the *return* direction: endstops and thermistors.
//! These two Trojans demonstrate that surface. Both are invisible to the
//! §V step-count detector (the control stream is untouched), extending
//! the paper's limitation analysis.

use offramps_des::SimDuration;
use offramps_signals::{AnalogChannel, Edge, EdgeDetector, Level, Pin, SignalEvent};

use crate::trojans::{Disposition, Trojan, TrojanCtx};

/// TX1: spoofs the X MIN endstop during homing so the firmware declares
/// zero early — every subsequent coordinate is silently offset, yet the
/// firmware's own step counts match a golden print exactly.
///
/// The Trojan spoofs the fast approach after `after_steps` X microsteps
/// and the slow re-bump after a short re-approach, then retires for the
/// rest of the job.
#[derive(Debug)]
pub struct EndstopSpoofTrojan {
    after_steps: u32,
    rebump_steps: u32,
    edges: EdgeDetector,
    dir_negative: bool,
    steps_this_approach: u32,
    approaches_spoofed: u8,
    /// Diagnostics: spoofed rising edges delivered to the firmware.
    pub spoofs_fired: u64,
    /// Diagnostics: genuine endstop events suppressed.
    pub real_events_suppressed: u64,
}

impl EndstopSpoofTrojan {
    /// Creates TX1: spoof 5 mm (500 µsteps at Prusa X scaling) into the
    /// fast approach.
    pub fn new() -> Self {
        Self::after_steps(500)
    }

    /// Spoof the fast approach after `after_steps` X microsteps; the
    /// slow re-bump is spoofed after a proportionally short distance.
    ///
    /// # Panics
    ///
    /// Panics if `after_steps` is zero.
    pub fn after_steps(after_steps: u32) -> Self {
        assert!(after_steps > 0, "spoof distance must be positive");
        EndstopSpoofTrojan {
            after_steps,
            // The firmware's re-bump travels 2x the back-off (400 steps
            // at default config); trigger comfortably inside that.
            rebump_steps: (after_steps / 4).clamp(1, 150),
            edges: EdgeDetector::new(),
            dir_negative: true, // DIR resets low = negative
            steps_this_approach: 0,
            approaches_spoofed: 0,
            spoofs_fired: 0,
            real_events_suppressed: 0,
        }
    }

    fn active(&self) -> bool {
        self.approaches_spoofed < 2
    }
}

impl Default for EndstopSpoofTrojan {
    fn default() -> Self {
        Self::new()
    }
}

impl Trojan for EndstopSpoofTrojan {
    fn id(&self) -> &'static str {
        "TX1"
    }
    fn kind(&self) -> &'static str {
        "PM"
    }
    fn scenario(&self) -> &'static str {
        "Miscalibration"
    }
    fn effect(&self) -> &'static str {
        "Spoofs the X endstop during homing; the whole print is silently offset"
    }

    fn on_control(&mut self, ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition {
        let Some(logic) = event.as_logic() else {
            return Disposition::Pass;
        };
        if !self.active() {
            return Disposition::Pass;
        }
        match logic.pin {
            Pin::XDir => {
                self.edges.observe(logic);
                let was_negative = self.dir_negative;
                self.dir_negative = logic.level == Level::Low;
                if self.dir_negative != was_negative {
                    // New approach (or retreat): reset the distance count.
                    self.steps_this_approach = 0;
                }
            }
            Pin::XStep if self.edges.observe(logic) == Some(Edge::Rising) && self.dir_negative => {
                self.steps_this_approach += 1;
                let threshold = if self.approaches_spoofed == 0 {
                    self.after_steps
                } else {
                    self.rebump_steps
                };
                if self.steps_this_approach == threshold {
                    // Premature "switch pressed": rising edge now,
                    // release after the firmware has backed away.
                    self.approaches_spoofed += 1;
                    self.spoofs_fired += 1;
                    ctx.inject_feedback(ctx.now, SignalEvent::logic(Pin::XMin, Level::High));
                    ctx.inject_feedback(
                        ctx.now + SimDuration::from_millis(30),
                        SignalEvent::logic(Pin::XMin, Level::Low),
                    );
                }
            }
            _ => {}
        }
        Disposition::Pass
    }

    fn on_feedback(&mut self, _ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition {
        // Suppress the genuine X endstop while we own the line (between
        // the first spoof and retirement), so a real press cannot
        // double-trigger the firmware mid-spoof. After retirement the
        // switch behaves normally — a later G28 re-references truthfully.
        if let Some(logic) = event.as_logic() {
            if logic.pin == Pin::XMin && self.spoofs_fired > 0 && self.active() {
                self.real_events_suppressed += 1;
                return Disposition::Drop;
            }
        }
        Disposition::Pass
    }
}

/// TX2: a gain-style miscalibration of a thermistor read-out. The
/// firmware sees proportionally fewer degrees of rise above ambient
/// (nothing at ambient — so MINTEMP stays quiet) and therefore silently
/// overheats the element while every protection watches the spoofed
/// value.
///
/// Two variants share the mechanism: the default hotend spoof
/// ([`ThermistorSpoofTrojan::reads_cold_by`], the paper-adjacent
/// melt-zone overheat) and a bed spoof
/// (`ThermistorSpoofTrojan::bed_reads_cold_by`, spec `tx2:bed@<c>`).
/// The bed variant is the quiet one: the bed regulates a few degrees
/// hot for the whole print without delaying the (hotend-dominated)
/// heat-up wait, so the motion timeline — and with it the txn, power
/// and acoustic channels — stays byte-for-byte clean. Only a thermal
/// eye on the *true* plant temperatures sees it.
#[derive(Debug)]
pub struct ThermistorSpoofTrojan {
    /// Which thermistor channel is miscalibrated.
    channel: AnalogChannel,
    /// Fraction of the temperature rise above ambient that is reported.
    gain: f64,
    ambient_c: f64,
    beta: f64,
    r25: f64,
    pullup: f64,
    /// ADC samples rewritten.
    pub samples_spoofed: u64,
}

impl ThermistorSpoofTrojan {
    /// Reference printing temperature used to express the hotend spoof
    /// magnitude.
    pub const REFERENCE_TEMP_C: f64 = 215.0;

    /// Reference bed temperature used to express the bed spoof
    /// magnitude.
    pub const REFERENCE_BED_TEMP_C: f64 = 60.0;

    /// Creates TX2 reading `offset_at_print_temp_c` degrees cold at the
    /// 215 °C reference (e.g. 30 → a 215 °C melt zone reads ~185 °C).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= offset < 190`.
    pub fn reads_cold_by(offset_at_print_temp_c: f64) -> Self {
        Self::spoof(
            AnalogChannel::HotendTherm,
            offset_at_print_temp_c,
            Self::REFERENCE_TEMP_C,
            4267.0,
        )
    }

    /// Creates the bed variant: the bed thermistor reads
    /// `offset_at_bed_temp_c` degrees cold at the 60 °C reference, so a
    /// bang-bang bed loop quietly regulates the plate that much hotter.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= offset < 35`.
    pub(crate) fn bed_reads_cold_by(offset_at_bed_temp_c: f64) -> Self {
        Self::spoof(
            AnalogChannel::BedTherm,
            offset_at_bed_temp_c,
            Self::REFERENCE_BED_TEMP_C,
            3950.0,
        )
    }

    fn spoof(channel: AnalogChannel, offset_c: f64, reference_c: f64, beta: f64) -> Self {
        let span = reference_c - 25.0;
        assert!(
            (0.0..span).contains(&offset_c),
            "offset must be in [0, {span})"
        );
        ThermistorSpoofTrojan {
            channel,
            gain: (span - offset_c) / span,
            ambient_c: 25.0,
            beta,
            r25: 100_000.0,
            pullup: 4_700.0,
            samples_spoofed: 0,
        }
    }

    fn counts_to_temp(&self, counts: u16) -> f64 {
        let counts = counts.clamp(1, 1022);
        let frac = f64::from(counts) / 1023.0;
        let r = self.pullup * frac / (1.0 - frac);
        let t25_k = 298.15;
        1.0 / ((r / self.r25).ln() / self.beta + 1.0 / t25_k) - 273.15
    }

    fn temp_to_counts(&self, temp_c: f64) -> u16 {
        let t_k = temp_c + 273.15;
        let r = self.r25 * (self.beta * (1.0 / t_k - 1.0 / 298.15)).exp();
        (r / (r + self.pullup) * 1023.0).round().clamp(0.0, 1023.0) as u16
    }

    /// The temperature the firmware will see for a true `temp_c`.
    pub(crate) fn spoofed_temp(&self, temp_c: f64) -> f64 {
        self.ambient_c + (temp_c - self.ambient_c) * self.gain
    }
}

impl Trojan for ThermistorSpoofTrojan {
    fn id(&self) -> &'static str {
        "TX2"
    }
    fn kind(&self) -> &'static str {
        "PM"
    }
    fn scenario(&self) -> &'static str {
        "Sensor Fault"
    }
    fn effect(&self) -> &'static str {
        match self.channel {
            AnalogChannel::HotendTherm => {
                "Spoofs the hotend thermistor cold; the firmware silently overheats the material"
            }
            AnalogChannel::BedTherm => {
                "Spoofs the bed thermistor cold; the bed silently regulates hot"
            }
        }
    }

    fn on_control(&mut self, _ctx: &mut TrojanCtx<'_>, _event: &SignalEvent) -> Disposition {
        Disposition::Pass
    }

    fn on_feedback(&mut self, _ctx: &mut TrojanCtx<'_>, event: &SignalEvent) -> Disposition {
        if let SignalEvent::Adc { channel, counts } = event {
            if *channel == self.channel {
                let true_temp = self.counts_to_temp(*counts);
                let spoofed = self.temp_to_counts(self.spoofed_temp(true_temp));
                self.samples_spoofed += 1;
                return Disposition::Replace(SignalEvent::Adc {
                    channel: *channel,
                    counts: spoofed,
                });
            }
        }
        Disposition::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trojans::test_util::TrojanHarness;
    use offramps_des::Tick;

    #[test]
    fn tx1_spoofs_fast_and_rebump_then_retires() {
        let mut h = TrojanHarness::new();
        h.homed = false;
        let mut t = EndstopSpoofTrojan::after_steps(10);
        // Fast approach.
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XDir, Level::Low),
        );
        for i in 0..10u64 {
            let at = Tick::from_millis(i);
            h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::High));
            h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::Low));
        }
        assert_eq!(t.spoofs_fired, 1);
        // Back-off (positive) then re-bump (negative).
        h.control(
            &mut t,
            Tick::from_millis(20),
            SignalEvent::logic(Pin::XDir, Level::High),
        );
        h.control(
            &mut t,
            Tick::from_millis(30),
            SignalEvent::logic(Pin::XDir, Level::Low),
        );
        for i in 0..10u64 {
            let at = Tick::from_millis(40 + i);
            h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::High));
            h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::Low));
        }
        assert_eq!(t.spoofs_fired, 2, "re-bump spoofed after {} steps", 10 / 4);
        assert_eq!(h.feedback_injections.len(), 4);
        // Retired: print moves in -X never re-trigger.
        for i in 0..1000u64 {
            let at = Tick::from_millis(100 + i);
            h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::High));
            h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::Low));
        }
        assert_eq!(t.spoofs_fired, 2);
    }

    #[test]
    fn tx1_suppresses_real_endstop_after_first_spoof() {
        let mut h = TrojanHarness::new();
        h.homed = false;
        let mut t = EndstopSpoofTrojan::after_steps(1);
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XDir, Level::Low),
        );
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XStep, Level::High),
        );
        h.control(
            &mut t,
            Tick::ZERO,
            SignalEvent::logic(Pin::XStep, Level::Low),
        );
        let d = h.feedback(
            &mut t,
            Tick::from_secs(1),
            SignalEvent::logic(Pin::XMin, Level::High),
        );
        assert_eq!(d, Disposition::Drop);
        assert_eq!(t.real_events_suppressed, 1);
        // Y endstop unaffected.
        let d = h.feedback(
            &mut t,
            Tick::from_secs(1),
            SignalEvent::logic(Pin::YMin, Level::High),
        );
        assert_eq!(d, Disposition::Pass);
    }

    #[test]
    fn tx1_releases_the_real_switch_after_retirement() {
        let mut h = TrojanHarness::new();
        h.homed = false;
        let mut t = EndstopSpoofTrojan::after_steps(4);
        // Two spoofed approaches retire the Trojan.
        for approach in 0..2 {
            h.control(
                &mut t,
                Tick::ZERO,
                SignalEvent::logic(Pin::XDir, Level::High),
            );
            h.control(
                &mut t,
                Tick::ZERO,
                SignalEvent::logic(Pin::XDir, Level::Low),
            );
            for i in 0..4u64 {
                let at = Tick::from_millis(approach * 100 + i);
                h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::High));
                h.control(&mut t, at, SignalEvent::logic(Pin::XStep, Level::Low));
            }
        }
        assert_eq!(t.spoofs_fired, 2);
        // A genuine press now passes (the end-of-print G28 re-references
        // truthfully — which is exactly how the detector catches TX1).
        let d = h.feedback(
            &mut t,
            Tick::from_secs(9),
            SignalEvent::logic(Pin::XMin, Level::High),
        );
        assert_eq!(d, Disposition::Pass);
    }

    #[test]
    fn tx2_gain_shifts_print_temps_not_ambient() {
        let mut h = TrojanHarness::new();
        let mut t = ThermistorSpoofTrojan::reads_cold_by(30.0);
        // At ambient: unchanged (no MINTEMP trip).
        assert!((t.spoofed_temp(25.0) - 25.0).abs() < 1e-9);
        // At 215C: reads ~185C.
        assert!((t.spoofed_temp(215.0) - 185.0).abs() < 1e-9);

        let true_counts = t.temp_to_counts(215.0);
        let d = h.feedback(
            &mut t,
            Tick::ZERO,
            SignalEvent::Adc {
                channel: AnalogChannel::HotendTherm,
                counts: true_counts,
            },
        );
        let Disposition::Replace(SignalEvent::Adc { counts, .. }) = d else {
            panic!("expected replacement, got {d:?}");
        };
        let reported = t.counts_to_temp(counts);
        assert!(
            (reported - 185.0).abs() < 3.0,
            "215C must read as ~185C, got {reported}"
        );
        assert_eq!(t.samples_spoofed, 1);
    }

    #[test]
    fn tx2_leaves_bed_channel_alone() {
        let mut h = TrojanHarness::new();
        let mut t = ThermistorSpoofTrojan::reads_cold_by(30.0);
        let d = h.feedback(
            &mut t,
            Tick::ZERO,
            SignalEvent::Adc {
                channel: AnalogChannel::BedTherm,
                counts: 500,
            },
        );
        assert_eq!(d, Disposition::Pass);
    }

    #[test]
    fn tx2_bed_variant_spoofs_bed_and_leaves_hotend_alone() {
        let mut h = TrojanHarness::new();
        let mut t = ThermistorSpoofTrojan::bed_reads_cold_by(8.0);
        // At ambient: unchanged. At the 60C reference: reads ~52C.
        assert!((t.spoofed_temp(25.0) - 25.0).abs() < 1e-9);
        assert!((t.spoofed_temp(60.0) - 52.0).abs() < 1e-9);
        let true_counts = t.temp_to_counts(60.0);
        let d = h.feedback(
            &mut t,
            Tick::ZERO,
            SignalEvent::Adc {
                channel: AnalogChannel::BedTherm,
                counts: true_counts,
            },
        );
        let Disposition::Replace(SignalEvent::Adc { channel, counts }) = d else {
            panic!("expected replacement, got {d:?}");
        };
        assert_eq!(channel, AnalogChannel::BedTherm);
        let reported = t.counts_to_temp(counts);
        assert!(
            (reported - 52.0).abs() < 2.0,
            "60C bed must read ~52C, got {reported}"
        );
        // The hotend channel passes untouched.
        let d = h.feedback(
            &mut t,
            Tick::ZERO,
            SignalEvent::Adc {
                channel: AnalogChannel::HotendTherm,
                counts: 300,
            },
        );
        assert_eq!(d, Disposition::Pass);
    }

    #[test]
    #[should_panic(expected = "offset must be in")]
    fn tx2_rejects_absurd_offset() {
        let _ = ThermistorSpoofTrojan::reads_cold_by(250.0);
    }

    #[test]
    #[should_panic(expected = "offset must be in")]
    fn tx2_bed_rejects_absurd_offset() {
        let _ = ThermistorSpoofTrojan::bed_reads_cold_by(40.0);
    }
}
