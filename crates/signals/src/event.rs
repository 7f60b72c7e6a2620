//! Logic levels, edges, and the signal-event vocabulary.

use std::fmt;

use crate::pin::Pin;

/// A digital logic level.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Logic low (0 V).
    #[default]
    Low,
    /// Logic high (5 V on the Arduino/RAMPS side, 3.3 V inside the FPGA).
    High,
}

impl Level {
    /// True if high.
    pub const fn is_high(self) -> bool {
        matches!(self, Level::High)
    }
}

impl From<bool> for Level {
    fn from(b: bool) -> Self {
        if b {
            Level::High
        } else {
            Level::Low
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Low => "L",
            Level::High => "H",
        })
    }
}

/// A logic transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Low → high.
    Rising,
    /// High → low.
    Falling,
}

impl Edge {
    /// The edge that ends at `to`.
    pub const fn to(to: Level) -> Edge {
        match to {
            Level::High => Edge::Rising,
            Level::Low => Edge::Falling,
        }
    }
}

/// A level change on one digital pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogicEvent {
    /// The pin that changed.
    pub pin: Pin,
    /// The level it changed to.
    pub level: Level,
}

impl LogicEvent {
    /// Creates a level-change event.
    pub const fn new(pin: Pin, level: Level) -> Self {
        LogicEvent { pin, level }
    }
}

impl fmt::Display for LogicEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.pin, self.level)
    }
}

/// An analog channel of the interface (read via the FPGA's XADC in the
/// paper; thermistor dividers on the RAMPS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnalogChannel {
    /// Hotend thermistor (RAMPS `T0`, Mega A13).
    HotendTherm,
    /// Bed thermistor (RAMPS `T1`, Mega A14).
    BedTherm,
}

impl AnalogChannel {
    /// Both channels.
    pub const ALL: [AnalogChannel; 2] = [AnalogChannel::HotendTherm, AnalogChannel::BedTherm];

    /// Signal name as on the RAMPS silkscreen.
    pub const fn name(self) -> &'static str {
        match self {
            AnalogChannel::HotendTherm => "T0",
            AnalogChannel::BedTherm => "T1",
        }
    }
}

impl fmt::Display for AnalogChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Direction of a UART byte relative to the Arduino.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UartDirection {
    /// Arduino → display/control board (through the RAMPS AUX headers).
    ControllerToDisplay,
    /// Display/control board → Arduino.
    DisplayToController,
}

/// Everything that can cross the Arduino ↔ RAMPS boundary, and therefore
/// everything the OFFRAMPS interceptor can observe or modify.
///
/// UART is modelled per-byte rather than per-bit (see `DESIGN.md` §4):
/// the interceptor's monitoring treats UART frames as opaque payloads, so
/// bit-level events would add cost without changing any measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SignalEvent {
    /// A digital level change.
    Logic(LogicEvent),
    /// A sampled thermistor conversion: 10-bit ADC counts as the Arduino's
    /// ADC would report (0 = 0 V, 1023 = 5 V).
    Adc {
        /// Which thermistor divider was sampled.
        channel: AnalogChannel,
        /// Raw 10-bit conversion result.
        counts: u16,
    },
    /// A display-UART byte.
    Uart {
        /// Transfer direction.
        direction: UartDirection,
        /// Payload byte.
        byte: u8,
    },
}

impl SignalEvent {
    /// Convenience constructor for a logic change.
    pub const fn logic(pin: Pin, level: Level) -> Self {
        SignalEvent::Logic(LogicEvent::new(pin, level))
    }

    /// The inner logic event, if this is one.
    pub const fn as_logic(&self) -> Option<LogicEvent> {
        match self {
            SignalEvent::Logic(ev) => Some(*ev),
            _ => None,
        }
    }
}

impl fmt::Display for SignalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalEvent::Logic(ev) => write!(f, "{ev}"),
            SignalEvent::Adc { channel, counts } => write!(f, "{channel}={counts}"),
            SignalEvent::Uart { direction, byte } => {
                let arrow = match direction {
                    UartDirection::ControllerToDisplay => "->LCD",
                    UartDirection::DisplayToController => "<-LCD",
                };
                write!(f, "UART{arrow}:{byte:#04x}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_inversion_and_bits() {
        assert!(Level::High.is_high());
        assert_eq!(Level::from(true), Level::High);
        assert_eq!(Level::default(), Level::Low);
    }

    #[test]
    fn edge_round_trip() {
        assert_eq!(Edge::to(Level::High), Edge::Rising);
        assert_eq!(Edge::to(Level::Low), Edge::Falling);
    }

    #[test]
    fn logic_event_edge() {
        let ev = LogicEvent::new(Pin::EStep, Level::High);
        assert_eq!(ev.to_string(), "E0_STEP=H");
    }

    #[test]
    fn signal_event_accessors() {
        let ev = SignalEvent::logic(Pin::XDir, Level::Low);
        assert_eq!(ev.as_logic(), Some(LogicEvent::new(Pin::XDir, Level::Low)));
        let adc = SignalEvent::Adc {
            channel: AnalogChannel::HotendTherm,
            counts: 512,
        };
        assert_eq!(adc.as_logic(), None);
        assert_eq!(adc.to_string(), "T0=512");
        let uart = SignalEvent::Uart {
            direction: UartDirection::ControllerToDisplay,
            byte: 0x41,
        };
        assert_eq!(uart.to_string(), "UART->LCD:0x41");
    }
}
