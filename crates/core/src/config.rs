//! Signal-path configuration (paper Figure 3 and the jumper banks).

use offramps_des::SimDuration;

/// How the OFFRAMPS jumpers route signals (Figure 3): straight through,
/// through the Trojan logic, through the pulse-capture logic, or both
/// FPGA paths at once (possible in hardware; the paper avoids evaluating
/// attack and defense co-located, and so do our experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalPath {
    /// Trojan/modification logic is in-circuit.
    pub modify: bool,
    /// Pulse-capture/monitoring logic is in-circuit.
    pub capture: bool,
}

impl SignalPath {
    /// Figure 3(a): unmodified signal chain.
    pub const fn bypass() -> Self {
        SignalPath {
            modify: false,
            capture: false,
        }
    }

    /// Figure 3(b): FPGA for signal modification.
    // detlint: allow(D7) -- tests/signal_paths.rs
    pub const fn modify() -> Self {
        SignalPath {
            modify: true,
            capture: false,
        }
    }

    /// Figure 3(c): FPGA for signal recording.
    pub const fn capture() -> Self {
        SignalPath {
            modify: false,
            capture: true,
        }
    }

    /// Both FPGA paths (never used for the paper's evaluations).
    // detlint: allow(D7) -- tests/signal_paths.rs
    pub const fn modify_and_capture() -> Self {
        SignalPath {
            modify: true,
            capture: true,
        }
    }
}

impl Default for SignalPath {
    fn default() -> Self {
        SignalPath::bypass()
    }
}

/// Interceptor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitmConfig {
    /// Jumper routing.
    pub path: SignalPath,
    /// Per-edge pipeline delay through the FPGA fabric. The paper
    /// measured a worst case of 12.923 ns (on `Y_DIR`); one 10 ns design
    /// tick plus routing rounds to 13 ns, which at our 10 ns resolution
    /// quantizes to one tick plus the sub-tick remainder being dropped.
    pub pipeline_delay: SimDuration,
    /// UART export period for the monitor (paper: 0.1 s).
    pub export_period: SimDuration,
}

impl Default for MitmConfig {
    fn default() -> Self {
        MitmConfig {
            path: SignalPath::bypass(),
            pipeline_delay: SimDuration::from_nanos(13),
            export_period: SimDuration::from_millis(100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_configurations() {
        assert_eq!(SignalPath::default(), SignalPath::bypass());
        assert!(SignalPath::modify().modify);
        assert!(!SignalPath::modify().capture);
        assert!(SignalPath::capture().capture);
        let both = SignalPath::modify_and_capture();
        assert!(both.modify && both.capture);
    }

    #[test]
    fn default_delay_matches_paper_overhead() {
        let c = MitmConfig::default();
        // 12.923ns rounds to 13ns; at 10ns ticks this stores 1 tick.
        assert_eq!(c.pipeline_delay.ticks(), 1);
        assert_eq!(c.export_period, SimDuration::from_millis(100));
    }
}
