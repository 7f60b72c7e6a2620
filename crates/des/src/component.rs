//! The uniform component interface of the co-simulation kernel.
//!
//! Every simulated device — firmware, interceptor, plant, and anything a
//! future backend adds — implements [`SimComponent`] and communicates
//! exclusively through an [`ActionSink`]: a reusable buffer of outbound
//! payloads and wake-up requests. The [`Scheduler`] owns the event queue
//! and routing; components never see it. Because the sink buffer is
//! reused across events, a steady-state simulation loop performs no
//! per-event allocation.
//!
//! [`Scheduler`]: crate::Scheduler

use crate::time::Tick;

/// Identifies a component registered with a [`Scheduler`].
///
/// [`Scheduler`]: crate::Scheduler
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompId(pub(crate) usize);

impl CompId {
    /// The registration index (0 for the first component added).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A component-relative **output** port index.
///
/// Components address their outbound traffic by port; the scheduler's
/// routing table (see [`Scheduler::connect`]) maps each output port to a
/// destination component and input port.
///
/// [`Scheduler::connect`]: crate::Scheduler::connect
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutPort(pub usize);

/// A component-relative **input** port index, passed to
/// [`SimComponent::on_event`] so one component can tell its input
/// streams apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InPort(pub usize);

/// One buffered output of a component callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkAction<P> {
    /// Deliver `payload` through output `port` at time `at`.
    Send {
        /// The component-relative output port.
        port: OutPort,
        /// Delivery time (already clamped to be >= the callback's now).
        at: Tick,
        /// The payload to deliver.
        payload: P,
    },
    /// Request an [`SimComponent::on_tick`] wake-up at this time.
    WakeAt(Tick),
}

/// A reusable buffer components write their outputs into.
///
/// The kernel hands the same sink to every component callback and drains
/// it afterwards, so the buffer's capacity stabilises after warm-up and
/// the hot loop allocates nothing. Actions are applied in the order they
/// were pushed, which keeps tie-breaking among same-tick events exactly
/// as deterministic as the old `Vec`-returning interfaces.
///
/// # Example
///
/// ```
/// use offramps_des::{ActionSink, OutPort, SinkAction, Tick};
///
/// let mut sink: ActionSink<&'static str> = ActionSink::new();
/// sink.begin(Tick::from_micros(5));
/// sink.send(OutPort(0), "hello");
/// sink.wake_at(Tick::from_micros(9));
/// assert_eq!(sink.actions().len(), 2);
/// sink.drain().for_each(drop);
/// assert!(sink.is_empty()); // drained; the buffer is kept for reuse
/// ```
#[derive(Debug)]
pub struct ActionSink<P> {
    now: Tick,
    actions: Vec<SinkAction<P>>,
}

impl<P> Default for ActionSink<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> ActionSink<P> {
    /// Creates an empty sink.
    pub fn new() -> Self {
        ActionSink {
            now: Tick::ZERO,
            actions: Vec::new(),
        }
    }

    /// Opens the sink for one component callback at simulation time
    /// `now`. Called by the scheduler (or a test harness) before every
    /// `start`/`on_event`/`on_tick` invocation.
    ///
    /// # Panics
    ///
    /// Debug-panics if the previous callback's actions were not drained.
    pub fn begin(&mut self, now: Tick) {
        debug_assert!(self.actions.is_empty(), "undrained sink actions");
        self.now = now;
    }

    /// The simulation time of the current callback.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Emits `payload` on `port` at the current time.
    pub fn send(&mut self, port: OutPort, payload: P) {
        let at = self.now;
        self.actions.push(SinkAction::Send { port, at, payload });
    }

    /// Emits `payload` on `port` at `at` (clamped to the current time,
    /// so components cannot schedule into the past).
    pub fn send_at(&mut self, port: OutPort, at: Tick, payload: P) {
        let at = at.max(self.now);
        self.actions.push(SinkAction::Send { port, at, payload });
    }

    /// Requests a wake-up at `at`. The scheduler keeps at most one
    /// pending wake per component, honouring the earliest request.
    pub fn wake_at(&mut self, at: Tick) {
        self.actions.push(SinkAction::WakeAt(at.max(self.now)));
    }

    /// The buffered actions, in push order.
    pub fn actions(&self) -> &[SinkAction<P>] {
        &self.actions
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The buffer's current allocation, in actions. Stable across events
    /// once the simulation warms up — the property the kernel's
    /// allocation-free claim rests on (and that the unit tests assert).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.actions.capacity()
    }

    /// Removes and returns all buffered actions in push order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, SinkAction<P>> {
        self.actions.drain(..)
    }
}

/// A device on the co-simulation's shared clock.
///
/// Implementations receive three kinds of stimulus and answer through
/// the provided [`ActionSink`] only:
///
/// * [`start`](SimComponent::start) — once, when the scheduler boots;
/// * [`on_event`](SimComponent::on_event) — a routed payload arriving on
///   one of the component's input ports;
/// * [`on_tick`](SimComponent::on_tick) — a previously requested timer
///   wake-up.
///
/// The payload type is an associated type so a whole simulation shares
/// one event vocabulary (for OFFRAMPS, `SignalEvent`) while the kernel
/// stays domain-agnostic.
pub trait SimComponent {
    /// The event vocabulary flowing between components.
    type Payload;

    /// Boot hook, called once before any event is delivered.
    fn start(&mut self, _now: Tick, _sink: &mut ActionSink<Self::Payload>) {}

    /// A payload arrived on input `port`.
    fn on_event(
        &mut self,
        now: Tick,
        port: InPort,
        payload: Self::Payload,
        sink: &mut ActionSink<Self::Payload>,
    );

    /// A requested wake-up fired.
    fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<Self::Payload>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_records_current_time() {
        let mut sink: ActionSink<u32> = ActionSink::new();
        sink.begin(Tick::from_micros(3));
        sink.send(OutPort(1), 7);
        assert_eq!(
            sink.actions(),
            &[SinkAction::Send {
                port: OutPort(1),
                at: Tick::from_micros(3),
                payload: 7
            }]
        );
        assert_eq!(sink.now(), Tick::from_micros(3));
    }

    #[test]
    fn send_at_clamps_to_now() {
        let mut sink: ActionSink<u32> = ActionSink::new();
        sink.begin(Tick::from_micros(10));
        sink.send_at(OutPort(0), Tick::from_micros(2), 1);
        sink.wake_at(Tick::ZERO);
        assert_eq!(
            sink.actions(),
            &[
                SinkAction::Send {
                    port: OutPort(0),
                    at: Tick::from_micros(10),
                    payload: 1
                },
                SinkAction::WakeAt(Tick::from_micros(10)),
            ]
        );
    }

    #[test]
    fn drain_preserves_capacity() {
        let mut sink: ActionSink<u64> = ActionSink::new();
        sink.begin(Tick::ZERO);
        for i in 0..64 {
            sink.send(OutPort(0), i);
        }
        let cap = sink.capacity();
        assert!(cap >= 64);
        for round in 0..100 {
            assert_eq!(sink.drain().count(), if round == 0 { 64 } else { 2 });
            sink.begin(Tick::from_micros(round));
            sink.send(OutPort(0), round);
            sink.wake_at(Tick::from_micros(round + 1));
            assert_eq!(sink.capacity(), cap, "no reallocation across events");
        }
    }
}
