//! The co-simulation scheduler: a calendar of per-route FIFO lanes and
//! per-component wake slots over [`SimComponent`] ports.
//!
//! The scheduler owns all kernel state (event calendar, wake slots, the
//! reusable [`ActionSink`]) but **not** the components themselves: every
//! call to [`Scheduler::step`] borrows them through a [`ComponentSet`],
//! so a harness keeps full access to its components between steps — for
//! sampling observables, checking termination conditions, or tearing
//! the simulation down early.
//!
//! # Calendar layout
//!
//! Co-simulated hardware produces two overwhelmingly regular event
//! streams: routed sends whose delivery times are non-decreasing per
//! output port (a pipeline emits in wall-clock order), and timer wakes
//! of which each component keeps at most one pending. The calendar
//! exploits both instead of paying a binary-heap sift per event:
//!
//! * **Route lanes** — every connected `(component, out-port)` pair owns
//!   a `VecDeque` of `(tick, seq, payload)` entries, sorted by
//!   construction. Scheduling and delivery are O(1) ring-buffer ops.
//! * **Wake slots** — at most one pending `(tick, seq)` wake per
//!   component, held outside any queue; deduplication and replacement
//!   are slot rewrites, with no cancellation machinery at all.
//! * **Spill heap** — the rare send whose delivery time regresses within
//!   its lane (a Trojan injecting behind its own pipeline, ~0.2% of
//!   sends in an attack sweep) goes to a small binary heap instead.
//!
//! One pop scans the lane fronts, the wake slots and the spill head — a
//! handful of `(tick, seq)` compares on two cache lines — and delivers
//! the global minimum. Every scheduled action consumes one monotonically
//! increasing sequence number in buffer order, and delivery order is
//! exactly ascending `(tick, seq)`: the same total order a single
//! FIFO-stable priority queue would produce, so artifacts are
//! byte-identical to the heap-based kernel this replaces.
//!
//! # Example
//!
//! ```
//! use offramps_des::{
//!     ActionSink, CompId, ComponentSet, InPort, OutPort, Scheduler, SimComponent, Tick,
//! };
//!
//! /// Sends one ping at t=1us, then stops.
//! struct Ping;
//! /// Counts the pings it receives.
//! struct Pong(u64);
//!
//! impl SimComponent for Ping {
//!     type Payload = u64;
//!     fn start(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
//!         sink.send_at(OutPort(0), now + offramps_des::SimDuration::from_micros(1), 42);
//!     }
//!     fn on_event(&mut self, _: Tick, _: InPort, _: u64, _: &mut ActionSink<u64>) {}
//!     fn on_tick(&mut self, _: Tick, _: &mut ActionSink<u64>) {}
//! }
//! impl SimComponent for Pong {
//!     type Payload = u64;
//!     fn on_event(&mut self, _: Tick, _: InPort, n: u64, _: &mut ActionSink<u64>) {
//!         self.0 += n;
//!     }
//!     fn on_tick(&mut self, _: Tick, _: &mut ActionSink<u64>) {}
//! }
//!
//! struct World { ping: Ping, pong: Pong }
//! impl ComponentSet<u64> for World {
//!     fn len(&self) -> usize { 2 }
//!     fn component(&mut self, id: CompId) -> &mut dyn SimComponent<Payload = u64> {
//!         match id.index() { 0 => &mut self.ping, _ => &mut self.pong }
//!     }
//! }
//!
//! let mut sched: Scheduler<u64> = Scheduler::new();
//! let ping = sched.add_component();
//! let pong = sched.add_component();
//! sched.connect(ping, OutPort(0), pong, InPort(0));
//! let mut world = World { ping: Ping, pong: Pong(0) };
//! sched.start(&mut world);
//! while sched.step(&mut world).is_some() {}
//! assert_eq!(world.pong.0, 42);
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::component::{ActionSink, CompId, InPort, OutPort, SimComponent, SinkAction};
use crate::time::Tick;

/// Mutable access to the components registered with a [`Scheduler`],
/// indexed by [`CompId`] in registration order.
///
/// The scheduler borrows the set only for the duration of one
/// [`Scheduler::step`] call, which is what lets the owning harness
/// inspect its components freely between steps.
pub trait ComponentSet<P> {
    /// Number of components; must equal the number registered.
    fn len(&self) -> usize;

    /// True when the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The component registered as `id`.
    fn component(&mut self, id: CompId) -> &mut dyn SimComponent<Payload = P>;
}

impl<P> ComponentSet<P> for [&mut dyn SimComponent<Payload = P>] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn component(&mut self, id: CompId) -> &mut dyn SimComponent<Payload = P> {
        &mut *self[id.index()]
    }
}

/// What kind of stimulus one [`Scheduler::step`] delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// The component's `on_tick` ran.
    Wake,
    /// The component's `on_event` ran with a payload on this input port.
    Event(InPort),
}

/// Hot-path counters of one kernel run, snapshotted after the run and
/// published through the observability plane. The kernel keeps these
/// as plain integer fields bumped on paths it already touches — no
/// handles, locks, or branches are added to the hot loop, so the
/// counters exist whether or not anything reads them.
///
/// Every field is a pure function of the scenario, so the counters
/// land in the deterministic metrics document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events delivered (completed read/write step cycles).
    pub events: u64,
    /// Wake requests folded into an already-armed wake slot (skipped
    /// as later than the pending wake, or replacing a later one).
    pub wake_dedups: u64,
    /// Sends whose delivery time regressed within their route lane and
    /// took the spill heap.
    pub spills: u64,
}

/// Report of one processed event, returned by [`Scheduler::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Simulation time of the event.
    pub tick: Tick,
    /// The component that handled it.
    pub comp: CompId,
    /// Whether it was a wake-up or a routed payload.
    pub kind: StepKind,
}

/// One connected output port's delivery lane: destination plus the
/// tick-sorted FIFO of in-flight sends.
#[derive(Debug)]
struct Route<P> {
    dest: CompId,
    port: InPort,
    fifo: VecDeque<(Tick, u64, P)>,
}

/// A send whose delivery time regressed within its lane; kept in a
/// binary heap ordered by `(tick, seq)`, min-first.
#[derive(Debug)]
struct Spill<P> {
    tick: Tick,
    seq: u64,
    dest: CompId,
    port: InPort,
    payload: P,
}

impl<P> PartialEq for Spill<P> {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.seq == other.seq
    }
}
impl<P> Eq for Spill<P> {}
impl<P> PartialOrd for Spill<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Spill<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-(tick, seq) first.
        other
            .tick
            .cmp(&self.tick)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Where the next delivery comes from, as found by the calendar scan.
#[derive(Debug, Clone, Copy)]
enum Source {
    Wake(usize),
    Route(usize),
    Spill,
}

/// The co-simulation kernel: route lanes, per-component wake slots, the
/// spill heap, and the reusable action sink.
///
/// Wake requests are deduplicated per component: at most one wake is
/// pending at a time, and an earlier request replaces a later pending
/// one (components re-arm themselves each time they run, so naive
/// scheduling would grow quadratically in wake events).
#[derive(Debug)]
pub struct Scheduler<P> {
    /// `route_idx[comp][out_port]` — which entry of `routes` that output
    /// delivers through.
    route_idx: Vec<Vec<Option<u32>>>,
    routes: Vec<Route<P>>,
    /// At most one pending `(tick, seq)` wake per component.
    wakes: Vec<Option<(Tick, u64)>>,
    spill: BinaryHeap<Spill<P>>,
    sink: ActionSink<P>,
    /// Next schedule sequence number; every accepted send or wake
    /// consumes one, in sink-buffer order.
    next_seq: u64,
    now: Tick,
    /// Pending deliveries across lanes, wake slots and spill.
    live: usize,
    events: u64,
    spilled: u64,
    wake_dedups: u64,
    /// Memo of the last calendar scan, valid until the next write phase;
    /// lets the harness's peek-then-step pattern scan once per event.
    picked: Option<(Tick, u64, Source)>,
}

impl<P> Default for Scheduler<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Scheduler<P> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            route_idx: Vec::new(),
            routes: Vec::new(),
            wakes: Vec::new(),
            spill: BinaryHeap::new(),
            sink: ActionSink::new(),
            next_seq: 0,
            now: Tick::ZERO,
            live: 0,
            events: 0,
            spilled: 0,
            wake_dedups: 0,
            picked: None,
        }
    }

    /// Registers the next component slot and returns its id. Components
    /// are later presented to [`Scheduler::step`] through a
    /// [`ComponentSet`] in the same order.
    pub fn add_component(&mut self) -> CompId {
        let id = CompId(self.route_idx.len());
        self.route_idx.push(Vec::new());
        self.wakes.push(None);
        id
    }

    /// Routes `from`'s output `port` to `to`'s input `in_port`.
    ///
    /// # Panics
    ///
    /// Panics if either component id was not issued by this scheduler.
    pub fn connect(&mut self, from: CompId, port: OutPort, to: CompId, in_port: InPort) {
        assert!(to.0 < self.route_idx.len(), "unknown destination component");
        let table = &mut self.route_idx[from.0];
        if table.len() <= port.0 {
            table.resize(port.0 + 1, None);
        }
        match table[port.0] {
            Some(idx) => {
                let route = &mut self.routes[idx as usize];
                route.dest = to;
                route.port = in_port;
            }
            None => {
                let idx = u32::try_from(self.routes.len()).expect("more than 2^32 routes");
                table[port.0] = Some(idx);
                self.routes.push(Route {
                    dest: to,
                    port: in_port,
                    fifo: VecDeque::new(),
                });
            }
        }
    }

    /// Boots every component: calls [`SimComponent::start`] in
    /// registration order, applying each component's actions before the
    /// next boots (matching the behaviour of a hand-written harness that
    /// dispatches after each `start` call).
    pub fn start<C: ComponentSet<P> + ?Sized>(&mut self, comps: &mut C) {
        debug_assert_eq!(
            comps.len(),
            self.route_idx.len(),
            "component set size mismatch"
        );
        let now = self.now;
        for index in 0..self.route_idx.len() {
            let id = CompId(index);
            self.sink.begin(now);
            comps.component(id).start(now, &mut self.sink);
            self.write_phase(id);
        }
    }

    /// Scans lane fronts, wake slots and the spill head for the earliest
    /// pending `(tick, seq)`.
    #[inline]
    fn pick(&self) -> Option<(Tick, u64, Source)> {
        let mut best: Option<(Tick, u64, Source)> = None;
        for (index, wake) in self.wakes.iter().enumerate() {
            if let Some((tick, seq)) = *wake {
                if best.is_none_or(|(bt, bs, _)| (tick, seq) < (bt, bs)) {
                    best = Some((tick, seq, Source::Wake(index)));
                }
            }
        }
        for (index, route) in self.routes.iter().enumerate() {
            if let Some(&(tick, seq, _)) = route.fifo.front() {
                if best.is_none_or(|(bt, bs, _)| (tick, seq) < (bt, bs)) {
                    best = Some((tick, seq, Source::Route(index)));
                }
            }
        }
        if let Some(spill) = self.spill.peek() {
            if best.is_none_or(|(bt, bs, _)| (spill.tick, spill.seq) < (bt, bs)) {
                best = Some((spill.tick, spill.seq, Source::Spill));
            }
        }
        best
    }

    /// Pops and delivers the next event. Returns `None` when the
    /// calendar is exhausted.
    ///
    /// Each step is an explicit two-phase cycle:
    ///
    /// 1. **Read phase** — the component callback runs. It may inspect
    ///    and mutate its *own* state freely, but every externally
    ///    visible effect (a routed send, a wake request) is only
    ///    *buffered* as a deferred command in the [`ActionSink`].
    /// 2. **Write phase** — the kernel commits the buffered commands to
    ///    the calendar lanes and wake slots.
    ///
    /// Because no callback ever touches kernel state directly, sibling
    /// components step through one shared event structure without
    /// aliasing hazards.
    pub fn step<C: ComponentSet<P> + ?Sized>(&mut self, comps: &mut C) -> Option<StepInfo> {
        let (tick, _seq, source) = match self.picked.take() {
            Some(memo) => memo,
            None => self.pick()?,
        };
        debug_assert!(tick >= self.now, "event calendar went backwards");
        self.now = tick;
        self.events += 1;
        self.live -= 1;

        // Read phase, fused with the calendar pop: the callback runs
        // with every externally visible effect buffered in the sink.
        self.sink.begin(tick);
        let (comp, kind) = match source {
            Source::Wake(index) => {
                self.wakes[index] = None;
                let comp = CompId(index);
                comps.component(comp).on_tick(tick, &mut self.sink);
                (comp, StepKind::Wake)
            }
            Source::Route(index) => {
                let route = &mut self.routes[index];
                let (_, _, payload) = route.fifo.pop_front().expect("picked lane is non-empty");
                let (dest, port) = (route.dest, route.port);
                comps
                    .component(dest)
                    .on_event(tick, port, payload, &mut self.sink);
                (dest, StepKind::Event(port))
            }
            Source::Spill => {
                let spill = self.spill.pop().expect("picked spill is non-empty");
                comps.component(spill.dest).on_event(
                    tick,
                    spill.port,
                    spill.payload,
                    &mut self.sink,
                );
                (spill.dest, StepKind::Event(spill.port))
            }
        };
        self.write_phase(comp);
        Some(StepInfo { tick, comp, kind })
    }

    /// The tick of the next pending event, if any.
    #[inline]
    pub fn peek_tick(&mut self) -> Option<Tick> {
        if let Some((tick, _, _)) = self.picked {
            return Some(tick);
        }
        let found = self.pick()?;
        self.picked = Some(found);
        Some(found.0)
    }

    /// The timestamp of the most recently processed event.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Total events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// True when no live events remain.
    pub fn is_empty(&mut self) -> bool {
        self.live == 0
    }

    /// Wake requests deduplicated into an already-armed slot
    /// (diagnostics: how much work the slot design saves over a queue).
    pub fn wake_dedups(&self) -> u64 {
        self.wake_dedups
    }

    /// Snapshot of the run's kernel counters, for the observability
    /// plane.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            events: self.events,
            wake_dedups: self.wake_dedups,
            spills: self.spilled,
        }
    }

    /// Write phase of one step: drains the shared sink, appending sends
    /// to their route lanes (or the spill heap when out of order) and
    /// folding wake requests into `from`'s wake slot. Every accepted
    /// action consumes one sequence number, in buffer order — the
    /// deterministic total order deliveries follow.
    fn write_phase(&mut self, from: CompId) {
        self.picked = None;
        for action in self.sink.drain() {
            match action {
                SinkAction::Send { port, at, payload } => {
                    let Some(&Some(idx)) = self.route_idx[from.0].get(port.0) else {
                        panic!(
                            "component {} sent on unconnected output port {}",
                            from.0, port.0
                        );
                    };
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let route = &mut self.routes[idx as usize];
                    debug_assert!(at >= self.now, "sink actions are clamped to now");
                    if route.fifo.back().is_none_or(|&(tail, _, _)| tail <= at) {
                        route.fifo.push_back((at, seq, payload));
                    } else {
                        self.spilled += 1;
                        self.spill.push(Spill {
                            tick: at,
                            seq,
                            dest: route.dest,
                            port: route.port,
                            payload,
                        });
                    }
                    self.live += 1;
                }
                SinkAction::WakeAt(t) => {
                    let slot = &mut self.wakes[from.0];
                    if let Some((pending, _)) = *slot {
                        // Either outcome folds the request into the
                        // armed slot instead of queueing a new entry.
                        self.wake_dedups += 1;
                        if pending <= t {
                            continue;
                        }
                    } else {
                        self.live += 1;
                    }
                    // An accepted wake consumes a sequence number whether
                    // it arms the slot or replaces a later pending one —
                    // exactly like the cancel-and-reschedule it models.
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    *slot = Some((t, seq));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Asks for several wakes per callback; counts how often it runs.
    #[derive(Debug, Default)]
    struct Waker {
        ticks: Vec<Tick>,
        requests: Vec<Vec<u64>>,
    }

    impl SimComponent for Waker {
        type Payload = ();

        fn start(&mut self, now: Tick, sink: &mut ActionSink<()>) {
            for micros in self.requests.first().cloned().unwrap_or_default() {
                sink.wake_at(now + SimDuration::from_micros(micros));
            }
        }

        fn on_event(&mut self, _: Tick, _: InPort, _: (), _: &mut ActionSink<()>) {}

        fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<()>) {
            self.ticks.push(now);
            for micros in self
                .requests
                .get(self.ticks.len())
                .cloned()
                .unwrap_or_default()
            {
                sink.wake_at(now + SimDuration::from_micros(micros));
            }
        }
    }

    fn run(requests: Vec<Vec<u64>>) -> Vec<Tick> {
        let mut sched: Scheduler<()> = Scheduler::new();
        sched.add_component();
        let mut waker = Waker {
            ticks: Vec::new(),
            requests,
        };
        let mut set: [&mut dyn SimComponent<Payload = ()>; 1] = [&mut waker];
        sched.start(&mut set[..]);
        while sched.step(&mut set[..]).is_some() {}
        waker.ticks
    }

    #[test]
    fn wake_slots_deduplicate_to_earliest() {
        // Three requests in one callback: only the earliest fires.
        let ticks = run(vec![vec![30, 10, 20]]);
        assert_eq!(ticks, vec![Tick::from_micros(10)]);
    }

    #[test]
    fn earlier_request_replaces_pending_later_one() {
        // First callback asks for 50 then 5: 5 wins; the second callback
        // re-arms at +100.
        let ticks = run(vec![vec![50, 5], vec![100]]);
        assert_eq!(ticks, vec![Tick::from_micros(5), Tick::from_micros(105)]);
    }

    #[test]
    fn later_request_cannot_postpone_pending_wake() {
        let ticks = run(vec![vec![5, 50]]);
        assert_eq!(ticks, vec![Tick::from_micros(5)]);
    }

    #[test]
    fn events_are_counted_and_clock_advances() {
        let mut sched: Scheduler<()> = Scheduler::new();
        sched.add_component();
        let mut waker = Waker {
            ticks: Vec::new(),
            requests: vec![vec![7], vec![3]],
        };
        let mut set: [&mut dyn SimComponent<Payload = ()>; 1] = [&mut waker];
        sched.start(&mut set[..]);
        while sched.step(&mut set[..]).is_some() {}
        assert_eq!(sched.events(), 2);
        assert_eq!(sched.now(), Tick::from_micros(10));
        assert!(sched.is_empty());
    }

    /// Two components bouncing a counter payload through routed ports.
    #[derive(Debug, Default)]
    struct Echo {
        seen: Vec<u64>,
        bounces: u64,
    }

    impl SimComponent for Echo {
        type Payload = u64;

        fn on_event(&mut self, now: Tick, port: InPort, payload: u64, sink: &mut ActionSink<u64>) {
            assert_eq!(port, InPort(9), "routed onto the configured input port");
            self.seen.push(payload);
            if payload < self.bounces {
                sink.send_at(OutPort(0), now + SimDuration::from_micros(1), payload + 1);
            }
        }

        fn on_tick(&mut self, _: Tick, _: &mut ActionSink<u64>) {}
    }

    #[test]
    fn routing_delivers_across_components() {
        let mut sched: Scheduler<u64> = Scheduler::new();
        let a = sched.add_component();
        let b = sched.add_component();
        sched.connect(a, OutPort(0), b, InPort(9));
        sched.connect(b, OutPort(0), a, InPort(9));

        let mut left = Echo {
            seen: Vec::new(),
            bounces: 6,
        };
        let mut right = Echo {
            seen: Vec::new(),
            bounces: 6,
        };
        {
            let mut set: [&mut dyn SimComponent<Payload = u64>; 2] = [&mut left, &mut right];
            sched.start(&mut set[..]);
            // Kick off the bounce loop by sending 0 out of component a
            // through the kernel's own sink-and-commit path.
            sched.sink.begin(Tick::ZERO);
            sched.sink.send(OutPort(0), 0u64);
            sched.write_phase(a);
            while sched.step(&mut set[..]).is_some() {}
        }
        // a sent 0 → b; then odd numbers land on a, even on b.
        assert_eq!(right.seen, vec![0, 2, 4, 6]);
        assert_eq!(left.seen, vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "unconnected output port")]
    fn unrouted_send_panics() {
        let mut sched: Scheduler<u64> = Scheduler::new();
        let a = sched.add_component();
        sched.sink.begin(Tick::ZERO);
        sched.sink.send(OutPort(3), 1u64);
        sched.write_phase(a);
    }

    /// One callback emitting sends with out-of-order delivery times: the
    /// regressing send takes the spill heap but still delivers in global
    /// tick order, interleaved with the lane.
    #[test]
    fn out_of_order_sends_deliver_in_tick_order() {
        struct Burst;
        impl SimComponent for Burst {
            type Payload = u64;
            fn start(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
                sink.send_at(OutPort(0), now + SimDuration::from_micros(30), 30);
                sink.send_at(OutPort(0), now + SimDuration::from_micros(10), 10);
                sink.send_at(OutPort(0), now + SimDuration::from_micros(20), 20);
                sink.send_at(OutPort(0), now + SimDuration::from_micros(40), 40);
            }
            fn on_event(&mut self, _: Tick, _: InPort, _: u64, _: &mut ActionSink<u64>) {}
            fn on_tick(&mut self, _: Tick, _: &mut ActionSink<u64>) {}
        }
        #[derive(Default)]
        struct Log(Vec<(Tick, u64)>);
        impl SimComponent for Log {
            type Payload = u64;
            fn on_event(&mut self, now: Tick, _: InPort, n: u64, _: &mut ActionSink<u64>) {
                self.0.push((now, n));
            }
            fn on_tick(&mut self, _: Tick, _: &mut ActionSink<u64>) {}
        }

        let mut sched: Scheduler<u64> = Scheduler::new();
        let a = sched.add_component();
        let b = sched.add_component();
        sched.connect(a, OutPort(0), b, InPort(0));
        let mut burst = Burst;
        let mut log = Log::default();
        let mut set: [&mut dyn SimComponent<Payload = u64>; 2] = [&mut burst, &mut log];
        sched.start(&mut set[..]);
        while sched.step(&mut set[..]).is_some() {}
        assert_eq!(
            log.0,
            vec![
                (Tick::from_micros(10), 10),
                (Tick::from_micros(20), 20),
                (Tick::from_micros(30), 30),
                (Tick::from_micros(40), 40),
            ]
        );
        assert_eq!(sched.stats().spills, 2, "10 and 20 regressed behind 30");
        assert!(sched.is_empty());
    }

    #[test]
    fn wake_dedups_are_counted_and_snapshot_in_stats() {
        let mut sched: Scheduler<()> = Scheduler::new();
        sched.add_component();
        // Three requests in one callback: the first arms the slot, the
        // earlier second replaces it, the later third is skipped — two
        // deduplications either way.
        let mut waker = Waker {
            ticks: Vec::new(),
            requests: vec![vec![30, 10, 20]],
        };
        let mut set: [&mut dyn SimComponent<Payload = ()>; 1] = [&mut waker];
        sched.start(&mut set[..]);
        while sched.step(&mut set[..]).is_some() {}
        assert_eq!(sched.wake_dedups(), 2);
        assert_eq!(
            sched.stats(),
            KernelStats {
                events: 1,
                wake_dedups: 2,
                spills: 0,
            }
        );
    }

    #[test]
    fn sink_capacity_stabilises() {
        let mut sched: Scheduler<()> = Scheduler::new();
        sched.add_component();
        let requests: Vec<Vec<u64>> = (0..200).map(|i| vec![1 + i % 3, 2, 3]).collect();
        let mut waker = Waker {
            ticks: Vec::new(),
            requests,
        };
        let mut set: [&mut dyn SimComponent<Payload = ()>; 1] = [&mut waker];
        sched.start(&mut set[..]);
        for _ in 0..10 {
            sched.step(&mut set[..]);
        }
        let cap = sched.sink.capacity();
        while sched.step(&mut set[..]).is_some() {}
        assert_eq!(
            sched.sink.capacity(),
            cap,
            "steady state must not reallocate"
        );
    }
}
