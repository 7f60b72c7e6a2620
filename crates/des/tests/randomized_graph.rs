//! Scheduler invariants under DetRng-randomized component graphs.
//!
//! The unit tests in `scheduler.rs` pin wake-slot dedup and routing on
//! hand-built two-node graphs; these tests drive randomly wired graphs
//! of randomly behaving nodes and assert the kernel-level invariants
//! the campaign runner's determinism rests on:
//!
//! * events are delivered in nondecreasing tick order, FIFO among
//!   equal ticks;
//! * every sent payload is delivered exactly once, to the connected
//!   input port;
//! * per-component wake slots deduplicate to the *earliest* requested
//!   wake (an earlier request replaces a pending later one; a later
//!   request never postpones a pending earlier one);
//! * the same seed replays the same event log, step for step;
//! * a bounded `step` delivers nothing past its bound, and stepping in
//!   bounded windows replays the unbounded log exactly.
//!
//! The event log is written by the nodes' own callbacks.

use std::cell::RefCell;
use std::rc::Rc;

use offramps_des::{
    ActionSink, CompId, ComponentSet, DetRng, InPort, OutPort, Scheduler, SeedSplitter,
    SimComponent, SimDuration, Tick,
};

/// One delivery as the receiving node logged it: the tick, the node,
/// and the input port of a routed payload (`None` for a wake).
type Delivery = (Tick, usize, Option<InPort>);

/// A randomly behaving node: on every callback it may send payloads on
/// its single output port and request several wakes, all driven by its
/// own DetRng stream and bounded by a send budget so the graph drains.
///
/// Each node mirrors the scheduler's documented wake-dedup rule in
/// `expected_wake` (fold every request with `min`); `on_tick` then
/// asserts the scheduler fired exactly the modelled wake.
struct Node {
    id: usize,
    rng: DetRng,
    sends_left: u32,
    /// Payloads sent, encoded as `id * 1_000_000 + seq`.
    sent: Vec<u64>,
    seq: u64,
    /// (tick, payload) of every delivery, in arrival order.
    received: Vec<(Tick, u64)>,
    /// Ticks at which `on_tick` ran.
    woken: Vec<Tick>,
    /// Local model of the scheduler's wake slot.
    expected_wake: Option<Tick>,
    /// The graph-wide delivery log every node appends to.
    log: Rc<RefCell<Vec<Delivery>>>,
}

impl Node {
    fn new(id: usize, rng: DetRng, log: Rc<RefCell<Vec<Delivery>>>) -> Self {
        Node {
            id,
            rng,
            sends_left: 12,
            sent: Vec::new(),
            seq: 0,
            received: Vec::new(),
            woken: Vec::new(),
            expected_wake: None,
            log,
        }
    }

    fn act(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
        // Maybe send a burst (possibly several at the same tick, to
        // exercise FIFO ordering among ties).
        let burst = self.rng.uniform_u64(0, 3) as u32;
        for _ in 0..burst.min(self.sends_left) {
            let payload = self.id as u64 * 1_000_000 + self.seq;
            self.seq += 1;
            self.sends_left -= 1;
            let delay = SimDuration::from_micros(self.rng.uniform_u64(0, 50));
            sink.send_at(OutPort(0), now + delay, payload);
            self.sent.push(payload);
        }
        // Maybe request wakes; fold them into the local dedup model.
        if self.sends_left > 0 {
            for _ in 0..self.rng.uniform_u64(1, 4) {
                let at = now + SimDuration::from_micros(self.rng.uniform_u64(1, 80));
                sink.wake_at(at);
                self.expected_wake = Some(self.expected_wake.map_or(at, |w| w.min(at)));
            }
        }
    }
}

impl SimComponent for Node {
    type Payload = u64;

    fn start(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
        self.act(now, sink);
    }

    fn on_event(&mut self, now: Tick, port: InPort, payload: u64, sink: &mut ActionSink<u64>) {
        self.log.borrow_mut().push((now, self.id, Some(port)));
        assert_eq!(port, InPort(7), "deliveries arrive on the wired port");
        self.received.push((now, payload));
        self.act(now, sink);
    }

    fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
        self.log.borrow_mut().push((now, self.id, None));
        let expected = self
            .expected_wake
            .take()
            .expect("a wake fired that was never requested");
        assert_eq!(
            now, expected,
            "node {}: wake slot must dedup to the earliest request",
            self.id
        );
        self.woken.push(now);
        self.act(now, sink);
    }
}

struct World {
    nodes: Vec<Node>,
}

impl ComponentSet<u64> for World {
    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn component(&mut self, id: CompId) -> &mut dyn SimComponent<Payload = u64> {
        &mut self.nodes[id.index()]
    }
}

/// Builds a random graph (every node's one output port wired to a
/// random node's input 7), runs it to exhaustion, and returns the
/// world, the delivery log and the kernel's event count. With a
/// `window`, steps are bounded: the first window ends `window` after
/// t=0, and each later one `window` after the event that opens it.
/// Without one, every `step` is unbounded.
fn run_graph(seed: u64, window: Option<SimDuration>) -> (World, Vec<Delivery>, u64) {
    let split = SeedSplitter::new(seed);
    let mut topo = split.stream("topology");
    let n = topo.uniform_u64(2, 8) as usize;

    let mut sched: Scheduler<u64> = Scheduler::new();
    let ids: Vec<CompId> = (0..n).map(|_| sched.add_component()).collect();
    for &from in &ids {
        let dest = ids[topo.uniform_u64(0, n as u64) as usize];
        sched.connect(from, OutPort(0), dest, InPort(7));
    }

    let log = Rc::new(RefCell::new(Vec::new()));
    let mut world = World {
        nodes: (0..n)
            .map(|i| Node::new(i, split.stream(&format!("node/{i}")), Rc::clone(&log)))
            .collect(),
    };
    let last_logged = || log.borrow().last().map(|d: &Delivery| d.0);
    sched.start(&mut world);
    let mut until = window.map_or(Tick::MAX, |w| Tick::ZERO + w);
    loop {
        while let Some(tick) = sched.step(&mut world, until) {
            assert!(tick <= until, "seed {seed}: delivered past the bound");
            assert_eq!(last_logged(), Some(tick), "seed {seed}");
        }
        let Some(window) = window else { break };
        // Everything due by `until` is out; the next event lies past it.
        let Some(tick) = sched.step(&mut world, Tick::MAX) else {
            break;
        };
        assert!(
            tick > until,
            "seed {seed}: an event due by the bound was held"
        );
        assert_eq!(last_logged(), Some(tick), "seed {seed}");
        until = tick + window;
    }
    let deliveries = log.take();
    (world, deliveries, sched.stats().events)
}

#[test]
fn ticks_are_nondecreasing_and_events_counted() {
    for seed in 0..20 {
        let (_, log, events) = run_graph(seed, None);
        assert_eq!(log.len() as u64, events, "seed {seed}");
        for pair in log.windows(2) {
            assert!(
                pair[0].0 <= pair[1].0,
                "seed {seed}: time ran backwards: {pair:?}"
            );
        }
    }
}

#[test]
fn every_send_is_delivered_exactly_once() {
    for seed in 0..20 {
        let (world, log, events) = run_graph(seed, None);
        let mut sent: Vec<u64> = world.nodes.iter().flat_map(|n| n.sent.clone()).collect();
        let mut received: Vec<u64> = world
            .nodes
            .iter()
            .flat_map(|n| n.received.iter().map(|(_, p)| *p))
            .collect();
        sent.sort_unstable();
        received.sort_unstable();
        assert_eq!(sent, received, "seed {seed}: payload conservation");
        assert!(!sent.is_empty(), "seed {seed}: graph must do something");

        // Cross-check the log: delivery count matches, and every
        // kernel event was a delivery or a wake, nothing else.
        let deliveries = log.iter().filter(|d| d.2.is_some()).count();
        assert_eq!(deliveries, sent.len(), "seed {seed}");
        let woken: usize = world.nodes.iter().map(|n| n.woken.len()).sum();
        assert_eq!(events, (deliveries + woken) as u64, "seed {seed}");
    }
}

/// FIFO among equal ticks: each node's payloads carry its own send
/// sequence; any two payloads from the same sender arriving at the
/// same destination and the same tick must preserve send order
/// (the scheduler breaks tick ties by schedule sequence).
#[test]
fn same_tick_deliveries_preserve_send_order() {
    let mut saw_tie = false;
    for seed in 0..40 {
        let (world, _, _) = run_graph(seed, None);
        for node in &world.nodes {
            for pair in node.received.windows(2) {
                let ((ta, pa), (tb, pb)) = (pair[0], pair[1]);
                if ta == tb && pa / 1_000_000 == pb / 1_000_000 {
                    saw_tie = true;
                    assert!(
                        pa < pb,
                        "seed {seed}: same-sender same-tick deliveries reordered: \
                         {pa} after {pb}"
                    );
                }
            }
        }
    }
    assert!(saw_tie, "40 random graphs should produce at least one tie");
}

#[test]
fn wake_slots_fire_at_most_once_per_request_batch() {
    for seed in 0..20 {
        let (world, _, _) = run_graph(seed, None);
        // The per-callback assertion inside Node::on_tick already pinned
        // each wake to the earliest pending request; here we check no
        // node still owes a wake (drained queue means every pending
        // request fired).
        for node in &world.nodes {
            assert!(
                node.expected_wake.is_none(),
                "seed {seed}: node {} has an unfired pending wake",
                node.id
            );
        }
    }
}

#[test]
fn same_seed_replays_the_same_log() {
    for seed in [3, 17] {
        let (wa, la, ea) = run_graph(seed, None);
        let (wb, lb, eb) = run_graph(seed, None);
        assert_eq!(la, lb, "seed {seed}: step logs diverged");
        assert_eq!(ea, eb);
        for (na, nb) in wa.nodes.iter().zip(&wb.nodes) {
            assert_eq!(na.received, nb.received, "seed {seed}");
            assert_eq!(na.woken, nb.woken, "seed {seed}");
        }
    }
}

/// Stepping in bounded windows (`run_graph` checks each bound as it
/// goes) delivers the very same events in the very same order.
#[test]
fn bounded_windows_replay_the_unbounded_log() {
    for seed in 0..20 {
        let (_, unbounded, events) = run_graph(seed, None);
        for micros in [1, 7, 40] {
            let (_, bounded, bounded_events) =
                run_graph(seed, Some(SimDuration::from_micros(micros)));
            assert_eq!(bounded, unbounded, "seed {seed}, {micros} us windows");
            assert_eq!(bounded_events, events);
        }
    }
}
