//! Manual kernel-overhead probe: the calendar `Scheduler` on a wake/route
//! churn workload, reported in ns per delivered event.
//!
//! The big probe is ignored by default — it is a timing probe, not a
//! correctness test. Run with:
//!
//! ```text
//! cargo test --release -p offramps-des --test kernel_perf -- --ignored --nocapture
//! ```
//!
//! `kernel_probe_smoke` is NOT ignored: it runs the probe for a cheap
//! step budget and checks its event count, so the probe code itself
//! cannot silently bit-rot.

use std::time::Instant;

use offramps_des::{
    ActionSink, CompId, ComponentSet, InPort, OutPort, Scheduler, SimComponent, SimDuration, Tick,
};

const PORT_IN: InPort = InPort(0);
const PORT_OUT: OutPort = OutPort(0);

/// Ping-pong endpoint: each delivery sends one payload onward and each
/// wake re-arms, exercising the fifo, wake-slot, and write-phase paths.
struct Churn;

impl SimComponent for Churn {
    type Payload = u64;

    fn start(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
        sink.send_at(PORT_OUT, now + SimDuration::from_micros(10), 0);
        sink.wake_at(now + SimDuration::from_micros(7));
    }

    fn on_event(&mut self, now: Tick, _port: InPort, n: u64, sink: &mut ActionSink<u64>) {
        sink.send_at(PORT_OUT, now + SimDuration::from_micros(10), n + 1);
    }

    fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<u64>) {
        sink.wake_at(now + SimDuration::from_micros(7));
    }
}

struct Pair {
    a: Churn,
    b: Churn,
}

impl ComponentSet<u64> for Pair {
    fn len(&self) -> usize {
        2
    }

    fn component(&mut self, id: CompId) -> &mut dyn SimComponent<Payload = u64> {
        match id.index() {
            0 => &mut self.a,
            _ => &mut self.b,
        }
    }
}

fn run_solo(steps: u64, report: bool) -> u64 {
    let mut comps = Pair { a: Churn, b: Churn };
    let mut sched: Scheduler<u64> = Scheduler::new();
    let a = sched.add_component();
    let b = sched.add_component();
    sched.connect(a, PORT_OUT, b, PORT_IN);
    sched.connect(b, PORT_OUT, a, PORT_IN);
    sched.start(&mut comps);
    let t0 = Instant::now();
    let mut n = 0u64;
    while n < steps {
        sched
            .step(&mut comps, Tick::MAX)
            .expect("the churn never drains");
        n += 1;
    }
    if report {
        let solo = t0.elapsed();
        println!(
            "solo {steps} steps in {solo:?}  ({:.1} ns/step)",
            solo.as_nanos() as f64 / steps as f64
        );
    }
    sched.stats().events
}

const STEPS: u64 = 20_000_000;

#[test]
#[ignore = "timing probe, run manually with --ignored --nocapture"]
fn kernel_overhead_probe() {
    run_solo(STEPS, true);
}

/// Cheap non-ignored variant: the probe harness runs for a small budget
/// and must deliver exactly that many events.
#[test]
fn kernel_probe_smoke() {
    const SMOKE: u64 = 1_000_000;
    assert_eq!(
        run_solo(SMOKE, false),
        SMOKE,
        "solo probe delivers every step"
    );
}
