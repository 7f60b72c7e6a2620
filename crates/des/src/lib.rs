//! Deterministic discrete-event simulation (DES) kernel for the OFFRAMPS
//! reproduction.
//!
//! The paper's OFFRAMPS board places a 100 MHz FPGA between a 3D printer's
//! controller (an Arduino Mega running Marlin) and its driver board
//! (RAMPS 1.4). This crate provides the substrate on which we co-simulate
//! all three: a global clock with **10 ns resolution** (one FPGA clock
//! period), a calendar [`Scheduler`] whose one entry point,
//! [`Scheduler::step`], delivers the next event due by the caller's time
//! bound, every event in one deterministic `(tick, sequence)` order,
//! and seeded random number generation so that every experiment is
//! exactly reproducible. Work that fans out over host threads runs on
//! [`pool_map`], the workspace's one worker pool, which returns its
//! results in input order whatever the worker count.
//!
//! # Example
//!
//! ```
//! use offramps_des::{
//!     ActionSink, InPort, Scheduler, SimComponent, SimDuration, Tick,
//! };
//!
//! /// Wakes itself every 5 us and records when it ran.
//! struct Blinker(Vec<Tick>);
//!
//! impl SimComponent for Blinker {
//!     type Payload = ();
//!     fn start(&mut self, now: Tick, sink: &mut ActionSink<()>) {
//!         sink.wake_at(now + SimDuration::from_micros(5));
//!     }
//!     fn on_event(&mut self, _: Tick, _: InPort, _: (), _: &mut ActionSink<()>) {}
//!     fn on_tick(&mut self, now: Tick, sink: &mut ActionSink<()>) {
//!         self.0.push(now);
//!         if self.0.len() < 3 {
//!             sink.wake_at(now + SimDuration::from_micros(5));
//!         }
//!     }
//! }
//!
//! let mut sched: Scheduler<()> = Scheduler::new();
//! sched.add_component();
//! let mut blinker = Blinker(Vec::new());
//! let mut comps: [&mut dyn SimComponent<Payload = ()>; 1] = [&mut blinker];
//! sched.start(&mut comps[..]);
//! // The wakes at 5 and 10 us are due by 12 us; the one at 15 us is not.
//! while sched.step(&mut comps[..], Tick::from_micros(12)).is_some() {}
//! assert_eq!(sched.stats().events, 2);
//! while sched.step(&mut comps[..], Tick::MAX).is_some() {}
//!
//! assert_eq!(sched.stats().events, 3);
//! assert_eq!(sched.now(), Tick::from_micros(15));
//! assert_eq!(blinker.0[0].as_duration(), SimDuration::from_micros(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod pool;
mod rng;
mod scheduler;
mod time;

pub use component::{ActionSink, CompId, InPort, OutPort, SimComponent, SinkAction};
pub use pool::{host_parallelism, pool_map};
pub use rng::{DetRng, SeedSplitter};
pub use scheduler::{ComponentSet, KernelStats, Scheduler};
pub use time::{SimDuration, Tick, TICKS_PER_MICRO, TICKS_PER_MILLI, TICKS_PER_SEC, TICK_NS};
