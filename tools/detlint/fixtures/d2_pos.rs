// D2 positive: host wall-clock and parallelism reads with no
// allow(D2) justification.
use std::time::{Instant, SystemTime};

fn wall_ms() -> u128 {
    let t0 = Instant::now();
    t0.elapsed().as_millis()
}

fn stamp() -> u64 {
    let t = SystemTime::now();
    t.elapsed().map(|d| d.as_secs()).unwrap_or(0)
}

fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
