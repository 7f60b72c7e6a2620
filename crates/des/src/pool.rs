//! The workspace's one ordered worker pool: campaigns fan scenarios
//! out over it, and the scenario store scans its shard logs on it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The host's parallelism: how many workers a pool sized to the host
/// runs. It sizes pools only, and [`pool_map`] returns results in
/// input order, so no artifact depends on it.
pub fn host_parallelism() -> usize {
    // detlint: allow(D2) -- sizes worker pools only; pool_map keeps input order, so no output depends on it
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `0..n` on up to `workers` scoped threads (0 runs one),
/// each holding one `init()` state that its calls share. Workers claim
/// the next index from a counter, one at a time.
///
/// **Order-preservation invariant:** `output[i]` is `f(_, i)`, for
/// every `i`, whichever worker ran it and in whatever order the workers
/// finished. Callers assemble matrix-order results, matrix-order store
/// appends and shard-order indexes on the strength of this, so the
/// claiming strategy may change but the invariant may not.
///
/// A job's panic reaches the caller with its own payload once every
/// worker has stopped.
///
/// # Example
///
/// A map with no per-worker state passes `Default::default` as `init`
/// and matches the state as `()`:
///
/// ```
/// use offramps_des::pool_map;
///
/// let squares = pool_map(5, 3, Default::default, |(), i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn pool_map<S, R: Send>(
    n: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    // The counter publishes nothing but itself.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(&mut state, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_the_sequential_map_in_input_order() {
        for n in [0, 1, 2, 57] {
            let items: Vec<u64> = (0..n as u64).collect();
            for workers in [0, 1, 3, 8] {
                let out = pool_map(n, workers, Default::default, |(), i| items[i] * 2);
                assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn init_runs_once_per_worker_at_most() {
        for n in [0, 1, 2, 57] {
            for workers in [0, 1, 3, 8] {
                let inits = AtomicUsize::new(0);
                let init = || inits.fetch_add(1, Ordering::Relaxed);
                let out = pool_map(n, workers, init, |_, i| i);
                assert_eq!(out, (0..n).collect::<Vec<_>>());
                let spawned = workers.max(1).min(n);
                assert!(inits.into_inner() <= spawned, "n {n}, workers {workers}");
            }
        }
    }

    #[test]
    fn a_panicking_job_passes_its_own_payload_on() {
        let caught = std::panic::catch_unwind(|| {
            pool_map(9, 3, Default::default, |(), i| {
                if i == 4 {
                    std::panic::panic_any(format!("job {i} failed"));
                }
                i
            })
        })
        .expect_err("the job panicked");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("job 4 failed")
        );
    }
}
