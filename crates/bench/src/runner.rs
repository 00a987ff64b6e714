//! Work-stealing parallel experiment runner.
//!
//! The fig* sweeps are embarrassingly parallel: every (trace, seed, policy)
//! cell trains and replays independently. [`run_ordered`] fans the cells out
//! over scoped worker threads and hands the results back **in input order**,
//! so a sweep aggregated from the returned vector prints byte-identical
//! tables whether it ran with `--jobs 1` or `--jobs 16` — float accumulation
//! order, row order, everything is preserved.
//!
//! Determinism contract for callers: the per-cell closure must derive all
//! randomness from the cell itself (its seed), never from shared mutable
//! state — draw any shared RNG parameters serially *before* the fan-out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs` request: `0` (or absence, by convention) means "use
/// the available hardware parallelism".
pub(crate) fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `f` over every item on `jobs` worker threads and returns the
/// results in input order.
///
/// Workers steal the next unclaimed index from a shared counter, so uneven
/// cell costs balance automatically; each result lands in the slot of its
/// input index, which is what makes the output order independent of
/// scheduling. With `jobs <= 1` the items run serially on the caller's
/// thread — same code path as the parallel case minus the threads.
pub fn run_ordered<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_ordered(8, items, |&i| {
            // Make late items cheap and early items expensive so completion
            // order inverts input order under stealing.
            std::thread::sleep(std::time::Duration::from_micros((100 - i as u64) * 10));
            i * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let serial = run_ordered(1, items.clone(), |&x| x * x + 1);
        let parallel = run_ordered(4, items, |&x| x * x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let out = run_ordered(4, (0..257).collect(), |&i: &usize| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = run_ordered(4, Vec::<u32>::new(), |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_resolves_to_hardware() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}
