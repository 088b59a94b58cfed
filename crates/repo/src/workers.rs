//! The one scoped-thread scheduler: the store's tiled row sweep and the
//! batch dispatcher both hand their work items to [`claim_each`], and
//! both resolve their configured worker counts through [`resolve`].

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// The worker count to run with for a configured `requested` count:
/// `0` means one worker per core, and any other count is capped at the
/// core count, so no configuration (a snapshot's decoded CONFIG
/// section included) can ask for more OS threads than the host has
/// cores. The core count is read once per process.
pub fn resolve(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if requested == 0 {
        cores
    } else {
        requested.min(cores)
    }
}

/// Run `work(i)` for every `i` in `0..tasks` on up to `workers` scoped
/// threads and return the results in index order. Each worker claims
/// the next index off one shared cursor, so a worker that finishes
/// early pulls more work instead of idling behind a static partition.
/// Which worker ran which index never shows in the result.
///
/// # Panics
///
/// If `work` panics on any worker.
pub fn claim_each<T, F>(tasks: usize, workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // The cursor publishes no data of its own: each result travels back
    // through its worker's join, which orders it before the caller reads.
    let cursor = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(tasks))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Relaxed);
                        if i >= tasks {
                            break local;
                        }
                        local.push((i, work(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("worker panicked"))
            .collect()
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_once_and_results_arrive_in_index_order() {
        for workers in [1, 3] {
            let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
            let out = claim_each(runs.len(), workers, |i| {
                runs[i].fetch_add(1, Relaxed);
                i * 10
            });
            assert_eq!(out, (0..40).map(|i| i * 10).collect::<Vec<_>>());
            assert!(
                runs.iter().all(|r| r.load(Relaxed) == 1),
                "{workers} workers"
            );
        }
        assert!(claim_each(0, 3, |i| i).is_empty());
    }

    #[test]
    fn worker_counts_resolve_to_at_most_the_core_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve(0), cores);
        assert_eq!(resolve(usize::MAX), cores);
        assert_eq!(resolve(1), 1);
    }
}
