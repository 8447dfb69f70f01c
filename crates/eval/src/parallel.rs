//! Work-stealing parallel trial runner for the figure sweeps.
//!
//! The figure grids are embarrassingly parallel: every `(scenario, seed,
//! load, run config)` trial builds its own simulators and shares nothing
//! with its neighbors. [`par_map`] fans a flat trial list across `jobs` worker
//! threads that *pull* work from a shared atomic cursor (idle workers steal
//! the next un-started index, so an unlucky worker stuck on a slow trial
//! never serializes the rest), and reassembles results **in input order** —
//! so aggregation downstream is bit-for-bit identical to a sequential run
//! regardless of `jobs` or completion order.
//!
//! Only `std` is used: scoped threads, an `AtomicUsize` cursor, and an
//! `mpsc` channel carrying `(index, result)` pairs back to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker count for sweeps: the `HAWKEYE_JOBS` environment variable if set
/// to a positive integer, else [`std::thread::available_parallelism`].
pub fn default_jobs() -> usize {
    match std::env::var("HAWKEYE_JOBS") {
        Ok(v) => v.parse().ok().filter(|&n| n >= 1).unwrap_or(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Map `f` over `items` on up to `jobs` threads, returning results in input
/// order. `jobs <= 1` (or a single item) runs inline with no threads.
///
/// A panicking `f` propagates the panic to the caller (after all workers
/// stop pulling new work).
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let workers = jobs.min(items.len());
    let mut slots: Vec<Option<R>> = std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
        // Leaving the scope joins all workers; a worker panic re-raises
        // here, before any partially-filled result vector can be observed.
    });
    slots
        .iter_mut()
        .map(|s| s.take().expect("every index delivered exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 7] {
            let out = par_map(jobs, &items, |&x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Early items sleep longest: a naive chunking would finish them
        // last, but work-pulling + indexed reassembly keeps input order.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(4, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_single_inputs_short_circuit() {
        let none: Vec<u32> = vec![];
        assert!(par_map(4, &none, |&x| x).is_empty());
        assert_eq!(par_map(4, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(2, &items, |&x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
