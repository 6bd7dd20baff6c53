//! The workspace's one worker pool: an order-preserving parallel map.
//!
//! [`map`] applies a function to every item of a slice on self-scheduling
//! worker threads and returns the results **in input order**, so its
//! output equals `items.iter().map(f).collect()` whatever the worker count
//! and however the OS schedules the threads. Each worker claims the next
//! unclaimed item from a shared atomic cursor, so a slice mixing
//! microsecond items with millisecond ones stays load-balanced without
//! any up-front partitioning.
//!
//! The verification service runs its pending jobs through it, and the
//! training and evaluation stages run candidate preparation and response
//! sampling through it. No item maps again from inside the pool: there is
//! one pool, never a nested one.
//!
//! ## Results are re-homed on the calling thread
//!
//! glibc gives each thread its own malloc arena. A result allocated on a
//! worker and freed after the call returns its memory to the worker's
//! arena, where the calling thread's later allocations cannot reuse it,
//! so the process's peak memory grows. So workers send each result over
//! a channel, and the caller keeps a clone of it (allocated on the
//! caller's arena) and drops the worker's copy. That is why results must
//! be `Clone`. Whatever a result shares through an `Arc` stays where it
//! was allocated.
//!
//! The caller runs no item itself: it only collects, so the items'
//! temporaries never land in its arena.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The worker count that uses every core:
/// `std::thread::available_parallelism`, or 1 where it is unknown.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `workers` threads and returns the
/// results in input order.
///
/// One worker or one item runs inline on the calling thread, and an empty
/// slice spawns nothing. A panic in an item stops the workers from
/// claiming more items and is re-raised in the caller with its original
/// payload (the lowest-index one, if several items panicked).
pub fn map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Clone + Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // The cursor only hands out indices (`Relaxed` suffices); results
    // reach the caller through the channel, which synchronises.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut panicked: Option<(usize, Box<dyn Any + Send>)> = None;
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let (tx, cursor, f) = (tx.clone(), &cursor, &f);
            scope.spawn(move || loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(at) else {
                    break;
                };
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
                if result.is_err() {
                    cursor.store(items.len(), Ordering::Relaxed);
                }
                if tx.send((at, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (at, result) in rx {
            match result {
                // The clone is the caller's copy; the worker's drops here.
                Ok(worker_copy) => slots[at] = Some(worker_copy.clone()),
                Err(payload) => {
                    if panicked.as_ref().is_none_or(|(first, _)| at < *first) {
                        panicked = Some((at, payload));
                    }
                }
            }
        }
    });
    if let Some((_, payload)) = panicked {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::Mutex;
    use std::time::Duration;

    const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

    fn square(x: &u64) -> u64 {
        x * x
    }

    #[test]
    fn empty_input_maps_to_empty_output() {
        for workers in WORKER_COUNTS {
            assert_eq!(map(&[] as &[u64], workers, square), Vec::<u64>::new());
        }
    }

    #[test]
    fn more_workers_than_items_keeps_input_order() {
        let items: Vec<u64> = (0..3).collect();
        let serial: Vec<u64> = items.iter().map(square).collect();
        for workers in WORKER_COUNTS {
            assert_eq!(map(&items, workers, square), serial, "{workers} workers");
        }
    }

    #[test]
    fn uneven_items_come_back_in_input_order() {
        // Every fourth item does a thousand times the work of the others.
        let items: Vec<u64> = (0..40).collect();
        let cost = |x: &u64| {
            let rounds = if x.is_multiple_of(4) { 200_000 } else { 200 };
            let sum = (0..rounds).fold(*x, |acc, i| black_box(acc.wrapping_mul(31) ^ i));
            format!("item {x}: {sum:x}")
        };
        let serial: Vec<String> = items.iter().map(cost).collect();
        for workers in WORKER_COUNTS {
            assert_eq!(map(&items, workers, cost), serial, "{workers} workers");
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_inline_and_otherwise_the_caller_only_collects() {
        let caller = std::thread::current().id();
        let ran_on = |_: &u64| std::thread::current().id();
        assert!(map(&[1, 2, 3], 1, ran_on).iter().all(|t| *t == caller));
        assert!(map(&[1], 8, ran_on).iter().all(|t| *t == caller));
        for workers in [2, 8] {
            let items: Vec<u64> = (0..16).collect();
            assert!(
                map(&items, workers, ran_on).iter().all(|t| *t != caller),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn results_keep_input_order_when_the_first_item_finishes_last() {
        // Item 0 blocks until the last item has run, so every other item
        // finishes while item 0 is still running.
        let items: Vec<u64> = (0..12).collect();
        for workers in [2, 8] {
            let (tx, rx) = mpsc::channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let out = map(&items, workers, |x| {
                if *x == 0 {
                    rx.lock()
                        .expect("no item panics holding the receiver")
                        .recv_timeout(Duration::from_secs(30))
                        .expect("the last item runs while the first is running");
                } else if *x == 11 {
                    tx.lock()
                        .expect("no item panics holding the sender")
                        .send(())
                        .expect("item 0 is waiting");
                }
                square(x)
            });
            let serial: Vec<u64> = items.iter().map(square).collect();
            assert_eq!(out, serial, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_item_reraises_its_payload_in_the_caller() {
        #[derive(Debug, PartialEq)]
        struct Payload(u64);
        let items: Vec<u64> = (0..16).collect();
        for workers in WORKER_COUNTS {
            let caught = panic::catch_unwind(|| {
                map(&items, workers, |x| {
                    if *x == 5 {
                        panic::panic_any(Payload(*x));
                    }
                    *x
                })
            })
            .expect_err("the panic reaches the caller");
            assert_eq!(
                caught.downcast_ref::<Payload>(),
                Some(&Payload(5)),
                "{workers} workers"
            );
        }
    }
}
