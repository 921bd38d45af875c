//! Deterministic scoped-thread parallel map.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Applies `f` to every item on `threads` worker threads and returns the
/// results **in input order** (work is handed out by an atomic cursor, so
/// scheduling is dynamic but the output is deterministic). Empty input
/// spawns nothing, and one thread's worth of work runs on the caller.
///
/// # Panics
///
/// If `f` panics for some item, the panic payload is captured on the worker
/// and re-raised on the calling thread (for the lowest-indexed failing item,
/// so the surfaced failure is deterministic). Remaining items may or may not
/// have been evaluated by then; their results are discarded.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    type Caught<R> = Result<R, Box<dyn std::any::Any + Send>>;
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        // In order on the caller: the same results and the same first
        // panic as one worker thread, without spawning it.
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Caught<R>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                let failed = result.is_err();
                tx.send((i, result)).expect("receiver alive");
                if failed {
                    // This worker stops; the others drain the remaining
                    // items, and the collector re-raises the payload.
                    break;
                }
            });
        }
        drop(tx);
    });
    let mut out: Vec<Option<Caught<R>>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    // Re-raise the lowest-indexed captured panic (a panicked worker stops,
    // so later indices may be unvisited — that is fine, we are unwinding).
    if let Some(slot) = out.iter_mut().find(|r| matches!(r, Some(Err(_)))) {
        let Some(Err(payload)) = slot.take() else {
            unreachable!("just matched Some(Err)")
        };
        resume_unwind(payload);
    }
    out.into_iter()
        .map(|r| {
            r.expect("every index visited exactly once")
                .expect("panics re-raised above")
        })
        .collect()
}

/// Number of worker threads to use by default.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_single_threaded() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        assert!(parallel_map(&items, 8, |_, &x| x).is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![5];
        assert_eq!(parallel_map(&items, 64, |_, &x| x), vec![5]);
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(&items, threads, |_, &x| {
                    if x == 7 {
                        panic!("boom on item {x}");
                    }
                    x
                })
            }))
            .expect_err("the worker panic must propagate");
            let message = caught
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic payload is a message");
            assert!(message.contains("boom on item 7"), "got: {message}");
        }
    }

    #[test]
    fn lowest_index_panic_wins() {
        let items: Vec<usize> = (0..32).collect();
        for _ in 0..8 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(&items, 8, |_, &x| {
                    if x % 2 == 1 {
                        panic!("odd {x}");
                    }
                    x
                })
            }))
            .expect_err("panics must propagate");
            let message = caught
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(message.contains("odd 1"), "got: {message}");
        }
    }
}
