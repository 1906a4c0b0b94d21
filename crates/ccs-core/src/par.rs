//! Deterministic intra-solve parallelism: a scoped fork-join `map` over a
//! slice that preserves sequential semantics bit-for-bit.
//!
//! Per the DESIGN.md §7 offline-substitution pattern this is a small
//! hand-rolled stand-in for a data-parallelism crate, built purely on
//! [`std::thread::scope`].  The contract that keeps parallel and serial
//! solver outputs byte-identical:
//!
//! * the *work decomposition* (which items exist, in which order) is fixed
//!   by the caller and never depends on the thread count — threads only
//!   schedule the same items,
//! * results are merged in item-index order, so the returned `Vec` is the
//!   one the sequential loop would build,
//! * on failure the error of the **smallest** failing index is returned —
//!   the same error a sequential left-to-right loop would surface,
//! * [`SolveContext::checkpoint`] runs before every item in every shard, so
//!   cancellation and deadlines are honoured inside parallel regions, and
//!   the checkpoint's fixed priority (cancel before deadline) makes the
//!   error *kind* independent of which shard notices first.
//!
//! Thread count resolution: a programmatic override
//! ([`set_threads`], for tests) beats the `CCS_PAR_THREADS` environment
//! variable, which beats [`std::thread::available_parallelism`]; the last
//! two are read once per process.  A count of 1 degrades to the plain
//! sequential loop, and so does a call on a thread that already holds a
//! share of the machine: a `par_map_ctx` shard, or any code run through
//! [`serially`] (the engine's pool workers, and its inline session
//! solves).  One level of fan-out is all a process gets.

use crate::ctx::SolveContext;
use crate::error::Result;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic thread-count override; `0` means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequent [`par_map_ctx`]
/// (`None` restores environment/hardware detection).  Counts are clamped to
/// at least 1.  Intended for tests and the verification subsystem; because
/// parallel and serial execution produce identical results, flipping this at
/// any moment is always safe.
pub fn set_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The `CCS_PAR_THREADS` environment setting, read once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CCS_PAR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|t| t.max(1))
    })
}

/// The worker count [`par_map_ctx`] will use (before clamping to the item
/// count): override, then `CCS_PAR_THREADS`, then detected parallelism.
pub fn thread_count() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if overridden != 0 {
        return overridden;
    }
    // Detection reads cgroup files on Linux, so it is not repeated per call.
    static DETECTED: OnceLock<usize> = OnceLock::new();
    env_threads().unwrap_or_else(|| {
        *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

thread_local! {
    /// Set while this thread runs serially: inside `par_map_ctx` shards and
    /// [`serially`].  Calls then run sequentially instead of oversubscribing
    /// (the output is identical either way).
    static IN_PAR: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` on this thread with every [`par_map_ctx`] inside it sequential.
///
/// For threads that are themselves one of many solving side by side — a
/// worker pool's, or a connection's — where a further fan-out would only
/// compete for the same cores.  Outputs do not change (see the module
/// documentation).
pub fn serially<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the flag, also when `f` unwinds.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PAR.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_PAR.with(|flag| flag.replace(true)));
    f()
}

/// Stack size for shard and engine-worker threads.  Solver recursions (the
/// configuration-ILP depth-first search in particular) grow with the
/// instance, and the 2 MiB platform default is too tight for unbudgeted
/// medium instances in debug builds.  The reserve is virtual address space —
/// pages are only committed as the recursion actually deepens — so a
/// generous 64 MiB costs nothing on the common path.
pub const WORKER_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Maps `f` over `items` — concurrently when more than one worker is
/// configured — returning results in item order, exactly as the sequential
/// loop `items.iter().enumerate().map(..).collect()` would.
///
/// Every item is preceded by a [`SolveContext::checkpoint`]; the first
/// (smallest-index) error is returned.  Item `i` always receives index `i`
/// and `&items[i]`, regardless of which worker runs it.
pub fn par_map_ctx<T, R, F>(ctx: &SolveContext, items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R> + Sync,
{
    let threads = if IN_PAR.with(Cell::get) {
        1
    } else {
        thread_count().min(items.len())
    };
    if threads <= 1 {
        let mut out = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            ctx.checkpoint()?;
            out.push(f(index, item)?);
        }
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R>>> =
        std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("ccs-par-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        IN_PAR.with(|flag| flag.set(true));
                        let mut produced: Vec<(usize, Result<R>)> = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= items.len() {
                                break;
                            }
                            let outcome = ctx.checkpoint().and_then(|()| f(index, &items[index]));
                            produced.push((index, outcome));
                        }
                        produced
                    })
                    .expect("spawning a par_map_ctx shard thread")
            })
            .collect();
        for handle in handles {
            for (index, outcome) in handle.join().expect("par_map_ctx worker panicked") {
                slots[index] = Some(outcome);
            }
        }
    });

    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.push(slot.expect("every index is dispatched exactly once")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CancelFlag;
    use crate::error::CcsError;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serialises tests that override the global thread count and restores
    /// the default on drop.
    struct ThreadsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    fn force_threads(threads: usize) -> ThreadsGuard {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_threads(Some(threads));
        ThreadsGuard(guard)
    }

    impl Drop for ThreadsGuard {
        fn drop(&mut self) {
            set_threads(None);
        }
    }

    #[test]
    fn parallel_map_matches_the_sequential_loop() {
        let items: Vec<u64> = (0..257).collect();
        let ctx = SolveContext::unbounded();
        let expected: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        for threads in [1, 2, 4, 7] {
            let _guard = force_threads(threads);
            let got = par_map_ctx(&ctx, &items, |index, &v| {
                assert_eq!(items[index], v);
                Ok(v * v + 1)
            })
            .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn smallest_index_error_wins() {
        let _guard = force_threads(4);
        let items: Vec<usize> = (0..64).collect();
        let ctx = SolveContext::unbounded();
        let result = par_map_ctx(&ctx, &items, |_, &v| {
            if v >= 10 {
                Err(CcsError::invalid_parameter(format!("item {v}")))
            } else {
                Ok(v)
            }
        });
        match result {
            Err(CcsError::InvalidParameter(detail)) => assert_eq!(detail, "item 10"),
            other => panic!("expected the index-10 error, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_is_noticed_inside_the_parallel_region() {
        let _guard = force_threads(4);
        let cancel = CancelFlag::new();
        let ctx = SolveContext::unbounded().with_cancel(cancel.clone());
        let items: Vec<usize> = (0..512).collect();
        let cancel_in_worker = cancel.clone();
        let result = par_map_ctx(&ctx, &items, move |index, _| {
            if index == 3 {
                cancel_in_worker.cancel();
            }
            Ok(index)
        });
        assert!(matches!(result, Err(CcsError::Cancelled)), "{result:?}");
    }

    #[test]
    fn nested_calls_degrade_to_sequential_and_stay_correct() {
        let _guard = force_threads(4);
        let ctx = SolveContext::unbounded();
        let outer: Vec<u64> = (0..8).collect();
        let got = par_map_ctx(&ctx, &outer, |_, &o| {
            let inner: Vec<u64> = (0..8).collect();
            let sums = par_map_ctx(&SolveContext::unbounded(), &inner, |_, &i| Ok(o * 10 + i))?;
            Ok(sums.iter().sum::<u64>())
        })
        .unwrap();
        let expected: Vec<u64> = (0..8).map(|o| (0..8).map(|i| o * 10 + i).sum()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn serially_keeps_items_on_the_calling_thread_until_it_returns() {
        let _guard = force_threads(4);
        let ctx = SolveContext::unbounded();
        let here = std::thread::current().id();
        let items = || par_map_ctx(&ctx, &[(); 8], |_, _| Ok(std::thread::current().id())).unwrap();
        assert_eq!(serially(items), [here; 8]);
        assert!(items().iter().all(|&item| item != here));
        // The thread fans out again also after the closure unwinds.
        let unwound = std::panic::catch_unwind(|| {
            serially(|| std::panic::resume_unwind(Box::new("unwinding")))
        });
        assert!(unwound.is_err());
        assert!(items().iter().all(|&item| item != here));
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let ctx = SolveContext::unbounded();
        let got: Vec<u8> = par_map_ctx(&ctx, &[] as &[u8], |_, _| unreachable!()).unwrap();
        assert!(got.is_empty());
    }
}
