//! Scoped-thread parallel helpers for the compute hot paths.
//!
//! The workspace deliberately carries no thread-pool dependency: these
//! helpers build on [`std::thread::scope`], which is allocation-cheap and
//! has no global state. All scheduling is deterministic-output by
//! construction — work items are keyed by index, so the result never
//! depends on which thread ran what.
//!
//! The calling thread's [`with_threads`] override and installed
//! [`phox_trace`] handle are both per-thread; every worker a helper spawns
//! inherits them, so a pinned or traced call sees exactly its own call
//! tree, whatever other threads of the process do meanwhile.
//!
//! Thread count resolution order:
//!
//! 1. the calling thread's [`with_threads`] override (tests pin 1/2/8
//!    this way),
//! 2. the `PHOX_NUM_THREADS` environment variable,
//! 3. the `RAYON_NUM_THREADS` environment variable (honoured for
//!    compatibility with common HPC job scripts),
//! 4. [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use phox_trace::Trace;

thread_local! {
    /// This thread's thread-count override (0 = none). Set only by
    /// [`with_threads`] and by [`Inherited::enter`] in spawned workers.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel helpers may use.
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    for var in ["PHOX_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` with the worker thread count pinned to `n`.
///
/// Overrides the environment and hardware defaults for the duration of
/// `f`; used by the determinism test suites to prove results are
/// bit-identical across thread counts. The pin holds on the calling
/// thread and in the workers the helpers below spawn for it, never on
/// other threads, so concurrent callers do not wait for or clobber each
/// other, and nesting is allowed.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be positive");
    let _restore = pin(n);
    f()
}

/// Sets this thread's override to `n`; dropping the guard restores the
/// previous one, on unwind as well, so a panicking test can't leak its pin.
fn pin(n: usize) -> Restore {
    Restore(THREAD_OVERRIDE.with(|o| o.replace(n)))
}

struct Restore(usize);

impl Drop for Restore {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.0));
    }
}

/// The per-thread context a spawned worker takes over from the thread
/// that called the helper: the thread-count override and the trace.
struct Inherited {
    threads: usize,
    trace: Trace,
}

impl Inherited {
    fn capture() -> Inherited {
        Inherited {
            threads: THREAD_OVERRIDE.with(Cell::get),
            trace: phox_trace::active(),
        }
    }

    /// Runs `f` on the current (worker) thread under the captured context.
    fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = pin(self.threads);
        phox_trace::with_installed(self.trace.clone(), f)
    }
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Work items are pulled from a shared atomic counter, so load imbalance
/// between items self-levels; the output order (and therefore the caller's
/// observable result) is independent of the schedule.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = max_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let ctx = Inherited::capture();
    let mut buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    ctx.enter(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for bucket in &mut buckets {
        for (i, v) in bucket.drain(..) {
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("every index produced exactly once")))
        .collect()
}

/// Splits `data` into `chunk_size`-element chunks and applies
/// `f(chunk_index, chunk)` to each, in parallel.
///
/// Chunks are pre-distributed round-robin across workers; because each
/// chunk is touched by exactly one thread and `f` receives the chunk's
/// global index, results are schedule-independent.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    let n_chunks = data.len().div_ceil(chunk_size.max(1));
    let threads = max_threads().min(n_chunks);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
        buckets[i % threads].push((i, chunk));
    }
    let ctx = Inherited::capture();
    std::thread::scope(|s| {
        let (f, ctx) = (&f, &ctx);
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    ctx.enter(|| {
                        for (i, chunk) in bucket {
                            f(i, chunk);
                        }
                    })
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn with_threads_pins_and_restores() {
        let outside = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), outside);
    }

    #[test]
    fn with_threads_nests_and_stays_on_its_thread() {
        with_threads(3, || {
            with_threads(5, || assert_eq!(max_threads(), 5));
            assert_eq!(max_threads(), 3);
            let elsewhere = std::thread::spawn(max_threads).join().unwrap();
            assert_eq!(
                elsewhere,
                with_threads(1, || std::thread::spawn(max_threads).join().unwrap())
            );
            // Workers of a helper inherit the caller's pin.
            assert_eq!(par_map_indexed(6, |_| max_threads()), vec![3; 6]);
        });
    }

    #[test]
    fn workers_record_into_the_callers_trace_only() {
        let run = |trace: &Trace, threads: usize| {
            phox_trace::with_installed(trace.clone(), || {
                with_threads(threads, || {
                    par_map_indexed(64, |_| phox_trace::active().count("t", "items", 1));
                    let mut data = vec![0u8; 40];
                    par_chunks_mut(&mut data, 4, |_, _| {
                        phox_trace::active().count("t", "chunks", 1)
                    });
                })
            })
        };
        let (a, b) = (Trace::new(), Trace::new());
        std::thread::scope(|s| {
            s.spawn(|| run(&a, 4));
            s.spawn(|| run(&b, 2));
        });
        for t in [&a, &b] {
            assert_eq!(
                t.counters(),
                vec![
                    (
                        "t".to_owned(),
                        "chunks".to_owned(),
                        phox_trace::CounterValue::Int(10)
                    ),
                    (
                        "t".to_owned(),
                        "items".to_owned(),
                        phox_trace::CounterValue::Int(64)
                    ),
                ]
            );
        }
    }

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 8] {
            let v = with_threads(threads, || par_map_indexed(100, |i| i * i));
            assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        for threads in [1, 2, 8] {
            let mut data = vec![0usize; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 10, |ci, chunk| {
                    for v in chunk.iter_mut() {
                        *v += ci + 1;
                    }
                });
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i / 10 + 1);
            }
        }
    }

    #[test]
    fn par_chunks_mut_uneven_tail() {
        let mut data = vec![1.0f64; 7];
        par_chunks_mut(&mut data, 3, |_, chunk| {
            for v in chunk.iter_mut() {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }
}
