//! Data-parallel execution strategies for the Sirius Suite kernels: the
//! paper's multicore CMP port (Section 4.3.1).
//!
//! The paper's common porting methodology "exploit\[s\] the large amount of
//! data-level parallelism available throughout the processing of a single
//! IPA query" (Section 4.3): each pthread owns a range of the data and
//! synchronizes only at the end. [`chunked_map`] reproduces exactly that.
//! [`interleaved_map`] reproduces the Phi tuning the paper describes for the
//! stemmer ("switching from allocating a range of data per thread to
//! interlaced array accesses"), and [`dynamic_map`] is a work-queue variant
//! used by the tile-based feature-extraction port.
//!
//! Every strategy combines per-item `u64` checksums with `wrapping_add`,
//! which is order-independent, so each port is validated against its
//! sequential baseline by equality. Only the Suite kernels use these: the
//! live services run each query on one thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Applies `f` to every index in `0..n`, splitting the range into one
/// contiguous chunk per thread (the paper's pthread strategy). Results are
/// combined with `u64::wrapping_add`, which is order-independent.
pub fn chunked_map<F>(n: usize, threads: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n == 0 {
        return (0..n).fold(0u64, |acc, i| acc.wrapping_add(f(i)));
    }
    let chunk = n.div_ceil(threads);
    // ceil(n / chunk) workers cover 0..n with no empty trailing ranges.
    let workers = n.div_ceil(chunk);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    (lo..hi).fold(0u64, |acc, i| acc.wrapping_add(f(i)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .fold(0u64, u64::wrapping_add)
    })
}

/// Like [`chunked_map`] but with an interleaved (strided) index assignment:
/// thread `t` processes indices `t, t + threads, t + 2*threads, ...`.
pub fn interleaved_map<F>(n: usize, threads: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n == 0 {
        return (0..n).fold(0u64, |acc, i| acc.wrapping_add(f(i)));
    }
    std::thread::scope(|scope| {
        // threads <= n, so every stride class t..n is non-empty.
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .fold(0u64, |acc, i| acc.wrapping_add(f(i)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .fold(0u64, u64::wrapping_add)
    })
}

/// Work-queue scheduling: threads repeatedly claim the next unprocessed
/// index. Balances irregular per-item cost (e.g. image tiles with different
/// keypoint densities).
pub fn dynamic_map<F>(n: usize, threads: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n == 0 {
        return (0..n).fold(0u64, |acc, i| acc.wrapping_add(f(i)));
    }
    let next = AtomicUsize::new(0);
    let total = Mutex::new(0u64);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let f = &f;
            let next = &next;
            let total = &total;
            scope.spawn(move || {
                let mut local = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local = local.wrapping_add(f(i));
                }
                let mut guard = total.lock().expect("no panics while locked");
                *guard = guard.wrapping_add(local);
            });
        }
    });
    total.into_inner().expect("no panics while locked")
}

/// Channel pipeline: a producer feeds indices to `threads` consumers over a
/// shared queue. Demonstrates the producer/consumer layout some accelerator
/// hosts use; results are checksum-combined like the other strategies.
pub fn channel_map<F>(n: usize, threads: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n == 0 {
        return (0..n).fold(0u64, |acc, i| acc.wrapping_add(f(i)));
    }
    let (tx, rx) = mpsc::sync_channel::<usize>(threads * 4);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let f = &f;
                let rx = &rx;
                scope.spawn(move || {
                    let mut local = 0u64;
                    loop {
                        // std's Receiver is single-consumer; sharing it
                        // behind a mutex gives the multi-consumer queue
                        // crossbeam provided.
                        let msg = rx.lock().expect("receiver lock").recv();
                        match msg {
                            Ok(i) => local = local.wrapping_add(f(i)),
                            Err(_) => break,
                        }
                    }
                    local
                })
            })
            .collect();
        for i in 0..n {
            tx.send(i).expect("consumers alive");
        }
        drop(tx);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .fold(0u64, u64::wrapping_add)
    })
}

/// Order-independent checksum of a float, for validating parallel ports
/// against the sequential baseline.
#[inline]
pub fn checksum_f32(x: f32) -> u64 {
    u64::from(x.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn all_strategies_agree_with_sequential() {
        let expect: u64 = (0..1000).map(work).fold(0u64, u64::wrapping_add);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                chunked_map(1000, threads, work),
                expect,
                "chunked {threads}"
            );
            assert_eq!(
                interleaved_map(1000, threads, work),
                expect,
                "interleaved {threads}"
            );
            assert_eq!(
                dynamic_map(1000, threads, work),
                expect,
                "dynamic {threads}"
            );
            assert_eq!(
                channel_map(1000, threads, work),
                expect,
                "channel {threads}"
            );
        }
    }

    #[test]
    fn empty_range() {
        assert_eq!(chunked_map(0, 4, work), 0);
        assert_eq!(interleaved_map(0, 4, work), 0);
        assert_eq!(dynamic_map(0, 4, work), 0);
        assert_eq!(channel_map(0, 4, work), 0);
    }

    #[test]
    fn more_threads_than_items() {
        let expect = (0..3).map(work).fold(0u64, u64::wrapping_add);
        assert_eq!(chunked_map(3, 64, work), expect);
        assert_eq!(interleaved_map(3, 64, work), expect);
    }

    #[test]
    fn chunked_map_skips_empty_trailing_chunks() {
        // 9 items over 8 threads: chunk = 2, so only 5 workers have work.
        // All items must still be covered exactly once.
        let expect: u64 = (0..9).map(work).fold(0u64, u64::wrapping_add);
        assert_eq!(chunked_map(9, 8, work), expect);
        // 11 items over 4 threads: chunk = 3, last worker gets 2 items.
        let expect: u64 = (0..11).map(work).fold(0u64, u64::wrapping_add);
        assert_eq!(chunked_map(11, 4, work), expect);
    }

    #[test]
    fn checksum_is_order_independent() {
        let a = checksum_f32(1.5).wrapping_add(checksum_f32(-2.25));
        let b = checksum_f32(-2.25).wrapping_add(checksum_f32(1.5));
        assert_eq!(a, b);
    }
}
