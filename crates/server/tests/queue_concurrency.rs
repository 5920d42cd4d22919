//! Concurrency gates for the bounded MPMC queue, focused on the properties
//! the serving runtime's telemetry relies on:
//!
//! 1. `len()`/`capacity()` probes (the queue-depth gauges) are safe to read
//!    concurrently with producers and consumers, and `len` never exceeds
//!    `capacity`.
//! 2. A retained probe `Sender` clone keeps the channel open — exactly the
//!    hazard the runtime's shutdown order must handle — and dropping it
//!    closes the channel.
//! 3. A seeded MPMC churn loop preserves per-producer FIFO order and
//!    delivers every item exactly once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sirius_server::queue::{bounded, TryRecvError};

#[test]
fn len_and_capacity_probes_are_safe_under_churn() {
    const ITEMS: usize = 2_000;
    const CAPACITY: usize = 8;
    let (tx, rx) = bounded::<usize>(CAPACITY);
    let probe = tx.clone();
    let done = Arc::new(AtomicBool::new(false));

    let prober = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut reads = 0usize;
            while !done.load(Ordering::Relaxed) {
                let len = probe.len();
                assert!(
                    len <= probe.capacity(),
                    "probe read len {len} > capacity {CAPACITY}"
                );
                reads += 1;
            }
            // The probe sender must be dropped here (end of scope) or the
            // channel would never close for the consumers below.
            reads
        })
    };

    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let rx = rx.clone();
            std::thread::spawn(move || {
                let mut count = 0usize;
                while rx.recv().is_some() {
                    count += 1;
                }
                count
            })
        })
        .collect();
    drop(rx);

    let producers: Vec<_> = (0..2)
        .map(|_| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..ITEMS / 2 {
                    tx.send(i).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    for p in producers {
        p.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let reads = prober.join().unwrap();
    assert!(reads > 0, "the probe thread observed the queue");

    let received: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(received, ITEMS, "churn must not lose or duplicate items");
}

#[test]
fn retained_probe_sender_keeps_the_channel_open() {
    let (tx, rx) = bounded::<u32>(4);
    let probe = tx.clone();
    tx.send(1).unwrap();
    drop(tx);

    // The data sender is gone, but the probe clone holds the channel open:
    // a blocked recv must NOT observe end-of-stream yet.
    assert_eq!(rx.recv(), Some(1));
    assert_eq!(
        rx.try_recv(),
        Err(TryRecvError::Empty),
        "empty but still open"
    );
    assert_eq!(probe.len(), 0);
    assert_eq!(probe.capacity(), 4);

    let waiter = std::thread::spawn(move || rx.recv());
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !waiter.is_finished(),
        "receiver must block while probe lives"
    );
    drop(probe);
    assert_eq!(
        waiter.join().unwrap(),
        None,
        "dropping the last (probe) sender closes the channel"
    );
}

#[test]
fn seeded_mpmc_churn_preserves_per_producer_order() {
    const PRODUCERS: u64 = 3;
    const PER_PRODUCER: u64 = 400;
    // A single consumer observes the global interleaving: items from any
    // one producer must arrive in that producer's send order.
    let (tx, rx) = bounded::<(u64, u64)>(5);
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE + p);
                for seq in 0..PER_PRODUCER {
                    tx.send((p, seq)).unwrap();
                    // Seeded jitter so interleavings vary between producers
                    // but the run stays reproducible.
                    if rng.gen_range(0..8u32) == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    drop(tx);

    let mut next_seq = [0u64; PRODUCERS as usize];
    let mut total = 0u64;
    while let Some((p, seq)) = rx.recv() {
        assert_eq!(
            seq, next_seq[p as usize],
            "producer {p} items arrived out of order"
        );
        next_seq[p as usize] += 1;
        total += 1;
    }
    assert_eq!(total, PRODUCERS * PER_PRODUCER);
    for p in producers {
        p.join().unwrap();
    }
}
