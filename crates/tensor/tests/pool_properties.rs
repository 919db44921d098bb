//! Property tests for the cursor-claimed parallel-for: whichever threads
//! claim a dispatch's chunks, `for_spans`, `for_indices` and `map_reduce`
//! must produce exactly what the serial loop produces, at every width.
//!
//! The pools are shared across cases on purpose: thousands of dispatches
//! of random shapes on the same workers also exercise the publish /
//! claim / retire protocol under churn.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use fathom_tensor::ExecPool;
use proptest::prelude::*;

/// Pools of width 1, 2 and 8 over grain 1, so every dispatch with more
/// than one unit of work actually splits.
fn pools() -> &'static [ExecPool; 3] {
    static POOLS: OnceLock<[ExecPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 8].map(|w| ExecPool::new(w).with_grain(1)))
}

/// A value that depends on every bit of its index and is not exactly
/// representable, so a misplaced or repeated write cannot go unnoticed.
fn value_at(i: usize, salt: u32) -> f32 {
    ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) as f32).sqrt() * 0.37
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn for_spans_is_bitwise_the_serial_loop(
        spans in 0usize..200,
        span in 1usize..17,
        work in 0usize..64,
        salt in 0u32..1_000_000,
    ) {
        let mut want = vec![0.0f32; spans * span];
        for (i, dst) in want.chunks_mut(span).enumerate() {
            for (j, d) in dst.iter_mut().enumerate() {
                *d = value_at(i * span + j, salt);
            }
        }
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        for pool in pools() {
            let mut got = vec![f32::NAN; spans * span];
            pool.for_spans(&mut got, span, work, |i, dst| {
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = value_at(i * span + j, salt);
                }
            });
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "width {}", pool.threads());
        }
    }

    #[test]
    fn for_indices_visits_every_index_exactly_once(
        n in 0usize..300,
        work in 0usize..64,
        salt in 0u32..1_000_000,
    ) {
        let want: Vec<u32> = (0..n).map(|i| value_at(i, salt).to_bits()).collect();
        for pool in pools() {
            // `fetch_add` from zero: a second visit would double the bits.
            let got: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            pool.for_indices(n, work, |i| {
                got[i].fetch_add(value_at(i, salt).to_bits(), Ordering::Relaxed);
            });
            let got: Vec<u32> = got.iter().map(|v| v.load(Ordering::Relaxed)).collect();
            prop_assert_eq!(&got, &want, "width {}", pool.threads());
        }
    }

    #[test]
    fn map_reduce_reduces_in_subrange_order(
        n in 0usize..300,
        work in 1usize..64,
        salt in 0u32..1_000_000,
    ) {
        // Concatenation is associative but not commutative: the result is
        // the serial sequence only if the parts are combined in subrange
        // order, whichever thread finished first.
        let want: Vec<u32> = (0..n).map(|i| value_at(i, salt).to_bits()).collect();
        for pool in pools() {
            let got = pool.map_reduce(
                n,
                work,
                Vec::new(),
                |range| range.map(|i| value_at(i, salt).to_bits()).collect::<Vec<u32>>(),
                |mut acc, part| {
                    acc.extend(part);
                    acc
                },
            );
            prop_assert_eq!(&got, &want, "width {}", pool.threads());
        }
    }
}
