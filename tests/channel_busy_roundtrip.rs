//! `ChannelBusy` serialization round-trips (replaces the PR 9 `ser_probe`
//! debug leftover).
//!
//! The vendored `serde` is a no-op marker shim (no `serde_json` exists
//! in-tree), so the accumulator's real serialization surface is the dense
//! codec: `to_vec()` out, `From<Vec<u64>>` back in. These proptests pin
//! that codec plus the sparse representation's equality semantics: logical
//! equality must ignore page materialization (an explicitly-written zero
//! and a never-touched slot are the same value), `Debug` must print that
//! logical value alone, and `get()` must answer 0 for untouched pages and
//! out-of-range ids without materializing anything.

use ftclos_sim::state::PAGE_LEN;
use ftclos_sim::ChannelBusy;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Expand `(seed, len, writes)` into a concrete write list.
fn writes_from_seed(seed: u64, len: usize, writes: usize) -> Vec<(usize, u64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..writes)
        .map(|_| (rng.gen_range(0..len), rng.gen_range(0..100u64)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse round-trip: few touches over a many-page span; the dense
    /// codec out and back preserves logical value, length, and every
    /// per-channel count.
    #[test]
    fn sparse_roundtrip(seed in 0u64..1000, len in 1usize..6 * PAGE_LEN, writes in 0usize..24) {
        let mut cb = ChannelBusy::zeros(len);
        for (id, cycles) in writes_from_seed(seed, len, writes) {
            cb.add(id, cycles);
        }
        let dense = cb.to_vec();
        prop_assert_eq!(dense.len(), len);
        let back = ChannelBusy::from(dense.clone());
        prop_assert_eq!(&back, &cb);
        prop_assert_eq!(back.len(), cb.len());
        for (id, &count) in dense.iter().enumerate() {
            prop_assert_eq!(back.get(id), cb.get(id));
            prop_assert_eq!(cb.get(id), count);
        }
        // The decoder skips zeros: it never materializes more than the
        // encoder's touched footprint.
        prop_assert!(back.touched_channels() <= cb.touched_channels());
    }

    /// Dense round-trip: every channel written.
    #[test]
    fn dense_roundtrip(seed in 0u64..1000, len in 0usize..2 * PAGE_LEN + 7) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dense: Vec<u64> = (0..len).map(|_| rng.gen_range(0..50u64)).collect();
        let cb = ChannelBusy::from(dense.clone());
        prop_assert_eq!(cb.len(), dense.len());
        prop_assert_eq!(cb.to_vec(), dense.clone());
        let nonzero_expected = dense.iter().filter(|&&b| b > 0).count();
        prop_assert_eq!(cb.nonzero().count(), nonzero_expected);
        prop_assert_eq!(&ChannelBusy::from(cb.to_vec()), &cb);
    }

    /// Trailing-zero-page equality: materializing pages by writing explicit
    /// zeros must not break logical equality, in either direction.
    #[test]
    fn trailing_zero_pages_compare_equal(seed in 0u64..1000, pages in 2usize..5, touches in 1usize..6) {
        let len = pages * PAGE_LEN;
        let mut plain = ChannelBusy::zeros(len);
        let mut padded = ChannelBusy::zeros(len);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..touches {
            let (off, cycles) = (rng.gen_range(0..PAGE_LEN), rng.gen_range(1..9u64));
            plain.add(off, cycles); // page 0 only
            padded.add(off, cycles);
        }
        // Materialize every later page of `padded` with explicit zeros.
        for p in 1..pages {
            padded.add(p * PAGE_LEN, 0);
        }
        prop_assert!(padded.touched_channels() > plain.touched_channels());
        prop_assert_eq!(&padded, &plain);
        prop_assert_eq!(&plain, &padded);
        prop_assert_eq!(padded.to_vec(), plain.to_vec());
        // The round-tripped padded image drops the zero pages entirely.
        let back = ChannelBusy::from(padded.to_vec());
        prop_assert_eq!(&back, &padded);
        prop_assert_eq!(back.touched_channels(), plain.touched_channels());
    }

    /// `Debug` reads logical content: equal accumulators print the same
    /// text (the replay digests hash it) when one has materialized extra
    /// pages with explicit zeros, and that text names the length and the
    /// nonzero entries only.
    #[test]
    fn equal_accumulators_print_the_same_debug(seed in 0u64..1000, pages in 2usize..6, writes in 0usize..24) {
        // Writes land in the first `pages` pages; the last page is padding.
        let len = (pages + 1) * PAGE_LEN;
        let mut plain = ChannelBusy::zeros(len);
        for (id, cycles) in writes_from_seed(seed, pages * PAGE_LEN, writes) {
            plain.add(id, cycles);
        }
        let mut padded = plain.clone();
        padded.add(pages * PAGE_LEN + seed as usize % PAGE_LEN, 0);
        prop_assert!(padded.touched_channels() > plain.touched_channels());
        prop_assert_eq!(&padded, &plain);
        let text = format!("{plain:?}");
        prop_assert_eq!(format!("{padded:?}"), text.clone());
        let entries: Vec<String> = plain.nonzero().map(|(id, b)| format!("{id}: {b}")).collect();
        prop_assert_eq!(
            text,
            format!("ChannelBusy {{ len: {len}, nonzero: {{{}}} }}", entries.join(", "))
        );
    }

    /// `get()` past materialized pages: ids in untouched pages and ids
    /// beyond `len` read 0, and reading never materializes state.
    #[test]
    fn get_past_materialized_pages(pages in 2usize..5, probe in 0usize..8 * PAGE_LEN, cycles in 1u64..9) {
        let len = pages * PAGE_LEN;
        let mut cb = ChannelBusy::zeros(len);
        cb.add(3, cycles); // materializes page 0 only
        let bytes_before = cb.state_bytes();
        let touched_before = cb.touched_channels();
        let expect = if probe == 3 { cycles } else { 0 };
        prop_assert_eq!(cb.get(probe), expect);
        prop_assert_eq!(cb.get(len), 0); // first out-of-range id
        prop_assert_eq!(cb.get(len + probe), 0);
        prop_assert_eq!(cb.state_bytes(), bytes_before);
        prop_assert_eq!(cb.touched_channels(), touched_before);
    }
}

#[test]
fn empty_roundtrip() {
    let cb = ChannelBusy::zeros(0);
    assert!(cb.is_empty());
    assert_eq!(cb.to_vec(), Vec::<u64>::new());
    assert_eq!(ChannelBusy::from(Vec::new()), cb);
    assert_eq!(cb.get(0), 0);
    assert_eq!(cb.nonzero().count(), 0);
}
