//! The active sets: which channel queues and injection slots hold packets.
//!
//! A two-level bitset. Bit `i` of `words` says whether id `i` is in the set,
//! and bit `w` of `summary` says whether `words[w]` is non-zero, so insert and
//! remove are O(1) and a walk skips 4,096 absent ids per zero summary word.
//! The walk is in ascending id order, which is the order every schedule must
//! visit in.
//!
//! The arrays grow on demand to the highest id inserted, each growth a fresh
//! zeroed allocation: the allocator hands that out as untouched pages, so a
//! set over a fabric's channel ids commits memory only where packets go.

/// A set of `u32` ids with O(1) insert and remove and ascending iteration
/// (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// Add `id`; a no-op when it is already present.
    pub(crate) fn insert(&mut self, id: u32) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.grow(w + 1);
        }
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.summary[w / 64] |= 1 << (w % 64);
            self.len += 1;
        }
    }

    /// Drop `id`; a no-op when it is absent.
    pub(crate) fn remove(&mut self, id: u32) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        let Some(word) = self.words.get_mut(w) else {
            return;
        };
        if *word & bit != 0 {
            *word &= !bit;
            if *word == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
            self.len -= 1;
        }
    }

    /// Ids in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The ids in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.summary
            .iter()
            .enumerate()
            .flat_map(|(s, &sum)| ones(sum).map(move |b| s * 64 + b))
            .flat_map(move |w| ones(self.words[w]).map(move |b| (w * 64 + b) as u32))
    }

    /// Room for at least `words` words, doubling so that growth amortises.
    fn grow(&mut self, words: usize) {
        let words = words.max(2 * self.words.len());
        let mut grown = vec![0u64; words];
        grown[..self.words.len()].copy_from_slice(&self.words);
        self.words = grown;
        let mut summary = vec![0u64; words.div_ceil(64)];
        summary[..self.summary.len()].copy_from_slice(&self.summary);
        self.summary = summary;
    }
}

/// The positions of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    /// Random inserts and removes, including repeats, absent ids and ids past
    /// the current end, against `BTreeSet` as the model.
    #[test]
    fn matches_a_btreeset_model() {
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (mut set, mut model) = (ActiveSet::default(), BTreeSet::new());
            // Early rounds stay low, later ones reach far past the end.
            for round in 0..2_000u32 {
                let span = if round < 1_000 { 300 } else { 1 << 20 };
                let id = rng.gen_range(0..span);
                if rng.gen_bool(0.55) {
                    set.insert(id);
                    model.insert(id);
                } else {
                    set.remove(id);
                    model.remove(&id);
                }
                assert_eq!(set.len(), model.len(), "seed {seed} round {round}");
                if round % 97 == 0 {
                    assert!(set.iter().eq(model.iter().copied()), "seed {seed}");
                }
            }
            assert!(set.iter().eq(model.iter().copied()), "seed {seed}");
        }
    }

    #[test]
    fn insert_and_remove_are_idempotent() {
        let mut set = ActiveSet::default();
        set.remove(5); // absent, on an empty set
        for id in [5, 5, 4095, 4096, 64, 5] {
            set.insert(id);
        }
        assert_eq!(set.len(), 4);
        assert_eq!(set.iter().collect::<Vec<_>>(), [5, 64, 4095, 4096]);
        set.remove(4096);
        set.remove(4096);
        set.remove(1 << 30); // absent, past the end
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().collect::<Vec<_>>(), [5, 64, 4095]);
        for id in [5, 64, 4095] {
            set.remove(id);
        }
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().next(), None);
        set.insert(1 << 24);
        assert_eq!(set.iter().collect::<Vec<_>>(), [1 << 24]);
    }
}
