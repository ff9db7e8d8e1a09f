//! A node's channels in port order, stored or computed.

use crate::ids::ChannelId;

/// An arithmetic run of channel ids: `base, base + stride, …` (`len` ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    pub base: u32,
    pub stride: u32,
    pub len: u32,
}

impl Run {
    /// The empty run.
    pub const EMPTY: Run = Run {
        base: 0,
        stride: 0,
        len: 0,
    };
}

/// The channels leaving (or entering) one node, in port order:
/// [`crate::Topology::out_channels`] / [`crate::Topology::in_channels`].
///
/// A stored topology hands out a slice of its adjacency array; an implicit
/// one hands out at most two arithmetic runs `(base, stride, len)`, so
/// nothing per channel has to exist. `Ports` is a small `Copy` value and an
/// [`ExactSizeIterator`]; [`Ports::get`] and [`Ports::first`] count from the
/// iterator's current front.
///
/// One of the two parts is always empty, so there is no variant to match:
/// a position inside the slice is read as from a slice (its bounds check is
/// the only branch), and only past it are the runs computed. That keeps the
/// simulator's per-port loops over stored fabrics as fast as slice loops.
#[derive(Clone, Copy, Debug)]
pub struct Ports<'a> {
    /// Stored ports not yet consumed (empty on an implicit topology).
    slice: &'a [ChannelId],
    /// Computed ports, back to back (empty on a stored topology).
    runs: [Run; 2],
    /// Ids of `runs` already consumed.
    front: u32,
}

impl<'a> Ports<'a> {
    /// Ports backed by a stored adjacency slice.
    #[inline]
    pub(crate) fn stored(slice: &'a [ChannelId]) -> Self {
        Self {
            slice,
            runs: [Run::EMPTY; 2],
            front: 0,
        }
    }

    /// Ports computed from up to two runs (an unused run is [`Run::EMPTY`]).
    #[inline]
    pub(crate) fn runs(runs: [Run; 2]) -> Self {
        Self {
            slice: &[],
            runs,
            front: 0,
        }
    }

    /// The channel at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`, like indexing a slice.
    #[inline]
    pub fn get(&self, i: usize) -> ChannelId {
        match self.slice.get(i) {
            Some(&c) => c,
            None => run_get(self.runs, self.front as usize + i - self.slice.len()),
        }
    }

    /// The first channel, or `None` if there are none left.
    #[inline]
    pub fn first(&self) -> Option<ChannelId> {
        (self.len() > 0).then(|| self.get(0))
    }
}

/// Position `k` of two back-to-back runs.
#[inline]
fn run_get([a, b]: [Run; 2], k: usize) -> ChannelId {
    assert!(k < (a.len + b.len) as usize, "port index out of range");
    let k = k as u32;
    let (run, k) = if k < a.len { (a, k) } else { (b, k - a.len) };
    ChannelId(run.base + k * run.stride)
}

impl Iterator for Ports<'_> {
    type Item = ChannelId;

    #[inline]
    fn next(&mut self) -> Option<ChannelId> {
        if let Some((&c, rest)) = self.slice.split_first() {
            self.slice = rest;
            return Some(c);
        }
        let c = (self.len() > 0).then(|| run_get(self.runs, self.front as usize))?;
        self.front += 1;
        Some(c)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let [a, b] = self.runs;
        let len = self.slice.len() + (a.len + b.len - self.front) as usize;
        (len, Some(len))
    }
}

impl ExactSizeIterator for Ports<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(p: Ports<'_>) -> Vec<u32> {
        p.map(|c| c.0).collect()
    }

    #[test]
    fn stored_is_the_slice() {
        let s = [ChannelId(4), ChannelId(9)];
        let p = Ports::stored(&s);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(1), ChannelId(9));
        assert_eq!(p.first(), Some(ChannelId(4)));
        assert_eq!(ids(p), vec![4, 9]);
        assert_eq!(Ports::stored(&[]).first(), None);
    }

    #[test]
    fn two_runs_back_to_back() {
        let p = Ports::runs([
            Run {
                base: 1,
                stride: 8,
                len: 2,
            },
            Run {
                base: 20,
                stride: 2,
                len: 3,
            },
        ]);
        assert_eq!(ids(p), vec![1, 9, 20, 22, 24]);
        assert_eq!(p.len(), 5);
        assert_eq!((0..5).map(|i| p.get(i).0).collect::<Vec<_>>(), ids(p));
        // Positions count from the front after partial iteration.
        let mut q = p;
        q.nth(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.first(), Some(ChannelId(22)));
        assert_eq!(q.get(1), ChannelId(24));
        let single = Ports::runs([
            Run {
                base: 6,
                stride: 2,
                len: 1,
            },
            Run::EMPTY,
        ]);
        assert_eq!(ids(single), vec![6]);
    }

    #[test]
    #[should_panic(expected = "port index out of range")]
    fn get_past_the_end_panics() {
        Ports::runs([Run::EMPTY, Run::EMPTY]).get(0);
    }

    #[test]
    #[should_panic(expected = "port index out of range")]
    fn stored_get_past_the_end_panics() {
        Ports::stored(&[ChannelId(3)]).get(1);
    }
}
