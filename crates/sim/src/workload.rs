//! Traffic workloads for the simulator.

use ftclos_traffic::Permutation;

/// Which destination each source sends to, and how often.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Per-leaf destination: `dest[s] = Some(d)` makes leaf `s` an active
    /// source toward `d`; `None` leaves it idle. `UniformRandom` sources
    /// draw a fresh destination per packet instead.
    kind: WorkloadKind,
    /// Packet injection probability per source per cycle.
    rate: f64,
}

#[derive(Clone, Debug)]
enum WorkloadKind {
    /// Fixed destinations (permutation traffic).
    Fixed(Vec<Option<u32>>),
    /// Every leaf sends; destination uniform over all other leaves.
    UniformRandom { ports: u32 },
}

impl Workload {
    /// Permutation traffic: each source of `perm` injects toward its fixed
    /// destination with probability `rate` per cycle. Self-pairs are kept
    /// (they are delivered instantly and exercise the accounting).
    pub fn permutation(perm: &Permutation, rate: f64) -> Self {
        let mut dest = vec![None; perm.ports() as usize];
        for p in perm.pairs() {
            dest[p.src as usize] = Some(p.dst);
        }
        Self {
            kind: WorkloadKind::Fixed(dest),
            rate,
        }
    }

    /// Fixed-pair traffic over an explicit pair list: each listed `(s, d)`
    /// makes leaf `s` inject toward `d` at `rate`. A leaf has one injection
    /// queue and one fixed destination, so on a duplicate source the
    /// *first* pair wins (deterministic for witness-injection callers that
    /// list one route per cycle edge).
    pub fn fixed_pairs(ports: u32, pairs: &[(u32, u32)], rate: f64) -> Self {
        let mut dest = vec![None; ports as usize];
        for &(s, d) in pairs {
            let slot = &mut dest[s as usize];
            if slot.is_none() {
                *slot = Some(d);
            }
        }
        Self {
            kind: WorkloadKind::Fixed(dest),
            rate,
        }
    }

    /// Uniform-random traffic over `ports` leaves at `rate`.
    pub fn uniform_random(ports: u32, rate: f64) -> Self {
        Self {
            kind: WorkloadKind::UniformRandom { ports },
            rate,
        }
    }

    /// Injection probability per source per cycle.
    pub(crate) fn rate(&self) -> f64 {
        self.rate
    }

    /// The destination for a packet from `src` this cycle, or `None` if
    /// `src` never injects. Random workloads consult `draw` (a uniform
    /// sample in `0..ports-1` excluding `src`, supplied by the engine's
    /// RNG). A `src` outside the workload's universe never injects (rather
    /// than panicking on a topology with more leaves than the pattern).
    pub(crate) fn destination(&self, src: u32, mut draw: impl FnMut(u32) -> u32) -> Option<u32> {
        match &self.kind {
            WorkloadKind::Fixed(dest) => dest.get(src as usize).copied().flatten(),
            WorkloadKind::UniformRandom { ports } => {
                let x = draw(*ports - 1);
                Some(if x >= src { x + 1 } else { x })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_traffic::SdPair;

    #[test]
    fn permutation_workload() {
        let perm = Permutation::from_pairs(6, [SdPair::new(0, 3), SdPair::new(2, 1)]).unwrap();
        let w = Workload::permutation(&perm, 0.5);
        assert_eq!(w.destination(0, |_| 0), Some(3));
        assert_eq!(w.destination(1, |_| 0), None);
        assert_eq!(w.rate(), 0.5);
    }

    #[test]
    fn uniform_random_skips_self() {
        let w = Workload::uniform_random(8, 1.0);
        // draw returns 3 -> for src 3 the destination shifts to 4.
        assert_eq!(w.destination(3, |_| 3), Some(4));
        assert_eq!(w.destination(5, |_| 3), Some(3));
    }
}
