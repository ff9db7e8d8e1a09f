//! Traffic-oblivious multi-path deterministic routing (paper Section IV.B).
//!
//! Packets of one SD pair are spread over several pre-determined paths,
//! either round-robin or uniformly at random, independent of the traffic
//! pattern. The paper's argument: because the *timing* of which path carries
//! which packet is unpredictable, nonblocking-ness still requires Lemma 1
//! over the **union** of the spread paths — so the bound `m >= n²` is
//! unchanged. `ftclos_core::verify::multipath_violation` is the executable
//! form of that argument.

use crate::error::RoutingError;
use crate::path::Path;
use ftclos_topo::{ChannelId, FaultyView, Ftree};
use ftclos_traffic::{Permutation, SdPair};
use rand::Rng;
use std::collections::HashMap;

/// How packets are spread over the candidate paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpreadPolicy {
    /// Deterministic round-robin over the candidate top switches.
    RoundRobin,
    /// Independent uniform random top switch per packet.
    Random,
}

/// Oblivious multipath routing over `ftree(n+m, r)`: every cross-switch SD
/// pair may use any of the `m` top switches.
#[derive(Clone, Copy, Debug)]
pub struct ObliviousMultipath<'a> {
    ft: &'a Ftree,
    policy: SpreadPolicy,
}

impl<'a> ObliviousMultipath<'a> {
    /// Create the router.
    pub fn new(ft: &'a Ftree, policy: SpreadPolicy) -> Self {
        Self { ft, policy }
    }

    /// The spread policy.
    pub fn policy(&self) -> SpreadPolicy {
        self.policy
    }

    /// Leaf count of the fabric.
    pub fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }

    /// Hand `each` every candidate path for `pair`, in order, without
    /// allocating (one per top switch for cross-switch pairs; the single
    /// local path otherwise; the empty path for a self pair).
    pub fn for_each_path(&self, pair: SdPair, mut each: impl FnMut(&[ChannelId])) {
        if pair.src == pair.dst {
            return each(&[]);
        }
        let n = self.ft.n();
        let (v, i) = (pair.src as usize / n, pair.src as usize % n);
        let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
        let (up, down) = (
            self.ft.leaf_up_channel(v, i),
            self.ft.leaf_down_channel(w, j),
        );
        if v == w {
            return each(&[up, down]);
        }
        for t in 0..self.ft.m() {
            each(&[
                up,
                self.ft.up_channel(v, t),
                self.ft.down_channel(t, w),
                down,
            ]);
        }
    }

    /// All candidate paths for `pair`, owned (see
    /// [`ObliviousMultipath::for_each_path`]).
    pub fn paths(&self, pair: SdPair) -> Vec<Path> {
        let mut paths = Vec::new();
        self.for_each_path(pair, |p| paths.push(Path::new(p.to_vec())));
        paths
    }

    /// The path the `seq`-th packet of `pair` takes.
    ///
    /// Round-robin uses `seq mod m`; random ignores `seq` and draws from
    /// `rng`.
    pub fn packet_path<R: Rng>(&self, pair: SdPair, seq: u64, rng: &mut R) -> Path {
        let candidates = self.paths(pair);
        let idx = match self.policy {
            SpreadPolicy::RoundRobin => (seq % candidates.len() as u64) as usize,
            SpreadPolicy::Random => rng.gen_range(0..candidates.len()),
        };
        candidates[idx].clone()
    }

    /// Candidate paths for `pair` with dead candidates masked out: a
    /// spreader with local liveness information simply stops using paths
    /// that cross failed hardware.
    ///
    /// # Errors
    /// [`RoutingError::NoLivePath`] when every candidate is dead (for
    /// cross-switch pairs that means all `m` top switches are unreachable;
    /// for local pairs, the leaf cable itself).
    pub fn paths_masked(
        &self,
        pair: SdPair,
        view: &FaultyView<'_>,
    ) -> Result<Vec<Path>, RoutingError> {
        let live: Vec<Path> = self
            .paths(pair)
            .into_iter()
            .filter(|p| view.path_alive(p.channels()).is_ok())
            .collect();
        if live.is_empty() {
            return Err(RoutingError::NoLivePath {
                src: pair.src,
                dst: pair.dst,
            });
        }
        Ok(live)
    }

    /// The path the `seq`-th packet takes, skipping dead candidates.
    pub fn packet_path_masked<R: Rng>(
        &self,
        pair: SdPair,
        seq: u64,
        rng: &mut R,
        view: &FaultyView<'_>,
    ) -> Result<Path, RoutingError> {
        let candidates = self.paths_masked(pair, view)?;
        let idx = match self.policy {
            SpreadPolicy::RoundRobin => (seq % candidates.len() as u64) as usize,
            SpreadPolicy::Random => rng.gen_range(0..candidates.len()),
        };
        Ok(candidates[idx].clone())
    }

    /// Spread a whole pattern: each pair is associated with its full
    /// candidate set.
    pub fn spread_pattern(&self, perm: &Permutation) -> Result<MultipathAssignment, RoutingError> {
        let mut entries = Vec::with_capacity(perm.len());
        for &pair in perm.pairs() {
            for port in [pair.src, pair.dst] {
                if port >= self.ports() {
                    return Err(RoutingError::PortOutOfRange {
                        port,
                        ports: self.ports(),
                    });
                }
            }
            entries.push((pair, self.paths(pair)));
        }
        Ok(MultipathAssignment { entries })
    }

    /// Spread a whole pattern with dead candidates masked per pair.
    ///
    /// # Errors
    /// [`RoutingError::PortOutOfRange`] for bad pairs and
    /// [`RoutingError::NoLivePath`] when some pair loses all candidates.
    pub fn spread_pattern_masked(
        &self,
        perm: &Permutation,
        view: &FaultyView<'_>,
    ) -> Result<MultipathAssignment, RoutingError> {
        let mut entries = Vec::with_capacity(perm.len());
        for &pair in perm.pairs() {
            for port in [pair.src, pair.dst] {
                if port >= self.ports() {
                    return Err(RoutingError::PortOutOfRange {
                        port,
                        ports: self.ports(),
                    });
                }
            }
            entries.push((pair, self.paths_masked(pair, view)?));
        }
        Ok(MultipathAssignment { entries })
    }
}

/// The spread-path sets for a routed pattern.
#[derive(Clone, Debug, Default)]
pub struct MultipathAssignment {
    entries: Vec<(SdPair, Vec<Path>)>,
}

impl MultipathAssignment {
    /// The `(pair, candidate paths)` entries.
    pub fn entries(&self) -> &[(SdPair, Vec<Path>)] {
        &self.entries
    }

    /// Expected per-channel load when each pair spreads its unit of traffic
    /// uniformly over its candidates.
    pub fn expected_channel_loads(&self) -> HashMap<ChannelId, f64> {
        let mut loads = HashMap::new();
        for (_, paths) in &self.entries {
            if paths.is_empty() {
                continue;
            }
            let w = 1.0 / paths.len() as f64;
            for p in paths {
                for &c in p.channels() {
                    *loads.entry(c).or_insert(0.0) += w;
                }
            }
        }
        loads
    }

    /// Maximum expected channel load.
    pub fn max_expected_load(&self) -> f64 {
        self.expected_channel_loads()
            .values()
            .fold(0.0, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(9)
    }

    #[test]
    fn candidate_sets() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::RoundRobin);
        assert_eq!(r.paths(SdPair::new(0, 4)).len(), 3, "one per top");
        assert_eq!(r.paths(SdPair::new(0, 1)).len(), 1, "same switch");
        assert_eq!(r.paths(SdPair::new(0, 0)).len(), 1);
        assert!(r.paths(SdPair::new(0, 0))[0].is_empty());
        for p in r.paths(SdPair::new(0, 4)) {
            p.validate(
                ft.topology(),
                ftclos_topo::NodeId(0),
                ftclos_topo::NodeId(4),
            )
            .unwrap();
        }
    }

    #[test]
    fn round_robin_cycles() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::RoundRobin);
        let pair = SdPair::new(0, 4);
        let mut g = rng();
        let p0 = r.packet_path(pair, 0, &mut g);
        let p3 = r.packet_path(pair, 3, &mut g);
        assert_eq!(p0, p3, "period m = 3");
        let p1 = r.packet_path(pair, 1, &mut g);
        assert_ne!(p0, p1);
    }

    #[test]
    fn random_draws_valid_candidates() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let pair = SdPair::new(0, 4);
        let candidates = r.paths(pair);
        let mut g = rng();
        for seq in 0..20 {
            let p = r.packet_path(pair, seq, &mut g);
            assert!(candidates.contains(&p));
        }
    }

    #[test]
    fn expected_loads_spread_evenly() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4)]).unwrap();
        let a = r.spread_pattern(&perm).unwrap();
        let loads = a.expected_channel_loads();
        // Leaf links carry the full unit, each of 4 uplinks carries 1/4.
        assert_eq!(loads[&ft.leaf_up_channel(0, 0)], 1.0);
        assert!((loads[&ft.up_channel(0, 2)] - 0.25).abs() < 1e-12);
        assert!((a.max_expected_load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_rejected() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = Permutation::from_pairs(11, [SdPair::new(0, 10)]).unwrap();
        assert!(r.spread_pattern(&perm).is_err());
    }

    #[test]
    fn masked_candidates_drop_dead_top() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::RoundRobin);
        let mut faults = ftclos_topo::FaultSet::new();
        faults.fail_switch(ft.top(1));
        let view = ftclos_topo::FaultyView::new(ft.topology(), &faults);
        let pair = SdPair::new(0, 4);
        let live = r.paths_masked(pair, &view).unwrap();
        assert_eq!(live.len(), 2, "one candidate per surviving top");
        for p in &live {
            view.path_alive(p.channels()).unwrap();
        }
        // Round-robin spreading cycles over the surviving candidates only.
        let mut g = rng();
        for seq in 0..6 {
            let p = r.packet_path_masked(pair, seq, &mut g, &view).unwrap();
            view.path_alive(p.channels()).unwrap();
        }
    }

    #[test]
    fn masked_dead_leaf_cable_is_no_live_path() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let mut faults = ftclos_topo::FaultSet::new();
        faults.fail_channel(ft.leaf_up_channel(0, 0));
        let view = ftclos_topo::FaultyView::new(ft.topology(), &faults);
        assert!(matches!(
            r.paths_masked(SdPair::new(0, 4), &view),
            Err(RoutingError::NoLivePath { src: 0, dst: 4 })
        ));
        // A pair whose leaf cables survive is unaffected.
        assert_eq!(r.paths_masked(SdPair::new(1, 5), &view).unwrap().len(), 3);
    }

    #[test]
    fn masked_spread_pattern_avoids_all_dead_channels() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let r = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let faults = ftclos_topo::FaultSet::random_links(ft.topology(), 3, 0xFA17);
        let view = ftclos_topo::FaultyView::new(ft.topology(), &faults);
        let perm = ftclos_traffic::patterns::shift(10, 3);
        match r.spread_pattern_masked(&perm, &view) {
            Ok(a) => {
                for (_, candidates) in a.entries() {
                    for p in candidates {
                        view.path_alive(p.channels()).unwrap();
                    }
                }
            }
            // Random links may have severed a leaf cable outright.
            Err(RoutingError::NoLivePath { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
