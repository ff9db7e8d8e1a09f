//! Classical circuit-switched Clos networks with a centralized controller
//! (paper Section II / Related Work).
//!
//! The paper's whole point is that the classical nonblocking hierarchy —
//! strict-sense (`m >= 2n-1`, Clos 1953), wide-sense (policy-dependent),
//! rearrangeable (`m >= n`, Beneš 1962) — presumes a controller that sees
//! every connection request and assigns middle switches. This module
//! implements that controller for `Clos(n, m, r)` so the classical results
//! can be exercised (and their *inapplicability* to distributed packet
//! routing made concrete: the controller is global state no fat-tree switch
//! has).
//!
//! A *connection* joins an idle input port to an idle output port through a
//! middle switch that is free on both the input-switch uplink and the
//! output-switch downlink. Policies:
//! * [`MiddlePolicy::FirstFit`] — lowest-index feasible middle (the packing
//!   strategy studied for wide-sense nonblocking-ness),
//! * [`MiddlePolicy::LastFit`] — highest-index feasible middle,
//! * [`MiddlePolicy::Balanced`] — least-used feasible middle.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Middle-switch selection policy for new connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MiddlePolicy {
    /// Lowest-index feasible middle switch (packing).
    FirstFit,
    /// Highest-index feasible middle switch.
    LastFit,
    /// Feasible middle switch currently carrying the fewest connections.
    Balanced,
}

/// Why a connection attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectError {
    /// The input port already carries a connection.
    InputBusy,
    /// The output port already carries a connection.
    OutputBusy,
    /// No middle switch is free toward both endpoints — the network is
    /// *blocked* for this request (without rearrangement).
    Blocked,
    /// Port index out of range.
    OutOfRange,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::InputBusy => write!(f, "input port busy"),
            ConnectError::OutputBusy => write!(f, "output port busy"),
            ConnectError::Blocked => write!(f, "no free middle switch (blocked)"),
            ConnectError::OutOfRange => write!(f, "port out of range"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// Centralized circuit switch state over `Clos(n, m, r)`.
///
/// ```
/// use ftclos_core::circuit::{CircuitClos, MiddlePolicy};
///
/// // Strict-sense shape: m = 2n - 1.
/// let mut c = CircuitClos::new(2, 3, 4, MiddlePolicy::FirstFit);
/// let middle = c.connect(0, 5).unwrap();
/// assert_eq!(middle, 0);
/// assert_eq!(c.disconnect(0), Some((5, 0)));
/// ```
#[derive(Clone, Debug)]
pub struct CircuitClos {
    n: usize,
    m: usize,
    r: usize,
    policy: MiddlePolicy,
    /// `up_used[v][t]`: input switch `v`'s link to middle `t` is carrying a
    /// connection.
    up_used: Vec<Vec<bool>>,
    /// `down_used[t][w]`: middle `t`'s link to output switch `w` in use.
    down_used: Vec<Vec<bool>>,
    /// Active connections: input port → (output port, middle).
    connections: HashMap<u32, (u32, usize)>,
    /// Output port → input port (reverse index).
    out_owner: HashMap<u32, u32>,
    /// Connections per middle switch (for the balanced policy).
    middle_load: Vec<usize>,
}

impl CircuitClos {
    /// Create an empty circuit switch for `Clos(n, m, r)`.
    pub fn new(n: usize, m: usize, r: usize, policy: MiddlePolicy) -> Self {
        Self {
            n,
            m,
            r,
            policy,
            up_used: vec![vec![false; m]; r],
            down_used: vec![vec![false; r]; m],
            connections: HashMap::new(),
            out_owner: HashMap::new(),
            middle_load: vec![0; m],
        }
    }

    /// Number of input/output ports (`r·n`).
    pub fn ports(&self) -> u32 {
        (self.r * self.n) as u32
    }

    /// Active connection count.
    pub fn active(&self) -> usize {
        self.connections.len()
    }

    /// The middles currently feasible for `(src, dst)`.
    fn feasible(&self, v: usize, w: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.m).filter(move |&t| !self.up_used[v][t] && !self.down_used[t][w])
    }

    /// Try to establish `src → dst`. Returns the middle switch used.
    pub fn connect(&mut self, src: u32, dst: u32) -> Result<usize, ConnectError> {
        if src >= self.ports() || dst >= self.ports() {
            return Err(ConnectError::OutOfRange);
        }
        if self.connections.contains_key(&src) {
            return Err(ConnectError::InputBusy);
        }
        if self.out_owner.contains_key(&dst) {
            return Err(ConnectError::OutputBusy);
        }
        let v = src as usize / self.n;
        let w = dst as usize / self.n;
        let chosen = match self.policy {
            MiddlePolicy::FirstFit => self.feasible(v, w).next(),
            MiddlePolicy::LastFit => self.feasible(v, w).last(),
            MiddlePolicy::Balanced => {
                let load = &self.middle_load;
                self.feasible(v, w).min_by_key(|&t| (load[t], t))
            }
        };
        let Some(t) = chosen else {
            return Err(ConnectError::Blocked);
        };
        self.up_used[v][t] = true;
        self.down_used[t][w] = true;
        self.middle_load[t] += 1;
        self.connections.insert(src, (dst, t));
        self.out_owner.insert(dst, src);
        Ok(t)
    }

    /// Establish `src → dst` through a *specific* middle switch, bypassing
    /// the policy. Used to restore snapshots (e.g. by the wide-sense state
    /// search) and to model externally-dictated assignments.
    pub(crate) fn force_connect(
        &mut self,
        src: u32,
        dst: u32,
        middle: usize,
    ) -> Result<(), ConnectError> {
        if src >= self.ports() || dst >= self.ports() || middle >= self.m {
            return Err(ConnectError::OutOfRange);
        }
        if self.connections.contains_key(&src) {
            return Err(ConnectError::InputBusy);
        }
        if self.out_owner.contains_key(&dst) {
            return Err(ConnectError::OutputBusy);
        }
        let v = src as usize / self.n;
        let w = dst as usize / self.n;
        if self.up_used[v][middle] || self.down_used[middle][w] {
            return Err(ConnectError::Blocked);
        }
        self.up_used[v][middle] = true;
        self.down_used[middle][w] = true;
        self.middle_load[middle] += 1;
        self.connections.insert(src, (dst, middle));
        self.out_owner.insert(dst, src);
        Ok(())
    }

    /// Tear down the connection from `src`. Returns the `(dst, middle)` it
    /// occupied, or `None` if there was none.
    pub fn disconnect(&mut self, src: u32) -> Option<(u32, usize)> {
        let (dst, t) = self.connections.remove(&src)?;
        self.out_owner.remove(&dst);
        let v = src as usize / self.n;
        let w = dst as usize / self.n;
        self.up_used[v][t] = false;
        self.down_used[t][w] = false;
        self.middle_load[t] -= 1;
        Some((dst, t))
    }

    /// Rearrangeable connect (Beneš / Paull): if the direct attempt blocks,
    /// free a middle by swapping an alternating chain of existing
    /// connections between two middles (Paull's matrix argument), then
    /// connect. Succeeds for any request whenever `m >= n` and the ports
    /// are idle.
    pub fn connect_rearranging(&mut self, src: u32, dst: u32) -> Result<usize, ConnectError> {
        match self.connect(src, dst) {
            Err(ConnectError::Blocked) => {}
            other => return other,
        }
        let v = src as usize / self.n;
        let w = dst as usize / self.n;
        // Pick a middle `a` free at v and a middle `b` free at w. Both
        // exist when m >= n because v has at most n-1 other busy uplinks
        // (src is idle) and w at most n-1 busy downlinks.
        let a = (0..self.m).find(|&t| !self.up_used[v][t]);
        let b = (0..self.m).find(|&t| !self.down_used[t][w]);
        let (Some(a), Some(b)) = (a, b) else {
            return Err(ConnectError::Blocked);
        };
        debug_assert_ne!(a, b, "else connect() would have succeeded");
        // Walk Paull's chain starting from the connection using `a` at w's
        // output switch, alternating a/b, and swap middles along the chain.
        // Collect the chain first (it is a simple path), then re-point.
        let mut chain: Vec<u32> = Vec::new(); // connection keys (src ports)
        let mut cur_switch_is_output = true;
        let mut cur_idx = w;
        let mut want = a;
        loop {
            // Find the connection using middle `want` at the current
            // switch (input side v' or output side w').
            let found = self.connections.iter().find(|(&s, &(d, t))| {
                t == want
                    && if cur_switch_is_output {
                        d as usize / self.n == cur_idx
                    } else {
                        s as usize / self.n == cur_idx
                    }
            });
            let Some((&s, &(d, _))) = found else { break };
            if chain.contains(&s) {
                break; // safety: avoid cycles (cannot happen in theory)
            }
            chain.push(s);
            // Continue from the other endpoint with the other middle.
            if cur_switch_is_output {
                cur_idx = s as usize / self.n;
                cur_switch_is_output = false;
            } else {
                cur_idx = d as usize / self.n;
                cur_switch_is_output = true;
            }
            want = if want == a { b } else { a };
        }
        // Swap a<->b along the chain: clear every old slot first, then set
        // the new ones, because consecutive chain edges share a switch and
        // an interleaved update would clobber a slot just written.
        for &s in &chain {
            let (d, t) = self.connections[&s];
            let sv = s as usize / self.n;
            let dw = d as usize / self.n;
            self.up_used[sv][t] = false;
            self.down_used[t][dw] = false;
            self.middle_load[t] -= 1;
        }
        for &s in &chain {
            let (d, t) = self.connections[&s];
            let new_t = if t == a { b } else { a };
            let sv = s as usize / self.n;
            let dw = d as usize / self.n;
            self.up_used[sv][new_t] = true;
            self.down_used[new_t][dw] = true;
            self.middle_load[new_t] += 1;
            self.connections.insert(s, (d, new_t));
        }
        // `a` is now free at both v and w.
        match self.connect(src, dst) {
            Ok(t) => Ok(t),
            Err(e) => Err(e),
        }
    }

    /// Internal consistency audit (link usage matches the connection set).
    pub fn audit(&self) -> Result<(), String> {
        let mut up = vec![vec![false; self.m]; self.r];
        let mut down = vec![vec![false; self.r]; self.m];
        let mut load = vec![0usize; self.m];
        for (&s, &(d, t)) in &self.connections {
            let v = s as usize / self.n;
            let w = d as usize / self.n;
            if std::mem::replace(&mut up[v][t], true) {
                return Err(format!("uplink {v}->{t} double-booked"));
            }
            if std::mem::replace(&mut down[t][w], true) {
                return Err(format!("downlink {t}->{w} double-booked"));
            }
            load[t] += 1;
            if self.out_owner.get(&d) != Some(&s) {
                return Err("reverse index out of sync".into());
            }
        }
        if up != self.up_used || down != self.down_used || load != self.middle_load {
            return Err("usage tables out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn basic_connect_disconnect() {
        let mut c = CircuitClos::new(2, 3, 4, MiddlePolicy::FirstFit);
        let t = c.connect(0, 5).unwrap();
        assert_eq!(t, 0, "first fit");
        assert_eq!(c.active(), 1);
        assert_eq!(c.connect(0, 6), Err(ConnectError::InputBusy));
        assert_eq!(c.connect(2, 5), Err(ConnectError::OutputBusy));
        assert_eq!(c.connect(99, 5), Err(ConnectError::OutOfRange));
        assert_eq!(c.disconnect(0), Some((5, 0)));
        assert_eq!(c.disconnect(0), None);
        c.audit().unwrap();
    }

    #[test]
    fn clos_strict_sense_never_blocks_under_churn() {
        // m = 2n-1 = 3 with n = 2: random connect/disconnect churn must
        // never block, for every policy (that is what strict-sense means).
        for policy in [
            MiddlePolicy::FirstFit,
            MiddlePolicy::LastFit,
            MiddlePolicy::Balanced,
        ] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
            let mut c = CircuitClos::new(2, 3, 5, policy);
            for step in 0..5_000 {
                if rng.gen_bool(0.5) {
                    // Try to connect a random idle input to a random idle
                    // output.
                    let idle_in: Vec<u32> = (0..c.ports())
                        .filter(|p| !c.connections.contains_key(p))
                        .collect();
                    let idle_out: Vec<u32> = (0..c.ports())
                        .filter(|p| !c.out_owner.contains_key(p))
                        .collect();
                    if let (Some(&s), Some(&d)) =
                        (idle_in.choose(&mut rng), idle_out.choose(&mut rng))
                    {
                        let res = c.connect(s, d);
                        assert!(
                            !matches!(res, Err(ConnectError::Blocked)),
                            "{policy:?} blocked at step {step}: ({s},{d})"
                        );
                    }
                } else {
                    let busy: Vec<u32> = c.connections.keys().copied().collect();
                    if let Some(&s) = busy.choose(&mut rng) {
                        c.disconnect(s);
                    }
                }
            }
            c.audit().unwrap();
        }
    }

    #[test]
    fn below_strict_sense_can_block() {
        // n = 2, m = 2 (< 2n-1 = 3): the classic first-fit blocking state.
        // Arrange: input switch 0 busy on middle 0 only, output switch 0
        // busy on middle 1 only — their free sets are disjoint, so a fresh
        // request between their idle ports blocks.
        let mut c = CircuitClos::new(2, 2, 3, MiddlePolicy::FirstFit);
        c.connect(0, 2).unwrap(); // v0 -> m0 -> w1
        c.connect(3, 4).unwrap(); // v1 -> m0 -> w2
        c.connect(2, 1).unwrap(); // v1 -> m1 (m0 busy at v1) -> w0
                                  // Request idle port 1 (v0) -> idle port 0 (w0):
                                  // v0 free middles = {m1}; w0 free middles = {m0}; intersection ∅.
        assert_eq!(c.connect(1, 0), Err(ConnectError::Blocked));
        // Beneš: m = n = 2 is rearrangeable, so a controller willing to
        // re-point existing circuits completes the same request.
        let t = c.connect_rearranging(1, 0).unwrap();
        assert!(t < 2);
        assert_eq!(c.active(), 4);
        c.audit().unwrap();
        // At m = 2n-1 the same prefix leaves a free middle (strict sense).
        let mut c = CircuitClos::new(2, 3, 3, MiddlePolicy::FirstFit);
        c.connect(0, 2).unwrap();
        c.connect(3, 4).unwrap();
        c.connect(2, 1).unwrap();
        assert!(c.connect(1, 0).is_ok());
        c.audit().unwrap();
    }

    #[test]
    fn rearrangement_needed_below_strict_sense() {
        // n = 2, m = 2 (= n, rearrangeable; < 2n-1 = 3, not strict-sense).
        // Search random churn for a state where plain connect() blocks but
        // connect_rearranging() succeeds — the defining wide-sense gap.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut witnessed = false;
        'outer: for _ in 0..200 {
            let mut c = CircuitClos::new(2, 2, 4, MiddlePolicy::FirstFit);
            for _ in 0..200 {
                let s = rng.gen_range(0..c.ports());
                let d = rng.gen_range(0..c.ports());
                if rng.gen_bool(0.35) {
                    let busy: Vec<u32> = c.connections.keys().copied().collect();
                    if let Some(&x) = busy.first() {
                        c.disconnect(x);
                    }
                    continue;
                }
                match c.connect(s, d) {
                    Ok(_) | Err(ConnectError::InputBusy) | Err(ConnectError::OutputBusy) => {}
                    Err(ConnectError::Blocked) => {
                        // Rearrangement must succeed (Beneš: m >= n).
                        let t = c
                            .connect_rearranging(s, d)
                            .expect("Beneš guarantees success");
                        assert!(t < 2);
                        c.audit().unwrap();
                        witnessed = true;
                        break 'outer;
                    }
                    Err(ConnectError::OutOfRange) => unreachable!(),
                }
            }
        }
        assert!(
            witnessed,
            "churn should hit a blocked-but-rearrangeable state"
        );
    }

    #[test]
    fn rearranging_full_permutation_always_works_at_m_equals_n() {
        use rand::seq::SliceRandom as _;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let mut c = CircuitClos::new(3, 3, 4, MiddlePolicy::FirstFit);
            let mut dsts: Vec<u32> = (0..c.ports()).collect();
            dsts.shuffle(&mut rng);
            for (s, &d) in dsts.iter().enumerate() {
                c.connect_rearranging(s as u32, d)
                    .unwrap_or_else(|e| panic!("({s},{d}): {e}"));
            }
            assert_eq!(c.active(), c.ports() as usize);
            c.audit().unwrap();
        }
    }

    #[test]
    fn balanced_policy_spreads_load() {
        let mut c = CircuitClos::new(2, 4, 4, MiddlePolicy::Balanced);
        c.connect(0, 2).unwrap();
        c.connect(2, 4).unwrap();
        c.connect(4, 6).unwrap();
        c.connect(6, 0).unwrap();
        // Four connections from four different switches: each should get a
        // different middle under least-load.
        let mut used: Vec<usize> = c.connections.values().map(|&(_, t)| t).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 4);
        c.audit().unwrap();
    }
}
