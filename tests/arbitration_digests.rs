//! Arbitration replay digests: a seeded corpus of congested scenarios whose
//! outcomes pin switch arbitration — head-of-line FIFO and iSLIP — bit for
//! bit.
//!
//! `tests/evsim_differential.rs` holds the active schedule to the dense one,
//! but both run one kernel, so a change to a shared phase (iSLIP above all)
//! moves both and passes it. This corpus holds each schedule to a recorded
//! outcome instead. Every line of `tests/snapshots/arbitration.digests` is a
//! seed, a summary of the scenario it decodes to, and the 64-bit FNV-1a
//! digest of its outcome text under the dense schedule and under the active
//! one. The outcome text is the `Debug` text of the run's `Result<SimStats,
//! SimError>`: every `SimStats` field, with the per-channel busy counts as
//! `ChannelBusy`'s length and its nonzero `{channel: cycles}` entries, or
//! the error as it prints. It shows what the run did, not how the
//! simulator's pages are laid out, so a change of page size or state layout
//! leaves every digest where it is.
//!
//! - Tier-1 runs the first stratum: one scenario for every fabric × arbiter
//!   × queue capacity × flit count cell.
//! - `cargo test --release --test arbitration_digests -- --ignored
//!   full_corpus` runs all of it.
//! - `cargo test --test arbitration_digests -- --ignored --nocapture replay
//!   <seed>...` prints the named scenarios and both outcomes in full.
//! - After an intended behaviour change, regenerate with `UPDATE_SNAPSHOTS=1
//!   cargo test --release --test arbitration_digests -- --ignored
//!   full_corpus`, and say which seeds moved and why.

use ftclos::evsim::EventSimulator;
use ftclos::routing::{route_all, DModK, ObliviousMultipath};
use ftclos::sim::{Arbiter, FaultSchedule, Policy, SimConfig, Simulator, Workload};
use ftclos::topo::{crossbar, ChannelId, Ftree, Topology};
use ftclos::traffic::patterns;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::path::PathBuf;

const FABRICS: [Fabric; 4] = [
    Fabric::Ftree(2, 1, 5),
    Fabric::Ftree(3, 1, 6),
    Fabric::Ftree(4, 2, 8),
    Fabric::Crossbar(8),
];
const ARBITERS: [Arbiter; 4] = [
    Arbiter::HolFifo,
    Arbiter::Voq { iterations: 1 },
    Arbiter::Voq { iterations: 2 },
    Arbiter::Voq { iterations: 3 },
];
const CAPACITIES: [usize; 3] = [1, 2, 8];
const FLITS: [u64; 2] = [1, 3];
/// One scenario per cell of the four axes above.
const STRATUM: u64 = (FABRICS.len() * ARBITERS.len() * CAPACITIES.len() * FLITS.len()) as u64;
/// Strata in the committed corpus.
const STRATA: u64 = 6;

#[derive(Clone, Copy, Debug)]
enum Fabric {
    /// `ftree(n+m, r)`.
    Ftree(usize, usize, usize),
    /// A single switch with this many ports.
    Crossbar(usize),
}

#[derive(Clone, Copy, Debug)]
enum PolicyKind {
    /// d-mod-k over every pair.
    DModK,
    /// d-mod-k routes of the permutation only (the sparse pair index).
    Assignment,
    /// Every `up(s), down(d)` route of the crossbar, pinned.
    Pinned,
    Random,
    RoundRobin,
    QueueAdaptive,
}

/// Everything one seed decodes to.
#[derive(Debug)]
struct Scenario {
    seed: u64,
    fabric: Fabric,
    cfg: SimConfig,
    policy: PolicyKind,
    /// A random full permutation, or else uniform random traffic.
    permutation: bool,
    rate: f64,
    /// `(kill cycle, revive cycle, uplink)`: the link through that uplink
    /// dies and comes back.
    outage: Option<(u64, u64, usize)>,
}

impl Scenario {
    fn decode(seed: u64) -> Self {
        let cell = seed % STRATUM;
        let (fabric, cell) = (FABRICS[(cell % 4) as usize], cell / 4);
        let (arbiter, cell) = (ARBITERS[(cell % 4) as usize], cell / 4);
        let (queue_capacity, cell) = (CAPACITIES[(cell % 3) as usize], cell / 3);
        let packet_flits = FLITS[cell as usize];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let policy = match fabric {
            Fabric::Crossbar(_) => PolicyKind::Pinned,
            Fabric::Ftree(..) => [
                PolicyKind::DModK,
                PolicyKind::Assignment,
                PolicyKind::Random,
                PolicyKind::RoundRobin,
                PolicyKind::QueueAdaptive,
            ][rng.gen_range(0..5usize)],
        };
        let permutation = matches!(policy, PolicyKind::Assignment) || rng.gen_bool(0.5);
        let rate = [0.3, 0.6, 0.9, 1.0][rng.gen_range(0..4usize)];
        let ttl_cycles = if rng.gen_bool(0.5) {
            rng.gen_range(30..90u64)
        } else {
            0
        };
        let retry = ttl_cycles > 0 && rng.gen_bool(0.5);
        let drain = rng.gen_bool(0.5);
        let warmup_cycles = 60;
        let outage = rng.gen_bool(0.5).then(|| {
            let down = rng.gen_range(warmup_cycles..200);
            let uplink = rng.gen_range(0..64usize);
            (down, down + rng.gen_range(40..200u64), uplink)
        });
        Self {
            seed,
            fabric,
            cfg: SimConfig {
                warmup_cycles,
                measure_cycles: 240,
                queue_capacity,
                bounded_injection: rng.gen_bool(0.25),
                packet_flits,
                arbiter,
                drain,
                ttl_cycles,
                retry,
                retry_limit: if retry { rng.gen_range(1..4u32) } else { 0 },
                // Drains end in a typed stall rather than at the drain cap.
                stall_watchdog: if drain { 256 } else { 0 },
            },
            policy,
            permutation,
            rate,
            outage,
        }
    }

    /// One line of the digest file, without the digests.
    fn summary(&self) -> String {
        let c = &self.cfg;
        let mut s = match self.fabric {
            Fabric::Ftree(n, m, r) => format!("ftree({n}+{m},{r})"),
            Fabric::Crossbar(p) => format!("crossbar({p})"),
        };
        match c.arbiter {
            Arbiter::HolFifo => s.push_str(" hol"),
            Arbiter::Voq { iterations } => {
                let _ = write!(s, " islip:{iterations}");
            }
        }
        let traffic = if self.permutation { "perm" } else { "uniform" };
        let _ = write!(
            s,
            " cap={} flits={} {:?} {traffic}@{}",
            c.queue_capacity, c.packet_flits, self.policy, self.rate
        );
        if c.ttl_cycles > 0 {
            let _ = write!(s, " ttl={}", c.ttl_cycles);
        }
        if c.retry {
            let _ = write!(s, " retry={}", c.retry_limit);
        }
        if c.bounded_injection {
            s.push_str(" bounded");
        }
        if c.drain {
            s.push_str(" drain");
        }
        if let Some((down, up, _)) = self.outage {
            let _ = write!(s, " outage={down}..{up}");
        }
        s
    }

    /// The `Debug` text of the run's outcome under the dense schedule and
    /// under the active one.
    fn outcomes(&self) -> [String; 2] {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xA5A5);
        match self.fabric {
            Fabric::Ftree(n, m, r) => {
                let ft = Ftree::new(n, m, r).unwrap();
                let ports = ft.num_leaves() as u32;
                let perm = patterns::random_full(ports, &mut rng);
                let mp = ObliviousMultipath::new(&ft);
                let policy = match self.policy {
                    PolicyKind::DModK => Policy::from_single_path(&DModK::new(&ft)),
                    PolicyKind::Assignment => {
                        Policy::from_assignment(&route_all(&DModK::new(&ft), &perm).unwrap())
                    }
                    PolicyKind::Random => Policy::from_multipath(&mp, true),
                    PolicyKind::RoundRobin => Policy::from_multipath(&mp, false),
                    PolicyKind::QueueAdaptive => Policy::queue_adaptive(&mp),
                    PolicyKind::Pinned => unreachable!("pinned routes are the crossbar's"),
                };
                let uplink = |u: usize| ft.up_channel(u % r, u / r % m);
                self.run(ft.topology(), policy, &perm, uplink)
            }
            Fabric::Crossbar(ports) => {
                let xb = crossbar(ports).unwrap();
                let perm = patterns::random_full(ports as u32, &mut rng);
                let routes: Vec<(u32, u32, [ChannelId; 2])> = (0..ports)
                    .flat_map(|s| (0..ports).filter(move |&d| d != s).map(move |d| (s, d)))
                    .map(|(s, d)| (s as u32, d as u32, [xb.up_channel(s), xb.down_channel(d)]))
                    .collect();
                let policy = Policy::from_pinned(
                    xb.topology(),
                    routes.iter().map(|(s, d, p)| (*s, *d, &p[..])),
                )
                .unwrap();
                self.run(xb.topology(), policy, &perm, |u| xb.up_channel(u % ports))
            }
        }
    }

    fn run(
        &self,
        topo: &Topology,
        policy: Policy,
        perm: &ftclos::traffic::Permutation,
        uplink: impl Fn(usize) -> ChannelId,
    ) -> [String; 2] {
        let workload = if self.permutation {
            Workload::permutation(perm, self.rate)
        } else {
            Workload::uniform_random(topo.num_leaves() as u32, self.rate)
        };
        let mut faults = FaultSchedule::new();
        if let Some((down, up, u)) = self.outage {
            faults.kill_link(down, topo, uplink(u));
            faults.revive_link(up, topo, uplink(u));
        }
        let dense = Simulator::new(topo, self.cfg, policy.clone())
            .try_run_with_faults(&workload, self.seed, &faults);
        let active = EventSimulator::new(topo, self.cfg, policy)
            .try_run_with_faults(&workload, self.seed, &faults);
        [format!("{dense:?}"), format!("{active:?}")]
    }

    /// The digest-file line for this scenario.
    fn line(&self) -> String {
        let [dense, active] = self.outcomes().map(|text| fnv1a64(text.as_bytes()));
        format!(
            "{}\t{}\t{dense:016x}\t{active:016x}",
            self.seed,
            self.summary()
        )
    }
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/arbitration.digests")
}

/// Check `seeds` against the committed digests; every mismatch is listed
/// with the command that replays it.
fn check(seeds: impl Iterator<Item = u64>) {
    let stored = std::fs::read_to_string(digest_path()).expect("read arbitration.digests");
    let stored: Vec<&str> = stored.lines().collect();
    let mut failures = Vec::new();
    for seed in seeds {
        let want = stored.get(seed as usize).copied().unwrap_or("<missing>");
        let got = Scenario::decode(seed).line();
        if got != want {
            failures.push(format!("  want {want}\n  got  {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} arbitration digest(s) moved:\n{}\nreplay one with `cargo test --test \
         arbitration_digests -- --ignored --nocapture replay <seed>`",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn first_stratum_replays_its_digests() {
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        return; // `full_corpus` rewrites the file
    }
    check(0..STRATUM);
}

#[test]
#[ignore = "the whole corpus; CI runs it in release"]
fn full_corpus() {
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        let lines: Vec<String> = (0..STRATA * STRATUM)
            .map(|seed| Scenario::decode(seed).line())
            .collect();
        std::fs::write(digest_path(), lines.join("\n") + "\n").expect("write digests");
        return;
    }
    check(0..STRATA * STRATUM);
}

#[test]
#[ignore = "prints the scenarios whose seeds follow `replay` on the command line"]
fn replay() {
    for seed in std::env::args().filter_map(|a| a.parse::<u64>().ok()) {
        let sc = Scenario::decode(seed);
        let [dense, active] = sc.outcomes();
        let summary = sc.summary();
        println!("{seed}\t{summary}\n{sc:#?}\ndense:  {dense}\nactive: {active}\n");
    }
}

#[test]
fn strata_cover_every_cell_once() {
    let cells: std::collections::BTreeSet<String> = (0..STRATUM)
        .map(|seed| {
            let sc = Scenario::decode(seed);
            let c = sc.cfg;
            format!(
                "{:?} {:?} {} {}",
                sc.fabric, c.arbiter, c.queue_capacity, c.packet_flits
            )
        })
        .collect();
    assert_eq!(cells.len() as u64, STRATUM);
}
