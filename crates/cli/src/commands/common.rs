//! Shared helpers: fabric construction, pattern parsing, the router roster,
//! and the fault / churn flags.

use crate::opts::{CliError, Opts};
use ftclos_core::cdg::unique_churn_fault_sets;
use ftclos_core::churn::ChurnEvent;
use ftclos_core::ValleyRouter;
use ftclos_routing::{
    route_all, DModK, GreedyLocalAdaptive, NonblockingAdaptive, PatternRouter, RearrangeableRouter,
    RouteAssignment, RoutingError, SModK, SinglePathRouter, TopRule, YuanDeterministic,
};
use ftclos_sim::ChurnSchedule;
use ftclos_topo::{ChannelId, FaultSet, Ftree};
use ftclos_traffic::{patterns, Permutation, SdPair};
use rand::SeedableRng;
use std::fmt;
use std::str::FromStr;

/// Build `ftree(n+m, r)` from the command's positional triple.
pub fn build_ftree(opts: &Opts) -> Result<Ftree, CliError> {
    let (n, m, r) = opts.nmr()?;
    Ftree::new(n, m, r).map_err(|e| CliError::Failed(format!("cannot build ftree: {e}")))
}

/// The fabric as every report names it: `ftree(n+m, r)`.
pub(crate) fn fabric(ft: &Ftree) -> String {
    format!("ftree({}+{}, {})", ft.n(), ft.m(), ft.r())
}

/// Parse a `--pattern` spec into a permutation over `ports` leaves.
///
/// Specs: `shift:<k>`, `random`, `transpose`, `bitrev`, `neighbor`,
/// `tornado`, `identity`. Random uses `seed`.
pub fn make_pattern(spec: &str, ports: u32, seed: u64) -> Result<Permutation, CliError> {
    let bad = |msg: String| CliError::Usage(msg);
    if let Some(k) = spec.strip_prefix("shift:") {
        let k: u32 = k
            .parse()
            .map_err(|_| bad(format!("shift wants an integer, got `{k}`")))?;
        return Ok(patterns::shift(ports, k));
    }
    match spec {
        "random" => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            Ok(patterns::random_full(ports, &mut rng))
        }
        "identity" => Ok(patterns::identity(ports)),
        "tornado" => Ok(patterns::tornado(ports)),
        "neighbor" => patterns::neighbor(ports).map_err(|e| bad(e.to_string())),
        "bitrev" => patterns::bit_reversal(ports).map_err(|e| bad(e.to_string())),
        "transpose" => {
            let rows = (1..=ports)
                .rev()
                .find(|r| ports.is_multiple_of(*r) && r * r <= ports)
                .ok_or_else(|| bad(format!("no transpose factorization of {ports}")))?;
            Ok(patterns::transpose(rows, ports / rows))
        }
        other => Err(bad(format!(
            "unknown pattern `{other}` (try shift:<k>, random, transpose, bitrev, neighbor, tornado, identity)"
        ))),
    }
}

/// Every routing scheme a `--router` flag can name. Each command accepts a
/// slice of these (its `ROSTER`, default first); [`RouterName::flag`] parses
/// and checks one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterName {
    /// Theorem 3's single-path deterministic routing (needs `m >= n²`).
    Yuan,
    /// Destination-mod-k single-path routing.
    DModK,
    /// Source-mod-k single-path routing.
    SModK,
    /// NONBLOCKINGADAPTIVE (Section IV.B).
    Adaptive,
    /// Greedy local adaptive routing.
    Greedy,
    /// Centralized edge-coloring routing (needs `m >= n`).
    Rearrangeable,
    /// Oblivious multipath (Section IV.B), round-robin spread.
    Multipath,
    /// The up/down/up straw-man whose dependency graph is cyclic.
    Valley,
    /// `deadlock`'s whole-roster sweep.
    All,
}

impl RouterName {
    /// Every name, in declaration order.
    #[rustfmt::skip]
    pub const ALL: [RouterName; 9] = [
        Self::Yuan, Self::DModK, Self::SModK, Self::Adaptive, Self::Greedy,
        Self::Rearrangeable, Self::Multipath, Self::Valley, Self::All,
    ];

    /// The spelling `--router` takes and reports print.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Yuan => "yuan",
            Self::DModK => "dmodk",
            Self::SModK => "smodk",
            Self::Adaptive => "adaptive",
            Self::Greedy => "greedy",
            Self::Rearrangeable => "rearrangeable",
            Self::Multipath => "multipath",
            Self::Valley => "valley",
            Self::All => "all",
        }
    }

    /// The `--router` flag, `roster[0]` when absent; a name outside
    /// `roster` is a usage error listing the ones the command takes.
    pub fn flag(opts: &Opts, roster: &[RouterName]) -> Result<Self, CliError> {
        let Some(raw) = opts.flag("router") else {
            return Ok(roster[0]);
        };
        match raw.parse() {
            Ok(r) if roster.contains(&r) => Ok(r),
            _ => Err(CliError::Usage(format!(
                "unknown router `{raw}` (one of {})",
                Self::spell(roster)
            ))),
        }
    }

    /// `names` as `a|b|c`.
    pub(crate) fn spell(names: &[RouterName]) -> String {
        let names: Vec<&str> = names.iter().map(|r| r.as_str()).collect();
        names.join("|")
    }
}

impl FromStr for RouterName {
    type Err = CliError;

    fn from_str(s: &str) -> Result<Self, CliError> {
        let known = Self::ALL.into_iter().find(|r| r.as_str() == s);
        known.ok_or_else(|| CliError::Usage(format!("unknown router `{s}`")))
    }
}

impl fmt::Display for RouterName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One owned single-path router, so every dispatch site borrows one type.
pub enum SinglePath<'a> {
    /// [`RouterName::Yuan`].
    Yuan(YuanDeterministic<'a>),
    /// [`RouterName::DModK`].
    DModK(DModK<'a>),
    /// [`RouterName::SModK`].
    SModK(SModK<'a>),
    /// [`RouterName::Valley`].
    Valley(ValleyRouter<'a>),
}

impl<'a> SinglePath<'a> {
    /// The single-path router `name` names on `ft`. Yuan's `m >= n²`
    /// precondition fails at run time; a multipath or pattern router is a
    /// usage error.
    pub fn new(ft: &'a Ftree, name: RouterName) -> Result<Self, CliError> {
        Ok(match name {
            RouterName::Yuan => {
                Self::Yuan(YuanDeterministic::new(ft).map_err(|e| CliError::Failed(e.to_string()))?)
            }
            RouterName::DModK => Self::DModK(DModK::new(ft)),
            RouterName::SModK => Self::SModK(SModK::new(ft)),
            RouterName::Valley => Self::Valley(ValleyRouter::new(ft)),
            other => return Err(CliError::Usage(format!("`{other}` is not single-path"))),
        })
    }
}

/// `match` over the variants of a [`SinglePath`], binding the router.
macro_rules! each_variant {
    ($router:expr, $r:ident => $body:expr) => {
        match $router {
            SinglePath::Yuan($r) => $body,
            SinglePath::DModK($r) => $body,
            SinglePath::SModK($r) => $body,
            SinglePath::Valley($r) => $body,
        }
    };
}

impl SinglePathRouter for SinglePath<'_> {
    fn ports(&self) -> u32 {
        each_variant!(self, r => SinglePathRouter::ports(r))
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        each_variant!(self, r => r.route_into(pair, out))
    }

    fn name(&self) -> &'static str {
        each_variant!(self, r => SinglePathRouter::name(r))
    }

    fn top_rule(&self) -> Option<(&Ftree, TopRule)> {
        each_variant!(self, r => r.top_rule())
    }
}

/// Route `perm` on `ft` with the named router.
pub(crate) fn route_named(
    ft: &Ftree,
    name: RouterName,
    perm: &Permutation,
) -> Result<RouteAssignment, CliError> {
    let fail = |e: RoutingError| CliError::Failed(e.to_string());
    match name {
        RouterName::Adaptive => NonblockingAdaptive::new(ft)
            .map_err(fail)?
            .route_pattern(perm),
        RouterName::Greedy => GreedyLocalAdaptive::new(ft).route_pattern(perm),
        RouterName::Rearrangeable => RearrangeableRouter::new(ft)
            .map_err(fail)?
            .route_pattern(perm),
        _ => route_all(&SinglePath::new(ft, name)?, perm),
    }
    .map_err(fail)
}

/// The fault overlay of `--fail-tops K` (the first `K` top switches) plus
/// `--fail-links K` random cables drawn with `--seed`.
pub(crate) struct FaultFlags {
    /// Dead top switches.
    pub(crate) tops: usize,
    /// Dead random cables.
    pub(crate) links: usize,
    /// The resulting fault set.
    pub(crate) set: FaultSet,
}

impl FaultFlags {
    /// Parse the flags (`--fail-tops` defaults to `default_tops`) and build
    /// the set; more dead tops than `ft` has is a usage error.
    pub(crate) fn parse(opts: &Opts, ft: &Ftree, default_tops: usize) -> Result<Self, CliError> {
        let tops: usize = opts.flag_or("fail-tops", default_tops)?;
        let links: usize = opts.flag_or("fail-links", 0)?;
        let seed: u64 = opts.flag_or("seed", 0)?;
        if tops > ft.m() {
            return Err(CliError::Usage(format!(
                "--fail-tops {tops} exceeds the {} top switches",
                ft.m()
            )));
        }
        let mut set = FaultSet::new();
        for t in 0..tops {
            set.fail_switch(ft.top(t));
        }
        if links > 0 {
            set.merge(&FaultSet::random_links(ft.topology(), links, seed));
        }
        Ok(Self { tops, links, set })
    }

    /// Whether any fault was asked for.
    pub(crate) fn any(&self) -> bool {
        self.tops > 0 || self.links > 0
    }
}

/// The distinct fault sets a flapping-cable schedule passes through:
/// `--churn-links K` cables failing and recovering with `--mtbf` / `--mttr`
/// over `--churn-cycles`, drawn with `--seed`. `None` without `--churn-links`.
pub(crate) fn churn_epochs(opts: &Opts, ft: &Ftree) -> Result<Option<Vec<FaultSet>>, CliError> {
    let links = flapping_links("churn-links", opts.flag_or("churn-links", 0)?, ft)?;
    let mtbf: u64 = opts.flag_or("mtbf", 400)?;
    let mttr: u64 = opts.flag_or("mttr", 100)?;
    let cycles: u64 = opts.flag_or("churn-cycles", 2_000)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    if links == 0 {
        return Ok(None);
    }
    let schedule = ChurnSchedule::flapping_links(ft.topology(), links, mtbf, mttr, cycles, seed);
    Ok(Some(unique_churn_fault_sets(
        &core_events(&schedule),
        cycles,
    )))
}

/// `links`, the `--<flag>` count of flapping cables, if the fabric has that
/// many: `ChurnSchedule::flapping_links` would quietly flap fewer.
pub(crate) fn flapping_links(flag: &str, links: usize, ft: &Ftree) -> Result<usize, CliError> {
    // Every ftree channel has a reverse: a cable is two channels.
    let cables = ft.topology().num_channels() / 2;
    if links > cables {
        return Err(CliError::Usage(format!(
            "--{flag} {links} exceeds the fabric's {cables} cables"
        )));
    }
    Ok(links)
}

/// The simulator's churn schedule as the analyzer's event list.
pub(crate) fn core_events(schedule: &ChurnSchedule) -> Vec<ChurnEvent> {
    schedule
        .sorted_events()
        .iter()
        .map(|e| ChurnEvent::new(e.cycle, e.channel, e.transition))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_parse() {
        assert_eq!(make_pattern("shift:2", 6, 0).unwrap().dst_of(0), Some(2));
        assert!(make_pattern("random", 6, 1).unwrap().is_full());
        assert!(make_pattern("identity", 6, 0).unwrap().is_full());
        assert!(make_pattern("bitrev", 8, 0).is_ok());
        assert!(make_pattern("bitrev", 6, 0).is_err());
        assert!(make_pattern("shift:x", 6, 0).is_err());
        assert!(make_pattern("nope", 6, 0).is_err());
    }

    #[test]
    fn router_names_round_trip() {
        for r in RouterName::ALL {
            assert_eq!(r.to_string().parse::<RouterName>(), Ok(r));
        }
        assert!(matches!(
            "warp".parse::<RouterName>(),
            Err(CliError::Usage(_))
        ));
        let opts =
            |s: &str| Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let roster = [RouterName::DModK, RouterName::Yuan];
        assert_eq!(
            RouterName::flag(&opts("").unwrap(), &roster),
            Ok(RouterName::DModK)
        );
        assert_eq!(
            RouterName::flag(&opts("--router yuan").unwrap(), &roster),
            Ok(RouterName::Yuan)
        );
        match RouterName::flag(&opts("--router smodk").unwrap(), &roster) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("one of dmodk|yuan"), "{msg}"),
            other => panic!("smodk is outside the roster: {other:?}"),
        }
    }

    #[test]
    fn single_path_delegates_to_the_named_router() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let pair = SdPair::new(1, 6);
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let plain: [&dyn SinglePathRouter; 4] = [
            &yuan,
            &DModK::new(&ft),
            &SModK::new(&ft),
            &ValleyRouter::new(&ft),
        ];
        let names = [
            RouterName::Yuan,
            RouterName::DModK,
            RouterName::SModK,
            RouterName::Valley,
        ];
        for (name, plain) in names.into_iter().zip(plain) {
            let r = SinglePath::new(&ft, name).unwrap();
            assert_eq!(SinglePathRouter::name(&r), plain.name());
            assert_eq!(r.route(pair), plain.route(pair), "{name}");
            let rule = |r: &dyn SinglePathRouter| r.top_rule().map(|(f, rule)| (f.n(), rule));
            assert_eq!(rule(&r), rule(plain), "{name}");
        }
        assert!(matches!(
            SinglePath::new(&ft, RouterName::Adaptive),
            Err(CliError::Usage(_))
        ));
        let small = Ftree::new(2, 3, 5).unwrap();
        assert!(matches!(
            SinglePath::new(&small, RouterName::Yuan),
            Err(CliError::Failed(_))
        ));
    }

    #[test]
    fn routers_dispatch() {
        use RouterName::*;
        let ft = Ftree::new(2, 4, 5).unwrap();
        let perm = make_pattern("shift:3", 10, 0).unwrap();
        for r in [Yuan, DModK, SModK, Greedy, Rearrangeable] {
            assert!(route_named(&ft, r, &perm).is_ok(), "{r}");
        }
        // NONBLOCKINGADAPTIVE needs whole configurations of (c+1)·n tops;
        // give it an amply-sized fabric.
        let roomy = Ftree::new(2, 16, 4).unwrap();
        let perm8 = make_pattern("shift:3", 8, 0).unwrap();
        assert!(route_named(&roomy, Adaptive, &perm8).is_ok());
        // And it reports NotEnoughTops on the tight one.
        assert!(route_named(&ft, Adaptive, &perm).is_err());
        assert!(route_named(&ft, Multipath, &perm).is_err());
        // Yuan rejects m < n^2.
        let small = Ftree::new(2, 3, 5).unwrap();
        assert!(route_named(&small, Yuan, &perm).is_err());
    }

    #[test]
    fn fault_and_churn_flags() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let opts = |s: &str| {
            Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
        };
        let none = FaultFlags::parse(&opts(""), &ft, 0).unwrap();
        assert!(!none.any());
        let f = FaultFlags::parse(&opts("--fail-tops 1 --fail-links 2 --seed 3"), &ft, 0).unwrap();
        assert!(f.any() && f.tops == 1 && f.links == 2);
        assert!(matches!(
            FaultFlags::parse(&opts("--fail-tops 5"), &ft, 0),
            Err(CliError::Usage(_))
        ));
        assert_eq!(churn_epochs(&opts(""), &ft), Ok(None));
        let epochs = churn_epochs(&opts("--churn-links 2 --churn-cycles 800"), &ft).unwrap();
        assert!(!epochs.unwrap().is_empty());
        // ftree(2+4, 5) has 2·5 leaf cables and 4·5 uplink cables.
        assert!(churn_epochs(&opts("--churn-links 30"), &ft)
            .unwrap()
            .is_some());
        assert_eq!(
            churn_epochs(&opts("--churn-links 31"), &ft),
            Err(CliError::Usage(
                "--churn-links 31 exceeds the fabric's 30 cables".to_string()
            ))
        );
    }
}
