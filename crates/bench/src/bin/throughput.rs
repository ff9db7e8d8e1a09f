//! E11 — the paper's motivation (refs \[5\], \[7\]): delivered throughput under
//! permutation traffic. A nonblocking `ftree(n+n², r)` behaves like a
//! crossbar (~100%); a conventional rearrangeable fat-tree with static
//! `d mod k` routing delivers much less; local queue-adaptive routing
//! narrows but does not close the gap.

use ftclos_analysis::TextTable;
use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_routing::{DModK, ObliviousMultipath, SpreadPolicy, YuanDeterministic};
use ftclos_sim::{Policy, SimConfig, Simulator, Workload};
use ftclos_topo::{crossbar, Crossbar, Ftree};
use ftclos_traffic::patterns;
use rand::SeedableRng;

/// Crossbar reference router: two hops through the single switch.
struct XbRouter<'a>(&'a Crossbar);

impl ftclos_routing::SinglePathRouter for XbRouter<'_> {
    fn ports(&self) -> u32 {
        self.0.ports() as u32
    }
    fn route_into(&self, pair: ftclos_traffic::SdPair, out: &mut Vec<ftclos_topo::ChannelId>) {
        out.clear();
        if pair.src != pair.dst {
            out.push(self.0.up_channel(pair.src as usize));
            out.push(self.0.down_channel(pair.dst as usize));
        }
    }
    fn name(&self) -> &'static str {
        "crossbar"
    }
}

/// `FT(N, 2)` is `ftree(N/2 + N/2, N)`; we model it directly as that ftree
/// so all routers apply.
fn ft2_as_ftree(radix: usize) -> Ftree {
    Ftree::new(radix / 2, radix / 2, radix).unwrap()
}

fn main() {
    let mut all_ok = true;
    let cfg = SimConfig {
        warmup_cycles: 400,
        measure_cycles: 2_000,
        ..SimConfig::default()
    };

    banner(
        "E11",
        "accepted throughput on random permutations (mean over 10 perms, offered = 1.0)",
    );
    // Fabrics sized to a comparable port count (~36-40 ports).
    let xb = crossbar(36).unwrap();
    let nb = Ftree::new(3, 9, 12).unwrap(); // nonblocking: 36 ports
    let ft2 = ft2_as_ftree(12); // FT(12,2): 72 ports, n = m = 6 (rearrangeable)
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);

    let run_mean = |topo: &ftclos_topo::Topology,
                    make_policy: &dyn Fn() -> Policy,
                    ports: u32,
                    rng: &mut rand_chacha::ChaCha8Rng| {
        let mut sum = 0.0;
        let trials = 10;
        for t in 0..trials {
            let perm = patterns::random_derangement(ports, rng);
            let mut sim = Simulator::new(topo, cfg, make_policy());
            sum += sim
                .run(&Workload::permutation(&perm, 1.0), SEED + t)
                .accepted_throughput();
        }
        sum / trials as f64
    };

    let xb_router = XbRouter(&xb);
    let xbar_thr = run_mean(
        xb.topology(),
        &|| Policy::from_single_path(&xb_router),
        36,
        &mut rng,
    );
    let nb_router = YuanDeterministic::new(&nb).unwrap();
    let nb_thr = run_mean(
        nb.topology(),
        &|| Policy::from_single_path(&nb_router),
        36,
        &mut rng,
    );
    let ft_router = DModK::new(&ft2);
    let ft_thr = run_mean(
        ft2.topology(),
        &|| Policy::from_single_path(&ft_router),
        72,
        &mut rng,
    );
    let ft_mp = ObliviousMultipath::new(&ft2, SpreadPolicy::Random);
    let ft_mp_thr = run_mean(
        ft2.topology(),
        &|| Policy::from_multipath(&ft_mp, true),
        72,
        &mut rng,
    );
    let ft_adaptive_thr = run_mean(
        ft2.topology(),
        &|| Policy::queue_adaptive(&ft_mp),
        72,
        &mut rng,
    );

    let mut table = TextTable::new(["fabric", "routing", "accepted throughput"]);
    table.row(["crossbar(36)", "direct", &format!("{xbar_thr:.3}")]);
    table.row([
        "ftree(3+9,12) nonblocking",
        "Theorem 3",
        &format!("{nb_thr:.3}"),
    ]);
    table.row(["FT(12,2) rearrangeable", "d-mod-k", &format!("{ft_thr:.3}")]);
    table.row([
        "FT(12,2) rearrangeable",
        "random multipath",
        &format!("{ft_mp_thr:.3}"),
    ]);
    table.row([
        "FT(12,2) rearrangeable",
        "queue adaptive",
        &format!("{ft_adaptive_thr:.3}"),
    ]);
    print!("{}", table.render());

    all_ok &= verdict(xbar_thr > 0.95, "crossbar delivers ~line rate");
    all_ok &= verdict(nb_thr > 0.95, "nonblocking ftree matches the crossbar");
    all_ok &= verdict(
        ft_thr < nb_thr - 0.15,
        "static d-mod-k on the rearrangeable fat-tree is far below crossbar",
    );
    // Note: queue-adaptive selection with stale local signals can oscillate
    // below good static routing — consistent with the literature the paper
    // cites ([5]); the claim under test is only that EVERY conventional
    // scheme stays below crossbar behaviour.
    all_ok &= verdict(
        ft_mp_thr < 0.97 && ft_adaptive_thr < 0.97,
        "multipath and local-adaptive routing still do not reach crossbar behaviour",
    );
    all_ok &= verdict(
        ft_adaptive_thr > 0.3,
        "queue-adaptive remains functional (no collapse)",
    );

    banner(
        "E11b",
        "load-latency curves (nonblocking vs d-mod-k fat-tree)",
    );
    let rates = [0.2, 0.4, 0.6, 0.8, 0.95];
    let perm_nb = {
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(SEED + 99);
        patterns::random_derangement(36, &mut r2)
    };
    let perm_ft = {
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(SEED + 100);
        patterns::random_derangement(72, &mut r2)
    };
    let nb_curve = ftclos_sim::sweep_injection_rates(
        nb.topology(),
        cfg,
        || Policy::from_single_path(&nb_router),
        |rate| Workload::permutation(&perm_nb, rate),
        &rates,
        SEED,
    );
    let ft_curve = ftclos_sim::sweep_injection_rates(
        ft2.topology(),
        cfg,
        || Policy::from_single_path(&ft_router),
        |rate| Workload::permutation(&perm_ft, rate),
        &rates,
        SEED,
    );
    let mut curve = TextTable::new([
        "offered",
        "NB accepted",
        "NB latency",
        "FT accepted",
        "FT latency",
    ]);
    for (a, b) in nb_curve.iter().zip(&ft_curve) {
        curve.row([
            format!("{:.2}", a.offered),
            format!("{:.3}", a.accepted),
            format!("{:.1}", a.mean_latency),
            format!("{:.3}", b.accepted),
            format!("{:.1}", b.mean_latency),
        ]);
    }
    print!("{}", curve.render());
    let nb_sat = nb_curve.last().unwrap();
    let ft_sat = ft_curve.last().unwrap();
    all_ok &= verdict(
        (nb_sat.accepted - nb_sat.offered).abs() < 0.05,
        "nonblocking fabric tracks offered load all the way up",
    );
    all_ok &= verdict(
        ft_sat.accepted < ft_sat.offered,
        "static fat-tree saturates below offered load",
    );

    result_line("overall", if all_ok { "PASS" } else { "FAIL" });
    std::process::exit(i32::from(!all_ok));
}
