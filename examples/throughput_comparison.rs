//! Packet-level throughput comparison: why "rearrangeably nonblocking" is
//! not crossbar behaviour under distributed control — the paper's
//! motivating observation, live.
//!
//! ```text
//! cargo run --release --example throughput_comparison
//! ```

use ftclos::analysis::TextTable;
use ftclos::routing::{DModK, SinglePathRouter, YuanDeterministic};
use ftclos::sim::{Policy, SimConfig, Simulator, Workload};
use ftclos::topo::{crossbar, Crossbar, Ftree};
use ftclos::traffic::patterns;
use rand::SeedableRng;

struct XbRouter<'a>(&'a Crossbar);

impl SinglePathRouter for XbRouter<'_> {
    fn ports(&self) -> u32 {
        self.0.ports() as u32
    }
    fn route_into(&self, pair: ftclos::traffic::SdPair, out: &mut Vec<ftclos::topo::ChannelId>) {
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

fn main() {
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        ..SimConfig::default()
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);

    // Three fabrics, one permutation workload each, full offered load.
    let xb = crossbar(24).unwrap();
    let nb = Ftree::new(2, 4, 12).unwrap(); // nonblocking ftree(2+4, 12): 24 ports
    let ft = Ftree::new(6, 6, 12).unwrap(); // FT(12,2) equivalent: 72 ports, m = n

    let mut table = TextTable::new(["fabric", "ports", "throughput", "mean latency (cyc)"]);

    let xb_router = XbRouter(&xb);
    let perm = patterns::random_derangement(24, &mut rng);
    let s = Simulator::new(xb.topology(), cfg, Policy::from_single_path(&xb_router))
        .run(&Workload::permutation(&perm, 1.0), 1);
    table.row([
        "crossbar".to_string(),
        "24".to_string(),
        format!("{:.3}", s.accepted_throughput()),
        format!("{:.1}", s.mean_latency()),
    ]);

    let nb_router = YuanDeterministic::new(&nb).unwrap();
    let perm = patterns::random_derangement(24, &mut rng);
    let s = Simulator::new(nb.topology(), cfg, Policy::from_single_path(&nb_router))
        .run(&Workload::permutation(&perm, 1.0), 2);
    table.row([
        "nonblocking ftree(2+4,12)".to_string(),
        "24".to_string(),
        format!("{:.3}", s.accepted_throughput()),
        format!("{:.1}", s.mean_latency()),
    ]);

    let ft_router = DModK::new(&ft);
    let perm = patterns::random_derangement(72, &mut rng);
    let s = Simulator::new(ft.topology(), cfg, Policy::from_single_path(&ft_router))
        .run(&Workload::permutation(&perm, 1.0), 3);
    table.row([
        "FT(12,2) + d-mod-k".to_string(),
        "72".to_string(),
        format!("{:.3}", s.accepted_throughput()),
        format!("{:.1}", s.mean_latency()),
    ]);

    print!("{}", table.render());
    println!("\nthe rearrangeable fat-tree is \"nonblocking\" in the classical sense,");
    println!("yet with distributed control it cannot sustain permutation line rate;");
    println!("the paper's construction restores crossbar behaviour at extra switch cost.");
}
