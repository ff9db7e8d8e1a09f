//! V1 — simulator validation against classic input-queued switch results.
//!
//! Before trusting the E11 throughput numbers, validate the packet engine
//! against independently-known behaviour:
//! * FIFO input queues on a crossbar under saturated uniform traffic cap
//!   near Karol/Hluchyj/Morgan's 58.6% (finite buffers with injection
//!   backpressure land slightly above).
//! * VOQ + iSLIP arbitration removes head-of-line blocking and approaches
//!   line rate (McKeown), improving with iterations and buffer depth.
//! * Permutation traffic (one flow per input) shows no HOL effect at all.

use ftclos_analysis::TextTable;
use ftclos_bench::{banner, result_line, verdict, SEED};
use ftclos_routing::SinglePathRouter;
use ftclos_sim::{Arbiter, Policy, SimConfig, Simulator, Workload};
use ftclos_topo::{crossbar, ChannelId, Crossbar};
use ftclos_traffic::{patterns, SdPair};

struct XbRouter<'a>(&'a Crossbar);

impl SinglePathRouter for XbRouter<'_> {
    fn ports(&self) -> u32 {
        self.0.ports() as u32
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
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
    let mut all_ok = true;

    banner(
        "V1",
        "input-queued crossbar, saturated uniform traffic (16 ports)",
    );
    let xb = crossbar(16).unwrap();
    let router = XbRouter(&xb);
    let uni = Workload::uniform_random(16, 1.0);
    let mut table = TextTable::new(["arbiter", "buffer", "throughput"]);
    let mut results = std::collections::HashMap::new();
    for cap in [16usize, 64] {
        for (label, arbiter) in [
            ("HOL FIFO", Arbiter::HolFifo),
            ("iSLIP-1", Arbiter::Voq { iterations: 1 }),
            ("iSLIP-3", Arbiter::Voq { iterations: 3 }),
        ] {
            let cfg = SimConfig {
                warmup_cycles: 500,
                measure_cycles: 3_000,
                queue_capacity: cap,
                arbiter,
                ..SimConfig::default()
            };
            let thr = Simulator::new(xb.topology(), cfg, Policy::from_single_path(&router))
                .run(&uni, SEED)
                .accepted_throughput();
            table.row([label.to_string(), cap.to_string(), format!("{thr:.3}")]);
            results.insert((label, cap), thr);
        }
    }
    print!("{}", table.render());

    let hol = results[&("HOL FIFO", 64usize)];
    all_ok &= verdict(
        (0.5..0.78).contains(&hol),
        &format!("HOL FIFO saturates near the classic 58.6% limit (measured {hol:.3})"),
    );
    all_ok &= verdict(
        results[&("HOL FIFO", 16usize)] - hol < 0.02,
        "HOL limit is buffer-independent (it is a structural effect)",
    );
    all_ok &= verdict(
        results[&("iSLIP-1", 64usize)] > hol + 0.1,
        "iSLIP-1 clearly beats HOL FIFO",
    );
    all_ok &= verdict(
        results[&("iSLIP-3", 64usize)] > 0.93,
        "iSLIP-3 approaches line rate",
    );

    banner("V1b", "permutation traffic has no HOL component");
    let perm = patterns::shift(16, 5);
    let w = Workload::permutation(&perm, 1.0);
    for (label, arbiter) in [
        ("HOL FIFO", Arbiter::HolFifo),
        ("iSLIP-1", Arbiter::Voq { iterations: 1 }),
    ] {
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 1_500,
            arbiter,
            ..SimConfig::default()
        };
        let thr = Simulator::new(xb.topology(), cfg, Policy::from_single_path(&router))
            .run(&w, SEED)
            .accepted_throughput();
        result_line(label, format!("{thr:.3}"));
        all_ok &= verdict(thr > 0.97, &format!("{label}: line rate on a permutation"));
    }

    result_line("overall", if all_ok { "PASS" } else { "FAIL" });
    std::process::exit(i32::from(!all_ok));
}
