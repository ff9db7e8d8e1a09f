//! # ftclos-topo — interconnect topology substrates
//!
//! Graph representations and builders for the network topologies used in
//! *"On Nonblocking Folded-Clos Networks in Computer Communication
//! Environments"* (Xin Yuan, IPDPS 2011) and its baselines:
//!
//! * [`Ftree`] — the two-level folded-Clos network `ftree(n+m, r)` that the
//!   paper analyzes (Fig. 1 (b)), with the paper's leaf/switch coordinate
//!   systems.
//! * [`Clos`] — the classical unidirectional three-stage `Clos(n, m, r)`
//!   (Fig. 1 (a)), logically equivalent to `ftree(n+m, r)`.
//! * [`Xgft`] — extended generalized fat trees `XGFT(h; m⃗; w⃗)` (Öhring et
//!   al.), the umbrella family containing every fat-tree variant below.
//! * [`kary_ntree`] — k-ary n-trees (Petrini & Vanneschi).
//! * [`mport_ntree`] — m-port n-trees `FT(m, h)` (Lin, Chung & Huang), the
//!   rearrangeably-nonblocking baseline of the paper's Table I.
//! * [`Crossbar`] — a single ideal crossbar switch (the performance target a
//!   nonblocking network must match).
//! * [`RecursiveNonblocking`] — the paper's Discussion-section three-level
//!   construction where every top-level switch of a nonblocking
//!   `ftree(n+n², n³+n²)` is realized by a nonblocking `ftree(n+n², n²+n)`.
//!
//! All topologies share the flat [`Topology`] representation: nodes are
//! leaves or switches, and every cable is modeled as **two directed
//! channels**, because the paper's Lemma 1 audits traffic per *direction*
//! (uplinks vs downlinks).
//!
//! ```
//! use ftclos_topo::Ftree;
//!
//! // ftree(2 + 4, 5): r = 5 bottom switches with n = 2 leaves each,
//! // m = 4 = n^2 top switches — the smallest nonblocking configuration
//! // with r >= 2n + 1.
//! let ft = Ftree::new(2, 4, 5).unwrap();
//! assert_eq!(ft.num_leaves(), 10);
//! assert_eq!(ft.topology().num_nodes(), 10 + 5 + 4);
//! ```

pub mod builder;
pub mod capacity;
pub mod channel;
pub mod clos;
pub(crate) mod compact;
pub mod crossbar;
pub mod dot;
pub mod error;
pub mod fault;
pub mod ftree;
pub mod ids;
pub mod kind;
mod ports;
pub mod props;
pub mod recursive;
pub mod topology;
pub mod xgft;

pub use builder::TopologyBuilder;
pub use capacity::ChannelCapacities;
pub use channel::Channel;
pub use clos::Clos;
pub use crossbar::{crossbar, Crossbar};
pub use error::TopoError;
pub use fault::{FaultError, FaultSet, FaultyView, Transition};
pub use ftree::Ftree;
pub use ids::{ChannelId, NodeId};
pub use kind::NodeKind;
pub use ports::Ports;
pub use props::{diameter, StructureReport};
pub use recursive::RecursiveNonblocking;
pub use topology::Topology;
pub use xgft::{kary_ntree, mport_ntree, Xgft};
