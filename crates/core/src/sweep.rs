//! The one all-pairs sweep: route every ordered SD pair of a fabric and fold
//! the paths into per-thread accumulators.
//!
//! Every whole-fabric decision in this crate — the Lemma 1 census, the
//! channel dependency graph — is a fold over the `p(p-1)` paths of a
//! single-path router. [`fold_sources`] is the threading half: sources are
//! cut into contiguous blocks, one per thread, each block folds into its own
//! accumulator, and the accumulators are merged on the caller **in block
//! order**. With an associative `merge` the result is the same at every
//! thread count. [`fold_paths`] is the routing half: one `route_into` buffer
//! per block, so a sweep allocates nothing per pair, and the first routing
//! error in row order is reported whatever the thread count.
//!
//! Blocks are contiguous rather than interleaved because a source's paths
//! touch its own switch's uplinks: neighbouring sources on different cores
//! would pass those cache lines back and forth.

use ftclos_obs::Recorder;
use ftclos_routing::{RoutingError, SinglePathRouter};
use ftclos_topo::ChannelId;
use ftclos_traffic::SdPair;
use rayon::prelude::*;

/// Fewest SD pairs a thread of a sweep routes: some 30k pairs, about a
/// millisecond, before a thread is worth starting. Smaller fabrics sweep on
/// the calling thread.
pub const MIN_PAIRS_PER_THREAD: usize = 1 << 15;

/// Fold every source `0..ports` into one accumulator, on at most
/// `max_threads` threads (`rayon::current_num_threads()` for every core).
///
/// Sources are split into `threads = (ports / min_sources).clamp(1,
/// max_threads.min(rayon::current_num_threads()))` contiguous blocks, where
/// a block holds at least [`MIN_PAIRS_PER_THREAD`]` / ports` sources. Each block starts from
/// `init()` and calls `fold(&mut acc, s)` for its sources in ascending
/// order; the block accumulators are then combined left to right with
/// `merge`. Records the `par.threads` gauge (blocks the sweep ran as).
pub fn fold_sources<A, I, F, M, Rec>(
    ports: u32,
    max_threads: usize,
    init: I,
    fold: F,
    merge: M,
    rec: &Rec,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, u32) + Sync,
    M: FnMut(A, A) -> A,
    Rec: Recorder,
{
    let min_sources = (MIN_PAIRS_PER_THREAD / ports.max(1) as usize).max(1);
    let cap = max_threads.min(rayon::current_num_threads()).max(1);
    let threads = (ports as usize / min_sources).clamp(1, cap);
    rec.gauge("par.threads", threads as u64);
    let start = |b: usize| (ports as usize * b / threads) as u32;
    let blocks: Vec<A> = (0..threads)
        .into_par_iter()
        .map(|b| {
            let mut acc = init();
            for s in start(b)..start(b + 1) {
                fold(&mut acc, s);
            }
            acc
        })
        .collect();
    blocks
        .into_iter()
        .reduce(merge)
        .expect("a sweep has at least one block")
}

/// One block of [`fold_paths`]: the caller's accumulator, the block's route
/// buffer, and the block's first routing error.
struct PathBlock<A> {
    acc: A,
    path: Vec<ChannelId>,
    error: Option<RoutingError>,
}

/// Route every ordered pair of distinct ports of `router` and fold each path:
/// `fold(&mut acc, pair, path)`, rows `(s, d)` ascending within a block.
/// Blocks, the `max_threads` cap, merge order and the `par.threads` gauge
/// are those of [`fold_sources`].
///
/// # Errors
/// The first [`SinglePathRouter::try_route_into`] error in row order. A
/// block stops at its own first error, and the lowest failing block's error
/// wins the merge, so the error does not depend on the thread count.
pub fn fold_paths<R, A, I, F, M, Rec>(
    router: &R,
    max_threads: usize,
    init: I,
    fold: F,
    mut merge: M,
    rec: &Rec,
) -> Result<A, RoutingError>
where
    R: SinglePathRouter + Sync + ?Sized,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, SdPair, &[ChannelId]) + Sync,
    M: FnMut(A, A) -> A,
    Rec: Recorder,
{
    let ports = router.ports();
    let swept = fold_sources(
        ports,
        max_threads,
        || PathBlock {
            acc: init(),
            path: Vec::new(),
            error: None,
        },
        |block, s| {
            if block.error.is_some() {
                return;
            }
            for d in (0..ports).filter(|&d| d != s) {
                let pair = SdPair::new(s, d);
                if let Err(e) = router.try_route_into(pair, &mut block.path) {
                    block.error = Some(e);
                    return;
                }
                fold(&mut block.acc, pair, &block.path);
            }
        },
        |left, right| {
            if left.error.is_some() {
                left
            } else if right.error.is_some() {
                PathBlock {
                    error: right.error,
                    ..left
                }
            } else {
                PathBlock {
                    acc: merge(left.acc, right.acc),
                    ..left
                }
            }
        },
        rec,
    );
    match swept.error {
        Some(e) => Err(e),
        None => Ok(swept.acc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_obs::{Noop, Registry};
    use ftclos_routing::DModK;
    use ftclos_topo::Ftree;

    #[test]
    fn fold_sources_visits_every_source_once_in_order() {
        for ports in [0u32, 1, 7, 300, 5000] {
            for max_threads in [0, 1, 2, usize::MAX] {
                let reg = Registry::new();
                let seen = fold_sources(
                    ports,
                    max_threads,
                    Vec::new,
                    |acc: &mut Vec<u32>, s| acc.push(s),
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                    &reg,
                );
                assert_eq!(seen, (0..ports).collect::<Vec<_>>(), "ports={ports}");
                let threads = reg.snapshot().gauge("par.threads").unwrap() as usize;
                assert!(threads >= 1 && threads <= max_threads.max(1));
                assert!(threads <= rayon::current_num_threads());
            }
        }
    }

    #[test]
    fn fold_paths_routes_every_cross_pair() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let (pairs, hops) = fold_paths(
            &router,
            usize::MAX,
            || (0usize, 0usize),
            |acc, pair, path| {
                assert_ne!(pair.src, pair.dst);
                assert_eq!(path, router.route(pair).channels());
                acc.0 += 1;
                acc.1 += path.len();
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
            &Noop,
        )
        .unwrap();
        assert_eq!(pairs, 90);
        assert!(hops >= 2 * pairs);
    }

    #[test]
    fn fold_paths_reports_the_first_error_in_row_order() {
        /// Routes only pairs whose source is below 3.
        struct Partial;
        impl SinglePathRouter for Partial {
            fn ports(&self) -> u32 {
                8
            }
            fn route_into(&self, _: SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
            }
            fn try_route_into(
                &self,
                pair: SdPair,
                out: &mut Vec<ChannelId>,
            ) -> Result<(), RoutingError> {
                if pair.src >= 3 {
                    return Err(RoutingError::NoLivePath {
                        src: pair.src,
                        dst: pair.dst,
                    });
                }
                self.route_into(pair, out);
                Ok(())
            }
            fn name(&self) -> &'static str {
                "partial"
            }
        }
        let got = fold_paths(&Partial, usize::MAX, || (), |_, _, _| {}, |_, _| (), &Noop);
        assert_eq!(got, Err(RoutingError::NoLivePath { src: 3, dst: 0 }));
    }
}
