//! Property-based tests of `ShardedIndex` routing, capacity and window
//! invariants, checked against a small model of the router that states
//! the routing arithmetic itself: global id `g` lives on shard `g % S` at
//! local id `g / S`.

use proptest::prelude::*;

use plsh_cluster::{ClusterError, ShardedIndex};
use plsh_core::engine::{EngineConfig, WindowSpec};
use plsh_core::params::PlshParams;
use plsh_core::rng::SplitMix64;
use plsh_core::search::SearchRequest;
use plsh_core::sparse::SparseVector;
use plsh_core::PlshError;

fn params() -> PlshParams {
    PlshParams::builder(32)
        .k(4)
        .m(4)
        .radius(0.9)
        .seed(2)
        .build()
        .unwrap()
}

fn vectors(n: usize, seed: u64) -> Vec<SparseVector> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let a = rng.next_below(32) as u32;
            let b = (a + 1 + rng.next_below(31) as u32) % 32;
            SparseVector::unit(vec![(a, 1.0), (b, 0.5)]).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn routing_capacity_and_window_invariants_hold(
        shards in 1usize..5,
        capacity in 5usize..40,
        window in prop_oneof![1 => Just(None), 2 => (1u32..60).prop_map(Some)],
        batch in 1usize..24,
        stream_len in 1usize..300,
        seed in 0u64..1000,
    ) {
        prop_assume!(window.is_none_or(|n| (n as usize) < shards * capacity));
        // Manual merges plus a quiesce per batch keep every shard's
        // resident span equal to its live rows, so acceptance depends on
        // the routed counts alone — never on background-merge timing.
        let mut node = EngineConfig::new(params(), capacity).manual_merge();
        if let Some(n) = window {
            node = node.with_window(WindowSpec::Docs(n));
        }
        let index = ShardedIndex::builder(node).shards(shards).threads(1).build().unwrap();
        let refused = ClusterError::Node(PlshError::CapacityExceeded { capacity });

        // The model: per-shard routed and retired counts, the next global
        // id, and the window cut.
        let mut used = vec![0usize; shards];
        let mut retired = vec![0usize; shards];
        let mut next = 0u32;
        let mut cut = 0u32;
        let vs = vectors(stream_len, seed);
        for chunk in vs.chunks(batch) {
            let mut add = vec![0usize; shards];
            for g in next..next + chunk.len() as u32 {
                add[g as usize % shards] += 1;
            }
            let fits = (0..shards).all(|s| used[s] - retired[s] + add[s] <= capacity);
            let ids = match index.insert_batch(chunk) {
                Ok(ids) => ids,
                Err(e) => {
                    // An over-capacity batch is refused whole.
                    prop_assert!(!fits, "a fitting batch was refused: {e}");
                    prop_assert_eq!(e, refused.clone());
                    prop_assert_eq!(index.len(), next as usize);
                    continue;
                }
            };
            prop_assert!(fits, "an over-capacity batch was accepted");
            index.quiesce().unwrap();

            // Ids are unique and increasing, in input order.
            let expect: Vec<u32> = (next..next + chunk.len() as u32).collect();
            prop_assert_eq!(&ids, &expect);
            next += chunk.len() as u32;
            if let Some(n) = window {
                let new_cut = next.saturating_sub(n);
                for g in cut..new_cut {
                    retired[g as usize % shards] += 1;
                }
                cut = new_cut;
            }
            prop_assert_eq!(index.retired_below(), cut, "global cut");

            // Each live id is stored on shard `id % S` at local id `id / S`,
            // which is that shard's next slot.
            for (&id, v) in ids.iter().zip(chunk) {
                let s = id as usize % shards;
                let local = id / shards as u32;
                prop_assert_eq!(index.route(id), s);
                prop_assert_eq!(local as usize, used[s], "id {} local slot", id);
                used[s] += 1;
                if id >= cut {
                    prop_assert_eq!(index.shard(s).engine().vector(local), Some(v.clone()));
                    prop_assert_eq!(index.vector(id), Some(v.clone()));
                } else {
                    prop_assert!(index.vector(id).is_none(), "retired id {id} resolved");
                }
            }
            for s in 0..shards {
                let engine = index.shard(s).engine();
                prop_assert_eq!(engine.len(), used[s], "shard {} len", s);
                prop_assert_eq!(engine.retired_below() as usize, retired[s], "shard {} watermark", s);
                // No shard holds more than its capacity.
                let resident = engine.len() - engine.epoch_info().static_base as usize;
                prop_assert!(resident <= capacity, "shard {s} resident {resident} > {capacity}");
            }
            // Routing is exactly even: no shard holds more than ⌈n/S⌉.
            let most = index.stats().points_per_shard.into_iter().max().unwrap();
            prop_assert!(most <= (next as usize).div_ceil(shards), "shard holds {most} of {next}");

            // The newest point always survives retirement and is findable.
            let newest = next - 1;
            let resp = index.search(&SearchRequest::query(chunk[chunk.len() - 1].clone())).unwrap();
            prop_assert!(resp.hits().iter().any(|h| h.index == newest), "newest {newest} lost");
            prop_assert!(resp.hits().iter().all(|h| h.index >= cut), "retired hit surfaced");
        }

        // Pigeonhole: one more point than the aggregate capacity cannot
        // fit, and the refusal leaves every shard untouched.
        let flood = vectors(shards * capacity + 1, seed ^ 0xF100D);
        prop_assert_eq!(index.insert_batch(&flood).unwrap_err(), refused);
        prop_assert_eq!(index.len(), next as usize);
        for (s, &count) in used.iter().enumerate() {
            prop_assert_eq!(index.shard(s).len(), count);
        }
    }
}

/// Acknowledged writes stay resolvable while merges lag. With manual
/// merges and no quiesce between batches, a windowed shard's resident span
/// shrinks only when a merge compacts it, so a batch that does not fit
/// makes the writer run that merge itself ([`Engine::admit`] helps)
/// instead of being refused. Every `Ok` id must resolve to its own vector,
/// a batch no merge can make room for must be refused whole and typed, and
/// `health()` must agree with what writes return.
///
/// [`Engine::admit`]: plsh_core::engine::Engine::admit
#[test]
fn acked_writes_resolve_while_merges_lag() {
    let capacity = 40;
    let node = EngineConfig::new(params(), capacity)
        .manual_merge()
        .with_window(WindowSpec::Docs(30));
    let index = ShardedIndex::builder(node)
        .shards(2)
        .threads(1)
        .build()
        .unwrap();
    let mut acked = Vec::new();
    for chunk in vectors(200, 7).chunks(10) {
        let ids = index
            .insert_batch(chunk)
            .expect("a windowed writer helps the merge instead of being refused");
        index.flush().unwrap();
        for (&id, v) in ids.iter().zip(chunk) {
            assert_eq!(index.vector(id).as_ref(), Some(v), "acked id {id} lost");
        }
        acked.extend_from_slice(chunk);
        assert!(!index.health().degraded, "a full shard is not degraded");
    }
    for s in 0..2 {
        assert!(
            index.shard(s).stats().merges > 0,
            "shard {s}: the writer ran the lagging merges"
        );
    }
    assert_eq!(index.len(), acked.len());
    let cut = index.retired_below();
    for g in cut..index.len() as u32 {
        assert_eq!(index.vector(g).as_ref(), Some(&acked[g as usize]), "id {g}");
    }
    // More than a shard's capacity: no merge makes room, so the batch is
    // refused whole and typed, and the index stays writable.
    let before: Vec<usize> = (0..2).map(|s| index.shard(s).len()).collect();
    let refused = ClusterError::Node(PlshError::CapacityExceeded { capacity });
    let flood = vectors(2 * capacity + 1, 9);
    assert_eq!(index.insert_batch(&flood).unwrap_err(), refused);
    for (s, &len) in before.iter().enumerate() {
        assert_eq!(index.shard(s).len(), len, "refused batch moved shard {s}");
    }
    assert!(!index.health().degraded, "a full shard is not degraded");
    // A merge compacts the retired prefix and frees the room again.
    index.quiesce().unwrap();
    let more = vectors(10, 8);
    let ids = index.insert_batch(&more).unwrap();
    assert_eq!(index.vector(ids[0]).as_ref(), Some(&more[0]));
}
