//! Scaling one index across shard-local streaming engines.
//!
//! The same `plsh::Index` API, two builds: a single streaming node, and a
//! sharded build where inserts route round-robin into per-shard engines (each
//! with its own ingest queue and background merge) and queries fan out
//! over all shards and merge globally. The answers are bit-identical —
//! the demo checks that live — while ingest, merges, and queries overlap
//! across every shard at once.
//!
//! ```text
//! cargo run --release --example sharded_scaling
//! ```

use std::time::Instant;

use plsh::workload::{CorpusConfig, QuerySet, SyntheticCorpus};
use plsh::{Index, PlshParams, SearchRequest};

fn main() -> plsh::Result<()> {
    const N: usize = 12_000;
    const SHARDS: usize = 4;

    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: N,
        vocab_size: 20_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 41,
    });
    let queries = QuerySet::sample_from_corpus(&corpus, 64, 3);
    let req = SearchRequest::batch(queries.queries().to_vec());
    let knn = SearchRequest::batch(queries.queries().to_vec()).top_k(5);
    let params = PlshParams::builder(corpus.dim())
        .k(10)
        .m(12)
        .radius(0.9)
        .seed(17)
        .build()?;

    // One streaming node, as before.
    let single = Index::builder(params.clone()).capacity(N).build()?;
    single.add_batch(corpus.vectors())?;
    single.flush()?;

    // The same API across four shard-local engines. `capacity` is per
    // shard (the paper's per-node C); `.auto_shards()` would let the
    // Section-7 performance model pick the count for this machine
    // instead.
    let sharded = Index::builder(params)
        .capacity(N)
        .shards(SHARDS)
        .eta(0.05)
        .build()?;
    println!(
        "sharded index: {} shards, point id g routed to shard g % S",
        sharded.num_shards()
    );

    // Stream the corpus in chunks: each chunk scatters across all shards,
    // every shard applies its slice and merges independently in the
    // background, and queries keep running against per-shard epochs.
    let t0 = Instant::now();
    let mut merges_seen = 0;
    for (i, chunk) in corpus.vectors().chunks(1_000).enumerate() {
        sharded.add_batch(chunk)?;
        let resp = sharded.search(&req)?;
        let stats = sharded.stats();
        merges_seen = merges_seen.max(stats.merges);
        if i % 3 == 0 {
            println!(
                "t={:>7.1?}  routed {:>6}  visible {:>6}  merges {:>2}  query batch -> {} hits",
                t0.elapsed(),
                sharded.len(),
                stats.static_points + stats.delta_points - stats.purged_points,
                stats.merges,
                resp.total_hits(),
            );
        }
    }
    sharded.flush()?; // barrier: in-flight background merges have published
    println!(
        "ingested {} points across {} shards in {:.2?} ({} background merges so far)",
        sharded.len(),
        sharded.num_shards(),
        t0.elapsed(),
        sharded.stats().merges,
    );

    // Same answers, bit for bit — radius answer *sets* (discovery order
    // differs by segmentation, so they canonicalize sorted) and k-NN
    // rankings (rank order must match too, so no sorting there) — even
    // though the sharded build may still have merges in flight.
    let ranked = |resp: &plsh::SearchResponse| -> Vec<Vec<(u32, u32)>> {
        resp.results
            .iter()
            .map(|hits| {
                hits.iter()
                    .map(|h| (h.index, h.distance.to_bits()))
                    .collect()
            })
            .collect()
    };
    let sets = |resp: &plsh::SearchResponse| -> Vec<Vec<(u32, u32)>> {
        let mut canon = ranked(resp);
        for set in &mut canon {
            set.sort_unstable();
        }
        canon
    };
    assert_eq!(
        sets(&single.search(&req)?),
        sets(&sharded.search(&req)?),
        "radius answer sets must match the single node"
    );
    assert_eq!(
        ranked(&single.search(&knn)?),
        ranked(&sharded.search(&knn)?),
        "k-NN rankings must match the single node, order included"
    );
    println!("radius + k-NN answers bit-identical to the single node");

    // The shard attribution rides along on every hit; pick point 42's own
    // hit (radius answers also surface its near-duplicates).
    let probe = corpus.vector(42).clone();
    let hits = sharded.search(&SearchRequest::query(probe))?;
    let own = hits
        .hits()
        .iter()
        .find(|h| h.index == 42)
        .expect("probe finds itself");
    println!(
        "point 42 lives on shard {} (global id {}, distance {:.4})",
        own.node, own.index, own.distance
    );
    Ok(())
}
