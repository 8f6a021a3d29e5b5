//! Querying *while* the firehose streams in (Figure 1 end-to-end).
//!
//! Part 1 — the concurrent single-node path: a paced ingest thread pushes
//! tweet batches into a [`plsh::Index`] (hash → seal → background merge at
//! `η·C`), and the main thread keeps answering the same [`SearchRequest`]
//! the whole time. Every answer comes from one pinned epoch — the index
//! never shows a half-merged state — and merge publication is a single
//! pointer swap.
//!
//! Part 2 — the cluster path: the same stream, paced to a Twitter-style
//! arrival rate, drives a [`ShardedIndex`] whose [`WindowSpec`] keeps
//! only the newest documents — the
//! paper's rolling-window expiration: one global watermark trails the
//! stream head and every shard retires its side of the same cut. The
//! sharded index answers the *same* `SearchRequest` type as the single
//! node.
//!
//! ```text
//! cargo run --release --example streaming_firehose
//! ```

use std::time::{Duration, Instant};

use plsh::core::EngineConfig;
use plsh::workload::{CorpusConfig, QuerySet, SyntheticCorpus};
use plsh::{Index, PlshParams, SearchRequest, ShardedIndex, WindowSpec};

fn main() -> plsh::Result<()> {
    const SHARDS: usize = 4;
    const SHARD_CAPACITY: usize = 4_000;
    const WINDOW_DOCS: u32 = 10_000;
    const BATCH: usize = 1_000;

    // 3x the window, so retirement must kick in.
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: WINDOW_DOCS as usize * 3,
        vocab_size: 20_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 99,
    });
    let queries = QuerySet::sample_from_corpus(&corpus, 50, 7);
    let query_req = SearchRequest::batch(queries.queries().to_vec()).with_stats();
    let params = PlshParams::builder(corpus.dim())
        .k(10)
        .m(12)
        .radius(0.9)
        .seed(11)
        .build()?;

    // ---- Part 1: one node, true insert ‖ query ‖ merge overlap. ----
    println!("== single node: concurrent ingest + queries ==");
    let node_points = corpus.len() / 2;
    let index = Index::builder(params.clone())
        .capacity(node_points)
        .eta(0.1)
        .build()?;

    // Twitter-style paced arrival on a dedicated ingest thread: each
    // batch is released once its arrival time has passed.
    let rate = node_points as f64 / 3.0; // drain in ~3 s
    let start = Instant::now();
    let (batches, insert_time) = std::thread::scope(|s| -> plsh::Result<_> {
        let ingest = s.spawn(|| -> plsh::Result<Duration> {
            let mut insert_time = Duration::ZERO;
            for (i, batch) in corpus.vectors()[..node_points].chunks(BATCH).enumerate() {
                let due = Duration::from_secs_f64((i * BATCH) as f64 / rate);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let t0 = Instant::now();
                index.add_batch(batch)?;
                insert_time += t0.elapsed();
            }
            Ok(insert_time)
        });

        // Main thread: query continuously against whatever epoch is live.
        let mut batches = 0u64;
        while !ingest.is_finished() {
            let resp = index.search(&query_req)?;
            batches += 1;
            if batches % 32 == 1 {
                let info = resp.epoch.expect("single-node responses pin an epoch");
                assert_eq!(
                    info.visible_points,
                    info.static_points + info.sealed_points,
                    "epochs are never half-merged"
                );
                println!(
                    "t={:>6.2?}  visible {:>6} (static {:>6} + {} sealed gens)  epoch #{:<4}  \
                     query batch {:>7.1?}  {} matches",
                    start.elapsed(),
                    info.visible_points,
                    info.static_points,
                    info.sealed_generations,
                    info.generation,
                    resp.stats.expect("stats requested").elapsed,
                    resp.total_hits(),
                );
            }
        }
        let insert_time = ingest.join().expect("ingest thread panicked")?;
        Ok((batches, insert_time))
    })?;
    index.flush()?;
    let merge = index.last_merge();
    println!(
        "ingested {} points at {:.0}/s on the ingest thread; {} merges \
         (last: build {:.1} ms off to the side, publish {:.3} ms); {} query batches ran alongside",
        index.len(),
        index.len() as f64 / insert_time.as_secs_f64(),
        index.stats().merges,
        merge.build.as_secs_f64() * 1e3,
        merge.publish.as_secs_f64() * 1e3,
        batches,
    );
    let probe = corpus.vector((node_points - 1) as u32);
    assert!(
        index
            .query(probe)?
            .iter()
            .any(|h| h.index == (node_points - 1) as u32),
        "newest tweet must be findable"
    );

    // ---- Part 2: shards with paced ingest + a sliding window. ----
    println!("\n== sharded index: paced ingest + window retirement ==");
    let total_rate = corpus.len() as f64 / 3.0; // drain in ~3 s
    let sharded = ShardedIndex::builder(
        EngineConfig::new(params, SHARD_CAPACITY)
            .with_eta(0.1)
            .with_window(WindowSpec::Docs(WINDOW_DOCS)),
    )
    .shards(SHARDS)
    .build()
    .map_err(plsh::Error::from)?;

    let start = Instant::now();
    for (i, batch) in corpus.vectors().chunks(BATCH).enumerate() {
        // Same paced arrival as Part 1: release each batch at its time.
        let due = Duration::from_secs_f64((i * BATCH) as f64 / total_rate);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        sharded.insert_batch(batch).map_err(plsh::Error::from)?;
        // Interleave a query burst every few batches, as a live system
        // would see. The sharded index answers the exact same request
        // type as the single node.
        if i % 5 == 4 {
            let resp = sharded.search(&query_req)?;
            println!(
                "t={:>6.2?}  routed {:>6}  visible {:>6}  retired below id {:>6}  \
                 query batch {:>6.1?}  {} matches",
                start.elapsed(),
                sharded.len(),
                sharded.visible_len(),
                sharded.retired_below(),
                resp.stats.expect("stats requested").elapsed,
                resp.total_hits(),
            );
        }
    }
    sharded.flush().map_err(plsh::Error::from)?;

    let cut = sharded.retired_below();
    let stats = sharded.stats();
    println!("\nfinal state after {} tweets:", sharded.len());
    println!(
        "  window retired ids below {cut}; {} live across {SHARDS} shards \
         (routing imbalance {:.3}); {} merges",
        sharded.len() - cut as usize,
        stats.routing_imbalance(),
        stats.merges,
    );
    assert_eq!(
        cut,
        corpus.len() as u32 - WINDOW_DOCS,
        "the watermark must trail the stream head by exactly the window"
    );
    // The newest tweet must be findable; everything below the cut is gone.
    let last = (corpus.len() - 1) as u32;
    let newest = sharded.search(&SearchRequest::query(corpus.vector(last).clone()))?;
    assert!(
        newest.hits().iter().any(|h| h.index == last),
        "newest tweet must be indexed"
    );
    assert!(sharded.vector(0).is_none(), "oldest tweet must be retired");
    let oldest = sharded.search(&SearchRequest::query(corpus.vector(0).clone()))?;
    assert!(
        oldest.hits().iter().all(|h| h.index >= cut),
        "retired tweets must not surface"
    );
    println!("  newest tweet found on shard {}", sharded.route(last));
    Ok(())
}
