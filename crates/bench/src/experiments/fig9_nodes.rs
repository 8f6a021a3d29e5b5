//! Figure 9: multi-node scaling with fixed data per node.
//!
//! Paper: 1 → 100 nodes at 10.5 M tweets/node; flat max/avg/min lines mean
//! perfect scaling; load imbalance (max/avg) stays below 1.3 and query
//! broadcast costs < 1% of runtime. The simulation keeps data per node
//! fixed and grows the shard count of a [`ShardedIndex`], timing each
//! shard's merge and query batch directly on its own engine.

use std::time::{Duration, Instant};

use plsh_cluster::ShardedIndex;
use plsh_core::engine::EngineConfig;
use plsh_core::search::SearchRequest;
use plsh_workload::{CorpusConfig, SyntheticCorpus};

use crate::setup::{ms, Fixture, Scale};

/// One node-count measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node initialization time (max / avg / min).
    pub init: (Duration, Duration, Duration),
    /// Per-node query compute time (max / avg / min).
    pub query: (Duration, Duration, Duration),
    /// Query load imbalance max/avg.
    pub imbalance: f64,
    /// Coordinator overhead fraction.
    pub coordination: f64,
}

/// The sweep results.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Points in node-count order.
    pub points: Vec<Point>,
    /// Documents per node.
    pub docs_per_node: usize,
}

/// `(max, avg, min)` of per-node times.
fn spread(times: &[Duration]) -> (Duration, Duration, Duration) {
    let max = times.iter().copied().max().unwrap_or_default();
    let min = times.iter().copied().min().unwrap_or_default();
    let avg = times.iter().sum::<Duration>() / times.len().max(1) as u32;
    (max, avg, min)
}

/// Sweeps node counts with fixed per-node data.
pub fn run(f: &Fixture) -> Fig9 {
    let (node_counts, docs_per_node): (&[usize], usize) = match f.scale {
        Scale::Quick => (&[1, 2, 4], 5_000),
        Scale::Full => (&[1, 2, 4, 8], 12_500),
    };
    let capacity = docs_per_node;
    let points = node_counts
        .iter()
        .map(|&nodes| {
            // Fresh corpus sized for this node count, same distribution.
            let corpus = SyntheticCorpus::generate(CorpusConfig {
                num_docs: docs_per_node * nodes,
                vocab_size: f.corpus.dim(),
                mean_words: 7.2,
                zipf_exponent: 1.0,
                duplicate_fraction: 0.2,
                seed: 0xC0FFEE ^ nodes as u64,
            });
            let index =
                ShardedIndex::builder(EngineConfig::new(f.params.clone(), capacity).manual_merge())
                    .shards(nodes)
                    .threads(f.pool.num_threads())
                    .build()
                    .expect("valid sharded config");
            index
                .insert_batch(corpus.vectors())
                .expect("routing fills every shard exactly to capacity");
            index.flush().expect("sealing every shard");
            let shards = || (0..nodes).map(|i| index.shard(i));
            let init_times: Vec<Duration> = shards()
                .map(|shard| {
                    let t0 = Instant::now();
                    shard.merge_now();
                    t0.elapsed()
                })
                .collect();

            let queries = f.query_vecs();
            let _ = index.search(&SearchRequest::batch(
                queries[..queries.len().min(16)].to_vec(),
            ));
            let query_times: Vec<Duration> = shards()
                .map(|shard| {
                    let t0 = Instant::now();
                    let _ = shard.query_batch(queries);
                    t0.elapsed()
                })
                .collect();
            // Coordinator overhead: fanned-out end-to-end time not
            // accounted for by shard compute. Shard tasks share the
            // fan-out pool, so the compute baseline is total shard time
            // over the lanes actually available, floored at the slowest
            // shard (what a shard-per-machine deployment would wait for).
            let t0 = Instant::now();
            index
                .search(&SearchRequest::batch(queries.to_vec()))
                .expect("valid batch");
            let elapsed = t0.elapsed().as_secs_f64();
            let query = spread(&query_times);
            let lanes = index.pool().num_threads().clamp(1, nodes) as f64;
            let total: f64 = query_times.iter().map(Duration::as_secs_f64).sum();
            let busy = (total / lanes).max(query.0.as_secs_f64());
            Point {
                nodes,
                init: spread(&init_times),
                query,
                imbalance: query.0.as_secs_f64() / query.1.as_secs_f64(),
                coordination: ((elapsed - busy) / elapsed).max(0.0),
            }
        })
        .collect();
    Fig9 {
        points,
        docs_per_node,
    }
}

impl Fig9 {
    /// Prints the sweep.
    pub fn print(&self) {
        println!(
            "## Figure 9 — multi-node scaling ({} docs per node; flat lines = perfect scaling)\n",
            self.docs_per_node
        );
        println!("| Nodes | Init max | Init avg | Init min | Query max | Query avg | Query min | Imbalance | Coord. overhead |");
        println!("|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        for p in &self.points {
            println!(
                "| {} | {:.2} ms | {:.2} ms | {:.2} ms | {:.1} ms | {:.1} ms | {:.1} ms | {:.2} | {:.1}% |",
                p.nodes,
                ms(p.init.0),
                ms(p.init.1),
                ms(p.init.2),
                ms(p.query.0),
                ms(p.query.1),
                ms(p.query.2),
                p.imbalance,
                p.coordination * 100.0
            );
        }
        let worst = self
            .points
            .iter()
            .map(|p| p.imbalance)
            .fold(f64::NAN, f64::max);
        println!(
            "\nWorst query load imbalance: {:.2} (paper: < 1.3, ideal 1.0). Note: nodes share one physical core here, so per-node times are compute times, not wall-clock parallel times.\n",
            worst
        );
    }
}
