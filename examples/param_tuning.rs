//! Parameter selection with the Section 7 performance model.
//!
//! Given a data sample, a radius, a failure probability, and a memory
//! budget, PLSH enumerates `(k, m)` pairs, keeps those meeting the recall
//! constraint `P'(R, k, m) ≥ 1 − δ` and the memory bound (Eq. 7.4), prices
//! each with `T_Q2·E[#collisions] + T_Q3·E[#unique]`, and picks the
//! cheapest — exactly the paper's Section 7.3 procedure. The chosen pair
//! is then validated end-to-end through the [`plsh::Index`] client.
//!
//! ```text
//! cargo run --release --example param_tuning
//! ```

use plsh::core::model::{MachineProfile, PerformanceModel};
use plsh::core::params::{ParamSelection, SelectionInput};
use plsh::core::rng::SplitMix64;
use plsh::parallel::ThreadPool;
use plsh::workload::{CorpusConfig, GroundTruth, QuerySet, SyntheticCorpus};
use plsh::{Index, SearchRequest};

fn main() -> plsh::Result<()> {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 30_000,
        vocab_size: 20_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 5,
    });
    let pool = ThreadPool::default();

    // Distance sample (the paper uses 1000 queries x 1000 points).
    let mut rng = SplitMix64::new(1);
    let mut dists = Vec::new();
    for _ in 0..500 {
        let q = corpus.vector(rng.next_below(corpus.len() as u64) as u32);
        for _ in 0..50 {
            let v = corpus.vector(rng.next_below(corpus.len() as u64) as u32);
            dists.push(q.angular_distance(v));
        }
    }

    // Cost weights from the calibrated machine model.
    let model = PerformanceModel::new(MachineProfile::calibrate(&pool, 2.6e9));
    let radius = 0.9;
    let input = SelectionInput {
        dim: corpus.dim(),
        n: corpus.len(),
        memory_bytes: 256 << 20, // 256 MB budget for the static tables
        radius,
        delta: 0.1,
        sample_distances: &dists,
        cost: model.cost_weights(corpus.avg_nnz(), radius),
        k_max: 20,
        seed: 77,
    };
    let selection = ParamSelection::select(&input)?;

    println!("candidates (one per k; m is the smallest meeting P'(R) >= 1-delta):\n");
    println!("| k | m | L | P'(R) | E[#collisions] | E[#unique] | est. cost (cycles) | memory | feasible |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|---|");
    for c in &selection.candidates {
        println!(
            "| {} | {} | {} | {:.3} | {:.0} | {:.0} | {:.2e} | {:.0} MB | {} |",
            c.k,
            c.m,
            c.l,
            c.recall_at_radius,
            c.expected_collisions,
            c.expected_unique,
            c.estimated_cost_cycles,
            c.memory_bytes as f64 / (1 << 20) as f64,
            if c.feasible { "yes" } else { "no" }
        );
    }
    let chosen = &selection.chosen;
    println!(
        "\nchosen: k = {}, m = {} (L = {} tables), guaranteed recall at R: {:.1}%",
        chosen.k(),
        chosen.m(),
        chosen.l(),
        chosen.recall_at_radius() * 100.0
    );

    // Validate the choice end-to-end: open an index and measure recall.
    let index = Index::builder(chosen.clone())
        .capacity(corpus.len())
        .manual_merge()
        .build()?;
    index.add_batch(corpus.vectors())?;
    index.merge()?;

    let queries = QuerySet::sample_from_corpus(&corpus, 200, 3);
    let truth = GroundTruth::compute(corpus.vectors(), queries.queries(), 0.9, &pool);
    let resp = index.search(&SearchRequest::batch(queries.queries().to_vec()).with_stats())?;
    let reported: Vec<Vec<u32>> = resp
        .results
        .iter()
        .map(|hits| hits.iter().map(|h| h.index).collect())
        .collect();
    let stats = resp.stats.expect("stats requested");
    println!(
        "measured: recall {:.1}% over {} exact neighbors, {:.3} ms/query, {:.0} candidates/query",
        truth.recall_of(&reported) * 100.0,
        truth.total_neighbors(),
        stats.avg_latency().as_secs_f64() * 1e3,
        stats.avg_unique(),
    );
    assert!(
        truth.recall_of(&reported) >= 0.9,
        "selected parameters must deliver the recall target"
    );
    Ok(())
}
