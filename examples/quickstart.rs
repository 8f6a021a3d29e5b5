//! Quickstart: index a handful of documents through the one-stop
//! [`plsh::Index`] client and run free-text similarity queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use plsh::text::{CorpusBuilder, Tokenizer};
use plsh::{Index, PlshParams, SearchRequest};

fn main() -> plsh::Result<()> {
    let docs = [
        "breaking storm hits the coast tonight with heavy rain",
        "storm hits coast tonight heavy rain expected",
        "new phone launch amazes critics with battery life",
        "critics amazed by new phone battery life at launch",
        "local team wins championship after dramatic overtime",
        "recipe for the perfect sourdough bread at home",
        "sourdough bread recipe perfect for beginners at home",
        "stock markets rally as inflation numbers surprise",
    ];

    // 1. Two-pass text pipeline: scan builds vocabulary + IDF, then freeze.
    let mut builder = CorpusBuilder::new(Tokenizer::default());
    for d in &docs {
        builder.add_document(d);
    }
    let vectorizer = builder.finish();
    println!(
        "vocabulary: {} terms over {} documents",
        vectorizer.dim(),
        docs.len()
    );

    // 2. Configure PLSH and open the index. The client owns its thread
    //    pool and wires the text pipeline in — no manual plumbing. Tiny
    //    corpora want small k (few hash bits); real deployments use the
    //    parameter-selection module (see the param_tuning example).
    // Radius 1.1 rather than the paper's tweet-vs-tweet 0.9: short free-text
    // queries against longer documents sit at larger angles even when they
    // share every query term.
    let params = PlshParams::builder(vectorizer.dim())
        .k(6)
        .m(8)
        .radius(1.1)
        .delta(0.1)
        .seed(42)
        .build()?;
    let index = Index::builder(params)
        .capacity(1024)
        .vectorizer(vectorizer)
        .build()?;

    // 3. Index every document (inserts land in the scanned delta and are
    //    query-visible immediately; merging into the read-optimized
    //    static tables happens behind the scenes).
    for d in &docs {
        index.add_text(d)?;
    }
    index.merge()?;
    let stats = index.stats();
    println!(
        "indexed {} documents ({} static, {} delta)\n",
        index.len(),
        stats.static_points,
        stats.delta_points
    );

    // 4. Query with free text.
    for query in [
        "storm and heavy rain on the coast",
        "sourdough bread recipe",
        "phone with a great battery",
    ] {
        let mut hits = index.search_text(query)?.into_hits();
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        println!("query: {query:?}");
        if hits.is_empty() {
            println!("  (no documents within the radius)");
        }
        for h in hits {
            println!("  {:.3}  {:?}", h.distance, docs[h.index as usize]);
        }
        println!();
    }

    // 5. The same door answers k-NN — a request field, not a new method.
    let resp = index
        .search(&SearchRequest::query(index.vectorize("inflation rally markets")?).top_k(1))?;
    println!(
        "closest single doc to 'inflation rally markets': {:?}",
        docs[resp.hits()[0].index as usize]
    );
    Ok(())
}
