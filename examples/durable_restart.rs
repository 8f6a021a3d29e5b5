//! Durable restart: journal the streaming lifecycle to a directory,
//! crash, and recover in place.
//!
//! Snapshots (`save_restore` example) rewrite the whole index on every
//! save; `persist_to` instead keeps the directory in sync incrementally —
//! a WAL record per insert batch (a sealed generation's closed WAL is its
//! durable form) and a manifest swap per merge, which folds those WALs
//! into the static without rewriting it — so a firehose node can be
//! durable without ever pausing to serialize its corpus.
//!
//! ```text
//! cargo run --release --example durable_restart
//! ```

use plsh::workload::{CorpusConfig, SyntheticCorpus};
use plsh::{Index, PlshParams};

fn main() -> plsh::Result<()> {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 8_000,
        vocab_size: 10_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 77,
    });
    let params = PlshParams::builder(corpus.dim())
        .k(10)
        .m(10)
        .radius(0.9)
        .seed(5)
        .build()?;

    let dir = std::env::temp_dir().join(format!("plsh-durable-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A journaled index mid-life: a merged static prefix, sealed
    // generations (each in its own WAL), and a tombstone.
    let index = Index::builder(params.clone())
        .capacity(corpus.len())
        .manual_merge()
        .build()?;
    index.persist_to(&dir)?;
    index.add_batch(&corpus.vectors()[..4_000])?;
    index.merge()?;
    for chunk in corpus.vectors()[4_000..6_000].chunks(500) {
        index.add_batch(chunk)?;
    }
    index.delete(123)?;
    println!(
        "journaled index: {} points, directory {}",
        index.len(),
        dir.display()
    );

    // Crash: the process "dies" with the tail of the stream never merged
    // into the static — only the generations' WALs have it.
    drop(index);

    // Restart: recovery replays manifest -> the static's files (the WALs
    // the merge folded) -> the chain of later generation WALs ->
    // tombstone log, and re-attaches the journal so the recovered index
    // keeps persisting.
    let recovered = Index::recover_from(&dir)?;
    assert_eq!(recovered.len(), 6_000);
    let hits = recovered.query(corpus.vector(57))?;
    assert!(hits.iter().any(|h| h.index == 57), "recovered point found");
    assert!(
        recovered
            .query(corpus.vector(123))?
            .iter()
            .all(|h| h.index != 123),
        "tombstone survived the crash"
    );
    println!(
        "recovered {} points; tombstone for 123 intact",
        recovered.len()
    );

    // The journal is live again: stream more, crash again, recover again.
    recovered.add_batch(&corpus.vectors()[6_000..])?;
    drop(recovered);
    let again = Index::recover_from(&dir)?;
    assert_eq!(again.len(), corpus.len());
    println!("second restart recovered all {} points", again.len());

    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
