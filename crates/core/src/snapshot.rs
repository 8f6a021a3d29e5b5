//! Engine snapshots: save/restore a node's contents to a byte stream.
//!
//! Warm restarts for an in-memory node, beyond the paper. A snapshot stores
//! the *inputs* — parameters, resident rows, static/delta split, tombstones
//! — and tables are rebuilt from the stored seed, so the restored engine
//! answers every query identically (tested). It is a view of
//! [`crate::persist`], not a codec of its own. Format (version 4): magic
//! `PLSH` + version, then three blocks, each a `u64` length and the bytes
//! an engine directory holds — the checksummed manifest, a `STATIC`
//! segment (static prefix) and a `GEN` segment (delta suffix). A flipped
//! byte anywhere is refused; versions 1–3 (a field-by-field layout without
//! checksums) are refused as `unsupported snapshot version`. `base` is the
//! global id of the first row, so ids survive a window's compaction; the
//! delta restores as **one** sealed generation, since segmentation never
//! changes answers. [`Snapshot::restore`] is [`persist::rebuild_engine`],
//! the replay that recovers a directory.

use std::io::{self, Read, Write};
use std::sync::Arc;

use plsh_parallel::ThreadPool;

use crate::engine::Engine;
use crate::error::Result as PlshResult;
use crate::params::PlshParams;
use crate::persist::{self, bad, RecoveredState};
use crate::sparse::SparseVector;

const MAGIC: &[u8; 4] = b"PLSH";
const VERSION: u32 = 4;

/// Everything needed to reconstruct an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// LSH parameters (including the hyperplane seed).
    pub params: PlshParams,
    /// Node capacity `C`.
    pub capacity: u64,
    /// Merge threshold `η`.
    pub eta: f64,
    /// Points in the static structure (the rest live in the delta).
    pub static_len: u64,
    /// Global id of `vectors[0]` — the sliding window's compaction cut at
    /// capture time (0 for engines without a window).
    pub base: u64,
    /// Retirement watermark at capture time (`>= base`): ids below it are
    /// dead by range tombstone, pending physical purge.
    pub retired_below: u64,
    /// All *resident* rows, in insertion order (global ids
    /// `base..base + vectors.len()`).
    pub vectors: Vec<SparseVector>,
    /// Tombstoned point ids whose bits are still set (not yet purged).
    pub deleted: Vec<u32>,
    /// Tombstoned ids already purged from the static tables by a merge.
    pub purged: Vec<u32>,
}

impl Snapshot {
    /// Captures an engine's state — safe to call while other threads keep
    /// inserting and merging: it reads the same consistent baseline the
    /// persistence layer writes.
    pub fn capture(engine: &Engine) -> Self {
        engine.with_baseline(|b| {
            let gens = b.sealed.iter().map(Arc::as_ref).chain(b.open);
            let vectors = (0..b.static_len as u32)
                .map(|id| b.static_data.row_vector(id))
                .chain(gens.flat_map(|g| (0..g.len() as u32).map(|id| g.data().row_vector(id))))
                .collect();
            Self {
                params: b.params.clone(),
                capacity: b.capacity,
                eta: b.eta,
                static_len: b.static_len as u64,
                base: b.static_base as u64,
                retired_below: b.retired_below as u64,
                vectors,
                deleted: b.pending.clone(),
                purged: b.purged.to_vec(),
            }
        })
    }

    /// Restores an engine that answers identically to the captured one,
    /// merging manually, through the directory-recovery rebuild.
    pub fn restore(&self, pool: &ThreadPool) -> PlshResult<Engine> {
        persist::rebuild_engine(&RecoveredState::of_snapshot(self), None, pool)
    }

    /// Serializes the snapshot.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        persist::write_snapshot(self, w)
    }

    /// Deserializes a snapshot, validating every invariant it can.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut header = [0u8; 8];
        r.read_exact(&mut header)?;
        if &header[..4] != MAGIC {
            return Err(bad("not a PLSH snapshot (bad magic)"));
        }
        let version = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(bad(format!("unsupported snapshot version {version}")));
        }
        persist::read_snapshot(r)
    }
}

impl Engine {
    /// Writes a snapshot of this engine (see [`Snapshot`]).
    pub fn save_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        Snapshot::capture(self).write_to(w)
    }

    /// Restores an engine from a snapshot stream.
    pub fn load_from<R: Read>(r: &mut R, pool: &ThreadPool) -> io::Result<Engine> {
        Snapshot::read_from(r)?
            .restore(pool)
            .map_err(|e| bad(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::rng::SplitMix64;

    fn sample_engine(pool: &ThreadPool) -> Engine {
        let params = PlshParams::builder(64)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(77)
            .build()
            .unwrap();
        let e = Engine::new(
            EngineConfig::new(params, 500).manual_merge().with_eta(0.2),
            pool,
        )
        .unwrap();
        let mut rng = SplitMix64::new(5);
        let mut vs = Vec::new();
        for _ in 0..80 {
            let a = rng.next_below(64) as u32;
            let b = (a + 1 + rng.next_below(63) as u32) % 64;
            vs.push(SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap());
        }
        e.insert_batch(&vs[..50], pool).unwrap();
        e.merge_delta(pool);
        e.insert_batch(&vs[50..], pool).unwrap(); // stays in delta
        e.delete(7);
        e.delete(65);
        e
    }

    #[test]
    fn snapshot_round_trips_bytes() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let snap = Snapshot::capture(&engine);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let back = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn restored_engine_answers_identically() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let mut bytes = Vec::new();
        engine.save_to(&mut bytes).unwrap();
        let restored = Engine::load_from(&mut bytes.as_slice(), &pool).unwrap();

        assert_eq!(restored.len(), engine.len());
        assert_eq!(restored.static_len(), engine.static_len());
        assert_eq!(restored.delta_len(), engine.delta_len());
        assert_eq!(
            restored.stats().deleted_points,
            engine.stats().deleted_points
        );
        for id in 0..engine.len() as u32 {
            let q = engine.vector(id).expect("no id was purged");
            let mut a: Vec<u32> = engine.query(&q).iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = restored.query(&q).iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "answers diverged for point {id}");
        }
    }

    #[test]
    fn purged_tombstones_round_trip() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        // Merge everything: both tombstones (7 static, 65 delta) get
        // purged; then tombstone one more point whose delete stays pending.
        engine.merge_delta(&pool);
        engine.delete(20);
        assert_eq!(engine.stats().purged_points, 2);

        let snap = Snapshot::capture(&engine);
        assert_eq!(snap.purged, vec![7, 65]);
        assert_eq!(snap.deleted, vec![20]);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let restored = Snapshot::read_from(&mut bytes.as_slice())
            .unwrap()
            .restore(&pool)
            .unwrap();
        assert_eq!(restored.stats().purged_points, engine.stats().purged_points);
        assert_eq!(
            restored.stats().deleted_points,
            engine.stats().deleted_points
        );
        for id in [7u32, 65, 20] {
            assert!(restored.is_deleted(id));
            // Purged ids no longer hand out their (retired) rows; the
            // snapshot still carries them, so probe with those.
            if snap.purged.contains(&id) {
                assert_eq!(engine.vector(id), None);
            }
            let q = snap.vectors[id as usize].clone();
            assert!(restored.query(&q).iter().all(|h| h.index != id));
        }
    }

    #[test]
    fn empty_engine_round_trips() {
        let pool = ThreadPool::new(1);
        let params = PlshParams::builder(16)
            .k(4)
            .m(4)
            .radius(0.9)
            .seed(1)
            .build()
            .unwrap();
        let engine = Engine::new(EngineConfig::new(params, 10), &pool).unwrap();
        let mut bytes = Vec::new();
        engine.save_to(&mut bytes).unwrap();
        let restored = Engine::load_from(&mut bytes.as_slice(), &pool).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let mut bytes = Vec::new();
        engine.save_to(&mut bytes).unwrap();

        // Bad magic.
        let mut junk = bytes.clone();
        junk[0] = b'X';
        assert!(Snapshot::read_from(&mut junk.as_slice()).is_err());

        // Bad version.
        let mut junk = bytes.clone();
        junk[4] = 99;
        assert!(Snapshot::read_from(&mut junk.as_slice()).is_err());

        // The field-by-field v3 layout is refused by name.
        let mut junk = bytes.clone();
        junk[4] = 3;
        let err = Snapshot::read_from(&mut junk.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported snapshot version 3"),
            "{err}"
        );

        // Truncation at every prefix must error, never panic.
        for cut in [5usize, 20, 60, bytes.len() - 3] {
            let mut slice = &bytes[..cut];
            assert!(Snapshot::read_from(&mut slice).is_err(), "cut at {cut}");
        }

        // One flipped byte at any offset — header, block lengths, the
        // manifest, row indices, row values — is refused, never restored
        // as a different index.
        for at in 0..bytes.len() {
            let mut junk = bytes.clone();
            junk[at] ^= 0x20;
            assert!(
                Snapshot::read_from(&mut junk.as_slice()).is_err(),
                "flip at {at}"
            );
        }
    }

    /// Splits a snapshot stream into its header and blocks.
    fn blocks(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut at = 8;
        let mut out = Vec::new();
        while at < bytes.len() {
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            out.push(bytes[at + 8..at + 8 + len].to_vec());
            at += 8 + len;
        }
        out
    }

    /// Reassembles a stream with every block's checksum re-sealed: FNV is
    /// no MAC, so a forged field gets past it and only the decoder's own
    /// bounds stand between it and the allocator.
    fn resealed(bytes: &[u8], blocks: &[Vec<u8>]) -> Vec<u8> {
        let mut out = bytes[..8].to_vec();
        for block in blocks {
            let mut block = block.clone();
            let body = block.len() - 4;
            let crc = persist::checksum(&block[..body]);
            block[body..].copy_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(&(block.len() as u64).to_le_bytes());
            out.extend_from_slice(&block);
        }
        out
    }

    #[test]
    fn hostile_counts_are_refused() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let pending = Snapshot::capture(&engine).deleted.len();
        let mut bytes = Vec::new();
        engine.save_to(&mut bytes).unwrap();
        assert_eq!(resealed(&bytes, &blocks(&bytes)), bytes);

        // (block, offset, forged count): the delta segment's row count
        // (after magic, version, base), its first row's nnz, and the
        // manifest's pending-tombstone count (just before the ids + crc).
        let manifest_len = blocks(&bytes)[0].len();
        let tombstones_at = manifest_len - 4 - 4 * pending - 8;
        for (block, at, forged) in [
            (2usize, 16usize, 1u64 << 40),
            (2, 24, 1 << 30),
            (0, tombstones_at, 1 << 40),
        ] {
            let mut parts = blocks(&bytes);
            let width = if at == 24 { 4 } else { 8 };
            parts[block][at..at + width].copy_from_slice(&forged.to_le_bytes()[..width]);
            let hostile = resealed(&bytes, &parts);
            assert!(
                Snapshot::read_from(&mut hostile.as_slice()).is_err(),
                "block {block} offset {at}: count {forged} accepted"
            );
        }
    }

    #[test]
    fn tombstone_out_of_range_is_rejected() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let mut snap = Snapshot::capture(&engine);
        snap.deleted.push(10_000);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        assert!(Snapshot::read_from(&mut bytes.as_slice()).is_err());
    }
}
