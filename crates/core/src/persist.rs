//! Incremental durability: one WAL file per generation.
//!
//! A streaming node that ingests a firehose cannot afford to rewrite its
//! entire corpus on every batch. This module makes the *in-memory*
//! lifecycle durable piece by piece, mirroring the on-disk format on the
//! engine's own segmented structure:
//!
//! * **A WAL per generation.** Every `insert_batch` appends one
//!   checksummed record to `wal-<base>.log` *before* the rows are applied
//!   in memory, and fsyncs on the batch boundary. A torn tail (power cut
//!   mid-record) is detected by the length/checksum framing and dropped at
//!   recovery — only the un-synced tail op can be lost.
//! * **The sealed generation's WAL is its segment.** Sealing writes
//!   nothing: it closes the generation's WAL, so the next batch opens
//!   `wal-<next base>.log`. The closed log already holds every row of the
//!   generation, fsynced, and is never appended to again, so each row
//!   reaches the disk exactly once. Only a baseline (`persist_to`, heal)
//!   writes its sealed generations as `gen-<base>.seg` segments, and
//!   recovery reads both forms.
//! * **Deletes in a tombstone log.** `delete` appends to `tomb.log`
//!   (fsync per record — deletes are rare), and so does a retirement
//!   watermark that is not a function of the row count (a duration
//!   window's, or an explicit `retire_to`). The log is truncated when a
//!   merge publishes, because the manifest written at that point snapshots
//!   every pending and purged tombstone and the watermark.
//! * **A merge writes no segment: the manifest swap is its commit.** The
//!   generation files a merge folds already hold its rows, fsynced, so
//!   they become the static's durable form. At publish time the `MANIFEST`
//!   (parameters, the last checkpoint segment if any, the contiguous
//!   *folded range* of generation files merged into the static since it,
//!   the retire cut, purged + pending tombstones) is swapped via an atomic
//!   rename and a directory fsync, and only then are the files wholly
//!   below the cut unlinked (a checkpoint segment included). The rename
//!   is the commit point: a crash on either side of it recovers to a
//!   consistent state (before: the old manifest, whose files are all
//!   still present; after: the new one, with leftovers garbage-collected
//!   on attach).
//! * **A checkpoint runs only when what it drops pays for it.** It encodes
//!   the static rows as `static-<seq>.seg`, swaps the manifest to name it
//!   with an empty folded range, and drops the folded files and the
//!   previous checkpoint. It follows a publish only when the held rows
//!   below the cut, plus all held files but one at `FILE_ROWS` rows
//!   each, are at least the live rows it would write. Purged rows do not
//!   count: a checkpoint keeps their contents (ids stay stable and
//!   recovery returns every row). A windowed engine whose WALs retire
//!   whole therefore never checkpoints, nor does an append-only one whose
//!   batches hold `FILE_ROWS` rows or more; one fed a row at a time
//!   checkpoints often enough to hold at most one file per `FILE_ROWS`
//!   live rows. `persist_to` and heal baselines are checkpoints.
//!
//! ## Recovery
//!
//! [`load_state`] reads the manifest, loads the checkpoint segment's rows
//! from the cut on, then the folded range's generation files as static
//! rows (their rows below the cut skipped), then walks the unfolded
//! generation files contiguously from the static end: at each base a
//! `gen-<base>.seg` if there is one, else `wal-<base>.log`, whose whole
//! records up to the first torn or corrupt one are the generation. A gap
//! in the folded range is an error (the manifest promised those rows);
//! the first gap in the unfolded chain ends it (a damaged file ends it
//! where its damage starts), and the tombstone log is replayed last.
//! Re-attaching keeps every file recovery used and garbage-collects the
//! rest, so a file past the end is never resurrected.
//! [`rebuild_engine`] is the one rebuild routine: insert the static
//! prefix, tombstone + merge-purge the purged ids (so the purge accounting
//! matches), replay each generation as its own sealed generation, then
//! re-apply the tombstones and the retirement watermark. Generation
//! boundaries are an ingest-batching artifact with no effect on answers
//! (property-tested), so a recovered engine answers bit-identically to a
//! from-scratch build over the same rows.
//!
//! A [`Snapshot`] stream is this same manifest (its checkpoint the whole
//! static, its folded range empty) and two segments (`STATIC` for the
//! static prefix, `GEN` for the delta suffix) written back to back, and
//! restoring one goes through [`rebuild_engine`] too: there is one on-disk
//! codec and one replay order.
//!
//! ## Failure model
//!
//! Persistence hooks run under the engine's write mutex and return
//! `io::Result`: a failing operation is retried a bounded number of
//! times with jittered exponential backoff (transient `EIO`/disk-full
//! blips are absorbed and counted), and a failure that survives the
//! retry budget bubbles up to the engine, which transitions into
//! **degraded read-only mode** — queries keep answering off the pinned
//! epoch, writes return [`PlshError::Degraded`](crate::error::PlshError)
//! — rather than panicking or silently diverging memory from disk.
//! [`Engine::heal`](crate::engine::Engine::heal) exits degraded mode by
//! `EnginePersister::resync`-ing the directory from a fresh baseline.
//! Every hook is also threaded through the named failpoints of
//! [`crate::fault`] (`wal.append`, `wal.fsync`, `manifest.swap` at every
//! manifest swap, `tomb.append`, and `static.prepare` at a checkpoint's
//! segment write) so the chaos suite
//! can inject exactly these failures. Simulated power cuts for the
//! crash-recovery property tests are injected through the separate
//! [`fail`] facility, which freezes all persistence I/O after a budgeted
//! number of low-level operations (the op at the boundary tears).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use plsh_parallel::ThreadPool;

use crate::fault;

use crate::engine::{Engine, EngineConfig, WindowSpec};
use crate::error::Result as PlshResult;
use crate::params::PlshParams;
use crate::snapshot::Snapshot;
use crate::sparse::{CrsMatrix, SparseVector};
use crate::table::DeltaGeneration;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 4] = b"PLSM";
const STATIC_MAGIC: &[u8; 4] = b"PLSS";
const GEN_MAGIC: &[u8; 4] = b"PLSG";
const VERSION: u32 = 1;
/// Manifest format version. v2 added the sliding-window fields
/// (`static_base`, `retired_below`, window spec); v1 manifests are read
/// back with all three at their no-window defaults. v3 added the folded
/// range: the static segment became a checkpoint that may end before the
/// static does (`held_from`, `checkpoint_len`); a v1–v2 static segment
/// reads back as a checkpoint holding the whole static, with nothing
/// folded since.
const MANIFEST_VERSION: u32 = 3;
/// No checkpoint segment (empty engine, or every static row is folded).
const NO_STATIC: u64 = u64::MAX;
/// Upper bound on one WAL record's payload — anything larger is framing
/// corruption, not data.
const MAX_RECORD: u32 = 1 << 30;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
/// Retirement-watermark advance in the tombstone log: the payload is the
/// new watermark, and replay takes the max (the watermark is monotone).
const TAG_RETIRE: u8 = 3;

/// Window spec tags in the manifest (`tag | u64 payload`).
const WINDOW_NONE: u8 = 0;
const WINDOW_DOCS: u8 = 1;
const WINDOW_DURATION: u8 = 2;

/// Simulated power cuts for crash-recovery tests.
///
/// `arm(n)` lets the next `n` low-level persistence operations (writes,
/// fsyncs, renames, removals, file creations) through, tears the `n`-th
/// write in half, and silently freezes everything after it — exactly what
/// a power cut mid-operation leaves on disk. The engine keeps running
/// in memory; recovery is then exercised against the frozen directory.
/// Process-global: tests that arm it must serialize among themselves.
#[doc(hidden)]
pub mod fail {
    use super::{AtomicBool, AtomicI64, AtomicU64, Ordering};

    static ARMED: AtomicBool = AtomicBool::new(false);
    static REMAINING: AtomicI64 = AtomicI64::new(0);
    static USED: AtomicU64 = AtomicU64::new(0);

    #[derive(PartialEq, Clone, Copy)]
    pub(super) enum Gate {
        /// Perform the operation normally.
        Live,
        /// The power cut lands on this operation: tear it (writes) or
        /// drop it (everything else).
        Boundary,
        /// The disk is gone; the operation silently does nothing.
        Frozen,
    }

    pub(super) fn gate() -> Gate {
        if !ARMED.load(Ordering::Relaxed) {
            return Gate::Live;
        }
        USED.fetch_add(1, Ordering::Relaxed);
        match REMAINING.fetch_sub(1, Ordering::Relaxed) {
            r if r > 1 => Gate::Live,
            1 => Gate::Boundary,
            _ => Gate::Frozen,
        }
    }

    /// Allow `ops` persistence operations, then cut the power.
    pub fn arm(ops: i64) {
        REMAINING.store(ops, Ordering::Relaxed);
        USED.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
    }

    /// Restore normal (unlimited, real) persistence I/O.
    pub fn disarm() {
        ARMED.store(false, Ordering::Relaxed);
    }

    /// Operations attempted since the last `arm` (counts frozen ones too).
    pub fn ops_used() -> u64 {
        USED.load(Ordering::Relaxed)
    }
}

/// A persistence file handle; `None` when the simulated power cut struck
/// at creation time (all subsequent I/O on it no-ops).
struct PFile {
    file: Option<File>,
}

impl PFile {
    /// Truncate back to `len` — drops a half-appended record left behind
    /// by a failed earlier attempt, so a retry never appends after a torn
    /// record (replay stops at the first one). The cursor moves back too:
    /// a WAL is not opened in append mode, and writing at the old offset
    /// would leave a zero-filled hole where the dropped record was.
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        match self.file.as_mut() {
            Some(f) => {
                f.set_len(len)?;
                f.seek(SeekFrom::Start(len)).map(drop)
            }
            None => Ok(()),
        }
    }

    /// Current on-disk length (0 for a frozen handle).
    fn len(&self) -> io::Result<u64> {
        match &self.file {
            Some(f) => f.metadata().map(|m| m.len()),
            None => Ok(0),
        }
    }
}

fn fio_create(path: &Path) -> io::Result<PFile> {
    match fail::gate() {
        fail::Gate::Live => Ok(PFile {
            file: Some(File::create(path)?),
        }),
        _ => Ok(PFile { file: None }),
    }
}

fn fio_append(path: &Path) -> io::Result<PFile> {
    match fail::gate() {
        fail::Gate::Live => Ok(PFile {
            file: Some(OpenOptions::new().append(true).create(true).open(path)?),
        }),
        _ => Ok(PFile { file: None }),
    }
}

fn fio_write(f: &mut PFile, bytes: &[u8]) -> io::Result<()> {
    let Some(file) = f.file.as_mut() else {
        return Ok(());
    };
    match fail::gate() {
        fail::Gate::Live => file.write_all(bytes),
        fail::Gate::Boundary => {
            // The cut lands mid-write: half the buffer reaches the disk.
            file.write_all(&bytes[..bytes.len() / 2])?;
            f.file = None;
            Ok(())
        }
        fail::Gate::Frozen => {
            f.file = None;
            Ok(())
        }
    }
}

fn fio_fsync(f: &mut PFile) -> io::Result<()> {
    let Some(file) = f.file.as_mut() else {
        return Ok(());
    };
    match fail::gate() {
        fail::Gate::Live => file.sync_data(),
        _ => {
            f.file = None;
            Ok(())
        }
    }
}

fn fio_rename(from: &Path, to: &Path) -> io::Result<()> {
    match fail::gate() {
        fail::Gate::Live => fs::rename(from, to),
        _ => Ok(()),
    }
}

fn fio_remove(path: &Path) -> io::Result<()> {
    match fail::gate() {
        fail::Gate::Live => match fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            r => r,
        },
        _ => Ok(()),
    }
}

/// Fsyncs a directory, making the names created, renamed or removed in it
/// durable (one op for the power-cut injector).
fn fio_sync_dir(dir: &Path) -> io::Result<()> {
    match fail::gate() {
        fail::Gate::Live => File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

/// Write `bytes` to `path` atomically: tmp file, fsync, rename, then an
/// fsync of the parent directory, so the rename is durable before the
/// caller unlinks anything it supersedes (every step through the
/// power-cut injector). Shared with the cluster manifest.
#[doc(hidden)]
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = fio_create(&tmp)?;
    fio_write(&mut f, bytes)?;
    fio_fsync(&mut f)?;
    drop(f);
    fio_rename(&tmp, path)?;
    let parent = path.parent().filter(|d| !d.as_os_str().is_empty());
    fio_sync_dir(parent.unwrap_or(Path::new(".")))
}

// ---------------------------------------------------------------------
// Binary helpers (little-endian; every file and snapshot block uses them).
// ---------------------------------------------------------------------

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// FNV-1a, the record checksum (cheap, endian-free, catches torn tails).
/// Shared with the cluster manifest.
#[doc(hidden)]
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A decoded element count, refused unless that many elements of at least
/// `width` bytes fit in what is left of `r`. FNV is no MAC, so a forged
/// count can pass the checksum; it must still never size an allocation.
fn bounded(r: &[u8], count: u64, width: usize) -> io::Result<usize> {
    if count > (r.len() / width) as u64 {
        return Err(bad(format!(
            "count {count} overruns the {} bytes left",
            r.len()
        )));
    }
    Ok(count as usize)
}

/// A window spec as its manifest `(tag, payload)` pair. Shared with the
/// cluster manifest.
#[doc(hidden)]
pub fn encode_window(window: Option<WindowSpec>) -> (u8, u64) {
    match window {
        None => (WINDOW_NONE, 0),
        Some(WindowSpec::Docs(n)) => (WINDOW_DOCS, n as u64),
        Some(WindowSpec::Duration(d)) => {
            (WINDOW_DURATION, d.as_nanos().min(u64::MAX as u128) as u64)
        }
    }
}

/// Inverse of [`encode_window`].
#[doc(hidden)]
pub fn decode_window(tag: u8, arg: u64) -> io::Result<Option<WindowSpec>> {
    match tag {
        WINDOW_NONE => Ok(None),
        WINDOW_DOCS => u32::try_from(arg)
            .map(|n| Some(WindowSpec::Docs(n)))
            .map_err(|_| bad(format!("implausible window size {arg}"))),
        WINDOW_DURATION => Ok(Some(WindowSpec::Duration(Duration::from_nanos(arg)))),
        t => Err(bad(format!("unknown window tag {t}"))),
    }
}

/// One row as its encoded parts, `(indices, values)`: borrowed straight
/// from a [`CrsMatrix`] or a [`SparseVector`], never copied into one.
type RowRef<'a> = (&'a [u32], &'a [f32]);

/// The rows of `m` in order.
fn crs_rows(m: &CrsMatrix) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
    (0..m.num_rows() as u32).map(|i| m.row(i))
}

/// The rows of `vs` in order.
fn vector_rows(vs: &[SparseVector]) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
    vs.iter().map(|v| (v.indices(), v.values()))
}

/// Bytes [`put_rows`] writes for `rows`: a `u64` count, then per row a
/// `u32` nnz and 4 + 4 bytes per entry.
fn rows_len<'a>(rows: impl Iterator<Item = RowRef<'a>>) -> usize {
    8 + rows
        .map(|(indices, _)| 4 + 8 * indices.len())
        .sum::<usize>()
}

/// Appends 4-byte words with one resize, not one push per word.
fn put_words(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; 4]>) {
    let at = out.len();
    out.resize(at + 4 * words.len(), 0);
    for (dst, w) in out[at..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w);
    }
}

fn put_rows<'a>(out: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = RowRef<'a>>) {
    put_u64(out, rows.len() as u64);
    for (indices, values) in rows {
        put_u32(out, indices.len() as u32);
        put_words(out, indices.iter().map(|d| d.to_le_bytes()));
        put_words(out, values.iter().map(|x| x.to_le_bytes()));
    }
}

fn get_rows(r: &mut &[u8]) -> io::Result<Vec<SparseVector>> {
    // A row is at least its 4-byte nnz; an entry is 4 + 4 bytes.
    let n = get_u64(r)?;
    let mut rows = Vec::with_capacity(bounded(r, n, 4)?);
    for _ in 0..n {
        let nnz = get_u32(r)?;
        let nnz = bounded(r, nnz as u64, 8)?;
        let mut indices = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            indices.push(get_u32(r)?);
        }
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(get_f32(r)?);
        }
        rows.push(SparseVector::from_sorted(indices, values).map_err(|e| bad(e.to_string()))?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// A checkpoint segment, `static-<seq>.seg`: the `len` static rows from
/// the manifest's `held_from` on, as they were when it was written. The
/// cut may have passed some of them since.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Checkpoint {
    seq: u64,
    len: u64,
}

/// Recovery opens and reads a file at about the cost of reading this many
/// more rows (measured 18–25 for one-row WALs against 12-term rows in one
/// segment, 2 vCPU, warm page cache), so a checkpoint that collapses `n`
/// held files into one saves as much as dropping `(n - 1) ×` this many
/// dead rows.
const FILE_ROWS: u64 = 20;

#[derive(Debug, Clone)]
struct Manifest {
    params: PlshParams,
    capacity: u64,
    eta: f64,
    seal_min_points: u64,
    /// Data-directory generation, bumped by `clear` so leftovers of a
    /// previous lifetime can never be replayed as data.
    reset: u64,
    /// First id of the files that hold the static: the checkpoint's, or
    /// without one the first folded file's. At most `static_base`: the
    /// first file may straddle the cut.
    held_from: u64,
    /// The last checkpoint segment, if any. The folded range — the
    /// generation files merged into the static since it — runs from its
    /// end (see [`Self::fold_from`]) up to the static end.
    checkpoint: Option<Checkpoint>,
    static_len: u64,
    /// Global id of static row 0 — everything below it was retired by the
    /// sliding window and compacted away (0 without a window).
    static_base: u64,
    /// Retirement watermark at the time of the snapshot: every id below
    /// it is dead. Invariant: `static_base <= retired_below`.
    retired_below: u64,
    /// The engine's sliding-window spec, so recovery rebuilds a windowed
    /// engine that keeps retiring on its own.
    window: Option<WindowSpec>,
    purged: Vec<u32>,
    pending: Vec<u32>,
}

impl Manifest {
    /// A baseline's manifest: its static rows are one checkpoint (sequence
    /// `seq`, written when there are any), with nothing folded since.
    fn of_baseline(b: &Baseline<'_>, reset: u64, seq: Option<u64>) -> Self {
        let (base, len) = (b.static_base as u64, b.static_len as u64);
        Self {
            params: b.params.clone(),
            capacity: b.capacity,
            eta: b.eta,
            seal_min_points: b.seal_min_points,
            reset,
            held_from: base,
            checkpoint: seq.map(|seq| Checkpoint { seq, len }),
            static_len: len,
            static_base: base,
            retired_below: b.retired_below as u64,
            window: b.window,
            purged: b.purged.to_vec(),
            pending: b.pending.clone(),
        }
    }

    /// A snapshot's manifest: its static prefix is the checkpoint, and the
    /// folded range is empty. A snapshot carries no window and restores
    /// with the default sealing, so those fields take their defaults.
    fn of_snapshot(s: &Snapshot) -> Self {
        Self {
            params: s.params.clone(),
            capacity: s.capacity,
            eta: s.eta,
            seal_min_points: 1,
            reset: 0,
            held_from: s.base,
            checkpoint: Some(Checkpoint {
                seq: 0,
                len: s.static_len,
            }),
            static_len: s.static_len,
            static_base: s.base,
            retired_below: s.retired_below,
            window: None,
            purged: s.purged.clone(),
            pending: s.deleted.clone(),
        }
    }

    fn static_end(&self) -> u64 {
        self.static_base + self.static_len
    }

    /// First id of the folded range: the checkpoint's end, or without one
    /// the first held id.
    fn fold_from(&self) -> u64 {
        self.held_from + self.checkpoint.map_or(0, |c| c.len)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut out, MANIFEST_VERSION);
        put_u32(&mut out, self.params.dim());
        put_u32(&mut out, self.params.k());
        put_u32(&mut out, self.params.m());
        put_f64(&mut out, self.params.radius());
        put_f64(&mut out, self.params.delta());
        put_u64(&mut out, self.params.seed());
        put_u64(&mut out, self.capacity);
        put_f64(&mut out, self.eta);
        put_u64(&mut out, self.seal_min_points);
        put_u64(&mut out, self.reset);
        put_u64(&mut out, self.checkpoint.map_or(NO_STATIC, |c| c.seq));
        put_u64(&mut out, self.static_len);
        put_u64(&mut out, self.static_base);
        put_u64(&mut out, self.retired_below);
        let (wtag, warg) = encode_window(self.window);
        out.push(wtag);
        put_u64(&mut out, warg);
        put_u64(&mut out, self.held_from);
        put_u64(&mut out, self.checkpoint.map_or(0, |c| c.len));
        put_u64(&mut out, self.purged.len() as u64);
        for &id in &self.purged {
            put_u32(&mut out, id);
        }
        put_u64(&mut out, self.pending.len() as u64);
        for &id in &self.pending {
            put_u32(&mut out, id);
        }
        // Whole-manifest checksum: a manifest is only ever replaced via
        // rename, but an operator-truncated file must fail loudly.
        let crc = checksum(&out);
        put_u32(&mut out, crc);
        out
    }

    fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < 4 + 4 {
            return Err(bad("manifest truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
        if checksum(body) != crc {
            return Err(bad("manifest checksum mismatch"));
        }
        let mut r = body;
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MANIFEST_MAGIC {
            return Err(bad("not a plsh persistence manifest (bad magic)"));
        }
        let version = get_u32(&mut r)?;
        if !(1..=MANIFEST_VERSION).contains(&version) {
            return Err(bad(format!("unsupported manifest version {version}")));
        }
        let dim = get_u32(&mut r)?;
        let k = get_u32(&mut r)?;
        let m = get_u32(&mut r)?;
        let radius = get_f64(&mut r)?;
        let delta = get_f64(&mut r)?;
        let seed = get_u64(&mut r)?;
        let params = PlshParams::builder(dim)
            .k(k)
            .m(m)
            .radius(radius)
            .delta(delta)
            .seed(seed)
            .build()
            .map_err(|e| bad(e.to_string()))?;
        let capacity = get_u64(&mut r)?;
        let eta = get_f64(&mut r)?;
        let seal_min_points = get_u64(&mut r)?;
        let reset = get_u64(&mut r)?;
        let seq = match get_u64(&mut r)? {
            NO_STATIC => None,
            s => Some(s),
        };
        let static_len = get_u64(&mut r)?;
        let (static_base, retired_below, window) = if version >= 2 {
            let base = get_u64(&mut r)?;
            let retired = get_u64(&mut r)?;
            if retired < base {
                return Err(bad(format!(
                    "retired_below {retired} below static_base {base}"
                )));
            }
            let mut wtag = [0u8; 1];
            r.read_exact(&mut wtag)?;
            let warg = get_u64(&mut r)?;
            (base, retired, decode_window(wtag[0], warg)?)
        } else {
            (0, 0, None)
        };
        let end = static_base
            .checked_add(static_len)
            .filter(|&e| e <= u32::MAX as u64)
            .ok_or_else(|| bad("static range beyond the id space"))?;
        let (held_from, checkpoint) = if version >= 3 {
            let held_from = get_u64(&mut r)?;
            let len = get_u64(&mut r)?;
            if seq.is_none() && len != 0 {
                return Err(bad("checkpoint length without a checkpoint"));
            }
            (held_from, seq.map(|seq| Checkpoint { seq, len }))
        } else {
            if seq.is_none() && static_len != 0 {
                return Err(bad("static_len without a static segment"));
            }
            let checkpoint = seq.map(|seq| Checkpoint {
                seq,
                len: static_len,
            });
            (static_base, checkpoint)
        };
        // The held files start at or below the cut, and the folded range
        // runs from the checkpoint's end (at or past the cut) or, without
        // one, from the first held id to the static end.
        let fold_from = held_from
            .checked_add(checkpoint.map_or(0, |c| c.len))
            .ok_or_else(|| bad("checkpoint beyond the id space"))?;
        if held_from > static_base
            || fold_from > end
            || (checkpoint.is_some() && fold_from < static_base)
        {
            return Err(bad(format!(
                "checkpoint {checkpoint:?} from {held_from} and the folded range do not cover \
                 static ids {static_base}..{end}"
            )));
        }
        let np = get_u64(&mut r)?;
        let mut purged = Vec::with_capacity(bounded(r, np, 4)?);
        for _ in 0..np {
            let id = get_u32(&mut r)?;
            if (id as u64) < static_base || id as u64 >= end {
                return Err(bad(format!("purged id {id} outside the static prefix")));
            }
            purged.push(id);
        }
        let nd = get_u64(&mut r)?;
        let mut pending = Vec::with_capacity(bounded(r, nd, 4)?);
        for _ in 0..nd {
            pending.push(get_u32(&mut r)?);
        }
        Ok(Self {
            params,
            capacity,
            eta,
            seal_min_points,
            reset,
            held_from,
            checkpoint,
            static_len,
            static_base,
            retired_below,
            window,
            purged,
            pending,
        })
    }
}

// ---------------------------------------------------------------------
// Segment + log encoding
// ---------------------------------------------------------------------

/// A checksummed segment of `rows`, encoded into one buffer sized up
/// front.
fn encode_segment<'a>(
    magic: &[u8; 4],
    base: u64,
    rows: impl ExactSizeIterator<Item = RowRef<'a>> + Clone,
) -> Vec<u8> {
    let len = 4 + 4 + 8 + rows_len(rows.clone()) + 4;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(magic);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, base);
    put_rows(&mut out, rows);
    let crc = checksum(&out);
    put_u32(&mut out, crc);
    debug_assert_eq!(out.len(), len);
    out
}

fn decode_segment(
    magic: &[u8; 4],
    expect_base: u64,
    bytes: &[u8],
) -> io::Result<Vec<SparseVector>> {
    if bytes.len() < 4 + 4 + 8 + 4 {
        return Err(bad("segment truncated"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    if checksum(body) != crc {
        return Err(bad("segment checksum mismatch"));
    }
    let mut r = body;
    let mut m = [0u8; 4];
    r.read_exact(&mut m)?;
    if &m != magic {
        return Err(bad("bad segment magic"));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported segment version {version}")));
    }
    let base = get_u64(&mut r)?;
    if base != expect_base {
        return Err(bad(format!("segment base {base}, expected {expect_base}")));
    }
    get_rows(&mut r)
}

/// The checkpoint segment `c` names, which must hold exactly its rows
/// from `base` on.
fn decode_checkpoint(base: u64, c: &Checkpoint, bytes: &[u8]) -> io::Result<Vec<SparseVector>> {
    let rows = decode_segment(STATIC_MAGIC, base, bytes)?;
    if rows.len() as u64 != c.len {
        return Err(bad(format!(
            "static segment holds {} rows, manifest says {}",
            rows.len(),
            c.len
        )));
    }
    Ok(rows)
}

/// One checksummed log record: `len | crc | payload`.
fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, checksum(payload));
    out.extend_from_slice(payload);
    out
}

/// Replay a log's records, stopping silently at the first torn or
/// corrupt record (the un-synced tail of a crash).
fn replay_log(path: &Path, mut on_payload: impl FnMut(&[u8]) -> bool) -> io::Result<()> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD as usize || bytes.len() - at - 8 < len {
            break; // torn tail
        }
        let payload = &bytes[at + 8..at + 8 + len];
        if checksum(payload) != crc {
            break; // torn tail
        }
        if !on_payload(payload) {
            break; // malformed payload: treat like a torn tail
        }
        at += 8 + len;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// File layout
// ---------------------------------------------------------------------

fn data_dir(dir: &Path, reset: u64) -> PathBuf {
    dir.join(format!("data-{reset}"))
}

fn static_path(data: &Path, seq: u64) -> PathBuf {
    data.join(format!("static-{seq}.seg"))
}

fn gen_path(data: &Path, base: u32) -> PathBuf {
    data.join(format!("gen-{base}.seg"))
}

fn wal_path(data: &Path, base: u32) -> PathBuf {
    data.join(format!("wal-{base}.log"))
}

fn tomb_path(data: &Path) -> PathBuf {
    data.join("tomb.log")
}

/// The files a manifest swap superseded: a checkpoint segment, and the
/// generation files at `bases`, in whichever form each has.
fn superseded_files(data: &Path, checkpoint: Option<Checkpoint>, bases: &[u32]) -> Vec<PathBuf> {
    let segment = checkpoint.map(|c| static_path(data, c.seq));
    let generations = bases
        .iter()
        .flat_map(|&b| [gen_path(data, b), wal_path(data, b)]);
    segment.into_iter().chain(generations).collect()
}

/// Parse `<prefix><number><suffix>` file names (`gen-17.seg` → 17).
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------
// The attached persister
// ---------------------------------------------------------------------

/// Everything the baseline write needs, captured under the engine's
/// write lock so the parts are mutually consistent.
pub(crate) struct Baseline<'a> {
    pub params: &'a PlshParams,
    pub capacity: u64,
    pub eta: f64,
    pub seal_min_points: u64,
    pub window: Option<WindowSpec>,
    /// Global id of `static_data` row 0 (the compaction cut).
    pub static_base: u32,
    /// Retirement watermark at capture time (`>= static_base`).
    pub retired_below: u32,
    pub static_data: &'a CrsMatrix,
    pub static_len: usize,
    pub sealed: &'a [Arc<DeltaGeneration>],
    pub open: Option<&'a DeltaGeneration>,
    pub purged: &'a [u32],
    pub pending: Vec<u32>,
}

struct WalWriter {
    file: PFile,
    base: u32,
    rows: u32,
    /// Bytes known to hold whole, durable records (the truncation point
    /// for retries after a failed append).
    good: u64,
}

struct TombWriter {
    file: PFile,
    good: u64,
}

struct PersistState {
    data: PathBuf,
    manifest: Manifest,
    next_static_seq: u64,
    wal: Option<WalWriter>,
    tomb: Option<TombWriter>,
    /// Bases of the folded range's files, ascending: file `i` holds ids
    /// `folded[i]..folded[i + 1]`, the last one up to the static end.
    folded: Vec<u32>,
}

impl PersistState {
    /// Whether a checkpoint now pays for itself: what it would drop — the
    /// held rows below the cut, and all held files but one, at
    /// [`FILE_ROWS`] rows each — is at least the live rows it writes. A
    /// purged row is no saving: its contents stay in a checkpoint (ids
    /// stay stable and recovery returns every row).
    fn checkpoint_due(&self) -> bool {
        let m = &self.manifest;
        let dead = m.static_base - m.held_from;
        let files = self.folded.len() as u64 + u64::from(m.checkpoint.is_some());
        let saved = dead + FILE_ROWS * files.saturating_sub(1);
        saved > 0 && saved >= m.static_len
    }
}

/// The durable side of one [`Engine`], attached by
/// [`Engine::persist_to`] / [`Engine::recover_from`] and driven by the
/// engine's write path (all hooks run under the engine's write mutex).
pub struct EnginePersister {
    dir: PathBuf,
    state: Mutex<PersistState>,
    /// Transient I/O errors absorbed by retry-with-backoff (health metric).
    retries: AtomicU64,
}

/// Seed stream for retry jitter: one counter feeding SplitMix64, so two
/// engines retrying concurrently don't sleep in lockstep.
static JITTER_SALT: AtomicU64 = AtomicU64::new(0x5bd1_e995);

fn jittered(delay: Duration) -> Duration {
    let salt = JITTER_SALT.fetch_add(1, Ordering::Relaxed);
    let r = crate::rng::SplitMix64::new(salt).next_u64();
    delay + Duration::from_nanos(r % (delay.as_nanos() as u64 / 2).max(1))
}

/// Writes the segment/WAL files of a full baseline into `data` (shared
/// by [`EnginePersister::create`] and [`EnginePersister::resync`]).
/// Returns the static sequence used (if any) and the open WAL writer.
fn write_baseline(data: &Path, b: &Baseline<'_>) -> io::Result<(Option<u64>, Option<WalWriter>)> {
    let static_seq = if b.static_len > 0 { Some(0u64) } else { None };
    if let Some(seq) = static_seq {
        let rows = crs_rows(b.static_data).take(b.static_len);
        let bytes = encode_segment(STATIC_MAGIC, b.static_base as u64, rows);
        write_atomic(&static_path(data, seq), &bytes)?;
    }
    for g in b.sealed {
        let bytes = encode_segment(GEN_MAGIC, g.base() as u64, crs_rows(g.data()));
        write_atomic(&gen_path(data, g.base()), &bytes)?;
    }
    let wal = match b.open {
        Some(g) if !g.is_empty() => {
            let mut payload = Vec::new();
            payload.push(TAG_INSERT);
            put_u32(&mut payload, g.base());
            put_rows(&mut payload, crs_rows(g.data()));
            let record = encode_record(&payload);
            let mut f = fio_create(&wal_path(data, g.base()))?;
            fio_write(&mut f, &record)?;
            fio_fsync(&mut f)?;
            Some(WalWriter {
                file: f,
                base: g.base(),
                rows: g.len() as u32,
                good: record.len() as u64,
            })
        }
        _ => None,
    };
    Ok((static_seq, wal))
}

impl EnginePersister {
    /// Writes a full baseline of the engine's current contents into `dir`
    /// (which must not already hold a persisted index) and returns the
    /// attached persister.
    pub(crate) fn create(dir: &Path, b: &Baseline<'_>) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        if dir.join(MANIFEST).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a persisted index; recover from it or choose an empty \
                     directory",
                    dir.display()
                ),
            ));
        }
        let reset = 0u64;
        let data = data_dir(dir, reset);
        fs::create_dir_all(&data)?;

        let (static_seq, wal) = write_baseline(&data, b)?;
        let manifest = Manifest::of_baseline(b, reset, static_seq);
        write_atomic(&dir.join(MANIFEST), &manifest.encode())?;

        Ok(Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(PersistState {
                data,
                manifest,
                next_static_seq: static_seq.map_or(0, |s| s + 1),
                wal,
                tomb: None,
                folded: Vec::new(),
            }),
            retries: AtomicU64::new(0),
        })
    }

    /// Re-attaches to a recovered directory and garbage-collects every
    /// file recovery did not use. The recovered generation files stay as
    /// they are: the folded ones are the static's durable form, the rebuilt
    /// engine sealed each of the others, and a WAL is a sealed
    /// generation's durable form (the next batch opens a new one past
    /// them, so none is appended to again).
    pub(crate) fn attach_recovered(dir: &Path, st: &RecoveredState) -> io::Result<Self> {
        let data = data_dir(dir, st.manifest.reset);
        fs::create_dir_all(&data)?;
        let me = Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(PersistState {
                data,
                manifest: st.manifest.clone(),
                next_static_seq: st.manifest.checkpoint.map_or(0, |c| c.seq + 1),
                wal: None,
                tomb: None,
                folded: st.folded.iter().map(|&(b, _)| b).collect(),
            }),
            retries: AtomicU64::new(0),
        };
        me.gc(st);
        Ok(me)
    }

    /// Best-effort removal of files recovery did not consume: stale data
    /// directories from pre-`clear` lifetimes, static segments other than
    /// the checkpoint, and generation segments / WALs beyond the recovered
    /// contiguous prefix, below the folded range, or shadowed by a segment
    /// at the same base.
    fn gc(&self, st: &RecoveredState) {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                if let Some(r) = parse_numbered(&name, "data-", "") {
                    if r != st.manifest.reset {
                        let _ = fs::remove_dir_all(e.path());
                    }
                }
            }
        }
        // A recovered generation, folded or not, came from exactly one
        // file: its segment, or its WAL when it had none.
        let live = |base: u64, from_wal: bool| {
            st.folded
                .iter()
                .any(|&(b, w)| b as u64 == base && w == from_wal)
                || st
                    .gens
                    .iter()
                    .any(|&(b, _, w)| b as u64 == base && w == from_wal)
        };
        if let Ok(entries) = fs::read_dir(&s.data) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                let stale = if let Some(seq) = parse_numbered(&name, "static-", ".seg") {
                    Some(seq) != st.manifest.checkpoint.map(|c| c.seq)
                } else if let Some(b) = parse_numbered(&name, "gen-", ".seg") {
                    !live(b, false)
                } else if let Some(b) = parse_numbered(&name, "wal-", ".log") {
                    !live(b, true)
                } else {
                    name.ends_with(".tmp")
                };
                if stale {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
    }

    /// Runs `op` with a bounded retry budget and jittered exponential
    /// backoff between attempts: a transient I/O blip is absorbed (and
    /// counted toward [`Self::io_retries`]), a persistent failure comes
    /// back as the last error for the engine to degrade on.
    fn retry<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        const RETRIES: u32 = 4;
        let mut delay = Duration::from_micros(500);
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(_) if attempt < RETRIES => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(jittered(delay));
                    delay = (delay * 2).min(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Transient I/O errors absorbed by retry since this persister
    /// attached (a health metric).
    pub fn io_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// WAL-append one insert batch (called *before* the rows are applied
    /// in memory). Fsyncs: the batch boundary is the durability point.
    pub(crate) fn log_insert(&self, from: u32, vs: &[SparseVector]) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let mut payload = Vec::with_capacity(1 + 4 + rows_len(vector_rows(vs)));
        payload.push(TAG_INSERT);
        put_u32(&mut payload, from);
        put_rows(&mut payload, vector_rows(vs));
        let record = encode_record(&payload);
        self.retry(|| {
            let rotate = match &s.wal {
                Some(w) => w.base + w.rows != from,
                None => true,
            };
            if rotate {
                debug_assert!(s.wal.is_none(), "WAL rotation with rows still open");
                let path = wal_path(&s.data, from);
                let file = fio_create(&path)?;
                s.wal = Some(WalWriter {
                    file,
                    base: from,
                    rows: 0,
                    good: 0,
                });
            }
            let w = s.wal.as_mut().expect("installed above");
            w.file.truncate_to(w.good)?;
            fault::io_check(fault::WAL_APPEND)?;
            fio_write(&mut w.file, &record)?;
            fault::io_check(fault::WAL_FSYNC)?;
            fio_fsync(&mut w.file)?;
            w.good += record.len() as u64;
            Ok(())
        })?;
        let w = s.wal.as_mut().expect("record landed above");
        w.rows += vs.len() as u32;
        Ok(())
    }

    /// A generation sealed: close its WAL, which stays on disk as the
    /// generation's durable form (every record in it is already fsynced).
    /// Writes nothing; the next batch opens `wal-<next base>.log`.
    pub(crate) fn on_seal(&self, base: u32) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.wal.as_ref().is_some_and(|w| w.base == base) {
            s.wal = None;
        }
    }

    /// Append one tombstone to the delete log (fsync per record; deletes
    /// are rare next to inserts).
    pub(crate) fn log_delete(&self, id: u32) -> io::Result<()> {
        self.log_tomb(TAG_DELETE, id)
    }

    /// Append one retirement-watermark advance to the delete log (fsync
    /// per record, like a delete — the watermark moves at most once per
    /// insert batch). Replay takes the max, so repeated advances and the
    /// manifest's own snapshot compose monotonically.
    pub(crate) fn log_retire(&self, watermark: u32) -> io::Result<()> {
        self.log_tomb(TAG_RETIRE, watermark)
    }

    fn log_tomb(&self, tag: u8, arg: u32) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let mut payload = vec![tag];
        payload.extend_from_slice(&arg.to_le_bytes());
        let record = encode_record(&payload);
        self.retry(|| {
            if s.tomb.is_none() {
                let path = tomb_path(&s.data);
                let file = fio_append(&path)?;
                let good = file.len()?;
                s.tomb = Some(TombWriter { file, good });
            }
            let t = s.tomb.as_mut().expect("installed above");
            t.file.truncate_to(t.good)?;
            fault::io_check(fault::TOMB_APPEND)?;
            fio_write(&mut t.file, &record)?;
            fio_fsync(&mut t.file)?;
            t.good += record.len() as u64;
            Ok(())
        })
    }

    /// Makes the names of the generation files a merge is about to fold
    /// durable (one data-directory fsync) before its publish names them in
    /// a manifest. Runs before the merge takes the engine's write lock;
    /// `clear`, heal and attach hold the merge lock, as the caller does,
    /// so the directory cannot change underneath.
    pub(crate) fn sync_generations(&self) -> io::Result<()> {
        let data = self
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .data
            .clone();
        self.retry(|| fio_sync_dir(&data))
    }

    /// Commit a merge publish (under the engine's write lock): swap the
    /// manifest — the atomic commit point — to name the static the merge
    /// built, whose rows from `static_base` on are the previous static's
    /// files plus the generation files at `folded_bases` (the generations
    /// the merge folded, in id order), then truncate the tombstone log
    /// (its entries are all snapshotted in the manifest now). Returns the
    /// files the swap superseded — those wholly below the cut, a
    /// checkpoint included — for [`Self::after_publish`]. In-memory
    /// manifest state only moves forward if the swap lands, so a failed
    /// publish leaves disk *and* bookkeeping at the pre-merge state.
    pub(crate) fn publish_static(
        &self,
        static_base: u32,
        static_len: u32,
        folded_bases: impl Iterator<Item = u32>,
        purged: &[u32],
        pending: Vec<u32>,
        retired_below: u32,
    ) -> io::Result<Vec<PathBuf>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let end = static_base + static_len;
        let mut folded = s.folded.clone();
        folded.extend(folded_bases);
        debug_assert!(folded.windows(2).all(|w| w[0] < w[1]) && folded.last() < Some(&end));
        // Files wholly below the cut: each ends where the next begins.
        let ends = folded.iter().skip(1).copied().chain([end]);
        let gone = ends.take_while(|&e| e <= static_base).count();
        let mut next = s.manifest.clone();
        let held_from = next.held_from;
        let retired_checkpoint = next
            .checkpoint
            .take_if(|c| held_from + c.len <= static_base as u64);
        if next.checkpoint.is_none() {
            next.held_from = folded.get(gone).map_or(end, |&b| b) as u64;
        }
        next.static_base = static_base as u64;
        next.static_len = static_len as u64;
        next.retired_below = (retired_below as u64).max(static_base as u64);
        next.purged = purged.to_vec();
        next.pending = pending;
        let bytes = next.encode();
        let manifest_path = self.dir.join(MANIFEST);
        self.retry(|| {
            fault::io_check(fault::MANIFEST_SWAP)?;
            write_atomic(&manifest_path, &bytes)
        })?;
        s.manifest = next;
        s.folded = folded.split_off(gone);

        // Best-effort: a leftover log is shadowed by the manifest at
        // recovery and garbage-collected on re-attach.
        s.tomb = None;
        let _ = fio_remove(&tomb_path(&s.data));
        Ok(superseded_files(&s.data, retired_checkpoint, &folded))
    }

    /// Finishes a merge publish off the engine's write lock (under its
    /// merge lock): unlinks `superseded`, the files the publish's swap
    /// superseded, then runs a [checkpoint](Self::checkpoint) of
    /// `static_data`, the static that publish committed, if one now pays
    /// for itself. Unlinking is best-effort: a leftover is shadowed by the
    /// manifest at recovery and garbage-collected on re-attach.
    pub(crate) fn after_publish(
        &self,
        superseded: Vec<PathBuf>,
        static_data: &CrsMatrix,
    ) -> io::Result<()> {
        for path in superseded {
            let _ = fio_remove(&path);
        }
        let due = self
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .checkpoint_due();
        if due {
            self.checkpoint(static_data)?;
        }
        Ok(())
    }

    /// Writes the static rows as a checkpoint segment, swaps the manifest
    /// to name it with an empty folded range, then drops the folded files
    /// and the previous checkpoint. The state lock is held only to take
    /// the sequence number and for the swap, so WAL appends never queue
    /// behind the encode, the segment's fsync or the unlinks. The
    /// tombstone log stays: deletes since the publish live only there.
    fn checkpoint(&self, static_data: &CrsMatrix) -> io::Result<()> {
        let (seq, path, base) = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert_eq!(static_data.num_rows() as u64, s.manifest.static_len);
            let seq = s.next_static_seq;
            s.next_static_seq += 1;
            (seq, static_path(&s.data, seq), s.manifest.static_base)
        };
        let bytes = encode_segment(STATIC_MAGIC, base, crs_rows(static_data));
        self.retry(|| {
            fault::io_check(fault::STATIC_PREPARE)?;
            write_atomic(&path, &bytes)
        })?;
        let gone = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let s = &mut *s;
            let mut next = s.manifest.clone();
            let len = static_data.num_rows() as u64;
            let old = next.checkpoint.replace(Checkpoint { seq, len });
            next.held_from = base;
            let bytes = next.encode();
            let manifest_path = self.dir.join(MANIFEST);
            self.retry(|| {
                fault::io_check(fault::MANIFEST_SWAP)?;
                write_atomic(&manifest_path, &bytes)
            })?;
            s.manifest = next;
            superseded_files(&s.data, old, &std::mem::take(&mut s.folded))
        };
        for path in gone {
            let _ = fio_remove(&path);
        }
        Ok(())
    }

    /// The engine was cleared: commit an empty lifetime. The manifest
    /// rename is the commit point; the old data directory becomes an
    /// orphan that recovery garbage-collects.
    pub(crate) fn on_clear(&self) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let reset = s.manifest.reset + 1;
        let data = data_dir(&self.dir, reset);
        let mut next = s.manifest.clone();
        next.reset = reset;
        next.checkpoint = None;
        next.held_from = 0;
        next.static_len = 0;
        next.static_base = 0;
        next.retired_below = 0;
        next.purged.clear();
        next.pending.clear();
        let bytes = next.encode();
        let manifest_path = self.dir.join(MANIFEST);
        self.retry(|| {
            fs::create_dir_all(&data)?;
            write_atomic(&manifest_path, &bytes)
        })?;
        let old_data = std::mem::replace(&mut s.data, data);
        s.manifest = next;
        s.next_static_seq = 0;
        s.wal = None;
        s.tomb = None;
        s.folded.clear();
        if fail::gate() == fail::Gate::Live {
            let _ = fs::remove_dir_all(&old_data);
        }
        Ok(())
    }

    /// Rebuilds the directory from a fresh baseline of the engine's
    /// current in-memory contents — the heal path out of degraded mode.
    /// Writes a brand-new `data-<reset+1>` lifetime, swaps the manifest
    /// (the commit point), and removes the old lifetime best-effort (a
    /// leftover is garbage-collected by the next attach). Idempotent:
    /// safe to call repeatedly until it succeeds.
    pub(crate) fn resync(&self, b: &Baseline<'_>) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let reset = s.manifest.reset + 1;
        let data = data_dir(&self.dir, reset);
        fs::create_dir_all(&data)?;
        let (static_seq, wal) = write_baseline(&data, b)?;
        let manifest = Manifest::of_baseline(b, reset, static_seq);
        fault::io_check(fault::MANIFEST_SWAP)?;
        write_atomic(&self.dir.join(MANIFEST), &manifest.encode())?;
        let old_data = std::mem::replace(&mut s.data, data);
        s.manifest = manifest;
        s.next_static_seq = static_seq.map_or(0, |q| q + 1);
        s.wal = wal;
        s.tomb = None;
        s.folded.clear();
        let _ = fs::remove_dir_all(&old_data);
        Ok(())
    }

    /// The directory this persister writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// The durable contents of one engine directory, as read back by
/// [`load_state`]: everything needed to rebuild the engine, plus the
/// layout bookkeeping needed to re-attach the persister.
#[derive(Debug)]
pub struct RecoveredState {
    manifest: Manifest,
    /// Rows of the static prefix (`manifest.static_len` of them).
    static_rows: Vec<SparseVector>,
    /// The folded range's files, in id order: `(base, read-from-WAL)`.
    folded: Vec<(u32, bool)>,
    /// Generations beyond the static prefix, in id order:
    /// `(base, rows, recovered-from-WAL)`.
    gens: Vec<(u32, Vec<SparseVector>, bool)>,
    /// Tombstones replayed from the delete log (applied after the
    /// manifest's pending list; both are idempotent).
    tomb: Vec<u32>,
    /// Highest retirement watermark replayed from the delete log (0 when
    /// the log held none; composed with the manifest's via max).
    tomb_retire: u32,
    /// Rows of the unfolded chain that came back from WAL replay rather
    /// than sealed segments.
    wal_rows: usize,
    /// Whether the rebuilt engine merges on its own: a recovered
    /// directory does; a restored snapshot leaves merging to its caller.
    auto_merge: bool,
}

impl RecoveredState {
    /// LSH parameters stored in the manifest.
    pub fn params(&self) -> &PlshParams {
        &self.manifest.params
    }

    /// Node capacity stored in the manifest.
    pub fn capacity(&self) -> usize {
        self.manifest.capacity as usize
    }

    /// Rows in the durable static prefix.
    pub fn static_len(&self) -> usize {
        self.manifest.static_len as usize
    }

    /// Global id of the first resident row — the sliding window's
    /// compaction cut at the time of the last durable merge (0 without a
    /// window).
    pub fn static_base(&self) -> u32 {
        self.manifest.static_base as u32
    }

    /// The recovered retirement watermark: the manifest's snapshot
    /// composed with every advance replayed from the delete log.
    pub fn retired_below(&self) -> u32 {
        (self.manifest.retired_below as u32).max(self.tomb_retire)
    }

    /// The engine's sliding-window spec, if one was configured.
    pub fn window(&self) -> Option<WindowSpec> {
        self.manifest.window
    }

    /// Sets the window the engine is rebuilt with, for a directory whose
    /// window lives outside the engine's manifest (a one-shard cluster
    /// directory keeps it in the cluster manifest).
    pub fn set_window(&mut self, window: Option<WindowSpec>) {
        self.manifest.window = window;
    }

    /// Total recovered *resident* rows (static prefix + contiguous
    /// generations); the global id space ends at
    /// `static_base() + total()`.
    pub fn total(&self) -> usize {
        self.static_len()
            + self
                .gens
                .iter()
                .map(|(_, rows, _)| rows.len())
                .sum::<usize>()
    }

    /// One past the highest recovered global id.
    fn end(&self) -> u64 {
        self.manifest.static_base + self.total() as u64
    }

    /// Rows recovered from the WAL files past the static end: every
    /// generation journaled since the last merge, sealed or still open at
    /// the time of the crash, unless a baseline wrote it as a segment.
    pub fn wal_rows(&self) -> usize {
        self.wal_rows
    }

    /// Generations recovered from baseline `gen-*.seg` segments (the rest
    /// came from their WALs).
    pub fn segments(&self) -> usize {
        self.gens.iter().filter(|(_, _, w)| !w).count()
    }

    /// All recovered rows in id order (cloned; recovery-time only).
    pub fn all_rows(&self) -> Vec<SparseVector> {
        let mut rows = self.static_rows.clone();
        for (_, gen_rows, _) in &self.gens {
            rows.extend(gen_rows.iter().cloned());
        }
        rows
    }

    /// Every tombstoned id the directory knows about (manifest pending +
    /// purged + delete log), deduplicated, ascending.
    pub fn tombstones(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .manifest
            .pending
            .iter()
            .chain(&self.manifest.purged)
            .chain(&self.tomb)
            .copied()
            .filter(|&id| (id as u64) >= self.manifest.static_base && (id as u64) < self.end())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The generation file at `base`: its `gen-<base>.seg` segment if there
/// is one, else the whole records of `wal-<base>.log` up to the first torn
/// or corrupt one. Returns the rows and whether they came from the WAL;
/// `None` when neither form holds a row. A corrupt segment (it was written
/// via rename, so only external damage produces one) gives `None` too
/// rather than an error.
fn read_generation(data: &Path, base: u32) -> io::Result<Option<(Vec<SparseVector>, bool)>> {
    let seg = gen_path(data, base);
    if seg.exists() {
        return Ok(
            match fs::read(&seg).and_then(|b| decode_segment(GEN_MAGIC, base as u64, &b)) {
                Ok(rows) if !rows.is_empty() => Some((rows, false)),
                _ => None,
            },
        );
    }
    let wal = wal_path(data, base);
    if !wal.exists() {
        return Ok(None);
    }
    let mut rows: Vec<SparseVector> = Vec::new();
    replay_log(&wal, |payload| {
        let mut r = payload;
        let mut tag = [0u8; 1];
        if r.read_exact(&mut tag).is_err() || tag[0] != TAG_INSERT {
            return false;
        }
        let Ok(from) = get_u32(&mut r) else {
            return false;
        };
        if from != base + rows.len() as u32 {
            return false;
        }
        match get_rows(&mut r) {
            Ok(batch) => {
                rows.extend(batch);
                true
            }
            Err(_) => false,
        }
    })?;
    Ok((!rows.is_empty()).then_some((rows, true)))
}

/// Reads the durable state out of an engine directory without building an
/// engine: manifest → checkpoint segment → the folded range's generation
/// files → the contiguous chain of unfolded generation files (a segment,
/// else a WAL, at each base) → delete log. The chain stops at the first
/// gap in the id space (the crash tail); a torn WAL or delete-log record
/// is dropped silently, with everything after it. A folded range that
/// does not reach the static end is an error: the manifest committed it.
pub fn load_state(dir: impl AsRef<Path>) -> io::Result<RecoveredState> {
    let dir = dir.as_ref();
    let bytes = fs::read(dir.join(MANIFEST)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{}: no recoverable index ({e})", dir.display()),
        )
    })?;
    let manifest = Manifest::decode(&bytes)?;
    let data = data_dir(dir, manifest.reset);

    // Static rows from the cut on: the checkpoint's, then the folded
    // files' (the first may straddle the cut).
    let cut = manifest.static_base;
    let mut static_rows = match &manifest.checkpoint {
        Some(c) => {
            let bytes = fs::read(static_path(&data, c.seq))?;
            let mut rows = decode_checkpoint(manifest.held_from, c, &bytes)?;
            rows.drain(..(cut - manifest.held_from) as usize);
            rows
        }
        None => Vec::new(),
    };
    let mut folded = Vec::new();
    let mut at = manifest.fold_from();
    while at < manifest.static_end() {
        let Some((rows, from_wal)) = read_generation(&data, at as u32)? else {
            return Err(bad(format!("folded range broken at id {at}")));
        };
        let skip = cut.saturating_sub(at) as usize;
        folded.push((at as u32, from_wal));
        at += rows.len() as u64;
        static_rows.extend(rows.into_iter().skip(skip));
    }
    if at != manifest.static_end() {
        return Err(bad(format!(
            "folded range ends at id {at}, the static at {}",
            manifest.static_end()
        )));
    }

    let mut gens: Vec<(u32, Vec<SparseVector>, bool)> = Vec::new();
    let mut wal_rows = 0usize;
    let mut next = manifest.static_end() as u32;
    // Each file starts where the previous one's whole records end, so a
    // torn or corrupt record ends the chain: nothing written after it
    // lines up.
    while let Some((rows, from_wal)) = read_generation(&data, next)? {
        if from_wal {
            wal_rows += rows.len();
        }
        next += rows.len() as u32;
        gens.push((next - rows.len() as u32, rows, from_wal));
    }

    let mut tomb = Vec::new();
    let mut tomb_retire = 0u32;
    replay_log(&tomb_path(&data), |payload| {
        if payload.len() != 5 {
            return false;
        }
        let arg = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes"));
        match payload[0] {
            TAG_DELETE => {
                tomb.push(arg);
                true
            }
            TAG_RETIRE => {
                tomb_retire = tomb_retire.max(arg);
                true
            }
            _ => false,
        }
    })?;

    Ok(RecoveredState {
        manifest,
        static_rows,
        folded,
        gens,
        tomb,
        tomb_retire,
        wal_rows,
        auto_merge: true,
    })
}

/// Rebuilds an [`Engine`] from a recovered state, optionally truncated to
/// the first `keep` rows (sharded recovery truncates every shard to the
/// longest globally-contiguous prefix). This is the one rebuild routine —
/// directory recovery and [`Snapshot::restore`] both end here. Purged ids
/// are replayed through the static merge so the purge accounting matches;
/// generation boundaries within the kept rows are reproduced exactly.
pub fn rebuild_engine(
    st: &RecoveredState,
    keep: Option<usize>,
    pool: &ThreadPool,
) -> PlshResult<Engine> {
    let keep = keep.unwrap_or_else(|| st.total()).min(st.total());
    let m = &st.manifest;
    let base = st.static_base();
    let mut config = EngineConfig::new(m.params.clone(), m.capacity as usize)
        .with_eta(m.eta)
        .with_seal_min_points(m.seal_min_points as usize);
    if let Some(w) = m.window {
        config = config.with_window(w);
    }
    if !st.auto_merge {
        config = config.manual_merge();
    }
    let engine = Engine::new(config, pool)?;
    if base > 0 {
        // Land the id space where the compacted directory left it: the
        // first recovered row keeps its global id.
        engine.fast_forward_empty(base);
    }
    let split = st.static_len().min(keep);
    if split > 0 {
        engine.insert_batch_deferring_merge(&st.static_rows[..split], pool)?;
        engine.seal();
        for &id in &m.purged {
            if (id.saturating_sub(base) as usize) < split {
                engine.delete(id);
            }
        }
        engine.merge_delta(pool);
    }
    let mut at = split;
    for (gen_base, rows, _) in &st.gens {
        if at >= keep {
            break;
        }
        debug_assert_eq!(
            *gen_base as u64,
            base as u64 + at.max(st.static_len()) as u64
        );
        let take = rows.len().min(keep - at);
        engine.insert_batch_deferring_merge(&rows[..take], pool)?;
        engine.seal();
        at += take;
    }
    for &id in m.pending.iter().chain(&st.tomb) {
        if ((id.saturating_sub(base)) as usize) < keep {
            engine.delete(id);
        }
    }
    // Re-arm the watermark last, with no merge after it: the recovered
    // engine's compaction state (static_base) matches the directory's, and
    // the retired-pending-purge backlog is carried over rather than
    // silently purged by the rebuild.
    let _ = engine.retire_to(st.retired_below());
    Ok(engine)
}

impl Engine {
    /// Attaches incremental durability to this engine: writes a full
    /// baseline of the current contents into `dir` (which must not
    /// already hold a persisted index), then keeps the directory in sync
    /// from every insert, seal, delete, merge, and clear. See the
    /// [module docs](self) for the file layout and crash semantics.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> PlshResult<()> {
        self.attach_persister(dir.as_ref())
    }

    /// Recovers an engine from a directory written by
    /// [`persist_to`](Self::persist_to), re-attaching persistence so the
    /// recovered engine keeps journaling. Answers are bit-identical to a
    /// from-scratch build over the recovered rows (property-tested).
    pub fn recover_from(dir: impl AsRef<Path>, pool: &ThreadPool) -> PlshResult<Engine> {
        let st = load_state(dir.as_ref())?;
        recover_engine_from_state(dir, &st, pool)
    }
}

/// Finish a recovery whose state was already loaded (sharded recovery
/// loads every shard first to compute the global truncation point):
/// rebuild the engine and re-attach the persister.
pub fn recover_engine_from_state(
    dir: impl AsRef<Path>,
    st: &RecoveredState,
    pool: &ThreadPool,
) -> PlshResult<Engine> {
    let engine = rebuild_engine(st, None, pool)?;
    let persister = EnginePersister::attach_recovered(dir.as_ref(), st)?;
    engine.set_persister(persister);
    Ok(engine)
}

// ---------------------------------------------------------------------
// Snapshot streams: the manifest and segments above, length-prefixed
// ---------------------------------------------------------------------

/// A snapshot's rows as its static prefix and its delta suffix.
fn split_rows(s: &Snapshot) -> (&[SparseVector], &[SparseVector]) {
    s.vectors
        .split_at((s.static_len as usize).min(s.vectors.len()))
}

impl RecoveredState {
    /// A snapshot as recovered state: its static prefix, its delta suffix
    /// as one sealed generation, no delete log, and manual merging.
    pub(crate) fn of_snapshot(s: &Snapshot) -> Self {
        let (static_rows, delta) = split_rows(s);
        Self {
            manifest: Manifest::of_snapshot(s),
            static_rows: static_rows.to_vec(),
            folded: Vec::new(),
            gens: vec![((s.base + s.static_len) as u32, delta.to_vec(), false)],
            tomb: Vec::new(),
            tomb_retire: 0,
            wal_rows: 0,
            auto_merge: false,
        }
    }
}

/// Writes `s` as three length-prefixed blocks: its manifest, a `STATIC`
/// segment of the static prefix and a `GEN` segment of the delta suffix.
pub(crate) fn write_snapshot<W: Write>(s: &Snapshot, w: &mut W) -> io::Result<()> {
    let (static_rows, delta) = split_rows(s);
    let blocks = [
        Manifest::of_snapshot(s).encode(),
        encode_segment(STATIC_MAGIC, s.base, vector_rows(static_rows)),
        encode_segment(GEN_MAGIC, s.base + s.static_len, vector_rows(delta)),
    ];
    for block in blocks {
        w.write_all(&(block.len() as u64).to_le_bytes())?;
        w.write_all(&block)?;
    }
    Ok(())
}

/// Reads back the blocks [`write_snapshot`] wrote, checksums included,
/// and checks the invariants a snapshot adds to the manifest's own.
pub(crate) fn read_snapshot<R: Read>(r: &mut R) -> io::Result<Snapshot> {
    let m = Manifest::decode(&read_block(r)?)?;
    // A snapshot's checkpoint is its whole static prefix.
    let whole = match m.checkpoint {
        Some(c) if m.held_from == m.static_base && c.len == m.static_len => c,
        _ => return Err(bad("snapshot static prefix is not one checkpoint")),
    };
    let mut vectors = decode_checkpoint(m.static_base, &whole, &read_block(r)?)?;
    let delta_base = m.static_base + m.static_len;
    vectors.extend(decode_segment(GEN_MAGIC, delta_base, &read_block(r)?)?);
    let (dim, end) = (m.params.dim(), m.static_base + vectors.len() as u64);
    if vectors.len() as u64 > m.capacity {
        return Err(bad("snapshot holds more points than its capacity"));
    }
    if m.retired_below > end {
        return Err(bad("retired_below beyond the stored id range"));
    }
    if let Some(row) = vectors.iter().position(|v| v.max_index() >= Some(dim)) {
        return Err(bad(format!("row {row} exceeds dimensionality {dim}")));
    }
    // The manifest range-checks purged ids, not pending ones.
    let stored = m.static_base..end;
    if let Some(id) = m.pending.iter().find(|&&id| !stored.contains(&(id as u64))) {
        return Err(bad(format!("tombstone {id} out of range")));
    }
    Ok(Snapshot {
        params: m.params,
        capacity: m.capacity,
        eta: m.eta,
        static_len: m.static_len,
        base: m.static_base,
        retired_below: m.retired_below,
        vectors,
        deleted: m.pending,
        purged: m.purged,
    })
}

/// One length-prefixed block. The prefix never sizes a buffer: `take` +
/// `read_to_end` grow it only as bytes actually arrive.
fn read_block<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let len = get_u64(r)?;
    let mut block = Vec::new();
    r.by_ref().take(len).read_to_end(&mut block)?;
    if block.len() as u64 != len {
        return Err(bad("snapshot block truncated"));
    }
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Serializes the tests that write a directory with the one that arms
    /// the process-global fail injector (an armed injector freezes every
    /// test's I/O, not just its own).
    static FAIL_GUARD: Mutex<()> = Mutex::new(());

    fn params(seed: u64) -> PlshParams {
        PlshParams::builder(32)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn vectors(n: usize, seed: u64) -> Vec<SparseVector> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let a = rng.next_below(32) as u32;
                let b = (a + 1 + rng.next_below(31) as u32) % 32;
                SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
            })
            .collect()
    }

    fn answers(e: &Engine, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
        qs.iter()
            .map(|q| {
                let mut hits: Vec<(u32, u32)> = e
                    .query(q)
                    .iter()
                    .map(|h| (h.index, h.distance.to_bits()))
                    .collect();
                hits.sort_unstable();
                hits
            })
            .collect()
    }

    /// The segment encoding as it was first written: each row copied out
    /// as a `SparseVector`, every field pushed on its own.
    fn reference_segment(magic: &[u8; 4], base: u64, rows: &[SparseVector]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(magic);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, base);
        put_u64(&mut out, rows.len() as u64);
        for v in rows {
            put_u32(&mut out, v.nnz() as u32);
            for &d in v.indices() {
                put_u32(&mut out, d);
            }
            for &x in v.values() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        let crc = checksum(&out);
        put_u32(&mut out, crc);
        out
    }

    #[test]
    fn static_segment_bytes_match_the_row_by_row_encoding() {
        let mut data = CrsMatrix::new(32);
        let mut rows = vectors(5, 4);
        rows.insert(2, SparseVector::zero());
        for v in &rows {
            data.push(v).unwrap();
        }
        assert_eq!(data.row(2).0.len(), 0, "the fixture holds an empty row");
        let want = reference_segment(STATIC_MAGIC, 77, &rows);
        assert_eq!(encode_segment(STATIC_MAGIC, 77, crs_rows(&data)), want);
        assert_eq!(encode_segment(STATIC_MAGIC, 77, vector_rows(&rows)), want);
        let empty = CrsMatrix::new(32);
        assert_eq!(
            encode_segment(GEN_MAGIC, 0, crs_rows(&empty)),
            reference_segment(GEN_MAGIC, 0, &[])
        );
    }

    #[test]
    fn wal_segments_and_merge_round_trip() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-roundtrip");
        let pool = ThreadPool::new(1);
        let vs = vectors(120, 9);
        let engine = Engine::new(EngineConfig::new(params(3), 500).manual_merge(), &pool).unwrap();
        engine.persist_to(&tmp).unwrap();
        engine.insert_batch(&vs[..50], &pool).unwrap();
        engine.delete(7);
        engine.merge_delta(&pool);
        engine.insert_batch(&vs[50..90], &pool).unwrap();
        engine.delete(60);

        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), engine.len());
        assert_eq!(back.static_len(), engine.static_len());
        assert_eq!(back.purged_ids(), engine.purged_ids());
        assert!(back.is_deleted(7) && back.is_deleted(60));
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn open_generation_survives_via_wal() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-open-gen");
        let pool = ThreadPool::new(1);
        let vs = vectors(40, 11);
        let engine = Engine::new(
            EngineConfig::new(params(4), 100)
                .manual_merge()
                .with_seal_min_points(64),
            &pool,
        )
        .unwrap();
        engine.persist_to(&tmp).unwrap();
        // Everything stays in the open generation: only the WAL has it.
        for chunk in vs.chunks(7) {
            engine.insert_batch(chunk, &pool).unwrap();
        }
        assert_eq!(engine.visible_len(), 0);

        let back = Engine::recover_from(&tmp, &pool).unwrap();
        back.seal();
        engine.seal();
        assert_eq!(back.len(), vs.len());
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        // The recovered WAL stays as the sealed generation's durable form;
        // recovery writes no segment for it.
        assert!(!gen_path(&data_dir(Path::new(&tmp), 0), 0).exists());
        assert!(wal_path(&data_dir(Path::new(&tmp), 0), 0).exists());
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn baseline_of_populated_engine_and_clear() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-baseline");
        let pool = ThreadPool::new(1);
        let vs = vectors(80, 21);
        let engine = Engine::new(EngineConfig::new(params(5), 200).manual_merge(), &pool).unwrap();
        engine.insert_batch(&vs[..30], &pool).unwrap();
        engine.merge_delta(&pool);
        engine.insert_batch(&vs[30..], &pool).unwrap();
        engine.delete(3);
        // Baseline written mid-life, with static + sealed + tombstones.
        engine.persist_to(&tmp).unwrap();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));

        engine.clear();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), 0);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_dropped() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-torn");
        let pool = ThreadPool::new(1);
        let vs = vectors(30, 31);
        let engine = Engine::new(
            EngineConfig::new(params(6), 100)
                .manual_merge()
                .with_seal_min_points(64),
            &pool,
        )
        .unwrap();
        engine.persist_to(&tmp).unwrap();
        for chunk in vs.chunks(10) {
            engine.insert_batch(chunk, &pool).unwrap();
        }
        // Tear the last record: recovery must come back with exactly the
        // first two batches.
        let wal = wal_path(&data_dir(Path::new(&tmp), 0), 0);
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..bytes.len() - 11]).unwrap();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), 20);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    /// `(gen-*.seg, wal-*.log)` file counts of a directory's live data.
    fn generation_files(dir: &Path) -> (usize, usize) {
        let names: Vec<String> = fs::read_dir(data_dir(dir, 0))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        let count = |prefix: &str, suffix: &str| {
            names
                .iter()
                .filter(|n| parse_numbered(n, prefix, suffix).is_some())
                .count()
        };
        (count("gen-", ".seg"), count("wal-", ".log"))
    }

    fn data_bytes(dir: &Path) -> u64 {
        fs::read_dir(data_dir(dir, 0))
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .sum()
    }

    #[test]
    fn sealed_generations_stay_in_their_wals() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let pool = ThreadPool::new(1);
        let vs = vectors(90, 51);
        // (seal_min_points, batch, sealed generations): one generation per
        // batch, then one per three batches.
        for (seal_min, batch, sealed) in [(1usize, 10usize, 9usize), (25, 10, 3)] {
            let tmp = tempdir(&format!("persist-wal-gens-{seal_min}"));
            let engine = Engine::new(
                EngineConfig::new(params(8), 200)
                    .manual_merge()
                    .with_seal_min_points(seal_min),
                &pool,
            )
            .unwrap();
            engine.persist_to(&tmp).unwrap();
            for chunk in vs.chunks(batch) {
                engine.insert_batch(chunk, &pool).unwrap();
            }
            assert_eq!(engine.visible_len(), vs.len(), "every batch sealed");
            assert_eq!(generation_files(&tmp), (0, sealed));

            let st = load_state(&tmp).unwrap();
            assert_eq!((st.segments(), st.wal_rows()), (0, vs.len()));
            assert_eq!(st.all_rows(), vs);
            let back = Engine::recover_from(&tmp, &pool).unwrap();
            assert_eq!(back.len(), vs.len());
            assert_eq!(answers(&back, &vs), answers(&engine, &vs));
            // Recovery keeps the WALs as they are.
            assert_eq!(generation_files(&tmp), (0, sealed));
            std::fs::remove_dir_all(&tmp).unwrap();
        }
    }

    #[test]
    fn sealing_writes_nothing() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-seal-no-io");
        let pool = ThreadPool::new(1);
        let vs = vectors(40, 53);
        let engine = Engine::new(
            EngineConfig::new(params(9), 100)
                .manual_merge()
                .with_seal_min_points(1000),
            &pool,
        )
        .unwrap();
        engine.persist_to(&tmp).unwrap();
        engine.insert_batch(&vs[..20], &pool).unwrap();
        let before = (generation_files(&tmp), data_bytes(&tmp));
        fail::arm(0); // any I/O the seal attempted would be counted
        assert!(engine.seal());
        let ops = fail::ops_used();
        fail::disarm();
        assert_eq!(ops, 0, "sealing touched the disk");
        assert_eq!((generation_files(&tmp), data_bytes(&tmp)), before);
        // The next batch opens the next generation's WAL.
        engine.insert_batch(&vs[20..], &pool).unwrap();
        assert!(wal_path(&data_dir(&tmp, 0), 20).exists());
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        back.seal();
        engine.seal();
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn baseline_segments_then_live_wals_recover_in_order() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-seg-then-wal");
        let pool = ThreadPool::new(1);
        let vs = vectors(100, 55);
        let engine = Engine::new(EngineConfig::new(params(10), 200).manual_merge(), &pool).unwrap();
        engine.insert_batch(&vs[..20], &pool).unwrap();
        engine.merge_delta(&pool);
        for chunk in vs[20..50].chunks(10) {
            engine.insert_batch(chunk, &pool).unwrap();
        }
        // The baseline writes the static prefix and three sealed segments;
        // the live journal adds one WAL per batch after them.
        engine.persist_to(&tmp).unwrap();
        for chunk in vs[50..].chunks(10) {
            engine.insert_batch(chunk, &pool).unwrap();
        }
        assert_eq!(generation_files(&tmp), (3, 5));

        let st = load_state(&tmp).unwrap();
        assert_eq!(st.static_len(), 20);
        assert_eq!((st.segments(), st.wal_rows()), (3, 50));
        assert_eq!(st.all_rows(), vs);
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        assert_eq!(generation_files(&tmp), (3, 5));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn a_corrupt_record_in_a_middle_wal_ends_the_prefix_there() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-mid-wal-flip");
        let pool = ThreadPool::new(1);
        let vs = vectors(60, 57);
        let fresh = vectors(30, 58);
        let config = || {
            EngineConfig::new(params(11), 200)
                .manual_merge()
                .with_seal_min_points(20)
        };
        let engine = Engine::new(config(), &pool).unwrap();
        engine.persist_to(&tmp).unwrap();
        // Three sealed generations of two 10-row records each.
        for chunk in vs.chunks(10) {
            engine.insert_batch(chunk, &pool).unwrap();
        }
        drop(engine);
        let data = data_dir(&tmp, 0);
        assert_eq!(generation_files(&tmp), (0, 3));

        // Flip a payload byte of the second record of the middle WAL.
        let wal = wal_path(&data, 20);
        let mut bytes = fs::read(&wal).unwrap();
        let first = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        bytes[first + 8 + 5] ^= 0x40;
        fs::write(&wal, &bytes).unwrap();

        let st = load_state(&tmp).unwrap();
        assert_eq!(st.total(), 30, "the prefix ends at the corrupt record");
        assert_eq!(st.all_rows(), &vs[..30]);
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), 30);
        assert!(
            !wal_path(&data, 40).exists(),
            "the file past the gap survived"
        );

        // New rows take ids 30.. and nothing written before the crash
        // past the corrupt record comes back.
        for chunk in fresh.chunks(10) {
            back.insert_batch(chunk, &pool).unwrap();
        }
        back.seal();
        drop(back);
        let again = Engine::recover_from(&tmp, &pool).unwrap();
        let expect: Vec<SparseVector> = vs[..30].iter().chain(&fresh).cloned().collect();
        assert_eq!(load_state(&tmp).unwrap().all_rows(), expect);
        let scratch = Engine::new(config(), &pool).unwrap();
        scratch.insert_batch(&expect, &pool).unwrap();
        scratch.seal();
        assert_eq!(answers(&again, &expect), answers(&scratch, &expect));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    /// Names of the files in a directory's live data.
    fn data_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(data_dir(dir, 0))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    fn segment_files(dir: &Path) -> usize {
        data_files(dir)
            .iter()
            .filter(|n| n.ends_with(".seg"))
            .count()
    }

    /// Checkpoint segments plus generation files in a directory's live
    /// data: the files recovery opens.
    fn held_files(dir: &Path) -> usize {
        segment_files(dir) + generation_files(dir).1
    }

    #[test]
    fn a_windowed_merge_writes_no_segment_and_unlinks_below_the_cut() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-window-fold");
        let pool = ThreadPool::new(1);
        const WINDOW: usize = 200;
        const BATCH: usize = 50;
        let vs = vectors(WINDOW * 21, 61);
        let engine = Engine::new(
            EngineConfig::new(params(12), 3 * WINDOW)
                .manual_merge()
                .with_window(WindowSpec::Docs(WINDOW as u32)),
            &pool,
        )
        .unwrap();
        // A populated baseline: its static is a checkpoint, which the cut
        // passes whole one window later.
        engine.insert_batch(&vs[..WINDOW], &pool).unwrap();
        engine.merge_delta(&pool);
        engine.persist_to(&tmp).unwrap();
        assert_eq!(segment_files(&tmp), 1);
        for window in vs[WINDOW..].chunks(WINDOW) {
            for batch in window.chunks(BATCH) {
                engine.insert_batch(batch, &pool).unwrap();
            }
            engine.merge_delta(&pool);
        }
        assert_eq!(engine.static_len(), WINDOW);

        assert_eq!(segment_files(&tmp), 0, "{:?}", data_files(&tmp));
        let st = load_state(&tmp).unwrap();
        let m = &st.manifest;
        assert_eq!(m.checkpoint, None);
        assert_eq!(
            (m.static_base, m.static_len),
            ((20 * WINDOW) as u64, WINDOW as u64)
        );
        // The folded range covers the window and nothing below the cut.
        assert_eq!(m.fold_from(), m.static_base);
        let bases: Vec<u32> = st.folded.iter().map(|&(b, _)| b).collect();
        let want: Vec<u32> = (m.static_base as u32..m.static_end() as u32)
            .step_by(BATCH)
            .collect();
        assert_eq!(bases, want);
        let wals = data_files(&tmp)
            .iter()
            .filter_map(|n| parse_numbered(n, "wal-", ".log"))
            .count();
        assert_eq!(wals, WINDOW / BATCH, "{:?}", data_files(&tmp));
        assert_eq!(st.all_rows(), &vs[20 * WINDOW..]);

        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), engine.len());
        assert_eq!(back.static_len(), engine.static_len());
        assert_eq!(back.retired_below(), engine.retired_below());
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn dead_rows_below_the_cut_past_live_ones_buy_a_checkpoint() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-checkpoint");
        let pool = ThreadPool::new(1);
        let vs = vectors(300, 63);
        let engine = Engine::new(EngineConfig::new(params(13), 500).manual_merge(), &pool).unwrap();
        engine.persist_to(&tmp).unwrap();
        engine.insert_batch(&vs[..200], &pool).unwrap();
        engine.merge_delta(&pool);
        // The merge folds the WAL and writes no segment.
        assert_eq!((generation_files(&tmp), segment_files(&tmp)), ((0, 1), 0));

        // Purged rows keep their contents in a checkpoint, so purging
        // half of the static buys none.
        for id in 100..200 {
            assert!(engine.delete(id));
        }
        engine.merge_delta(&pool);
        assert_eq!((generation_files(&tmp), segment_files(&tmp)), ((0, 1), 0));

        // 90 of the WAL's 200 rows below the cut: still fewer than live.
        assert!(engine.retire_to(90).unwrap());
        engine.merge_delta(&pool);
        assert_eq!((generation_files(&tmp), segment_files(&tmp)), ((0, 1), 0));

        // 110 below the cut, 90 live: the checkpoint replaces the WAL.
        assert!(engine.retire_to(110).unwrap());
        engine.merge_delta(&pool);
        assert_eq!((generation_files(&tmp), segment_files(&tmp)), ((0, 0), 1));
        let st = load_state(&tmp).unwrap();
        let c = st.manifest.checkpoint.expect("a checkpoint");
        assert_eq!((st.manifest.held_from, c.len), (110, 90));
        assert_eq!(st.manifest.fold_from(), 200);
        assert_eq!(st.all_rows(), &vs[110..200]);
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.purged_ids(), engine.purged_ids());
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        drop(back);

        // The checkpoint paid for those rows: the next merge folds again.
        engine.insert_batch(&vs[200..], &pool).unwrap();
        engine.merge_delta(&pool);
        assert_eq!((generation_files(&tmp), segment_files(&tmp)), ((0, 1), 1));
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), engine.len());
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn small_append_only_batches_keep_the_held_files_bounded() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-small-batches");
        let pool = ThreadPool::new(1);
        let vs = vectors(600, 69);
        let engine =
            Engine::new(EngineConfig::new(params(16), 1_000).manual_merge(), &pool).unwrap();
        engine.persist_to(&tmp).unwrap();
        // One document per call: a WAL each, and a merge every 20.
        let mut checkpoints = 0;
        for (i, v) in vs.iter().enumerate() {
            engine.insert_batch(std::slice::from_ref(v), &pool).unwrap();
            if (i + 1) % 20 == 0 {
                let before = load_state(&tmp).unwrap().manifest.checkpoint;
                engine.merge_delta(&pool);
                let after = load_state(&tmp).unwrap().manifest.checkpoint;
                checkpoints += usize::from(after != before);
                let (files, live) = (held_files(&tmp) as u64, engine.static_len() as u64);
                assert!(
                    files <= 1 + live / FILE_ROWS,
                    "{files} held files for {live} rows: {:?}",
                    data_files(&tmp)
                );
            }
        }
        // A merge's 20 files pay for a checkpoint only while the static
        // holds at most 20 × FILE_ROWS rows; past that, some merges fold.
        assert!((1..30).contains(&checkpoints), "{checkpoints} checkpoints");
        assert_eq!(load_state(&tmp).unwrap().all_rows(), vs);
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), vs.len());
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn a_doc_count_window_journals_no_watermark() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-docs-window");
        let pool = ThreadPool::new(1);
        let vs = vectors(200, 65);
        let engine = Engine::new(
            EngineConfig::new(params(14), 300)
                .manual_merge()
                .with_window(WindowSpec::Docs(25)),
            &pool,
        )
        .unwrap();
        engine.persist_to(&tmp).unwrap();
        for batch in vs.chunks(10) {
            engine.insert_batch(batch, &pool).unwrap();
        }
        assert_eq!(engine.retired_below(), 175);
        let tomb = tomb_path(&data_dir(&tmp, 0));
        assert_eq!(fs::metadata(&tomb).map_or(0, |m| m.len()), 0);
        // Recovery recomputes the watermark from the row count.
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.retired_below(), engine.retired_below());
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        drop(back);
        // An explicit cut is not a function of the rows: it is journaled.
        assert!(engine.retire_to(190).unwrap());
        assert!(fs::metadata(&tomb).unwrap().len() > 0);
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.retired_below(), 190);
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    /// The manifest layout an older build wrote: v2, whose static segment
    /// held the whole static.
    fn encode_v2(m: &Manifest) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut out, 2);
        put_u32(&mut out, m.params.dim());
        put_u32(&mut out, m.params.k());
        put_u32(&mut out, m.params.m());
        put_f64(&mut out, m.params.radius());
        put_f64(&mut out, m.params.delta());
        put_u64(&mut out, m.params.seed());
        put_u64(&mut out, m.capacity);
        put_f64(&mut out, m.eta);
        put_u64(&mut out, m.seal_min_points);
        put_u64(&mut out, m.reset);
        put_u64(&mut out, m.checkpoint.map_or(NO_STATIC, |c| c.seq));
        put_u64(&mut out, m.static_len);
        put_u64(&mut out, m.static_base);
        put_u64(&mut out, m.retired_below);
        let (wtag, warg) = encode_window(m.window);
        out.push(wtag);
        put_u64(&mut out, warg);
        put_u64(&mut out, m.purged.len() as u64);
        for &id in &m.purged {
            put_u32(&mut out, id);
        }
        put_u64(&mut out, m.pending.len() as u64);
        for &id in &m.pending {
            put_u32(&mut out, id);
        }
        let crc = checksum(&out);
        put_u32(&mut out, crc);
        out
    }

    #[test]
    fn a_v2_manifest_from_an_older_build_still_recovers() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-v2");
        let pool = ThreadPool::new(1);
        let vs = vectors(90, 67);
        let engine = Engine::new(EngineConfig::new(params(15), 300).manual_merge(), &pool).unwrap();
        engine.insert_batch(&vs[..50], &pool).unwrap();
        engine.delete(7);
        engine.merge_delta(&pool);
        // An older build's layout: one static segment holding the whole
        // static, the WALs after it, a tombstone log.
        engine.persist_to(&tmp).unwrap();
        for batch in vs[50..].chunks(10) {
            engine.insert_batch(batch, &pool).unwrap();
        }
        engine.delete(60);
        let st = load_state(&tmp).unwrap();
        let c = st.manifest.checkpoint.expect("a static segment");
        assert_eq!(
            (st.manifest.held_from, c.len),
            (st.manifest.static_base, st.manifest.static_len)
        );
        fs::write(tmp.join(MANIFEST), encode_v2(&st.manifest)).unwrap();

        let old = load_state(&tmp).unwrap();
        assert_eq!(old.manifest.checkpoint, Some(c));
        assert_eq!(old.manifest.fold_from(), 50);
        assert_eq!(old.all_rows(), vs);
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.purged_ids(), vec![7]);
        assert!(back.is_deleted(60));
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        // The recovered engine journals on in v3: its next merge folds.
        back.merge_delta(&pool);
        drop(back);
        let again = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(answers(&again, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_clean_error() {
        let tmp = tempdir("persist-nomanifest");
        fs::create_dir_all(&tmp).unwrap();
        let err = load_state(&tmp).unwrap_err();
        assert!(err.to_string().contains("no recoverable index"));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn fail_injection_freezes_the_directory() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-freeze");
        let pool = ThreadPool::new(1);
        let vs = vectors(60, 41);
        let engine = Engine::new(EngineConfig::new(params(7), 200).manual_merge(), &pool).unwrap();
        engine.persist_to(&tmp).unwrap();
        engine.insert_batch(&vs[..20], &pool).unwrap();
        fail::arm(0); // power already cut: nothing below reaches the disk
        engine.insert_batch(&vs[20..], &pool).unwrap();
        engine.delete(1);
        engine.merge_delta(&pool);
        fail::disarm();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), 20, "frozen ops must not be recoverable");
        assert!(!back.is_deleted(1));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("plsh-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}
