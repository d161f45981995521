//! Crash-safe segment-log persistence for the result cache
//! (DESIGN.md §14).
//!
//! ## Log format
//!
//! A persistence directory holds append-only **segments** named
//! `seg-NNNNNN.log`, replayed in ascending index order. Each segment
//! starts with an 8-byte magic (`MPCSEG1\0`) followed by
//! length-prefixed, checksummed records:
//!
//! ```text
//! ┌────────────┬──────────────┬──────────┬──────────────┐
//! │ u32 len    │ u64 checksum │ body     │ u8 commit    │
//! │ (body LE)  │ FNV-1a over  │ len bytes│ marker 0xC7  │
//! │            │ len ++ body  │          │              │
//! └────────────┴──────────────┴──────────┴──────────────┘
//! body := u64 key · u64 bytes · u32 fp_len · u32 ov_len
//!       · u32 nbufs (u32::MAX = no payload)
//!       · fp_len × u64 · ov_len × u64
//!       · per buf: u32 len · len × u64 (f64 bit patterns)
//! ```
//!
//! ## Commit discipline
//!
//! A record is written in two flushed steps: header + body first, the
//! trailing commit marker only after the body reached the file. A crash
//! between the two leaves a record whose marker byte is missing (torn
//! tail) or stale (rejected), so **a record is live iff its length,
//! checksum and commit marker all agree** — there is no state in which
//! a half-written record can replay as data.
//!
//! ## Recovery rules
//!
//! `replay` walks every segment byte by byte and **rejects rather
//! than trusts**: a short/bad magic rejects the whole segment; a torn
//! tail (fewer bytes than a record header) or a length pointing past
//! the segment end rejects the remainder of that segment; a checksum,
//! commit-marker, structural-parse or fingerprint/key mismatch rejects
//! that record and resumes at the next length boundary. Every reject is
//! counted in [`LoadReport`]; the caller ends up with a smaller — never
//! a wrong — cache, and loaded entries still pass the word-for-word
//! fingerprint verification on every lookup.
//!
//! ## Fault injection
//!
//! [`PersistFaultPlan`] mirrors `mp_fault::FaultPlan`'s philosophy:
//! deterministic, seedable, no wall clock. `kill_after_bytes` cuts the
//! record stream mid-write at an exact byte offset (the prefix lands on
//! disk, the writer dies); `drop_flush_after` freezes the durable
//! frontier so `SegmentWriter::crash` discards everything written
//! after flush `k` (lost page-cache model); `bit_flip` flips one bit of
//! the on-disk image at crash time (silent media corruption model).

use std::fs::{self, File, OpenOptions};
use std::io;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mp_dag::hash;

use crate::CacheEntry;

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"MPCSEG1\0";

/// Trailing byte of every committed record.
pub const COMMIT_MARKER: u8 = 0xC7;

/// Bytes before the body: `u32` length + `u64` checksum.
const RECORD_HEADER_BYTES: usize = 12;

/// Upper bound on one record body — anything larger is a corrupt
/// length, not a plausible cache entry.
const MAX_BODY_BYTES: u32 = 1 << 30;

/// Upper bound on fingerprint / out-version word counts.
const MAX_VEC_WORDS: u32 = 1 << 20;

/// Upper bound on payload buffer count.
const MAX_PAYLOAD_BUFS: u32 = 1 << 20;

/// No-payload sentinel for the `nbufs` body field.
const NO_PAYLOAD: u32 = u32::MAX;

/// One deliberate bit flip applied to the on-disk image at crash time.
/// `offset` indexes the concatenation of all segment bytes in replay
/// order (taken modulo the total length), `bit` the bit within that
/// byte (modulo 8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitFlip {
    /// Byte offset into the concatenated segment image.
    pub offset: u64,
    /// Bit index within the byte (`% 8`).
    pub bit: u8,
}

/// Deterministic fault plan for the persistence layer. All knobs
/// default to off; the `seed` exists so sweeps can derive offsets via
/// `mp_fault::splitmix64` without any wall-clock or RNG state.
#[derive(Clone, Copy, Debug, Default)]
pub struct PersistFaultPlan {
    /// Sweep seed (not consumed by the writer itself — offsets derived
    /// from it stay reproducible across runs).
    pub seed: u64,
    /// Kill the writer mid-write once this many record-stream bytes
    /// have been submitted: the write crossing the threshold lands only
    /// its prefix and every later persist is silently dropped.
    pub kill_after_bytes: Option<u64>,
    /// Flushes with ordinal `>= k` stop advancing the durable frontier:
    /// at `SegmentWriter::crash` the current segment is
    /// truncated back to the last durable byte (lost-page-cache model).
    pub drop_flush_after: Option<u64>,
    /// Flip one bit of the on-disk image at crash time.
    pub bit_flip: Option<BitFlip>,
}

impl PersistFaultPlan {
    /// Plan with only the sweep seed set.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Kill the writer after `n` submitted record-stream bytes.
    pub fn kill_after_bytes(mut self, n: u64) -> Self {
        self.kill_after_bytes = Some(n);
        self
    }

    /// Drop every flush with ordinal `>= k`.
    pub fn drop_flush_after(mut self, k: u64) -> Self {
        self.drop_flush_after = Some(k);
        self
    }

    /// Flip `bit % 8` of byte `offset % image_len` at crash time.
    pub fn bit_flip(mut self, offset: u64, bit: u8) -> Self {
        self.bit_flip = Some(BitFlip { offset, bit });
        self
    }

    /// Does this plan inject anything at all?
    pub fn is_clean(&self) -> bool {
        self.kill_after_bytes.is_none()
            && self.drop_flush_after.is_none()
            && self.bit_flip.is_none()
    }
}

/// Writer configuration.
#[derive(Clone, Copy, Debug)]
pub struct PersistConfig {
    /// Rotate to a new segment once the current one holds at least this
    /// many bytes (records never span segments).
    pub segment_bytes: u64,
    /// Issue `fsync` at every durable point. Off by default: the tests
    /// model durability through the deterministic fault plan, and CI
    /// containers make real fsync timing meaningless.
    pub fsync: bool,
    /// Deterministic fault injection (default: none).
    pub fault: PersistFaultPlan,
}

impl Default for PersistConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 8 << 20,
            fsync: false,
            fault: PersistFaultPlan::default(),
        }
    }
}

/// What one `replay` of a persistence directory found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Record slots examined (`loaded + rejected` always).
    pub records_scanned: u64,
    /// Records that passed every check and were handed to the cache.
    pub loaded: u64,
    /// Records (or segment remainders / whole unreadable segments)
    /// skipped by a recovery rule.
    pub rejected: u64,
    /// Total bytes read across all segments.
    pub bytes_scanned: u64,
}

/// Lifetime persistence counters of one cache (monotone; engines report
/// per-run deltas the same way they do for capacity evictions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Records fully committed to the log.
    pub writes: u64,
    /// Records accepted from disk by `open`.
    pub loaded: u64,
    /// Records rejected by a recovery rule during `open`.
    pub load_rejects: u64,
    /// Snapshot compactions completed.
    pub compactions: u64,
}

/// Atomic backing for [`PersistStats`] on the cache.
#[derive(Debug, Default)]
pub(crate) struct PersistCounters {
    pub writes: AtomicU64,
    pub loaded: AtomicU64,
    pub load_rejects: AtomicU64,
    pub compactions: AtomicU64,
}

impl PersistCounters {
    pub fn snapshot(&self) -> PersistStats {
        PersistStats {
            writes: self.writes.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            load_rejects: self.load_rejects.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// FNV-1a over the length prefix and the body — the per-record checksum.
fn record_checksum(len_le: [u8; 4], body: &[u8]) -> u64 {
    let mut h = hash::FNV_OFFSET;
    for &b in len_le.iter().chain(body.iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(hash::FNV_PRIME);
    }
    h
}

/// Serialize one `(key, entry)` into a complete record (header + body +
/// commit marker).
pub(crate) fn encode_record(key: u64, entry: &CacheEntry) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    put_u64(&mut body, key);
    put_u64(&mut body, entry.bytes);
    put_u32(&mut body, entry.fingerprint.len() as u32);
    put_u32(&mut body, entry.out_versions.len() as u32);
    match &entry.payload {
        None => put_u32(&mut body, NO_PAYLOAD),
        Some(bufs) => put_u32(&mut body, bufs.len() as u32),
    }
    for &w in &entry.fingerprint {
        put_u64(&mut body, w);
    }
    for &v in &entry.out_versions {
        put_u64(&mut body, v);
    }
    if let Some(bufs) = &entry.payload {
        for buf in bufs {
            put_u32(&mut body, buf.len() as u32);
            for &x in buf {
                put_u64(&mut body, x.to_bits());
            }
        }
    }
    let len_le = (body.len() as u32).to_le_bytes();
    let sum = record_checksum(len_le, &body);
    let mut rec = Vec::with_capacity(RECORD_HEADER_BYTES + body.len() + 1);
    rec.extend_from_slice(&len_le);
    rec.extend_from_slice(&sum.to_le_bytes());
    rec.extend_from_slice(&body);
    rec.push(COMMIT_MARKER);
    rec
}

/// Byte cursor over a record body; every read is bounds-checked so a
/// lying length field can only produce a reject, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Structural parse of one body. `None` = reject. The final
/// fingerprint/key verification lives here too: a record claiming key
/// `k` whose stored fingerprint does not hash back to `k` is corrupt or
/// forged and must not enter the store.
fn parse_body(body: &[u8]) -> Option<(u64, CacheEntry)> {
    let mut c = Cursor { buf: body, pos: 0 };
    let key = c.u64()?;
    let bytes = c.u64()?;
    let fp_len = c.u32()?;
    let ov_len = c.u32()?;
    let nbufs = c.u32()?;
    if fp_len > MAX_VEC_WORDS || ov_len > MAX_VEC_WORDS {
        return None;
    }
    if nbufs != NO_PAYLOAD && nbufs > MAX_PAYLOAD_BUFS {
        return None;
    }
    let mut fingerprint = Vec::with_capacity(fp_len as usize);
    for _ in 0..fp_len {
        fingerprint.push(c.u64()?);
    }
    let mut out_versions = Vec::with_capacity(ov_len as usize);
    for _ in 0..ov_len {
        out_versions.push(c.u64()?);
    }
    let payload = if nbufs == NO_PAYLOAD {
        None
    } else {
        let mut bufs = Vec::with_capacity(nbufs as usize);
        for _ in 0..nbufs {
            let blen = c.u32()?;
            if (blen as usize) * 8 > body.len() - c.pos {
                return None;
            }
            let mut buf = Vec::with_capacity(blen as usize);
            for _ in 0..blen {
                buf.push(f64::from_bits(c.u64()?));
            }
            bufs.push(buf);
        }
        Some(bufs)
    };
    if !c.done() {
        return None; // trailing garbage inside a "valid" length
    }
    if hash::fnv1a_words(&fingerprint) != key {
        return None; // fingerprint/key mismatch: corrupt or forged
    }
    Some((
        key,
        CacheEntry {
            fingerprint,
            out_versions,
            payload,
            bytes,
        },
    ))
}

/// Segment files of `dir` in replay (ascending index) order.
fn segment_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        segs.push((idx, entry.path()));
    }
    segs.sort_unstable_by_key(|&(i, _)| i);
    Ok(segs)
}

/// Replay every segment of `dir`, feeding each record that survives the
/// recovery rules to `accept` (ascending segment order, so later
/// appends of the same key win). IO errors reading the directory
/// surface; corrupt *content* never does — it is counted and skipped.
pub(crate) fn replay(
    dir: &Path,
    mut accept: impl FnMut(u64, CacheEntry),
) -> io::Result<LoadReport> {
    let mut report = LoadReport::default();
    for (_, path) in segment_paths(dir)? {
        let bytes = fs::read(&path)?;
        report.segments += 1;
        report.bytes_scanned += bytes.len() as u64;
        if bytes.len() < SEGMENT_MAGIC.len() || bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            // Unreadable segment: one counted reject for the whole file.
            report.records_scanned += 1;
            report.rejected += 1;
            continue;
        }
        let mut o = SEGMENT_MAGIC.len();
        while o < bytes.len() {
            report.records_scanned += 1;
            let rem = bytes.len() - o;
            if rem < RECORD_HEADER_BYTES + 1 {
                // Torn tail: not even a header fits.
                report.rejected += 1;
                break;
            }
            let body_len = u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
            let total = RECORD_HEADER_BYTES + body_len as usize + 1;
            if body_len > MAX_BODY_BYTES || total > rem {
                // Broken header or truncated record: the length cannot
                // be trusted, so the segment remainder is unreachable.
                report.rejected += 1;
                break;
            }
            let stored_sum = u64::from_le_bytes(bytes[o + 4..o + 12].try_into().unwrap());
            let body = &bytes[o + RECORD_HEADER_BYTES..o + RECORD_HEADER_BYTES + body_len as usize];
            let marker = bytes[o + total - 1];
            o += total;
            if stored_sum != record_checksum(body_len.to_le_bytes(), body)
                || marker != COMMIT_MARKER
            {
                report.rejected += 1;
                continue;
            }
            match parse_body(body) {
                Some((key, entry)) => {
                    report.loaded += 1;
                    accept(key, entry);
                }
                None => report.rejected += 1,
            }
        }
    }
    debug_assert_eq!(report.loaded + report.rejected, report.records_scanned);
    Ok(report)
}

/// Append-only segment writer with a simulated durability frontier.
///
/// Real durability (fsync) is optional; what the chaos tests rely on is
/// the *deterministic* model: `durable` tracks the byte the file would
/// still hold after a crash, and [`crash`](Self::crash) realizes
/// exactly that state on disk.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    dir: PathBuf,
    cfg: PersistConfig,
    file: Option<File>,
    seg_index: u64,
    seg_path: PathBuf,
    /// Bytes physically written to the current segment (incl. magic).
    seg_written: u64,
    /// Durable frontier of the current segment.
    durable: u64,
    flush_ordinal: u64,
    /// Record-stream bytes submitted over the writer's lifetime (magic
    /// bytes excluded, so kill offsets are segmentation-independent).
    submitted: u64,
    dead: bool,
}

impl SegmentWriter {
    /// Attach to `dir` (created if missing), appending after the
    /// highest existing segment. The first segment file is created
    /// lazily on the first append, so probing/opening never litters
    /// empty files.
    pub fn attach(dir: &Path, cfg: PersistConfig) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let next = segment_paths(dir)?
            .last()
            .map_or(0, |&(i, _)| i.saturating_add(1));
        Ok(Self {
            dir: dir.to_path_buf(),
            cfg,
            file: None,
            seg_index: next,
            seg_path: PathBuf::new(),
            seg_written: 0,
            durable: 0,
            flush_ordinal: 0,
            submitted: 0,
            dead: false,
        })
    }

    fn seg_name(idx: u64) -> String {
        format!("seg-{idx:06}.log")
    }

    /// A durable point: advance the frontier unless the fault plan
    /// drops this flush.
    fn flush_point(&mut self) {
        let dropped = self
            .cfg
            .fault
            .drop_flush_after
            .is_some_and(|k| self.flush_ordinal >= k);
        self.flush_ordinal += 1;
        if dropped {
            return;
        }
        self.durable = self.seg_written;
        if self.cfg.fsync {
            if let Some(f) = &self.file {
                let _ = f.sync_data();
            }
        }
    }

    /// Open the current segment file, writing the magic, if not open.
    fn ensure_file(&mut self) -> io::Result<()> {
        if self.file.is_some() {
            return Ok(());
        }
        let path = self.dir.join(Self::seg_name(self.seg_index));
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        f.write_all(&SEGMENT_MAGIC)?;
        self.seg_path = path;
        self.seg_written = SEGMENT_MAGIC.len() as u64;
        self.durable = 0;
        self.file = Some(f);
        self.flush_point();
        Ok(())
    }

    /// Append one record. Returns `true` iff the record was fully
    /// committed (header, body and commit marker all written). A dead
    /// writer (earlier kill or IO error) drops the record silently —
    /// persistence is an accelerator, and a disk that stopped accepting
    /// writes must never take the serving process down with it.
    pub fn append(&mut self, key: u64, entry: &CacheEntry) -> bool {
        if self.dead {
            return false;
        }
        match self.append_inner(key, entry) {
            Ok(committed) => committed,
            Err(_) => {
                self.dead = true;
                false
            }
        }
    }

    fn append_inner(&mut self, key: u64, entry: &CacheEntry) -> io::Result<bool> {
        let rec = encode_record(key, entry);
        if self.file.is_some() && self.seg_written >= self.cfg.segment_bytes {
            // Rotate: records never span segments. The closed segment
            // is fully durable (close implies flush in this model).
            self.file = None;
            self.seg_index += 1;
        }
        self.ensure_file()?;
        let file = self.file.as_mut().expect("segment file just ensured");

        if let Some(n) = self.cfg.fault.kill_after_bytes {
            let len = rec.len() as u64;
            if self.submitted + len > n {
                // The write crossing the threshold lands only its
                // prefix; the writer is dead from here on.
                let keep = (n - self.submitted) as usize;
                file.write_all(&rec[..keep])?;
                self.seg_written += keep as u64;
                // A process kill loses nothing the OS already has: the
                // prefix is on disk, so the frontier follows it.
                self.durable = self.seg_written;
                self.submitted = n;
                self.dead = true;
                return Ok(false);
            }
        }

        // Commit discipline: body durable before the marker exists.
        file.write_all(&rec[..rec.len() - 1])?;
        self.seg_written += (rec.len() - 1) as u64;
        self.flush_point();
        let file = self.file.as_mut().expect("segment file open");
        file.write_all(&rec[rec.len() - 1..])?;
        self.seg_written += 1;
        self.flush_point();
        self.submitted += rec.len() as u64;
        Ok(true)
    }

    /// Rewrite `entries` as one fresh segment with an index above every
    /// existing one, atomically (tmp file + rename), then delete the
    /// older segments. A crash between rename and deletes only
    /// resurrects stale *older* records, which the compacted segment
    /// overrides by replay order. Returns the number of live records
    /// written.
    pub fn compact(&mut self, entries: &[(u64, std::sync::Arc<CacheEntry>)]) -> io::Result<u64> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "persistence writer is dead",
            ));
        }
        self.file = None; // close the active segment first
        let old: Vec<(u64, PathBuf)> = segment_paths(&self.dir)?;
        let new_idx = old.last().map_or(0, |&(i, _)| i + 1).max(self.seg_index);
        let tmp = self.dir.join("compact.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&SEGMENT_MAGIC)?;
            for (key, entry) in entries {
                f.write_all(&encode_record(*key, entry))?;
            }
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(Self::seg_name(new_idx)))?;
        for (_, path) in old {
            let _ = fs::remove_file(path);
        }
        self.seg_index = new_idx + 1;
        self.seg_written = 0;
        self.durable = 0;
        Ok(entries.len() as u64)
    }

    /// Realize the fault plan's crash semantics on disk and kill the
    /// writer: truncate the current segment back to its durable
    /// frontier (dropped flushes lose their bytes) and apply the
    /// configured bit flip to the surviving image.
    pub fn crash(&mut self) -> io::Result<()> {
        if let Some(f) = self.file.take() {
            if self.durable < self.seg_written {
                f.set_len(self.durable)?;
            }
        }
        self.dead = true;
        if let Some(flip) = self.cfg.fault.bit_flip {
            apply_bit_flip(&self.dir, flip)?;
        }
        Ok(())
    }
}

/// Flip one bit of the concatenated segment image of `dir`.
fn apply_bit_flip(dir: &Path, flip: BitFlip) -> io::Result<()> {
    let segs = segment_paths(dir)?;
    let mut lens = Vec::with_capacity(segs.len());
    let mut total = 0u64;
    for (_, path) in &segs {
        let len = fs::metadata(path)?.len();
        lens.push(len);
        total += len;
    }
    if total == 0 {
        return Ok(());
    }
    let mut off = flip.offset % total;
    for ((_, path), len) in segs.iter().zip(lens) {
        if off >= len {
            off -= len;
            continue;
        }
        let mut f = OpenOptions::new().read(true).write(true).open(path)?;
        f.seek(SeekFrom::Start(off))?;
        let mut b = [0u8; 1];
        std::io::Read::read_exact(&mut f, &mut b)?;
        b[0] ^= 1 << (flip.bit % 8);
        f.seek(SeekFrom::Start(off))?;
        f.write_all(&b)?;
        return Ok(());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fp: Vec<u64>, payload: Option<Vec<Vec<f64>>>) -> (u64, CacheEntry) {
        let key = hash::fnv1a_words(&fp);
        (
            key,
            CacheEntry {
                fingerprint: fp,
                out_versions: vec![7, 9],
                payload,
                bytes: 64,
            },
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mp-persist-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn record_roundtrips_bit_for_bit() {
        let (key, e) = entry(vec![1, 2, 3], Some(vec![vec![1.5, -0.0], vec![]]));
        let rec = encode_record(key, &e);
        assert_eq!(rec[rec.len() - 1], COMMIT_MARKER);
        let body = &rec[RECORD_HEADER_BYTES..rec.len() - 1];
        let (k2, e2) = parse_body(body).expect("parse");
        assert_eq!(k2, key);
        assert_eq!(e2.fingerprint, e.fingerprint);
        assert_eq!(e2.out_versions, e.out_versions);
        assert_eq!(e2.bytes, e.bytes);
        let (b0, b1) = match &e2.payload {
            Some(bufs) => (&bufs[0], &bufs[1]),
            None => panic!("payload lost"),
        };
        assert_eq!(b0.len(), 2);
        assert_eq!(b0[0], 1.5);
        assert!(b0[1] == 0.0 && b0[1].is_sign_negative(), "-0.0 preserved");
        assert!(b1.is_empty());
    }

    #[test]
    fn key_fingerprint_mismatch_is_rejected() {
        let (_, e) = entry(vec![1, 2, 3], None);
        let rec = encode_record(0xBAD, &e); // forged key
        let body = &rec[RECORD_HEADER_BYTES..rec.len() - 1];
        assert!(parse_body(body).is_none());
    }

    #[test]
    fn writer_roundtrip_replays_every_record() {
        let dir = tmpdir("roundtrip");
        let mut w = SegmentWriter::attach(&dir, PersistConfig::default()).unwrap();
        let mut want = Vec::new();
        for i in 0..10u64 {
            let (k, e) = entry(vec![i, i + 1], Some(vec![vec![i as f64; 4]]));
            assert!(w.append(k, &e));
            want.push(k);
        }
        let mut got = Vec::new();
        let rep = replay(&dir, |k, _| got.push(k)).unwrap();
        assert_eq!(rep.loaded, 10);
        assert_eq!(rep.rejected, 0);
        assert_eq!(rep.records_scanned, 10);
        assert_eq!(rep.segments, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn rotation_splits_segments_and_replays_in_order() {
        let dir = tmpdir("rotate");
        let cfg = PersistConfig {
            segment_bytes: 64, // rotate almost every record
            ..PersistConfig::default()
        };
        let mut w = SegmentWriter::attach(&dir, cfg).unwrap();
        let mut want = Vec::new();
        for i in 0..8u64 {
            let (k, e) = entry(vec![i], None);
            assert!(w.append(k, &e));
            want.push(k);
        }
        let mut got = Vec::new();
        let rep = replay(&dir, |k, _| got.push(k)).unwrap();
        assert!(rep.segments > 1, "expected rotation, got {rep:?}");
        assert_eq!(rep.loaded, 8);
        assert_eq!(got, want, "replay preserves append order across segments");
    }

    #[test]
    fn kill_mid_write_loses_only_the_torn_record() {
        let dir = tmpdir("kill");
        // First, measure a full run to find a mid-record offset.
        let mut w = SegmentWriter::attach(&dir, PersistConfig::default()).unwrap();
        let recs: Vec<(u64, CacheEntry)> = (0..4u64).map(|i| entry(vec![i, 42], None)).collect();
        for (k, e) in &recs {
            w.append(*k, e);
        }
        let total = w.submitted;
        let rec_len = total / 4;
        // Kill inside record 2 (strictly after record 1 committed).
        for cut in [rec_len + 1, rec_len + rec_len / 2, 2 * rec_len - 1] {
            let dir = tmpdir(&format!("kill-{cut}"));
            let cfg = PersistConfig {
                fault: PersistFaultPlan::seeded(1).kill_after_bytes(cut),
                ..PersistConfig::default()
            };
            let mut w = SegmentWriter::attach(&dir, cfg).unwrap();
            assert!(w.append(recs[0].0, &recs[0].1));
            assert!(
                !w.append(recs[1].0, &recs[1].1),
                "torn record not committed"
            );
            assert!(!w.append(recs[2].0, &recs[2].1), "dead writer drops writes");
            w.crash().unwrap();
            let mut got = Vec::new();
            let rep = replay(&dir, |k, _| got.push(k)).unwrap();
            assert_eq!(got, vec![recs[0].0], "cut={cut}: {rep:?}");
            assert_eq!(rep.loaded, 1);
            assert_eq!(rep.rejected, 1, "the torn record is counted");
        }
    }

    #[test]
    fn dropped_flushes_truncate_at_crash() {
        let dir = tmpdir("dropflush");
        let cfg = PersistConfig {
            // Ordinal 0 is the magic flush; 1–2 are record 0's body and
            // marker flushes. Everything later is lost.
            fault: PersistFaultPlan::seeded(2).drop_flush_after(3),
            ..PersistConfig::default()
        };
        let mut w = SegmentWriter::attach(&dir, cfg).unwrap();
        let recs: Vec<(u64, CacheEntry)> = (0..3u64).map(|i| entry(vec![i, 9], None)).collect();
        for (k, e) in &recs {
            assert!(w.append(*k, e), "writes succeed; durability is lost later");
        }
        w.crash().unwrap();
        let mut got = Vec::new();
        let rep = replay(&dir, |k, _| got.push(k)).unwrap();
        assert_eq!(got, vec![recs[0].0], "{rep:?}");
        assert_eq!(rep.rejected, 0, "clean truncation at a record boundary");
    }

    #[test]
    fn bit_flip_rejects_exactly_the_hit_record() {
        // Flip one bit in every byte position of a 3-record log: open
        // must never fail, never accept a record whose bytes changed.
        let dir0 = tmpdir("flip-ref");
        let mut w = SegmentWriter::attach(&dir0, PersistConfig::default()).unwrap();
        let recs: Vec<(u64, CacheEntry)> = (0..3u64)
            .map(|i| entry(vec![i, 5], Some(vec![vec![i as f64]])))
            .collect();
        for (k, e) in &recs {
            w.append(*k, e);
        }
        let image_len = fs::metadata(dir0.join("seg-000000.log")).unwrap().len();
        for off in 0..image_len {
            let dir = tmpdir(&format!("flip-{off}"));
            let cfg = PersistConfig {
                fault: PersistFaultPlan::seeded(off).bit_flip(off, (off % 8) as u8),
                ..PersistConfig::default()
            };
            let mut w = SegmentWriter::attach(&dir, cfg).unwrap();
            for (k, e) in &recs {
                w.append(*k, e);
            }
            w.crash().unwrap();
            let mut got = Vec::new();
            let rep = replay(&dir, |k, e| got.push((k, e))).unwrap();
            assert_eq!(
                rep.loaded + rep.rejected,
                rep.records_scanned,
                "off={off}: ledger must balance: {rep:?}"
            );
            assert!(rep.rejected >= 1, "off={off}: a flipped bit must reject");
            // Every accepted record is byte-identical to what was
            // written: key, fingerprint, payload all intact.
            for (k, e) in got {
                let orig = recs.iter().find(|(ok, _)| *ok == k).expect("known key");
                assert_eq!(e.fingerprint, orig.1.fingerprint, "off={off}");
                assert_eq!(e.payload, orig.1.payload, "off={off}");
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_never_panics_or_lies() {
        let dir0 = tmpdir("trunc-ref");
        let mut w = SegmentWriter::attach(&dir0, PersistConfig::default()).unwrap();
        let recs: Vec<(u64, CacheEntry)> = (0..3u64)
            .map(|i| entry(vec![i, 6], Some(vec![vec![i as f64; 2]])))
            .collect();
        // Record byte boundaries in the file (after the magic).
        let mut boundaries = vec![SEGMENT_MAGIC.len() as u64];
        for (k, e) in &recs {
            w.append(*k, e);
            boundaries.push(SEGMENT_MAGIC.len() as u64 + w.submitted);
        }
        let src = dir0.join("seg-000000.log");
        let image = fs::read(&src).unwrap();
        for cut in 0..=image.len() {
            let dir = tmpdir(&format!("trunc-{cut}"));
            fs::write(dir.join("seg-000000.log"), &image[..cut]).unwrap();
            let mut got = Vec::new();
            let rep = replay(&dir, |k, _| got.push(k)).unwrap();
            // Every record fully before the cut must survive…
            let complete = boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .count()
                .saturating_sub(1);
            assert_eq!(rep.loaded as usize, complete, "cut={cut}: {rep:?}");
            // …and is bit-exact (keys in order).
            let want: Vec<u64> = recs.iter().take(complete).map(|(k, _)| *k).collect();
            assert_eq!(got, want, "cut={cut}");
        }
    }

    #[test]
    fn compaction_rewrites_live_set_and_drops_garbage() {
        let dir = tmpdir("compact");
        let mut w = SegmentWriter::attach(&dir, PersistConfig::default()).unwrap();
        let recs: Vec<(u64, CacheEntry)> = (0..6u64).map(|i| entry(vec![i, 3], None)).collect();
        for (k, e) in &recs {
            w.append(*k, e);
        }
        // Live set: entries 3..6 only (0..3 "evicted").
        let live: Vec<(u64, std::sync::Arc<CacheEntry>)> = recs[3..]
            .iter()
            .map(|(k, e)| (*k, std::sync::Arc::new(e.clone())))
            .collect();
        assert_eq!(w.compact(&live).unwrap(), 3);
        let mut got = Vec::new();
        let rep = replay(&dir, |k, _| got.push(k)).unwrap();
        assert_eq!(rep.segments, 1, "old segments deleted");
        assert_eq!(rep.loaded, 3);
        let want: Vec<u64> = live.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, want);
        // The writer keeps appending after compaction.
        let (k, e) = entry(vec![77, 3], None);
        assert!(w.append(k, &e));
        let rep = replay(&dir, |_, _| {}).unwrap();
        assert_eq!(rep.loaded, 4);
        assert_eq!(rep.segments, 2);
    }
}
