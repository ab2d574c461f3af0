//! Content-addressed cell cache: skip re-evaluating grid cells whose
//! inputs have not changed.
//!
//! A cell's value is a pure function of its data — the job key, its
//! power scenario, the platform cost table and the programs — and of the
//! code that computes it. The cache files each cell under **two**
//! content-addressed keys over the data, so the warm path can skip the
//! compile too:
//!
//! * the **memo key** hashes the *compile inputs* — job, cost table and
//!   the stable digest of the benchmark's *source* module
//!   ([`memo_key`]). Building a source module and hashing it costs
//!   microseconds; compiling and placing checkpoints does not.
//! * the **cell key** hashes the *evaluation inputs* — job, cost table
//!   and the digests of every `InstrumentedModule` the kernel compiled
//!   ([`cell_key`]).
//!
//! A lookup finds the record under the memo key and requires the cell
//! key re-derived from its program digests to match, so an edited
//! benchmark or platform constant recomputes. The code is
//! [`CODE_IDENTITY`], a build-time digest of every source file that can
//! change a cell value (compiler, emulator, baselines, benchmarks, the
//! grid kernels and their configs; `code_identity.rs` names the render,
//! trace and service files it leaves out). It is every record's
//! `schema`: after an edit to that code each record is dead and its cell
//! recomputes once, an edit to a render-only file keeps every hit, and
//! there is no version to bump by hand.
//!
//! The store is an append-only file of keyed cell lines ([`CellLine`]:
//! the cell, its program digests and both keys), the lines `gridrun
//! --shard` writes, so a shard artifact is a cache. Loading is tolerant
//! and never destroys what the cache did not write: a record of another
//! schema, a superseded duplicate (last writer wins), or a torn,
//! unparsable or non-UTF-8 line is *dead* — skipped, since a lost record
//! only costs a recompute — and any other readable line (a plain cell
//! line, a trace line) is *kept* verbatim. [`CellCache::open`] compacts
//! the file (rewrite-then-rename) when more than a third of its lines
//! are dead. Single-writer discipline is the caller's job: `gridrun`
//! shard and worker processes never open the cache, and in daemon mode
//! `gridd` is the sole writer.

use crate::grid::{evaluate_traced, CellKeys, CellLine, CellStore, CellValue, GridError, Job};
use crate::parallel::par_map;
use schematic_energy::CostTable;
use schematic_ir::hash::{hash_module, Digest, StableHasher};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The digest of the source files that can change a cell value, from
/// the build script (`code_identity.rs`): every record's `schema`.
pub const CODE_IDENTITY: u64 = include!(concat!(env!("OUT_DIR"), "/code_identity"));

/// Shared prefix of both keys: the domain separator, the full job key
/// and the platform identity.
fn write_key_prefix(h: &mut StableHasher, domain: &str, job: &Job, table: &CostTable) {
    h.write_str(domain);
    h.write_str(job.kind.name());
    h.write_str(&job.technique);
    h.write_str(&job.benchmark);
    job.scenario.identity_into(h);
    table.identity_into(h);
}

/// The compile-memo key: everything that determines *which instrumented
/// modules* a job's kernel produces — including `source`, the
/// [`hash_module`] digest of the benchmark's built module.
pub fn memo_key(job: &Job, table: &CostTable, source: Digest) -> Digest {
    let mut h = StableHasher::new();
    write_key_prefix(&mut h, "memo", job, table);
    h.write_u64(source.hi);
    h.write_u64(source.lo);
    h.finish()
}

/// The cell-value key: everything that determines a job's value given
/// the compiled programs — `ims` are the instrumented-module digests the
/// kernel reported (in kernel order; empty when nothing compiled).
pub fn cell_key(job: &Job, table: &CostTable, ims: &[Digest]) -> Digest {
    let mut h = StableHasher::new();
    write_key_prefix(&mut h, "cell", job, table);
    h.write_u64(ims.len() as u64);
    for d in ims {
        h.write_u64(d.hi);
        h.write_u64(d.lo);
    }
    h.finish()
}

/// Per-process memo of benchmark source digests: building a module and
/// hashing it is cheap but not free, and the warm path does it once per
/// benchmark, not once per cell.
#[derive(Debug, Default)]
pub struct SourceDigests {
    map: BTreeMap<String, Digest>,
}

impl SourceDigests {
    /// An empty memo.
    pub fn new() -> SourceDigests {
        SourceDigests::default()
    }

    /// The stable digest of `benchmark`'s built source module.
    ///
    /// # Panics
    ///
    /// On an unknown benchmark name (same contract as the grid kernels).
    pub fn digest(&mut self, benchmark: &str) -> Digest {
        if let Some(d) = self.map.get(benchmark) {
            return *d;
        }
        let b = schematic_benchsuite::by_name(benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark '{benchmark}'"));
        let d = hash_module(&(b.build)(crate::SEED));
        self.map.insert(benchmark.to_string(), d);
        d
    }
}

/// The disk-backed cache: keyed cell lines by memo key.
#[derive(Debug)]
pub struct CellCache {
    path: PathBuf,
    /// Live records by memo key.
    records: BTreeMap<Digest, CellLine>,
    /// Readable lines that are not records of this cache, rewritten
    /// verbatim by [`CellCache::compact`].
    kept: Vec<String>,
    /// Lines in the backing file that are neither live records nor kept
    /// (superseded duplicates, records of other code, torn or non-UTF-8
    /// lines) — the compaction trigger.
    dead: usize,
}

impl CellCache {
    /// Opens (or creates on first write) the cache at `path`, loading
    /// every live record. Never fails: an unreadable file or line is an
    /// empty/shorter cache, not an error. Compacts the file in place
    /// when dead lines outnumber a third of the total.
    pub fn open(path: impl AsRef<Path>) -> CellCache {
        let mut cache = CellCache {
            path: path.as_ref().to_path_buf(),
            records: BTreeMap::new(),
            kept: Vec::new(),
            dead: 0,
        };
        let bytes = fs::read(&cache.path).unwrap_or_default();
        for line in bytes.split(|&b| b == b'\n') {
            match std::str::from_utf8(line) {
                Ok(line) if line.trim().is_empty() => {}
                Ok(line) => cache.load_line(line),
                Err(_) => cache.dead += 1,
            }
        }
        if cache.dead > 0 && cache.dead * 2 > cache.records.len() + cache.kept.len() {
            let _ = cache.compact();
        }
        cache
    }

    /// Files one line as a live record, a kept line or a dead one.
    fn load_line(&mut self, text: &str) {
        match CellLine::parse(text) {
            Ok(line) => match line.keys {
                Some(keys) if keys.schema == CODE_IDENTITY => {
                    if self.records.insert(keys.memo, line).is_some() {
                        self.dead += 1; // superseded duplicate
                    }
                }
                Some(_) => self.dead += 1,
                None => self.kept.push(text.to_string()),
            },
            Err(_) if is_foreign(text) => self.kept.push(text.to_string()),
            Err(_) => self.dead += 1,
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the cache holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The cached value of `job`, whose benchmark source digests to
    /// `source`: the record under the job's memo key, when the cell key
    /// its program digests derive is the one it was filed under.
    pub fn get(&self, job: &Job, table: &CostTable, source: Digest) -> Option<&CellValue> {
        let line = self.records.get(&memo_key(job, table, source))?;
        let (keys, ims) = (line.keys?, line.ims.as_deref()?);
        (keys.cell == cell_key(job, table, ims)).then_some(&line.value)
    }

    /// Records keyed lines and appends them to the backing file in one
    /// write (best-effort: an append failure costs a future recompute,
    /// never the current run).
    ///
    /// # Panics
    ///
    /// On a line without keys ([`keyed_line`] makes them).
    pub fn put(&mut self, lines: impl IntoIterator<Item = CellLine>) {
        let mut text = String::new();
        for line in lines {
            let keys = line.keys.expect("cache records are keyed lines");
            line.write(&mut text);
            text.push('\n');
            if self.records.insert(keys.memo, line).is_some() {
                self.dead += 1;
            }
        }
        if text.is_empty() {
            return;
        }
        let opened = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path);
        if let Ok(mut f) = opened {
            let _ = f.write_all(text.as_bytes());
        }
    }

    /// Rewrites the backing file with the kept lines, then the live
    /// records in memo-key order, via a temporary file and an atomic
    /// rename so a crash never leaves a half-written cache.
    ///
    /// # Errors
    ///
    /// The underlying filesystem error, if any.
    pub fn compact(&mut self) -> std::io::Result<()> {
        let mut out = String::new();
        for line in &self.kept {
            out.push_str(line);
            out.push('\n');
        }
        for line in self.records.values() {
            line.write(&mut out);
            out.push('\n');
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &self.path)?;
        self.dead = 0;
        Ok(())
    }
}

/// Whether `text` is a JSON object this cache did not write: it parses,
/// and lacks the `schema` member every cache record — of any layout —
/// carries.
fn is_foreign(text: &str) -> bool {
    let mut r = schematic_obs::json::Reader::new(text);
    let mut schema = false;
    let parsed = r.object(|r, key| {
        schema |= key == "schema";
        r.skip()
    });
    parsed.and_then(|()| r.finish()).is_ok() && !schema
}

/// Files a computed cell under its cache keys: the keyed line
/// [`CellCache::put`] records and `gridrun --shard` writes.
pub fn keyed_line(
    job: Job,
    value: CellValue,
    ims: Vec<Digest>,
    table: &CostTable,
    sources: &mut SourceDigests,
) -> CellLine {
    let keys = CellKeys {
        schema: CODE_IDENTITY,
        memo: memo_key(&job, table, sources.digest(&job.benchmark)),
        cell: cell_key(&job, table, &ims),
    };
    CellLine {
        ims: Some(ims),
        keys: Some(keys),
        ..CellLine::plain(job, value)
    }
}

/// Evaluates `jobs` (fanning out over the parallel driver) into keyed
/// lines, in job order.
pub fn evaluate_keyed(
    jobs: &[Job],
    table: &CostTable,
    sources: &mut SourceDigests,
) -> Vec<CellLine> {
    let computed = par_map(jobs, |job| evaluate_traced(job, table));
    jobs.iter()
        .zip(computed)
        .map(|(job, (value, ims))| keyed_line(job.clone(), value, ims, table, sources))
        .collect()
}

/// Pass 1 of a cached evaluation (serial, cheap): splits `jobs` into
/// cache hits (with their values) and misses, tallying both on the
/// process-global `cache/hit` / `cache/miss` counters. Shared by
/// [`compute_cached`] and the daemon's worker-dispatch path, which
/// resolves hits locally and farms only the misses out.
pub fn resolve(
    jobs: &[Job],
    cache: &CellCache,
    table: &CostTable,
    sources: &mut SourceDigests,
) -> (Vec<(Job, CellValue)>, Vec<Job>) {
    let mut hits: Vec<(Job, CellValue)> = Vec::new();
    let mut misses: Vec<Job> = Vec::new();
    let mut hit_kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut miss_kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for job in jobs {
        let source = sources.digest(&job.benchmark);
        match cache.get(job, table, source) {
            Some(value) => {
                *hit_kinds.entry(job.kind.name()).or_default() += 1;
                hits.push((job.clone(), value.clone()));
            }
            None => {
                *miss_kinds.entry(job.kind.name()).or_default() += 1;
                misses.push(job.clone());
            }
        }
    }
    schematic_obs::gcount("cache/hit", hits.len() as u64);
    schematic_obs::gcount("cache/miss", misses.len() as u64);
    // Per-report-kind tallies drive the service renderer's hit-rate
    // table; the aggregates above stay the queue-accounting invariant
    // (hits + misses == resolved jobs).
    for (kind, n) in hit_kinds {
        schematic_obs::gcount(&format!("cache/hit/{kind}"), n);
    }
    for (kind, n) in miss_kinds {
        schematic_obs::gcount(&format!("cache/miss/{kind}"), n);
    }
    (hits, misses)
}

/// Tallies of one [`compute_cached`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells answered from the cache.
    pub hits: usize,
    /// Cells evaluated from scratch (and written back).
    pub computed: usize,
}

/// Evaluates `jobs` into a [`CellStore`], answering from `cache` where
/// possible and writing every miss back. With `cache = None` this is
/// exactly [`CellStore::compute`].
///
/// With `verify` set, cache hits are additionally recomputed and
/// compared — the paranoia mode `gridrun --cache-verify` exposes. A
/// divergence is a hard error naming the cells: a corrupt record, or an
/// input the keys and [`CODE_IDENTITY`] do not cover (a hashed-out
/// file that does change cell values, or a build whose identity is
/// stale).
///
/// # Errors
///
/// A [`GridError`] listing mismatched cells in verify mode.
pub fn compute_cached(
    jobs: &[Job],
    cache: Option<&mut CellCache>,
    verify: bool,
) -> Result<(CellStore, CacheStats), GridError> {
    let Some(cache) = cache else {
        let stats = CacheStats {
            hits: 0,
            computed: jobs.len(),
        };
        return Ok((CellStore::compute(jobs), stats));
    };
    let table = CostTable::msp430fr5969();
    let mut sources = SourceDigests::new();
    let (hits, misses) = resolve(jobs, cache, &table, &mut sources);

    // Pass 2 (parallel): evaluate the misses — and, in verify mode,
    // re-evaluate the hits to cross-check the cache.
    let computed = evaluate_keyed(&misses, &table, &mut sources);
    if verify {
        schematic_obs::gcount("cache/verify", hits.len() as u64);
        let fresh = par_map(&hits, |(job, _)| evaluate_traced(job, &table).0);
        let mismatched: Vec<String> = hits
            .iter()
            .zip(&fresh)
            .filter(|((_, cached), fresh)| *cached != **fresh)
            .map(|((job, _), _)| job.to_string())
            .collect();
        if !mismatched.is_empty() {
            return Err(GridError(format!(
                "cache verification failed: {} stale cell(s): {}",
                mismatched.len(),
                mismatched.join(", ")
            )));
        }
    }

    // Pass 3 (serial): write misses back and assemble the store.
    let mut store = CellStore::new();
    for (job, value) in &hits {
        store
            .insert(job.clone(), value.clone())
            .expect("cached cells are deterministic");
    }
    for line in &computed {
        store
            .insert(line.job.clone(), line.value.clone())
            .expect("computed cells are deterministic");
    }
    cache.put(computed);
    Ok((
        store,
        CacheStats {
            hits: hits.len(),
            computed: misses.len(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("schematic-cache-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn quick_jobs() -> Vec<Job> {
        vec![
            Job::support("Schematic", "crc"),
            Job::support("Mementos", "crc"),
            Job::bare("crc"),
            Job::run("Schematic", "crc", 10_000),
        ]
    }

    #[test]
    fn keys_are_sensitive_to_every_input() {
        let table = CostTable::msp430fr5969();
        let job = Job::run("Schematic", "crc", 10_000);
        let src = Digest { hi: 1, lo: 2 };
        let base = memo_key(&job, &table, src);
        // Same inputs, same key.
        assert_eq!(base, memo_key(&job, &table, src));
        // Any job field.
        assert_ne!(
            base,
            memo_key(&Job::run("Ratchet", "crc", 10_000), &table, src)
        );
        assert_ne!(
            base,
            memo_key(&Job::run("Schematic", "fft", 10_000), &table, src)
        );
        assert_ne!(
            base,
            memo_key(&Job::run("Schematic", "crc", 1_000), &table, src)
        );
        // The source module.
        assert_ne!(base, memo_key(&job, &table, Digest { hi: 1, lo: 3 }));
        // A platform constant.
        let mut perturbed = CostTable::msp430fr5969();
        perturbed.nvm_write_pj += 1;
        assert_ne!(base, memo_key(&job, &perturbed, src));
        // Memo and cell keys are domain-separated even over identical
        // trailing digests.
        assert_ne!(base, cell_key(&job, &table, &[src]));
        // The cell key sees the compiled programs.
        let ims = [Digest { hi: 9, lo: 9 }];
        assert_ne!(cell_key(&job, &table, &ims), cell_key(&job, &table, &[]));
    }

    #[test]
    fn warm_run_computes_nothing_and_matches_cold() {
        let path = tmp("warm.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        let (cold, s1) = compute_cached(&jobs, Some(&mut cache), false).unwrap();
        assert_eq!((s1.hits, s1.computed), (0, jobs.len()));
        // Reopen from disk: everything must hit, and byte-identically.
        let mut cache = CellCache::open(&path);
        assert_eq!(cache.len(), jobs.len());
        let (warm, s2) = compute_cached(&jobs, Some(&mut cache), false).unwrap();
        assert_eq!((s2.hits, s2.computed), (jobs.len(), 0));
        assert_eq!(cold.to_jsonl(), warm.to_jsonl());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn poisoned_memo_invalidates_exactly_one_cell() {
        let path = tmp("poison.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        let (cold, _) = compute_cached(&jobs, Some(&mut cache), false).unwrap();
        // Simulate an edited benchmark: the victim's record now names
        // compiled programs its cell key was not derived from.
        let table = CostTable::msp430fr5969();
        let victim = &jobs[3];
        let (value, ims) = evaluate_traced(victim, &table);
        let mut poisoned = keyed_line(
            victim.clone(),
            value,
            ims,
            &table,
            &mut SourceDigests::new(),
        );
        poisoned.ims = Some(vec![Digest {
            hi: 0xDEAD,
            lo: 0xBEEF,
        }]);
        cache.put([poisoned]);
        let (warm, stats) = compute_cached(&jobs, Some(&mut cache), false).unwrap();
        assert_eq!((stats.hits, stats.computed), (jobs.len() - 1, 1));
        // The recompute repairs the memo and reproduces the value.
        assert_eq!(cold.to_jsonl(), warm.to_jsonl());
        let (_, healed) = compute_cached(&jobs, Some(&mut cache), false).unwrap();
        assert_eq!((healed.hits, healed.computed), (jobs.len(), 0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn verify_mode_accepts_a_consistent_cache() {
        let path = tmp("verify.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        compute_cached(&jobs, Some(&mut cache), false).unwrap();
        let (_, stats) = compute_cached(&jobs, Some(&mut cache), true).unwrap();
        assert_eq!(stats.hits, jobs.len());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_and_foreign_lines_are_skipped_then_compacted() {
        let path = tmp("torn.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        compute_cached(&jobs, Some(&mut cache), false).unwrap();
        let live = cache.len();
        // A crashed writer's torn tail, garbage, and a foreign schema.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"not json at all\n{\"schema\":99,\"t\":\"memo\"}\n{\"schema\":1,\"t\":\"ce")
            .unwrap();
        drop(f);
        let cache = CellCache::open(&path);
        assert_eq!(cache.len(), live);
        // Force-check the compaction path explicitly instead of relying
        // on the ratio.
        let mut cache = cache;
        cache.compact().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        // One keyed line per record.
        assert_eq!(text.lines().count(), live);
        assert_eq!(CellCache::open(&path).len(), live);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn records_of_other_code_are_dead() {
        // The records this code would write for two jobs, one as if an
        // edit had changed the code identity and one in the layout of a
        // cache that predates it (a fixed `"schema":3`).
        let jobs = &quick_jobs()[..2];
        let table = CostTable::msp430fr5969();
        let mut text = String::new();
        let lines = evaluate_keyed(jobs, &table, &mut SourceDigests::new());
        for (mut line, schema) in lines.into_iter().zip([CODE_IDENTITY ^ 1, 3]) {
            line.keys.as_mut().unwrap().schema = schema;
            line.write(&mut text);
            text.push('\n');
        }
        let path = tmp("other-code.jsonl");
        let _ = fs::remove_file(&path);
        let mut cache = CellCache::open(&path);
        for line in text.lines() {
            cache.load_line(line);
        }
        assert_eq!((cache.len(), cache.dead), (0, 2));
        // From disk: nothing loads, and the open compacts both away.
        fs::write(&path, &text).unwrap();
        let mut cache = CellCache::open(&path);
        assert!(cache.is_empty());
        assert_eq!(fs::read_to_string(&path).unwrap(), "");
        let (_, stats) = compute_cached(jobs, Some(&mut cache), false).unwrap();
        assert_eq!((stats.hits, stats.computed), (0, jobs.len()));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn cell_lines_it_did_not_write_survive_compaction() {
        // A plain artifact (a `fetch` download, or a shard artifact of an
        // older layout) with a trace line, used as the cache file.
        let path = tmp("artifact.jsonl");
        let jobs = quick_jobs();
        let mut artifact = CellStore::compute(&jobs).to_jsonl();
        artifact.push_str("{\"spill\":{\"job\":\"bare/-/crc/0\",\"seq\":0,\"events\":[]}}\n");
        fs::write(&path, &artifact).unwrap();
        let mut cache = CellCache::open(&path);
        compute_cached(&jobs, Some(&mut cache), false).unwrap();
        // Enough torn lines to make compaction due, then an explicit
        // compaction too: neither may drop a line of the artifact.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&b"{\"torn\n".repeat(3 * jobs.len())).unwrap();
        drop(f);
        let mut cache = CellCache::open(&path);
        cache.compact().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        for line in artifact.lines() {
            assert!(text.lines().any(|l| l == line), "lost {line}");
        }
        assert!(!text.contains("torn"), "dead lines compacted away");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_non_utf8_line_costs_one_dead_line_not_the_cache() {
        let path = tmp("binary.jsonl");
        let _ = fs::remove_file(&path);
        let jobs = quick_jobs();
        let mut cache = CellCache::open(&path);
        compute_cached(&jobs, Some(&mut cache), false).unwrap();
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\xff\xfe not text\n").unwrap();
        drop(f);
        let mut cache = CellCache::open(&path);
        assert_eq!(cache.len(), jobs.len());
        let (_, stats) = compute_cached(&jobs, Some(&mut cache), false).unwrap();
        assert_eq!((stats.hits, stats.computed), (jobs.len(), 0));
        let _ = fs::remove_file(&path);
    }
}
