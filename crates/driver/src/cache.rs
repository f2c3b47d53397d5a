//! Content-addressed result cache: repeated (program, config) points are
//! free.
//!
//! A campaign sweep re-simulates the same workload under the same
//! configuration whenever jobs repeat across campaigns (or a manifest is
//! lost). The cache keys each *deterministic* job result by a pair of
//! digests:
//!
//! - the **workload digest** — FNV-1a over the program's disassembly
//!   (base, entry, every instruction) folded with the initial memory
//!   image digest, so two workloads that execute identically hash
//!   identically however they were built;
//! - the **config digest** — FNV-1a over the canonical debug rendering
//!   of every deterministic [`SimConfig`] knob (core, mode, instruction
//!   budgets, fault model, convergence tunables, …) plus the job's
//!   supervision fingerprint (attempts per rung and whether the
//!   degradation ladder is enabled, both of which change which terminal
//!   record a deterministic workload reaches). The cancellation token and
//!   observability config are excluded: neither changes the result.
//!
//! Each entry is its own checksum-sealed file (the same
//! [`seal`](crate::manifest::seal)/[`unseal`](crate::manifest::unseal)
//! trailer as the manifest), written atomically through the
//! [`ManifestIo`] seam. A corrupt entry is **evicted and recomputed,
//! never trusted**: [`CacheStore::lookup`] deletes it and reports the
//! eviction so the job falls through to a real simulation. Only records
//! whose attempt history is deterministic (every outcome `Success` or
//! `Fault`) and which carry a result summary are cached — wall-clock
//! outcomes (deadline, cancellation) and outright failures always re-run.

use crate::job::JobRecord;
use crate::manifest::{self, ManifestError, ManifestIo};
use crate::{json, AttemptOutcome};
use ffsim_core::SimConfig;
use ffsim_emu::Memory;
use ffsim_isa::Program;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Cache entry format version; bumped on incompatible layout changes.
pub const CACHE_VERSION: i64 = 1;

/// The content address of one cached result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Digest of the program text and initial memory image.
    pub workload: u64,
    /// Digest of the deterministic configuration knobs.
    pub config: u64,
}

impl CacheKey {
    /// The entry's file name: both digests, fixed-width hex.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{:016x}-{:016x}.json", self.workload, self.config)
    }
}

/// Digest of a workload: program disassembly plus initial memory image.
#[must_use]
pub fn workload_digest(program: &Program, memory: &Memory) -> u64 {
    let mut text = String::new();
    let _ = writeln!(text, "base {:#x}", program.base());
    let _ = writeln!(text, "entry {:#x}", program.entry());
    for (_, instr) in program.iter() {
        let _ = writeln!(text, "{instr}");
    }
    let _ = writeln!(text, "memory {:016x}", memory.digest());
    crate::fnv::fnv1a(text.as_bytes())
}

/// Digest of the deterministic configuration knobs plus the job's
/// supervision fingerprint (`max_attempts` per rung, degradation ladder
/// on/off). See the [module docs](self) for what is included and why.
#[must_use]
pub fn config_digest(cfg: &SimConfig, max_attempts: u32, degrade: bool) -> u64 {
    // Debug renderings are deterministic within a build; a rendering
    // change across versions merely misses (and repopulates) the cache.
    let text = format!(
        "v{CACHE_VERSION}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|attempts={max_attempts}|degrade={degrade}",
        cfg.core,
        cfg.mode,
        cfg.max_instructions,
        cfg.warmup_instructions,
        cfg.code_cache_capacity,
        cfg.convergence,
        cfg.fault_policy,
        cfg.wrong_path_watchdog,
        cfg.fault_model,
        cfg.max_memory_pages,
    );
    // `wp_pc_corruption` folded separately so older digests of the
    // common None case stay aligned with the field list above.
    crate::fnv::fnv1a(format!("{text}|{:?}", cfg.wp_pc_corruption).as_bytes())
}

/// What a cache probe found.
#[derive(Debug)]
pub enum Lookup {
    /// No entry for this key.
    Miss,
    /// A verified entry: the cached record, ready to re-key.
    Hit(Box<JobRecord>),
    /// A damaged entry was found, deleted, and must be recomputed.
    Evicted(ManifestError),
}

/// An on-disk result cache rooted at one directory.
#[derive(Clone, Debug)]
pub struct CacheStore {
    dir: PathBuf,
}

impl CacheStore {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: PathBuf) -> CacheStore {
        CacheStore { dir }
    }

    /// The entry path for `key`.
    #[must_use]
    pub fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Whether a record is deterministic enough to cache: it carries a
    /// result summary and every attempt outcome is reproducible
    /// (`Success` or `Fault`) — never wall-clock outcomes.
    #[must_use]
    pub fn cacheable(record: &JobRecord) -> bool {
        record.summary.is_some()
            && record.attempts.iter().all(|a| {
                matches!(
                    a.outcome,
                    AttemptOutcome::Success | AttemptOutcome::Fault(_)
                )
            })
    }

    /// Probes the cache for `key`, verifying the entry's checksum seal
    /// and embedded key. A damaged or mismatched entry is deleted
    /// (evicted) and reported — it is never served.
    #[must_use]
    pub fn lookup(&self, key: CacheKey) -> Lookup {
        crate::hostobs::scope(ffsim_obs::Phase::CacheIo, || self.lookup_inner(key))
    }

    fn lookup_inner(&self, key: CacheKey) -> Lookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            // An unreadable entry cannot be verified, so it cannot be
            // trusted; treat as a miss and recompute.
            Err(_) => return Lookup::Miss,
        };
        match parse_entry(&text, key) {
            Ok(record) => {
                crate::hostobs::inc("cache_verified_hits_total");
                Lookup::Hit(Box::new(record))
            }
            Err(error) => {
                // Evict: a corrupt entry must never be served, and
                // leaving it would re-diagnose it on every probe.
                crate::hostobs::inc("cache_evictions_total");
                std::fs::remove_file(&path).ok();
                Lookup::Evicted(error.with_context(&format!("cache {}", path.display())))
            }
        }
    }

    /// Writes `record` under `key` through `io`: temp file in the cache
    /// directory, checksum seal, atomic rename. A crash or injected
    /// fault at any point leaves either no entry or the previous intact
    /// one — never a torn file that a later lookup could trust.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Io`] for directory creation, write, or rename
    /// failures. Callers treat a failed cache write as a lost
    /// optimization, not a lost result: the record is still committed to
    /// the manifest.
    pub fn store_with(
        &self,
        io: &mut dyn ManifestIo,
        key: CacheKey,
        record: &JobRecord,
    ) -> Result<(), ManifestError> {
        crate::hostobs::inc("cache_stores_total");
        crate::hostobs::scope(ffsim_obs::Phase::CacheIo, || {
            self.store_inner(io, key, record)
        })
    }

    fn store_inner(
        &self,
        io: &mut dyn ManifestIo,
        key: CacheKey,
        record: &JobRecord,
    ) -> Result<(), ManifestError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| {
            ManifestError::Io(format!("creating cache {}: {e}", self.dir.display()))
        })?;
        // Strip the volatile, per-run slices before caching: timing and
        // CPI ride telemetry, `cached` describes *this* run's provenance.
        let mut persisted = record.clone();
        persisted.timing = None;
        persisted.cpi = None;
        persisted.cached = false;
        persisted.sim = None;
        let body = json::Value::Obj(vec![
            ("version".into(), json::Value::Int(CACHE_VERSION)),
            (
                "workload".into(),
                json::Value::Str(format!("{:016x}", key.workload)),
            ),
            (
                "config".into(),
                json::Value::Str(format!("{:016x}", key.config)),
            ),
            ("record".into(), persisted.to_value()),
        ])
        .to_json();
        let path = self.entry_path(key);
        let tmp = path.with_extension("tmp");
        io.write(&tmp, manifest::seal(&body).as_bytes())
            .map_err(|e| {
                ManifestError::Io(format!("writing cache entry {}: {e}", tmp.display()))
            })?;
        io.rename(&tmp, &path).map_err(|e| {
            ManifestError::Io(format!("installing cache entry {}: {e}", path.display()))
        })
    }
}

/// Verifies and parses one sealed cache entry, checking the embedded key
/// against the probe key (a mismatch means a damaged or misplaced file).
fn parse_entry(text: &str, key: CacheKey) -> Result<JobRecord, ManifestError> {
    let body = manifest::unseal(text)?;
    let doc = json::parse(body).map_err(ManifestError::Malformed)?;
    let version = doc
        .get("version")
        .and_then(json::Value::as_int)
        .ok_or_else(|| ManifestError::Malformed("cache entry missing version".into()))?;
    if version != CACHE_VERSION {
        return Err(ManifestError::Malformed(format!(
            "cache entry version {version} unsupported (expected {CACHE_VERSION})"
        )));
    }
    let embedded = |field: &str| -> Result<u64, ManifestError> {
        doc.get(field)
            .and_then(json::Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| ManifestError::Malformed(format!("cache entry missing {field} digest")))
    };
    if embedded("workload")? != key.workload || embedded("config")? != key.config {
        return Err(ManifestError::Malformed(
            "cache entry key disagrees with its address".into(),
        ));
    }
    let record = doc
        .get("record")
        .and_then(JobRecord::from_value)
        .ok_or_else(|| ManifestError::Malformed("cache entry record malformed".into()))?;
    if !CacheStore::cacheable(&record) {
        return Err(ManifestError::Malformed(
            "cache entry holds an uncacheable record".into(),
        ));
    }
    Ok(record)
}

/// Re-keys a cached record for the job that hit it: the current job id,
/// provenance marked, volatile slices clear.
#[must_use]
pub fn rekey(mut record: JobRecord, job_id: &str) -> JobRecord {
    record.id = job_id.to_string();
    record.cached = true;
    record.timing = None;
    record.cpi = None;
    record.sim = None;
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AttemptRecord, JobStatus, JobSummary};
    use crate::manifest::{FaultyIo, RealIo};
    use ffsim_core::WrongPathMode;
    use ffsim_isa::{Asm, Reg};

    fn program() -> Program {
        let mut a = Asm::new();
        a.li(Reg::new(1), 3);
        a.label("loop");
        a.addi(Reg::new(1), Reg::new(1), -1);
        a.bnez(Reg::new(1), "loop");
        a.halt();
        a.assemble().unwrap()
    }

    fn record(id: &str) -> JobRecord {
        JobRecord {
            id: id.into(),
            requested_mode: WrongPathMode::WrongPathEmulation,
            final_mode: WrongPathMode::WrongPathEmulation,
            status: JobStatus::Completed,
            attempts: vec![AttemptRecord {
                attempt: 1,
                mode: WrongPathMode::WrongPathEmulation,
                outcome: AttemptOutcome::Success,
                backoff_ms: 0,
            }],
            summary: Some(JobSummary {
                instructions: 42,
                cycles: 84,
                wrong_path_instructions: 7,
                state_digest: 0xfeed,
            }),
            timing: None,
            cpi: None,
            cached: false,
            sim: None,
        }
    }

    fn temp_cache(name: &str) -> CacheStore {
        let dir = std::env::temp_dir().join(format!("ffsim-driver-cache-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        CacheStore::new(dir)
    }

    fn key() -> CacheKey {
        CacheKey {
            workload: 0x1111_2222_3333_4444,
            config: 0x5555_6666_7777_8888,
        }
    }

    #[test]
    fn workload_digest_sees_program_and_memory() {
        let p = program();
        let empty = Memory::new();
        let mut touched = Memory::new();
        touched.write_u64(0x2000_0000, 99);
        let base = workload_digest(&p, &empty);
        assert_eq!(base, workload_digest(&p, &Memory::new()), "deterministic");
        assert_ne!(base, workload_digest(&p, &touched), "memory matters");

        let mut a = Asm::new();
        a.li(Reg::new(1), 4); // one immediate differs
        a.label("loop");
        a.addi(Reg::new(1), Reg::new(1), -1);
        a.bnez(Reg::new(1), "loop");
        a.halt();
        let other = a.assemble().unwrap();
        assert_ne!(base, workload_digest(&other, &empty), "program matters");
    }

    #[test]
    fn config_digest_sees_knobs_and_supervision() {
        let cfg = SimConfig::new(WrongPathMode::WrongPathEmulation);
        let base = config_digest(&cfg, 3, true);
        assert_eq!(base, config_digest(&cfg, 3, true), "deterministic");
        assert_ne!(base, config_digest(&cfg, 2, true), "attempts matter");
        assert_ne!(base, config_digest(&cfg, 3, false), "ladder matters");
        let mut other = cfg.clone();
        other.max_instructions = Some(1000);
        assert_ne!(base, config_digest(&other, 3, true), "budget matters");
        let conv = SimConfig::new(WrongPathMode::ConvergenceExploitation);
        assert_ne!(base, config_digest(&conv, 3, true), "mode matters");
        // The cancellation token is excluded: supervised and
        // unsupervised runs of the same config share an entry.
        let mut cancelled = cfg.clone();
        cancelled.cancel = Some(ffsim_core::CancelToken::new());
        assert_eq!(base, config_digest(&cancelled, 3, true));
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = temp_cache("roundtrip");
        assert!(matches!(cache.lookup(key()), Lookup::Miss));
        cache
            .store_with(&mut RealIo, key(), &record("orig"))
            .unwrap();
        let Lookup::Hit(cached) = cache.lookup(key()) else {
            panic!("expected a hit");
        };
        assert_eq!(cached.summary, record("orig").summary);
        assert_eq!(cached.attempts, record("orig").attempts);
        // Re-keying marks provenance and adopts the new id.
        let adopted = rekey(*cached, "new-id");
        assert_eq!(adopted.id, "new-id");
        assert!(adopted.cached);
        std::fs::remove_dir_all(cache.dir).ok();
    }

    #[test]
    fn corrupt_entry_is_evicted_not_served() {
        let cache = temp_cache("evict");
        cache.store_with(&mut RealIo, key(), &record("a")).unwrap();
        let path = cache.entry_path(key());
        // Damage every byte offset class: truncation...
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            cache.lookup(key()),
            Lookup::Evicted(ManifestError::Truncated(_))
        ));
        assert!(!path.exists(), "corrupt entry must be deleted");
        // ...a flipped byte under an intact trailer...
        cache.store_with(&mut RealIo, key(), &record("a")).unwrap();
        std::fs::write(&path, full.replacen("42", "43", 1)).unwrap();
        assert!(matches!(
            cache.lookup(key()),
            Lookup::Evicted(ManifestError::ChecksumMismatch(_))
        ));
        assert!(!path.exists());
        // ...and a sealed entry whose key disagrees with its address
        // (e.g. a file renamed by hand).
        let other = CacheKey {
            workload: 1,
            config: 2,
        };
        cache.store_with(&mut RealIo, other, &record("a")).unwrap();
        std::fs::rename(cache.entry_path(other), &path).unwrap();
        assert!(matches!(
            cache.lookup(key()),
            Lookup::Evicted(ManifestError::Malformed(_))
        ));
        std::fs::remove_dir_all(cache.dir).ok();
    }

    #[test]
    fn injected_faults_never_leave_a_servable_torn_entry() {
        let cache = temp_cache("faults");
        let faults = [
            FaultyIo {
                short_write: Some(13),
                ..FaultyIo::default()
            },
            FaultyIo {
                enospc: true,
                ..FaultyIo::default()
            },
            FaultyIo {
                fail_rename: true,
                ..FaultyIo::default()
            },
        ];
        // With no previous generation: after any fault, the lookup is a
        // clean miss (recompute), never a hit on torn data.
        for mut io in faults {
            let err = cache
                .store_with(&mut io, key(), &record("a"))
                .expect_err("fault must surface");
            assert!(matches!(err, ManifestError::Io(_)), "{err:?}");
            assert!(
                matches!(cache.lookup(key()), Lookup::Miss),
                "{io:?}: torn entry served or mis-diagnosed"
            );
        }
        // With a previous generation installed, a failed overwrite
        // leaves it intact and servable.
        cache.store_with(&mut RealIo, key(), &record("a")).unwrap();
        for mut io in faults {
            let _ = cache.store_with(&mut io, key(), &record("b"));
            let Lookup::Hit(served) = cache.lookup(key()) else {
                panic!("{io:?}: previous generation lost");
            };
            assert_eq!(served.id, "a", "{io:?}: wrong generation served");
        }
        std::fs::remove_dir_all(cache.dir).ok();
    }

    #[test]
    fn wall_clock_outcomes_are_not_cacheable() {
        let mut rec = record("a");
        assert!(CacheStore::cacheable(&rec));
        rec.attempts.push(AttemptRecord {
            attempt: 2,
            mode: WrongPathMode::WrongPathEmulation,
            outcome: AttemptOutcome::DeadlineExceeded,
            backoff_ms: 0,
        });
        assert!(!CacheStore::cacheable(&rec), "deadlines are wall-clock");
        let mut failed = record("b");
        failed.summary = None;
        assert!(!CacheStore::cacheable(&failed), "failures always re-run");
    }
}
