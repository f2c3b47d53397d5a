//! Campaign manifest: the on-disk record of completed jobs.
//!
//! The manifest is written incrementally — rewritten atomically
//! (temp-file + rename) after every job that finishes — so a campaign
//! killed mid-flight (SIGTERM, OOM, power) loses only its in-flight jobs.
//! Resuming a campaign against the same manifest path re-runs exactly the
//! jobs without a record.
//!
//! Serialization is deterministic: records are sorted by job id and
//! contain no wall-clock values, so the same campaign produces a
//! byte-identical manifest whatever the worker count or kill timing.
//!
//! # Crash consistency
//!
//! Atomic rename protects against *our* crashes, but not against
//! filesystems that reorder data and metadata, partial copies, or stray
//! editors: the file a resume reads may be torn anyway. Every manifest
//! therefore ends with a checksum trailer line
//! (`#checksum fnv1a <16 hex digits>` over everything before it), and
//! [`load`] classifies what it finds with a typed [`ManifestError`]:
//! a file cut at *any* byte offset loses trailer bytes and surfaces as
//! [`ManifestError::Truncated`]; a flipped byte as
//! [`ManifestError::ChecksumMismatch`]; intact-but-bogus JSON as
//! [`ManifestError::Malformed`]. [`load_or_quarantine`] turns any of
//! those into a fresh start: the damaged file is renamed to
//! `<name>.corrupt` (evidence preserved; an earlier quarantine of the
//! same file is never replaced, the next one goes to `<name>.corrupt.1`
//! and so on), the campaign re-runs from an empty manifest, and the
//! [`Quarantine`] notice is reported instead of a panic or a silent loss.
//!
//! Writes go through the [`ManifestIo`] seam so tests can inject short
//! writes, failed renames, and out-of-space errors ([`FaultyIo`]) and
//! prove the previous manifest generation survives each of them.
//!
//! [`ManifestStore`] is the one record store built on these primitives:
//! the campaign runner and the job queue both commit through it.

use crate::fnv::fnv1a;
use crate::job::JobRecord;
use crate::json::{parse, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Current manifest format version; bumped on incompatible layout changes.
pub const MANIFEST_VERSION: i64 = 1;

/// Prefix of the checksum trailer line terminating every manifest (and
/// every queue-journal record, which reuses the same seal discipline).
pub(crate) const CHECKSUM_PREFIX: &str = "#checksum fnv1a ";

/// Why a manifest could not be used. Everything but [`ManifestError::Io`]
/// means the file's *contents* are damaged and quarantining applies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManifestError {
    /// Reading, writing, or renaming failed at the filesystem level.
    Io(String),
    /// The file ends before a complete checksum trailer — a torn or
    /// short write (every truncation lands here).
    Truncated(String),
    /// The trailer is present but disagrees with the body — bit rot or a
    /// concurrent writer.
    ChecksumMismatch(String),
    /// Checksum intact but the JSON body is not a valid manifest.
    Malformed(String),
}

impl ManifestError {
    /// Whether the error describes damaged contents (quarantinable), as
    /// opposed to an environment failure worth retrying or surfacing.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        !matches!(self, ManifestError::Io(_))
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(m) => write!(f, "manifest i/o error: {m}"),
            ManifestError::Truncated(m) => write!(f, "manifest truncated: {m}"),
            ManifestError::ChecksumMismatch(m) => write!(f, "manifest checksum mismatch: {m}"),
            ManifestError::Malformed(m) => write!(f, "manifest malformed: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// What [`load_or_quarantine`] did with a damaged manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quarantine {
    /// The typed diagnosis of the damage.
    pub error: ManifestError,
    /// Where the damaged file was moved (a sibling `<name>.corrupt`
    /// path, numbered when an earlier quarantine already holds it).
    pub quarantined_to: PathBuf,
}

impl fmt::Display for Quarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; quarantined to {} and restarted from an empty manifest",
            self.error,
            self.quarantined_to.display()
        )
    }
}

/// Appends the checksum trailer to a serialized document body. The body
/// must end with a newline (every serializer here emits one); [`unseal`]
/// verifies and strips the trailer again. This is the crash-consistency
/// primitive shared by the campaign manifest, the queue journal and
/// snapshot, and the result cache: any file that does not round-trip through `seal`/`unseal` is
/// treated as damaged, never trusted.
#[must_use]
pub fn seal(body: &str) -> String {
    format!("{body}{CHECKSUM_PREFIX}{:016x}\n", fnv1a(body.as_bytes()))
}

/// Verifies the checksum trailer of a sealed document and returns the
/// body.
///
/// # Errors
///
/// [`ManifestError::Truncated`] when the trailer is absent or incomplete
/// (any proper prefix of a sealed document lands here) and
/// [`ManifestError::ChecksumMismatch`] when the body hash disagrees.
pub fn unseal(text: &str) -> Result<&str, ManifestError> {
    let Some(without_final_newline) = text.strip_suffix('\n') else {
        return Err(ManifestError::Truncated(
            "file does not end with a newline".into(),
        ));
    };
    let Some(body_len) = without_final_newline.rfind('\n').map(|p| p + 1) else {
        return Err(ManifestError::Truncated("single-line file".into()));
    };
    let trailer = &without_final_newline[body_len..];
    let Some(hex) = trailer.strip_prefix(CHECKSUM_PREFIX) else {
        return Err(ManifestError::Truncated(
            "final line is not a checksum trailer".into(),
        ));
    };
    let expected = u64::from_str_radix(hex, 16)
        .map_err(|_| ManifestError::Truncated(format!("unparseable checksum `{hex}`")))?;
    let body = &text[..body_len];
    let actual = fnv1a(body.as_bytes());
    if actual != expected {
        return Err(ManifestError::ChecksumMismatch(format!(
            "trailer says {expected:016x}, body hashes to {actual:016x}"
        )));
    }
    Ok(body)
}

/// Serializes `records` (keyed and therefore sorted by job id) as the
/// JSON body, without the checksum trailer.
#[must_use]
pub fn to_json(records: &BTreeMap<String, JobRecord>) -> String {
    Value::Obj(vec![
        ("version".into(), Value::Int(MANIFEST_VERSION)),
        (
            "jobs".into(),
            Value::Arr(records.values().map(JobRecord::to_value).collect()),
        ),
    ])
    .to_json()
}

/// Serializes `records` as the full on-disk document: JSON body plus the
/// checksum trailer line.
#[must_use]
pub fn to_text(records: &BTreeMap<String, JobRecord>) -> String {
    seal(&to_json(records))
}

/// Parses a manifest JSON body into records keyed by job id.
///
/// # Errors
///
/// A message describing the syntax error, version mismatch, or malformed
/// record. Callers treat any error as fatal: silently dropping records
/// would re-run completed jobs at best and mask corruption at worst.
pub fn from_json(text: &str) -> Result<BTreeMap<String, JobRecord>, String> {
    let doc = parse(text)?;
    let version = doc
        .get("version")
        .and_then(Value::as_int)
        .ok_or("manifest missing version")?;
    if version != MANIFEST_VERSION {
        return Err(format!(
            "manifest version {version} unsupported (expected {MANIFEST_VERSION})"
        ));
    }
    let jobs = doc
        .get("jobs")
        .and_then(Value::as_arr)
        .ok_or("manifest missing jobs array")?;
    let mut records = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let record = JobRecord::from_value(job).ok_or(format!("malformed job record #{i}"))?;
        if records.insert(record.id.clone(), record).is_some() {
            return Err(format!("duplicate job id in record #{i}"));
        }
    }
    Ok(records)
}

/// Verifies the checksum trailer and parses the full on-disk document.
///
/// # Errors
///
/// [`ManifestError::Truncated`] when the trailer is absent or incomplete
/// (any proper prefix of a valid document lands here),
/// [`ManifestError::ChecksumMismatch`] when the body hash disagrees, and
/// [`ManifestError::Malformed`] when the verified body is not a valid
/// manifest.
pub fn from_text(text: &str) -> Result<BTreeMap<String, JobRecord>, ManifestError> {
    from_json(unseal(text)?).map_err(ManifestError::Malformed)
}

/// Loads a manifest from disk; a missing file is an empty manifest.
///
/// # Errors
///
/// I/O failures other than not-found, and any verification or parse
/// error from [`from_text`].
pub fn load(path: &Path) -> Result<BTreeMap<String, JobRecord>, ManifestError> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            from_text(&text).map_err(|e| e.with_context(&format!("manifest {}", path.display())))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(ManifestError::Io(format!(
            "reading manifest {}: {e}",
            path.display()
        ))),
    }
}

impl ManifestError {
    /// Prefixes the error message with `context`, keeping the variant.
    pub(crate) fn with_context(self, context: &str) -> ManifestError {
        match self {
            ManifestError::Io(m) => ManifestError::Io(format!("{context}: {m}")),
            ManifestError::Truncated(m) => ManifestError::Truncated(format!("{context}: {m}")),
            ManifestError::ChecksumMismatch(m) => {
                ManifestError::ChecksumMismatch(format!("{context}: {m}"))
            }
            ManifestError::Malformed(m) => ManifestError::Malformed(format!("{context}: {m}")),
        }
    }
}

/// Loads a manifest, quarantining a damaged file instead of failing.
///
/// A corrupt manifest (truncated, checksum mismatch, malformed) is
/// moved aside by `quarantine_file` and the campaign starts
/// from an empty manifest, with the diagnosis returned as a
/// [`Quarantine`] notice for the report.
///
/// # Errors
///
/// Filesystem-level failures only: unreadable file, or the quarantine
/// rename itself failing (then the damaged file is left in place).
pub fn load_or_quarantine(
    path: &Path,
) -> Result<(BTreeMap<String, JobRecord>, Option<Quarantine>), ManifestError> {
    match load(path) {
        Ok(records) => Ok((records, None)),
        Err(error) if error.is_corruption() => {
            Ok((BTreeMap::new(), Some(quarantine_file(path, error)?)))
        }
        Err(io) => Err(io),
    }
}

/// Moves a damaged file to a sibling quarantine path, preserving the
/// evidence, and returns the [`Quarantine`] notice. Shared by the
/// campaign manifest and the queue journal/snapshot — every durable
/// artifact quarantines the same way.
///
/// The quarantine path keeps the whole file name, so `queue.journal` and
/// `queue.snapshot` never share one: `<name>.corrupt`, or
/// `<name>.corrupt.<n>` with the first free `n` when earlier evidence
/// already sits there. Existing evidence is never replaced.
///
/// # Errors
///
/// [`ManifestError::Io`] when the rename itself fails (the damaged file is
/// then left in place).
pub(crate) fn quarantine_file(
    path: &Path,
    error: ManifestError,
) -> Result<Quarantine, ManifestError> {
    let name = path
        .file_name()
        .map_or_else(|| "manifest".into(), |n| n.to_string_lossy().into_owned());
    let quarantined_to = (0u64..)
        .map(|n| match n {
            0 => path.with_file_name(format!("{name}.corrupt")),
            n => path.with_file_name(format!("{name}.corrupt.{n}")),
        })
        .find(|candidate| !candidate.exists())
        .expect("an unbounded sequence of names has a free one");
    std::fs::rename(path, &quarantined_to).map_err(|e| {
        ManifestError::Io(format!(
            "quarantining {} to {}: {e}",
            path.display(),
            quarantined_to.display()
        ))
    })?;
    Ok(Quarantine {
        error,
        quarantined_to,
    })
}

/// Reads a checksum-sealed document and returns its verified body, or
/// `None` for a missing file (an empty artifact, not an error).
///
/// # Errors
///
/// [`ManifestError::Io`] for filesystem failures other than not-found, and
/// the [`unseal`] verification errors for damaged contents.
pub(crate) fn read_sealed(path: &Path) -> Result<Option<String>, ManifestError> {
    match std::fs::read_to_string(path) {
        Ok(text) => unseal(&text)
            .map(|body| Some(body.to_string()))
            .map_err(|e| e.with_context(&format!("sealed file {}", path.display()))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ManifestError::Io(format!(
            "reading {}: {e}",
            path.display()
        ))),
    }
}

/// Atomically installs a checksum-sealed document at `path` through `io`
/// (temp file + rename, like [`save_with`]): the previous generation stays
/// intact whatever `io` does. `body` must end with a newline.
///
/// # Errors
///
/// [`ManifestError::Io`] for failures writing the temp file or renaming it
/// into place.
pub(crate) fn save_sealed_with(
    io: &mut dyn ManifestIo,
    path: &Path,
    body: &str,
) -> Result<(), ManifestError> {
    let tmp = path.with_extension("tmp");
    io.write(&tmp, seal(body).as_bytes())
        .map_err(|e| ManifestError::Io(format!("writing {}: {e}", tmp.display())))?;
    io.rename(&tmp, path)
        .map_err(|e| ManifestError::Io(format!("installing {}: {e}", path.display())))
}

/// The filesystem operations [`save_with`] performs, as a seam for fault
/// injection. Production code uses [`RealIo`].
pub trait ManifestIo {
    /// Writes `bytes` to `path`, creating or replacing it.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem failure.
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Atomically renames `from` onto `to`.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem failure.
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Appends `bytes` to `path`, creating the file if absent. Used by the
    /// queue journal; unlike [`ManifestIo::write`] this is *not* atomic —
    /// a crash mid-append leaves a torn tail, which journal replay is
    /// designed to drop.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem failure.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(bytes)
    }
}

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

impl ManifestIo for RealIo {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// Fault-injecting [`ManifestIo`]: simulates the failure modes a manifest
/// save meets in the wild. Each knob fires on every matching call.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultyIo {
    /// Write only this many bytes, then fail — a crash or disk error
    /// mid-write leaving a torn temp file behind.
    pub short_write: Option<usize>,
    /// Report out-of-space without writing anything.
    pub enospc: bool,
    /// Fail the install rename (e.g. permissions yanked mid-campaign).
    pub fail_rename: bool,
}

impl ManifestIo for FaultyIo {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.enospc {
            return Err(std::io::Error::other("no space left on device (injected)"));
        }
        if let Some(n) = self.short_write {
            std::fs::write(path, &bytes[..n.min(bytes.len())])?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("short write: {n} of {} bytes (injected)", bytes.len()),
            ));
        }
        std::fs::write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        if self.fail_rename {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "rename refused (injected)",
            ));
        }
        std::fs::rename(from, to)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.enospc {
            return Err(std::io::Error::other("no space left on device (injected)"));
        }
        if let Some(n) = self.short_write {
            // A torn append: only a prefix of the record reaches the disk.
            RealIo.append(path, &bytes[..n.min(bytes.len())])?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("short append: {n} of {} bytes (injected)", bytes.len()),
            ));
        }
        RealIo.append(path, bytes)
    }
}

/// Atomically replaces the manifest at `path` through `io` (write temp
/// file in the same directory, then rename): whatever `io` does — crash
/// mid-write, refuse the rename — the previous manifest generation stays
/// intact and loadable.
///
/// # Errors
///
/// [`ManifestError::Io`] for failures writing the temp file or renaming
/// it into place.
pub fn save_with(
    io: &mut dyn ManifestIo,
    path: &Path,
    records: &BTreeMap<String, JobRecord>,
) -> Result<(), ManifestError> {
    save_sealed_with(io, path, &to_json(records))
}

/// [`save_with`] on the real filesystem.
///
/// # Errors
///
/// See [`save_with`].
pub fn save(path: &Path, records: &BTreeMap<String, JobRecord>) -> Result<(), ManifestError> {
    save_with(&mut RealIo, path, records)
}

/// The record store behind campaigns and the job queue: the committed
/// records in memory, backed by one sealed manifest file (or by nothing,
/// for campaigns without a manifest).
#[derive(Debug)]
pub struct ManifestStore {
    path: Option<PathBuf>,
    records: Mutex<BTreeMap<String, JobRecord>>,
}

impl ManifestStore {
    /// A store over the manifest at `path`, or an in-memory store that
    /// never touches disk when `path` is `None`. Call
    /// [`ManifestStore::load`] to read what an earlier run committed.
    #[must_use]
    pub fn new(path: Option<PathBuf>) -> ManifestStore {
        ManifestStore {
            path,
            records: Mutex::new(BTreeMap::new()),
        }
    }

    /// Loads the manifest from disk through [`load_or_quarantine`]: a
    /// missing file is empty, a damaged one is quarantined and reported.
    ///
    /// # Errors
    ///
    /// Filesystem-level failures only (unreadable file, failed
    /// quarantine rename); damaged *contents* degrade instead of
    /// failing.
    pub fn load(&mut self) -> Result<Option<Quarantine>, ManifestError> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        let (records, quarantine) = load_or_quarantine(path)?;
        *lock(&self.records) = records;
        Ok(quarantine)
    }

    /// Whether a record for `job_id` is already committed.
    #[must_use]
    pub fn contains(&self, job_id: &str) -> bool {
        lock(&self.records).contains_key(job_id)
    }

    /// Commits one record: inserts it and atomically rewrites the
    /// manifest through `io`, under the store's lock, so an older
    /// generation never overwrites a newer one.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Io`] from the save; the in-memory insert is
    /// rolled back so a failed commit leaves memory and disk agreed.
    pub fn commit(&self, io: &mut dyn ManifestIo, record: JobRecord) -> Result<(), ManifestError> {
        crate::hostobs::inc("manifest_commits_total");
        crate::hostobs::scope(ffsim_obs::Phase::ManifestIo, || {
            let id = record.id.clone();
            let mut records = lock(&self.records);
            let previous = records.insert(id.clone(), record);
            if let Some(path) = &self.path {
                if let Err(e) = save_with(io, path, &records) {
                    // Roll back: the record is not durable, so a resumed
                    // campaign must re-run it; memory must agree.
                    match previous {
                        Some(old) => records.insert(id, old),
                        None => records.remove(&id),
                    };
                    return Err(e);
                }
            }
            Ok(())
        })
    }

    /// Every committed record, id-sorted.
    #[must_use]
    pub fn records(&self) -> BTreeMap<String, JobRecord> {
        lock(&self.records).clone()
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AttemptOutcome, AttemptRecord, JobStatus, JobSummary};
    use ffsim_core::WrongPathMode;

    fn record(id: &str) -> JobRecord {
        JobRecord {
            id: id.into(),
            requested_mode: WrongPathMode::ConvergenceExploitation,
            final_mode: WrongPathMode::ConvergenceExploitation,
            status: JobStatus::Completed,
            attempts: vec![AttemptRecord {
                attempt: 1,
                mode: WrongPathMode::ConvergenceExploitation,
                outcome: AttemptOutcome::Success,
                backoff_ms: 0,
            }],
            summary: Some(JobSummary {
                instructions: 10,
                cycles: 20,
                wrong_path_instructions: 1,
                state_digest: 0x42,
            }),
            timing: None,
            cpi: None,
            cached: false,
            sim: None,
        }
    }

    fn one_record() -> BTreeMap<String, JobRecord> {
        let mut records = BTreeMap::new();
        records.insert("a".to_string(), record("a"));
        records
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffsim-driver-manifest-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_and_sorts_by_id() {
        let mut records = BTreeMap::new();
        // Insertion order here is reversed; serialization must sort.
        records.insert("z".to_string(), record("z"));
        records.insert("a".to_string(), record("a"));
        let text = to_text(&records);
        assert!(text.find("\"a\"").unwrap() < text.find("\"z\"").unwrap());
        let back = from_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back["a"].status, JobStatus::Completed);
    }

    #[test]
    fn missing_file_is_empty() {
        let dir = std::env::temp_dir().join("ffsim-driver-manifest-missing");
        assert!(load(&dir.join("does-not-exist.json")).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_version_and_duplicates() {
        assert!(from_json("{\"version\": 99, \"jobs\": []}").is_err());
        let one = record("a").to_value().to_json();
        let one = one.trim_end();
        let doc = format!("{{\"version\": 1, \"jobs\": [{one}, {one}]}}");
        assert!(from_json(&doc).is_err());
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = temp_dir("rt");
        let path = dir.join("manifest.json");
        save(&path, &one_record()).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back["a"].summary.unwrap().state_digest, 0x42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_offset_is_a_typed_error() {
        // A half-written (or worse) manifest must never panic and never
        // parse: any proper prefix loses trailer bytes.
        let full = to_text(&one_record());
        for cut in 0..full.len() {
            let err = from_text(&full[..cut]).expect_err("proper prefix must not parse");
            assert!(
                matches!(err, ManifestError::Truncated(_)),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
        }
        assert!(from_text(&full).is_ok());
    }

    #[test]
    fn half_written_file_loads_as_typed_error_not_panic() {
        let dir = temp_dir("half");
        let path = dir.join("manifest.json");
        let full = to_text(&one_record());
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load(&path).expect_err("half-written manifest must not load");
        assert!(matches!(err, ManifestError::Truncated(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_is_a_checksum_mismatch() {
        let full = to_text(&one_record());
        // Flip a digit inside the body (the instruction count "10").
        let corrupted = full.replacen("10", "19", 1);
        assert_ne!(full, corrupted, "corruption must change the body");
        let err = from_text(&corrupted).expect_err("bit flip must not parse");
        assert!(matches!(err, ManifestError::ChecksumMismatch(_)), "{err:?}");
    }

    #[test]
    fn valid_checksum_over_garbage_is_malformed() {
        let body = "{\"version\": 99, \"jobs\": []}\n";
        let doc = format!("{body}{CHECKSUM_PREFIX}{:016x}\n", fnv1a(body.as_bytes()));
        let err = from_text(&doc).expect_err("bad version must not parse");
        assert!(matches!(err, ManifestError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn quarantine_moves_the_corrupt_file_and_starts_empty() {
        let dir = temp_dir("quarantine");
        let path = dir.join("manifest.json");
        std::fs::write(&path, "not a manifest at all").unwrap();
        let (records, notice) = load_or_quarantine(&path).unwrap();
        assert!(records.is_empty());
        let notice = notice.expect("corruption must be reported");
        assert!(matches!(notice.error, ManifestError::Truncated(_)));
        assert!(notice.quarantined_to.ends_with("manifest.json.corrupt"));
        assert!(!path.exists(), "damaged file must be moved away");
        assert!(notice.quarantined_to.exists(), "evidence must be preserved");
        // A subsequent load starts clean — the campaign can resume.
        assert!(load(&path).unwrap().is_empty());

        // A second quarantine of the same file keeps the first evidence.
        std::fs::write(&path, "damaged again").unwrap();
        let (_, second) = load_or_quarantine(&path).unwrap();
        let second = second.expect("corruption must be reported");
        assert!(second.quarantined_to.ends_with("manifest.json.corrupt.1"));
        assert_eq!(
            std::fs::read_to_string(&notice.quarantined_to).unwrap(),
            "not a manifest at all"
        );
        assert_eq!(
            std::fs::read_to_string(&second.quarantined_to).unwrap(),
            "damaged again"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healthy_manifest_is_not_quarantined() {
        let dir = temp_dir("healthy");
        let path = dir.join("manifest.json");
        save(&path, &one_record()).unwrap();
        let (records, notice) = load_or_quarantine(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(notice.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_leave_the_previous_generation_intact() {
        let dir = temp_dir("faults");
        let path = dir.join("manifest.json");
        save(&path, &one_record()).unwrap();
        let mut bigger = one_record();
        bigger.insert("b".to_string(), record("b"));

        let faults = [
            FaultyIo {
                short_write: Some(17),
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
        for mut io in faults {
            let err = save_with(&mut io, &path, &bigger).expect_err("fault must surface");
            assert!(matches!(err, ManifestError::Io(_)), "{err:?}");
            // The previous generation still loads: atomicity held.
            let back = load(&path).unwrap_or_else(|e| panic!("{io:?}: {e}"));
            assert_eq!(back.len(), 1, "{io:?} damaged the installed manifest");
        }
        // And once the faults clear, the save goes through.
        save(&path, &bigger).unwrap();
        assert_eq!(load(&path).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_store_commit_rolls_back_and_previous_generation_survives() {
        let dir = temp_dir("store-faulty-commit");
        let path = dir.join("manifest.json");
        let store = ManifestStore::new(Some(path.clone()));
        store.commit(&mut RealIo, record("a")).unwrap();
        store.commit(&mut RealIo, record("b")).unwrap();

        let faults = [
            FaultyIo {
                short_write: Some(9),
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
        for mut io in faults {
            let err = store
                .commit(&mut io, record("late"))
                .expect_err("fault must surface");
            assert!(matches!(err, ManifestError::Io(_)), "{err:?}");
            // Memory rolled back: the record is not durable.
            assert!(!store.contains("late"), "{io:?}: phantom commit");
            // And the file on disk still loads its previous generation.
            let mut reloaded = ManifestStore::new(Some(path.clone()));
            assert!(reloaded.load().unwrap().is_none(), "{io:?} tore the file");
            assert!(reloaded.contains("a") && reloaded.contains("b"));
            assert!(!reloaded.contains("late"));
        }
        // Once the fault clears, the commit goes through and resumes.
        store.commit(&mut RealIo, record("late")).unwrap();
        let mut reloaded = ManifestStore::new(Some(path));
        assert!(reloaded.load().unwrap().is_none());
        assert_eq!(to_text(&reloaded.records()), to_text(&store.records()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
