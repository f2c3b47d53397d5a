//! The permanent regression corpus: a directory of `.fsm` programs that
//! once exposed (or nearly exposed) a divergence, replayed by every
//! fuzzing run and by the test suite.
//!
//! Entries are **content-addressed**: the file name embeds a digest of
//! the canonical `.fsm` body, so re-finding a known program is a no-op
//! and the corpus never accumulates duplicates. The repository keeps its
//! corpus at the repo root (`corpus/`); `fuzz_smoke --corpus DIR` replays
//! it before fuzzing and writes newly shrunk divergences back to it.

use crate::artifact;
use ffsim_isa::fnv::fnv1a;
use ffsim_isa::Program;
use std::path::{Path, PathBuf};

/// The corpus file name for `program`: FNV-1a over its canonical `.fsm`
/// body, the entry's identity (stable across note changes: only the
/// program text is digested).
#[must_use]
pub fn entry_name(program: &Program) -> String {
    format!(
        "corpus-{:016x}.fsm",
        fnv1a(artifact::to_text(program).as_bytes())
    )
}

/// Lists the corpus entries in `dir`, sorted by file name so replay
/// order is deterministic. A missing directory is an empty corpus, not
/// an error.
///
/// # Errors
///
/// Any I/O failure reading an existing directory.
pub fn entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let read = match std::fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading corpus {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = read
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|e| e == "fsm")).then_some(path)
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Adds `program` to the corpus at `dir`, creating the directory if
/// needed. `note` lines become self-describing header comments. Returns
/// the written path, or `None` when an identical program is already in
/// the corpus.
///
/// # Errors
///
/// Any I/O failure creating the directory or writing the entry.
pub fn write_entry(dir: &Path, program: &Program, note: &str) -> Result<Option<PathBuf>, String> {
    let path = dir.join(entry_name(program));
    if path.exists() {
        return Ok(None);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut doc = String::new();
    for line in note.lines() {
        doc.push_str(&format!("# {line}\n"));
    }
    doc.push_str(&artifact::to_text(program));
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ffsim-corpus-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        assert_eq!(
            entries(&tmp_dir("corpus-missing")).expect("empty"),
            Vec::<PathBuf>::new()
        );
    }

    #[test]
    fn entries_are_content_addressed_and_deduplicated() {
        let dir = tmp_dir("corpus-dedupe");
        let program = generate(7);
        let first = write_entry(&dir, &program, "first find").expect("write");
        assert!(first.is_some(), "new program is written");
        let again = write_entry(&dir, &program, "different note, same program").expect("write");
        assert!(again.is_none(), "identical program deduplicates");
        assert_eq!(entries(&dir).expect("list").len(), 1);

        let other = write_entry(&dir, &generate(8), "another").expect("write");
        assert!(other.is_some());
        assert_eq!(entries(&dir).expect("list").len(), 2);
    }

    #[test]
    fn written_entries_replay_bit_identically() {
        let dir = tmp_dir("corpus-replay");
        let program = generate(11);
        let path = write_entry(&dir, &program, "note\nwith two lines")
            .expect("write")
            .expect("new entry");
        let back = artifact::load(&path).expect("corpus entry parses");
        assert_eq!(
            artifact::to_text(&back),
            artifact::to_text(&program),
            "comment headers do not perturb the program"
        );
    }
}
