//! Correctness of every simulation a benchmark run makes.
//!
//! Each kernel × technique result is checked three ways:
//!
//! - it reproduces exactly across repetitions and between the untraced
//!   and traced passes;
//! - every technique agrees on the correct path (instruction count and
//!   final architectural-state digest) — wrong-path modeling must never
//!   change what the program computes;
//! - at the workload's default seed, it matches the committed
//!   `expected/<workload>.txt`.
//!
//! A simulation that errors or fails a check is one failed op.

use crate::spec::Workload;
use crate::Outcome;
use std::collections::HashMap;

/// The committed expected results of `workload` at its default seed.
fn expected_text(workload: Workload) -> &'static str {
    match workload {
        Workload::GapBranchy => include_str!("expected/gap_branchy.txt"),
        Workload::SpecBranchy => include_str!("expected/spec_branchy.txt"),
        Workload::SpecPredictable => include_str!("expected/spec_predictable.txt"),
        Workload::Campaign => include_str!("expected/campaign.txt"),
    }
}

/// The deterministic slice of one result that the expected files pin.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pinned {
    /// Correct-path instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Wrong-path instructions injected.
    pub wrong_path: u64,
    /// Final architectural-state digest.
    pub digest: u64,
}

/// One expected-file line: `<kernel> <technique> <instructions> <cycles>
/// <wrong_path_instructions> <state_digest>`.
fn line(kernel: &str, technique: &str, p: Pinned) -> String {
    format!(
        "{kernel} {technique} {} {} {} {:#018x}",
        p.instructions, p.cycles, p.wrong_path, p.digest
    )
}

/// The kernel × technique key of an expected-file line.
fn key(line: &str) -> Option<String> {
    let mut fields = line.split_whitespace();
    Some(format!("{} {}", fields.next()?, fields.next()?))
}

fn parse(text: &str) -> HashMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| Some((key(l)?, l.to_string())))
        .collect()
}

/// Checks the results of one run of one workload.
#[derive(Debug)]
pub struct Checker {
    workload: Workload,
    /// Expected lines by key, when the run uses the default seed.
    expected: Option<HashMap<String, String>>,
    /// Per kernel × technique: the first result's full fingerprint.
    first: HashMap<String, String>,
    /// Per kernel: the first technique's instruction count and digest.
    correct_path: HashMap<String, (String, u64, u64)>,
    /// Every first result, as expected-file lines.
    actual: Vec<String>,
    expected_mismatch: bool,
}

impl Checker {
    /// A checker for a run of `workload` at `seed`; `pinned` says whether
    /// the run's inputs are the ones the expected files were recorded at
    /// (full scale), in which case the default seed checks against them.
    pub fn new(workload: Workload, seed: u64, pinned: bool) -> Checker {
        let expected = pinned && seed == workload.default_seed();
        Checker {
            workload,
            expected: expected.then(|| parse(expected_text(workload))),
            first: HashMap::new(),
            correct_path: HashMap::new(),
            actual: Vec::new(),
            expected_mismatch: false,
        }
    }

    /// Records one finished simulation as an op of `out`: `fingerprint`
    /// covers every simulated statistic, `pinned` the expected-file
    /// slice. Returns whether the op passed.
    pub fn op(
        &mut self,
        out: &mut Outcome,
        kernel: &str,
        technique: &str,
        result: Result<(Pinned, String), String>,
    ) -> bool {
        let failure = match result {
            Err(e) => Some(format!("{kernel} {technique}: {e}")),
            Ok((pinned, fingerprint)) => self.check(kernel, technique, pinned, fingerprint),
        };
        let passed = failure.is_none();
        out.op(failure);
        passed
    }

    fn check(
        &mut self,
        kernel: &str,
        technique: &str,
        pinned: Pinned,
        fingerprint: String,
    ) -> Option<String> {
        let id = format!("{kernel} {technique}");
        if let Some(first) = self.first.get(&id) {
            return (*first != fingerprint)
                .then(|| format!("{id}: result differs from this run's first result"));
        }
        self.first.insert(id.clone(), fingerprint);
        let actual = line(kernel, technique, pinned);
        self.actual.push(actual.clone());
        let mut problems = Vec::new();
        if let Some(expected) = &self.expected {
            let problem = match expected.get(&id) {
                Some(want) if *want == actual => None,
                Some(want) => Some(format!("expected `{want}`, got `{actual}`")),
                None => Some(format!("no expected line, got `{actual}`")),
            };
            self.expected_mismatch |= problem.is_some();
            problems.extend(problem);
        }
        let (reference, instructions, digest) = self
            .correct_path
            .entry(kernel.to_string())
            .or_insert_with(|| (technique.to_string(), pinned.instructions, pinned.digest))
            .clone();
        if (instructions, digest) != (pinned.instructions, pinned.digest) {
            problems.push(format!(
                "correct path differs from {reference}: {instructions} instructions, digest \
                 {digest:#018x}"
            ));
        }
        (!problems.is_empty()).then(|| format!("{id}: {}", problems.join("; ")))
    }

    /// When a result missed its expected line, the lines this run
    /// produced, in the expected file's format (to review and commit when
    /// the simulator's model changed on purpose).
    pub fn report_mismatch(&self) -> Option<String> {
        self.expected_mismatch.then(|| {
            let mut lines = self.actual.clone();
            lines.sort();
            format!(
                "results of this run (expected/{}.txt format):\n{}",
                self.workload.name(),
                lines.join("\n")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned(instructions: u64, digest: u64) -> Pinned {
        Pinned {
            instructions,
            cycles: 7,
            wrong_path: 3,
            digest,
        }
    }

    #[test]
    fn every_expected_file_pins_each_kernel_under_each_technique() {
        for w in Workload::ALL {
            let lines = parse(expected_text(w));
            let kernels = crate::sim::kernel_names(w);
            assert_eq!(lines.len(), kernels.len() * 4, "{}", w.name());
            for k in &kernels {
                for t in crate::spec::labels() {
                    assert!(
                        lines.contains_key(&format!("{k} {t}")),
                        "{} {k} {t}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn repeats_and_technique_disagreement_fail_their_op() {
        let mut c = Checker::new(Workload::SpecBranchy, 7, true);
        let mut out = Outcome::default();
        assert!(c.op(&mut out, "k", "nowp", Ok((pinned(10, 1), "a".into()))));
        assert!(c.op(&mut out, "k", "nowp", Ok((pinned(10, 1), "a".into()))));
        assert!(!c.op(&mut out, "k", "nowp", Ok((pinned(10, 1), "b".into()))));
        assert!(c.op(&mut out, "k", "conv", Ok((pinned(10, 1), "c".into()))));
        assert!(!c.op(&mut out, "k", "wpemul", Ok((pinned(10, 2), "d".into()))));
        assert!(!c.op(&mut out, "k", "instrec", Err("boom".into())));
        assert_eq!((out.ops_total, out.ops_failed), (6, 3));
        assert!(c.report_mismatch().is_none(), "no expected file at seed 7");
    }

    #[test]
    fn default_seed_results_are_checked_against_the_expected_file() {
        let w = Workload::SpecBranchy;
        let mut c = Checker::new(w, w.default_seed(), true);
        let mut out = Outcome::default();
        assert!(!c.op(
            &mut out,
            "no_such_kernel",
            "nowp",
            Ok((pinned(1, 1), "x".into()))
        ));
        assert!(c.report_mismatch().is_some());
        let mut unpinned = Checker::new(w, w.default_seed(), false);
        assert!(unpinned.op(
            &mut out,
            "no_such_kernel",
            "nowp",
            Ok((pinned(1, 1), "x".into()))
        ));
    }
}
