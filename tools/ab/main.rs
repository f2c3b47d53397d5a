//! # ab — in-process A/B timing of two simulator revisions
//!
//! Links this tree's simulator ("change") and another revision's
//! ("parent") into one process and times them against each other, so
//! that host drift, which moves separate runs by ±20% on a shared host,
//! hits both sides alike. Build and run it through `tools/ab.sh <rev>`,
//! which exports the parent side.
//!
//! ```text
//! ab --parent REV [--rounds N] [--workload NAME]...
//! ```
//!
//! Each round simulates every kernel of each selected workload (ffbench's
//! `gap_branchy`, `spec_branchy` and `spec_predictable`, at its kernel
//! parameters, default seeds and instruction budgets) under every
//! technique on both sides, one side right after the other. Which side
//! goes first alternates per kernel and per round. Every simulation must
//! give both sides the same instructions, cycles, wrong-path
//! instructions and state digest; any difference exits 1. The report
//! gives, per workload and technique, the median over rounds of the
//! change/parent ratio of the kernels' summed host time (ffbench's
//! `host_ns_per_instr` sums over kernels too), with its min and max; then
//! the same per kernel. Timing is reported, not gated.

use std::process::ExitCode;

/// What a simulation must reproduce on both sides.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Outcome {
    instructions: u64,
    cycles: u64,
    wrong_path: u64,
    digest: u64,
}

/// A workload of ffbench's that simulates kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    GapBranchy,
    SpecBranchy,
    SpecPredictable,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SpecPredictable,
        Workload::SpecBranchy,
        Workload::GapBranchy,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::GapBranchy => "gap_branchy",
            Workload::SpecBranchy => "spec_branchy",
            Workload::SpecPredictable => "spec_predictable",
        }
    }

    /// Correct-path instructions per simulation (ffbench's `Scale::FULL`).
    fn budget(self) -> u64 {
        match self {
            Workload::SpecBranchy => 300_000,
            Workload::GapBranchy | Workload::SpecPredictable => 1_000_000,
        }
    }
}

/// ffbench's default seeds and GAP graph (`ffsim_bench`'s constants).
const GAP_SCALE: u32 = 14;
const GAP_DEGREE: usize = 16;
const GAP_SEED: u64 = 42;
const SPEC_SEED: u64 = 2026;

mod change {
    use super::{Outcome, Workload, GAP_DEGREE, GAP_SCALE, GAP_SEED, SPEC_SEED};
    use change_core as sim_core;
    use change_uarch as sim_uarch;
    use change_workloads as sim_workloads;
    include!("side.rs");
}

mod parent {
    use super::{Outcome, Workload, GAP_DEGREE, GAP_SCALE, GAP_SEED, SPEC_SEED};
    use parent_core as sim_core;
    use parent_uarch as sim_uarch;
    use parent_workloads as sim_workloads;
    include!("side.rs");
}

struct Args {
    parent: String,
    rounds: usize,
    workloads: Vec<Workload>,
}

const USAGE: &str = "usage: ab --parent REV [--rounds N] [--workload NAME]...";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        parent: String::new(),
        rounds: 5,
        workloads: Vec::new(),
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => args.parent = value,
            "--rounds" => {
                args.rounds = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--rounds: bad count {value}"))?;
            }
            "--workload" => args.workloads.push(
                Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or(format!("unknown workload {value}"))?,
            ),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// The median, min and max of `xs` (non-empty).
fn summary(xs: &mut [f64]) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let median = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    (median, xs[0], xs[n - 1])
}

/// Host nanoseconds of one kernel × technique, per round, on each side.
#[derive(Default)]
struct Times {
    change: Vec<f64>,
    parent: Vec<f64>,
}

/// Runs every round of `workload`: each kernel's name and times per
/// technique, or why the two sides cannot be compared: their techniques
/// are numbered differently, or a simulation's outcomes differ.
fn compare(workload: Workload, rounds: usize) -> Result<Vec<(String, [Times; 4])>, String> {
    if let Some(t) = (0..4).find(|&t| change::label(t) != parent::label(t)) {
        return Err(format!(
            "technique {t} is {} here but {} in the parent",
            change::label(t),
            parent::label(t)
        ));
    }
    let changed = change::kernels(workload);
    let parents = parent::kernels(workload);
    let budget = workload.budget();
    let mut times: Vec<(String, [Times; 4])> = changed
        .iter()
        .map(|(name, _)| (name.clone(), Default::default()))
        .collect();
    for round in 0..rounds {
        for (k, ((_, ck), (_, pk))) in changed.iter().zip(&parents).enumerate() {
            let (name, per_technique) = &mut times[k];
            for (t, times) in per_technique.iter_mut().enumerate() {
                let ((c_ns, c), (p_ns, p)) = if (round + k) % 2 == 0 {
                    let c = change::simulate(ck, t, budget);
                    (c, parent::simulate(pk, t, budget))
                } else {
                    let p = parent::simulate(pk, t, budget);
                    (change::simulate(ck, t, budget), p)
                };
                if c != p {
                    return Err(format!(
                        "results differ: {name} under {}: change {c:?}, parent {p:?}",
                        change::label(t)
                    ));
                }
                times.change.push(c_ns);
                times.parent.push(p_ns);
            }
        }
        eprintln!("ab: {} round {}/{rounds} done", workload.name(), round + 1);
    }
    Ok(times)
}

/// Prints one report row: the median, min and max of `ratios`.
fn row(what: &str, technique: &str, mut ratios: Vec<f64>) {
    let (median, min, max) = summary(&mut ratios);
    println!("{what:<17} {technique:<10} {median:.3}   {min:.3}-{max:.3}");
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ab: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "change/parent host time (parent {}, {} rounds; below 1 = change faster)",
        args.parent, args.rounds
    );
    println!("rows: a workload's kernels summed per round, then each kernel alone");
    println!("                  technique  median  min-max over rounds");
    for workload in args.workloads {
        let times = match compare(workload, args.rounds) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ab: {e}");
                return ExitCode::FAILURE;
            }
        };
        for t in 0..4 {
            let sum = |side: fn(&Times) -> &Vec<f64>, round: usize| -> f64 {
                times.iter().map(|(_, k)| side(&k[t])[round]).sum()
            };
            let ratios = (0..args.rounds)
                .map(|r| sum(|x| &x.change, r) / sum(|x| &x.parent, r))
                .collect();
            row(workload.name(), change::label(t), ratios);
        }
        for (name, per_technique) in &times {
            for (t, k) in per_technique.iter().enumerate() {
                let ratios = k.change.iter().zip(&k.parent).map(|(c, p)| c / p).collect();
                row(&format!("  {name}"), change::label(t), ratios);
            }
        }
    }
    println!("every simulation: identical instructions, cycles, wrong-path count and state digest");
    ExitCode::SUCCESS
}
