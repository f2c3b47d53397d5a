//! What `ffbench` measures: its workloads, its metric catalogue, and the
//! `BENCHMARK.json` that describes both.
//!
//! The catalogue is the single source of truth. The binary emits exactly
//! these metrics, and the committed `BENCHMARK.json` must equal
//! [`benchmark_json`] (a unit test checks it).

use ffsim_core::WrongPathMode;

/// Seconds one benchmark invocation measures for (`--seconds`).
#[cfg(test)]
pub const RUN_SECONDS: u64 = 30;

/// The command that runs one invocation from the repository root.
#[cfg(test)]
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "ffbench/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
#[cfg(test)]
pub const PATH: &str = "ffbench";

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// GAP `bc` and `tc`: branch-miss heavy graph code.
    GapBranchy,
    /// The SPEC-like kernels with the worst wrong-path slowdowns.
    SpecBranchy,
    /// SPEC-like kernels whose branches almost never mispredict.
    SpecPredictable,
    /// The supervised campaign driver over every SPEC-like kernel.
    Campaign,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::GapBranchy,
        Workload::SpecBranchy,
        Workload::SpecPredictable,
        Workload::Campaign,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GapBranchy => "gap_branchy",
            Workload::SpecBranchy => "spec_branchy",
            Workload::SpecPredictable => "spec_predictable",
            Workload::Campaign => "campaign",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GapBranchy => {
                "GAP bc and tc on an RMAT graph larger than L2: 25-36 mispredicts per 1k \
                 instructions, so technique work, wrong-path timing and wrong-path emulation dominate"
            }
            Workload::SpecBranchy => {
                "SPEC-like kernels with the worst slowdowns: big code, indirect dispatch and long \
                 conv lookahead, so per-episode technique work and the code and block caches dominate"
            }
            Workload::SpecPredictable => {
                "SPEC-like kernels under 0.3 mispredicts per 1k instructions: correct-path \
                 emulation, the handoff and the timing model dominate; technique layers idle"
            }
            Workload::Campaign => {
                "72 SPEC-like jobs through Campaign::run with 2 workers: a cold pass that writes \
                 the manifest and result cache, and a warm pass that reads them"
            }
        }
    }

    /// The seed a run uses when `--seed` is not given; the committed
    /// expected results are recorded at this seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::GapBranchy => ffsim_bench::GAP_SEED,
            _ => ffsim_bench::SPEC_SEED,
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition counts of a run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// log2 of the GAP graph's vertex count.
    pub gap_log2_vertices: u32,
    /// `all_speclike` scale index: 0 = test-sized, 1 = bench-sized.
    pub speclike: u32,
    /// Measured correct-path instructions per GAP simulation.
    pub gap_budget: u64,
    /// ... per `spec_branchy` simulation.
    pub spec_branchy_budget: u64,
    /// ... per `spec_predictable` simulation.
    pub spec_predictable_budget: u64,
    /// ... per campaign job.
    pub campaign_budget: u64,
    /// Repetitions a simulation pass makes at least, whatever
    /// `--seconds` says.
    pub min_reps: usize,
    /// Cold + warm rounds the campaign makes at least.
    pub min_rounds: usize,
    /// Fresh input builds timed for `setup_s`.
    pub setup_builds: usize,
    /// Correct-path instructions recorded for the replay probes.
    pub replay_insts: usize,
    /// Whether these are the inputs the expected files were recorded at.
    pub pinned: bool,
}

impl Scale {
    /// The benchmark's scale.
    pub const FULL: Scale = Scale {
        gap_log2_vertices: ffsim_bench::GAP_SCALE,
        speclike: 1,
        gap_budget: 1_000_000,
        spec_branchy_budget: 300_000,
        spec_predictable_budget: 1_000_000,
        campaign_budget: 50_000,
        min_reps: 3,
        min_rounds: 5,
        setup_builds: 11,
        replay_insts: 200_000,
        pinned: true,
    };

    /// A scale small enough for unit tests in a debug build.
    #[cfg(test)]
    pub const TEST: Scale = Scale {
        gap_log2_vertices: 8,
        speclike: 0,
        gap_budget: 20_000,
        spec_branchy_budget: 10_000,
        spec_predictable_budget: 10_000,
        campaign_budget: 2_000,
        min_reps: 1,
        min_rounds: 1,
        setup_builds: 2,
        replay_insts: 5_000,
        pinned: false,
    };

    /// Measured instructions per simulation of `workload`.
    pub fn budget(&self, workload: Workload) -> u64 {
        match workload {
            Workload::GapBranchy => self.gap_budget,
            Workload::SpecBranchy => self.spec_branchy_budget,
            Workload::SpecPredictable => self.spec_predictable_budget,
            Workload::Campaign => self.campaign_budget,
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The direction's name in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For end-to-end metrics, the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The technique labels, in [`WrongPathMode::ALL`] order.
pub fn labels() -> [&'static str; 4] {
    WrongPathMode::ALL.map(WrongPathMode::label)
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// One metric per technique label: `<prefix>.<label>`.
fn each(prefix: &str, labels: &[&str], unit: &'static str, better: Better) -> Vec<Metric> {
    labels
        .iter()
        .map(|l| metric(format!("{prefix}.{l}"), unit, better))
        .collect()
}

fn bounded(mut metrics: Vec<Metric>, bound: f64) -> Vec<Metric> {
    for m in &mut metrics {
        m.bound = Some(bound);
    }
    metrics
}

/// The end-to-end metrics, measured with tracing off. Every workload
/// reports every one of them.
///
/// The timed metrics get the largest bound `BENCHMARK.json` allows:
/// on a heavily loaded host, runs of one commit spread by up to 13% even
/// at reference host speed (see Baseline in `README.md`). Peak memory
/// spreads by up to 5%, on `campaign`.
pub fn end_to_end() -> Vec<Metric> {
    let all = labels();
    let mut out = bounded(vec![metric("setup_s", "s", Better::Lower)], 0.25);
    out.extend(bounded(
        each("host_ns_per_instr", &all, "ns", Better::Lower),
        0.25,
    ));
    out.extend(bounded(
        vec![metric("jobs_per_s", "jobs/s", Better::Higher)],
        0.25,
    ));
    out.extend(bounded(
        vec![metric("peak_rss_mib", "MiB", Better::Lower)],
        0.15,
    ));
    out
}

/// The per-layer metrics, measured in the traced pass. A metric whose
/// layer a workload never enters reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let all = labels();
    let injecting = &all[1..];
    let against_wpemul = &all[..3];
    let mut out = each("emu.fill_ns_per_instr", &all, "ns", Lower);
    out.extend([
        metric("emu.wp_emulated_per_instr.wpemul", "ratio", Lower),
        metric("emu.wp_useful_ratio.wpemul", "ratio", Higher),
        metric("emu.block_cache_hit_ratio.wpemul", "ratio", Higher),
        metric("emu.peeks_per_episode.conv", "count", Lower),
    ]);
    out.extend(each(
        "core.technique.mispredict_ns_per_episode",
        &all,
        "ns",
        Lower,
    ));
    out.extend(each(
        "core.technique.ns_per_injected",
        injecting,
        "ns",
        Lower,
    ));
    out.extend(each(
        "core.technique.injected_per_episode",
        injecting,
        "count",
        Lower,
    ));
    out.extend(each(
        "core.technique.code_cache_hit_ratio",
        &["instrec", "conv"],
        "ratio",
        Higher,
    ));
    out.push(metric(
        "core.technique.conv_mem_recovered_ratio.conv",
        "ratio",
        Higher,
    ));
    out.extend(each(
        "core.pipeline.loop_self_ns_per_instr",
        &all,
        "ns",
        Lower,
    ));
    out.extend([
        metric("core.pipeline.feed_correct_ns", "ns", Lower),
        metric("core.pipeline.feed_wrong_ns", "ns", Lower),
        metric("core.pipeline.wrong_path_episode_ns", "ns", Lower),
    ]);
    out.extend(each("sim.ipc", &all, "instr/cycle", Higher));
    out.extend(each("sim.wp_per_instr", &all, "ratio", Lower));
    out.extend(each("sim.ipc_error_pct", against_wpemul, "%", Lower));
    out.push(metric("uarch.branch_mpki", "1/kinstr", Lower));
    out.extend(each("uarch.l1d_mpki", &all, "1/kinstr", Lower));
    out.extend([
        metric("driver.cold_overhead_ms_per_job", "ms", Lower),
        metric("driver.warm_ms_per_job", "ms", Lower),
        metric("driver.manifest_bytes", "bytes", Lower),
        metric("driver.cache_bytes", "bytes", Lower),
    ]);
    out.extend(each("obs.trace_overhead_pct", &all, "%", Lower));
    out.extend(each("slowdown", injecting, "x", Lower));
    out
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
fn metric_json(m: &Metric) -> String {
    let mut fields = vec![
        format!("\"name\": {}", json_string(&m.name)),
        format!("\"unit\": {}", json_string(m.unit)),
        format!("\"better\": {}", json_string(m.better.as_str())),
    ];
    if let Some(bound) = m.bound {
        fields.push(format!("\"bound\": {bound}"));
    }
    format!("    {{{}}}", fields.join(", "))
}

/// The `BENCHMARK.json` describing this benchmark.
#[cfg(test)]
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let command: Vec<String> = COMMAND.iter().map(|s| json_string(s)).collect();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        json_string(PATH),
        list(workloads),
        list(end_to_end().iter().map(metric_json).collect()),
        list(per_layer().iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_schema() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()), "{} end-to-end", e2e.len());
        assert!(
            (1..=128).contains(&layer.len()),
            "{} per-layer",
            layer.len()
        );
        let mut seen = HashSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} of {}",
                m.unit,
                m.name
            );
        }
        assert!(e2e.iter().all(|m| m.bound.is_some()));
        assert!(layer.iter().all(|m| m.bound.is_none()));
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name().to_string()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let e2e = end_to_end();
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let bound = setup.bound.expect("bounded");
        for m in &e2e {
            let b = m.bound.expect("bounded");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
            assert!(b <= bound, "{} bound {b} exceeds setup_s {bound}", m.name);
        }
    }

    /// The command builds this directory's own package, so the benchmark
    /// measures with the same code whichever commit it is copied beside,
    /// and it names no file outside the directory.
    #[test]
    fn command_builds_the_benchmark_package() {
        assert!(COMMAND.len() <= 32);
        for arg in COMMAND {
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
        let manifest = format!("{PATH}/Cargo.toml");
        assert!(COMMAND
            .windows(2)
            .any(|w| w[0] == "--manifest-path" && w[1] == manifest));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = manifest_dir
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json above the package directory");
        let committed = std::fs::read_to_string(&path).expect("readable BENCHMARK.json");
        let rendered = benchmark_json();
        assert!(rendered.len() <= 64 * 1024);
        assert!(
            committed == rendered,
            "{} is stale; it should read:\n{rendered}",
            path.display()
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
