//! The three simulation workloads: each simulates its kernels under all
//! four techniques on one thread, interleaving the techniques within a
//! repetition and rotating their order between repetitions, so host drift
//! hits all four alike.

use crate::calib::{speed_scale, Calibration, REFERENCE_NS_PER_OP};
use crate::check::{Checker, Pinned};
use crate::seams::{replay, ReplayCost, SeamStats, Sink, TimedTechnique};
use crate::spec::{labels, Scale, Workload};
use crate::stats::median;
use crate::{ratio, Outcome};
use ffsim_core::{ObsConfig, SimConfig, SimResult, Simulator, WrongPathMode};
use ffsim_uarch::{CoreConfig, PathKind};
use ffsim_workloads::speclike::{
    all_speclike, big_code, binary_search, dense_mv, filter_scan, interp_dispatch, pointer_chase,
    spmv, stream_triad,
};
use ffsim_workloads::{gap, Graph, Workload as Kernel};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MODES: [WrongPathMode; 4] = WrongPathMode::ALL;
const NOWP: usize = 0;
const CONV: usize = 2;
const WPEMUL: usize = 3;

/// How often the replay probes rerun over the recorded instructions.
const REPLAYS: usize = 3;

/// Builds the kernels `workload` simulates. The SPEC-like sizes mirror
/// `all_speclike`'s, so a kernel here is the one the paper experiments
/// simulate; the campaign uses the whole suite.
pub fn kernels(workload: Workload, seed: u64, scale: &Scale) -> Vec<Kernel> {
    let full = scale.speclike > 0;
    let sz = |test: usize, bench: usize| if full { bench } else { test };
    let valid = |k: Result<Kernel, ffsim_workloads::WorkloadError>| {
        k.expect("the benchmark's kernel parameters are in range")
    };
    match workload {
        Workload::GapBranchy => {
            let g = Graph::rmat(1 << scale.gap_log2_vertices, ffsim_bench::GAP_DEGREE, seed);
            let src = g.max_degree_vertex();
            vec![valid(gap::bc(&g, src)), valid(gap::tc(&g))]
        }
        Workload::SpecBranchy => vec![
            valid(binary_search(
                sz(1 << 10, 1 << 16),
                sz(1_000, 40_000),
                seed ^ 2,
            )),
            valid(filter_scan(sz(4_000, 1 << 18), seed ^ 10)),
            valid(interp_dispatch(sz(2_000, 200_000), seed ^ 8)),
            valid(big_code(sz(200, 3_000), sz(2_000, 60_000), seed ^ 7)),
        ],
        Workload::SpecPredictable => vec![
            valid(stream_triad(sz(1 << 10, 1 << 16), sz(4, 8))),
            valid(dense_mv(sz(48, 320), sz(4, 6))),
            valid(spmv(sz(1 << 9, 1 << 14), 8, sz(2, 6), seed ^ 9)),
            valid(pointer_chase(
                sz(1 << 10, 1 << 17),
                sz(4_000, 200_000),
                seed,
            )),
        ],
        Workload::Campaign => all_speclike(scale.speclike, seed)
            .into_iter()
            .map(|k| k.workload)
            .collect(),
    }
}

/// Builds `workload`'s inputs `scale.setup_builds` times, probing host
/// speed after each, records each build's time at reference speed as a
/// `setup_s` sample, and returns the last build.
pub fn timed_setup<T>(
    out: &mut Outcome,
    scale: &Scale,
    cal: &mut Calibration,
    mut build: impl FnMut() -> T,
) -> T {
    let mut built = None;
    let (mut seconds, mut probes) = (Vec::new(), Vec::new());
    for _ in 0..scale.setup_builds.max(1) {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        seconds.push(start.elapsed().as_secs_f64());
        probes.push(cal.probe());
    }
    let speed = speed_scale(&probes);
    for s in seconds {
        out.sample("setup_s", s * speed);
    }
    built.expect("at least one build")
}

/// The deterministic slice of a result an expected file pins.
fn pinned(r: &SimResult) -> Pinned {
    Pinned {
        instructions: r.instructions,
        cycles: r.cycles,
        wrong_path: r.wrong_path_instructions,
        digest: r.state_digest,
    }
}

/// Every simulated statistic of `r`: the result without its host time.
pub fn fingerprint(r: &SimResult) -> String {
    let mut r = r.clone();
    r.wall_time = Duration::ZERO;
    r.obs = None;
    format!("{r:?}")
}

/// One simulation, timed from outside: workload copy, construction and
/// run. `seams` decorates the technique to time its layers.
fn simulate(
    kernel: &Kernel,
    mode: WrongPathMode,
    budget: u64,
    seams: Option<(&Sink, usize)>,
) -> (f64, Result<SimResult, String>) {
    let start = Instant::now();
    let mut cfg = SimConfig::with_core(CoreConfig::golden_cove_like(), mode);
    cfg.max_instructions = Some(budget);
    cfg.obs = ObsConfig::disabled();
    let (program, memory) = (kernel.program().clone(), kernel.memory().clone());
    let sim = match seams {
        None => Simulator::new(program, memory, cfg),
        Some((sink, record)) => {
            let technique = TimedTechnique::new(&cfg, Arc::clone(sink), record);
            Simulator::with_technique(program, memory, cfg, Box::new(technique))
        }
    };
    let result = sim.and_then(Simulator::run).map_err(|e| e.to_string());
    (start.elapsed().as_nanos() as f64, result)
}

/// Checks one simulation as an op; the result when it passed.
fn checked(
    checker: &mut Checker,
    out: &mut Outcome,
    kernel: &Kernel,
    mode: usize,
    result: Result<SimResult, String>,
) -> Option<SimResult> {
    let label = MODES[mode].label();
    let view = result
        .as_ref()
        .map(|r| (pinned(r), fingerprint(r)))
        .map_err(Clone::clone);
    let passed = checker.op(out, kernel.name(), label, view);
    result.ok().filter(|_| passed)
}

/// The technique order of repetition `rep`: rotated by one each time.
fn order(rep: usize) -> impl Iterator<Item = usize> {
    (0..MODES.len()).map(move |i| (i + rep) % MODES.len())
}

/// Paces a pass's repetitions: at least a minimum number, then as many
/// more as fit in the pass's time budget, judged by the last one's length.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    last: Instant,
    seconds: Duration,
    min: usize,
    started: usize,
}

impl Pacer {
    /// A pacer for `min` repetitions or `seconds`, whichever is longer.
    pub fn new(min: usize, seconds: Duration) -> Pacer {
        let now = Instant::now();
        Pacer {
            start: now,
            last: now,
            seconds,
            min,
            started: 0,
        }
    }

    /// Whether to start another repetition; call once before each.
    pub fn next(&mut self) -> bool {
        let now = Instant::now();
        let last = now - self.last;
        self.last = now;
        let more = self.started < self.min || now - self.start + last <= self.seconds;
        self.started += usize::from(more);
        more
    }

    /// Repetitions started so far.
    pub fn started(&self) -> usize {
        self.started
    }
}

/// Runs one pass of a simulation workload.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    traced: bool,
    scale: &Scale,
) -> Outcome {
    let mut out = Outcome::default();
    let mut checker = Checker::new(workload, seed, scale.pinned);
    let budget = scale.budget(workload);
    if traced {
        let kernels = kernels(workload, seed, scale);
        traced_pass(&kernels, budget, seconds, scale, &mut checker, &mut out);
    } else {
        let mut cal = Calibration::default();
        let kernels = timed_setup(&mut out, scale, &mut cal, || kernels(workload, seed, scale));
        untraced_pass(
            &kernels,
            budget,
            seconds,
            scale,
            &mut cal,
            &mut checker,
            &mut out,
        );
    }
    out.note(checker.report_mismatch());
    out
}

/// Host time of one repetition's simulations at reference host speed, per
/// technique, summed over the workload's kernels.
#[derive(Clone, Default, Debug)]
pub struct RepTimes {
    ns: [f64; 4],
    instructions: [f64; 4],
    simulations: usize,
}

impl RepTimes {
    /// One simulation under `technique`, its time already scaled to
    /// reference host speed (see [`speed_scale`]).
    pub fn add(&mut self, technique: usize, ns: f64, instructions: u64) {
        self.ns[technique] += ns;
        self.instructions[technique] += instructions as f64;
        self.simulations += 1;
    }

    /// Host nanoseconds per simulated instruction of `technique`.
    pub fn ns_per_instr(&self, technique: usize) -> f64 {
        ratio(self.ns[technique], self.instructions[technique])
    }

    /// Host nanoseconds of every simulation.
    pub fn total_ns(&self) -> f64 {
        self.ns.iter().sum()
    }

    /// Samples `host_ns_per_instr.<t>` for every technique.
    pub fn sample(&self, out: &mut Outcome) {
        for (m, label) in labels().iter().enumerate() {
            out.sample(format!("host_ns_per_instr.{label}"), self.ns_per_instr(m));
        }
    }
}

/// The end-to-end pass: host ns per instruction per technique and
/// simulations per second, one sample of each per repetition. Each
/// simulation is scaled to reference host speed by the probes right before
/// and right after it, because the host's load changes within seconds.
fn untraced_pass(
    kernels: &[Kernel],
    budget: u64,
    seconds: Duration,
    scale: &Scale,
    cal: &mut Calibration,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    let mut probes = vec![cal.probe()];
    let mut pacer = Pacer::new(scale.min_reps, seconds);
    while pacer.next() {
        let rep = pacer.started() - 1;
        crate::reset_peak_rss();
        let mut times = RepTimes::default();
        for kernel in kernels {
            for m in order(rep) {
                let (ns, result) = simulate(kernel, MODES[m], budget, None);
                let before = *probes.last().expect("probed before the first simulation");
                let after = cal.probe();
                probes.push(after);
                if let Some(r) = checked(checker, out, kernel, m, result) {
                    times.add(m, ns * speed_scale(&[before, after]), r.instructions);
                }
            }
        }
        times.sample(out);
        out.sample(
            "jobs_per_s",
            ratio(times.simulations as f64 * 1e9, times.total_ns()),
        );
        crate::sample_peak_rss(out);
    }
    out.reps = pacer.started();
    out.note(Some(host_speed_note(&probes)));
}

/// A diagnostic line on the host speed a pass's probes measured.
pub fn host_speed_note(probes: &[f64]) -> String {
    format!(
        "host speed: calibration loop {:.3} ns/op (reference {REFERENCE_NS_PER_OP}), \
         timings scaled by {:.4}",
        median(probes),
        speed_scale(probes)
    )
}

/// One technique's totals over a repetition's kernels in the traced pass.
#[derive(Clone, Default, Debug)]
struct Totals {
    untraced_ns: f64,
    run_ns: f64,
    instructions: f64,
    seams: SeamStats,
}

impl Totals {
    fn add(&mut self, untraced_ns: f64, r: &SimResult, s: &SeamStats) {
        self.untraced_ns += untraced_ns;
        self.run_ns += r.wall_time.as_nanos() as f64;
        self.instructions += r.instructions as f64;
        let t = &mut self.seams;
        t.fill_ns += s.fill_ns;
        t.delivered += s.delivered;
        t.wp_emulated += s.wp_emulated;
        t.peeks += s.peeks;
        t.mispredict_ns += s.mispredict_ns;
        t.episodes += s.episodes;
        t.injected += s.injected;
    }
}

/// The per-layer pass: every kernel × technique runs untraced and then
/// decorated (the order alternates between repetitions); the decorated
/// run must reproduce the untraced result exactly.
fn traced_pass(
    kernels: &[Kernel],
    budget: u64,
    seconds: Duration,
    scale: &Scale,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    let record = scale.replay_insts / kernels.len().max(1);
    let mut recordings = Vec::new();
    let mut results: Vec<[Option<SimResult>; 4]> = vec![Default::default(); kernels.len()];
    let mut pacer = Pacer::new(1, seconds);
    while pacer.next() {
        let rep = pacer.started() - 1;
        let mut totals: [Totals; 4] = Default::default();
        for (k, kernel) in kernels.iter().enumerate() {
            for m in order(rep) {
                let sink: Sink = Arc::new(Mutex::new(SeamStats::default()));
                let recording = if rep == 0 && m == NOWP { record } else { 0 };
                let untraced = || simulate(kernel, MODES[m], budget, None);
                let traced = || simulate(kernel, MODES[m], budget, Some((&sink, recording)));
                let ((u_ns, u), (t_ns, t)) = if rep.is_multiple_of(2) {
                    let u = untraced();
                    (u, traced())
                } else {
                    let t = traced();
                    (untraced(), t)
                };
                let u = checked(checker, out, kernel, m, u);
                let t = checked(checker, out, kernel, m, t);
                let mut seams =
                    std::mem::take(&mut *sink.lock().expect("simulation thread is done"));
                if recording > 0 {
                    let mispredicted: HashSet<u64> = seams.mispredicted.iter().copied().collect();
                    recordings.push((std::mem::take(&mut seams.recorded), mispredicted));
                }
                if let (Some(_), Some(t)) = (u, t) {
                    // Per simulation, not per repetition: the two runs are
                    // back to back, so a host slowdown rarely splits them.
                    out.sample(
                        format!("obs.trace_overhead_pct.{}", MODES[m].label()),
                        (ratio(t_ns, u_ns) - 1.0) * 100.0,
                    );
                    totals[m].add(u_ns, &t, &seams);
                    results[k][m].get_or_insert(t);
                }
            }
        }
        layer_samples(&totals, out);
    }
    out.reps = pacer.started();
    simulated_samples(&results, out);
    replay_samples(&recordings, out);
}

/// Host-time layer metrics of one repetition.
fn layer_samples(totals: &[Totals; 4], out: &mut Outcome) {
    let nowp_ns = ratio(totals[NOWP].untraced_ns, totals[NOWP].instructions);
    for (m, label) in labels().iter().enumerate() {
        let t = &totals[m];
        let s = &t.seams;
        let (fill, mispredict) = (s.fill_ns as f64, s.mispredict_ns as f64);
        let episodes = s.episodes as f64;
        out.sample(
            format!("emu.fill_ns_per_instr.{label}"),
            ratio(fill, s.delivered as f64),
        );
        out.sample(
            format!("core.technique.mispredict_ns_per_episode.{label}"),
            ratio(mispredict, episodes),
        );
        out.sample(
            format!("core.pipeline.loop_self_ns_per_instr.{label}"),
            ratio(t.run_ns - fill - mispredict, t.instructions),
        );
        if m != NOWP {
            let injected = s.injected as f64;
            out.sample(
                format!("core.technique.ns_per_injected.{label}"),
                ratio(mispredict, injected),
            );
            out.sample(
                format!("core.technique.injected_per_episode.{label}"),
                ratio(injected, episodes),
            );
            out.sample(
                format!("slowdown.{label}"),
                ratio(ratio(t.untraced_ns, t.instructions), nowp_ns),
            );
        }
    }
    let conv = &totals[CONV].seams;
    out.sample(
        "emu.peeks_per_episode.conv",
        ratio(conv.peeks as f64, conv.episodes as f64),
    );
    let wpemul = &totals[WPEMUL];
    out.sample(
        "emu.wp_emulated_per_instr.wpemul",
        ratio(wpemul.seams.wp_emulated as f64, wpemul.instructions),
    );
    out.sample(
        "emu.wp_useful_ratio.wpemul",
        ratio(
            wpemul.seams.injected as f64,
            wpemul.seams.wp_emulated as f64,
        ),
    );
}

/// Simulated statistics (deterministic: one sample each).
pub fn simulated_samples(results: &[[Option<SimResult>; 4]], out: &mut Outcome) {
    let of = |m: usize| results.iter().filter_map(move |k| k[m].as_ref());
    let sum = |m: usize, f: &dyn Fn(&SimResult) -> u64| of(m).map(|r| f(r) as f64).sum::<f64>();
    for (m, label) in labels().iter().enumerate() {
        let instructions = sum(m, &|r| r.instructions);
        let ipcs: Vec<f64> = of(m).map(SimResult::ipc).collect();
        out.sample(format!("sim.ipc.{label}"), mean(&ipcs));
        out.sample(
            format!("sim.wp_per_instr.{label}"),
            ratio(sum(m, &|r| r.wrong_path_instructions), instructions),
        );
        out.sample(
            format!("uarch.l1d_mpki.{label}"),
            ratio(
                1000.0 * sum(m, &|r| r.l1d.misses.get(PathKind::Correct)),
                instructions,
            ),
        );
        if m < WPEMUL {
            let errors: Vec<f64> = results
                .iter()
                .filter_map(|k| Some(k[m].as_ref()?.error_vs(k[WPEMUL].as_ref()?).abs()))
                .collect();
            out.sample(format!("sim.ipc_error_pct.{label}"), mean(&errors));
        }
    }
    out.sample(
        "uarch.branch_mpki",
        ratio(
            1000.0 * sum(NOWP, &|r| r.branch.mispredicts()),
            sum(NOWP, &|r| r.instructions),
        ),
    );
    let hit_ratio = |hits: f64, misses: f64| ratio(hits, hits + misses);
    out.sample(
        "emu.block_cache_hit_ratio.wpemul",
        hit_ratio(
            sum(WPEMUL, &|r| r.block_cache.hits),
            sum(WPEMUL, &|r| r.block_cache.misses),
        ),
    );
    for (m, label) in [(1, "instrec"), (CONV, "conv")] {
        out.sample(
            format!("core.technique.code_cache_hit_ratio.{label}"),
            hit_ratio(
                sum(m, &|r| r.code_cache.hits),
                sum(m, &|r| r.code_cache.misses),
            ),
        );
    }
    out.sample(
        "core.technique.conv_mem_recovered_ratio.conv",
        ratio(
            sum(CONV, &|r| r.convergence.wp_mem_recovered),
            sum(CONV, &|r| r.convergence.wp_mem_ops),
        ),
    );
}

/// The replay probes over the recorded correct path. Episodes are as
/// long as wrong-path emulation's measured average episode.
fn replay_samples(recordings: &[(Vec<ffsim_emu::DynInst>, HashSet<u64>)], out: &mut Outcome) {
    let wp_len = out
        .value("core.technique.injected_per_episode.wpemul")
        .round() as usize;
    let core = CoreConfig::golden_cove_like();
    for _ in 0..REPLAYS {
        let mut cost = ReplayCost::default();
        for (insts, mispredicted) in recordings {
            cost.add(replay(&core, insts, mispredicted, wp_len));
        }
        out.sample(
            "core.pipeline.feed_correct_ns",
            ratio(cost.correct_ns as f64, cost.correct as f64),
        );
        out.sample(
            "core.pipeline.feed_wrong_ns",
            ratio(cost.wrong_ns as f64, cost.wrong as f64),
        );
        out.sample(
            "core.pipeline.wrong_path_episode_ns",
            ratio(cost.episode_ns as f64, cost.episodes as f64),
        );
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The names of the kernels `workload` simulates.
#[cfg(test)]
pub fn kernel_names(workload: Workload) -> Vec<String> {
    kernels(workload, workload.default_seed(), &Scale::TEST)
        .iter()
        .map(|k| k.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_emu::Memory;
    use ffsim_isa::{Asm, Reg};

    /// A loop whose exit branch mispredicts, over a load stream.
    fn tiny_kernel() -> Kernel {
        let (i, base, v) = (Reg::new(1), Reg::new(2), Reg::new(3));
        let mut a = Asm::new();
        a.li(base, 0x1000_0000);
        a.li(i, 40);
        a.label("loop");
        a.slli(v, i, 3);
        a.add(v, v, base);
        a.ld(v, 0, v);
        a.addi(i, i, -1);
        a.bnez(i, "loop");
        a.halt();
        Kernel::new("tiny", a.assemble().expect("assembles"), Memory::new())
    }

    #[test]
    fn decorated_runs_reproduce_undecorated_results_for_every_technique() {
        let kernel = tiny_kernel();
        for mode in MODES {
            let (_, plain) = simulate(&kernel, mode, 10_000, None);
            let sink: Sink = Arc::new(Mutex::new(SeamStats::default()));
            let (_, decorated) = simulate(&kernel, mode, 10_000, Some((&sink, 100)));
            let (plain, decorated) = (plain.expect("runs"), decorated.expect("runs"));
            assert_eq!(fingerprint(&plain), fingerprint(&decorated), "{mode}");
            let seams = sink.lock().expect("unpoisoned").clone();
            assert_eq!(seams.delivered, plain.instructions, "{mode}");
            assert_eq!(seams.recorded.len() as u64, plain.instructions.min(100));
            assert_eq!(seams.episodes, plain.branch.mispredicts(), "{mode}");
            assert_eq!(seams.injected, plain.wrong_path_instructions, "{mode}");
        }
    }

    #[test]
    fn replay_feeds_every_recorded_instruction() {
        let kernel = tiny_kernel();
        let sink: Sink = Arc::new(Mutex::new(SeamStats::default()));
        let (_, result) = simulate(
            &kernel,
            WrongPathMode::NoWrongPath,
            10_000,
            Some((&sink, 1000)),
        );
        let result = result.expect("runs");
        let seams = sink.lock().expect("unpoisoned").clone();
        let mispredicted: HashSet<u64> = seams.mispredicted.iter().copied().collect();
        let cost = replay(
            &CoreConfig::golden_cove_like(),
            &seams.recorded,
            &mispredicted,
            4,
        );
        assert_eq!(cost.correct, result.instructions);
        assert_eq!(cost.episodes, result.branch.mispredicts());
        assert!(cost.wrong <= 4 * cost.episodes);
    }
}
