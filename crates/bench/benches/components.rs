//! Criterion benchmarks of the individual substrates: functional
//! emulation rate, cache lookups, branch prediction, wrong-path
//! reconstruction and recovery. These bound the simulator's throughput
//! budget component by component.

use criterion::{criterion_group, Criterion, Throughput};
use ffsim_core::technique::wrongpath::{
    ConvergenceStream, FutureCache, FutureWindow, Walk, WalkBuf,
};
use ffsim_core::{
    reconstruct, recover_addresses, CodeCache, ConvergenceConfig, ConvergenceStats, Pipeline,
};
use ffsim_emu::{Emulator, FollowComputed, InstrQueue, NoFrontendWrongPath, StreamEntry};
use ffsim_isa::{Asm, BranchCond, Instr, Reg};
use ffsim_obs::{MetricsRegistry, ObsConfig, Phase, TraceEvent, TraceEventKind, TraceSource};
use ffsim_uarch::{BranchPredictor, Cache, CoreConfig, PathKind, Tlb};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn loop_program(n: i64) -> ffsim_isa::Program {
    let (x, y, base) = (Reg::new(1), Reg::new(2), Reg::new(5));
    let mut a = Asm::new();
    a.li(base, 0x1000_0000);
    a.li(x, n);
    a.label("loop");
    a.andi(y, x, 63);
    a.slli(y, y, 3);
    a.add(y, y, base);
    a.ld(y, 0, y);
    a.addi(x, x, -1);
    a.bnez(x, "loop");
    a.halt();
    a.assemble().unwrap()
}

fn emulator_step_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("emulator");
    let program = loop_program(10_000);
    group.throughput(Throughput::Elements(60_000));
    group.bench_function("step_60k_instructions", |b| {
        b.iter(|| {
            let mut emu = Emulator::new(program.clone()).unwrap();
            emu.run_to_halt(100_000).unwrap()
        });
    });
    group.throughput(Throughput::Elements(572));
    group.bench_function("wrong_path_emulation_572", |b| {
        let mut emu = Emulator::new(program.clone()).unwrap();
        emu.step().unwrap();
        emu.step().unwrap();
        let loop_head = emu.state().pc;
        b.iter(|| {
            emu.emulate_wrong_path(loop_head, 572, &mut FollowComputed)
                .insts
                .len()
        });
    });
    group.throughput(Throughput::Elements(60_000));
    group.bench_function("queue_pop_60k", |b| {
        b.iter(|| {
            let mut q = InstrQueue::new(
                Emulator::new(program.clone()).unwrap(),
                NoFrontendWrongPath,
                2048,
            );
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });
    group.finish();
}

fn cache_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("uarch");
    let cfg = CoreConfig::golden_cove_like();
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("l1d_lookup_10k", |b| {
        let mut cache = Cache::new("bench", cfg.l1d);
        let mut addr = 0u64;
        b.iter(|| {
            let mut hits = 0;
            for _ in 0..10_000 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1) % (1 << 22);
                if cache.lookup(addr, false, PathKind::Correct) == ffsim_uarch::Lookup::Hit {
                    hits += 1;
                } else {
                    cache.fill(addr, false);
                }
            }
            hits
        });
    });
    group.bench_function("dtlb_access_10k", |b| {
        let mut tlb = Tlb::new(cfg.dtlb);
        let mut addr = 0u64;
        b.iter(|| {
            let mut walks = 0u64;
            for _ in 0..10_000 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1) % (1 << 26);
                walks += tlb.access(addr, PathKind::Correct);
            }
            walks
        });
    });
    // Hit-dominated: 64 pages, within the 96-entry DTLB, so after the
    // warm-up every access hits (the miss-dominated case is above).
    group.bench_function("dtlb_access_hot_10k", |b| {
        let mut tlb = Tlb::new(cfg.dtlb);
        let mut x = 0u64;
        b.iter(|| {
            let mut walks = 0u64;
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = (x >> 58) * cfg.dtlb.page_bytes + (x >> 20) % cfg.dtlb.page_bytes;
                walks += tlb.access(addr, PathKind::Correct);
            }
            walks
        });
    });
    group.bench_function("branch_observe_10k", |b| {
        let mut bp = BranchPredictor::new(cfg.branch);
        let branch = Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target: 0x4000,
        };
        let mut x = 1u64;
        b.iter(|| {
            let mut miss = 0u64;
            for i in 0..10_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let taken = x & 8 != 0;
                let pc = 0x1000 + (i % 37) * 4;
                let next = if taken { 0x4000 } else { pc + 4 };
                if bp.observe(pc, &branch, taken, next).mispredicted {
                    miss += 1;
                }
            }
            miss
        });
    });
    group.finish();
}

fn wrongpath_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("wrongpath");
    let cfg = CoreConfig::golden_cove_like();
    let program = loop_program(1000);
    // Pre-populate the code cache and collect a future window.
    let mut code_cache = CodeCache::unbounded();
    let mut future = Vec::new();
    let mut emu = Emulator::new(program.clone()).unwrap();
    while let Ok(inst) = emu.step() {
        code_cache.insert(inst.pc, inst.instr);
        if future.len() < 512 {
            future.push(inst);
        }
    }
    let predictor = BranchPredictor::new(cfg.branch);
    let start = program.base() + 8;
    group.throughput(Throughput::Elements(572));
    group.bench_function("reconstruct_572", |b| {
        b.iter(|| reconstruct(&mut code_cache, &predictor, start, 572).len());
    });
    group.bench_function("reconstruct_plus_recover", |b| {
        b.iter(|| {
            let mut wp = reconstruct(&mut code_cache, &predictor, start, 572);
            let mut stats = ConvergenceStats::default();
            recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
            stats.converged
        });
    });
    group.finish();
}

/// The lazy convergence stream conv injects from: one episode against a
/// 512-entry future with a 572-instruction budget, pulling the 96
/// instructions a pipeline typically takes before the branch resolves.
/// The converging episode matches in lock-step from a shallow
/// convergence point; in the non-converging one no pc of the future lies
/// on the wrong path, so the first detection scans the whole window and
/// walks the whole budget.
fn convergence_stream_rate(c: &mut Criterion) {
    const PULLED: usize = 96;
    let mut group = c.benchmark_group("convergence_stream");
    let program = loop_program(1000);
    let mut code_cache = CodeCache::unbounded();
    let mut predictor = BranchPredictor::new(CoreConfig::golden_cove_like().branch);
    let mut future = Vec::new();
    let mut emu = Emulator::new(program.clone()).unwrap();
    while let Ok(inst) = emu.step() {
        code_cache.insert(inst.pc, inst.instr);
        if let Some(outcome) = inst.branch {
            let _ = predictor.observe(inst.pc, &inst.instr, outcome.taken, inst.next_pc);
        }
        if future.len() < 512 {
            future.push(StreamEntry {
                inst,
                wrong_path: None,
            });
        }
    }
    let elsewhere: Vec<StreamEntry> = future
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.inst.pc += 0x100_0000;
            e
        })
        .collect();
    let start = program.base() + 8;
    group.throughput(Throughput::Elements(PULLED as u64));
    for (id, batch) in [("converging", &future), ("non_converging", &elsewhere)] {
        let (mut walk_buf, mut cache) = (WalkBuf::default(), FutureCache::default());
        let first_seq = batch[0].inst.seq;
        group.bench_function(id, |b| {
            b.iter(|| {
                let walk = Walk::new(&mut code_cache, &predictor, start, 572, &mut walk_buf);
                let window = FutureWindow::new(first_seq, batch, None, 512, &mut cache);
                let stream = ConvergenceStream::new(walk, window, ConvergenceConfig::default());
                stream.take(PULLED).filter(|w| w.mem.is_some()).count()
            });
        });
    }
    group.finish();
}

/// Per-instruction budget of each disabled-observability guard below.
const BUDGET: f64 = 1.03;
/// Child processes whose ratios each guard takes the median of, so that
/// no single process, with its own heap and stack placement and its own
/// stretch of host load, decides.
const CHILDREN: usize = 11;
/// Timed pairs of runs within one process.
const REPS: usize = 15;
/// The argument that makes this binary a guard's child process: it times
/// the guard named after it and prints that process's ratio.
const GUARD_CHILD: &str = "guard-child";

/// An emulated instruction stream for the guards to replay through
/// `feed_correct`.
fn guard_trace() -> Vec<(u64, Instr, Option<ffsim_emu::MemAccess>)> {
    let mut emu = Emulator::new(loop_program(10_000)).unwrap();
    let mut trace = Vec::new();
    while let Ok(inst) = emu.step() {
        trace.push((inst.pc, inst.instr, inst.mem));
    }
    trace
}

/// One process's ratio of `run_once(true)`'s time to `run_once(false)`'s:
/// the median, after a warm-up, of [`REPS`] back-to-back pairs in
/// alternating order. The host's speed drifts by tens of percent within
/// milliseconds on a shared machine, so each pair compares runs made
/// under the same conditions, and the median sheds pairs a spike split.
fn paired_ratio(mut run_once: impl FnMut(bool) -> Duration) -> f64 {
    run_once(false);
    run_once(true);
    let mut ratios: Vec<f64> = (0..REPS)
        .map(|rep| {
            let (with, without) = if rep % 2 == 0 {
                let without = run_once(false);
                (run_once(true), without)
            } else {
                let with = run_once(true);
                (with, run_once(false))
            };
            with.as_secs_f64() / without.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[REPS / 2]
}

/// The median of [`CHILDREN`] child processes' ratios for `guard`.
fn median_child_ratio(guard: &str) -> f64 {
    let exe = std::env::current_exe().expect("the bench binary's path");
    let mut ratios: Vec<f64> = (0..CHILDREN)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([GUARD_CHILD, guard])
                .output()
                .expect("a guard child process runs");
            assert!(out.status.success(), "{guard} child failed: {out:?}");
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .expect("a guard child prints its ratio")
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    eprintln!("{guard}: per-process ratios {ratios:.4?}");
    ratios[CHILDREN / 2]
}

/// Observability timing guard: a *disabled* trace ring in the pipeline hot
/// loop must cost at most ~2% (one predictable branch per instruction —
/// the `EventRing::record` fast path). Each child process replays an
/// emulated instruction stream through `feed_correct`, with and without a
/// disabled `record` call per instruction, and reports the median ratio
/// of paired runs; the guard panics if the median of those ratios over
/// the children exceeds the budget.
fn tracing_overhead_guard(_c: &mut Criterion) {
    let ratio = median_child_ratio("tracing");
    eprintln!("tracing_overhead_guard: median ratio {ratio:.4} over {CHILDREN} processes");
    assert!(
        ratio <= BUDGET,
        "disabled tracing costs {:.1}% on the pipeline hot loop (budget {:.0}%)",
        (ratio - 1.0) * 100.0,
        (BUDGET - 1.0) * 100.0
    );
}

/// One process's ratio for [`tracing_overhead_guard`].
fn tracing_ratio() -> f64 {
    let trace = guard_trace();
    paired_ratio(|with_ring| {
        // The ring comes from a black-boxed config so the compiler cannot
        // prove it disabled and fold the fast-path branch away.
        let mut ring = black_box(ObsConfig::disabled()).ring();
        let mut p = Pipeline::new(CoreConfig::tiny_for_tests());
        let start = Instant::now();
        for (pc, instr, mem) in &trace {
            if with_ring {
                ring.record(|| TraceEvent {
                    ts: *pc,
                    source: TraceSource::Timing,
                    kind: TraceEventKind::Squash { instructions: 0 },
                });
            }
            p.feed_correct(*pc, instr, *mem);
        }
        let elapsed = start.elapsed();
        black_box((p.cycles(), ring.len()));
        elapsed
    })
}

/// Disabled-path guard for the unified metrics registry and the phase
/// profiler: one disabled `MetricsRegistry::inc` plus one disabled
/// `ProfHandle` enter/exit pair per instruction in the pipeline hot loop
/// must cost at most ~3% — each is a single predictable branch, the same
/// observer-effect discipline (and the same median over child processes)
/// as the trace ring guard above.
fn profiler_overhead_guard(_c: &mut Criterion) {
    let ratio = median_child_ratio("profiler");
    eprintln!("profiler_overhead_guard: median ratio {ratio:.4} over {CHILDREN} processes");
    assert!(
        ratio <= BUDGET,
        "disabled registry+profiler cost {:.1}% on the pipeline hot loop (budget {:.0}%)",
        (ratio - 1.0) * 100.0,
        (BUDGET - 1.0) * 100.0
    );
}

/// One process's ratio for [`profiler_overhead_guard`].
fn profiler_ratio() -> f64 {
    let trace = guard_trace();
    paired_ratio(|with_obs| {
        // Black-boxed constructors so the compiler cannot prove the
        // registry and handle disabled and fold their fast paths away.
        let mut registry = black_box(MetricsRegistry::disabled());
        let retired = registry.counter("bench_retired_total").unwrap();
        let prof = black_box(ObsConfig::disabled()).prof_handle();
        let mut p = Pipeline::new(CoreConfig::tiny_for_tests());
        let start = Instant::now();
        for (pc, instr, mem) in &trace {
            if with_obs {
                prof.enter(Phase::TimingPipeline);
                registry.inc(retired, 1);
                p.feed_correct(*pc, instr, *mem);
                prof.exit();
            } else {
                p.feed_correct(*pc, instr, *mem);
            }
        }
        let elapsed = start.elapsed();
        black_box((p.cycles(), registry.counter_value(retired)));
        elapsed
    })
}

criterion_group!(
    benches,
    emulator_step_rate,
    cache_rate,
    wrongpath_rate,
    convergence_stream_rate,
    tracing_overhead_guard,
    profiler_overhead_guard
);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == GUARD_CHILD) {
        Some(i) => {
            let ratio = match args.get(i + 1).map(String::as_str) {
                Some("tracing") => tracing_ratio(),
                Some("profiler") => profiler_ratio(),
                other => panic!("unknown guard {other:?}"),
            };
            println!("{ratio}");
        }
        None => benches(),
    }
}
