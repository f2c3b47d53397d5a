//! # sample — a wall-clock sampling profiler of one technique
//!
//! Simulates every kernel of one of ffbench's simulation workloads
//! (`gap_branchy`, `spec_branchy` or `spec_predictable`, at ffbench's
//! kernel parameters, default seeds and instruction budgets, as
//! `tools/ab` runs them) under one technique, `rounds` times, while
//! `SIGALRM` interrupts it every 200 µs of wall time (`ITIMER_REAL`).
//! Build and run it through `tools/sample.sh`, which builds with frame
//! pointers and symbolizes the result with `report.py`.
//!
//! ```text
//! sample --workload NAME --technique LABEL [--rounds N] --out FILE
//! ```
//!
//! Each sample is the interrupted instruction pointer and the return
//! addresses on the frame-pointer chain. The walk reads only the main
//! thread's stack, between the interrupted stack pointer and the end of
//! the `[stack]` mapping: code built without frame pointers (the
//! standard library) leaves other values in `rbp`, and following them
//! unchecked faults. The output file holds a short header (the
//! executable, its load bias, the period) and then one line per sample,
//! its addresses in hex, innermost first.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("the sampler reads x86-64 Linux signal contexts");

use std::ffi::c_void;
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// What a simulation reproduces (filled by `side.rs`). `tools/ab`
/// compares all of it; the sampler prints only the counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(dead_code)]
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
    fn named(name: &str) -> Option<Workload> {
        match name {
            "gap_branchy" => Some(Workload::GapBranchy),
            "spec_branchy" => Some(Workload::SpecBranchy),
            "spec_predictable" => Some(Workload::SpecPredictable),
            _ => None,
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

/// The kernels and the timed simulation, shared with `tools/ab`.
mod sim {
    use super::{Outcome, Workload, GAP_DEGREE, GAP_SCALE, GAP_SEED, SPEC_SEED};
    use ffsim_core as sim_core;
    use ffsim_uarch as sim_uarch;
    use ffsim_workloads as sim_workloads;
    include!("../ab/side.rs");
}

/// The sampling period.
const PERIOD_US: i64 = 200;
/// The deepest stack a sample records.
const MAX_DEPTH: usize = 64;
/// The sample buffer's size in words: 32 MiB, touched only as filled.
const BUF_WORDS: usize = 1 << 22;
/// How far below its extent at start-up the main thread's stack may
/// reach: the default stack limit.
const STACK_GROWTH: usize = 8 << 20;

const ITIMER_REAL: i32 = 0;
const SIGALRM: i32 = 14;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
/// Offsets into x86-64 `ucontext_t`: `uc_mcontext.gregs` starts after
/// `uc_flags`, `uc_link` and the 24-byte `uc_stack`, and holds 8-byte
/// registers in `REG_*` order.
const GREGS: usize = 40;
const REG_RBP: usize = 10;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

/// glibc's x86-64 `struct sigaction`.
#[repr(C)]
struct Sigaction {
    sa_sigaction: usize,
    sa_mask: [u64; 16],
    sa_flags: i32,
    sa_restorer: usize,
}

extern "C" {
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    fn sigaction(signum: i32, act: *const Sigaction, old: *mut Sigaction) -> i32;
}

/// The sample buffer: records of a depth word and that many addresses.
/// Null while sampling is off. The handler runs on the thread it
/// interrupts, and `LEN` publishes the words it wrote (release, paired
/// with the acquire in `main`).
static BUF: AtomicPtr<u64> = AtomicPtr::new(std::ptr::null_mut());
static LEN: AtomicUsize = AtomicUsize::new(0);
/// Samples that did not fit in the buffer (a statistic).
static DROPPED: AtomicUsize = AtomicUsize::new(0);
/// The main thread's stack: `[STACK_LO, STACK_HI)` at start-up.
static STACK_LO: AtomicUsize = AtomicUsize::new(0);
static STACK_HI: AtomicUsize = AtomicUsize::new(0);

/// The `SIGALRM` handler: records one sample. It allocates nothing and
/// takes no lock.
extern "C" fn on_alarm(_signum: i32, _info: *mut c_void, ctx: *mut c_void) {
    let buf = BUF.load(Ordering::Relaxed);
    if buf.is_null() {
        return;
    }
    // SAFETY: with SA_SIGINFO the kernel passes the interrupted context
    // as a valid `ucontext_t`, whose general registers sit at `GREGS`.
    let reg = |r: usize| unsafe { ctx.cast::<u8>().add(GREGS).cast::<usize>().add(r).read() };
    let (rip, rsp, mut fp) = (reg(REG_RIP), reg(REG_RSP), reg(REG_RBP));
    let mut frames = [0usize; MAX_DEPTH];
    frames[0] = rip;
    let mut n = 1;
    let (lo, hi) = (
        STACK_LO.load(Ordering::Relaxed),
        STACK_HI.load(Ordering::Relaxed),
    );
    // Walk only when the main thread was interrupted, and only inside
    // the part of its stack in use.
    if rsp >= lo.saturating_sub(STACK_GROWTH) && rsp < hi {
        while n < MAX_DEPTH && fp >= rsp && fp.is_multiple_of(8) && fp + 16 <= hi {
            // SAFETY: `[rsp, hi)` is the mapped, in-use part of the main
            // thread's stack, and both words lie inside it.
            let (caller_fp, ret) = unsafe { (*(fp as *const usize), *((fp + 8) as *const usize)) };
            if ret == 0 {
                break;
            }
            frames[n] = ret;
            n += 1;
            // Callers' frames lie higher; anything else ends the chain.
            if caller_fp <= fp {
                break;
            }
            fp = caller_fp;
        }
    }
    let len = LEN.load(Ordering::Relaxed);
    if len + 1 + n > BUF_WORDS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // SAFETY: `buf` points to `BUF_WORDS` words that live until `main`
    // nulls `BUF`, and `len + 1 + n` is within them.
    unsafe {
        buf.add(len).write(n as u64);
        for (j, &a) in frames[..n].iter().enumerate() {
            buf.add(len + 1 + j).write(a as u64);
        }
    }
    LEN.store(len + 1 + n, Ordering::Release);
}

/// Arms (`period_us` > 0) or disarms the wall-clock timer.
fn set_timer(period_us: i64) -> std::io::Result<()> {
    let tick = Timeval {
        tv_sec: 0,
        tv_usec: period_us,
    };
    let every = Itimerval {
        it_interval: Timeval {
            tv_sec: 0,
            tv_usec: period_us,
        },
        it_value: tick,
    };
    // SAFETY: `every` is a valid `itimerval`; the old value is not asked for.
    if unsafe { setitimer(ITIMER_REAL, &every, std::ptr::null_mut()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Installs `on_alarm` for `SIGALRM`.
fn install_handler() -> std::io::Result<()> {
    let act = Sigaction {
        sa_sigaction: on_alarm as extern "C" fn(i32, *mut c_void, *mut c_void) as *const ()
            as usize,
        sa_mask: [0; 16],
        sa_flags: SA_SIGINFO | SA_RESTART,
        sa_restorer: 0,
    };
    // SAFETY: `act` is a valid `sigaction` whose handler has the
    // SA_SIGINFO signature; the old action is not asked for.
    if unsafe { sigaction(SIGALRM, &act, std::ptr::null_mut()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// From `/proc/self/maps`: the main thread's `[stack]` range, and the
/// load bias of this executable (the start of its mapping at file
/// offset 0).
fn read_maps() -> Result<((usize, usize), usize), String> {
    let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| format!("maps: {e}"))?;
    let exe = std::env::current_exe()
        .and_then(std::fs::canonicalize)
        .map_err(|e| format!("current_exe: {e}"))?;
    let (mut stack, mut bias) = (None, None);
    for line in maps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(range), Some(offset)) = (fields.first(), fields.get(2)) else {
            continue;
        };
        let Some((lo, hi)) = range.split_once('-') else {
            continue;
        };
        let hex = |s: &str| usize::from_str_radix(s, 16).ok();
        let path = fields.get(5).copied().unwrap_or("");
        if path == "[stack]" {
            stack = hex(lo).zip(hex(hi));
        } else if bias.is_none() && hex(offset) == Some(0) && std::path::Path::new(path) == exe {
            bias = hex(lo);
        }
    }
    Ok((
        stack.ok_or("no [stack] mapping")?,
        bias.ok_or("no mapping of the executable at offset 0")?,
    ))
}

struct Args {
    workload: Workload,
    technique: usize,
    rounds: usize,
    out: String,
}

const USAGE: &str = "usage: sample --workload NAME --technique LABEL [--rounds N] --out FILE";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut technique, mut rounds, mut out) = (None, None, 3, None);
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::named(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--technique" => {
                technique = Some(
                    (0..4)
                        .find(|&t| sim::label(t) == value)
                        .ok_or(format!("unknown technique {value}"))?,
                );
            }
            "--rounds" => {
                rounds = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--rounds: bad count {value}"))?;
            }
            "--out" => out = Some(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        technique: technique.ok_or("--technique is required")?,
        rounds,
        out: out.ok_or("--out is required")?,
    })
}

/// Simulates the workload `rounds` times with the timer armed; returns
/// the sample words and the simulated instruction count.
fn profile(args: &Args) -> Result<(Vec<u64>, u64), String> {
    let kernels = sim::kernels(args.workload);
    let mut buf = vec![0u64; BUF_WORDS];
    install_handler().map_err(|e| format!("sigaction: {e}"))?;
    BUF.store(buf.as_mut_ptr(), Ordering::Relaxed);
    set_timer(PERIOD_US).map_err(|e| format!("setitimer: {e}"))?;
    let mut instructions = 0;
    for round in 0..args.rounds {
        let (mut ns, mut wrong_path) = (0.0, 0);
        for (_, kernel) in &kernels {
            let (t, outcome) = sim::simulate(kernel, args.technique, args.workload.budget());
            ns += t;
            instructions += outcome.instructions;
            wrong_path += outcome.wrong_path;
        }
        eprintln!(
            "sample: round {}/{}: {:.2} s, {wrong_path} wrong-path instructions",
            round + 1,
            args.rounds,
            ns / 1e9
        );
    }
    set_timer(0).map_err(|e| format!("setitimer: {e}"))?;
    BUF.store(std::ptr::null_mut(), Ordering::Relaxed);
    buf.truncate(LEN.load(Ordering::Acquire));
    Ok((buf, instructions))
}

fn run(args: &Args) -> Result<(), String> {
    let ((lo, hi), bias) = read_maps()?;
    STACK_LO.store(lo, Ordering::Relaxed);
    STACK_HI.store(hi, Ordering::Relaxed);
    let (words, instructions) = profile(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut text = String::new();
    text.push_str(
        "# tools/sample: one line per sample, the interrupted pc and then return addresses\n",
    );
    text.push_str(&format!(
        "exe {}\nbias {bias:#x}\nperiod_us {PERIOD_US}\n",
        exe.display()
    ));
    let (mut at, mut samples) = (0, 0);
    while at < words.len() {
        let n = words[at] as usize;
        let line: Vec<String> = words[at + 1..at + 1 + n]
            .iter()
            .map(|a| format!("{a:x}"))
            .collect();
        text.push_str(&line.join(" "));
        text.push('\n');
        at += 1 + n;
        samples += 1;
    }
    let mut file = std::fs::File::create(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    file.write_all(text.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!(
        "sample: {samples} samples ({} dropped) over {instructions} instructions -> {}",
        DROPPED.load(Ordering::Relaxed),
        args.out
    );
    if samples == 0 {
        return Err("no samples".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sample: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sample: {e}");
            ExitCode::FAILURE
        }
    }
}
