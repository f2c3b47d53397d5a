//! Hand-derived checks of the timing model: results that follow from
//! reading the model, not from comparing one technique with another.

use ffsim_core::{SimConfig, Simulator, WrongPathMode};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};

/// Where the kernel's data array starts.
const DATA: u64 = 0x100_0000;

/// Counts the odd words of an `n`-word array: eleven instructions, all in
/// one 64-byte instruction-cache line, around a seven-instruction loop
/// that loads a word, keeps its low bit and branches on it. The branch
/// on the low bit of random data mispredicts about half the time.
fn odd_count_kernel(n: i64) -> Program {
    let (ptr, left, odd, word) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let mut a = Asm::new();
    a.li(ptr, DATA as i64);
    a.li(left, n);
    a.li(odd, 0);
    a.label("loop");
    a.ld(word, 0, ptr);
    a.andi(word, word, 1);
    a.beqz(word, "even");
    a.addi(odd, odd, 1);
    a.label("even");
    a.addi(ptr, ptr, 8);
    a.addi(left, left, -1);
    a.bnez(left, "loop");
    a.halt();
    a.assemble().expect("the kernel assembles")
}

/// `n` words of xorshift64 output from a fixed seed.
fn xorshift_data(n: u64) -> Memory {
    let mut mem = Memory::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u64(DATA + 8 * i, x);
    }
    mem
}

/// Instruction reconstruction on a kernel where no wrong-path effect can
/// outlive a squash gives exactly the cycles of no wrong path at all.
///
/// instrec times its wrong-path loads as L1 hits without touching the
/// data cache, and the kernel has no unpipelined unit (no divide) whose
/// booking could cross the branch's resolution. Its whole text is one
/// instruction-cache line that the correct path keeps resident, so
/// wrong-path fetch changes no cache state that matters. Everything else
/// a wrong path writes (the episode's window, the register scoreboard,
/// the fetch cursor) is rolled back at the squash, and a pipelined unit
/// booked before resolution is free again before any correct-path
/// instruction after the redirect can dispatch. So the timing model,
/// read this way, predicts identical cycles however many wrong-path
/// instructions instrec times; the squashed-before-issue rule relies on
/// the same reading.
#[test]
fn instrec_equals_nowp_when_no_wrong_path_effect_survives_a_squash() {
    for n in [3_000, 20_000, 50_000] {
        let program = odd_count_kernel(n);
        assert!(program.len() == 11 && program.end() - program.base() <= 64);
        let data = xorshift_data(n as u64);
        let run = |mode| {
            Simulator::new(program.clone(), data.clone(), SimConfig::new(mode))
                .expect("the kernel simulates")
                .run()
                .expect("the kernel runs")
        };
        let nowp = run(WrongPathMode::NoWrongPath);
        let instrec = run(WrongPathMode::InstructionReconstruction);
        assert_eq!(instrec.instructions, nowp.instructions);
        assert!(
            instrec.wrong_path_instructions > 0,
            "n = {n}: instrec timed no wrong path"
        );
        assert_eq!(
            instrec.cycles, nowp.cycles,
            "n = {n}: {} wrong-path instructions changed the cycles",
            instrec.wrong_path_instructions
        );
    }
}
