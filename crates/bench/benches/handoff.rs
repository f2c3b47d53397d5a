//! Criterion benchmark of the batched frontend→timing handoff (see
//! DESIGN.md §"Batched handoff and the block cache"): how fast the
//! functional frontend can stream instructions into a consumer as a
//! function of the batch size requested per [`FetchSource::fill`] call.
//! Batch size 1 approximates the old per-instruction `pop`
//! handoff (one virtual call and one `VecDeque` pop per instruction);
//! larger batches amortize that boundary until raw emulation speed
//! dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ffsim_emu::{Emulator, InstrQueue, NoFrontendWrongPath, StreamBuf};
use ffsim_isa::{Asm, Program, Reg};
use std::hint::black_box;

/// Roughly 60k dynamic instructions with a load and a loop branch per
/// iteration — the same shape the component benches use, branchy enough
/// that block boundaries (branches) occur at a realistic rate.
fn loop_program(n: i64) -> Program {
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

/// Drains the whole program through the batched handoff in `batch`-sized
/// fills, returning the delivered instruction count.
fn drain(program: &Program, batch: usize) -> usize {
    let emu = Emulator::new(program.clone()).unwrap();
    let mut q = InstrQueue::new(emu, NoFrontendWrongPath, 64);
    let mut buf = StreamBuf::new();
    let mut delivered = 0usize;
    loop {
        buf.clear();
        let n = q.fill(&mut buf, batch);
        if n == 0 {
            break;
        }
        for entry in buf.entries() {
            black_box(entry.inst.pc);
        }
        delivered += n;
    }
    delivered
}

fn handoff_rate(c: &mut Criterion) {
    let program = loop_program(10_000);
    let total = drain(&program, 256) as u64;
    let mut group = c.benchmark_group("handoff");
    group.throughput(Throughput::Elements(total));
    for &batch in &[1usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::new("fill", batch), &batch, |b, &batch| {
            b.iter(|| drain(&program, batch));
        });
    }
    group.finish();
}

criterion_group!(benches, handoff_rate);
criterion_main!(benches);
