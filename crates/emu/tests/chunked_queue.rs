//! The chunked [`InstrQueue`] against the queue it replaced: a `VecDeque`
//! of entries that `pop` and `fill` drain from the front. Both queues run
//! the same program under the same frontend policy through the same
//! interleaving of pops, fills (into empty and non-empty buffers) and
//! peeks, and must agree on every entry delivered or peeked, on
//! `buffered()`, on how the stream ended, and on the emulator's final
//! sequence number and state digest.

use ffsim_emu::{
    CancelCause, CancelToken, DynInst, Emulator, Fault, FrontendPolicy, InstrQueue, StepError,
    StreamBuf, StreamEntry, WrongPathCheckpoint, WrongPathRequest,
};
use ffsim_isa::{Asm, Reg};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Requests a wrong path at every `k`-th instruction, so that entries carry
/// checkpoints and the store log is pruned as entries are delivered.
#[derive(Debug)]
struct EveryK {
    k: u64,
    seen: u64,
}

impl FrontendPolicy for EveryK {
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
        self.seen += 1;
        self.seen
            .is_multiple_of(self.k)
            .then_some(WrongPathRequest {
                start: inst.next_pc,
            })
    }
}

/// The reference: the `VecDeque` queue as it was before chunking.
struct Reference {
    emu: Emulator,
    policy: EveryK,
    buf: VecDeque<StreamEntry>,
    depth: usize,
    ended: bool,
    fault: Option<Fault>,
    cancelled: Option<CancelCause>,
    delivered: Option<u64>,
}

impl Reference {
    fn new(emu: Emulator, policy: EveryK, depth: usize) -> Reference {
        Reference {
            emu,
            policy,
            buf: VecDeque::new(),
            depth,
            ended: false,
            fault: None,
            cancelled: None,
            delivered: None,
        }
    }

    fn refill_to(&mut self, want: usize) {
        while self.buf.len() < want && !self.ended {
            match self.emu.step() {
                Ok(inst) => {
                    let wrong_path = self
                        .policy
                        .on_instruction(&inst)
                        .map(|req| WrongPathCheckpoint::new(req.start, self.emu.state()));
                    self.buf.push_back(StreamEntry { inst, wrong_path });
                }
                Err(StepError::Halted) => self.ended = true,
                Err(StepError::Fault(f)) => {
                    self.fault = Some(f);
                    self.ended = true;
                }
                Err(StepError::Cancelled(cause)) => {
                    self.cancelled = Some(cause);
                    self.ended = true;
                }
            }
        }
    }

    fn prune_delivered(&mut self) {
        if let Some(seq) = self.delivered {
            self.emu.prune_store_log(seq);
        }
    }

    fn pop(&mut self) -> Option<StreamEntry> {
        self.prune_delivered();
        self.refill_to(1);
        let entry = self.buf.pop_front();
        if let Some(e) = &entry {
            self.delivered = Some(e.inst.seq);
        }
        self.refill_to(self.depth);
        entry
    }

    fn fill(&mut self, out: &mut StreamBuf, max: usize) -> usize {
        self.prune_delivered();
        self.refill_to(max.saturating_add(self.depth));
        let take = max.min(self.buf.len());
        for entry in self.buf.drain(..take) {
            out.push(entry);
        }
        if take > 0 {
            self.delivered = out.entries().last().map(|e| e.inst.seq);
        }
        take
    }

    fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        if index >= self.depth {
            return None;
        }
        self.refill_to(index + 1);
        self.buf.get(index)
    }
}

/// How the stream ends.
#[derive(Clone, Copy, Debug)]
enum End {
    Halt,
    /// A misaligned load after the loop.
    Fault,
    /// Both tokens fire before this op (the program would halt later).
    Cancel(usize),
}

/// A loop of `trips` iterations over a body of ALU ops, stores and loads,
/// ended by `halt` or by a faulting load.
fn program(trips: i64, body: &[(u8, u8)], fault: bool) -> ffsim_isa::Program {
    let (counter, base) = (Reg::new(1), Reg::new(2));
    let mut a = Asm::new();
    a.li(counter, trips);
    a.li(base, 0x20_0000);
    a.label("loop");
    for &(kind, r) in body {
        let r = Reg::new(3 + r % 8);
        let offset = 8 * r.index() as i64;
        match kind % 3 {
            0 => a.add(r, r, counter),
            1 => a.sd(r, offset, base),
            _ => a.ld(r, offset, base),
        };
    }
    a.addi(counter, counter, -1);
    a.bnez(counter, "loop");
    if fault {
        a.li(base, 0x33);
        a.ld(Reg::new(3), 0, base);
    }
    a.halt();
    a.assemble().expect("the program assembles")
}

/// One operation on both queues.
#[derive(Clone, Copy, Debug)]
enum Op {
    Pop,
    /// Fill up to `max`, clearing the buffer first or appending.
    Fill {
        max: usize,
        clear: bool,
    },
    Peek(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Pop),
        (1usize..131, any::<bool>()).prop_map(|(max, clear)| Op::Fill { max, clear }),
        (0usize..1 << 16).prop_map(Op::Peek),
    ]
}

fn arb_end() -> impl Strategy<Value = End> {
    prop_oneof![
        Just(End::Halt),
        Just(End::Fault),
        (0usize..120).prop_map(End::Cancel),
    ]
}

proptest! {
    #[test]
    fn chunked_queue_matches_the_vecdeque_queue(
        trips in 1i64..120,
        body in proptest::collection::vec((0u8..3, 0u8..8), 1..12),
        end in arb_end(),
        depth in 1usize..200,
        k in 1u64..20,
        ops in proptest::collection::vec(arb_op(), 1..120),
        batch in 1usize..131,
        aligned in any::<bool>(),
    ) {
        let p = program(trips, &body, matches!(end, End::Fault));
        let tokens = (CancelToken::new(), CancelToken::new());
        let emulator = |token: &CancelToken| {
            let mut emu = Emulator::new(p.clone()).unwrap();
            emu.set_store_log(true);
            emu.set_cancel_token(Some(token.clone()));
            emu
        };
        let mut q = InstrQueue::new(emulator(&tokens.0), EveryK { k, seen: 0 }, depth);
        let mut r = Reference::new(emulator(&tokens.1), EveryK { k, seen: 0 }, depth);
        let (mut qbuf, mut rbuf) = (StreamBuf::new(), StreamBuf::new());
        // The run loop's pattern: one batch size, into a cleared buffer.
        let run_loop = Op::Fill { max: batch, clear: true };
        // In aligned cases only that pattern and peeks; after the generated
        // ops, both queues drain to the end in that pattern.
        let ops = ops.into_iter().map(|op| match op {
            Op::Pop | Op::Fill { .. } if aligned => run_loop,
            op => op,
        });
        let drain = std::iter::repeat_n(run_loop, 2 + 2000 / batch);
        for (i, op) in ops.chain(drain).enumerate() {
            if matches!(end, End::Cancel(at) if at == i) {
                tokens.0.cancel();
                tokens.1.cancel();
            }
            match op {
                Op::Pop => prop_assert_eq!(q.pop(), r.pop(), "op {}", i),
                Op::Fill { max, clear } => {
                    if clear {
                        qbuf.clear();
                        rbuf.clear();
                    }
                    prop_assert_eq!(q.fill(&mut qbuf, max), r.fill(&mut rbuf, max), "op {}", i);
                    prop_assert_eq!(qbuf.entries(), rbuf.entries(), "op {}", i);
                }
                Op::Peek(index) => {
                    let index = index % depth;
                    prop_assert_eq!(q.peek(index).cloned(), r.peek(index).cloned(), "op {}", i);
                }
            }
            prop_assert_eq!(q.buffered(), r.buf.len(), "op {}", i);
        }
        prop_assert!(q.is_exhausted());
        prop_assert_eq!(q.fault(), r.fault);
        prop_assert_eq!(q.cancelled(), r.cancelled);
        prop_assert_eq!(q.emulator().instructions_executed(), r.emu.instructions_executed());
        prop_assert_eq!(q.emulator().digest(), r.emu.digest());
    }
}

proptest! {
    /// Peeks at every depth, after each pop or fill, agree with the
    /// `VecDeque` queue. Each run of fills keeps one batch size, as the run
    /// loop does, so the chunks become uniform and `peek` indexes them
    /// directly; the next run changes the size, and a pop or a fill into a
    /// non-empty buffer splits a chunk, so `peek` also walks mixed ones.
    #[test]
    fn peeks_at_every_depth_match_the_vecdeque_queue(
        trips in 1i64..80,
        body in proptest::collection::vec((0u8..3, 0u8..8), 1..8),
        depth in 1usize..64,
        k in 1u64..20,
        runs in proptest::collection::vec((1usize..40, 1usize..10, 0u8..4), 1..8),
    ) {
        let p = program(trips, &body, false);
        let emulator = || {
            let mut emu = Emulator::new(p.clone()).unwrap();
            emu.set_store_log(true);
            emu
        };
        let mut q = InstrQueue::new(emulator(), EveryK { k, seen: 0 }, depth);
        let mut r = Reference::new(emulator(), EveryK { k, seen: 0 }, depth);
        let (mut qbuf, mut rbuf) = (StreamBuf::new(), StreamBuf::new());
        for (run, &(batch, fills, split)) in runs.iter().enumerate() {
            for fill in 0..fills {
                // The run loop's fill into a cleared buffer, except that
                // every third one is a pop (`split` 0), a fill appending
                // to the buffer (1), or the same (2 and 3).
                let odd_one = fill % 3 == 2;
                if odd_one && split == 0 {
                    prop_assert_eq!(q.pop(), r.pop(), "run {} fill {}", run, fill);
                } else {
                    if !(odd_one && split == 1) {
                        qbuf.clear();
                        rbuf.clear();
                    }
                    prop_assert_eq!(q.fill(&mut qbuf, batch), r.fill(&mut rbuf, batch));
                    prop_assert_eq!(qbuf.entries(), rbuf.entries(), "run {} fill {}", run, fill);
                }
                for index in 0..depth {
                    let (got, want) = (q.peek(index).cloned(), r.peek(index).cloned());
                    prop_assert_eq!(got, want, "run {} fill {} peek {}", run, fill, index);
                }
                prop_assert_eq!(q.buffered(), r.buf.len());
            }
        }
    }
}
