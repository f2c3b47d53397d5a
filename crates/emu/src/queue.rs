//! The decoupled instruction queue between the functional and performance
//! simulators.
//!
//! In functional-first simulation the functional simulator *runs ahead*,
//! pushing instruction records into a queue the performance simulator
//! consumes (paper §II). [`InstrQueue`] implements that queue with two
//! extra capabilities the wrong-path techniques rely on:
//!
//! * **lookahead peeking** ([`InstrQueue::peek`]) into the future correct
//!   path — the convergence-exploitation technique scans upcoming
//!   correct-path instructions for a convergence point and their memory
//!   addresses (§III-C);
//! * **wrong-path checkpoints**: a [`FrontendPolicy`] observes every
//!   correct-path instruction in program order (mirroring the paper's
//!   "copy of the branch predictor model" inside the functional simulator)
//!   and can request a wrong path at a branch it predicts mispredicted
//!   (§III-B). The queue attaches a [`WrongPathCheckpoint`] to the
//!   branch's entry; the wrong path is emulated from it later, as far as
//!   the timing model fetches it ([`Emulator::wrong_path_stream`]). The
//!   queue bounds the emulator's store log to the entries not yet
//!   delivered.

use crate::cancel::CancelCause;
use crate::dyninst::{DynInst, WrongPathCheckpoint, WrongPathFaultStats};
use crate::emulator::{Emulator, StepError};
use crate::exec::Fault;
use ffsim_isa::Addr;
use ffsim_obs::{Phase, ProfHandle, TraceEvent};
use std::collections::VecDeque;

/// A request to checkpoint the wrong path of a (predicted-mispredicted)
/// branch, produced by a [`FrontendPolicy`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WrongPathRequest {
    /// First wrong-path pc (the mispredicted direction's target).
    pub start: Addr,
}

/// Frontend-side policy observing the correct-path stream.
///
/// Implementations typically hold a replica of the timing model's branch
/// predictor: they predict every branch *before* updating with its actual
/// outcome, and return a [`WrongPathRequest`] when the prediction differs.
pub trait FrontendPolicy {
    /// Observes one correct-path instruction in program order, returning a
    /// wrong-path request if this branch is predicted wrongly.
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest>;
}

/// Policy for simulators that do not generate wrong paths in the functional
/// frontend (the default, instruction-reconstruction and convergence
/// configurations — those reconstruct in the *performance* simulator).
#[derive(Clone, Copy, Default, Debug)]
pub struct NoFrontendWrongPath;

impl FrontendPolicy for NoFrontendWrongPath {
    fn on_instruction(&mut self, _inst: &DynInst) -> Option<WrongPathRequest> {
        None
    }
}

/// One queue slot: a correct-path instruction, plus the wrong-path
/// checkpoint hanging off it when the frontend policy predicted a
/// misprediction.
#[derive(Clone, PartialEq, Debug)]
pub struct StreamEntry {
    /// The correct-path instruction.
    pub inst: DynInst,
    /// The wrong-path checkpoint, in `WrongPathEmulation` configurations.
    pub wrong_path: Option<WrongPathCheckpoint>,
}

/// A reusable, caller-owned batch of [`StreamEntry`]s filled by
/// [`FetchSource::fill`]. The consumer clears and refills the same buffer
/// every batch, so the per-instruction handoff cost (a virtual `pop` call
/// and the queue's bookkeeping) is paid once per *run* of instructions.
/// [`InstrQueue::fill`] may hand a whole batch over by swapping the
/// buffer's vector with one of its own, so the allocation behind a buffer
/// can change from one batch to the next.
#[derive(Clone, Default, Debug)]
pub struct StreamBuf {
    entries: Vec<StreamEntry>,
}

impl StreamBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> StreamBuf {
        StreamBuf::default()
    }

    /// An empty buffer with room for `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> StreamBuf {
        StreamBuf {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Drops all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends one entry (used by the default [`FetchSource::fill`]).
    pub fn push(&mut self, entry: StreamEntry) {
        self.entries.push(entry);
    }

    /// The buffered entries, in program order.
    #[must_use]
    pub fn entries(&self) -> &[StreamEntry] {
        &self.entries
    }

    /// Number of buffered entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The functional frontend as the performance simulator consumes it: a
/// program-order stream of [`StreamEntry`]s with lookahead peeking, plus
/// the end-of-stream diagnostics (fault, cancellation) the simulator reads
/// after the run.
///
/// This is the seam between the emu-side view (an [`InstrQueue`] carrying
/// some [`FrontendPolicy`]) and the core-side wrong-path techniques: a
/// technique selects its frontend wiring by building the queue/policy pair
/// it needs and handing it over as a `Box<dyn FetchSource>`, so the
/// simulator's run loop is independent of the concrete policy type.
pub trait FetchSource: Send + std::fmt::Debug {
    /// Pops the next correct-path entry, or `None` at end of stream.
    fn pop(&mut self) -> Option<StreamEntry>;
    /// Batched pop: appends up to `max` entries to `buf` and returns how
    /// many were delivered. Exactly equivalent to `max` consecutive
    /// [`FetchSource::pop`] calls (same entries, same order, same
    /// emulator-side runahead), delivered in one virtual call so the hot
    /// loop touches the seam once per batch. Fewer than `max` entries
    /// (possibly zero) means the stream ended mid-batch.
    fn fill(&mut self, buf: &mut StreamBuf, max: usize) -> usize {
        let mut delivered = 0;
        while delivered < max {
            match self.pop() {
                Some(entry) => {
                    buf.push(entry);
                    delivered += 1;
                }
                None => break,
            }
        }
        delivered
    }
    /// Peeks `index` entries ahead (0 = next to pop) without consuming.
    fn peek(&mut self, index: usize) -> Option<&StreamEntry>;
    /// The correct-path fault that ended the stream, if any.
    fn fault(&self) -> Option<Fault>;
    /// Unused: the frontend no longer emulates wrong paths, so its stream
    /// never ends on one. Always `false`.
    fn fault_was_wrong_path(&self) -> bool {
        false
    }
    /// Unused: wrong-path faults are counted where wrong paths are
    /// emulated, in the technique. Always zero.
    fn fault_stats(&self) -> WrongPathFaultStats {
        WrongPathFaultStats::default()
    }
    /// The cancellation cause that ended the stream, if any.
    fn cancelled(&self) -> Option<CancelCause>;
    /// The underlying functional emulator (state digests, validation, and
    /// lazy wrong-path emulation from a delivered checkpoint).
    fn emulator(&self) -> &Emulator;
    /// Unused: wrong-path events are traced where wrong paths are
    /// emulated. Always empty.
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
    /// Unused, like [`FetchSource::take_trace`]. Always zero.
    fn trace_dropped(&self) -> u64 {
        0
    }
    /// Installs the simulator's shared phase profiler so functional-side
    /// work (`emu_exec`, `emu_handoff`) is attributed on the same nesting
    /// stack as the timing loop's scopes. The default ignores the handle:
    /// a source that does not profile simply contributes no phases.
    fn install_profiler(&mut self, prof: ProfHandle) {
        let _ = prof;
    }
}

impl<P: FrontendPolicy + Send + std::fmt::Debug> FetchSource for InstrQueue<P> {
    fn pop(&mut self) -> Option<StreamEntry> {
        InstrQueue::pop(self)
    }

    fn fill(&mut self, buf: &mut StreamBuf, max: usize) -> usize {
        InstrQueue::fill(self, buf, max)
    }

    fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        InstrQueue::peek(self, index)
    }

    fn fault(&self) -> Option<Fault> {
        InstrQueue::fault(self)
    }

    fn cancelled(&self) -> Option<CancelCause> {
        InstrQueue::cancelled(self)
    }

    fn emulator(&self) -> &Emulator {
        InstrQueue::emulator(self)
    }

    fn install_profiler(&mut self, prof: ProfHandle) {
        InstrQueue::set_profiler(self, prof);
    }
}

/// The functional→performance instruction queue.
///
/// The runahead is kept in chunks of consecutive entries, each chunk a
/// `Vec` sized like the consumer's batches (the `max` of the latest
/// [`InstrQueue::fill`]). The emulator writes each record once, straight
/// into the back chunk. A batch that is exactly the front chunk, asked for
/// into an empty [`StreamBuf`], is handed over by swapping vectors, and the
/// buffer's old vector is kept as a spare chunk. Any other delivery copies.
///
/// # Examples
///
/// ```
/// use ffsim_emu::{Emulator, InstrQueue, NoFrontendWrongPath};
/// use ffsim_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// a.li(Reg::new(1), 7);
/// a.addi(Reg::new(1), Reg::new(1), 1);
/// a.halt();
/// let mut q = InstrQueue::new(Emulator::new(a.assemble()?)?, NoFrontendWrongPath, 128);
/// assert_eq!(q.peek(2).unwrap().inst.instr.to_string(), "halt");
/// let first = q.pop().unwrap();
/// assert_eq!(first.inst.pc, 0x1_0000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct InstrQueue<P> {
    emu: Emulator,
    policy: P,
    /// The runahead in program order. The front chunk's first `head`
    /// entries are delivered; every chunk holds at least one undelivered
    /// entry.
    chunks: VecDeque<Vec<StreamEntry>>,
    head: usize,
    /// Undelivered entries.
    len: usize,
    /// Entries per new chunk.
    chunk: usize,
    /// Chunks other than the back one that do not hold exactly `chunk`
    /// entries. While there are none, entry `i` from the front lies in
    /// chunk `i / chunk`, or in the back one.
    odd: usize,
    /// Emptied vectors, reused as chunks.
    spare: Vec<Vec<StreamEntry>>,
    depth: usize,
    ended: bool,
    fault: Option<Fault>,
    cancelled: Option<CancelCause>,
    /// Sequence number of the last delivered entry: the consumer is done
    /// with it by the next delivery, so the store log can forget it.
    delivered: Option<u64>,
    prof: ProfHandle,
}

impl<P: FrontendPolicy> InstrQueue<P> {
    /// Creates a queue that keeps up to `depth` instructions of runahead.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (internal invariant: `SimConfig`
    /// validation rejects a zero depth before construction).
    #[must_use]
    pub fn new(emu: Emulator, policy: P, depth: usize) -> InstrQueue<P> {
        assert!(depth > 0, "queue depth must be positive");
        InstrQueue {
            emu,
            policy,
            chunks: VecDeque::new(),
            head: 0,
            len: 0,
            chunk: depth,
            odd: 0,
            spare: Vec::new(),
            depth,
            ended: false,
            fault: None,
            cancelled: None,
            delivered: None,
            prof: ProfHandle::disabled(),
        }
    }

    /// Installs a shared phase profiler attributing functional-side work:
    /// raw emulator stepping as [`Phase::EmuExec`], the surrounding
    /// refill/handoff bookkeeping as [`Phase::EmuHandoff`]. A disabled
    /// handle (the default) costs one branch per refill.
    pub fn set_profiler(&mut self, prof: ProfHandle) {
        self.prof = prof;
    }

    fn refill_to(&mut self, want: usize) {
        if self.len >= want || self.ended {
            return;
        }
        self.prof.enter(Phase::EmuHandoff);
        while self.len < want && !self.ended {
            if self.chunks.back().is_none_or(|c| c.len() >= self.chunk) {
                if let Some(back) = self.chunks.back() {
                    self.odd += usize::from(back.len() != self.chunk);
                }
                let fresh = self.spare.pop().unwrap_or_default();
                self.chunks.push_back(fresh);
            }
            let chunk = self.chunks.back_mut().expect("a chunk with room");
            let room = (self.chunk - chunk.len()).min(want - self.len);
            for _ in 0..room {
                self.prof.enter(Phase::EmuExec);
                let stepped = self.emu.step();
                self.prof.exit();
                let inst = match stepped {
                    Ok(inst) => inst,
                    Err(end) => {
                        match end {
                            StepError::Halted => {}
                            StepError::Fault(f) => self.fault = Some(f),
                            StepError::Cancelled(cause) => self.cancelled = Some(cause),
                        }
                        self.ended = true;
                        break;
                    }
                };
                let wrong_path = self
                    .policy
                    .on_instruction(&inst)
                    .map(|req| WrongPathCheckpoint::new(req.start, self.emu.state()));
                chunk.push(StreamEntry { inst, wrong_path });
                self.len += 1;
            }
            if chunk.is_empty() {
                let empty = self.chunks.pop_back().expect("the chunk just filled");
                self.spare.push(empty);
                if let Some(back) = self.chunks.back() {
                    self.odd -= usize::from(back.len() != self.chunk);
                }
            }
        }
        self.prof.exit();
    }

    /// Forgets the logged stores of entries already delivered: the
    /// consumer has finished with them (and with their wrong paths) by the
    /// time it asks for more.
    fn prune_delivered(&mut self) {
        if let Some(seq) = self.delivered {
            self.emu.prune_store_log(seq);
        }
    }

    /// Moves the front chunk's `head` entry out.
    fn take_head(&mut self) -> StreamEntry {
        let front = &mut self.chunks[0];
        let e = &mut front[self.head];
        let entry = StreamEntry {
            inst: e.inst,
            wrong_path: e.wrong_path.take(),
        };
        self.head += 1;
        self.len -= 1;
        if self.head == front.len() {
            self.recycle_front();
        }
        entry
    }

    /// Retires the front chunk, all delivered, as a spare.
    fn recycle_front(&mut self) {
        let mut done = self.pop_front_chunk();
        done.clear();
        self.spare.push(done);
        self.head = 0;
    }

    /// Counts the chunks other than the back one that do not hold
    /// `chunk` entries.
    fn count_odd(&self) -> usize {
        let older = self.chunks.iter().rev().skip(1);
        older.filter(|c| c.len() != self.chunk).count()
    }

    /// Removes the front chunk.
    fn pop_front_chunk(&mut self) -> Vec<StreamEntry> {
        let front = self.chunks.pop_front().expect("a front chunk");
        if !self.chunks.is_empty() {
            self.odd -= usize::from(front.len() != self.chunk);
        }
        front
    }

    /// Pops the next correct-path entry, or `None` at end of stream.
    pub fn pop(&mut self) -> Option<StreamEntry> {
        self.prune_delivered();
        self.refill_to(1);
        let entry = (self.len > 0).then(|| self.take_head());
        if let Some(e) = &entry {
            self.delivered = Some(e.inst.seq);
        }
        // Keep the runahead window full so peeks after pops see far ahead.
        self.refill_to(self.depth);
        entry
    }

    /// Batched pop (see [`FetchSource::fill`]): delivers up to `max`
    /// entries into `out` in one refill. Equivalent to `max` consecutive
    /// [`InstrQueue::pop`]s — each pop refills to `depth` after draining
    /// one entry, so after `max` pops the emulator has produced
    /// `delivered + depth` entries total; this method reaches the same
    /// point with a single `refill_to(max + depth)`, preserving the exact
    /// production order (and thus replica-predictor state and wrong-path
    /// checkpoints).
    ///
    /// New chunks take `max` entries, so a consumer that always asks for
    /// the same batch into an emptied buffer gets each batch by a swap.
    pub fn fill(&mut self, out: &mut StreamBuf, max: usize) -> usize {
        self.prune_delivered();
        if max > 0 && max != self.chunk {
            self.chunk = max;
            self.odd = self.count_odd();
        }
        self.refill_to(max.saturating_add(self.depth));
        let take = max.min(self.len);
        if take == 0 {
            return 0;
        }
        if out.entries.is_empty() && self.head == 0 && self.chunks[0].len() == take {
            let front = self.pop_front_chunk();
            let old = std::mem::replace(&mut out.entries, front);
            self.spare.push(old);
            self.len -= take;
        } else {
            out.entries.reserve(take);
            for _ in 0..take {
                let entry = self.take_head();
                out.entries.push(entry);
            }
        }
        self.delivered = out.entries.last().map(|e| e.inst.seq);
        take
    }

    /// Peeks `index` entries ahead (0 = next to pop), extending the
    /// functional runahead on demand up to the queue depth.
    ///
    /// Returns `None` past the end of the program or beyond the depth.
    ///
    /// While every chunk but the back one holds the same number of
    /// entries, as in a run that asks for one batch size, the entry's
    /// chunk is found by a division; otherwise by a walk over the chunks.
    pub fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        if index >= self.depth {
            return None;
        }
        self.refill_to(index + 1);
        debug_assert_eq!(self.odd, self.count_odd());
        let mut at = self.head + index;
        if self.odd == 0 {
            let back = self.chunks.len().checked_sub(1)?;
            let c = (at / self.chunk).min(back);
            return self.chunks[c].get(at - c * self.chunk);
        }
        for chunk in &self.chunks {
            if at < chunk.len() {
                return Some(&chunk[at]);
            }
            at -= chunk.len();
        }
        None
    }

    /// Number of entries currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.len
    }

    /// Whether the stream has ended and the buffer is drained.
    #[must_use]
    pub fn is_exhausted(&mut self) -> bool {
        self.refill_to(1);
        self.len == 0
    }

    /// The correct-path fault that ended the stream, if any.
    #[must_use]
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    /// The cancellation cause that ended the stream, if the emulator's
    /// [`CancelToken`](crate::CancelToken) fired mid-run.
    #[must_use]
    pub fn cancelled(&self) -> Option<CancelCause> {
        self.cancelled
    }

    /// The frontend policy.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the frontend policy (e.g. to read replica stats).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The underlying emulator (e.g. for memory validation after a run).
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyninst::WrongPathStop;
    use crate::emulator::FollowComputed;
    use ffsim_isa::{Asm, Instr, Program, Reg};

    fn counted_program(n: i64) -> Program {
        let x = Reg::new(1);
        let mut a = Asm::new();
        a.li(x, n);
        a.label("loop");
        a.addi(x, x, -1);
        a.bnez(x, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn pop_yields_program_order() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(3)).unwrap(),
            NoFrontendWrongPath,
            16,
        );
        let mut seqs = Vec::new();
        while let Some(e) = q.pop() {
            seqs.push(e.inst.seq);
        }
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        assert!(q.is_exhausted());
        assert!(q.fault().is_none());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(3)).unwrap(),
            NoFrontendWrongPath,
            16,
        );
        let p0 = q.peek(0).unwrap().inst;
        let p3 = q.peek(3).unwrap().inst;
        assert_eq!(p0.seq, 0);
        assert_eq!(p3.seq, 3);
        assert_eq!(q.pop().unwrap().inst, p0);
        assert_eq!(q.peek(2).unwrap().inst, p3);
    }

    #[test]
    fn peek_beyond_depth_is_none() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(100)).unwrap(),
            NoFrontendWrongPath,
            8,
        );
        assert!(q.peek(8).is_none());
        assert!(q.peek(7).is_some());
    }

    #[test]
    fn peek_past_end_is_none() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(1)).unwrap(),
            NoFrontendWrongPath,
            64,
        );
        // Program is li, addi, bnez (not taken), halt = 4 instructions.
        assert!(q.peek(3).is_some());
        assert!(q.peek(4).is_none());
    }

    /// Policy that requests a wrong path at every not-taken conditional
    /// branch (pretending it predicted taken).
    struct AlwaysWrong;
    impl FrontendPolicy for AlwaysWrong {
        fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
            let b = inst.branch?;
            if matches!(inst.instr, Instr::Branch { .. }) && !b.taken {
                // Predicted taken, was not taken → wrong path is the target.
                let start = inst.instr.direct_target().unwrap();
                Some(WrongPathRequest { start })
            } else {
                None
            }
        }
    }

    #[test]
    fn checkpoints_attach_to_branches() {
        let mut emu = Emulator::new(counted_program(3)).unwrap();
        emu.set_store_log(true);
        let mut q = InstrQueue::new(emu, AlwaysWrong, 16);
        let mut checkpoints = Vec::new();
        while let Some(e) = q.pop() {
            if let Some(cp) = e.wrong_path {
                assert!(e.inst.instr.is_branch());
                checkpoints.push((e.inst, cp));
            }
        }
        // Only the final (not-taken) bnez gets a checkpoint, of the state
        // right after it: x1 counted down to zero.
        assert_eq!(checkpoints.len(), 1);
        let (branch, cp) = &checkpoints[0];
        assert_eq!(cp.start, branch.instr.direct_target().unwrap());
        assert_eq!(cp.state.reg(Reg::new(1)), 0);
        assert_eq!(cp.state.pc, branch.next_pc);
        // Wrong path re-enters the loop: addi, bnez, addi, bnez, ... with
        // x1 decremented to negative values, so bnez stays taken until the
        // 16-instruction budget runs out.
        let mut stream = q
            .emulator()
            .wrong_path_stream(branch.seq, cp, 16, None, FollowComputed);
        assert_eq!(stream.by_ref().count(), 16);
        assert_eq!(stream.stop(), Some(WrongPathStop::BudgetExhausted));
    }

    #[test]
    fn fill_matches_pop_sequence() {
        // Use the wrong-path-requesting policy so checkpoints and runahead
        // production both participate in the equivalence.
        let stream = |batch: Option<usize>| {
            let mut q =
                InstrQueue::new(Emulator::new(counted_program(20)).unwrap(), AlwaysWrong, 8);
            let mut entries = Vec::new();
            match batch {
                None => {
                    while let Some(e) = q.pop() {
                        entries.push(e);
                    }
                }
                Some(max) => {
                    let mut buf = StreamBuf::with_capacity(max);
                    loop {
                        buf.clear();
                        if q.fill(&mut buf, max) == 0 {
                            break;
                        }
                        entries.extend_from_slice(buf.entries());
                    }
                }
            }
            (entries, q.emulator().digest())
        };
        let baseline = stream(None);
        for batch in [1, 3, 16, 256] {
            assert_eq!(stream(Some(batch)), baseline, "batch size {batch}");
        }
    }

    #[test]
    fn fill_delivers_partial_batch_at_end_of_stream() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(1)).unwrap(),
            NoFrontendWrongPath,
            4,
        );
        let mut buf = StreamBuf::new();
        // Program is li, addi, bnez (not taken), halt = 4 instructions.
        assert_eq!(q.fill(&mut buf, 64), 4);
        assert_eq!(buf.len(), 4);
        assert!(!buf.is_empty());
        assert_eq!(q.fill(&mut buf, 64), 0, "stream ended");
        assert!(q.is_exhausted());
    }

    #[test]
    fn fault_terminates_stream_and_is_reported() {
        let mut a = Asm::new();
        a.li(Reg::new(1), 0x33); // misaligned for an 8-byte load
        a.ld(Reg::new(2), 0, Reg::new(1));
        a.halt();
        let mut q = InstrQueue::new(
            Emulator::new(a.assemble().unwrap()).unwrap(),
            NoFrontendWrongPath,
            4,
        );
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "only the li executes");
        assert!(q.fault().is_some());
        assert!(!q.fault_was_wrong_path());
    }

    #[test]
    fn cancellation_ends_stream_cooperatively() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        let mut emu = Emulator::new(counted_program(1000)).unwrap();
        emu.set_cancel_token(Some(token.clone()));
        let mut q = InstrQueue::new(emu, NoFrontendWrongPath, 4);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
            if n == 10 {
                token.cancel();
            }
        }
        // Already-buffered entries drain, then the stream ends early.
        assert!((10..100).contains(&n), "popped {n}");
        assert_eq!(q.cancelled(), Some(CancelCause::Cancelled));
        assert!(q.fault().is_none(), "cancellation is not a fault");
    }

    /// Stores to one word before and after a mispredicted branch; the
    /// wrong path loads the word and branches on it, so reading memory as
    /// it is after runahead rather than as of the branch changes the
    /// records.
    fn overwritten_after_branch_program() -> Program {
        let (x1, x2, x3, x4) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        let mut a = Asm::new();
        a.li(x1, 0x2000);
        a.li(x2, 1);
        a.sd(x2, 0, x1); // [0x2000] = 1 before the branch
        a.li(x3, 0);
        a.bnez(x3, "wrong"); // never taken: AlwaysWrong checkpoints here
        a.li(x2, 0);
        a.sb(x2, 0, x1); // the correct path then clears its low byte
        a.sd(x1, 8, x1);
        a.halt();
        a.label("wrong");
        a.ld(x4, 0, x1);
        a.bnez(x4, "far");
        a.nop();
        a.halt();
        a.label("far");
        a.ld(x4, 8, x1);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn lazy_wrong_path_reads_memory_as_of_the_branch() {
        let p = overwritten_after_branch_program();
        let mut emu = Emulator::new(p.clone()).unwrap();
        emu.set_store_log(true);
        let mut q = InstrQueue::new(emu, AlwaysWrong, 64);
        // The eager reference: a second emulator stopped at the branch.
        let mut reference = Emulator::new(p).unwrap();
        let mut buf = StreamBuf::new();
        assert_eq!(q.fill(&mut buf, 64), 9, "whole program in one batch");
        let mut checked = 0;
        for e in buf.entries() {
            assert_eq!(reference.step().unwrap(), e.inst);
            let Some(cp) = &e.wrong_path else { continue };
            let eager =
                reference.emulate_wrong_path_bounded(cp.start, 64, None, &mut FollowComputed);
            let mut stream =
                q.emulator()
                    .wrong_path_stream(e.inst.seq, cp, 64, None, FollowComputed);
            let lazy: Vec<_> = stream.by_ref().collect();
            assert_eq!(lazy, eager.insts);
            assert_eq!(stream.stop(), Some(eager.stop));
            // ld, bnez (taken on the pre-branch value), ld 8(x1), halt.
            assert_eq!(lazy.len(), 3);
            assert_ne!(lazy[1].next_pc, lazy[1].pc + 4, "taken bnez");
            checked += 1;
        }
        assert_eq!(checked, 1);
        assert_eq!(q.emulator().store_log_len(), 3, "nothing delivered yet");
        assert_eq!(q.fill(&mut buf, 64), 0);
        assert_eq!(q.emulator().store_log_len(), 0, "delivered stores pruned");
    }

    #[test]
    fn store_log_keeps_the_stores_past_the_last_delivery() {
        let (x1, x2) = (Reg::new(1), Reg::new(2));
        let mut a = Asm::new();
        a.li(x1, 40);
        a.li(x2, 0x3000);
        a.label("loop");
        a.sd(x1, 0, x2);
        a.addi(x1, x1, -1);
        a.bnez(x1, "loop");
        a.halt();
        let mut emu = Emulator::new(a.assemble().unwrap()).unwrap();
        emu.set_store_log(true);
        let mut q = InstrQueue::new(emu, NoFrontendWrongPath, 8);
        let mut buf = StreamBuf::new();
        loop {
            buf.clear();
            if q.fill(&mut buf, 5) == 0 {
                break;
            }
            // The stores of this batch and of the buffered runahead.
            let is_store = |e: &StreamEntry| e.inst.mem.is_some_and(|m| m.is_store);
            let mut pending = buf.entries().iter().filter(|e| is_store(e)).count();
            for i in 0..q.buffered() {
                pending += usize::from(q.peek(i).is_some_and(is_store));
            }
            assert_eq!(q.emulator().store_log_len(), pending);
        }
    }
}
