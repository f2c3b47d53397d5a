//! The functional emulator — this repository's substitute for Intel Pin.
//!
//! [`Emulator`] executes a [`Program`] instruction by instruction, emitting
//! one [`DynInst`] record per executed instruction. It provides exactly the
//! "advanced features" the paper's wrong-path emulation technique needs
//! from the functional simulator (§III-B):
//!
//! * **checkpointing** of architectural state ([`Emulator::checkpoint`] /
//!   [`Emulator::restore`], Pin's `PIN_SaveContext`),
//! * **execution redirection** ([`Emulator::execute_at`], Pin's
//!   `PIN_ExecuteAt`), and
//! * **wrong-path emulation** with suppressed stores and suppressed
//!   faults: lazily, as a [`WrongPathStream`] from a branch checkpoint
//!   ([`Emulator::wrong_path_stream`]), or eagerly to the end
//!   ([`Emulator::emulate_wrong_path`]).

use crate::cancel::{CancelCause, CancelToken};
use crate::dyninst::{
    BranchOutcome, DynInst, WpInst, WrongPathBundle, WrongPathCheckpoint, WrongPathStop,
};
use crate::exec::{execute, Fault, FaultModel, RegWrite};
use crate::mem::Memory;
use crate::state::ArchState;
use crate::undo::{MemAsOf, StoreLog};
use ffsim_isa::fnv::Fnv1a;
use ffsim_isa::{Addr, Instr, Program};
use std::error::Error;
use std::fmt;

/// Why [`Emulator::step`] could not produce an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepError {
    /// The program has executed its `halt` instruction.
    Halted,
    /// A fault occurred on the correct path (workload bug).
    Fault(Fault),
    /// The run's [`CancelToken`] fired (supervisor request or watchdog
    /// deadline); the emulator state is left consistent at the boundary of
    /// the last completed instruction.
    Cancelled(CancelCause),
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::Halted => write!(f, "program has halted"),
            StepError::Fault(fault) => write!(f, "correct-path fault: {fault}"),
            StepError::Cancelled(cause) => write!(f, "execution stopped: {cause}"),
        }
    }
}

impl Error for StepError {}

/// Why an [`Emulator`] could not be constructed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmuError {
    /// The program's entry point does not address an instruction.
    EntryNotExecutable {
        /// The offending entry pc.
        entry: Addr,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::EntryNotExecutable { entry } => {
                write!(f, "program entry point {entry:#x} is not executable")
            }
        }
    }
}

impl Error for EmuError {}

/// Decides the fetch direction of branches *on the wrong path*.
///
/// On real hardware the wrong path is steered by the branch predictor, not
/// by computed outcomes (the paper: "When a wrong-path branch is fetched,
/// it is also predicted, and the predicted target is used to continue the
/// wrong path", §III-A). The timing layer implements this trait with its
/// predictor; [`FollowComputed`] is a trivial oracle for tests.
pub trait BranchOracle {
    /// Returns the next fetch pc after the wrong-path branch at `pc`, or
    /// `None` to stop wrong-path generation (e.g. unpredictable indirect).
    ///
    /// `computed` is the functionally-computed outcome of the branch with
    /// wrong-path register values, which an oracle may use or ignore.
    fn next_fetch_pc(&mut self, pc: Addr, instr: &Instr, computed: BranchOutcome) -> Option<Addr>;
}

impl<O: BranchOracle + ?Sized> BranchOracle for &mut O {
    fn next_fetch_pc(&mut self, pc: Addr, instr: &Instr, computed: BranchOutcome) -> Option<Addr> {
        (**self).next_fetch_pc(pc, instr, computed)
    }
}

/// Oracle that steers wrong-path branches by their functionally-computed
/// outcome — i.e. a perfect within-wrong-path predictor. Useful in tests
/// and as an upper bound in ablations.
#[derive(Clone, Copy, Default, Debug)]
pub struct FollowComputed;

impl BranchOracle for FollowComputed {
    fn next_fetch_pc(
        &mut self,
        _pc: Addr,
        _instr: &Instr,
        computed: BranchOutcome,
    ) -> Option<Addr> {
        Some(computed.next_pc)
    }
}

/// The functional emulator.
///
/// # Examples
///
/// ```
/// use ffsim_emu::Emulator;
/// use ffsim_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// a.li(Reg::new(1), 2);
/// a.li(Reg::new(2), 3);
/// a.add(Reg::new(3), Reg::new(1), Reg::new(2));
/// a.halt();
/// let mut emu = Emulator::new(a.assemble()?)?;
/// let executed = emu.run_to_halt(100)?;
/// assert_eq!(executed, 4);
/// assert_eq!(emu.state().reg(Reg::new(3)), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Emulator {
    program: Program,
    mem: Memory,
    state: ArchState,
    fault_model: FaultModel,
    cancel: Option<CancelToken>,
    seq: u64,
    halted: bool,
    store_log: Option<StoreLog>,
}

impl Emulator {
    /// Creates an emulator for `program` with zeroed memory, entering at the
    /// program's entry point.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::EntryNotExecutable`] if the entry point does not
    /// address an instruction.
    pub fn new(program: Program) -> Result<Emulator, EmuError> {
        Emulator::with_memory(program, Memory::new())
    }

    /// Creates an emulator with a pre-initialized memory image (workloads
    /// lay out their data segments before starting execution).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::EntryNotExecutable`] if the entry point does not
    /// address an instruction.
    pub fn with_memory(program: Program, mem: Memory) -> Result<Emulator, EmuError> {
        let entry = program.entry();
        if program.instr_at(entry).is_none() {
            return Err(EmuError::EntryNotExecutable { entry });
        }
        let state = ArchState::new(entry);
        Ok(Emulator {
            program,
            mem,
            state,
            fault_model: FaultModel::default(),
            cancel: None,
            seq: 0,
            halted: false,
            store_log: None,
        })
    }

    /// Turns the correct-path store log on or off. While on, every
    /// correct-path store records the bytes it overwrites, so
    /// [`Emulator::wrong_path_stream`] can read memory as of a branch the
    /// emulator has since run past. The owner bounds the log with
    /// [`Emulator::prune_store_log`]; [`InstrQueue`](crate::InstrQueue)
    /// does so on every delivery.
    pub fn set_store_log(&mut self, enabled: bool) {
        self.store_log = enabled.then(StoreLog::default);
    }

    /// Forgets the logged stores of instructions at or before `seq`: no
    /// wrong path from a branch that old will be emulated any more.
    pub fn prune_store_log(&mut self, seq: u64) {
        if let Some(log) = &mut self.store_log {
            log.prune_through(seq);
        }
    }

    /// Number of stores in the log (zero when logging is off).
    #[cfg(test)]
    pub(crate) fn store_log_len(&self) -> usize {
        self.store_log.as_ref().map_or(0, StoreLog::len)
    }

    /// Attaches a [`CancelToken`]: every subsequent [`Emulator::step`] and
    /// wrong-path emulation loop iteration becomes a cancellation point
    /// (one relaxed atomic load). `None` detaches.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The cause the attached token fired with, if any.
    fn cancel_cause(&self) -> Option<CancelCause> {
        self.cancel.as_ref().and_then(CancelToken::cause)
    }

    /// Selects the [`FaultModel`] applied to every executed instruction
    /// (correct and wrong path alike). Defaults to
    /// [`FaultModel::permissive`].
    pub fn set_fault_model(&mut self, model: FaultModel) {
        self.fault_model = model;
    }

    /// The active fault model.
    #[must_use]
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// A 64-bit digest of the full architectural state (registers, pc and
    /// logical memory contents) for bit-identity comparisons across runs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        // Fold the two component digests FNV-style so the pair ordering
        // matters.
        Fnv1a::new()
            .update(&self.state.digest().to_le_bytes())
            .update(&self.mem.digest().to_le_bytes())
            .finish()
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The architectural register state.
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable architectural register state (for workload setup).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// The data memory.
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory (for workload setup and validation).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of correct-path instructions executed so far.
    #[must_use]
    pub fn instructions_executed(&self) -> u64 {
        self.seq
    }

    /// Takes a checkpoint of the architectural register state.
    #[must_use]
    pub fn checkpoint(&self) -> ArchState {
        self.state.clone()
    }

    /// Restores a previously-taken checkpoint.
    pub fn restore(&mut self, checkpoint: ArchState) {
        self.state = checkpoint;
    }

    /// Redirects execution to `pc` (Pin's `PIN_ExecuteAt`).
    pub fn execute_at(&mut self, pc: Addr) {
        self.state.pc = pc;
    }

    /// Executes one correct-path instruction and returns its record.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Halted`] once the program has executed `halt`
    /// (the `halt` itself is returned as a normal instruction), and
    /// [`StepError::Fault`] on correct-path faults.
    // Inlined into `InstrQueue`'s refill loop, so each record is built
    // once, in its queue slot.
    #[inline(always)]
    pub fn step(&mut self) -> Result<DynInst, StepError> {
        if self.halted {
            return Err(StepError::Halted);
        }
        if let Some(cause) = self.cancel_cause() {
            return Err(StepError::Cancelled(cause));
        }
        let pc = self.state.pc;
        let instr = *self
            .program
            .instr_at(pc)
            .ok_or(StepError::Fault(Fault::IllegalPc { pc }))?;
        let out = execute(&self.state, &self.mem, pc, &instr, &self.fault_model)
            .map_err(StepError::Fault)?;
        if let Some(st) = out.store {
            if let Some(log) = &mut self.store_log {
                let old = self.mem.read_uint(st.addr, st.width);
                log.record(self.seq, st.addr, st.width, old);
            }
            self.mem.write_uint(st.addr, st.width, st.bits);
        }
        match out.reg_write {
            Some(RegWrite::Int(r, v)) => self.state.set_reg(r, v),
            Some(RegWrite::Fp(f, v)) => self.state.set_freg(f, v),
            None => {}
        }
        self.state.pc = out.next_pc;
        if matches!(instr, Instr::Halt) {
            self.halted = true;
        }
        let inst = DynInst {
            seq: self.seq,
            pc,
            instr,
            mem: out.mem,
            branch: out.branch,
            next_pc: out.next_pc,
        };
        self.seq += 1;
        Ok(inst)
    }

    /// Runs until `halt` or until `max_steps` instructions have executed.
    ///
    /// Returns the number of instructions executed by this call.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Fault`] on a correct-path fault.
    pub fn run_to_halt(&mut self, max_steps: u64) -> Result<u64, StepError> {
        let start = self.seq;
        while !self.halted && self.seq - start < max_steps {
            self.step()?;
        }
        Ok(self.seq - start)
    }

    /// Emulates the wrong path starting at `start`, for at most `max_insts`
    /// instructions, steering wrong-path branches through `oracle`.
    ///
    /// The paper's technique (§III-B): take a register checkpoint, redirect
    /// execution to the wrong-path target, execute with **stores and
    /// exceptions suppressed**, then restore the checkpoint and continue on
    /// the correct path. Memory is never modified; register effects happen
    /// on a scratch copy that is thrown away. Store addresses are still
    /// recorded in the emitted [`WpInst`]s so the timing model can play
    /// them against the data cache. There is no store-to-load forwarding
    /// along the wrong path — wrong-path loads read the architectural
    /// memory at the branch, as in the paper.
    ///
    /// This is the eager form: it drains a [`WrongPathStream`] from the
    /// current state to its end.
    #[must_use]
    pub fn emulate_wrong_path<O: BranchOracle + ?Sized>(
        &self,
        start: Addr,
        max_insts: usize,
        oracle: &mut O,
    ) -> WrongPathBundle {
        self.emulate_wrong_path_bounded(start, max_insts, None, oracle)
    }

    /// Like [`Emulator::emulate_wrong_path`], with an additional watchdog
    /// bound: if the wrong path runs for `watchdog` instructions without
    /// terminating on its own, generation stops with
    /// [`WrongPathStop::WatchdogExceeded`]. The watchdog is a fault-
    /// tolerance backstop (distinguishable from the ordinary budget, which
    /// models ROB plus frontend capacity); the squash-and-restore contract
    /// is identical either way.
    #[must_use]
    pub fn emulate_wrong_path_bounded<O: BranchOracle + ?Sized>(
        &self,
        start: Addr,
        max_insts: usize,
        watchdog: Option<u64>,
        oracle: &mut O,
    ) -> WrongPathBundle {
        let mut state = self.state.clone();
        state.pc = start;
        let mem = MemAsOf::new(&self.mem, None, 0);
        let mut stream = self.stream(state, mem, max_insts, watchdog, oracle);
        // Size the bundle for the binding bound up front: the budget is a
        // few hundred instructions (ROB plus frontend), and growth-doubling
        // a fresh Vec would re-copy every record several times per episode.
        let mut insts = Vec::with_capacity(stream.limit.count);
        insts.extend(&mut stream);
        let stop = stream.stop.expect("a drained stream has stopped");
        WrongPathBundle { insts, stop }
    }

    /// The wrong path of correct-path branch `seq`, emulated lazily from
    /// `checkpoint`: each record is emulated when it is pulled, so a
    /// consumer that stops early (the timing model, at branch resolution)
    /// never pays for the rest. The records and the stop reason are
    /// exactly those [`Emulator::emulate_wrong_path_bounded`] would have
    /// produced right after the branch, with the same `max_insts`,
    /// `watchdog` and `oracle`.
    ///
    /// Wrong-path loads read memory as of the branch through the store log
    /// ([`Emulator::set_store_log`]), which must hold every store since
    /// `seq`. Without a log they read memory as it is now, which is only
    /// right while the emulator has not run past the branch.
    #[must_use]
    pub fn wrong_path_stream<'a, O: BranchOracle>(
        &'a self,
        seq: u64,
        checkpoint: &WrongPathCheckpoint,
        max_insts: usize,
        watchdog: Option<u64>,
        oracle: O,
    ) -> WrongPathStream<'a, O> {
        debug_assert!(
            self.store_log.is_some() || seq + 1 == self.seq,
            "no store log to rewind memory to branch {seq}"
        );
        let mut state = (*checkpoint.state).clone();
        state.pc = checkpoint.start;
        let mem = MemAsOf::new(&self.mem, self.store_log.as_ref(), seq);
        self.stream(state, mem, max_insts, watchdog, oracle)
    }

    /// A wrong-path stream from `state` over `mem`.
    fn stream<'a, O: BranchOracle>(
        &'a self,
        state: ArchState,
        mem: MemAsOf<'a>,
        max_insts: usize,
        watchdog: Option<u64>,
        oracle: O,
    ) -> WrongPathStream<'a, O> {
        WrongPathStream {
            program: &self.program,
            mem,
            fault_model: self.fault_model,
            cancel: self.cancel.as_ref(),
            oracle,
            state,
            limit: WrongPathLimit::new(max_insts, watchdog),
            emitted: 0,
            stop: None,
        }
    }
}

/// The budget and watchdog bounds of one wrong path, collapsed into one
/// count limit; the stop reason is recovered at the stop point, with the
/// watchdog winning ties exactly as the check order dictates.
#[derive(Clone, Copy, Debug)]
struct WrongPathLimit {
    count: usize,
    watchdog: Option<u64>,
    watchdog_binds: bool,
}

impl WrongPathLimit {
    fn new(max_insts: usize, watchdog: Option<u64>) -> WrongPathLimit {
        WrongPathLimit {
            count: watchdog
                .and_then(|w| usize::try_from(w).ok())
                .map_or(max_insts, |w| w.min(max_insts)),
            watchdog,
            watchdog_binds: watchdog.is_some_and(|w| w <= max_insts as u64),
        }
    }

    fn stop(self, pc: Addr) -> WrongPathStop {
        if self.watchdog_binds {
            WrongPathStop::WatchdogExceeded {
                pc,
                limit: self.watchdog.unwrap_or_default(),
            }
        } else {
            WrongPathStop::BudgetExhausted
        }
    }
}

/// A wrong path emulated one record per pull ([`Emulator::wrong_path_stream`]).
///
/// Registers live on a scratch copy of the checkpoint; stores are
/// suppressed. The per-instruction stop checks and their priority order
/// (cancel → watchdog → budget → illegal pc → halt → fault → oracle stop)
/// are those of per-instruction stepping, and each instruction is fetched
/// from the decoded program text the same way. Once the stream stops, it
/// yields nothing more and [`WrongPathStream::stop`] says why.
#[derive(Debug)]
pub struct WrongPathStream<'a, O> {
    program: &'a Program,
    mem: MemAsOf<'a>,
    fault_model: FaultModel,
    cancel: Option<&'a CancelToken>,
    oracle: O,
    state: ArchState,
    limit: WrongPathLimit,
    emitted: usize,
    stop: Option<WrongPathStop>,
}

impl<O> WrongPathStream<'_, O> {
    /// Records emulated so far.
    #[must_use]
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Why the stream stopped, once a pull has found out; `None` while it
    /// could still go on.
    #[must_use]
    pub fn stop(&self) -> Option<WrongPathStop> {
        self.stop
    }
}

impl<O: BranchOracle> WrongPathStream<'_, O> {
    /// Fetches the instruction at `pc` from the program text; the wrong
    /// path ends at `halt` or outside the text.
    fn fetch(&self, pc: Addr) -> Result<Instr, WrongPathStop> {
        match self.program.instr_at(pc) {
            Some(Instr::Halt) => Err(WrongPathStop::Halt),
            Some(&instr) => Ok(instr),
            None => Err(WrongPathStop::IllegalPc(pc)),
        }
    }

    /// Emulates one instruction, or says why the wrong path ends.
    /// Inlined with [`Iterator::next`] into the consumer, so the record
    /// reaches it in registers rather than through a stack copy.
    #[inline]
    fn step(&mut self) -> Result<WpInst, WrongPathStop> {
        if let Some(cause) = self.cancel.and_then(CancelToken::cause) {
            return Err(WrongPathStop::Cancelled(cause));
        }
        let pc = self.state.pc;
        if self.emitted >= self.limit.count {
            return Err(self.limit.stop(pc));
        }
        let instr = self.fetch(pc)?;
        let out = execute(&self.state, &self.mem, pc, &instr, &self.fault_model)
            .map_err(WrongPathStop::Fault)?;
        // Register writes go to the scratch state; stores are suppressed.
        match out.reg_write {
            Some(RegWrite::Int(r, v)) => self.state.set_reg(r, v),
            Some(RegWrite::Fp(f, v)) => self.state.set_freg(f, v),
            None => {}
        }
        let mut next_pc = out.next_pc;
        if let Some(computed) = out.branch {
            match self.oracle.next_fetch_pc(pc, &instr, computed) {
                Some(predicted) => next_pc = predicted,
                // The branch itself was fetched; emulation cannot go on.
                None => self.stop = Some(WrongPathStop::OracleStop),
            }
        }
        self.state.pc = next_pc;
        self.emitted += 1;
        Ok(WpInst {
            pc,
            instr,
            mem: out.mem,
            next_pc,
        })
    }
}

impl<O: BranchOracle> Iterator for WrongPathStream<'_, O> {
    type Item = WpInst;

    #[inline]
    fn next(&mut self) -> Option<WpInst> {
        if self.stop.is_some() {
            return None;
        }
        match self.step() {
            Ok(record) => Some(record),
            Err(stop) => {
                self.stop = Some(stop);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{Asm, Reg};

    fn loop_program() -> Program {
        // x1 = 10; do { x2 += x1; x1 -= 1 } while x1 != 0; halt
        let (x1, x2) = (Reg::new(1), Reg::new(2));
        let mut a = Asm::new();
        a.li(x1, 10);
        a.label("loop");
        a.add(x2, x2, x1);
        a.addi(x1, x1, -1);
        a.bnez(x1, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn runs_loop_to_completion() {
        let mut emu = Emulator::new(loop_program()).unwrap();
        let n = emu.run_to_halt(1000).unwrap();
        assert_eq!(emu.state().reg(Reg::new(2)), 55);
        // 1 li + 10 * 3 loop body + halt
        assert_eq!(n, 1 + 30 + 1);
        assert!(emu.is_halted());
        assert_eq!(emu.step(), Err(StepError::Halted));
    }

    #[test]
    fn step_emits_branch_outcomes() {
        let mut emu = Emulator::new(loop_program()).unwrap();
        let mut taken = 0;
        let mut not_taken = 0;
        while let Ok(inst) = emu.step() {
            if let Some(b) = inst.branch {
                if b.taken {
                    taken += 1;
                } else {
                    not_taken += 1;
                }
            }
        }
        assert_eq!(taken, 9, "nine back-edges taken");
        assert_eq!(not_taken, 1, "final iteration falls through");
    }

    #[test]
    fn seq_numbers_are_dense() {
        let mut emu = Emulator::new(loop_program()).unwrap();
        let mut expect = 0;
        while let Ok(inst) = emu.step() {
            assert_eq!(inst.seq, expect);
            expect += 1;
        }
        assert_eq!(emu.instructions_executed(), expect);
    }

    #[test]
    fn stores_commit_on_correct_path() {
        let mut a = Asm::new();
        let (x1, x2) = (Reg::new(1), Reg::new(2));
        a.li(x1, 0x100);
        a.li(x2, 42);
        a.sd(x2, 0, x1);
        a.halt();
        let mut emu = Emulator::new(a.assemble().unwrap()).unwrap();
        emu.run_to_halt(10).unwrap();
        assert_eq!(emu.mem().read_u64(0x100), 42);
    }

    #[test]
    fn illegal_pc_is_a_fault() {
        let mut a = Asm::new();
        a.li(Reg::new(1), 0x9999_0000);
        a.jr(Reg::new(1));
        a.halt();
        let mut emu = Emulator::new(a.assemble().unwrap()).unwrap();
        emu.step().unwrap();
        emu.step().unwrap(); // the jump itself executes fine
        match emu.step() {
            Err(StepError::Fault(Fault::IllegalPc { pc })) => assert_eq!(pc, 0x9999_0000),
            other => panic!("expected illegal pc fault, got {other:?}"),
        }
    }

    #[test]
    fn wrong_path_emulation_preserves_all_state() {
        // Correct path falls through a branch; wrong path (taken side)
        // would overwrite x3 and store to memory.
        let (x1, x3, x4) = (Reg::new(1), Reg::new(3), Reg::new(4));
        let mut a = Asm::new();
        a.li(x1, 0); // branch condition: not taken
        a.li(x4, 0x200);
        a.bnez(x1, "wrong"); // never taken on correct path
        a.li(x3, 1); // correct path
        a.halt();
        a.label("wrong");
        a.li(x3, 99);
        a.sd(x3, 0, x4);
        a.li(x3, 100);
        a.halt();
        let p = a.assemble().unwrap();
        let wrong_target = p.base() + 5 * 4; // label "wrong"

        let mut emu = Emulator::new(p).unwrap();
        emu.step().unwrap();
        emu.step().unwrap();
        let before = emu.checkpoint();
        let bundle = emu.emulate_wrong_path(wrong_target, 64, &mut FollowComputed);
        // State fully restored.
        assert_eq!(emu.state(), &before);
        // Memory untouched despite the wrong-path store.
        assert_eq!(emu.mem().read_u64(0x200), 0);
        // Wrong path executed li, sd, li then stopped at halt.
        assert_eq!(bundle.insts.len(), 3);
        assert_eq!(bundle.stop, WrongPathStop::Halt);
        // The suppressed store still reports its address.
        let store = bundle.insts[1];
        assert_eq!(store.pc, wrong_target + 4);
        let mem = store.mem.unwrap();
        assert!(mem.is_store);
        assert_eq!(mem.addr, 0x200);
        // Correct path continues unaffected.
        emu.run_to_halt(10).unwrap();
        assert_eq!(emu.state().reg(x3), 1);
    }

    #[test]
    fn wrong_path_records_match_correct_path_steps_at_high_text_base() {
        // Emulated as a wrong path that follows computed outcomes from a
        // checkpoint, the program yields, field for field, the record a
        // clone of the emulator steps through from that checkpoint. A
        // text base near the top of the address space checks the
        // fall-through arithmetic there.
        let (x1, x2, x3) = (Reg::new(1), Reg::new(2), Reg::new(3));
        let f1 = ffsim_isa::FReg::new(1);
        let mut a = Asm::with_base(0xffff_ffff_ffff_0000);
        a.li(x1, 3);
        a.li(x2, 0x2000);
        a.label("loop");
        a.lb(x3, 1, x2).lhu(x3, 2, x2).lw(x3, 4, x2).ld(x3, 8, x2);
        a.sb(x3, 1, x2).sh(x3, 2, x2).sw(x3, 4, x2).sd(x3, 8, x2);
        a.fld(f1, 16, x2).fsd(f1, 24, x2);
        a.addi(x1, x1, -1);
        a.bnez(x1, "loop");
        a.j("end");
        a.nop();
        a.label("end");
        a.halt();
        let mut emu = Emulator::new(a.assemble().unwrap()).unwrap();
        emu.step().unwrap(); // li x1
        let cp = WrongPathCheckpoint::new(emu.state().pc, emu.state());
        let bundle = emu.emulate_wrong_path(cp.start, 1000, &mut FollowComputed);
        assert_eq!(bundle.stop, WrongPathStop::Halt);
        let mut stepper = emu.clone();
        let mut stepped = Vec::new();
        while let Ok(inst) = stepper.step() {
            stepped.push(inst);
        }
        stepped.pop(); // the halt, where wrong-path emulation stops
        assert_eq!(bundle.insts.len(), stepped.len());
        for (wp, inst) in bundle.insts.iter().zip(&stepped) {
            assert_eq!(
                (wp.pc, wp.instr, wp.mem, wp.next_pc),
                (inst.pc, inst.instr, inst.mem, inst.next_pc),
                "{} at {:#x}",
                inst.instr,
                inst.pc
            );
        }
        // Two taken back edges and the jump redirect; the loop exit falls
        // through.
        let redirected = bundle.insts.iter().filter(|w| w.next_pc != w.pc + 4);
        assert_eq!(redirected.count(), 3);
        let stores = bundle
            .insts
            .iter()
            .filter(|w| w.mem.is_some_and(|m| m.is_store));
        assert_eq!(stores.count(), 3 * 5);
    }

    #[test]
    fn wrong_path_budget_exhaustion() {
        let mut emu = Emulator::new(loop_program()).unwrap();
        emu.step().unwrap(); // li
        let loop_head = emu.state().pc;
        let bundle = emu.emulate_wrong_path(loop_head, 7, &mut FollowComputed);
        assert_eq!(bundle.insts.len(), 7);
        assert_eq!(bundle.stop, WrongPathStop::BudgetExhausted);
    }

    #[test]
    fn wrong_path_illegal_start() {
        let emu = Emulator::new(loop_program()).unwrap();
        let bundle = emu.emulate_wrong_path(0xdead_0000, 64, &mut FollowComputed);
        assert!(bundle.insts.is_empty());
        assert_eq!(bundle.stop, WrongPathStop::IllegalPc(0xdead_0000));
    }

    #[test]
    fn wrong_path_oracle_stop() {
        struct StopAtBranch;
        impl BranchOracle for StopAtBranch {
            fn next_fetch_pc(
                &mut self,
                _pc: Addr,
                _instr: &Instr,
                _computed: BranchOutcome,
            ) -> Option<Addr> {
                None
            }
        }
        let p = loop_program();
        let loop_head = p.base() + 4;
        let mut emu = Emulator::new(p).unwrap();
        emu.step().unwrap();
        let bundle = emu.emulate_wrong_path(loop_head, 64, &mut StopAtBranch);
        // add, addi, bnez → oracle stops at the branch (branch included).
        assert_eq!(bundle.insts.len(), 3);
        assert_eq!(bundle.stop, WrongPathStop::OracleStop);
    }

    #[test]
    fn wrong_path_loads_read_architectural_memory() {
        let (x1, x2) = (Reg::new(1), Reg::new(2));
        let mut a = Asm::new();
        a.li(x1, 0x300);
        a.label("wp");
        a.ld(x2, 0, x1);
        a.halt();
        let p = a.assemble().unwrap();
        let wp = p.base() + 4;
        let mut emu = Emulator::new(p).unwrap();
        emu.mem_mut().write_u64(0x300, 1234);
        emu.step().unwrap();
        let bundle = emu.emulate_wrong_path(wp, 8, &mut FollowComputed);
        let mem = bundle.insts[0].mem.unwrap();
        assert!(!mem.is_store);
        assert_eq!(mem.addr, 0x300);
        // And the register scratch value was really loaded (observable via
        // a dependent wrong-path store address in richer programs); here we
        // just confirm state was restored.
        assert_eq!(emu.state().reg(x2), 0);
    }

    #[test]
    fn valid_entry_constructs_ok() {
        // `Program`'s own constructors assert the entry is in-text, so the
        // emulator-level check is defense-in-depth; exercise the Ok path
        // and the error's rendering.
        assert!(Emulator::new(loop_program()).is_ok());
        let err = EmuError::EntryNotExecutable { entry: 0xdead_0000 };
        assert!(err.to_string().contains("0xdead0000"));
    }

    #[test]
    fn wrong_path_watchdog_cuts_off_and_restores() {
        let mut emu = Emulator::new(loop_program()).unwrap();
        emu.step().unwrap(); // li
        let before = emu.checkpoint();
        let loop_head = emu.state().pc;
        // Watchdog (5) binds before the budget (100).
        let bundle = emu.emulate_wrong_path_bounded(loop_head, 100, Some(5), &mut FollowComputed);
        assert_eq!(bundle.insts.len(), 5);
        assert!(matches!(
            bundle.stop,
            WrongPathStop::WatchdogExceeded { limit: 5, .. }
        ));
        assert_eq!(emu.state(), &before, "watchdog squash restores state");
        // Budget binds first when smaller: stop reason stays BudgetExhausted.
        let bundle = emu.emulate_wrong_path_bounded(loop_head, 3, Some(5), &mut FollowComputed);
        assert_eq!(bundle.stop, WrongPathStop::BudgetExhausted);
    }

    #[test]
    fn wrong_path_fault_carries_cause_and_restores() {
        // Wrong path performs a misaligned load.
        let (x1, x2) = (Reg::new(1), Reg::new(2));
        let mut a = Asm::new();
        a.li(x1, 0x101); // misaligned for an 8-byte load
        a.label("wp");
        a.ld(x2, 0, x1);
        a.halt();
        let p = a.assemble().unwrap();
        let wp = p.base() + 4;
        let mut emu = Emulator::new(p).unwrap();
        emu.step().unwrap();
        let before = emu.checkpoint();
        let bundle = emu.emulate_wrong_path(wp, 8, &mut FollowComputed);
        assert_eq!(
            bundle.stop,
            WrongPathStop::Fault(Fault::Misaligned {
                pc: wp,
                addr: 0x101
            })
        );
        assert!(bundle.insts.is_empty());
        assert_eq!(emu.state(), &before);
    }

    /// Emulator stopped right after the `li` of `loop_program`, and the
    /// checkpoint of a wrong path into the loop head.
    fn loop_checkpoint() -> (Emulator, WrongPathCheckpoint) {
        let mut emu = Emulator::new(loop_program()).unwrap();
        emu.step().unwrap(); // li
        let cp = WrongPathCheckpoint::new(emu.state().pc, emu.state());
        (emu, cp)
    }

    #[test]
    fn lazy_stream_emulates_only_what_is_pulled() {
        let (emu, cp) = loop_checkpoint();
        let mut stream = emu.wrong_path_stream(0, &cp, 100, Some(5), FollowComputed);
        assert_eq!(stream.by_ref().take(5).count(), 5);
        assert_eq!(stream.emitted(), 5);
        // The watchdog trips on the sixth pull, not before it.
        assert_eq!(stream.stop(), None);
        assert_eq!(stream.next(), None);
        assert!(matches!(
            stream.stop(),
            Some(WrongPathStop::WatchdogExceeded { limit: 5, .. })
        ));
        assert_eq!(stream.next(), None, "a stopped stream stays stopped");
    }

    #[test]
    fn lazy_stream_matches_eager_emulation() {
        let (emu, cp) = loop_checkpoint();
        let lazy: Vec<_> = emu
            .wrong_path_stream(0, &cp, 7, None, FollowComputed)
            .collect();
        let eager = emu.emulate_wrong_path(cp.start, 7, &mut FollowComputed);
        assert_eq!(lazy, eager.insts);
        assert_eq!(eager.stop, WrongPathStop::BudgetExhausted);
    }

    #[test]
    fn lazy_stream_cancellation_stops_at_the_next_pull() {
        let (mut emu, cp) = loop_checkpoint();
        let token = CancelToken::new();
        emu.set_cancel_token(Some(token.clone()));
        let mut stream = emu.wrong_path_stream(0, &cp, 64, None, FollowComputed);
        assert!(stream.next().is_some());
        token.cancel();
        assert_eq!(stream.next(), None);
        assert_eq!(
            stream.stop(),
            Some(WrongPathStop::Cancelled(CancelCause::Cancelled))
        );
    }

    #[test]
    fn addr_limit_store_faults_on_correct_path() {
        let (x1, x2) = (Reg::new(1), Reg::new(2));
        let mut a = Asm::new();
        a.li(x1, 0x10_0000);
        a.li(x2, 7);
        a.sd(x2, 0, x1);
        a.halt();
        let mut emu = Emulator::new(a.assemble().unwrap()).unwrap();
        emu.set_fault_model(FaultModel {
            addr_limit: Some(0x10_0000),
            ..FaultModel::default()
        });
        emu.step().unwrap();
        emu.step().unwrap();
        match emu.step() {
            Err(StepError::Fault(Fault::OutOfRange { addr, .. })) => {
                assert_eq!(addr, 0x10_0000);
            }
            other => panic!("expected out-of-range fault, got {other:?}"),
        }
        assert_eq!(
            emu.state().reg(x2),
            7,
            "register state untouched by the faulting store"
        );
    }

    #[test]
    fn digest_is_sensitive_to_state_and_memory() {
        let mut a = Emulator::new(loop_program()).unwrap();
        let mut b = Emulator::new(loop_program()).unwrap();
        assert_eq!(a.digest(), b.digest());
        a.run_to_halt(1000).unwrap();
        assert_ne!(a.digest(), b.digest());
        b.run_to_halt(1000).unwrap();
        assert_eq!(a.digest(), b.digest());
        b.mem_mut().write_u8(0x900, 1);
        assert_ne!(a.digest(), b.digest());
    }
}
