//! Architectural register state and checkpoints.

use ffsim_isa::fnv::Fnv1a;
use ffsim_isa::{Addr, FReg, Reg, NUM_FP_REGS, NUM_INT_REGS};

/// The architectural register state of the simulated machine: 32 integer
/// registers (with `x0` hard-wired to zero), 16 double-precision FP
/// registers, and the program counter.
///
/// Cloning an `ArchState` is the emulator's *checkpoint* primitive — the
/// analogue of Pin's `PIN_SaveContext`, which the paper's wrong-path
/// emulation technique uses to restore the correct path after emulating
/// down the wrong one (§III-B).
///
/// # Examples
///
/// ```
/// use ffsim_emu::ArchState;
/// use ffsim_isa::Reg;
/// let mut s = ArchState::new(0x1000);
/// s.set_reg(Reg::new(3), 7);
/// let checkpoint = s.clone();
/// s.set_reg(Reg::new(3), 99);
/// assert_eq!(checkpoint.reg(Reg::new(3)), 7);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct ArchState {
    int_regs: [u64; NUM_INT_REGS],
    fp_regs: [f64; NUM_FP_REGS],
    /// The current program counter.
    pub pc: Addr,
}

impl ArchState {
    /// Creates a zeroed register state with the given initial pc.
    #[must_use]
    pub fn new(pc: Addr) -> ArchState {
        ArchState {
            int_regs: [0; NUM_INT_REGS],
            fp_regs: [0.0; NUM_FP_REGS],
            pc,
        }
    }

    /// Reads an integer register (`x0` always reads zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.int_regs[r.index()]
    }

    /// Writes an integer register (writes to `x0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.int_regs[r.index()] = value;
        }
    }

    /// Reads a floating-point register.
    #[must_use]
    pub fn freg(&self, f: FReg) -> f64 {
        self.fp_regs[f.index()]
    }

    /// Writes a floating-point register.
    pub fn set_freg(&mut self, f: FReg, value: f64) {
        self.fp_regs[f.index()] = value;
    }

    /// A 64-bit FNV-1a digest of the register file and pc.
    ///
    /// FP registers are folded by IEEE-754 bit pattern, so the digest is
    /// exact (two states digest equal iff bit-identical, NaN payloads
    /// included). Combined with [`Memory::digest`](crate::Memory::digest)
    /// by the fault-injection harness to compare final architectural state
    /// across runs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &r in &self.int_regs {
            h = h.update(&r.to_le_bytes());
        }
        for &f in &self.fp_regs {
            h = h.update(&f.to_bits().to_le_bytes());
        }
        h.update(&self.pc.to_le_bytes()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_hardwired() {
        let mut s = ArchState::new(0);
        s.set_reg(Reg::ZERO, 42);
        assert_eq!(s.reg(Reg::ZERO), 0);
    }

    #[test]
    fn registers_independent() {
        let mut s = ArchState::new(0);
        for i in 1..32u8 {
            s.set_reg(Reg::new(i), u64::from(i) * 10);
        }
        for i in 0..16u8 {
            s.set_freg(FReg::new(i), f64::from(i) * 0.5);
        }
        for i in 1..32u8 {
            assert_eq!(s.reg(Reg::new(i)), u64::from(i) * 10);
        }
        for i in 0..16u8 {
            assert_eq!(s.freg(FReg::new(i)), f64::from(i) * 0.5);
        }
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut s = ArchState::new(0x100);
        s.set_reg(Reg::new(1), 1);
        let cp = s.clone();
        s.set_reg(Reg::new(1), 2);
        s.pc = 0x200;
        assert_ne!(s, cp);
        let restored = cp;
        assert_eq!(restored.reg(Reg::new(1)), 1);
        assert_eq!(restored.pc, 0x100);
    }
}
