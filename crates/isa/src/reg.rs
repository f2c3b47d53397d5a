//! Architectural register names.
//!
//! The ISA has 32 integer registers (`x0`–`x31`, with `x0` hard-wired to
//! zero) and 16 floating-point registers (`f0`–`f15`). Two typed wrappers,
//! [`Reg`] and [`FReg`], keep integer and floating-point operands apart at
//! the API level, while [`ArchReg`] provides a flat numbering of the whole
//! architectural register file that dependence-tracking code (e.g. the
//! convergence-detection dirty-register set) can use as a dense bitset
//! index.

use std::fmt;

/// Number of integer architectural registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_REGS: usize = 16;
/// Total architectural registers (integer + floating point).
pub const NUM_ARCH_REGS: usize = NUM_INT_REGS + NUM_FP_REGS;

/// An integer register, `x0`–`x31`.
///
/// `x0` always reads as zero and writes to it are discarded, mirroring the
/// RISC convention. By software convention `x1` is the link register used by
/// [`crate::Instr::Jal`]-based calls and `x2` the stack pointer, but nothing
/// in the ISA enforces this.
///
/// # Examples
///
/// ```
/// use ffsim_isa::Reg;
/// let r = Reg::new(5);
/// assert_eq!(r.index(), 5);
/// assert_eq!(r.to_string(), "x5");
/// assert!(Reg::ZERO.is_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Conventional link (return-address) register `x1`.
    pub const RA: Reg = Reg(1);
    /// Conventional stack pointer `x2`.
    pub const SP: Reg = Reg(2);

    /// Creates the integer register with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    #[inline]
    pub fn new(index: u8) -> Reg {
        assert!(
            (index as usize) < NUM_INT_REGS,
            "integer register index {index} out of range"
        );
        Reg(index)
    }

    /// The register's index within the integer register file.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hard-wired zero register `x0`.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A floating-point register, `f0`–`f15`.
///
/// # Examples
///
/// ```
/// use ffsim_isa::FReg;
/// let f = FReg::new(3);
/// assert_eq!(f.to_string(), "f3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FReg(u8);

impl FReg {
    /// Creates the floating-point register with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    #[must_use]
    #[inline]
    pub fn new(index: u8) -> FReg {
        assert!(
            (index as usize) < NUM_FP_REGS,
            "fp register index {index} out of range"
        );
        FReg(index)
    }

    /// The register's index within the floating-point register file.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A flat identifier for any architectural register.
///
/// Integer registers occupy indices `0..32`, floating-point registers
/// `32..48`. The flat index is dense, so a 64-bit word can represent a set
/// of architectural registers — see [`RegSet`].
///
/// # Examples
///
/// ```
/// use ffsim_isa::{ArchReg, Reg, FReg};
/// assert_eq!(ArchReg::from(Reg::new(7)).flat_index(), 7);
/// assert_eq!(ArchReg::from(FReg::new(2)).flat_index(), 34);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArchReg(pub(crate) u8);

impl ArchReg {
    /// Creates an `ArchReg` directly from a flat index.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= 48`.
    #[must_use]
    #[inline]
    pub fn from_flat(flat: u8) -> ArchReg {
        assert!(
            (flat as usize) < NUM_ARCH_REGS,
            "flat register index {flat} out of range"
        );
        ArchReg(flat)
    }

    /// The dense flat index (`0..48`).
    #[must_use]
    #[inline]
    pub fn flat_index(self) -> usize {
        self.0 as usize
    }

    /// Whether this identifies an integer register.
    #[must_use]
    #[inline]
    pub fn is_int(self) -> bool {
        (self.0 as usize) < NUM_INT_REGS
    }

    /// The integer register, if this identifies one.
    #[must_use]
    #[inline]
    pub fn as_int(self) -> Option<Reg> {
        self.is_int().then_some(Reg(self.0))
    }

    /// The floating-point register, if this identifies one.
    #[must_use]
    #[inline]
    pub fn as_fp(self) -> Option<FReg> {
        (!self.is_int()).then(|| FReg(self.0 - NUM_INT_REGS as u8))
    }
}

impl From<Reg> for ArchReg {
    #[inline]
    fn from(r: Reg) -> ArchReg {
        ArchReg(r.0)
    }
}

impl From<FReg> for ArchReg {
    #[inline]
    fn from(f: FReg) -> ArchReg {
        ArchReg(f.0 + NUM_INT_REGS as u8)
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(r) = self.as_int() {
            r.fmt(f)
        } else {
            self.as_fp().expect("non-int ArchReg is fp").fmt(f)
        }
    }
}

/// A set of architectural registers, stored as a 48-bit mask.
///
/// Used pervasively by dependence analysis: the convergence-exploitation
/// technique tracks which registers were written before the convergence
/// point ("dirty" registers) and refuses to recover memory addresses whose
/// source operands intersect the set.
///
/// # Examples
///
/// ```
/// use ffsim_isa::{ArchReg, Reg, RegSet};
/// let mut dirty = RegSet::new();
/// dirty.insert(Reg::new(4).into());
/// assert!(dirty.contains(Reg::new(4).into()));
/// assert!(!dirty.contains(Reg::new(5).into()));
/// assert_eq!(dirty.len(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct RegSet(u64);

impl RegSet {
    /// Creates an empty register set.
    #[must_use]
    #[inline]
    pub fn new() -> RegSet {
        RegSet(0)
    }

    /// Inserts a register into the set.
    #[inline]
    pub fn insert(&mut self, r: ArchReg) {
        self.0 |= 1u64 << r.flat_index();
    }

    /// Removes a register from the set.
    #[inline]
    pub fn remove(&mut self, r: ArchReg) {
        self.0 &= !(1u64 << r.flat_index());
    }

    /// Whether the register is in the set.
    #[must_use]
    #[inline]
    pub fn contains(self, r: ArchReg) -> bool {
        self.0 & (1u64 << r.flat_index()) != 0
    }

    /// Whether any register from `other` is also in `self`.
    #[must_use]
    #[inline]
    pub fn intersects(self, other: RegSet) -> bool {
        self.0 & other.0 != 0
    }

    /// The union of two sets.
    #[must_use]
    #[inline]
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Number of registers in the set.
    #[must_use]
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the registers in the set in flat-index order.
    pub fn iter(self) -> impl Iterator<Item = ArchReg> {
        (0..NUM_ARCH_REGS as u8)
            .filter(move |i| self.0 & (1u64 << i) != 0)
            .map(ArchReg)
    }
}

impl FromIterator<ArchReg> for RegSet {
    fn from_iter<I: IntoIterator<Item = ArchReg>>(iter: I) -> RegSet {
        let mut s = RegSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<ArchReg> for RegSet {
    fn extend<I: IntoIterator<Item = ArchReg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_reg_roundtrip() {
        for i in 0..NUM_INT_REGS as u8 {
            let r = Reg::new(i);
            assert_eq!(r.index(), i as usize);
            let a = ArchReg::from(r);
            assert_eq!(a.as_int(), Some(r));
            assert_eq!(a.as_fp(), None);
        }
    }

    #[test]
    fn fp_reg_roundtrip() {
        for i in 0..NUM_FP_REGS as u8 {
            let r = FReg::new(i);
            let a = ArchReg::from(r);
            assert_eq!(a.as_fp(), Some(r));
            assert_eq!(a.as_int(), None);
            assert_eq!(a.flat_index(), NUM_INT_REGS + i as usize);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_reg_out_of_range_panics() {
        let _ = Reg::new(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_reg_out_of_range_panics() {
        let _ = FReg::new(16);
    }

    #[test]
    fn zero_register_identity() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::new(1).is_zero());
        assert_eq!(Reg::ZERO, Reg::new(0));
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::new(17).to_string(), "x17");
        assert_eq!(FReg::new(9).to_string(), "f9");
        assert_eq!(ArchReg::from(FReg::new(9)).to_string(), "f9");
        assert_eq!(ArchReg::from(Reg::new(3)).to_string(), "x3");
    }

    #[test]
    fn regset_insert_remove_contains() {
        let mut s = RegSet::new();
        assert!(s.is_empty());
        let a = ArchReg::from(Reg::new(10));
        let b = ArchReg::from(FReg::new(5));
        s.insert(a);
        s.insert(b);
        assert_eq!(s.len(), 2);
        assert!(s.contains(a) && s.contains(b));
        s.remove(a);
        assert!(!s.contains(a) && s.contains(b));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn regset_intersects_and_union() {
        let s1: RegSet = [ArchReg::from(Reg::new(1)), ArchReg::from(Reg::new(2))]
            .into_iter()
            .collect();
        let s2: RegSet = [ArchReg::from(Reg::new(2)), ArchReg::from(Reg::new(3))]
            .into_iter()
            .collect();
        let s3: RegSet = [ArchReg::from(FReg::new(0))].into_iter().collect();
        assert!(s1.intersects(s2));
        assert!(!s1.intersects(s3));
        assert_eq!(s1.union(s2).len(), 3);
    }

    #[test]
    fn regset_iter_in_order() {
        let regs = [
            ArchReg::from(Reg::new(30)),
            ArchReg::from(Reg::new(2)),
            ArchReg::from(FReg::new(1)),
        ];
        let s: RegSet = regs.into_iter().collect();
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(
            collected,
            vec![
                ArchReg::from(Reg::new(2)),
                ArchReg::from(Reg::new(30)),
                ArchReg::from(FReg::new(1))
            ]
        );
    }
}
